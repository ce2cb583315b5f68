"""Seeded generator of synthetic keystroke datasets.

The generator is a statistical stand-in for real typing behavior: every
subject receives a typing profile drawn from population hyper-priors, with
optional group-dependent mean shifts so that downstream fairness metrics
have a known, monotone response to the configured skew. Identical
configurations produce bit-identical datasets, and per-subject streams are
derived from (seed, subject index) so adding subjects never perturbs
existing ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ALL_GROUPS, CODE, PRESS, RELEASE, Dataset, Gender
from .errors import ConfigError

PRINTABLE_ASCII = tuple(range(32, 127))
_KEY_CODES = np.array(PRINTABLE_ASCII, dtype=np.int64)
_EPOCH_BASE_MS = 1_600_000_000_000
_SESSION_SPACING_MS = 3_600_000

# The dataset stream's RNG domain tag: every generated byte depends on it.
_DOMAIN_DATASET = 0


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for `generate`; group_weights follows `core.ALL_GROUPS` order."""

    n_subjects: int
    seed: int = 0
    sessions_per_subject: int = 15
    keys_per_session: int = 48
    group_weights: tuple[float, ...] = (1.0 / len(ALL_GROUPS),) * len(ALL_GROUPS)
    skew_strength: float = 0.0

    def __post_init__(self) -> None:
        if self.n_subjects < 0:
            raise ConfigError(f"n_subjects must be >= 0, got {self.n_subjects}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.sessions_per_subject < 1 or self.keys_per_session < 1:
            raise ConfigError("sessions_per_subject and keys_per_session must be >= 1")
        if len(self.group_weights) != len(ALL_GROUPS):
            raise ConfigError(
                f"group_weights needs {len(ALL_GROUPS)} entries, got "
                f"{len(self.group_weights)}"
            )
        if any(w < 0 for w in self.group_weights):
            raise ConfigError("group_weights must be non-negative")
        if abs(sum(self.group_weights) - 1.0) > 1e-9:
            raise ConfigError(f"group_weights sums to {sum(self.group_weights)}, not 1")
        if not 0 <= self.skew_strength < math.inf:
            raise ConfigError(
                f"skew_strength must be finite and >= 0, got {self.skew_strength}"
            )


def _subject_rng(config: GeneratorConfig, index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([config.seed, _DOMAIN_DATASET, index])
    )


def _group_shift(group: int, skew_strength: float) -> float:
    # Relative shift of the timing means of group `group` (an ALL_GROUPS
    # index): a gradient over age bins plus a gender offset (-1 male, +1
    # female), both scaled by skew_strength. Zero skew means every group
    # draws from identical hyper-priors.
    age_bin, gender = divmod(group, len(Gender))
    age_term = (age_bin - 2.5) / 2.5
    gender_term = 2.0 * gender - 1.0
    return skew_strength * (0.30 * age_term + 0.15 * gender_term)


def _lognormal(
    rng: np.random.Generator, mean: float, sd: float, size: int | tuple[int, int]
) -> np.ndarray:
    # Parameterized by the target arithmetic mean/sd of the distribution.
    sigma2 = math.log(1.0 + (sd / mean) ** 2)
    mu = math.log(mean) - sigma2 / 2.0
    return rng.lognormal(mu, math.sqrt(sigma2), size)


def _subject_events(
    rng: np.random.Generator, group: int, skew_strength: float, out: np.ndarray
) -> None:
    """Fill `out`, a (sessions, keys, 3) block, with the events of one
    subject of group `group` (an ALL_GROUPS index), drawn from its stream.

    The subject's typing profile comes first (times in seconds): hold and
    gap means shifted by the group, their spreads, a rollover probability
    and per-key hold offsets. Then Zipf-like key preferences over a random
    permutation of the printable range, giving each subject a distinctive
    key-usage mix. The session draws are batched per distribution.
    """
    shift = 1.0 + _group_shift(group, skew_strength)
    mean_hold = 0.085 * math.exp(rng.normal(0.0, 0.22)) * shift
    mean_gap = 0.230 * math.exp(rng.normal(0.0, 0.25)) * shift
    if mean_hold <= 0 or mean_gap <= 0:
        raise ValueError("mean_hold_s and mean_gap_s must be positive")
    sd_hold = 0.25 * mean_hold * math.exp(rng.normal(0.0, 0.20))
    sd_gap = 0.45 * mean_gap * math.exp(rng.normal(0.0, 0.20))
    rollover_prob = min(0.6, rng.beta(2.0, 10.0))
    per_key_offset = np.zeros(256)
    per_key_offset[_KEY_CODES] = rng.normal(0.0, 0.006, len(PRINTABLE_ASCII))
    key_weights = 1.0 / (rng.permutation(len(PRINTABLE_ASCII)) + 1)

    shape = out.shape[:2]
    codes = rng.choice(_KEY_CODES, size=shape, p=key_weights / key_weights.sum())
    holds = _lognormal(rng, mean_hold, sd_hold, shape)
    holds = np.maximum(0.002, holds + per_key_offset[codes])
    flights = _lognormal(rng, max(mean_gap - mean_hold, 0.02), sd_gap, shape)
    rollover = rng.random(shape) < rollover_prob
    # Rollover shifts the NEXT press before the current release; the bound
    # keeps press times strictly increasing.
    rollover_scale = rng.uniform(0.2, 0.8, shape)
    flights = np.where(rollover, -holds * rollover_scale, flights)

    out[:, :, CODE] = codes
    out[:, :, PRESS], out[:, :, RELEASE] = _event_times(holds, flights)


def _event_times(holds: np.ndarray, flights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer-millisecond (press, release) times from (sessions, keys)
    hold and flight draws in seconds.

    Session j starts at its own hour; each press follows the previous one
    by max(1, round(hold + flight)) ms and each release follows its press
    by max(1, round(hold)) ms. rint rounds half to even, as round does.
    Raises OverflowError when a time could pass 2**62 ms or is not finite.
    """
    steps = np.maximum(1, np.rint((holds + flights) * 1000.0))
    hold_steps = np.maximum(1, np.rint(holds * 1000.0))
    starts = _EPOCH_BASE_MS + _SESSION_SPACING_MS * np.arange(len(steps))
    # A float bound on the last release, with room for its rounding: below
    # it the int64 sums cannot wrap. NaN fails the test too.
    if not float(steps.sum()) + float(hold_steps.max()) < 2.0**62 - float(starts[-1]):
        raise OverflowError("event times past 2**62 ms")
    steps = steps.astype(np.int64)
    press = np.empty_like(steps)
    press[:, 0] = starts
    press[:, 1:] = steps[:, :-1]
    np.cumsum(press, axis=1, out=press)
    return press, press + hold_steps.astype(np.int64)


def generate(config: GeneratorConfig) -> Dataset:
    """Generate a synthetic dataset; a pure function of the config.

    Every subject has exactly sessions_per_subject sessions of
    keys_per_session events with printable-ASCII codes and integer
    millisecond timestamps. Hold and gap times are log-normal, so all
    events satisfy the press/release invariants even under rollover.
    """
    weights = np.asarray(config.group_weights, dtype=np.float64)
    weights = weights / weights.sum()
    n, sessions = config.n_subjects, config.sessions_per_subject
    try:
        events = np.empty((n, sessions, config.keys_per_session, 3), dtype=np.int64)
    except (MemoryError, ValueError):
        # Past numpy's own limits on a shape or a size it raises ValueError.
        raise ConfigError(
            f"{n} subjects x {sessions} sessions x {config.keys_per_session} keys "
            "is more events than memory holds"
        ) from None
    demographics = []
    # A large skew drives a group's timing means to zero or below, or its
    # event times past what int64 milliseconds hold; the float overflow on
    # the way there is reported once, as a ConfigError, not warned.
    with np.errstate(over="ignore", invalid="ignore"):
        for index in range(n):
            rng = _subject_rng(config, index)
            group = int(rng.choice(len(ALL_GROUPS), p=weights))
            demo = ALL_GROUPS[group]
            demographics.append(demo)
            try:
                _subject_events(rng, group, config.skew_strength, events[index])
            except (ValueError, OverflowError) as exc:
                raise ConfigError(
                    f"skew_strength {config.skew_strength} gives group {demo.label()} "
                    f"impossible timings ({exc})"
                ) from None
    return Dataset(
        subject_ids=[f"u{index:05d}" for index in range(n)],
        demographics=demographics,
        session_offsets=np.arange(n + 1) * sessions,
        # No session ids without subjects, however many sessions each would have.
        session_ids=np.tile(np.array([f"s{j:02d}" for j in range(n and sessions)], object), n),
        event_offsets=np.arange(n * sessions + 1) * config.keys_per_session,
        events=events.reshape(-1, 3),
    )
