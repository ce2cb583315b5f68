"""Seeded generator of synthetic keystroke datasets and score fixtures.

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
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ALL_GROUPS,
    CODE,
    PRESS,
    RELEASE,
    Dataset,
    Demographics,
    Gender,
    Session,
    Subject,
)
from .errors import ConfigError
from .protocol import ScoreSet

PRINTABLE_ASCII = tuple(range(32, 127))
_EPOCH_BASE_MS = 1_600_000_000_000
_SESSION_SPACING_MS = 3_600_000

# RNG domain tags keep the dataset and score-fixture streams independent.
_DOMAIN_DATASET = 0
_DOMAIN_SCORES = 1


@dataclass(frozen=True)
class TypingProfile:
    """Per-subject timing parameters (all times in seconds)."""

    mean_hold_s: float
    sd_hold_s: float
    mean_gap_s: float
    sd_gap_s: float
    rollover_prob: float
    per_key_offset: dict[int, float]

    def __post_init__(self) -> None:
        if self.mean_hold_s <= 0 or self.mean_gap_s <= 0:
            raise ValueError("mean_hold_s and mean_gap_s must be positive")
        if not 0 <= self.rollover_prob <= 1:
            raise ValueError(f"rollover_prob {self.rollover_prob} outside [0, 1]")


def uniform_group_weights() -> tuple[float, ...]:
    return (1.0 / len(ALL_GROUPS),) * len(ALL_GROUPS)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for `generate`; group_weights follows `core.ALL_GROUPS` order."""

    n_subjects: int
    seed: int
    sessions_per_subject: int = 15
    keys_per_session: int = 48
    group_weights: tuple[float, ...] = field(default_factory=uniform_group_weights)
    skew_strength: float = 0.0

    def __post_init__(self) -> None:
        if self.n_subjects < 0:
            raise ConfigError(f"n_subjects must be >= 0, got {self.n_subjects}")
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
        if self.skew_strength < 0:
            raise ConfigError(f"skew_strength must be >= 0, got {self.skew_strength}")


def _subject_rng(config: GeneratorConfig, domain: int, index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([config.seed, domain, index])
    )


def _group_shift(demo: Demographics, skew_strength: float) -> float:
    # Relative shift of the timing means: a gradient over age bins plus a
    # gender offset, both scaled by skew_strength. Zero skew means every
    # group draws from identical hyper-priors.
    age_idx = list(type(demo.age_group)).index(demo.age_group)
    age_term = (age_idx - 2.5) / 2.5
    gender_term = 1.0 if demo.gender is Gender.FEMALE else -1.0
    return skew_strength * (0.30 * age_term + 0.15 * gender_term)


def _draw_profile(
    rng: np.random.Generator, demo: Demographics, skew_strength: float
) -> TypingProfile:
    shift = 1.0 + _group_shift(demo, skew_strength)
    mean_hold = 0.085 * math.exp(rng.normal(0.0, 0.22)) * shift
    mean_gap = 0.230 * math.exp(rng.normal(0.0, 0.25)) * shift
    sd_hold = 0.25 * mean_hold * math.exp(rng.normal(0.0, 0.20))
    sd_gap = 0.45 * mean_gap * math.exp(rng.normal(0.0, 0.20))
    rollover = float(min(0.6, rng.beta(2.0, 10.0)))
    drawn = rng.normal(0.0, 0.006, len(PRINTABLE_ASCII))
    offsets = dict(zip(PRINTABLE_ASCII, drawn.tolist()))
    return TypingProfile(mean_hold, sd_hold, mean_gap, sd_gap, rollover, offsets)


def _lognormal(
    rng: np.random.Generator, mean: float, sd: float, size: int | tuple[int, int]
) -> np.ndarray:
    # Parameterized by the target arithmetic mean/sd of the distribution.
    sigma2 = math.log(1.0 + (sd / mean) ** 2)
    mu = math.log(mean) - sigma2 / 2.0
    return rng.lognormal(mu, math.sqrt(sigma2), size)


def _key_distribution(rng: np.random.Generator) -> np.ndarray:
    # Zipf-like key preferences over a random permutation of the printable
    # range, giving each subject a distinctive key-usage mix.
    ranks = rng.permutation(len(PRINTABLE_ASCII)) + 1
    weights = 1.0 / ranks
    return weights / weights.sum()


_KEY_CODES = np.array(PRINTABLE_ASCII, dtype=np.int64)


def _generate_subject_sessions(
    rng: np.random.Generator,
    profile: TypingProfile,
    key_probs: np.ndarray,
    n_sessions: int,
    n_keys: int,
) -> list[Session]:
    # All random draws for a subject are batched into per-distribution calls.
    shape = (n_sessions, n_keys)
    codes = rng.choice(_KEY_CODES, size=shape, p=key_probs)
    offset_table = np.zeros(256)
    for code, offset in profile.per_key_offset.items():
        offset_table[code] = offset
    holds = _lognormal(rng, profile.mean_hold_s, profile.sd_hold_s, shape)
    holds = np.maximum(0.002, holds + offset_table[codes])
    flight_mean = max(profile.mean_gap_s - profile.mean_hold_s, 0.02)
    flights = _lognormal(rng, flight_mean, profile.sd_gap_s, shape)
    rollover = rng.random(shape) < profile.rollover_prob
    # Rollover shifts the NEXT press before the current release; the bound
    # keeps press times strictly increasing.
    rollover_scale = rng.uniform(0.2, 0.8, shape)
    flights = np.where(rollover, -holds * rollover_scale, flights)

    block = np.empty((n_sessions, n_keys, 3), dtype=np.int64)
    block[:, :, CODE] = codes
    block[:, :, PRESS], block[:, :, RELEASE] = _event_times(holds, flights)
    block.flags.writeable = False
    return [Session.of_checked_rows(f"s{j:02d}", block[j]) for j in range(n_sessions)]


def _event_times(holds: np.ndarray, flights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer-millisecond (press, release) times from (sessions, keys)
    hold and flight draws in seconds.

    Session j starts at its own hour; each press follows the previous one
    by max(1, round(hold + flight)) ms and each release follows its press
    by max(1, round(hold)) ms. rint rounds half to even, as round does.
    """
    steps = np.maximum(1, np.rint((holds + flights) * 1000.0)).astype(np.int64)
    press = np.empty_like(steps)
    press[:, 0] = _EPOCH_BASE_MS + _SESSION_SPACING_MS * np.arange(len(steps))
    press[:, 1:] = steps[:, :-1]
    np.cumsum(press, axis=1, out=press)
    return press, press + np.maximum(1, np.rint(holds * 1000.0)).astype(np.int64)


def generate(config: GeneratorConfig) -> Dataset:
    """Generate a synthetic dataset; a pure function of the config.

    Every subject has exactly sessions_per_subject sessions of
    keys_per_session events with printable-ASCII codes and integer
    millisecond timestamps. Hold and gap times are log-normal, so all
    events satisfy the press/release invariants even under rollover.
    """
    weights = np.asarray(config.group_weights, dtype=np.float64)
    weights = weights / weights.sum()
    subjects = []
    for index in range(config.n_subjects):
        rng = _subject_rng(config, _DOMAIN_DATASET, index)
        demo = ALL_GROUPS[int(rng.choice(len(ALL_GROUPS), p=weights))]
        profile = _draw_profile(rng, demo, config.skew_strength)
        key_probs = _key_distribution(rng)
        sessions = _generate_subject_sessions(
            rng, profile, key_probs,
            config.sessions_per_subject, config.keys_per_session,
        )
        subjects.append(Subject(f"u{index:05d}", demo, tuple(sessions)))
    return Dataset(tuple(subjects))


def generate_scores(config: GeneratorConfig, separation: float) -> list[ScoreSet]:
    """Synthetic per-subject score sets, bypassing features and scoring.

    Genuine scores are drawn from Normal(0.5 + separation/2, 0.1) and
    impostor scores from Normal(0.5 - separation/2, 0.1), clipped to
    [0, 1]. A direct fixture for the metric modules.
    """
    if separation < 0:
        raise ConfigError(f"separation must be >= 0, got {separation}")
    out = []
    for index in range(config.n_subjects):
        rng = _subject_rng(config, _DOMAIN_SCORES, index)

        def draw(mean: float) -> tuple[float, ...]:
            return tuple(np.clip(rng.normal(mean, 0.1, 10), 0.0, 1.0).tolist())

        out.append(
            ScoreSet(
                f"u{index:05d}",
                genuine=draw(0.5 + separation / 2.0),
                similar=draw(0.5 - separation / 2.0),
                dissimilar=draw(0.5 - separation / 2.0),
            )
        )
    return out
