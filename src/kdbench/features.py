"""Feature channels for the four experimental feature sets.

A session becomes a matrix of time-domain channels (seconds) plus, for the
5- and 11-channel variants, a normalized key-code channel. Rows align with
key indices; lookahead channels that would reference a key past the end of
the session are zero. One kernel computes the channels for a whole block
of equally long sessions; a single session is the block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import CODE, PRESS, RELEASE, Session
from .errors import ConfigError

# Channel identifiers. Time channels pair a latency kind with a lookahead
# distance: ipt/irt/ikt measure press-press, release-release, and
# release-press gaps to the 1st, 2nd, or 3rd following key.
_TIME_BASE = ("ht", "ipt", "irt", "ikt")
_TIME_EXTENDED = _TIME_BASE + ("ipt2", "irt2", "ikt2", "ipt3", "irt3", "ikt3")
ASCII_CHANNEL = "ascii"


class FeatureSet(Enum):
    F4 = "4f"
    F5 = "5f"
    F10 = "10f"
    F11 = "11f"

    @property
    def channels(self) -> tuple[str, ...]:
        return _CHANNELS[self]

    @property
    def n_channels(self) -> int:
        return len(_CHANNELS[self])


_CHANNELS: dict[FeatureSet, tuple[str, ...]] = {
    FeatureSet.F4: _TIME_BASE,
    FeatureSet.F5: _TIME_BASE + (ASCII_CHANNEL,),
    FeatureSet.F10: _TIME_EXTENDED,
    FeatureSet.F11: _TIME_EXTENDED + (ASCII_CHANNEL,),
}


@dataclass(frozen=True)
class FeatureConfig:
    """feature_set also takes its value string ("5f"), as the CLI gives it."""

    feature_set: FeatureSet = FeatureSet.F5
    max_len: int = 48
    clip_seconds: float = 10.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature_set", FeatureSet(self.feature_set))
        if self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")
        # Session lengths are int64; a larger bound cannot be compared with them.
        if self.max_len >= 2**63:
            raise ConfigError(f"max_len must be < 2**63, got {self.max_len}")
        # inf is allowed and means no clipping; NaN is not a bound.
        if not self.clip_seconds > 0:
            raise ConfigError(f"clip_seconds must be positive, got {self.clip_seconds}")


@dataclass(frozen=True)
class FeatureMatrix:
    """Fixed-shape (max_len, channels) matrix; rows past valid_len are zero."""

    values: np.ndarray
    valid_len: int
    feature_set: FeatureSet

    def valid_rows(self) -> np.ndarray:
        return self.values[: self.valid_len]


# Time channels as (later column, earlier column, lookahead k): row i holds
# the gap from the earlier event of key i to the later event of key i+k.
_TIME_CHANNELS: dict[str, tuple[int, int, int]] = {"ht": (RELEASE, PRESS, 0)} | {
    f"{kind}{'' if k == 1 else k}": (later, earlier, k)
    for k in (1, 2, 3)
    for kind, later, earlier in (
        ("ipt", PRESS, PRESS), ("irt", RELEASE, RELEASE), ("ikt", PRESS, RELEASE)
    )
}


def channel_block(events: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """The configured channels of a block of equally long sessions: an
    (S, n, 3) event block becomes an (S, n, channels) block.

    Times are converted to seconds and clipped symmetrically to
    +-clip_seconds; the key-code channel is the ASCII value divided by 255.
    Negative release-to-press gaps (rollover typing) are preserved, and
    lookahead rows past the end of a session are zero.
    """
    n = events.shape[1]
    out = np.zeros(events.shape[:2] + (config.feature_set.n_channels,))
    clip = config.clip_seconds
    for j, name in enumerate(config.feature_set.channels):
        if name == ASCII_CHANNEL:
            out[:, :, j] = events[:, :, CODE] / 255.0
            continue
        later, earlier, k = _TIME_CHANNELS[name]
        if n > k:
            # Latencies are integer-millisecond differences converted to
            # seconds afterwards, so shifting all timestamps by a constant
            # is an exact no-op.
            gaps = (events[:, k:, later] - events[:, : n - k, earlier]) / 1000.0
            np.clip(gaps, -clip, clip, out=out[:, : n - k, j])
    return out


def extract_features(session: Session, config: FeatureConfig) -> FeatureMatrix:
    """The one-session case of `channel_block`, zero-padded to max_len.

    Sessions longer than max_len are truncated to their first max_len
    events.
    """
    if len(session.events) == 0:
        raise ValueError(f"session {session.session_id} has no events")
    events = session.events[: config.max_len]
    out = np.zeros((config.max_len, config.feature_set.n_channels))
    out[: len(events)] = channel_block(events[None], config)[0]
    return FeatureMatrix(values=out, valid_len=len(events), feature_set=config.feature_set)


def order_insensitive_mean_std(column: np.ndarray) -> tuple[float, float]:
    """(mean, population std) via compensated sums; permutation-invariant
    to the bit."""
    n = len(column)
    mean = math.fsum(column.tolist()) / n
    if np.all(column == column[0]):
        return mean, 0.0
    variance = math.fsum(((column - mean) ** 2).tolist()) / n
    return mean, math.sqrt(variance)
