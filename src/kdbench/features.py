"""Per-session feature matrices for the four experimental feature sets.

Each session becomes a fixed-shape matrix of time-domain channels (seconds)
plus, for the 5- and 11-channel variants, a normalized key-code channel.
Rows align with key indices; lookahead channels that would reference a key
past the end of the session are zero.
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

    @property
    def has_ascii(self) -> bool:
        return ASCII_CHANNEL in _CHANNELS[self]


_CHANNELS: dict[FeatureSet, tuple[str, ...]] = {
    FeatureSet.F4: _TIME_BASE,
    FeatureSet.F5: _TIME_BASE + (ASCII_CHANNEL,),
    FeatureSet.F10: _TIME_EXTENDED,
    FeatureSet.F11: _TIME_EXTENDED + (ASCII_CHANNEL,),
}


@dataclass(frozen=True)
class FeatureConfig:
    feature_set: FeatureSet
    max_len: int
    clip_seconds: float = 10.0

    def __post_init__(self) -> None:
        if self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")
        if self.clip_seconds <= 0:
            raise ConfigError(f"clip_seconds must be positive, got {self.clip_seconds}")


@dataclass(frozen=True)
class FeatureMatrix:
    """Fixed-shape (max_len, channels) matrix; rows past valid_len are zero."""

    values: np.ndarray
    valid_len: int
    feature_set: FeatureSet

    def valid_rows(self) -> np.ndarray:
        return self.values[: self.valid_len]


def extract_features(session: Session, config: FeatureConfig) -> FeatureMatrix:
    """Extract the configured channels from one session.

    Sessions longer than max_len are truncated to their first max_len
    events. Times are converted to seconds and clipped symmetrically to
    +-clip_seconds; the key-code channel is the ASCII value divided by 255.
    Negative release-to-press gaps (rollover typing) are preserved.
    """
    if len(session.events) == 0:
        raise ValueError(f"session {session.session_id} has no events")

    events = session.events[: config.max_len]
    n = len(events)
    # Latencies are integer-millisecond differences converted to seconds
    # afterwards, so shifting all timestamps by a constant is an exact
    # no-op.
    press = events[:, PRESS]
    release = events[:, RELEASE]

    def lookahead(target: np.ndarray, base: np.ndarray, k: int) -> np.ndarray:
        col = np.zeros(n)
        if n > k:
            col[: n - k] = (target[k:] - base[: n - k]) / 1000.0
        return col

    columns: dict[str, np.ndarray] = {"ht": (release - press) / 1000.0}
    for k in (1, 2, 3):
        suffix = "" if k == 1 else str(k)
        columns[f"ipt{suffix}"] = lookahead(press, press, k)
        columns[f"irt{suffix}"] = lookahead(release, release, k)
        columns[f"ikt{suffix}"] = lookahead(press, release, k)

    out = np.zeros((config.max_len, config.feature_set.n_channels))
    clip = config.clip_seconds
    for j, name in enumerate(config.feature_set.channels):
        if name == ASCII_CHANNEL:
            out[:n, j] = events[:, CODE] / 255.0
        else:
            out[:n, j] = np.clip(columns[name], -clip, clip)
    return FeatureMatrix(values=out, valid_len=n, feature_set=config.feature_set)


def order_insensitive_mean_std(column: np.ndarray) -> tuple[float, float]:
    """(mean, population std) via compensated sums; permutation-invariant
    to the bit."""
    n = len(column)
    mean = math.fsum(column.tolist()) / n
    if np.all(column == column[0]):
        return mean, 0.0
    variance = math.fsum(((column - mean) ** 2).tolist()) / n
    return mean, math.sqrt(variance)
