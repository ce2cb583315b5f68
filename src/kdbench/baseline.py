"""Deterministic, training-free reference verifier.

Sessions are embedded as per-channel summary statistics (mean, standard
deviation, median, 25th and 75th percentiles), z-normalized with
development-set statistics. Similarity is one minus the min-max normalized
Euclidean distance over all plan entries, so the baseline's score files
are interchangeable with external submissions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import Dataset, Session
from .errors import DataReferenceError
# extract_features stays bound here although nothing below calls it:
# bench/tests asserts that the tracer rebinds this binding, like the one
# in cli, and restores it afterwards.
from .features import (  # noqa: F401
    FeatureConfig,
    FeatureMatrix,
    channel_block,
    extract_features,
    order_insensitive_mean_std,
)
from .protocol import ComparisonPlan, SessionKey

STATS_PER_CHANNEL = 5
STD_FLOOR = 1e-9
# Sessions per channel block in `raw_embeddings`. A fixed chunk keeps the
# working memory flat however many sessions share one length.
CHUNK_SESSIONS = 256


@dataclass(frozen=True)
class NormalizationStats:
    """Per-coordinate z-normalization parameters from a development set."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        if self.mean.shape != self.std.shape:
            raise ValueError("mean/std length mismatch")
        if np.any(self.std < STD_FLOOR):
            raise ValueError(f"std entries must be floored at {STD_FLOOR}")


def summary_block(rows: np.ndarray) -> np.ndarray:
    """Un-normalized summary vectors of an (S, n, channels) block: (S, 5C).

    Channel-major layout: per channel (mean, std, median, p25, p75).
    Percentiles interpolate linearly between order statistics; std is the
    population standard deviation.
    """
    p25, median, p75 = np.percentile(rows, [25.0, 50.0, 75.0], axis=1)
    stats = np.stack([rows.mean(axis=1), rows.std(axis=1), median, p25, p75], axis=2)
    return stats.reshape(len(rows), -1)


def raw_embedding(matrix: FeatureMatrix) -> np.ndarray:
    """The one-session case of `summary_block`, over the non-padded rows."""
    if matrix.valid_len < 1:
        raise ValueError("feature matrix has no valid rows")
    return summary_block(matrix.valid_rows()[None])[0]


def raw_embeddings(sessions: Sequence[Session], config: FeatureConfig) -> np.ndarray:
    """Un-normalized summary vectors of `sessions`, one row each, in input
    order.

    Sessions are grouped by their length after truncation to max_len, and
    each group is summarized in blocks of at most CHUNK_SESSIONS sessions.
    """
    lengths = np.array([min(len(s.events), config.max_len) for s in sessions], dtype=np.int64)
    empty = np.flatnonzero(lengths == 0)
    if len(empty):
        raise ValueError(f"session {sessions[empty[0]].session_id} has no events")
    out = np.empty((len(sessions), STATS_PER_CHANNEL * config.feature_set.n_channels))
    for n in np.unique(lengths).tolist():
        group = np.flatnonzero(lengths == n)
        for start in range(0, len(group), CHUNK_SESSIONS):
            chunk = group[start : start + CHUNK_SESSIONS]
            events = np.stack([sessions[i].events[:n] for i in chunk.tolist()])
            out[chunk] = summary_block(channel_block(events, config))
    return out


def normalize(raw: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """z-normalize an (S, dimension) block of raw embeddings."""
    if raw.shape[1:] != stats.mean.shape:
        raise ValueError(
            f"embedding dimension {raw.shape[1]} does not match "
            f"normalization dimension {stats.mean.shape[0]}"
        )
    vectors = (raw - stats.mean) / stats.std
    if not np.all(np.isfinite(vectors)):
        raise ValueError("embedding contains non-finite coordinates")
    return vectors


def fit_normalization(development: Dataset, config: FeatureConfig) -> NormalizationStats:
    """Per-coordinate (mean, std) over all development-session embeddings.

    Uses permutation-invariant sums, so the statistics do not depend on
    subject ordering; stds are floored to keep z-normalization finite.
    """
    sessions = [session for subject in development.subjects for session in subject.sessions]
    if not sessions:
        raise ValueError("development dataset contains no sessions")
    stacked = raw_embeddings(sessions, config)
    stats = [order_insensitive_mean_std(stacked[:, j]) for j in range(stacked.shape[1])]
    return NormalizationStats(
        mean=np.array([m for m, _ in stats]),
        std=np.maximum(np.array([s for _, s in stats]), STD_FLOOR),
    )


def embed_session(matrix: FeatureMatrix, stats: NormalizationStats) -> np.ndarray:
    return normalize(raw_embedding(matrix)[None], stats)[0]


def embed_dataset(
    dataset: Dataset, config: FeatureConfig, stats: NormalizationStats
) -> dict[SessionKey, np.ndarray]:
    sessions = [session for subject in dataset.subjects for session in subject.sessions]
    keys = [(subject.subject_id, session.session_id)
            for subject in dataset.subjects for session in subject.sessions]
    return dict(zip(keys, normalize(raw_embeddings(sessions, config), stats)))


def score_comparisons(
    plan: ComparisonPlan, embeddings: Mapping[SessionKey, np.ndarray]
) -> np.ndarray:
    """Similarity scores aligned with the plan entries, all in [0, 1].

    Euclidean distances are min-max normalized over the whole plan and
    subtracted from 1; when every distance is identical all scores are 1.
    """
    def lookup(subject: str, session: str) -> np.ndarray:
        try:
            return embeddings[(subject, session)]
        except KeyError:
            raise DataReferenceError(
                f"no embedding for session {session!r} of subject {subject!r}"
            ) from None

    # One embedding per session-table row, indexed by both plan columns.
    table = np.stack([lookup(subject, session) for subject, session in plan.sessions])
    left, right = table[plan.enrol], table[plan.verif]
    distances = np.linalg.norm(left - right, axis=1)
    d_min, d_max = float(distances.min()), float(distances.max())
    if d_max == d_min:
        return np.ones(len(distances))
    return 1.0 - (distances - d_min) / (d_max - d_min)
