"""Deterministic, training-free reference verifier.

Sessions are embedded as per-channel summary statistics (mean, standard
deviation, median, 25th and 75th percentiles), z-normalized with
development-set statistics. Similarity is one minus the min-max normalized
Euclidean distance over all plan entries, so the baseline's score files
are interchangeable with external submissions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import Dataset
from .errors import DataReferenceError
from .features import (
    FeatureConfig,
    FeatureMatrix,
    extract_features,
    order_insensitive_mean_std,
)
from .protocol import ComparisonPlan, SessionKey

STATS_PER_CHANNEL = 5
STD_FLOOR = 1e-9

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


def raw_embedding(matrix: FeatureMatrix) -> np.ndarray:
    """Un-normalized summary vector over the non-padded rows.

    Channel-major layout: per channel (mean, std, median, p25, p75).
    Percentiles interpolate linearly between order statistics; std is the
    population standard deviation.
    """
    if matrix.valid_len < 1:
        raise ValueError("feature matrix has no valid rows")
    rows = matrix.valid_rows()
    p25, median, p75 = np.percentile(rows, [25.0, 50.0, 75.0], axis=0)
    stats = np.stack([rows.mean(axis=0), rows.std(axis=0), median, p25, p75], axis=1)
    return stats.reshape(-1)


def fit_normalization(development: Dataset, config: FeatureConfig) -> NormalizationStats:
    """Per-coordinate (mean, std) over all development-session embeddings.

    Uses permutation-invariant sums, so the statistics do not depend on
    subject ordering; stds are floored to keep z-normalization finite.
    """
    vectors = [
        raw_embedding(extract_features(session, config))
        for subject in development.subjects
        for session in subject.sessions
    ]
    if not vectors:
        raise ValueError("development dataset contains no sessions")
    stacked = np.stack(vectors)
    stats = [order_insensitive_mean_std(stacked[:, j]) for j in range(stacked.shape[1])]
    return NormalizationStats(
        mean=np.array([m for m, _ in stats]),
        std=np.maximum(np.array([s for _, s in stats]), STD_FLOOR),
    )


def embed_session(matrix: FeatureMatrix, stats: NormalizationStats) -> np.ndarray:
    raw = raw_embedding(matrix)
    if raw.shape != stats.mean.shape:
        raise ValueError(
            f"embedding dimension {raw.shape[0]} does not match "
            f"normalization dimension {stats.mean.shape[0]}"
        )
    vector = (raw - stats.mean) / stats.std
    if not np.all(np.isfinite(vector)):
        raise ValueError("embedding contains non-finite coordinates")
    return vector


def embed_dataset(
    dataset: Dataset, config: FeatureConfig, stats: NormalizationStats
) -> dict[SessionKey, np.ndarray]:
    return {
        (subject.subject_id, session.session_id): embed_session(
            extract_features(session, config), stats
        )
        for subject in dataset.subjects
        for session in subject.sessions
    }


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
