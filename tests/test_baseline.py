from __future__ import annotations

import numpy as np
import pytest

from kdbench.baseline import (
    NormalizationStats,
    embed_dataset,
    embed_session,
    fit_normalization,
    raw_embedding,
    score_comparisons,
)
from kdbench.core import Dataset, Session, Subject
from kdbench.errors import DataReferenceError
from kdbench.features import FeatureConfig, FeatureMatrix, FeatureSet, extract_features
from kdbench.protocol import Comparison, ComparisonKind, ComparisonPlan
from kdbench.baseline import SessionEmbedding

from test_features import WORKED_SESSION

CFG = FeatureConfig(FeatureSet.F5, max_len=8)


def identity_stats(dim):
    return NormalizationStats(mean=np.zeros(dim), std=np.ones(dim))


class TestRawEmbedding:
    def test_dimension_is_five_per_channel(self):
        matrix = extract_features(WORKED_SESSION, CFG)
        assert raw_embedding(matrix).shape == (5 * 5,)

    def test_single_row_statistics(self):
        values = np.zeros((4, 2))
        values[0] = [0.3, 0.7]
        matrix = FeatureMatrix(values=values, valid_len=1, feature_set=FeatureSet.F4)
        vec = raw_embedding(matrix)
        # Per channel: mean, std, median, p25, p75.
        assert vec[0:5] == pytest.approx([0.3, 0.0, 0.3, 0.3, 0.3], abs=1e-12)
        assert vec[5:10] == pytest.approx([0.7, 0.0, 0.7, 0.7, 0.7], abs=1e-12)

    def test_duplicating_rows_preserves_statistics(self):
        rows = np.array([[0.1], [0.5], [0.9]])
        single = FeatureMatrix(np.vstack([rows, np.zeros((1, 1))]), 3, FeatureSet.F4)
        double = FeatureMatrix(
            np.vstack([rows, rows, np.zeros((1, 1))]), 6, FeatureSet.F4
        )
        a, b = raw_embedding(single), raw_embedding(double)
        # mean, population std, and median are exactly duplication
        # invariant; the interpolated quartiles can shift within one
        # interpolation step of the neighboring order statistic.
        assert a[:3] == pytest.approx(b[:3], abs=1e-12)
        gap = np.diff(np.sort(rows.ravel())).max()
        assert abs(a[3] - b[3]) <= gap / 2
        assert abs(a[4] - b[4]) <= gap / 2

    def test_three_row_hand_example(self):
        rows = np.array([[0.1], [0.2], [0.6]])
        matrix = FeatureMatrix(rows, 3, FeatureSet.F4)
        vec = raw_embedding(matrix)
        mean = (0.1 + 0.2 + 0.6) / 3
        std = np.sqrt(((0.1 - mean) ** 2 + (0.2 - mean) ** 2 + (0.6 - mean) ** 2) / 3)
        assert vec == pytest.approx([mean, std, 0.2, 0.15, 0.4], abs=1e-12)

    def test_empty_matrix_rejected(self):
        matrix = FeatureMatrix(np.zeros((2, 4)), 0, FeatureSet.F4)
        with pytest.raises(ValueError, match="no valid rows"):
            raw_embedding(matrix)


def tiny_dataset(n_subjects=3, n_sessions=4):
    subjects = []
    for i in range(n_subjects):
        sessions = []
        for j in range(n_sessions):
            t0 = j * 100_000
            events = tuple(
                (97 + k, t0 + (90 + 7 * i) * k, t0 + (90 + 7 * i) * k + 60 + 5 * i)
                for k in range(6)
            )
            sessions.append(Session(f"s{j}", events))
        subjects.append(Subject(f"u{i}", None, tuple(sessions)))
    return Dataset(tuple(subjects))


class TestFitNormalization:
    def test_identical_sessions_floor_stds(self):
        events = WORKED_SESSION.events
        sessions = tuple(Session(f"s{j}", events) for j in range(3))
        ds = Dataset((Subject("u0", None, sessions),))
        stats = fit_normalization(ds, CFG)
        assert np.all(stats.std == 1e-9)

    def test_subject_order_invariance(self):
        ds = tiny_dataset()
        reversed_ds = Dataset(tuple(reversed(ds.subjects)))
        a = fit_normalization(ds, CFG)
        b = fit_normalization(reversed_ds, CFG)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.std, b.std)

    def test_matches_brute_force_over_flat_list(self):
        ds = tiny_dataset()
        vectors = np.stack(
            [
                raw_embedding(extract_features(sess, CFG))
                for subj in ds.subjects
                for sess in subj.sessions
            ]
        )
        stats = fit_normalization(ds, CFG)
        assert stats.mean == pytest.approx(vectors.mean(axis=0), abs=1e-12)
        assert stats.std == pytest.approx(
            np.maximum(vectors.std(axis=0), 1e-9), abs=1e-12
        )

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="no sessions"):
            fit_normalization(Dataset(()), CFG)


class TestEmbedSession:
    def test_z_normalization_applied(self):
        matrix = extract_features(WORKED_SESSION, CFG)
        raw = raw_embedding(matrix)
        stats = NormalizationStats(
            mean=raw.copy(), std=np.full(raw.shape, 2.0)
        )
        embedded = embed_session(matrix, stats)
        assert embedded.vector == pytest.approx(np.zeros_like(raw), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        matrix = extract_features(WORKED_SESSION, CFG)
        with pytest.raises(ValueError, match="dimension"):
            embed_session(matrix, identity_stats(7))


def plan_of(pairs):
    entries = tuple(
        Comparison("a", left, "b", right, ComparisonKind.SIMILAR, i, 0)
        for i, (left, right) in enumerate(pairs)
    )
    return ComparisonPlan(entries)


def embeddings_of(vectors):
    out = {}
    for (subject, session), vec in vectors.items():
        out[(subject, session)] = SessionEmbedding(np.asarray(vec, dtype=np.float64))
    return out


class TestScoreComparisons:
    def test_identical_pair_scores_one_and_farthest_scores_zero(self):
        emb = embeddings_of(
            {
                ("a", "s0"): [0.0, 0.0],
                ("b", "s0"): [0.0, 0.0],
                ("b", "s1"): [3.0, 4.0],
            }
        )
        plan = plan_of([("s0", "s0"), ("s0", "s1")])
        scores = score_comparisons(plan, emb)
        assert scores[0] == 1.0
        assert scores[1] == 0.0

    def test_constant_distances_all_ones(self):
        emb = embeddings_of({("a", "s0"): [0.0], ("b", "s0"): [1.0]})
        plan = plan_of([("s0", "s0"), ("s0", "s0")])
        assert np.all(score_comparisons(plan, emb) == 1.0)

    def test_scores_anti_monotone_with_distance(self):
        emb = embeddings_of(
            {
                ("a", "s0"): [0.0],
                ("b", "s0"): [1.0],
                ("b", "s1"): [2.0],
                ("b", "s2"): [5.0],
            }
        )
        plan = plan_of([("s0", "s0"), ("s0", "s1"), ("s0", "s2")])
        scores = score_comparisons(plan, emb)
        assert scores[0] > scores[1] > scores[2]

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        vectors = {("a", f"s{i}"): rng.normal(size=3) for i in range(4)}
        vectors.update({("b", f"s{i}"): rng.normal(size=3) for i in range(4)})
        plan = plan_of([(f"s{i}", f"s{(i + 1) % 4}") for i in range(4)])
        base = score_comparisons(plan, embeddings_of(vectors))
        # Random orthogonal matrix via QR.
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = {key: q @ np.asarray(vec) for key, vec in vectors.items()}
        after = score_comparisons(plan, embeddings_of(rotated))
        assert after == pytest.approx(base, abs=1e-9)

    def test_missing_embedding_names_session(self):
        emb = embeddings_of({("a", "s0"): [0.0]})
        plan = plan_of([("s0", "s9")])
        with pytest.raises(DataReferenceError, match="s9"):
            score_comparisons(plan, emb)

    def test_scores_within_unit_interval(self):
        ds = tiny_dataset()
        stats = fit_normalization(ds, CFG)
        emb = embed_dataset(ds, CFG, stats)
        pairs = [("s0", "s1"), ("s1", "s2"), ("s2", "s3")]
        entries = tuple(
            Comparison("u0", a, "u1", b, ComparisonKind.SIMILAR, i, 0)
            for i, (a, b) in enumerate(pairs)
        )
        scores = score_comparisons(ComparisonPlan(entries), emb)
        assert np.all((scores >= 0.0) & (scores <= 1.0))
