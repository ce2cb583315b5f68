from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdbench import baseline
from kdbench.baseline import (
    NormalizationStats,
    embed_session,
    fit_normalization,
    normalize,
    raw_embedding,
    raw_embeddings,
    score_comparisons,
)
from kdbench.core import Dataset, Session, Subject
from kdbench.features import FeatureConfig, FeatureMatrix, FeatureSet, extract_features
from kdbench.protocol import Comparison, ComparisonKind, ComparisonPlan

from oracles import (
    embed_per_session,
    normalization_per_session,
    plan_of_rows,
    raw_embeddings_per_session,
)
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
    return Dataset.of(subjects)


class TestFitNormalization:
    def test_identical_sessions_floor_stds(self):
        events = WORKED_SESSION.events
        sessions = tuple(Session(f"s{j}", events) for j in range(3))
        ds = Dataset.of([Subject("u0", None, sessions)])
        stats = fit_normalization(ds, CFG)
        assert np.all(stats.std == 1e-9)

    def test_subject_order_invariance(self):
        ds = tiny_dataset()
        reversed_ds = ds.select([2, 1, 0])
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
            fit_normalization(Dataset.of([]), CFG)


class TestEmbedSession:
    def test_z_normalization_applied(self):
        matrix = extract_features(WORKED_SESSION, CFG)
        raw = raw_embedding(matrix)
        stats = NormalizationStats(
            mean=raw.copy(), std=np.full(raw.shape, 2.0)
        )
        embedded = embed_session(matrix, stats)
        assert embedded == pytest.approx(np.zeros_like(raw), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        matrix = extract_features(WORKED_SESSION, CFG)
        with pytest.raises(ValueError, match="dimension"):
            embed_session(matrix, identity_stats(7))


def random_session(session_id, n, rng):
    """A valid session of n events; press gaps reach past 10 s now and then."""
    gaps = np.where(rng.random(n) < 0.1, rng.integers(1, 30_000, n), rng.integers(1, 400, n))
    press = 1_600_000_000_000 + np.cumsum(gaps)
    release = press + rng.integers(0, 350, n)
    return Session(session_id, np.stack([rng.integers(0, 256, n), press, release], axis=1))


def every_session(dataset):
    return np.arange(dataset.n_sessions())


def dataset_of(sessions, per_subject=5):
    return Dataset.of(
        Subject(f"u{i}", None, tuple(sessions[i * per_subject : (i + 1) * per_subject]))
        for i in range(-(-len(sessions) // per_subject))
    )


@st.composite
def session_blocks(draw):
    """(sessions, config): lengths mix 1-4 events (zero look-ahead rows),
    exactly max_len, longer than max_len, and anything in between."""
    config = FeatureConfig(
        draw(st.sampled_from(list(FeatureSet))),
        max_len=draw(st.integers(1, 12)),
        clip_seconds=draw(st.sampled_from([0.3, 10.0])),
    )
    lengths = draw(st.lists(
        st.one_of(
            st.integers(1, 4),
            st.just(config.max_len),
            st.integers(config.max_len + 1, config.max_len + 6),
            st.integers(1, 16),
        ),
        min_size=1, max_size=30,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [random_session(f"s{i}", n, rng) for i, n in enumerate(lengths)], config


class TestBlockPathMatchesPerSessionPath:
    """The block embedder against the one-session-at-a-time oracle, to the
    bit; small chunks make every length group span several blocks."""

    @settings(max_examples=80, deadline=None)
    @given(
        session_blocks(), st.sampled_from([1, 2, 3, 256]),
        st.lists(st.integers(0, 2**16), max_size=40),
    )
    def test_embeddings_and_stats_identical(self, block, chunk, picks):
        sessions, config = block
        dataset = dataset_of(sessions)
        # Any sessions in any order, some more than once.
        picked = np.array([i % len(sessions) for i in picks], dtype=np.intp)
        with mock.patch.object(baseline, "CHUNK_SESSIONS", chunk):
            raw = raw_embeddings(dataset, every_session(dataset), config)
            some = raw_embeddings(dataset, picked, config)
            stats = fit_normalization(dataset, config)
        assert raw.tobytes() == raw_embeddings_per_session(sessions, config).tobytes()
        assert some.tobytes() == raw[picked].tobytes()
        mean, std = normalization_per_session(sessions, config, baseline.STD_FLOOR)
        assert (stats.mean.tobytes(), stats.std.tobytes()) == (mean.tobytes(), std.tobytes())
        expected = embed_per_session(sessions, config, stats.mean, stats.std)
        assert normalize(raw, stats).tobytes() == expected.tobytes()

    def test_one_length_beyond_one_chunk(self):
        rng = np.random.default_rng(5)
        count = 2 * baseline.CHUNK_SESSIONS + 7
        sessions = [random_session(f"s{i}", 20, rng) for i in range(count)]
        sessions.insert(300, random_session("short", 3, rng))
        config = FeatureConfig(FeatureSet.F11, max_len=16)
        expected = raw_embeddings_per_session(sessions, config)
        dataset = dataset_of(sessions)
        assert raw_embeddings(dataset, every_session(dataset), config).tobytes() == (
            expected.tobytes()
        )

    def test_no_sessions_give_an_empty_block(self):
        assert raw_embeddings(Dataset.of([]), np.arange(0), CFG).shape == (0, 25)


class TestBlockPathErrors:
    def test_empty_session_named(self):
        rng = np.random.default_rng(1)
        sessions = [random_session("s0", 5, rng), Session("e1", ()), Session("e2", ())]
        dataset = dataset_of(sessions)
        for call in (
            lambda: raw_embeddings(dataset, every_session(dataset), CFG),
            lambda: fit_normalization(dataset, CFG),
        ):
            with pytest.raises(ValueError, match="^session e1 has no events$"):
                call()

    def test_non_finite_coordinate_rejected(self):
        stats = NormalizationStats(mean=np.full(25, np.inf), std=np.ones(25))
        with pytest.raises(ValueError, match="^embedding contains non-finite coordinates$"):
            normalize(raw_embeddings(tiny_dataset(), np.arange(12), CFG), stats)
        with pytest.raises(ValueError, match="^embedding contains non-finite coordinates$"):
            embed_session(extract_features(WORKED_SESSION, CFG), stats)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(
            ValueError,
            match="^embedding dimension 25 does not match normalization dimension 7$",
        ):
            normalize(raw_embeddings(tiny_dataset(), np.arange(12), CFG), identity_stats(7))


def test_working_memory_is_a_few_chunks():
    # 4,000 sessions of one length: the block path's working memory (the
    # peak beyond the returned array) stays a few chunk feature blocks,
    # whatever the session count. One unchunked block would be ~16 times
    # larger.
    count, config = 4000, FeatureConfig(FeatureSet.F11, max_len=64)
    rng = np.random.default_rng(3)
    block = np.empty((count, 64, 3), dtype=np.int64)
    block[:, :, 0] = rng.integers(0, 256, (count, 64))
    block[:, :, 1] = np.cumsum(rng.integers(1, 400, (count, 64)), axis=1)
    block[:, :, 2] = block[:, :, 1] + rng.integers(0, 350, (count, 64))
    dataset = Dataset(
        subject_ids=["u0"],
        demographics=[None],
        session_offsets=[0, count],
        session_ids=[f"s{i}" for i in range(count)],
        event_offsets=np.arange(count + 1) * 64,
        events=block.reshape(-1, 3),
    )
    chunk_block = baseline.CHUNK_SESSIONS * 64 * config.feature_set.n_channels * 8
    tracemalloc.start()
    try:
        out = raw_embeddings(dataset, every_session(dataset), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 5 * chunk_block


def plan_of(pairs):
    entries = tuple(
        Comparison("a", left, "b", right, ComparisonKind.SIMILAR, i)
        for i, (left, right) in enumerate(pairs)
    )
    return plan_of_rows(entries)


def table_of(plan, vectors):
    """The embedding table `score_comparisons` takes: `vectors` in the
    order of the plan's session table."""
    return np.array([vectors[key] for key in plan.sessions], dtype=np.float64)


class TestScoreComparisons:
    def test_identical_pair_scores_one_and_farthest_scores_zero(self):
        vectors = {
            ("a", "s0"): [0.0, 0.0],
            ("b", "s0"): [0.0, 0.0],
            ("b", "s1"): [3.0, 4.0],
        }
        plan = plan_of([("s0", "s0"), ("s0", "s1")])
        scores = score_comparisons(plan, table_of(plan, vectors))
        assert scores[0] == 1.0
        assert scores[1] == 0.0

    def test_constant_distances_all_ones(self):
        vectors = {("a", "s0"): [0.0], ("b", "s0"): [1.0]}
        plan = plan_of([("s0", "s0"), ("s0", "s0")])
        assert np.all(score_comparisons(plan, table_of(plan, vectors)) == 1.0)

    def test_scores_anti_monotone_with_distance(self):
        vectors = {
            ("a", "s0"): [0.0],
            ("b", "s0"): [1.0],
            ("b", "s1"): [2.0],
            ("b", "s2"): [5.0],
        }
        plan = plan_of([("s0", "s0"), ("s0", "s1"), ("s0", "s2")])
        scores = score_comparisons(plan, table_of(plan, vectors))
        assert scores[0] > scores[1] > scores[2]

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        vectors = {("a", f"s{i}"): rng.normal(size=3) for i in range(4)}
        vectors.update({("b", f"s{i}"): rng.normal(size=3) for i in range(4)})
        plan = plan_of([(f"s{i}", f"s{(i + 1) % 4}") for i in range(4)])
        base = score_comparisons(plan, table_of(plan, vectors))
        # Random orthogonal matrix via QR.
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = {key: q @ np.asarray(vec) for key, vec in vectors.items()}
        after = score_comparisons(plan, table_of(plan, rotated))
        assert after == pytest.approx(base, abs=1e-9)

    def test_scores_within_unit_interval(self):
        ds = tiny_dataset()
        vectors = dict(zip(ds.session_keys(), normalize(
            raw_embeddings(ds, every_session(ds), CFG), fit_normalization(ds, CFG)
        )))
        pairs = [("s0", "s1"), ("s1", "s2"), ("s2", "s3")]
        plan = plan_of_rows(
            Comparison("u0", a, "u1", b, ComparisonKind.SIMILAR, i)
            for i, (a, b) in enumerate(pairs)
        )
        scores = score_comparisons(plan, table_of(plan, vectors))
        assert np.all((scores >= 0.0) & (scores <= 1.0))


def random_plan(n_sessions, n_comparisons, rng):
    keys = tuple(("u", f"s{i}") for i in range(n_sessions))
    columns = [rng.integers(0, n_sessions, n_comparisons) for _ in range(2)]
    return ComparisonPlan(keys, *columns, np.zeros(n_comparisons), np.arange(n_comparisons))


def unchunked_scores(plan, table):
    distances = np.linalg.norm(table[plan.enrol] - table[plan.verif], axis=1)
    d_min, d_max = distances.min(), distances.max()
    return 1.0 - (distances - d_min) / (d_max - d_min)


@pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
def test_chunked_distances_are_the_unchunked_bytes(chunk):
    rng = np.random.default_rng(5)
    plan = random_plan(40, 1000, rng)
    table = rng.normal(size=(len(plan.sessions), 25))
    with mock.patch.object(baseline, "CHUNK_COMPARISONS", chunk):
        scores = score_comparisons(plan, table)
    assert scores.tobytes() == unchunked_scores(plan, table).tobytes()


def test_distance_memory_is_a_few_chunks():
    # 200,000 comparisons of 55-coordinate embeddings: beyond the scores,
    # scoring holds a few chunks' rows, not the (comparisons, dims) blocks
    # of both sides (88 MB each here).
    rng = np.random.default_rng(6)
    plan = random_plan(500, 200_000, rng)
    table = rng.normal(size=(len(plan.sessions), 55))
    chunk_rows = baseline.CHUNK_COMPARISONS * 55 * 8
    tracemalloc.start()
    try:
        scores = score_comparisons(plan, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 2 * scores.nbytes <= 4 * chunk_rows


def test_quartiles_are_np_percentile_bytes():
    # The session lengths 1 to 130 give every weight numpy's linear rule
    # takes for these quartiles: 0, .25, .5 and .75, on both sides of its
    # switch at .5.
    rng = np.random.default_rng(8)
    for n in range(1, 131):
        rows = np.round(rng.normal(0.1, 4.0, (6, n, 4)), 3)
        rows[0] = 0.25  # equal rows
        rows[1, :, 0] = -rng.exponential(0.2, n)  # negative gaps (rollover)
        rows[2] = rng.choice([-10.0, 10.0, 0.0, 3.5], (n, 4))  # clipped at +-10 s
        rows[3, :, 1] = np.linspace(-10.0, 10.0, n)
        rows[4] = rng.integers(0, 256, (n, 4)) / 255.0  # the key-code channel
        summary = baseline.summary_block(rows).reshape(6, 4, 5)
        expected = np.percentile(rows, [50.0, 25.0, 75.0], axis=1)
        for j in range(3):
            assert summary[:, :, 2 + j].tobytes() == expected[j].tobytes(), n
