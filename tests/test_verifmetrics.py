from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kdbench.verifmetrics import (
    RocCurve,
    accuracy_at,
    auc,
    compute_metrics_report,
    eer,
    operating_point,
    per_subject_metrics,
    pooled_scores,
    roc,
)

from oracles import (
    accuracy_brute,
    auc_brute,
    eer_brute,
    fnmr_at_fmr_brute,
    rank1_brute,
    sweep_rates,
)

TOY_GENUINE = [0.9, 0.7, 0.4]
TOY_IMPOSTOR = [0.6, 0.3, 0.2]


class TestRoc:
    def test_separable_scores(self):
        curve = roc([0.9], [0.1])
        # Any threshold in (0.1, 0.9] has both error rates at zero.
        i = np.flatnonzero(curve.thresholds == 0.9)[0]
        assert curve.fmr[i] == 0.0 and curve.fnmr[i] == 0.0

    def test_endpoints(self):
        curve = roc(TOY_GENUINE, TOY_IMPOSTOR)
        assert (curve.fmr[0], curve.fnmr[0]) == (1.0, 0.0)
        assert (curve.fmr[-1], curve.fnmr[-1]) == (0.0, 1.0)

    def test_monotone(self):
        curve = roc(TOY_GENUINE, TOY_IMPOSTOR)
        assert np.all(np.diff(curve.thresholds) > 0)
        assert np.all(np.diff(curve.fmr) <= 0)
        assert np.all(np.diff(curve.fnmr) >= 0)

    def test_counts_match_brute_force(self):
        rng = np.random.default_rng(0)
        genuine = rng.uniform(0, 1, 100)
        impostor = rng.uniform(0, 1, 150)
        curve = roc(genuine, impostor)
        thresholds, fmr, fnmr = sweep_rates(genuine, impostor)
        assert np.array_equal(curve.thresholds, thresholds)
        assert np.array_equal(curve.fmr, fmr)
        assert np.array_equal(curve.fnmr, fnmr)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            roc([], [0.1])


class TestEer:
    def test_toy_example_exact_plateau(self):
        value, threshold = eer(roc(TOY_GENUINE, TOY_IMPOSTOR))
        assert value == pytest.approx(100 / 3, abs=1e-12)
        assert threshold == pytest.approx(0.6, abs=1e-12)

    def test_exact_crossing_is_read_not_interpolated(self):
        # FNMR 0 -> 1/3 while FMR 5/6 -> 2/6: interpolating between the two
        # points misses FMR == FNMR at 0.9 by an ulp.
        curve = roc([0.5, 0.9, 0.9], [0.1, 0.5, 0.5, 0.5, 0.9, 0.9])
        assert eer(curve) == (2 / 6 * 100.0, 0.9)

    def test_perfect_separation(self):
        value, _ = eer(roc([0.8, 0.9], [0.1, 0.2]))
        assert value == 0.0

    def test_identical_multisets(self):
        scores = [0.2, 0.5, 0.9]
        value, _ = eer(roc(scores, scores))
        assert value == pytest.approx(50.0, abs=1e-9)

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        genuine = rng.uniform(0, 1, 40)
        impostor = rng.uniform(0, 1, 60)
        base, _ = eer(roc(genuine, impostor))
        scaled, _ = eer(roc(3.0 * genuine + 2.0, 3.0 * impostor + 2.0))
        assert scaled == pytest.approx(base, abs=1e-9)


class TestFnmrAtFmr:
    def test_toy_example(self):
        curve = roc(TOY_GENUINE, TOY_IMPOSTOR)
        assert operating_point(curve, 1.0)[1] == pytest.approx(100 / 3, abs=1e-12)

    def test_accept_all_endpoint(self):
        curve = roc(TOY_GENUINE, TOY_IMPOSTOR)
        assert operating_point(curve, 100.0)[1] == 0.0

    def test_monotone_in_target(self):
        rng = np.random.default_rng(3)
        curve = roc(rng.uniform(0, 1, 200), rng.uniform(0, 1, 300))
        assert (
            operating_point(curve, 0.1)[1]
            >= operating_point(curve, 1.0)[1]
            >= operating_point(curve, 10.0)[1]
        )

    def test_realized_fmr_never_exceeds_target(self):
        rng = np.random.default_rng(4)
        genuine = rng.uniform(0, 1, 120)
        impostor = rng.uniform(0, 1, 80)
        curve = roc(genuine, impostor)
        for x in (0.5, 1.0, 5.0, 10.0):
            t, _ = operating_point(curve, x)
            realized = np.mean(impostor >= t)
            assert realized <= x / 100.0


class TestAuc:
    def test_toy_example(self):
        assert auc(TOY_GENUINE, TOY_IMPOSTOR) == pytest.approx(800 / 9, abs=1e-12)

    def test_disjoint_supports(self):
        assert auc([0.8, 0.9], [0.1, 0.2]) == 100.0

    def test_identical_distributions(self):
        scores = [0.1, 0.4, 0.9]
        assert auc(scores, scores) == pytest.approx(50.0, abs=1e-12)

    def test_complement_identity(self):
        rng = np.random.default_rng(8)
        genuine = rng.uniform(0, 1, 33)
        impostor = rng.uniform(0, 1, 77)
        assert auc(genuine, impostor) + auc(impostor, genuine) == pytest.approx(
            100.0, abs=1e-9
        )


class TestAccuracy:
    def test_accept_all(self):
        assert accuracy_at(TOY_GENUINE, TOY_IMPOSTOR, -1.0) == pytest.approx(50.0)

    def test_reject_all(self):
        assert accuracy_at(TOY_GENUINE, TOY_IMPOSTOR, 2.0) == pytest.approx(50.0)

    def test_accuracy_complements_eer_at_its_threshold(self):
        rng = np.random.default_rng(10)
        genuine = rng.uniform(0.3, 1.0, 500)
        impostor = rng.uniform(0.0, 0.7, 500)
        value, threshold = eer(roc(genuine, impostor))
        accuracy = accuracy_at(genuine, impostor, threshold)
        half_step = 100.0 / (len(genuine) + len(impostor))
        assert abs(accuracy - (100.0 - value)) <= half_step + 1e-12


class TestOracleEquivalence:
    """Library metrics must match the brute-force path bit for bit."""

    def _instance(self, rng):
        n_g = int(rng.integers(1, 200))
        n_i = int(rng.integers(1, 200))
        if rng.random() < 0.3:  # discrete scores force ties
            genuine = rng.integers(0, 10, n_g) / 10.0
            impostor = rng.integers(0, 10, n_i) / 10.0
        else:
            genuine = rng.uniform(0, 1, n_g)
            impostor = rng.uniform(0, 1, n_i)
        return genuine, impostor

    def test_eer_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            genuine, impostor = self._instance(rng)
            assert eer(roc(genuine, impostor)) == eer_brute(genuine, impostor)

    def test_fnmr_at_fmr_exact(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            genuine, impostor = self._instance(rng)
            for x in (0.1, 1.0, 10.0, 50.0):
                _, fnmr = operating_point(roc(genuine, impostor), x)
                assert fnmr == fnmr_at_fmr_brute(genuine, impostor, x)

    def test_auc_exact(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            genuine, impostor = self._instance(rng)
            assert auc(genuine, impostor) == auc_brute(genuine, impostor)

    def test_accuracy_exact(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            genuine, impostor = self._instance(rng)
            threshold = float(rng.uniform(-0.1, 1.1))
            assert accuracy_at(genuine, impostor, threshold) == accuracy_brute(
                genuine, impostor, threshold
            )


def make_slot_scores(n_subjects, rng, shift=0.3):
    """(subjects, 3, 10) slot scores: genuine around 0.5 + shift, similar
    and dissimilar impostors around 0.5 - shift."""
    return np.array([
        [np.clip(rng.normal(0.5 + sign * shift, 0.15, 10), 0, 1) for sign in (1, -1, -1)]
        for _ in range(n_subjects)
    ])


class TestPooledScores:
    def test_impostors_run_similar_then_dissimilar(self):
        slots = np.arange(60.0).reshape(2, 3, 10)
        genuine, impostor = pooled_scores(slots)
        assert genuine.tolist() == [*range(0, 10), *range(30, 40)]
        assert impostor.tolist() == [*range(10, 30), *range(40, 60)]


class TestPerSubjectMetrics:
    def test_perfect_separation(self):
        slots = np.empty((4, 3, 10))
        slots[:, 0], slots[:, 1], slots[:, 2] = 0.9, 0.1, 0.2
        report = per_subject_metrics(slots)
        assert report.eer == 0.0
        assert report.rank1 == 100.0

    def test_coincident_distributions_give_half(self):
        scores = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        report = per_subject_metrics(np.array([[scores] * 3]))
        assert report.eer == pytest.approx(50.0, abs=1e-9)

    def test_rank1_matches_brute_force(self):
        rng = np.random.default_rng(6)
        slots = make_slot_scores(30, rng)
        assert per_subject_metrics(slots).rank1 == rank1_brute(slots)

    def test_mean_of_per_subject_eers(self):
        rng = np.random.default_rng(9)
        slots = make_slot_scores(20, rng)
        expected = np.mean(
            [
                eer_brute(genuine, np.concatenate([similar, dissimilar]))[0]
                for genuine, similar, dissimilar in slots
            ]
        )
        assert per_subject_metrics(slots).eer == pytest.approx(expected, abs=1e-12)


class TestReport:
    def test_all_fields_in_range(self):
        rng = np.random.default_rng(12)
        report = compute_metrics_report(make_slot_scores(25, rng))
        g = report.global_metrics
        assert 0 <= g.eer <= 100
        assert set(g.fnmr_at_fmr) == {0.1, 1.0, 10.0}
        assert 0 <= report.per_subject.rank1 <= 100


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0, 1, width=32), min_size=1, max_size=60),
    st.lists(st.floats(0, 1, width=32), min_size=1, max_size=60),
    st.floats(0.1, 5.0),
    st.floats(-2.0, 2.0),
)
def test_rank_statistics_affine_invariant(genuine, impostor, scale, offset):
    g = np.asarray(genuine, dtype=np.float64)
    i = np.asarray(impostor, dtype=np.float64)
    g2, i2 = scale * g + offset, scale * i + offset
    # Rounding may merge near-equal scores, in which case the map is no
    # longer strictly increasing and the property does not apply.
    before = len(np.unique(np.concatenate([g, i])))
    after = len(np.unique(np.concatenate([g2, i2])))
    assume(before == after)
    assert auc(g, i) == pytest.approx(auc(g2, i2), abs=1e-9)
    assert eer(roc(g, i))[0] == pytest.approx(eer(roc(g2, i2))[0], abs=1e-9)


# Scores on a coarse grid, so that ties are common.
GRID_SCORES = st.integers(0, 4).map(lambda k: k / 4)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(GRID_SCORES, min_size=30 * n, max_size=30 * n)
))
@example([0.5] * 30)
@example([0.25 * (k % 5) for k in range(30)])
def test_per_subject_metrics_equal_the_row_means_of_the_oracles(scores):
    slots = np.array(scores).reshape(-1, 3, 10)
    rows = [(genuine, np.concatenate(impostors)) for genuine, *impostors in slots]
    eers = [eer_brute(genuine, impostor) for genuine, impostor in rows]
    report = per_subject_metrics(slots)
    assert report.eer == float(np.mean([value for value, _ in eers]))
    assert report.auc == float(np.mean([auc_brute(*row) for row in rows]))
    assert report.accuracy == float(
        np.mean([accuracy_brute(*row, threshold) for row, (_, threshold) in zip(rows, eers)])
    )
    assert report.rank1 == rank1_brute(slots)


@settings(max_examples=100, deadline=None)
@given(*[st.lists(GRID_SCORES, min_size=1, max_size=30)] * 2)
def test_eer_reads_a_repeated_threshold_as_one(genuine, impostor):
    """A curve taken at every score, repeats kept, has the EER of `roc`'s."""
    genuine, impostor = np.array(genuine), np.array(impostor)
    scores = np.sort(np.concatenate([genuine, impostor]))
    thresholds = np.concatenate([[scores[0] - 1.0], scores, [scores[-1] + 1.0]])
    repeated = RocCurve(
        thresholds,
        (impostor >= thresholds[:, None]).mean(axis=1),
        (genuine < thresholds[:, None]).mean(axis=1),
    )
    assert eer(repeated) == eer(roc(genuine, impostor))
