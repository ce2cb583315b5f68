from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kdbench.core import ALL_GROUPS, AgeGroup, Demographics, Gender
from kdbench.fairmetrics import (
    FairnessConfig,
    GroupRates,
    accuracy_spread,
    fdr,
    garbe,
    gini,
    group_accuracy_spread,
    group_index,
    group_rates,
    inequity_rate,
    otsu_threshold,
    sir,
)
from kdbench.verifmetrics import operating_point, pooled_scores, roc

from oracles import group_rates_brute, sir_scalar_per_pair

# Reference 12-group accuracy tables with known spread statistics
# (row-major over six age bins x two genders).
DESKTOP_GROUP_ACCURACIES = [
    96.69, 95.94, 96.64, 96.26, 96.77, 96.52,
    96.59, 96.22, 96.03, 95.70, 96.17, 94.42,
]
MOBILE_GROUP_ACCURACIES = [
    95.89, 96.01, 96.04, 95.55, 96.43, 94.99,
    96.49, 96.06, 96.94, 96.22, 97.40, 95.33,
]


def two_group_rates(a=(0.01, 0.10), b=(0.03, 0.20)) -> GroupRates:
    return GroupRates(
        rates={ALL_GROUPS[0]: a, ALL_GROUPS[1]: b},
        threshold=0.5,
    )


def identical_group_rates(n=12, fmr=0.02, fnmr=0.05) -> GroupRates:
    return GroupRates(
        rates={g: (fmr, fnmr) for g in ALL_GROUPS[:n]},
        threshold=0.5,
    )


def rates_at(subject_ids, slots, demographics, config=FairnessConfig()) -> GroupRates:
    """Group rates at the pooled curve's operating-FMR threshold, as
    `compute_fairness_report` takes them."""
    threshold, _ = operating_point(roc(*pooled_scores(slots)), config.operating_fmr_percent)
    return group_rates(slots, group_index(subject_ids, demographics), threshold)


class TestAccuracySpread:
    def test_reference_table_desktop(self):
        std, ser = accuracy_spread(DESKTOP_GROUP_ACCURACIES)
        assert std == pytest.approx(0.641, abs=0.001)
        assert ser == pytest.approx(1.025, abs=0.001)

    def test_reference_table_mobile(self):
        std, ser = accuracy_spread(MOBILE_GROUP_ACCURACIES)
        assert std == pytest.approx(0.664, abs=0.001)
        assert ser == pytest.approx(1.025, abs=0.001)

    def test_constant_accuracies(self):
        std, ser = accuracy_spread([96.0] * 12)
        assert std == 0.0
        assert ser == 1.0

    @pytest.mark.parametrize("values", [[0.0, 96.0, 98.0], [0.0, 0.0]])
    def test_ser_is_none_when_the_lowest_accuracy_is_zero(self, values):
        std, ser = accuracy_spread(values)
        assert ser is None
        assert np.isfinite(std)

    def test_estimator_is_sample_std(self):
        values = [1.0, 2.0, 3.0]
        std, _ = accuracy_spread(values)
        assert std == pytest.approx(1.0, abs=1e-12)  # divisor n - 1


def make_sets(groups, per_group=3, shift=0.3, seed=0):
    """Subject ids, their (subjects, 3, 10) slot scores and demographics:
    `per_group` subjects in each of `groups`."""
    rng = np.random.default_rng(seed)
    ids, rows, demographics = [], [], {}
    for g_idx, group in enumerate(groups):
        for i in range(per_group):
            sid = f"u{g_idx:02d}_{i}"
            ids.append(sid)
            rows.append([np.clip(rng.normal(0.5 + sign * shift, 0.1, 10), 0, 1)
                         for sign in (1, -1, -1)])
            demographics[sid] = group
    return ids, np.array(rows), demographics


class TestGroupAccuracySpread:
    def test_all_groups_reported(self):
        ids, slots, demo = make_sets(ALL_GROUPS)
        report = group_accuracy_spread(slots, group_index(ids, demo), eer_threshold=0.5)
        assert len(report.per_group) == 12
        assert report.excluded == []
        assert report.ser >= 1.0

    def test_empty_group_excluded_and_named(self):
        ids, slots, demo = make_sets(ALL_GROUPS[:3])
        report = group_accuracy_spread(slots, group_index(ids, demo), eer_threshold=0.5)
        assert len(report.per_group) == 3
        assert report.excluded == [group.label() for group in ALL_GROUPS[3:]]


class TestGroupRates:
    def test_identical_groups_identical_rates(self):
        scores = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        slots = np.array([[scores] * 3] * 2)
        demo = {"a": ALL_GROUPS[0], "b": ALL_GROUPS[1]}
        rates = rates_at(["a", "b"], slots, demo)
        values = list(rates.rates.values())
        assert values[0] == values[1]

    def test_matches_brute_force(self):
        ids, slots, demo = make_sets(ALL_GROUPS, per_group=4, seed=3)
        rates = rates_at(ids, slots, demo)
        expected = group_rates_brute(ids, slots, demo, rates.threshold)
        assert rates.rates == expected

    def test_threshold_respects_global_target(self):
        ids, slots, demo = make_sets(ALL_GROUPS, per_group=4, seed=5)
        rates = rates_at(ids, slots, demo, FairnessConfig(operating_fmr_percent=1.0))
        impostor = slots[:, 1:].ravel()
        assert np.mean(impostor >= rates.threshold) <= 0.01

    def test_raising_threshold_never_raises_group_fmr(self):
        ids, slots, demo = make_sets(ALL_GROUPS, per_group=4, seed=7)
        lo = rates_at(ids, slots, demo, FairnessConfig(operating_fmr_percent=10.0))
        hi = rates_at(ids, slots, demo, FairnessConfig(operating_fmr_percent=1.0))
        assert hi.threshold >= lo.threshold
        for group in lo.rates:
            assert hi.rates[group][0] <= lo.rates[group][0]


class TestFdr:
    def test_identical_groups(self):
        assert fdr(identical_group_rates()) == pytest.approx(100.0, abs=1e-9)

    def test_hand_arithmetic(self):
        assert fdr(two_group_rates()) == pytest.approx(94.0, abs=1e-9)

    def test_monotone_in_fnmr_gap(self):
        previous = math.inf
        for worse in (0.2, 0.3, 0.4):
            value = fdr(two_group_rates(b=(0.03, worse)))
            assert value < previous
            previous = value


class TestInequityRate:
    def test_identical_groups(self):
        assert inequity_rate(identical_group_rates()) == pytest.approx(1.0, abs=1e-9)

    def test_hand_arithmetic(self):
        assert inequity_rate(two_group_rates()) == pytest.approx(
            math.sqrt(6.0), abs=1e-9
        )

    def test_relabeling_invariance(self):
        a = two_group_rates((0.01, 0.10), (0.03, 0.20))
        b = two_group_rates((0.03, 0.20), (0.01, 0.10))
        assert inequity_rate(a) == pytest.approx(inequity_rate(b), abs=1e-12)

    def test_zero_rates_floored(self):
        rates = GroupRates(
            rates={ALL_GROUPS[0]: (0.0, 0.1), ALL_GROUPS[1]: (0.02, 0.1)},
            threshold=0.5,
            impostor_counts={ALL_GROUPS[0]: 50, ALL_GROUPS[1]: 50},
        )
        value = inequity_rate(rates)
        assert math.isfinite(value)
        assert value == pytest.approx(1.0, abs=1e-9)  # 0.02 / (1/50) = 1


class TestGarbe:
    def test_identical_groups(self):
        assert garbe(identical_group_rates()) == pytest.approx(0.0, abs=1e-9)

    def test_hand_arithmetic(self):
        assert garbe(two_group_rates()) == pytest.approx(0.5 * 0.5 + 0.5 / 3, abs=1e-9)

    def test_scale_invariance(self):
        a = two_group_rates((0.01, 0.10), (0.03, 0.20))
        b = two_group_rates((0.05, 0.50), (0.15, 1.00))
        assert garbe(a) == pytest.approx(garbe(b), abs=1e-12)

    def test_all_zero_rates_defined_as_zero(self):
        rates = GroupRates(
            rates={ALL_GROUPS[0]: (0.0, 0.0), ALL_GROUPS[1]: (0.0, 0.0)},
            threshold=0.5,
        )
        assert garbe(rates) == 0.0

    def test_gini_two_values(self):
        assert gini([0.01, 0.03]) == pytest.approx(0.5, abs=1e-12)


def sir_entries_from_matrix(matrix, attribute="gender", count=5):
    """Build impostor entries whose per-cell means equal `matrix`."""
    if attribute == "gender":
        values = [Gender.MALE, Gender.FEMALE]
        demo = {
            g: Demographics(AgeGroup.A18_26, g) for g in values
        }
    else:
        values = list(AgeGroup)
        demo = {a: Demographics(a, Gender.MALE) for a in values}
    entries = []
    for i, gi in enumerate(values):
        for j, gj in enumerate(values):
            for _ in range(count):
                entries.append((demo[gi], demo[gj], matrix[i][j]))
    return impostor_columns(entries)


def impostor_columns(entries):
    """(enrolled group, verification group, score) triples as the group-code
    and score arrays `sir` takes."""
    enrol, verif, scores = zip(*entries)
    return (
        np.array([ALL_GROUPS.index(d) for d in enrol]),
        np.array([ALL_GROUPS.index(d) for d in verif]),
        np.array(scores, dtype=np.float64),
    )


def without_female_to_male(entries):
    """The entries minus those of a female enrolled against a male subject."""
    enrol, verif, scores = entries
    keep = [
        not (ALL_GROUPS[a].gender is Gender.FEMALE and ALL_GROUPS[b].gender is Gender.MALE)
        for a, b in zip(enrol, verif)
    ]
    return enrol[keep], verif[keep], scores[keep]


class TestSir:
    def test_constant_matrix_zero_skew(self):
        entries = sir_entries_from_matrix([[0.5, 0.5], [0.5, 0.5]])
        _, scalar = sir(entries, "gender")
        assert scalar == pytest.approx(0.0, abs=1e-9)

    def test_hand_arithmetic(self):
        entries = sir_entries_from_matrix([[0.5, 0.3], [0.3, 0.5]])
        matrix, scalar = sir(entries, "gender")
        assert scalar == pytest.approx(20.0, abs=1e-9)
        np.testing.assert_allclose(
            matrix.values, [[0.5, 0.3], [0.3, 0.5]], atol=1e-12
        )

    def test_age_matrix_dimension(self):
        values = [[0.5 + 0.01 * (i == j) for j in range(6)] for i in range(6)]
        matrix, _ = sir(sir_entries_from_matrix(values, "age"), "age")
        assert matrix.values.shape == (6, 6)
        assert matrix.labels == tuple(a.value for a in AgeGroup)

    def test_missing_pair_flagged_and_named(self):
        entries = without_female_to_male(sir_entries_from_matrix([[0.5, 0.3], [0.3, 0.5]]))
        matrix, scalar = sir(entries, "gender")
        assert matrix.missing[1, 0]
        assert matrix.missing_cells == [["F", "M"]]
        assert scalar == pytest.approx(20.0, abs=1e-9)  # remaining pair only

    def test_binarized_separates_diagonal(self):
        entries = sir_entries_from_matrix([[0.6, 0.2], [0.25, 0.55]])
        matrix, _ = sir(entries, "gender")
        assert matrix.binarized.tolist() == [[True, False], [False, True]]

    def test_unknown_attribute_rejected(self):
        with pytest.raises(ValueError, match="attribute"):
            sir([], "handedness")

    def test_no_entries_rejected(self):
        with pytest.raises(ValueError, match="no group pairs"):
            sir(([], [], []), "gender")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["age", "gender"]), st.data())
def test_sir_scalar_agrees_with_the_per_pair_loop(attribute, data):
    n = len(AgeGroup) if attribute == "age" else len(Gender)
    values = data.draw(hnp.arrays(np.float64, (n, n), elements=st.floats(0, 1)))
    missing = data.draw(hnp.arrays(np.bool_, (n, n)))
    # One entry per available cell, so each cell's mean is its value; an
    # attribute's i-th group is ALL_GROUPS index i * 2 for age, i for gender.
    i, j = np.nonzero(~missing)
    step = len(Gender) if attribute == "age" else 1
    entries = (i * step, j * step, values[i, j])
    expected = sir_scalar_per_pair(values, missing)
    if expected is None:
        with pytest.raises(ValueError, match="no group pairs"):
            sir(entries, attribute)
        return
    matrix, scalar = sir(entries, attribute)
    assert np.array_equal(matrix.missing, missing)
    assert np.array_equal(matrix.values[~missing], values[~missing])
    assert scalar == expected


class TestOtsu:
    def test_two_clusters(self):
        values = np.array([0.1, 0.12, 0.11, 0.8, 0.82, 0.79])
        t = otsu_threshold(values)
        assert 0.12 < t < 0.79

    def test_constant_values(self):
        assert otsu_threshold(np.array([0.5, 0.5])) == 0.5

    def test_deterministic(self):
        values = np.array([0.1, 0.4, 0.4, 0.9])
        assert otsu_threshold(values) == otsu_threshold(values[::-1].copy())

    def test_adjacent_floats_split_between_them(self):
        # Their midpoint rounds onto the lower value, which would put both
        # values in the upper class.
        values = np.array([0.5, np.nextafter(0.5, 1.0)])
        assert (values >= otsu_threshold(values)).tolist() == [False, True]

    def test_values_near_the_float_maximum(self):
        # Their sum, their gap's square and a class sum would each overflow.
        t = otsu_threshold(np.array([1e308, 1.7e308]))
        assert np.isfinite(t) and 1e308 < t <= 1.7e308
        values = np.array([-1.7e308, -1.6e308, 1.6e308, 1.7e308, 1.7e308])
        assert (values >= otsu_threshold(values)).tolist() == [False, False, True, True, True]

    def test_a_power_of_two_scale_moves_no_split(self):
        values = np.random.default_rng(5).uniform(0, 1, 40)
        for scale in (2.0**-40, 2.0**600, 2.0**1000):
            assert otsu_threshold(values * scale) == otsu_threshold(values) * scale


class TestZeroSkewFixpoints:
    def test_all_fairness_fixpoints(self):
        """Identical per-group distributions drive every metric to its
        fair value."""
        scores = np.linspace(0.05, 0.95, 10)
        genuine = np.linspace(0.6, 1.0, 10)
        ids, demographics = [], {}
        for g_idx, group in enumerate(ALL_GROUPS):
            for i in range(2):
                sid = f"u{g_idx:02d}_{i}"
                ids.append(sid)
                demographics[sid] = group
        slots = np.array([[genuine, scores, scores]] * len(ids))
        spread = group_accuracy_spread(slots, group_index(ids, demographics), eer_threshold=0.5)
        assert spread.std == pytest.approx(0.0, abs=1e-9)
        assert spread.ser == pytest.approx(1.0, abs=1e-9)
        rates = rates_at(ids, slots, demographics)
        assert fdr(rates) == pytest.approx(100.0, abs=1e-9)
        assert inequity_rate(rates) == pytest.approx(1.0, abs=1e-9)
        assert garbe(rates) == pytest.approx(0.0, abs=1e-9)
