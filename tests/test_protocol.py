from __future__ import annotations

import functools
import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdbench import protocol
from kdbench.core import AgeGroup, ALL_GROUPS, Gender
from kdbench.errors import AlignmentError, ConfigError, ProtocolError
from kdbench.fairmetrics import impostor_score_entries
from kdbench.protocol import (
    KINDS,
    ComparisonKind,
    ComparisonPlan,
    SplitConfig,
    aggregate_scores,
    build_comparison_plan,
    cell_means,
    split_dataset,
)
from kdbench.synthgen import GeneratorConfig, generate

from oracles import (
    aggregate_scores_per_line,
    build_comparison_plan_by_dicts,
    chronological_sessions,
    plan_of_rows,
    split_dataset_by_dicts,
)
from test_core import make_session, make_subject
from kdbench.core import Dataset, Subject


def uniform_dataset(n_per_group=4, n_sessions=15):
    """One subject per (group, index): every group equally populated."""
    subjects = []
    for g_idx, demo in enumerate(ALL_GROUPS):
        for i in range(n_per_group):
            subjects.append(
                make_subject(f"u{g_idx:02d}_{i}", n_sessions, demographics=demo)
            )
    return Dataset.of(subjects)


class TestSplitDataset:
    def test_balanced_split_equal_gender_counts(self):
        ds = uniform_dataset(n_per_group=8)  # 96 subjects, 8 per group
        dev, ev = split_dataset(ds, SplitConfig(seed=1, eval_count=20))
        males = sum(1 for s in ev.subjects if s.demographics.gender is Gender.MALE)
        females = len(ev) - males
        assert (males, females) == (10, 10)
        by_age = {}
        for s in ev.subjects:
            key = (s.demographics.age_group, s.demographics.gender)
            by_age[key] = by_age.get(key, 0) + 1
        for age in AgeGroup:
            assert by_age.get((age, Gender.MALE), 0) == by_age.get(
                (age, Gender.FEMALE), 0
            )

    def test_partition_disjoint_and_complete(self):
        ds = uniform_dataset()
        dev, ev = split_dataset(ds, SplitConfig(seed=9, eval_count=12))
        dev_ids = {s.subject_id for s in dev.subjects}
        ev_ids = {s.subject_id for s in ev.subjects}
        assert not dev_ids & ev_ids
        assert dev_ids | ev_ids == {s.subject_id for s in ds.subjects}

    def test_same_seed_same_split(self):
        ds = uniform_dataset()
        first = split_dataset(ds, SplitConfig(seed=4, eval_count=12))
        second = split_dataset(ds, SplitConfig(seed=4, eval_count=12))
        assert [s.subject_id for s in first[1].subjects] == [
            s.subject_id for s in second[1].subjects
        ]

    def test_unbalanced_bin_errors_with_bin_name(self):
        subjects = list(uniform_dataset(n_per_group=4).subjects)
        # Remove every male from the oldest bin.
        subjects = [
            s
            for s in subjects
            if not (
                s.demographics.age_group is AgeGroup.A45_79
                and s.demographics.gender is Gender.MALE
            )
        ]
        with pytest.raises(ProtocolError, match="45-79"):
            split_dataset(Dataset.of(subjects), SplitConfig(seed=0, eval_count=24))

    def test_eval_fraction(self):
        ds = uniform_dataset(n_per_group=4)  # 48 subjects
        dev, ev = split_dataset(ds, SplitConfig(seed=0, eval_fraction=0.25))
        assert len(ev) == 12

    def test_eval_fraction_rounding_to_zero_rejected(self):
        ds = uniform_dataset(n_per_group=4)  # 0.01 of 48 subjects rounds to 0
        with pytest.raises(ConfigError, match="^evaluation size must be at least 1$"):
            split_dataset(ds, SplitConfig(seed=0, eval_fraction=0.01))

    def test_balance_off_exact_count(self):
        ds = uniform_dataset(n_per_group=2)
        dev, ev = split_dataset(
            ds, SplitConfig(seed=0, eval_count=7, gender_balance=False)
        )
        assert len(ev) == 7

    def test_eval_size_must_be_smaller_than_dataset(self):
        ds = uniform_dataset(n_per_group=1)
        with pytest.raises(ConfigError):
            split_dataset(ds, SplitConfig(seed=0, eval_count=12))

    def test_config_requires_exactly_one_size(self):
        with pytest.raises(ConfigError):
            SplitConfig(seed=0)
        with pytest.raises(ConfigError):
            SplitConfig(seed=0, eval_count=5, eval_fraction=0.5)


class TestBuildComparisonPlan:
    def test_count_law(self):
        ev = uniform_dataset(n_per_group=2)  # 24 subjects
        plan = build_comparison_plan(ev, seed=3)
        assert len(plan) == 150 * 24

    def test_per_subject_kind_counts(self):
        ev = uniform_dataset(n_per_group=2)
        plan = build_comparison_plan(ev, seed=3)
        per_subject: dict[tuple[str, ComparisonKind], int] = {}
        for e in plan.entries:
            key = (e.enrol_subject, e.kind)
            per_subject[key] = per_subject.get(key, 0) + 1
        for subject in ev.subjects:
            for kind in ComparisonKind:
                assert per_subject[(subject.subject_id, kind)] == 50

    def test_enrol_verif_disjoint_and_counts(self):
        ev = uniform_dataset(n_per_group=2)
        plan = build_comparison_plan(ev, seed=3)
        for subject in ev.subjects:
            mine = [e for e in plan.entries if e.enrol_subject == subject.subject_id]
            enrol = {e.enrol_session for e in mine}
            verif = {
                e.verif_session
                for e in mine
                if e.kind is ComparisonKind.GENUINE
            }
            assert len(enrol) == 5
            assert len(verif) == 10
            assert not enrol & verif

    def test_genuine_and_impostor_subject_relations(self):
        ev = uniform_dataset(n_per_group=2)
        plan = build_comparison_plan(ev, seed=3)
        demo = {s.subject_id: s.demographics for s in ev.subjects}
        for e in plan.entries:
            if e.kind is ComparisonKind.GENUINE:
                assert e.enrol_subject == e.verif_subject
            else:
                assert e.enrol_subject != e.verif_subject
            if e.kind is ComparisonKind.SIMILAR:
                assert demo[e.enrol_subject] == demo[e.verif_subject]
            if e.kind is ComparisonKind.DISSIMILAR:
                a, b = demo[e.enrol_subject], demo[e.verif_subject]
                assert a.age_group != b.age_group
                assert a.gender != b.gender

    def test_similar_impostors_distinct_subjects_when_pool_allows(self):
        ev = uniform_dataset(n_per_group=12)
        plan = build_comparison_plan(ev, seed=5)
        target = ev.subjects[0].subject_id
        similar = [
            e
            for e in plan.entries
            if e.enrol_subject == target and e.kind is ComparisonKind.SIMILAR
        ]
        impostors = {e.verif_subject for e in similar}
        assert len(impostors) == 10

    def test_small_group_reuses_subjects_with_distinct_sessions(self):
        ev = uniform_dataset(n_per_group=2)
        plan = build_comparison_plan(ev, seed=5)
        target = ev.subjects[0].subject_id
        similar = [
            e
            for e in plan.entries
            if e.enrol_subject == target and e.kind is ComparisonKind.SIMILAR
        ]
        pairs = {(e.verif_subject, e.verif_session) for e in similar}
        assert len(pairs) == 10  # distinct sessions even with one impostor subject

    def test_determinism(self):
        ev = uniform_dataset(n_per_group=2)
        assert build_comparison_plan(ev, seed=3) == build_comparison_plan(ev, seed=3)

    def test_empty_evaluation_set_rejected(self):
        ev = uniform_dataset(n_per_group=2)
        with pytest.raises(ProtocolError, match="^evaluation set has no subjects$"):
            build_comparison_plan(ev.select([]), 0)

    def test_lone_group_member_rejected(self):
        demo_a = ALL_GROUPS[0]
        demo_b = ALL_GROUPS[-1]
        ds = Dataset.of(
            (
                make_subject("a", demographics=demo_a),
                make_subject("b", demographics=demo_b),
                make_subject("c", demographics=demo_b),
            )
        )
        with pytest.raises(ProtocolError, match=demo_a.label()):
            build_comparison_plan(ds, seed=0)

    def test_same_group_only_dataset_rejected(self):
        demo = ALL_GROUPS[0]
        ds = Dataset.of(
            (
                make_subject("a", demographics=demo),
                make_subject("b", demographics=demo),
            )
        )
        with pytest.raises(ProtocolError, match="differs in both"):
            build_comparison_plan(ds, seed=0)

    def test_missing_demographics_rejected(self):
        ds = Dataset.of((make_subject("a"), make_subject("b")))
        with pytest.raises(ProtocolError, match="demographics"):
            build_comparison_plan(ds, seed=0)

    def test_wrong_session_count_rejected(self):
        ds = Dataset.of(
            (
                make_subject("a", n_sessions=14, demographics=ALL_GROUPS[0]),
                make_subject("b", demographics=ALL_GROUPS[0]),
                make_subject("c", demographics=ALL_GROUPS[-1]),
                make_subject("d", demographics=ALL_GROUPS[-1]),
            )
        )
        with pytest.raises(ProtocolError, match="subject a "):
            build_comparison_plan(ds, seed=0)

    def test_session_table_is_each_subjects_chronological_order(self):
        # Ids are listed out of order and first presses repeat within a
        # subject, so the ties are broken by session id ("s10" < "s2").
        rng = np.random.default_rng(4)
        subjects = []
        for g_idx, demo in enumerate(ALL_GROUPS):
            for i in range(2):
                sessions = tuple(
                    make_session(f"s{j}", t0=1000 * int(rng.integers(0, 4)))
                    for j in rng.permutation(15).tolist()
                )
                subjects.append(Subject(f"u{g_idx:02d}_{i}", demo, sessions))
        ev = Dataset.of(subjects)
        plan = build_comparison_plan(ev, seed=3)
        assert plan.sessions == tuple(
            (subject.subject_id, session.session_id)
            for subject in ev.subjects
            for session in chronological_sessions(subject)
        )
        # The subject table the plan is built with is its sessions' own.
        subject_ids, subject_of = plan.subjects
        assert subject_ids == list(dict.fromkeys(s for s, _ in plan.sessions))
        assert [subject_ids[i] for i in subject_of] == [s for s, _ in plan.sessions]

    def test_synthetic_pipeline_count(self):
        ev = generate(GeneratorConfig(n_subjects=100, seed=123))
        plan = build_comparison_plan(ev, seed=0)
        assert len(plan) == 15_000


class TestAggregateScores:
    def _plan_and_scores(self, seed=3):
        ev = uniform_dataset(n_per_group=2)
        plan = build_comparison_plan(ev, seed=seed)
        rng = np.random.default_rng(7)
        return plan, rng.uniform(0, 1, len(plan))

    def test_slot_mean(self):
        plan, scores = self._plan_and_scores()
        entry = plan.entries[0]
        scores = scores.copy()
        # Overwrite the 5 enrolment comparisons of one slot with known values.
        values = [0.2, 0.4, 0.6, 0.8, 1.0]
        hits = [
            i
            for i, e in enumerate(plan.entries)
            if (e.enrol_subject, e.kind, e.score_index)
            == (entry.enrol_subject, entry.kind, entry.score_index)
        ]
        assert len(hits) == 5
        for i, v in zip(hits, values):
            scores[i] = v
        ids, slots = aggregate_scores(plan, scores)
        row = ids.index(entry.enrol_subject)
        assert slots[row, KINDS.index(entry.kind), entry.score_index] == pytest.approx(
            0.6, abs=1e-12
        )

    def test_output_shape_and_order(self):
        plan, scores = self._plan_and_scores()
        ids, slots = aggregate_scores(plan, scores)
        assert len(set(ids)) == 24
        assert ids == sorted(ids)
        assert slots.shape == (24, len(KINDS), 10)
        assert slots.dtype == np.float64
        assert not slots.flags.writeable

    def test_permutation_invariance(self):
        plan, scores = self._plan_and_scores()
        rng = np.random.default_rng(11)
        order = rng.permutation(len(plan))
        rows = plan.entries
        permuted_plan = plan_of_rows(rows[i] for i in order)
        ids, slots = aggregate_scores(plan, scores)
        permuted_ids, permuted_slots = aggregate_scores(permuted_plan, scores[order])
        assert permuted_ids == ids
        assert permuted_slots.tobytes() == slots.tobytes()

    def test_length_mismatch_rejected(self):
        plan, scores = self._plan_and_scores()
        with pytest.raises(AlignmentError, match="entries"):
            aggregate_scores(plan, scores[:-1])

    def test_non_finite_score_rejected_with_index(self):
        plan, scores = self._plan_and_scores()
        scores[17] = np.nan
        with pytest.raises(AlignmentError, match="entry 17"):
            aggregate_scores(plan, scores)

    @pytest.mark.parametrize("value", [7.5, -0.1, 1e308, np.inf, -np.inf, -5e-324])
    def test_score_outside_unit_interval_rejected_with_index(self, value):
        plan, scores = self._plan_and_scores()
        scores[17] = value
        message = f"score {float(value)!r} at entry 17 outside [0, 1]"
        with pytest.raises(AlignmentError, match=f"^{re.escape(message)}$"):
            aggregate_scores(plan, scores)

    def test_unit_interval_bounds_accepted(self):
        plan, scores = self._plan_and_scores()
        scores[:5], scores[5:10] = 0.0, 1.0
        ids, slots = aggregate_scores(plan, scores)
        row = ids.index(plan.entries[0].enrol_subject)
        assert slots[row, 0, :2].tolist() == [0.0, 1.0]


@functools.cache
def _uniform_plan():
    plan = build_comparison_plan(uniform_dataset(n_per_group=2), seed=3)
    return plan, plan.entries


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(
        st.tuples(st.integers(0, 3599), st.one_of(st.floats(0, 1), st.just(-0.0))),
        max_size=20,
    ),
    st.sampled_from(["keep", "drop", "repeat"]),
    st.integers(0, 3599),
)
def test_aggregate_scores_agrees_with_the_per_line_oracle(seed, values, op, line):
    """Any line order gives the oracle's ids and means to the bit; a slot
    short of a line, or with one line twice, is named with its count."""
    plan, entries = _uniform_plan()
    assert len(plan) == 3600
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0, 1, len(plan))
    for i, value in values:
        scores[i] = value
    order = rng.permutation(len(plan))
    edited = entries[order[line]]
    if op == "drop":
        order = np.delete(order, line)
    elif op == "repeat":
        order = np.insert(order, rng.integers(len(order) + 1), order[line])
    permuted = ComparisonPlan(
        plan.sessions, plan.enrol[order], plan.verif[order], plan.kind[order], plan.slot[order]
    )
    if op == "keep":
        ids, means = aggregate_scores(permuted, scores[order])
        expected_ids, expected = aggregate_scores_per_line(
            [entries[i] for i in order], scores[order].tolist()
        )
        assert ids == expected_ids
        assert means.tobytes() == expected.tobytes()
        return
    count = {"drop": 4, "repeat": 6}[op]
    with pytest.raises(ProtocolError) as info:
        aggregate_scores(permuted, scores[order])
    assert str(info.value) == (
        f"slot {edited.enrol_subject}/{edited.kind.value}/{edited.score_index} "
        f"has {count} comparisons, expected 5"
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(0, n - 1), st.one_of(st.floats(0, 1), st.floats(-1e16, 1e16))),
        max_size=30,
    ))),
    st.randoms(use_true_random=False),
    st.sampled_from([8, 24, 56, protocol.CHUNK_BYTES]),
)
def test_cell_means_are_each_cells_fsum_over_its_count(cells_and_pairs, random, chunk):
    """Bit for bit, in any order of the values, with cells that straddle
    the blocks the values are read in; an empty cell's mean is 0."""
    n, pairs = cells_and_pairs
    cells = np.array([c for c, _ in pairs], dtype=np.intp)
    values = np.array([v for _, v in pairs], dtype=np.float64)
    counts = np.bincount(cells, minlength=n)
    expected = [
        math.fsum(v for c, v in pairs if c == k) / int(counts[k]) if counts[k] else 0.0
        for k in range(n)
    ]
    order = list(range(len(pairs)))
    random.shuffle(order)
    with mock.patch.object(protocol, "CHUNK_BYTES", chunk):
        shuffled = cell_means(values[order], cells[order], counts)
        for means in (cell_means(values, cells, counts), shuffled):
            assert [m.hex() for m in means.tolist()] == [e.hex() for e in expected]


class TestScoreSet:
    """A subject's score set: 10 slot means per comparison kind."""

    def test_requires_ten_scores_per_slot_kind(self):
        plan = build_comparison_plan(uniform_dataset(n_per_group=2), seed=3)
        subject = plan.entries[0].enrol_subject
        # Drop all 5 lines of the subject's last genuine slot: 9 genuine scores.
        keep = [
            e for e in plan.entries
            if (e.enrol_subject, e.kind, e.score_index)
            != (subject, ComparisonKind.GENUINE, 9)
        ]
        assert len(keep) == len(plan) - 5
        with pytest.raises(ProtocolError, match=f"{subject} is missing genuine slot 9"):
            aggregate_scores(plan_of_rows(keep), np.full(len(keep), 0.5))


def _moved_to(subject_id):
    """A defect: the line's verification side becomes `subject_id`'s first
    session ("self" for the enrolled subject's own)."""
    def move(row, first_session):
        target = row.enrol_subject if subject_id == "self" else subject_id
        return row._replace(verif_subject=target, verif_session=first_session[target])
    return move


# defect -> (line within a subject's 150, edit, message naming the subject)
PLAN_DEFECTS = {
    "slot 10": (
        7, lambda row, _: row._replace(score_index=10), "slot {}/genuine/10 outside [0, 10)"
    ),
    "G across subjects": (12, _moved_to("u05_0"), "genuine comparison of {} against u05_0:"),
    "S against itself": (60, _moved_to("self"), "similar comparison of {0} against {0}:"),
    # u01_0 is the enrolled subjects' age bin with the other gender.
    "flipped-gender S": (63, _moved_to("u01_0"), "S comparison of {} (10-13/M) against u01_0"),
    "D sharing the age bin": (110, _moved_to("u01_0"), "D comparison of {} (10-13/M) against"),
}


class TestPlanChecksReportTheFirstBadLine:
    """Two defects, one in the first subject's lines and one in the
    second's: the check reports the first subject's, whatever the kinds."""

    def _check(self, check, first, second):
        ev = uniform_dataset(n_per_group=2)
        plan = build_comparison_plan(ev, seed=3)
        rows = list(plan.entries)
        first_session = {}
        for subject_id, session_id in plan.sessions:
            first_session.setdefault(subject_id, session_id)
        subjects = [rows[0].enrol_subject, rows[150].enrol_subject]
        assert subjects == ["u00_0", "u00_1"]
        for block, defect in enumerate((first, second)):
            line, edit, _ = PLAN_DEFECTS[defect]
            rows[150 * block + line] = edit(rows[150 * block + line], first_session)
        with pytest.raises(ProtocolError) as info:
            check(plan_of_rows(rows), np.full(len(rows), 0.5))
        assert PLAN_DEFECTS[first][2].format(subjects[0]) in str(info.value)

    @pytest.mark.parametrize(
        "first, second",
        itertools.product(["slot 10", "G across subjects", "S against itself"], repeat=2),
    )
    def test_aggregate_scores(self, first, second):
        self._check(aggregate_scores, first, second)

    @pytest.mark.parametrize(
        "first, second",
        itertools.product(["flipped-gender S", "D sharing the age bin"], repeat=2),
    )
    def test_impostor_score_entries(self, first, second):
        ev = uniform_dataset(n_per_group=2)
        demographics = {s.subject_id: s.demographics for s in ev.subjects}
        self._check(
            lambda plan, scores: impostor_score_entries(plan, scores, demographics),
            first, second,
        )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_split_disjoint_for_any_seed(seed):
    ds = uniform_dataset(n_per_group=3)
    dev, ev = split_dataset(ds, SplitConfig(seed=seed, eval_count=12))
    assert not {s.subject_id for s in dev.subjects} & {
        s.subject_id for s in ev.subjects
    }


@st.composite
def group_layouts(draw):
    """A dataset of subjects over the 12 groups, one key per session, in a
    shuffled group order. Some layouts populate one age bin or one gender
    only, which leaves the dissimilar pools empty; groups hold 0 to 12
    subjects, so lone members, pools smaller than 10 and age bins short of
    one gender are common. One subject may lack demographics or a session."""
    every_age, every_gender = set(range(len(AgeGroup))), set(range(len(Gender)))
    ages = draw(st.sampled_from([every_age] * 3 + [{0}, {2, 5}]))
    genders = draw(st.sampled_from([every_gender] * 3 + [{0}, {1}]))
    sizes = draw(st.lists(st.integers(0, 12), min_size=len(ALL_GROUPS), max_size=len(ALL_GROUPS)))
    groups = [
        g for g, size in enumerate(sizes)
        for _ in range(size if g // len(Gender) in ages and g % len(Gender) in genders else 0)
    ]
    groups = draw(st.permutations(groups))
    demographics = [ALL_GROUPS[g] for g in groups]
    sessions = [15] * len(groups)
    flaw = draw(st.sampled_from([None] * 8 + ["demographics", "session"]))
    if flaw and groups:
        at = draw(st.integers(0, len(groups) - 1))
        if flaw == "demographics":
            demographics[at] = None
        else:
            sessions[at] = 14
    press = np.arange(sum(sessions), dtype=np.int64)[::-1] * 100
    return Dataset(
        subject_ids=[f"u{i:03d}" for i in range(len(groups))],
        demographics=demographics,
        session_offsets=np.concatenate([[0], np.cumsum(sessions)]),
        session_ids=[f"s{j:02d}" for count in sessions for j in range(count)],
        event_offsets=np.arange(sum(sessions) + 1),
        events=np.stack([np.full_like(press, 97), press, press + 50], axis=1),
    )


def _outcome(function, *args):
    """What `function(*args)` returns, or its error's type and message."""
    try:
        return function(*args)
    except (ConfigError, ProtocolError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(group_layouts(), st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_split_and_plan_agree_with_the_dict_based_code(dataset, seed, balance, data):
    # Sizes up to the dataset's own, which is one too many; odd ones too.
    size = data.draw(st.one_of(
        st.fixed_dictionaries({"eval_count": st.integers(1, max(1, len(dataset)))}),
        st.fixed_dictionaries({"eval_fraction": st.floats(0.01, 0.99)}),
    ))
    config = SplitConfig(seed, gender_balance=balance, **size)
    split = _outcome(split_dataset, dataset, config)
    assert split == _outcome(split_dataset_by_dicts, dataset, config)
    # The plan of the whole layout, and of the evaluation set when the
    # split succeeded.
    for evaluation in (dataset, *([split[1]] if isinstance(split[1], Dataset) else [])):
        plan = _outcome(build_comparison_plan, evaluation, seed)
        assert plan == _outcome(build_comparison_plan_by_dicts, evaluation, seed)
