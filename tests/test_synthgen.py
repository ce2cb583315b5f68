from __future__ import annotations

import io
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdbench.core import ALL_GROUPS, AgeGroup, Gender, parse_raw_log
from kdbench.errors import ConfigError
from kdbench.synthgen import (
    _EPOCH_BASE_MS,
    _SESSION_SPACING_MS,
    GeneratorConfig,
    _event_times,
    _group_shift,
    generate,
)

from oracles import generate_by_profiles, raw_log_lines


def test_same_config_twice_is_byte_identical():
    cfg = GeneratorConfig(n_subjects=5, seed=42)
    text_a = "".join(raw_log_lines(generate(cfg)))
    text_b = "".join(raw_log_lines(generate(cfg)))
    assert text_a == text_b


def test_event_count_arithmetic():
    cfg = GeneratorConfig(n_subjects=10, seed=1, sessions_per_subject=15,
                          keys_per_session=48)
    ds = generate(cfg)
    total = sum(len(sess.events) for s in ds.subjects for sess in s.sessions)
    assert total == 10 * 15 * 48
    assert all(len(s.sessions) == 15 for s in ds.subjects)


def test_zero_subjects_is_empty_not_error():
    ds = generate(GeneratorConfig(n_subjects=0, seed=1))
    assert len(ds) == 0


def test_zero_subjects_build_no_session_ids():
    # However many sessions a subject would have, none is built: a million
    # session ids would hold about 60 MB.
    tracemalloc.start()
    try:
        ds = generate(GeneratorConfig(n_subjects=0, sessions_per_subject=10**6, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ds) == 0 and ds.n_sessions() == 0
    assert peak < 1 << 20


def test_adding_subjects_never_perturbs_existing_ones():
    small = generate(GeneratorConfig(n_subjects=3, seed=5))
    large = generate(GeneratorConfig(n_subjects=6, seed=5))
    assert large.select(range(3)) == small


def test_generated_events_satisfy_invariants():
    ds = generate(GeneratorConfig(n_subjects=4, seed=13, keys_per_session=60))
    saw_rollover = False
    for subject in ds.subjects:
        for session in subject.sessions:
            rows = session.events.tolist()
            presses = [press for _, press, _ in rows]
            assert presses == sorted(presses)
            assert len(set(presses)) == len(presses)  # strictly increasing
            for code, press, release in rows:
                assert release >= press
                assert 32 <= code <= 126
            for (_, _, a_release), (_, b_press, _) in zip(rows, rows[1:]):
                if b_press < a_release:
                    saw_rollover = True
    assert saw_rollover, "rollover events should occur at default settings"


def test_output_parses_back_through_core():
    ds = generate(GeneratorConfig(n_subjects=2, seed=3, keys_per_session=5))
    parsed = parse_raw_log(io.BytesIO("".join(raw_log_lines(ds)).encode()))
    assert parsed == replace(ds, demographics=[None] * len(ds))


def test_zero_skew_groups_statistically_indistinguishable():
    ds = generate(GeneratorConfig(n_subjects=200, seed=77, skew_strength=0.0))
    by_gender: dict[Gender, list[float]] = {g: [] for g in Gender}
    for subject in ds.subjects:
        holds = [
            (release - press) / 1000.0
            for sess in subject.sessions
            for _, press, release in sess.events.tolist()
        ]
        by_gender[subject.demographics.gender].append(float(np.mean(holds)))
    male = np.array(by_gender[Gender.MALE])
    female = np.array(by_gender[Gender.FEMALE])
    se = np.sqrt(male.var(ddof=1) / len(male) + female.var(ddof=1) / len(female))
    assert abs(male.mean() - female.mean()) < 3 * se


def test_skew_shifts_group_means():
    ds = generate(GeneratorConfig(n_subjects=200, seed=77, skew_strength=1.0))
    by_gender: dict[Gender, list[float]] = {g: [] for g in Gender}
    for subject in ds.subjects:
        holds = [
            (release - press) / 1000.0
            for sess in subject.sessions
            for _, press, release in sess.events.tolist()
        ]
        by_gender[subject.demographics.gender].append(float(np.mean(holds)))
    assert np.mean(by_gender[Gender.FEMALE]) > np.mean(by_gender[Gender.MALE])


@pytest.mark.parametrize("skew", [0.0, 0.3, 1.0, 7.25, 100.0, 1e308])
def test_group_shift_is_bit_equal_to_the_enum_formula(skew):
    # The shift from a group's index equals the one from its age bin's
    # position in AgeGroup and its Gender member.
    for group, demo in enumerate(ALL_GROUPS):
        age_idx = list(AgeGroup).index(demo.age_group)
        gender_term = 1.0 if demo.gender is Gender.FEMALE else -1.0
        expected = skew * (0.30 * ((age_idx - 2.5) / 2.5) + 0.15 * gender_term)
        assert _group_shift(group, skew).hex() == expected.hex()


def test_demographic_composition_matches_weights():
    n = 1200
    ds = generate(GeneratorConfig(n_subjects=n, seed=99))
    counts = Counter(s.demographics for s in ds.subjects)
    expected = n / len(ALL_GROUPS)
    chi2 = sum(
        (counts.get(group, 0) - expected) ** 2 / expected for group in ALL_GROUPS
    )
    # chi-square critical value for p = 0.001 with 11 degrees of freedom
    assert chi2 < 31.264


def test_group_weights_validation():
    with pytest.raises(ConfigError, match="sums"):
        GeneratorConfig(n_subjects=1, seed=0, group_weights=(0.5,) * 12)
    with pytest.raises(ConfigError, match="12 entries"):
        GeneratorConfig(n_subjects=1, seed=0, group_weights=(1.0,))


def test_degenerate_group_weights_permitted():
    weights = (1.0,) + (0.0,) * 11
    ds = generate(GeneratorConfig(n_subjects=8, seed=2, group_weights=weights))
    assert {s.demographics for s in ds.subjects} == {ALL_GROUPS[0]}


def _event_times_loop(holds, flights):
    # The per-event integration the generator used before it was vectorized.
    press_rows, release_rows = [], []
    for j in range(holds.shape[0]):
        press_ms = _EPOCH_BASE_MS + j * _SESSION_SPACING_MS
        presses, releases = [], []
        for k in range(holds.shape[1]):
            presses.append(press_ms)
            releases.append(press_ms + max(1, round(holds[j, k] * 1000.0)))
            next_press = press_ms + round((holds[j, k] + flights[j, k]) * 1000.0)
            press_ms = max(press_ms + 1, next_press)
        press_rows.append(presses)
        release_rows.append(releases)
    return press_rows, release_rows


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            *(
                st.lists(st.floats(0.0, 2.0), min_size=2 * n, max_size=2 * n)
                for _ in range(2)
            )
        )
    ),
    st.booleans(),
)
def test_event_times_match_the_per_event_loop(draws, half_ms):
    holds = np.array(draws[0]).reshape(2, -1)
    flights = np.array(draws[1]).reshape(2, -1) - 1.0  # rollover: negative flights
    if half_ms:
        # Exact half milliseconds exercise round-half-to-even.
        holds = np.round(holds * 1000.0) / 1000.0 + 0.0005
        flights = np.round(flights * 1000.0) / 1000.0
    press, release = _event_times(holds, flights)
    assert (press.tolist(), release.tolist()) == _event_times_loop(holds, flights)


def _normalized(weights):
    total = sum(weights)
    return tuple(w / total for w in weights)


def _group_weight_lists(elements):
    return st.lists(elements, min_size=len(ALL_GROUPS), max_size=len(ALL_GROUPS))


_GROUP_WEIGHTS = st.one_of(
    st.just(GeneratorConfig(n_subjects=0).group_weights),
    _group_weight_lists(st.floats(0.01, 1.0)).map(_normalized),
    # Mostly zero: most groups never drawn.
    _group_weight_lists(st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0])).filter(any).map(_normalized),
)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    n_subjects=st.integers(0, 6),
    sessions=st.integers(1, 16),
    keys=st.integers(1, 40),
    # 100 and 1e308 give some or all groups impossible timings.
    skew=st.sampled_from([0.0, 0.7, 1.3, 100.0, 1e308]),
    group_weights=_GROUP_WEIGHTS,
)
def test_generate_agrees_with_the_per_profile_path(
    seed, n_subjects, sessions, keys, skew, group_weights
):
    config = GeneratorConfig(
        n_subjects=n_subjects,
        seed=seed,
        sessions_per_subject=sessions,
        keys_per_session=keys,
        group_weights=group_weights,
        skew_strength=skew,
    )
    outcomes = []
    for draw in (generate, generate_by_profiles):
        try:
            outcomes.append(draw(config))
        except ConfigError as exc:
            outcomes.append(str(exc))
    assert type(outcomes[0]) is type(outcomes[1])
    assert outcomes[0] == outcomes[1]
