from __future__ import annotations

import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdbench.core import ALL_GROUPS, Gender, parse_raw_log
from kdbench.errors import ConfigError
from kdbench.formats import raw_log_lines
from kdbench.synthgen import (
    _EPOCH_BASE_MS,
    _SESSION_SPACING_MS,
    GeneratorConfig,
    _event_times,
    generate,
    generate_scores,
)
from kdbench.verifmetrics import eer, roc


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


def test_adding_subjects_never_perturbs_existing_ones():
    small = generate(GeneratorConfig(n_subjects=3, seed=5))
    large = generate(GeneratorConfig(n_subjects=6, seed=5))
    assert large.subjects[:3] == small.subjects


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
    parsed = parse_raw_log(io.StringIO("".join(raw_log_lines(ds))))
    assert parsed.subjects == tuple(
        type(s)(s.subject_id, None, s.sessions) for s in ds.subjects
    )


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


class TestGenerateScores:
    def test_same_seed_identical(self):
        cfg = GeneratorConfig(n_subjects=6, seed=21)
        assert generate_scores(cfg, 0.4) == generate_scores(cfg, 0.4)

    def test_scores_in_unit_interval(self):
        sets = generate_scores(GeneratorConfig(n_subjects=20, seed=3), 1.0)
        for s in sets:
            for v in s.genuine + s.similar + s.dissimilar:
                assert 0.0 <= v <= 1.0

    def test_large_separation_gives_zero_eer(self):
        sets = generate_scores(GeneratorConfig(n_subjects=50, seed=8), 1.0)
        genuine = [v for s in sets for v in s.genuine]
        impostor = [v for s in sets for v in s.impostor()]
        value, _ = eer(roc(genuine, impostor))
        assert value == 0.0

    def test_zero_separation_eer_near_half(self):
        # 400 subjects -> 4,000 genuine and 8,000 impostor scores.
        sets = generate_scores(GeneratorConfig(n_subjects=400, seed=8), 0.0)
        genuine = [v for s in sets for v in s.genuine]
        impostor = [v for s in sets for v in s.impostor()]
        value, _ = eer(roc(genuine, impostor))
        assert abs(value - 50.0) < 2.0

    def test_negative_separation_rejected(self):
        with pytest.raises(ConfigError):
            generate_scores(GeneratorConfig(n_subjects=1, seed=0), -0.1)


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
