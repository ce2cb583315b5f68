from __future__ import annotations

import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdbench.core import (
    AgeGroup,
    ALL_GROUPS,
    Dataset,
    Demographics,
    Gender,
    PRESS,
    Session,
    Subject,
    attach_demographics,
    eligibility_issues,
    filter_eligible,
    parse_raw_log,
)
from kdbench.errors import ParseError, ProtocolError
from kdbench.formats import raw_log_lines
from kdbench.protocol import SplitConfig, split_dataset
from kdbench.synthgen import GeneratorConfig, generate

from oracles import check_session_rows


def make_session(session_id="s00", n_events=4, t0=0):
    events = [(97 + k, t0 + 100 * k, t0 + 100 * k + 80) for k in range(n_events)]
    return Session(session_id, events)


def session_view(session_id, events):
    """A checked session: the one session of a one-subject dataset."""
    subject = Subject("u", None, (Session(session_id, events),))
    return Dataset.of([subject]).subjects[0].sessions[0]


def make_subject(subject_id="u1", n_sessions=15, demographics=None):
    sessions = tuple(
        make_session(f"s{j:02d}", t0=j * 10_000) for j in range(n_sessions)
    )
    return Subject(subject_id, demographics, sessions)


class TestKeyEvent:
    """The per-event invariants, checked on every row of a dataset."""

    def test_rejects_release_before_press(self):
        with pytest.raises(ValueError, match="precedes"):
            session_view("s", [(97, 0, 20), (97, 80, 0)])

    def test_rejects_code_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            session_view("s", [(300, 0, 80)])
        with pytest.raises(ValueError, match="outside"):
            session_view("s", [(-1, 0, 80)])

    def test_zero_length_hold_allowed(self):
        assert session_view("s", [(97, 50, 50)]).events.tolist() == [[97, 50, 50]]

    def test_rejects_unsorted_presses(self):
        with pytest.raises(ValueError, match="not sorted"):
            session_view("s", [(97, 100, 180), (98, 0, 80)])

    def test_events_are_read_only_int64_rows(self):
        session = session_view("s00", make_session(n_events=3).events)
        assert session.events.dtype == np.int64
        assert session.events.shape == (3, 3)
        with pytest.raises(ValueError):
            session.events[0, PRESS] = 5


class TestParseRawLog:
    def test_single_line_maps_fields(self):
        ds = parse_raw_log(io.StringIO("u1\ts1\t97\t0\t80\n"))
        assert len(ds) == 1
        subject = ds.subjects[0]
        assert subject.subject_id == "u1"
        assert subject.sessions[0].session_id == "s1"
        assert subject.sessions[0].events.tolist() == [[97, 0, 80]]

    def test_release_before_press_rejected_with_line_number(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_raw_log(io.StringIO("u1\ts1\t97\t80\t0\n"))

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="5 tab-separated"):
            parse_raw_log(io.StringIO("u1\ts1\t97\t0\n"))

    def test_non_integer_timestamp(self):
        with pytest.raises(ParseError, match="non-integer"):
            parse_raw_log(io.StringIO("u1\ts1\t97\tx\t80\n"))

    def test_duplicate_event_rejected(self):
        line = "u1\ts1\t97\t0\t80\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_raw_log(io.StringIO(line + line))

    def test_key_code_above_255_rejected_not_clamped(self):
        with pytest.raises(ParseError, match="outside"):
            parse_raw_log(io.StringIO("u1\ts1\t256\t0\t80\n"))

    def test_interleaved_subjects_grouped_in_first_appearance_order(self):
        text = "".join(
            f"{subject}\t{session}\t97\t{t}\t{t + 5}\n"
            for t, (subject, session) in enumerate(
                [("u2", "b"), ("u1", "z"), ("u2", "a"), ("u1", "z"), ("u2", "b")]
            )
        )
        ds = parse_raw_log(io.StringIO(text))
        assert ds.subject_ids.tolist() == ["u2", "u1"]
        assert ds.session_ids.tolist() == ["b", "a", "z"]
        assert ds.session_offsets.tolist() == [0, 2, 3]
        assert ds.events[:, PRESS].tolist() == [0, 4, 2, 1, 3]

    def test_events_resorted_by_press_time(self):
        text = "u1\ts1\t98\t100\t180\nu1\ts1\t97\t0\t80\n"
        ds = parse_raw_log(io.StringIO(text))
        presses = ds.subjects[0].sessions[0].events[:, PRESS].tolist()
        assert presses == [0, 100]

    def test_round_trip_identity_on_generated_data(self):
        dataset = generate(GeneratorConfig(n_subjects=2, seed=9, keys_per_session=4))
        text = "".join(raw_log_lines(dataset))
        parsed = attach_demographics(
            parse_raw_log(io.StringIO(text)),
            dict(zip(dataset.subject_ids, dataset.demographics)),
        )
        assert parsed == dataset


class TestEligibilityIssues:
    def test_fifteen_valid_sessions_eligible(self):
        assert eligibility_issues(Dataset.of([make_subject()])) == {}

    def test_fourteen_sessions_ineligible(self):
        issues = eligibility_issues(Dataset.of([make_subject(n_sessions=14)]))
        assert any("session count 14 < 15" in issue for issue in issues[0])

    def test_empty_session_ineligible(self):
        subject = make_subject()
        sessions = subject.sessions[:-1] + (Session("s14", []),)
        issues = eligibility_issues(Dataset.of([Subject("u1", None, sessions)]))
        assert any("no events" in issue for issue in issues[0])


class TestFilterEligible:
    def test_counts(self):
        subjects = tuple(make_subject(f"u{i}") for i in range(10)) + tuple(
            make_subject(f"v{i}", n_sessions=14) for i in range(3)
        )
        out = filter_eligible(Dataset.of(subjects))
        assert len(out) == 10
        assert [s.subject_id for s in out.subjects] == [f"u{i}" for i in range(10)]

    def test_empty_dataset(self):
        assert len(filter_eligible(Dataset.of([]))) == 0

    def test_identity_when_all_eligible(self):
        ds = Dataset.of(make_subject(f"u{i}") for i in range(4))
        assert filter_eligible(ds) == ds

    def test_idempotent(self):
        subjects = tuple(make_subject(f"u{i}") for i in range(3)) + (
            make_subject("bad", n_sessions=2),
        )
        once = filter_eligible(Dataset.of(subjects))
        twice = filter_eligible(once)
        assert once == twice


class TestDataset:
    def test_duplicate_subject_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate subject ids"):
            Dataset.of((make_subject("u1"), make_subject("u1")))

    def test_duplicate_session_keys_rejected(self):
        sessions = (make_session("s0"), make_session("s1"), make_session("s0", t0=10_000))
        with pytest.raises(
            ValueError, match=r"^duplicate \(subject, session\) keys: \[\('u1', 's0'\)\]$"
        ):
            Dataset.of([Subject("u1", None, sessions)])
        # The same session id under two subjects is two keys.
        Dataset.of([Subject("u1", None, sessions[:1]), Subject("u2", None, sessions[2:])])

    def test_inconsistent_offsets_rejected(self):
        ds = Dataset.of([make_subject("u1", n_sessions=2)])
        with pytest.raises(ValueError, match=r"^offsets \[0, 9, 8\] do not cut 8 rows in 2$"):
            replace(ds, event_offsets=[0, 9, 8])
        with pytest.raises(ValueError, match=r"^offsets \[0, 3\] do not cut 2 rows in 1$"):
            replace(ds, session_offsets=[0, 3])
        with pytest.raises(ValueError, match=r"^offsets \[0, 2\] do not cut 8 rows in 2$"):
            replace(ds, event_offsets=[0, 2])

    def test_select_keeps_the_given_subjects_in_order(self):
        ds = Dataset.of(make_subject(f"u{i}", n_sessions=i + 1) for i in range(4))
        picked = ds.select([3, 1])
        assert picked == Dataset.of([ds.subjects[3], ds.subjects[1]])
        assert len(ds.select([])) == 0 and ds.select([]).events.shape == (0, 3)

    def test_twelve_demographic_groups(self):
        assert len(ALL_GROUPS) == 12
        assert len(set(ALL_GROUPS)) == 12


def test_attach_demographics_requires_coverage():
    # A subject the mapping misses keeps no demographics, and the protocol
    # stage rejects it.
    ds = Dataset.of((make_subject("u1"), make_subject("u2")))
    mapping = {"u1": Demographics(AgeGroup.A10_13, Gender.MALE)}
    out = attach_demographics(ds, mapping)
    assert out.subjects[0].demographics is not None
    assert out.subjects[1].demographics is None
    with pytest.raises(ProtocolError, match="subject u2 has no demographics"):
        split_dataset(out, SplitConfig(seed=0, eval_count=1))


# A canonical dataset (events sorted by press/release/code with unique
# event triples) must survive write-then-parse unchanged.
@st.composite
def canonical_datasets(draw):
    n_subjects = draw(st.integers(1, 3))
    subjects = []
    for i in range(n_subjects):
        n_sessions = draw(st.integers(1, 3))
        sessions = []
        for j in range(n_sessions):
            n_events = draw(st.integers(1, 5))
            start = draw(st.integers(0, 10**6))
            events = []
            press = start
            for _ in range(n_events):
                press += draw(st.integers(1, 500))
                hold = draw(st.integers(0, 300))
                code = draw(st.integers(0, 255))
                events.append((code, press, press + hold))
            sessions.append(Session(f"s{j}", events))
        subjects.append(Subject(f"u{i}", None, tuple(sessions)))
    return Dataset.of(subjects)


@settings(max_examples=50, deadline=None)
@given(canonical_datasets())
def test_round_trip_identity_property(dataset):
    text = "".join(raw_log_lines(dataset))
    assert parse_raw_log(io.StringIO(text)) == dataset


@settings(max_examples=50, deadline=None)
@given(canonical_datasets())
def test_parsed_sessions_press_sorted(dataset):
    text = "".join(raw_log_lines(dataset))
    parsed = parse_raw_log(io.StringIO(text))
    for subject in parsed.subjects:
        for session in subject.sessions:
            presses = session.events[:, PRESS].tolist()
            assert presses == sorted(presses)


@settings(max_examples=50, deadline=None)
@given(canonical_datasets(), st.randoms(use_true_random=False))
def test_any_line_order_parses_to_the_same_sessions(dataset, random):
    lines = "".join(raw_log_lines(dataset)).splitlines(keepends=True)
    shuffled = list(lines)
    random.shuffle(shuffled)

    def by_session(text):
        return {
            (subject.subject_id, session.session_id): session.events.tolist()
            for subject in parse_raw_log(io.StringIO(text)).subjects
            for session in subject.sessions
        }

    assert by_session("".join(shuffled)) == by_session("".join(lines))


@st.composite
def event_blocks(draw):
    """(session lengths, rows): random rows cut into random sessions, some
    empty. Each session starts at a fresh press time, so presses often drop
    exactly at a session boundary."""
    lengths = draw(st.lists(st.integers(0, 4), max_size=6))
    rows = []
    for n in lengths:
        press = draw(st.integers(0, 1000))
        for _ in range(n):
            press += draw(st.integers(-1, 50))
            code = draw(st.integers(-1, 256))
            rows.append((code, press, press + draw(st.integers(-1, 100))))
    return lengths, rows


@settings(max_examples=300, deadline=None)
@given(event_blocks())
def test_block_checks_agree_with_the_per_session_checks(block):
    lengths, rows = block
    session_ids = [f"s{j}" for j in range(len(lengths))]
    bounds = np.cumsum([0, *lengths])

    def first_error(check):
        try:
            check()
        except ValueError as exc:
            return str(exc)
        return None

    def per_session():
        for j, session_id in enumerate(session_ids):
            check_session_rows(session_id, rows[bounds[j] : bounds[j + 1]])

    def constructor():
        Dataset(
            subject_ids=["u"],
            demographics=[None],
            session_offsets=[0, len(lengths)],
            session_ids=session_ids,
            event_offsets=bounds,
            events=np.array(rows, dtype=np.int64).reshape(-1, 3),
        )

    assert first_error(constructor) == first_error(per_session)


# Each bad log with its exact error: the first bad line is reported,
# whichever check it fails.
PARSE_ERRORS = [
    ("u1\ts1\t97\t0\n", "line 1: expected 5 tab-separated fields, got 4"),
    ("u1\ts1\t97\t0\t80\t1\n", "line 1: expected 5 tab-separated fields, got 6"),
    ("u1\ts1\t97\tx\t80\n", "line 1: non-integer event field in ['97', 'x', '80']"),
    ("u1\ts1\t256\t0\t80\n", "line 1: key code 256 outside [0, 255]"),
    ("u1\ts1\t-1\t0\t80\n", "line 1: key code -1 outside [0, 255]"),
    ("u1\ts1\t97\t80\t0\n", "line 1: release 0 precedes press 80"),
    (
        "u1\ts1\t97\t0\t80\n\nu1\ts1\t97\t0\t80\n",
        "line 3: duplicate event ('u1', 's1', 97, 0, 80)",
    ),
    ("u1\ts1\t97\t0\t80\nu1\ts1\t300\t0\t80\nu1\ts1\t97\t0\t80\n", "line 2: key code 300"),
    ("u1\ts1\t97\t0\t80\nu1\ts1\t97\t0\t80\nu1\ts1\t300\t0\t80\n", "line 2: duplicate"),
    ("u1\ts1\t97\t9\t8\nu1\ts1\t97\t0\n", "line 1: release 8 precedes press 9"),
    ("u1\ts1\t97\t0\t80\nu1\ts1\tq\t0\t80\nu1\n", "line 2: non-integer"),
    ("u1\ts1\t97\t0\t80\nu1\ts1\t97\t0\t80\nu1\ts1\tq\t0\t80\n", "line 2: duplicate"),
    ("u1\ts1\t97\t0\t" + str(2**64) + "\n", "line 1: event field outside 64 bits"),
    ("u1\ts1\t" + str(2**64) + "\t0\t80\n", f"line 1: key code {2**64} outside"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_parse_error_names_the_first_bad_line(text, message):
    with pytest.raises(ParseError) as info:
        parse_raw_log(io.StringIO(text))
    assert str(info.value).startswith(message)


def test_parse_error_past_the_first_conversion_chunk():
    good = "".join(f"u1\ts1\t97\t{t}\t{t + 5}\n" for t in range(0, 200_000, 2))
    with pytest.raises(ParseError, match=r"^line 100001: non-integer"):
        parse_raw_log(io.StringIO(good + "u1\ts1\t97\tx\t1\n"))
    with pytest.raises(ParseError, match=r"^line 100001: duplicate"):
        parse_raw_log(io.StringIO(good + "u1\ts1\t97\t0\t5\n"))
