from __future__ import annotations

import contextlib
import io
import random
import re
import string
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdbench import core
from kdbench.core import (
    AgeGroup,
    ALL_GROUPS,
    GROUP_INDEX,
    Dataset,
    Demographics,
    Gender,
    CODE,
    PRESS,
    RELEASE,
    Session,
    Subject,
    attach_demographics,
    eligibility_issues,
    filter_eligible,
    parse_raw_log,
)
from kdbench.errors import ParseError, ProtocolError
from kdbench.formats import load_raw_log, write_raw_log
from kdbench.protocol import SplitConfig, split_dataset
from kdbench.synthgen import GeneratorConfig, generate

from oracles import check_session_rows, parse_raw_log_per_line, raw_log_lines


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
        ds = parse_raw_log(io.BytesIO(b"u1\ts1\t97\t0\t80\n"))
        assert len(ds) == 1
        subject = ds.subjects[0]
        assert subject.subject_id == "u1"
        assert subject.sessions[0].session_id == "s1"
        assert subject.sessions[0].events.tolist() == [[97, 0, 80]]

    def test_release_before_press_rejected_with_line_number(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_raw_log(io.BytesIO(b"u1\ts1\t97\t80\t0\n"))

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="5 tab-separated"):
            parse_raw_log(io.BytesIO(b"u1\ts1\t97\t0\n"))

    def test_non_integer_timestamp(self):
        with pytest.raises(ParseError, match="non-integer"):
            parse_raw_log(io.BytesIO(b"u1\ts1\t97\tx\t80\n"))

    def test_duplicate_event_rejected(self):
        line = "u1\ts1\t97\t0\t80\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_raw_log(io.BytesIO((line + line).encode()))

    def test_key_code_above_255_rejected_not_clamped(self):
        with pytest.raises(ParseError, match="outside"):
            parse_raw_log(io.BytesIO(b"u1\ts1\t256\t0\t80\n"))

    def test_interleaved_subjects_grouped_in_first_appearance_order(self):
        text = "".join(
            f"{subject}\t{session}\t97\t{t}\t{t + 5}\n"
            for t, (subject, session) in enumerate(
                [("u2", "b"), ("u1", "z"), ("u2", "a"), ("u1", "z"), ("u2", "b")]
            )
        )
        ds = parse_raw_log(io.BytesIO(text.encode()))
        assert ds.subject_ids.tolist() == ["u2", "u1"]
        assert ds.session_ids.tolist() == ["b", "a", "z"]
        assert ds.session_offsets.tolist() == [0, 2, 3]
        assert ds.events[:, PRESS].tolist() == [0, 4, 2, 1, 3]

    def test_events_resorted_by_press_time(self):
        text = "u1\ts1\t98\t100\t180\nu1\ts1\t97\t0\t80\n"
        ds = parse_raw_log(io.BytesIO(text.encode()))
        presses = ds.subjects[0].sessions[0].events[:, PRESS].tolist()
        assert presses == [0, 100]

    def test_round_trip_identity_on_generated_data(self):
        dataset = generate(GeneratorConfig(n_subjects=2, seed=9, keys_per_session=4))
        text = "".join(raw_log_lines(dataset))
        parsed = attach_demographics(
            parse_raw_log(io.BytesIO(text.encode())),
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

    def test_group_index_is_age_bin_times_two_plus_gender(self):
        assert GROUP_INDEX == {
            Demographics(age, gender): 2 * a + s
            for a, age in enumerate(AgeGroup)
            for s, gender in enumerate((Gender.MALE, Gender.FEMALE))
        }
        assert all(ALL_GROUPS[i] == group for group, i in GROUP_INDEX.items())


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
    assert parse_raw_log(io.BytesIO(text.encode())) == dataset


@settings(max_examples=50, deadline=None)
@given(canonical_datasets())
def test_parsed_sessions_press_sorted(dataset):
    text = "".join(raw_log_lines(dataset))
    parsed = parse_raw_log(io.BytesIO(text.encode()))
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
            for subject in parse_raw_log(io.BytesIO(text.encode())).subjects
            for session in subject.sessions
        }

    assert by_session("".join(shuffled)) == by_session("".join(lines))


@settings(max_examples=50, deadline=None)
@given(canonical_datasets(), st.randoms(use_true_random=False))
def test_the_parser_holds_what_the_constructor_checks(dataset, random):
    # The parser builds its dataset without the constructor's checks, as do
    # attaching demographics and selecting distinct subjects: the checks
    # pass on what they build, in line order and shuffled.
    lines = "".join(raw_log_lines(dataset)).splitlines(keepends=True)
    shuffled = random.sample(lines, len(lines))
    demographics = {subject_id: ALL_GROUPS[0] for subject_id in dataset.subject_ids.tolist()}
    for text in ("".join(lines), "".join(shuffled)):
        parsed = parse_raw_log(io.BytesIO(text.encode()))
        chosen = random.sample(range(len(parsed)), random.randint(0, len(parsed)))
        for built in (parsed, attach_demographics(parsed, demographics), parsed.select(chosen)):
            columns = {field.name: getattr(built, field.name) for field in fields(built)}
            assert Dataset(**columns) == built


def test_select_of_a_repeated_subject_is_checked():
    ds = Dataset.of(make_subject(f"u{i}") for i in range(3))
    with pytest.raises(ValueError, match=r"^duplicate subject ids: \['u0'\]$"):
        ds.select([0, 0])
    # A negative index used to pair one subject's id with another's sessions.
    for chosen in ([3], [-1], [0, -2]):
        with pytest.raises(IndexError, match=r"^subject indices outside \[0, 3\)$"):
            ds.select(chosen)


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
        parse_raw_log(io.BytesIO(text.encode()))
    assert str(info.value).startswith(message)


def test_parse_error_past_the_first_conversion_chunk():
    good = "".join(f"u1\ts1\t97\t{t}\t{t + 5}\n" for t in range(0, 200_000, 2))
    with pytest.raises(ParseError, match=r"^line 100001: non-integer"):
        parse_raw_log(io.BytesIO((good + "u1\ts1\t97\tx\t1\n").encode()))
    with pytest.raises(ParseError, match=r"^line 100001: duplicate"):
        parse_raw_log(io.BytesIO((good + "u1\ts1\t97\t0\t5\n").encode()))


def _parse_both(path):
    """The outcome of the byte scanner (through `load_raw_log`) and of the
    per-line parser reading the file in text mode: (dataset, None) or
    (None, (message, line)) of the ParseError raised. A line that is not
    UTF-8 is a bad line too: the per-line parser reads the lines before it,
    and only if they are good is the decode error expected."""
    def per_line(path):
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            pass
        else:
            with open(path, encoding="utf-8") as fh:
                return parse_raw_log_per_line(fh)
        lines = []
        for line in data.splitlines(keepends=True):
            try:
                lines.append(line.decode("utf-8").rstrip("\r\n") + "\n")
            except UnicodeDecodeError as exc:
                parse_raw_log_per_line(lines)
                raise ParseError(f"{path} is not UTF-8 text ({exc.reason})") from None
        raise AssertionError("the file decodes line by line but not as a whole")

    outcomes = []
    for parse in (load_raw_log, per_line):
        try:
            outcomes.append((parse(path), None))
        except ParseError as exc:
            outcomes.append((None, (str(exc), exc.line_number)))
    return outcomes


def assert_parsers_agree(path):
    (dataset, error), (expected, expected_error) = _parse_both(path)
    assert error == expected_error
    assert (dataset is None) == (expected is None)
    if dataset is not None:
        assert dataset == expected
    return error


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def spellings(value):
    """Ways `int()` reads `value`, the first being the writer's."""
    text = str(value)
    return [
        text, f"+{text}", f" {text}", f"{text}\u00a0", "0" * 18 + text,
        text.translate(ARABIC_INDIC), text[:1] + "_" + text[1:] if len(text) > 1 else text,
    ]


ODD_FIELDS = [
    "-3", "-0", "-", "", "x", "1.0", "--1", "1__0", "256", "-1", "1" * 19, "9" * 19, "9" * 30,
    str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1), str(2**64), "1" * 5000,
]
IDS = st.sampled_from(
    ["u1", "u2", "", "u1\x00", "\u00fc", "s\u00e9ance", "\u65e5\u672c", "a b", "v" * 70]
)


@st.composite
def event_lines(draw):
    """A line whose fields are mostly valid, often repeated, sometimes odd."""
    press = draw(st.integers(0, 3))
    values = [draw(st.sampled_from([97, 98])), press, press + draw(st.integers(0, 2))]
    fields = [draw(st.sampled_from(spellings(v))) for v in values]
    if draw(st.integers(0, 7)) == 0:
        fields[draw(st.integers(0, 2))] = draw(st.sampled_from(ODD_FIELDS))
    return "\t".join([draw(IDS), draw(IDS), *fields])


RAW_LINE = st.one_of(
    event_lines(),
    event_lines(),
    event_lines(),
    st.just(""),
    st.lists(st.one_of(IDS, st.sampled_from(ODD_FIELDS)), max_size=7).map("\t".join),  # any count
)
LINE_END = st.sampled_from(["\n", "\r\n", "\r"])


NOT_UTF8 = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82"])


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(RAW_LINE, LINE_END), max_size=12),
    st.booleans(),
    st.sampled_from([1, 3, 8, 32, core.CHUNK_BYTES]),
    st.one_of(st.none(), st.tuples(st.integers(0, 1_000), NOT_UTF8)),
)
def test_scanner_agrees_with_the_per_line_parser(lines, last_ended, chunk, undecodable):
    text = "".join(line + end for line, end in lines)
    if lines and not last_ended:
        text = text[: -len(lines[-1][1])]
    data = text.encode("utf-8")
    if undecodable is not None:
        at, byte = undecodable[0] % (len(data) + 1), undecodable[1]
        data = data[:at] + byte + data[at:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw_log.tsv"
        path.write_bytes(data)
        with mock.patch.object(core, "CHUNK_BYTES", chunk):
            assert_parsers_agree(path)


def lexsort_order(groups, events):
    return np.lexsort((events[:, CODE], events[:, RELEASE], events[:, PRESS], groups))


@st.composite
def sortable_rows(draw):
    """(sessions, event rows) with many (session, press) ties, some exact
    duplicates and bad codes, laid out as drawn (shuffled), sorted, sorted
    by (session, press) only, or in order with strictly rising presses.
    Presses 2**61 apart span too much to pack with the session into one
    int64 sort key."""
    n = draw(st.integers(0, 40))

    def column(values):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.int64)

    groups = column(st.integers(0, 3)).astype(np.intp)
    press = column(st.integers(-2, 2)) * draw(st.sampled_from([1, 2**61]))
    events = np.stack(
        [column(st.sampled_from([97, 98, -1, 300])), press, press + column(st.integers(0, 2))],
        axis=1,
    )
    copies = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=6 if n else 0))
    rows = np.array(draw(st.permutations([*range(n), *copies])), dtype=np.intp)
    groups, events = groups[rows], events[rows]
    layout = draw(st.sampled_from(["drawn", "sorted", "grouped", "rising"]))
    if layout == "sorted":
        order = lexsort_order(groups, events)
    elif layout == "grouped":
        order = np.lexsort((events[:, PRESS], groups))
    else:
        order = np.arange(len(groups))
    groups, events = groups[order], events[order]
    if layout == "rising":
        groups = np.sort(groups)
        events[:, PRESS] = np.arange(len(groups))
        events[:, RELEASE] = events[:, PRESS] + 1
    return groups, events


@settings(max_examples=500, deadline=None)
@given(sortable_rows())
def test_event_order_is_the_lexsort_permutation(rows):
    groups, events = rows
    expected = lexsort_order(groups, events)
    order = core._event_order(groups, events)
    if order is None:
        assert np.array_equal(expected, np.arange(len(groups)))
        # Nothing repeats where no sort ran: presses rise within sessions.
        same = groups[1:] == groups[:-1]
        assert np.all(events[1:, PRESS][same] > events[:-1, PRESS][same])
    else:
        assert np.array_equal(order, expected)


@pytest.mark.parametrize("top", [255, 65_535, 65_536, 2**40])
def test_event_order_sorts_ranks_of_every_width(top):
    # Session ranks go straight in, up to `top`: the sort key is then 8, 16,
    # 32 or 64 bits wide, with no need to build that many sessions. Presses
    # near 2**62 take a packed (rank, press) key past int64 on the way.
    rng = np.random.default_rng(top % 1_000)
    for low, span in ((0, 6), (2**62, 2**22)):
        groups = rng.choice([0, 1, top // 2, top - 1, top], 400).astype(np.intp)
        press = low + rng.integers(0, span, 400)
        events = np.stack(
            [rng.integers(97, 99, 400), press, press + rng.integers(0, 2, 400)], axis=1
        )
        assert np.array_equal(core._event_order(groups, events), lexsort_order(groups, events))


def test_event_order_breaks_ties_by_input_row_at_scale():
    # numpy's default argsort is not stable, but where it falls back to
    # introsort, partitions of 16 rows or fewer are insertion-sorted, which
    # is: a missing tie-break by input row may then show only on long runs
    # of rows equal in session and press, exact duplicates among them.
    rng = np.random.default_rng(24)
    n = 60_000
    groups = rng.integers(0, 40, n).astype(np.intp)
    press = rng.integers(0, 300, n)
    events = np.stack([rng.integers(97, 99, n), press, press + rng.integers(0, 2, n)], axis=1)
    copies = rng.integers(0, n, n // 4)
    rows = rng.permutation(np.concatenate([np.arange(n), copies]))
    groups, events = groups[rows], events[rows]
    assert np.array_equal(core._event_order(groups, events), lexsort_order(groups, events))


def test_a_shuffled_log_names_the_second_of_three_equal_lines(tmp_path):
    # Three equal lines, far apart in a shuffled log of more than 16 lines:
    # the sort may bring them together in any order, and the error still
    # names the second of them by its line.
    lines = [f"u{t % 3}\ts{t % 2}\t97\t{t // 6}\t{t // 6 + 9}\n" for t in range(60)]
    random.Random(5).shuffle(lines)
    equal = "u1\ts0\t98\t3\t4\n"
    for at in (7, 30, 52):
        lines.insert(at, equal)
    path = tmp_path / "raw_log.tsv"
    path.write_text("".join(lines))
    assert assert_parsers_agree(path) == ("line 31: duplicate event ('u1', 's0', 98, 3, 4)", 31)


TIE_EVENT = st.tuples(
    st.sampled_from(["u1\ts1", "u1\ts2", "u2\ts1"]),
    st.integers(5, 6),
    st.sampled_from([97, 98]),
    st.integers(0, 2),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(TIE_EVENT, max_size=30), st.booleans())
def test_ties_and_duplicates_parse_as_the_per_line_parser_does(events, in_order):
    # Few distinct (session, press) pairs: long tie runs whose rows differ
    # in release and code, and duplicates inside them; or, in order, one
    # event per (session, press), which needs no sort.
    if in_order:
        events = sorted({(head, press): (head, press, code, hold)
                         for head, press, code, hold in events}.values())
    text = "".join(f"{head}\t{code}\t{press}\t{press + hold}\n"
                   for head, press, code, hold in events)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw_log.tsv"
        path.write_text(text)
        assert_parsers_agree(path)


def test_duplicate_inside_a_tie_run_names_its_line(tmp_path):
    path = tmp_path / "raw_log.tsv"
    path.write_text("".join(f"u1\ts1\t{c}\t{p}\t{r}\n" for c, p, r in [
        (98, 5, 9), (97, 5, 9), (97, 5, 7), (98, 1, 2), (98, 5, 8), (97, 5, 9), (98, 5, 9),
    ]))
    error = assert_parsers_agree(path)
    assert error == ("line 6: duplicate event ('u1', 's1', 97, 5, 9)", 6)


def test_odd_event_fields_read_as_int_reads_them(tmp_path):
    # Each odd spelling in each event column of an otherwise good line, and
    # the 64-bit edges: the bulk path must take only what it converts alike.
    path = tmp_path / "raw_log.tsv"
    good = ["97", "5", "9"]
    odd = ODD_FIELDS + [spelling for value in (0, 7, 10, 97) for spelling in spellings(value)]
    for column in range(3):
        for field in odd:
            fields = good[:column] + [field] + good[column + 1 :]
            path.write_text("u1\ts1\t97\t0\t1\n" + "\t".join(["u1", "s1", *fields]) + "\n",
                            encoding="utf-8")
            assert_parsers_agree(path)


def test_neighbouring_heads_differ_in_any_byte(tmp_path):
    # A head continues the run of the line before only if it has the same
    # length and the same bytes, compared 8 bytes at a time; a trailing NUL
    # byte is a difference too.
    long = "s" * 21
    session_ids = [long, long] + [long[:k] + "t" + long[k + 1 :] for k in (0, 7, 8, 15, 20)]
    session_ids += ["s" * 20 + "\0", "s" * 20 + "\0", "s", "s\0", "s\0\0", "s\0", "s"]
    path = tmp_path / "raw_log.tsv"
    path.write_text(
        "".join(f"u\t{s}\t97\t{t}\t{t}\n" for t, s in enumerate(session_ids)), encoding="utf-8"
    )
    assert assert_parsers_agree(path) is None
    assert load_raw_log(path).session_ids.tolist() == list(dict.fromkeys(session_ids))


def test_long_heads_keep_the_scan_small():
    # Two neighbouring 16 kB heads are compared over their own 2,000 words,
    # not over 2,000 words of every line in the chunk (16 MB here).
    lines = [f"u\ts\t97\t{t}\t{t}\n" for t in range(1_000)]
    lines += [f"{'u' * 16_000}\ts\t97\t{t}\t{t}\n" for t in range(2)]
    tracemalloc.start()
    try:
        dataset = parse_raw_log(io.BytesIO("".join(lines).encode()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dataset.subject_ids.tolist() == ["u", "u" * 16_000]
    assert dataset.event_offsets.tolist() == [0, 1_000, 1_002]
    assert peak < 2_000_000


# Keys for the interner: short and long ones, long ones that share their
# first 16 bytes and differ only in a later word or only in their last
# byte, keys of one length that differ only in their last byte, empty keys,
# NUL bytes and non-ASCII UTF-8.
INTERNED_KEY = st.one_of(
    st.binary(max_size=24),
    st.sampled_from([b"", b"\0", b"\0\0", b"s", b"s\0", "\u00e9:s0".encode(),
                     "u\u4e00".encode()]),
    st.tuples(
        st.sampled_from([b"p" * 16, b"p" * 15 + b"\0"]),
        st.sampled_from(
            [b"", b"\0", b"a", b"b", b"a" * 9, b"a" * 8 + b"z", b"b" + b"a" * 7 + b"z"]
        ),
    ).map(b"".join),
    st.tuples(
        st.sampled_from([0, 7, 8, 15, 16, 17, 23, 24]), st.sampled_from([0, 97, 98, 255])
    ).map(lambda key: b"k" * key[0] + bytes([key[1]])),
)


class RecordingDict(dict):
    """A dict that records the keys asked of it through `setdefault`."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def setdefault(self, key, default=None):
        self.asked.append(key)
        return super().setdefault(key, default)


@pytest.mark.parametrize("constant_mix", [False, True])
@settings(max_examples=300, deadline=None)
@given(
    st.lists(INTERNED_KEY, min_size=1, max_size=8),
    st.sampled_from([(-1,), (-1, 2)]),
    st.lists(st.lists(st.integers(0, 7), max_size=30), max_size=4),
)
def test_interner_agrees_with_a_dict_over_chunks(constant_mix, pool, shape, chunks):
    # Chunks draw their keys from one small pool, so keys repeat within a
    # chunk and in later chunks; the reader's dict and mix map carry them
    # across. Key bounds come as one column or two. Three chunks of the
    # whole pool end the log: a key of at most 16 bytes asked of the dict in
    # a second chunk joins the mix map, and the third chunk finds it there.
    # Longer keys always ask the dict. With a constant mix every key
    # collides with every other, and every mapped key's mix with every key.
    ids, known, expected = RecordingDict(), core._MixMap(), {}

    def constant(keys):
        return np.zeros(keys.shape[1], np.uint64)

    patch = mock.patch.object(core, "_mix", constant) if constant_mix else contextlib.nullcontext()
    with patch:
        for picks in chunks + [list(range(len(pool))) * 2] * 3:
            keys = [pool[i % len(pool)] for i in picks[: len(picks) // 2 * 2]]
            lengths = np.array([len(key) for key in keys], dtype=np.int64)
            starts = np.cumsum(lengths + 1) - lengths - 1  # one byte between keys
            chunk = b"".join(key + b"|" for key in keys)
            buf = np.frombuffer(chunk + core._WORD_PAD, dtype=np.uint8)
            starts, lengths = starts.reshape(shape), lengths.reshape(shape)
            asked = len(ids.asked)
            found = core._intern(chunk, buf, starts, starts + lengths, ids, known)
            assert found.shape == starts.shape
            assert found.ravel().tolist() == [expected.setdefault(key, len(expected)) for key in keys]
            assert list(ids) == list(expected)
    by_id = list(expected)
    assert all(len(by_id[i]) <= 16 for i in known.by_mix.values())
    if not constant_mix:
        assert set(ids.asked[asked:]) == {key for key in pool if len(key) > 16}


# A byte that is not a digit in place of one: the neighbours of b"0" and
# b"9", NUL, bytes that carry out of their byte when 6 is added, and a
# (two-byte) Arabic-Indic digit, which int() reads.
NON_DIGITS = [
    b"/", b":", b"\0", *(bytes([byte]) for byte in range(0xFA, 0x100)), "\u0663".encode()
]


@st.composite
def integer_fields(draw, digits=None):
    """A field of 1 to 20 characters: an optional minus and `digits` digits
    (any number, by default), with at times one byte swapped for a
    non-digit."""
    negative = draw(st.booleans())
    if digits is None:
        digits = draw(st.integers(1 - negative, 20 - negative))
    text = draw(st.text(string.digits, min_size=digits, max_size=digits))
    field = b"-" * negative + text.encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(field) - 1))
        field = field[:at] + draw(st.sampled_from(NON_DIGITS)) + field[at + 1 :]
    return field


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.lists(integer_fields(), min_size=1, max_size=12),
        # One number of digits: a column of one width converts as a whole.
        st.integers(1, 19).flatmap(
            lambda digits: st.lists(integer_fields(digits), min_size=1, max_size=12)
        ),
    ),
    st.sampled_from([b"", b"\t", b"\xff"]),
)
def test_bulk_integers_agree_with_int(tokens, separator):
    # The first token starts at the chunk's first byte and the last ends
    # against its padding.
    chunk = separator.join(tokens)
    buf = np.frombuffer(chunk + core._WORD_PAD, dtype=np.uint8)
    lengths = np.array([len(token) for token in tokens])
    starts = np.cumsum(lengths + len(separator)) - lengths - len(separator)
    values, bulk = core._bulk_integers(buf, starts, starts + lengths)
    expected = [re.fullmatch(rb"-?[0-9]{1,18}", token) is not None for token in tokens]
    assert bulk.tolist() == expected
    assert values[bulk].tolist() == [int(token) for token, ok in zip(tokens, expected) if ok]


@pytest.mark.parametrize("chunk, prefix", [
    pytest.param(chunk, prefix, id=f"{chunk}{label}")
    for label, prefix in (("", ""), ("-long-heads", "a-subject-id-prefix-of-26-"))
    for chunk in (64, 4096)
])
def test_a_shuffled_log_reads_alike_over_many_chunks(chunk, prefix, tmp_path):
    # Almost every line of a shuffled log holds a head other than the line
    # before's, so the interner finds each head by sorting the chunk's
    # heads. A prefix makes every head share its first 16 bytes with every
    # other, so heads of one length share a mix and are told apart from
    # their run's leader word by word past those bytes. The sessions
    # are those of the log in synth order.
    ordered, shuffled = tmp_path / "ordered.tsv", tmp_path / "shuffled.tsv"
    write_raw_log(generate(GeneratorConfig(n_subjects=6, seed=3, keys_per_session=6)), ordered)
    lines = [prefix + line for line in ordered.read_text().splitlines(keepends=True)]
    ordered.write_text("".join(lines))
    random.Random(3).shuffle(lines)
    shuffled.write_text("".join(lines))
    with mock.patch.object(core, "CHUNK_BYTES", chunk):
        assert assert_parsers_agree(shuffled) is None
        dataset, expected = load_raw_log(shuffled), load_raw_log(ordered)

    def sessions(dataset):
        bounds = dataset.event_offsets.tolist()
        return {
            key: dataset.events[start:stop].tolist()
            for key, start, stop in zip(dataset.session_keys(), bounds, bounds[1:])
        }

    assert sessions(dataset) == sessions(expected)
    assert dataset.session_keys() != expected.session_keys()
    assert all(subject_id.startswith(prefix) for subject_id in dataset.subject_ids.tolist())


@pytest.mark.parametrize("bad, message", [
    ("u1\ts1\t97\t0\n", "expected 5 tab-separated fields, got 4"),
    ("u1\ts1\t97\tx\t80\n", "non-integer event field in ['97', 'x', '80']"),
    ("u1\ts1\t97\t0\t" + str(2**64) + "\n", "event field outside 64 bits"),
    ("u1\ts1\t300\t0\t80\n", "key code 300 outside [0, 255]"),
    ("u1\ts1\t97\t10\t15\n", "duplicate event ('u1', 's1', 97, 10, 15)"),
])
def test_bad_line_around_a_chunk_boundary(bad, message, tmp_path):
    # Good lines of 15 bytes; the bad line (line 5) starts at byte 60. A
    # read of 56-65 bytes ends just before, on or just after its start.
    good = [f"u1\ts1\t97\t{t}\t{t + 5}\n" for t in range(10, 20)]
    path = tmp_path / "raw_log.tsv"
    path.write_text("".join(good[:4] + [bad] + good[4:]), encoding="utf-8")
    for chunk in range(56, 66):
        with mock.patch.object(core, "CHUNK_BYTES", chunk):
            assert assert_parsers_agree(path)[0].startswith(f"line 5: {message}")


@pytest.mark.parametrize("bad, message", [
    ("u1\ts1\t97\t0\n", "line 3: expected 5 tab-separated fields, got 4"),
    ("u1\ts1\t97\tx\t80\n", "line 3: non-integer event field in ['97', 'x', '80']"),
    ("u1\ts1\t300\t0\t80\n", "line 3: key code 300 outside [0, 255]"),
    ("u1\ts1\t97\t0\t5\n", "line 3: duplicate event ('u1', 's1', 97, 0, 5)"),
    ("u1\ts1\t97\t0\t" + str(2**64) + "\n", "line 3: event field outside 64 bits"),
    ("u1\ts1\t97\t9\t7\n", "line 3: release 7 precedes press 9"),
    ("u1\ts1\t97\t7\t9\n", "raw_log.tsv is not UTF-8 text (invalid start byte)"),
])
def test_a_bad_line_before_a_byte_that_is_not_utf8_wins(bad, message, tmp_path):
    # Line 3 comes before the \xff at byte 100,000, in the same chunk or,
    # with small chunks, in an earlier one; only a good line 3 lets the
    # decode error through.
    good = [f"u1\ts1\t97\t{t}\t{t + 5}\n" for t in range(0, 20_000, 2)]
    data = "".join(good[:2] + [bad] + good[2:]).encode()
    assert 100_000 < min(len(data), core.CHUNK_BYTES)
    path = tmp_path / "raw_log.tsv"
    path.write_bytes(data[:100_000] + b"\xff" + data[100_000:])
    for chunk in (core.CHUNK_BYTES, 64):
        with mock.patch.object(core, "CHUNK_BYTES", chunk):
            assert message in assert_parsers_agree(path)[0]


@pytest.mark.parametrize("chunk", [8, 64, core.CHUNK_BYTES])
def test_a_stream_that_is_not_utf8_raises_parse_error(chunk):
    # The chunk reader names a stream without a name by a placeholder; the
    # decode error itself never reaches the caller.
    data = b"u1\ts1\t97\t0\t5\nu1\ts1\t98\t9\t\xff\n"
    with mock.patch.object(core, "CHUNK_BYTES", chunk):
        with pytest.raises(ParseError) as info:
            parse_raw_log(io.BytesIO(data))
    assert str(info.value) == "<stream> is not UTF-8 text (invalid start byte)"
    assert info.value.line_number is None


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_line_ends_read_as_in_text_mode(end, tmp_path):
    path = tmp_path / "raw_log.tsv"
    path.write_bytes(f"u1\ts1\t97\t0\t80{end}{end}u1\ts1\t98\tq\t9{end}".encode())
    for chunk in (1, 2, 17, core.CHUNK_BYTES):
        with mock.patch.object(core, "CHUNK_BYTES", chunk):
            assert assert_parsers_agree(path) == (
                "line 3: non-integer event field in ['98', 'q', '9']", 3
            )


def test_scanner_working_memory_is_a_few_chunks():
    # A log of several chunks: beyond the returned block, the parser holds
    # its typed buffers, the sort and a chunk's worth of scan arrays (1.8
    # times block + chunk here), not the whole file's bytes and per-line
    # arrays (9.3 times, read as one chunk). The shuffled block is sorted in
    # place, so no second copy of it counts.
    rng = np.random.default_rng(4)
    n = 120_000
    press = (1_600_000_000_000 + rng.integers(0, 10**9, n)).tolist()
    text = "".join(
        f"u{a:03d}\ts{b:02d}\t{code}\t{p}\t{p + 90}\n"
        for a, b, code, p in zip(
            rng.integers(0, 50, n).tolist(), rng.integers(0, 15, n).tolist(),
            rng.integers(0, 256, n).tolist(), press,
        )
    )
    data = text.encode()
    assert len(data) > 4 * core.CHUNK_BYTES
    tracemalloc.start()
    try:
        dataset = parse_raw_log(io.BytesIO(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = dataset.events.nbytes
    assert peak - block <= 2 * (block + core.CHUNK_BYTES)
