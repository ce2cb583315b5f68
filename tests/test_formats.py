from __future__ import annotations

import itertools
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdbench import core, formats

from kdbench.core import (
    AgeGroup,
    Dataset,
    Demographics,
    Gender,
    Session,
    Subject,
    attach_demographics,
)
from kdbench.errors import AlignmentError, ConfigError, ParseError
from kdbench.fairmetrics import sir
from kdbench.formats import (
    STRICT_HEADER_PREFIX,
    load_comparisons,
    load_demographics,
    load_raw_log,
    load_scores,
    sha256_file,
    verify_strict_digest,
    write_comparisons,
    write_demographics,
    write_det_csv,
    write_raw_log,
    write_scores,
    write_sir_csv,
)
from kdbench.protocol import ComparisonPlan, build_comparison_plan
from kdbench.synthgen import GeneratorConfig, generate
from kdbench.verifmetrics import roc

from oracles import (
    load_comparisons_per_line,
    load_scores_per_line,
    plan_of_rows,
    raw_log_lines,
    write_comparisons_per_token,
)
from test_fairmetrics import sir_entries_from_matrix, without_female_to_male


def load_det_csv(path):
    """Returns (thresholds, fmr, fnmr) of a det.csv file."""
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.readline() == "threshold,fmr,fnmr\n"
        rows = [[float(v) for v in line.rstrip("\n").split(",")] for line in fh]
    thresholds, fmr, fnmr = np.array(rows).reshape(-1, 3).T
    return thresholds, fmr, fnmr


def load_sir_csv(path):
    """Returns (labels, values, missing mask) of a SIR matrix file."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        labels = tuple(header[1:])
        rows = [line.rstrip("\n").split(",") for line in fh]
    assert [row[0] for row in rows] == list(labels)
    assert all(len(row) == len(labels) + 1 for row in rows)
    missing = np.array([[cell == "" for cell in row[1:]] for row in rows])
    values = np.array([[float(cell or 0.0) for cell in row[1:]] for row in rows])
    return labels, values, missing


@pytest.fixture
def dataset():
    # Seed chosen so every demographic group holds at least two subjects,
    # satisfying the comparison-plan preconditions.
    return generate(GeneratorConfig(n_subjects=48, seed=31, keys_per_session=6))


def test_raw_log_round_trip(tmp_path, dataset):
    path = tmp_path / "raw.tsv"
    write_raw_log(dataset, path)
    parsed = attach_demographics(
        load_raw_log(path), dict(zip(dataset.subject_ids, dataset.demographics))
    )
    assert parsed == dataset


def test_demographics_round_trip(tmp_path, dataset):
    path = tmp_path / "demo.tsv"
    write_demographics(dataset, path)
    mapping = load_demographics(path)
    assert mapping == {s.subject_id: s.demographics for s in dataset.subjects}


def test_demographics_bad_gender(tmp_path):
    path = tmp_path / "demo.tsv"
    path.write_text("u1\t18-26\tX\n")
    with pytest.raises(ParseError, match="gender"):
        load_demographics(path)


def test_demographics_bad_age_group(tmp_path):
    path = tmp_path / "demo.tsv"
    path.write_text("u1\t18-25\tM\n")
    with pytest.raises(ParseError, match="age group"):
        load_demographics(path)


def test_demographics_conflicting_lines(tmp_path):
    path = tmp_path / "demo.tsv"
    path.write_text("u1\t18-26\tF\nu2\t18-26\tM\nu1\t18-26\tF\nu1\t18-26\tM\n")
    with pytest.raises(ParseError, match="^line 4: conflicting demographics for subject 'u1'"):
        load_demographics(path)


def test_comparisons_round_trip(tmp_path, dataset):
    plan = build_comparison_plan(dataset, seed=5)
    path = tmp_path / "comparisons.txt"
    write_comparisons(plan, path)
    assert load_comparisons(path) == plan


def test_comparisons_line_shape(tmp_path, dataset):
    plan = build_comparison_plan(dataset, seed=5)
    path = tmp_path / "comparisons.txt"
    write_comparisons(plan, path)
    first = path.read_text().splitlines()[0].split("\t")
    assert len(first) == 4
    assert ":" in first[0] and ":" in first[1]
    assert first[2] in {"G", "S", "D"}
    assert first[3].isdigit()


def _read_both(path):
    """(plan, None) from both comparison loaders, or (None, (message, line))
    of the ParseError each raised."""
    outcomes = []
    for load in (load_comparisons, load_comparisons_per_line):
        try:
            outcomes.append((load(path), None))
        except ParseError as exc:
            outcomes.append((None, (str(exc), exc.line_number)))
    return outcomes


def assert_loaders_agree(path):
    (plan, error), (rows, expected_error) = _read_both(path)
    assert error == expected_error
    if rows is not None:
        expected = plan_of_rows(rows)
        assert plan.sessions == expected.sessions
        for name in ("enrol", "verif", "kind", "slot"):
            assert np.array_equal(getattr(plan, name), getattr(expected, name)), name
    return error


# Keys with a colon in the session, non-ASCII ids, and keys of one length
# that differ only in their second or third 8 bytes.
GOOD_PAIRS = [
    "a:s0", "a:s1", "b:s0", "b:s1:x", "c:s2", "\u00e9:s0", "a:\u4e00",
    "subject_long:s00", "subject_long:s01", "subject_longer:s00", "subject_longer:s01",
]
GOOD_SLOTS = ["0", "3", " 3", "+3", "9", "10", "-1", "03", "3_0", "-42", "\u0663"]
KIND = st.sampled_from(["G", "S", "D"])
GOOD_LINE = st.tuples(
    st.sampled_from(GOOD_PAIRS), st.sampled_from(GOOD_PAIRS), KIND, st.sampled_from(GOOD_SLOTS),
).map("\t".join)
FIELD = st.one_of(st.sampled_from(GOOD_PAIRS + ["a", "", "b:"]), st.text("ab:s0 ", max_size=4))
ANY_LINE = st.one_of(
    st.tuples(
        FIELD, FIELD, st.sampled_from(["G", "S", "D", "X", "g", "", "GG", "\u00c9"]),
        st.sampled_from(GOOD_SLOTS + ["x", "3.0", "", "1e2", "-"]),
    ).map("\t".join),
    st.lists(FIELD, max_size=6).map("\t".join),  # any field count, blank lines too
)
ENDING = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def plan_lines(draw):
    """Good lines, and slots shaped as in a plan: five lines whose
    enrolment keys cycle through one drawn five, with one verification key;
    so keys repeat at lags 5 and 1, and at other lags. Each line comes with
    its line end."""
    cycle = draw(st.lists(st.sampled_from(GOOD_PAIRS), min_size=5, max_size=5))
    slot = st.tuples(st.sampled_from(GOOD_PAIRS), KIND, st.sampled_from(GOOD_SLOTS)).map(
        lambda rest: [f"{enrol}\t{chr(9).join(rest)}" for enrol in cycle]
    )
    blocks = draw(st.lists(st.one_of(GOOD_LINE.map(lambda line: [line]), slot), max_size=5))
    return [(line, draw(ENDING)) for block in blocks for line in block]


@settings(max_examples=300, deadline=None)
@given(
    plan_lines(),
    st.lists(st.tuples(st.integers(0, 25), ANY_LINE, ENDING), max_size=2),
    st.booleans(),
    st.sampled_from([1, 5, 16, core.CHUNK_BYTES]),
)
def test_chunked_loader_agrees_with_the_per_line_loader(lines, inserts, last_ended, chunk):
    for at, line, ending in inserts:
        lines.insert(at, (line, ending))
    text = "".join(line + ending for line, ending in lines)
    if lines and not last_ended:
        text = text[: -len(lines[-1][1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "comparisons.txt"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(core, "CHUNK_BYTES", chunk):
            assert_loaders_agree(path)


def test_bad_line_after_the_first_read_chunk(tmp_path):
    # Plan-shaped lines: per slot, five enrolment keys that cycle and one
    # verification key, with non-ASCII ids and sessions holding a colon.
    # The first chunk ends inside a cycle.
    good = "".join(
        f"\u00fc{i // 150}:s{i % 5}\tv{i // 5 % 89}\u00e9:s1:x\tS\t{i // 5 % 10}\n"
        for i in range(30_000)
    )
    assert good.encode()[: core.CHUNK_BYTES].count(b"\n") % 5 != 0
    path = tmp_path / "comparisons.txt"
    path.write_text(good + "\n" + good, encoding="utf-8")
    assert assert_loaders_agree(path) is None
    for bad, message in (
        ("u1:s1\tu2\tS\t0\n", "malformed subject:session pair"),
        # The first of two keys without a colon names the line.
        ("u1\tu2:s1\tS\t0\nu3\tu2:s1\tS\t0\n", "malformed subject:session pair"),
        ("u1:s1\tu2:s1\tS\t0\t\n", "expected 4 tab-separated fields, got 5"),
        ("u1:s1\tu2:s1\tS\tx\n", "non-integer slot 'x'"),
        ("u1:s1\tu2:s1\t\u00c9\t0\n", "unknown comparison kind '\u00c9'"),
    ):
        path.write_text(good + "\n" + bad + good, encoding="utf-8")
        assert assert_loaders_agree(path) == (f"line 30002: {message}", 30_002)


def test_keys_that_differ_in_their_last_byte_are_told_apart(tmp_path):
    # For key lengths across several 8-byte words, keys that differ only in
    # their last byte sit a line or a few apart in each column.
    path = tmp_path / "comparisons.txt"
    path.write_text("".join(
        f"{'u' * width}:{i % 5 + i // 5 % 2}\t{'v' * width}:{i // 2 % 2}\tS\t0\n"
        for width in range(1, 40)
        for i in range(10)
    ))
    assert assert_loaders_agree(path) is None


@pytest.mark.parametrize("chunk", [64, 4096])
def test_a_permuted_plan_reads_alike_over_many_chunks(chunk, tmp_path):
    # In a permuted plan keys recur in any order, many of them a chunk or
    # more later, where only the reader's dict knows them.
    plan = build_comparison_plan(
        generate(GeneratorConfig(n_subjects=48, seed=31, keys_per_session=1)), seed=1
    )
    path = tmp_path / "comparisons.txt"
    write_comparisons(plan, path)
    lines = path.read_text().splitlines(keepends=True)
    np.random.default_rng(2).shuffle(lines)
    path.write_text("".join(lines))
    with mock.patch.object(core, "CHUNK_BYTES", chunk):
        assert assert_loaders_agree(path) is None


IDENTIFIER = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r:"),
    min_size=1, max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(IDENTIFIER, IDENTIFIER), min_size=1, max_size=6, unique=True),
    st.lists(
        st.tuples(
            st.integers(0, 5), st.integers(0, 5), st.integers(0, 2),
            st.one_of(st.integers(-12, 12), st.integers(-(2**63), 2**63 - 1)),
        ),
        max_size=40,
    ),
    st.sampled_from([1, 64, core.CHUNK_BYTES]),
)
def test_byte_matrix_writer_agrees_with_the_per_token_writer(sessions, rows, chunk):
    columns = np.array(rows, dtype=object).reshape(-1, 4).T
    enrol, verif = (columns[i].astype(np.intp) % len(sessions) for i in (0, 1))
    plan = ComparisonPlan(
        tuple(sessions), enrol, verif, columns[2].astype(np.int8), columns[3].astype(np.int64)
    )
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.txt", Path(tmp) / "theirs.txt"
        with mock.patch.object(formats, "CHUNK_BYTES", chunk):
            write_comparisons(plan, ours)
        write_comparisons_per_token(plan, theirs)
        assert ours.read_bytes() == theirs.read_bytes()
        assert load_comparisons(ours) == plan


# Any int64, or one at the edges of the raw-log writer's digit parts
# (10**8 and 10**16), of its sign and of int64.
TIMES = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from(sorted({
        sign * (base + step)
        for base in (0, 10**8, 10**16) for step in (-1, 0, 1) for sign in (1, -1)
    } | {-(2**63), 2**63 - 1})),
)
CODES = st.one_of(st.sampled_from([0, 9, 10, 99, 100, 255]), st.integers(0, 255))


@st.composite
def raw_log_datasets(draw):
    """Datasets of 0-4 subjects, each of 0-3 sessions of 0-4 events, with
    non-ASCII identifiers of different lengths and any int64 times."""
    subject_ids = draw(st.lists(IDENTIFIER, max_size=4, unique=True))
    counts = [draw(st.integers(0, 3)) for _ in subject_ids]
    session_ids, event_counts, events = [], [], []
    for count in counts:
        session_ids += draw(st.lists(IDENTIFIER, min_size=count, max_size=count, unique=True))
        for _ in range(count):
            presses = sorted(draw(st.lists(TIMES, max_size=4)))
            events += [(draw(CODES), press, max(press, draw(TIMES))) for press in presses]
            event_counts.append(len(presses))
    return Dataset(
        subject_ids=subject_ids,
        demographics=[None] * len(subject_ids),
        session_offsets=np.concatenate([[0], np.cumsum(counts, dtype=np.intp)]),
        session_ids=session_ids,
        event_offsets=np.concatenate([[0], np.cumsum(event_counts, dtype=np.intp)]),
        events=np.array(events, dtype=np.int64).reshape(-1, 3),
    )


@settings(max_examples=300, deadline=None)
@given(raw_log_datasets(), st.integers(1, 3))
def test_block_raw_log_writer_agrees_with_the_per_event_writer(dataset, block):
    # Once with blocks of `CHUNK_BYTES`, once with blocks of 1-3 events,
    # which straddle sessions.
    expected = "".join(raw_log_lines(dataset)).encode()
    head = max((len(f"{s}\t{t}".encode()) for s, t in dataset.session_keys()), default=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.tsv"
        write_raw_log(dataset, path)
        assert path.read_bytes() == expected
        chunk = block * (head + formats._EVENT_BYTES)
        with mock.patch.object(formats, "CHUNK_BYTES", chunk):
            write_raw_log(dataset, path)
        assert path.read_bytes() == expected


def test_raw_log_writer_memory_does_not_grow_with_the_log(tmp_path):
    # The writer holds one block of about `CHUNK_BYTES` of text (its byte
    # matrix, keep-mask and kept bytes) and per-session heads, whatever the
    # count of events. Ten times the events may cost at most one more block's
    # text: a writer holding a byte per event of the whole log would exceed
    # that by the 1.3M events added.
    def peak(keys):
        dataset = generate(GeneratorConfig(n_subjects=200, seed=5, keys_per_session=keys))
        tracemalloc.start()
        try:
            write_raw_log(dataset, tmp_path / "raw.tsv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(480) <= peak(48) + formats.CHUNK_BYTES


def test_comparisons_reject_a_slot_beyond_64_bits(tmp_path):
    path = tmp_path / "comparisons.txt"
    path.write_text("a:s1\tb:s2\tS\t0\na:s1\tb:s2\tS\t99999999999999999999\n")
    with pytest.raises(ParseError, match="^line 2: slot '99999999999999999999' outside 64 bits"):
        load_comparisons(path)


def test_comparisons_reject_bad_kind(tmp_path):
    path = tmp_path / "comparisons.txt"
    path.write_text("a:s1\tb:s2\tX\t0\n")
    with pytest.raises(ParseError, match="kind"):
        load_comparisons(path)


def test_scores_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    scores = rng.uniform(0, 1, 100)
    path = tmp_path / "scores.txt"
    write_scores(scores.tolist(), path)
    loaded, digest = load_scores(path)
    assert digest is None
    assert np.array_equal(loaded, scores)


def test_scores_strict_header(tmp_path):
    comparisons = tmp_path / "comparisons.txt"
    comparisons.write_text("a:s1\tb:s2\tG\t0\n")
    digest = sha256_file(comparisons)
    path = tmp_path / "scores.txt"
    write_scores([0.5], path, comparisons_digest=digest)
    loaded, found = load_scores(path)
    assert found == digest
    verify_strict_digest(found, comparisons)
    comparisons.write_text("a:s1\tb:s2\tG\t1\n")
    with pytest.raises(AlignmentError, match="different comparison file"):
        verify_strict_digest(found, comparisons)


def test_scores_reject_garbage(tmp_path):
    path = tmp_path / "scores.txt"
    path.write_text("0.5\nabc\n")
    with pytest.raises(ParseError, match="line 2"):
        load_scores(path)


def _scores_both(path):
    """(scores bytes, digest) from both score readers, or the (message,
    line) of the ParseError each raised."""
    outcomes = []
    for load in (load_scores, load_scores_per_line):
        try:
            scores, digest = load(path)
            outcomes.append((scores.dtype, scores.tobytes(), digest))
        except ParseError as exc:
            outcomes.append((str(exc), exc.line_number))
    return outcomes


SCORE_LINE = st.one_of(
    st.floats(allow_nan=True).map(repr),
    st.sampled_from([
        "", " 0.5", "0.5 ", "+1", "1_0", "1e999", "-inf", "NaN", "\u0661.5", "0x1",
        "abc", "0.5.5", STRICT_HEADER_PREFIX + "ab12", STRICT_HEADER_PREFIX,
    ]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(SCORE_LINE, ENDING), max_size=12),
    st.booleans(),
    st.sampled_from([1, 5, 16, core.CHUNK_BYTES]),
)
def test_chunked_score_reader_agrees_with_the_per_line_reader(lines, last_ended, chunk):
    text = "".join(line + ending for line, ending in lines)
    if lines and not last_ended:
        text = text[: -len(lines[-1][1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.txt"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(core, "CHUNK_BYTES", chunk):
            chunked, per_line = _scores_both(path)
    assert chunked == per_line


def test_bad_score_after_the_first_read_chunk(tmp_path):
    good = "".join(f"{i / 7_000!r}\n" for i in range(40_000))
    assert len(good) > core.CHUNK_BYTES
    path = tmp_path / "scores.txt"
    for bad, message in (
        ("x\n", "non-numeric score 'x'"),
        (STRICT_HEADER_PREFIX + "00\n", "strict header must be the first line"),
    ):
        path.write_text(STRICT_HEADER_PREFIX + "ab\n" + good + "\n" + bad + good)
        chunked, per_line = _scores_both(path)
        assert chunked == per_line == (f"line 40003: {message}", 40_003)


# Each chunked reader with a good line (of its index), a bad line and the
# bad line's message.
CHUNKED_READERS = [
    (load_raw_log, "raw_log.tsv", "u1\ts1\t97\t{0}0\t{0}5\n", "u1\ts1\t97\tx\t5\n",
     "non-integer event field in ['97', 'x', '5']"),
    (load_demographics, "demographics.tsv", "u{0}\t18-26\tM\n", "u99\t18-26\tX\n",
     "unknown gender 'X'"),
    (load_comparisons, "comparisons.txt", "u{0}:s1\tv1:s2\tG\t{0}\n", "u1:s1\tv1:s2\tQ\t0\n",
     "unknown comparison kind 'Q'"),
    (load_scores, "scores.txt", "0.{0}\n", "abc\n", "non-numeric score 'abc'"),
]


@pytest.mark.parametrize(
    "load, name, good, bad, message", CHUNKED_READERS, ids=[r[1] for r in CHUNKED_READERS]
)
def test_a_line_that_is_not_utf8_in_a_later_chunk(load, name, good, bad, message, tmp_path):
    # The first chunk is exactly the first ten lines; the second holds two
    # good lines, line 13 and the line that is not UTF-8, and is cut before
    # that line. A bad line 13 wins; a good one lets the decode error through.
    first = "".join(good.format(i) for i in range(10, 20)).encode()
    path = tmp_path / name
    for line_13, expected in ((bad, f"line 13: {message}"),
                              (good.format(22), f"{path} is not UTF-8 text (invalid start byte)")):
        rest = "".join(good.format(i) for i in (20, 21)) + line_13
        path.write_bytes(first + rest.encode() + b"\xff\n" + good.format(23).encode())
        with mock.patch.object(core, "CHUNK_BYTES", len(first)):
            with open(path, "rb") as fh:
                chunks = list(itertools.islice(core._line_chunks(fh), 2))
            assert chunks == [(0, first), (10, rest.encode())]
            with pytest.raises(ParseError) as info:
                load(path)
        assert str(info.value) == expected


def test_det_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    curve = roc(rng.uniform(0, 1, 50), rng.uniform(0, 1, 80))
    path = tmp_path / "det.csv"
    write_det_csv(curve.thresholds, curve.fmr, curve.fnmr, path)
    thresholds, fmr, fnmr = load_det_csv(path)
    assert np.array_equal(thresholds, curve.thresholds)
    assert np.array_equal(fmr, curve.fmr)
    assert np.array_equal(fnmr, curve.fnmr)


def test_det_csv_fmr_column_non_increasing(tmp_path):
    rng = np.random.default_rng(3)
    curve = roc(rng.uniform(0, 1, 50), rng.uniform(0, 1, 80))
    path = tmp_path / "det.csv"
    write_det_csv(curve.thresholds, curve.fmr, curve.fnmr, path)
    fmr = [float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]
    assert all(a >= b for a, b in zip(fmr, fmr[1:]))


def test_sir_csv_round_trip(tmp_path):
    matrix, _ = sir(sir_entries_from_matrix([[0.5, 0.3], [0.2, 0.6]]), "gender")
    path = tmp_path / "sir_gender.csv"
    write_sir_csv(matrix.labels, matrix.values, matrix.missing, path)
    labels, values, missing = load_sir_csv(path)
    assert labels == matrix.labels
    assert np.array_equal(values, matrix.values)
    assert not missing.any()


def test_sir_csv_missing_cells(tmp_path):
    entries = without_female_to_male(sir_entries_from_matrix([[0.5, 0.3], [0.2, 0.6]]))
    matrix, _ = sir(entries, "gender")
    assert matrix.missing_cells == [["F", "M"]]
    path = tmp_path / "sir_gender.csv"
    write_sir_csv(matrix.labels, matrix.values, matrix.missing, path)
    _, values, missing = load_sir_csv(path)
    assert missing[1, 0]
    assert not missing[0, 0]


def test_identifier_validation(tmp_path, dataset):
    bad = Dataset.of(
        (
            Subject(
                "u:1",
                Demographics(AgeGroup.A10_13, Gender.MALE),
                (Session("s0", [(97, 0, 10)]),),
            ),
        )
    )
    with pytest.raises(ConfigError, match="colon"):
        write_raw_log(bad, tmp_path / "x.tsv")


@pytest.mark.parametrize("write", [write_raw_log, write_demographics])
def test_bad_identifier_leaves_no_file(tmp_path, write):
    # The bad id comes second: a writer that checked while writing would
    # already have written the first subject's line.
    demo = Demographics(AgeGroup.A10_13, Gender.MALE)
    ds = Dataset.of(
        Subject(sid, demo, (Session("s0", [(97, 0, 10)]),)) for sid in ("u1", "u:2")
    )
    with pytest.raises(ConfigError, match="'u:2' is empty or contains tab/newline/colon"):
        write(ds, tmp_path / "out.tsv")
    assert not (tmp_path / "out.tsv").exists()


@pytest.mark.parametrize("write", [write_raw_log, write_demographics, write_comparisons])
def test_identifier_with_a_carriage_return_rejected(tmp_path, write):
    # The readers take a lone \r as a line end, so such a file would not
    # read back.
    if write is write_comparisons:
        written = ComparisonPlan((("u\r1", "s0"),), [0], [0], [0], [0])
    else:
        demo = Demographics(AgeGroup.A10_13, Gender.MALE)
        written = Dataset.of([Subject("u\r1", demo, (Session("s0", [(97, 0, 10)]),))])
    with pytest.raises(ConfigError, match=r"'u\\r1' is empty or contains tab/newline/colon"):
        write(written, tmp_path / "out.txt")
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("write", [write_raw_log, write_demographics, write_comparisons])
def test_identifier_utf8_cannot_encode_rejected(tmp_path, write):
    # A lone surrogate has no UTF-8 encoding. The bad id comes second, so a
    # writer that failed while writing would leave the first line behind.
    if write is write_comparisons:
        written = ComparisonPlan((("a", "s1"), ("u\udc80", "s0")), [0, 1], [1, 0], [0, 0], [0, 0])
    else:
        demo = Demographics(AgeGroup.A10_13, Gender.MALE)
        written = Dataset.of(
            Subject(sid, demo, (Session("s1", [(65, 1, 2)]),)) for sid in ("a", "u\udc80")
        )
    with pytest.raises(ConfigError, match=r"'u\\udc80' holds a lone surrogate"):
        write(written, tmp_path / "out.txt")
    assert not (tmp_path / "out.txt").exists()
