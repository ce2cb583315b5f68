"""Domain data model, raw keystroke log parsing, and dataset validation.

A raw log is a stream of press/release events with millisecond Unix
timestamps. Events are grouped into sessions, sessions into subjects, and
subjects (optionally annotated with age group and gender) into a dataset
that the protocol and feature stages consume. A dataset is columns: one
(N, 3) int64 block of (code, press, release) rows, offsets that cut it
into sessions and sessions into subjects, and id and demographics
columns. `Subject` and `Session` are views a dataset builds on request.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, fields
from enum import Enum
from itertools import repeat
from typing import BinaryIO, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ParseError


class AgeGroup(Enum):
    """The six age bins used for demographic grouping."""

    A10_13 = "10-13"
    A14_17 = "14-17"
    A18_26 = "18-26"
    A27_35 = "27-35"
    A36_44 = "36-44"
    A45_79 = "45-79"


class Gender(Enum):
    MALE = "M"
    FEMALE = "F"


@dataclass(frozen=True, slots=True)
class Demographics:
    age_group: AgeGroup
    gender: Gender

    def label(self) -> str:
        return f"{self.age_group.value}/{self.gender.value}"


# Canonical ordering of the 12 (age, gender) groups. Group-indexed
# configuration (generator weights, fairness tables) follows this order.
ALL_GROUPS: tuple[Demographics, ...] = tuple(
    Demographics(age, gender) for age in AgeGroup for gender in Gender
)
# Each group's index into ALL_GROUPS: age bin x 2 + gender (MALE 0, FEMALE 1).
GROUP_INDEX: dict[Demographics, int] = {group: i for i, group in enumerate(ALL_GROUPS)}


# Column layout of the event block: one int64 row per key event.
CODE, PRESS, RELEASE = 0, 1, 2
_EVENT_COLUMNS = 3


def _event_problem(code: int, press: int, release: int) -> str | None:
    if not 0 <= code <= 255:
        return f"key code {code} outside [0, 255]"
    if release < press:
        return f"release {release} precedes press {press}"
    return None


def _first_bad_row(events: np.ndarray) -> int | None:
    """Index of the first row with a code outside [0, 255] or a release
    before its press, or None."""
    bad = (
        (events[:, CODE] < 0) | (events[:, CODE] > 255)
        | (events[:, RELEASE] < events[:, PRESS])
    )
    return int(bad.argmax()) if bad.any() else None


class Session(NamedTuple):
    """A view of one session: its id and its (n, 3) event rows in press order."""

    session_id: str
    events: np.ndarray


class Subject(NamedTuple):
    """A view of one subject and its sessions."""

    subject_id: str
    demographics: Demographics | None
    sessions: tuple[Session, ...]


def _offsets(counts: Sequence[int] | np.ndarray) -> np.ndarray:
    """Offsets of consecutive groups of `counts` rows."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.intp)])


def _ranges(offsets: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """The rows of `groups` under `offsets`, group after group."""
    starts, firsts = offsets[groups], _offsets(np.diff(offsets)[groups])
    return np.repeat(starts - firsts[:-1], np.diff(firsts)) + np.arange(firsts[-1])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Subjects, their sessions and the sessions' key events, as columns.

    Subject i has `subject_ids[i]`, `demographics[i]` (None when
    unlabeled) and the sessions `session_offsets[i]` up to
    `session_offsets[i + 1]`. Session j has `session_ids[j]` and the rows
    `event_offsets[j]` up to `event_offsets[j + 1]` of `events`, one
    (N, 3) int64 block of (code, press_ms, release_ms) rows with Unix
    epoch millisecond times. The arrays given are made read-only.

    Construction checks the whole dataset once: the offsets are
    consistent, codes fit [0, 255], no key is released before it is
    pressed, press times never decrease within a session, and subject ids
    and (subject, session) keys are unique. A session may be empty, for
    `eligibility_issues` to report. Builders that hold these invariants
    themselves (`parse_raw_log`, `attach_demographics`, and `select` of
    distinct subjects) go through `_trusted` and are not checked again.
    """

    subject_ids: np.ndarray
    demographics: np.ndarray
    session_offsets: np.ndarray
    session_ids: np.ndarray
    event_offsets: np.ndarray
    events: np.ndarray

    def __post_init__(self) -> None:
        self._freeze()
        events, bounds = self.events, self.event_offsets
        if events.shape[1:] != (_EVENT_COLUMNS,) or len(self.demographics) != len(self):
            raise ValueError("events must be (code, press, release) rows, with one "
                             "demographics entry per subject")
        for offsets, groups, rows in (
            (self.session_offsets, len(self), self.n_sessions()),
            (bounds, self.n_sessions(), len(events)),
        ):
            if (
                len(offsets) != groups + 1
                or offsets[0] != 0
                or offsets[-1] != rows
                or np.any(np.diff(offsets) < 0)
            ):
                raise ValueError(f"offsets {offsets.tolist()} do not cut {rows} rows in {groups}")

        # The first session with a bad row wins; within it, a bad code or
        # release wins over a press drop. A drop onto a session's first row
        # is none: presses may fall across a session boundary.
        drops = np.flatnonzero(events[1:, PRESS] < events[:-1, PRESS]) + 1
        drops = drops[~np.isin(drops, bounds)]
        bad = _first_bad_row(events)

        def session_of(row: int) -> int:
            return int(np.searchsorted(bounds, row, side="right")) - 1

        if bad is not None and (not drops.size or session_of(bad) <= session_of(drops[0])):
            raise ValueError(_event_problem(*events[bad].tolist()))
        if drops.size:
            session_id = self.session_ids[session_of(drops[0])]
            raise ValueError(f"session {session_id}: press times not sorted")
        for what, values in (
            ("subject ids", self.subject_ids.tolist()),
            ("(subject, session) keys", self.session_keys()),
        ):
            if len(set(values)) != len(values):
                dupes = sorted(value for value, n in Counter(values).items() if n > 1)
                raise ValueError(f"duplicate {what}: {dupes}")

    def _freeze(self) -> None:
        dtypes = (object, object, np.intp, object, np.intp, np.int64)
        for field, dtype in zip(fields(self), dtypes):
            column = np.asarray(getattr(self, field.name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, field.name, column)

    @classmethod
    def _trusted(cls, **columns) -> "Dataset":
        """The dataset of columns whose builder has enforced every
        invariant the constructor checks: they are only made read-only
        arrays."""
        dataset = object.__new__(cls)
        for name, column in columns.items():
            object.__setattr__(dataset, name, column)
        dataset._freeze()
        return dataset

    @classmethod
    def of(cls, subjects: Iterable[Subject]) -> "Dataset":
        """The dataset of nested values, such as hand-built data."""
        subjects = tuple(subjects)
        sessions = [session for subject in subjects for session in subject.sessions]
        blocks = [
            np.asarray(s.events, dtype=np.int64).reshape(-1, _EVENT_COLUMNS) for s in sessions
        ]
        return cls(
            subject_ids=[s.subject_id for s in subjects],
            demographics=[s.demographics for s in subjects],
            session_offsets=_offsets([len(s.sessions) for s in subjects]),
            session_ids=[s.session_id for s in sessions],
            event_offsets=_offsets([len(b) for b in blocks]),
            events=np.concatenate([np.empty((0, _EVENT_COLUMNS), np.int64), *blocks]),
        )

    def __len__(self) -> int:
        return len(self.subject_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    def n_sessions(self) -> int:
        return len(self.session_ids)

    def subject_of_session(self) -> np.ndarray:
        """The subject index of each session."""
        return np.repeat(np.arange(len(self)), np.diff(self.session_offsets))

    def session_keys(self) -> list[tuple[str, str]]:
        """The (subject_id, session_id) of each session."""
        subject_ids = self.subject_ids[self.subject_of_session()]
        return list(zip(subject_ids.tolist(), self.session_ids.tolist()))

    def select(self, subject_indices: Sequence[int] | np.ndarray) -> "Dataset":
        """The subjects at `subject_indices`, in that order, with their
        sessions and events. Distinct subjects of a dataset hold its
        invariants and are not checked again; a repeated one is, and its
        duplicate ids raise ValueError. An index outside [0, len) raises
        IndexError."""
        chosen = np.asarray(subject_indices, dtype=np.intp)
        if chosen.size and not 0 <= chosen.min() <= chosen.max() < len(self):
            raise IndexError(f"subject indices outside [0, {len(self)})")
        sessions = _ranges(self.session_offsets, chosen)
        distinct = np.unique(chosen).size == chosen.size
        # A subject's rows are one slice of the block: they are copied slice
        # by slice, with no index of every row.
        bounds = self.event_offsets[self.session_offsets].tolist()
        return (Dataset._trusted if distinct else Dataset)(
            subject_ids=self.subject_ids[chosen],
            demographics=self.demographics[chosen],
            session_offsets=_offsets(np.diff(self.session_offsets)[chosen]),
            session_ids=self.session_ids[sessions],
            event_offsets=_offsets(np.diff(self.event_offsets)[sessions]),
            events=np.concatenate([
                np.empty((0, _EVENT_COLUMNS), np.int64),
                *(self.events[bounds[i] : bounds[i + 1]] for i in chosen.tolist()),
            ]),
        )

    @property
    def subjects(self) -> tuple[Subject, ...]:
        """`Subject` and `Session` views of the columns, built anew on each
        access. No pipeline stage reads them."""
        bounds, first = self.event_offsets.tolist(), self.session_offsets.tolist()
        sessions = [
            Session(session_id, self.events[start:stop])
            for session_id, start, stop in zip(self.session_ids.tolist(), bounds, bounds[1:])
        ]
        return tuple(
            Subject(subject_id, demographics, tuple(sessions[start:stop]))
            for subject_id, demographics, start, stop in zip(
                self.subject_ids.tolist(), self.demographics.tolist(), first, first[1:]
            )
        )


REQUIRED_SESSIONS = 15


# Bytes of a raw log read per scan (512 KiB); each scanned chunk ends
# after a line. Larger chunks are no faster and leave more freed scan
# arrays in the heap for the stage that follows.
CHUNK_BYTES = 1 << 19
_TAB, _NEWLINE, _MINUS, _ZERO = 9, 10, 45, 48
# Fields of at most this many digits (after an optional minus) are
# converted in bulk; 18 digits always fit 64 bits. Others go through int().
_BULK_DIGITS = 18
# Bytes after a chunk: a line end for a last line that has none, then
# zero bytes, so that any 8-byte word of a line can be read.
_WORD_PAD = b"\n" + bytes(7)
# _BYTE_MASKS[k] keeps the first k bytes of a little-endian 8-byte word.
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# Fields of these widths are read as two little-endian 8-byte words
# (`_word_digits`); the masks and constants below repeat one byte 8 times.
_WORD_DIGITS = range(9, 17)
_HIGH_NIBBLES, _LOW_NIBBLES = 0xF0F0F0F0F0F0F0F0, 0x0F0F0F0F0F0F0F0F
_ZEROS, _SIXES = 0x3030303030303030, 0x0606060606060606


def subject_table(sessions: Sequence[Sequence[str]]) -> tuple[list[str], np.ndarray]:
    """The distinct subject ids of (subject_id, session_id) pairs, in order
    of first appearance, and the index into them of each pair."""
    subject_ids = [subject_id for subject_id, _ in sessions]
    index = {subject_id: i for i, subject_id in enumerate(dict.fromkeys(subject_ids))}
    rows = np.fromiter(map(index.__getitem__, subject_ids), dtype=np.intp, count=len(subject_ids))
    return list(index), rows


def parse_raw_log(fh: BinaryIO) -> Dataset:
    """Parse a raw log, read as bytes from `fh`, into a Dataset.

    Each line is `subject_id  session_id  ascii  press_ms  release_ms`, in
    UTF-8. As in text mode, `\\n`, `\\r\\n` and a lone `\\r` each end a line
    and count as one; empty lines are skipped, and an event field is any
    integer Python's `int()` reads. The log is scanned `CHUNK_BYTES` at a
    time, with array operations over each chunk's bytes.
    Subjects and, within each subject, sessions keep their order of first
    appearance; events are sorted by (press, release, ascii code) within
    each session.
    Raises ParseError with the offending line number on malformed lines,
    invariant violations, or duplicated events; when several lines are
    bad, the first one is reported, a line that is not UTF-8 included
    (`_line_chunks` names the stream in that message).
    """
    heads: dict[bytes, int] = {}  # b"subject\tsession" -> session index
    known = _MixMap()  # the heads that recur across chunks
    session_of = array("q")
    values = array("q")  # code, press, release of each event
    # Line numbers, needed only to name a bad line, in runs of consecutive
    # lines: the first event of each run and its line. One number per event
    # would hold 29 MB more at 5,000 subjects.
    run_events, run_lines = array("q"), array("q")
    error: ParseError | None = None
    try:
        for lineno, chunk in _line_chunks(fh):
            sessions, numbers, events, error = _scan_lines(chunk, lineno, heads, known)
            # A run starts at a chunk's first line and after each blank line.
            runs = np.flatnonzero(np.diff(numbers, prepend=-1) != 1)
            run_events.frombytes((runs + len(session_of)).tobytes())
            run_lines.frombytes(numbers[runs].tobytes())
            session_of.frombytes(sessions.tobytes())
            values.frombytes(events.tobytes())
            if error is not None:
                break
    except ParseError as exc:  # the lines read are good, the next is not UTF-8
        error = exc

    def line_of(event: int) -> int:
        run = bisect_right(run_events, event) - 1
        return run_lines[run] + event - run_events[run]

    # A view of the buffer, not a copy, and the block itself: a shuffled
    # log is sorted in place, one column at a time.
    block = np.frombuffer(values, dtype=np.int64).reshape(-1, _EVENT_COLUMNS)
    keys = [head.decode().split("\t") for head in heads]
    subject_ids, subject_of = subject_table(keys)
    # Sessions are ranked subject by subject, so sorting on the rank also
    # groups the block by subject, with no extra sort key or block copy.
    by_subject = np.argsort(subject_of, kind="stable")
    rank = np.empty(len(by_subject), dtype=np.min_scalar_type(len(by_subject)))
    rank[by_subject] = np.arange(len(by_subject))
    groups = rank[np.frombuffer(session_of, dtype=np.int64)]
    del session_of  # one int64 per event, not needed past the ranks
    # No order means the log is in order, with presses rising within each
    # session, so no event can repeat.
    order = _event_order(groups, block)
    if order is not None:
        for column in block.T:
            column[:] = column[order]
        sorted_groups = groups[order]
        repeats = np.flatnonzero(
            (sorted_groups[1:] == sorted_groups[:-1]) & (block[1:] == block[:-1]).all(axis=1)
        ) + 1
        # The scan stopped at the first bad line, so a repeat lies before it.
        # The first repeat is the one of the earliest input row.
        if repeats.size:
            at = repeats[order[repeats].argmin()]
            event = (*keys[by_subject[sorted_groups[at]]], *block[at].tolist())
            raise ParseError(f"duplicate event {event!r}", line_of(int(order[at])))
    if error is not None:
        raise error

    # Every invariant of a dataset holds: the scan checked each event, the
    # sort put presses in order and the heads are distinct.
    return Dataset._trusted(
        subject_ids=subject_ids,
        demographics=[None] * len(subject_ids),
        session_offsets=_offsets(np.bincount(subject_of, minlength=len(subject_ids))),
        session_ids=[keys[h][1] for h in by_subject.tolist()],
        event_offsets=_offsets(np.bincount(groups, minlength=len(keys))),
        events=block,
    )


def _event_order(groups: np.ndarray, events: np.ndarray) -> np.ndarray | None:
    """The permutation `np.lexsort((code, release, press, groups))` gives
    for event rows of sessions `groups`, or None when it is the identity.

    Rows already ordered by (session, press), with presses strictly rising
    within each session, need no sort; one pass over the rows decides it.
    Otherwise the rows are ordered by (session, press): by one argsort of
    the two packed into one int64 key when they fit, else by an argsort by
    press and a stable one by session. Only the rows of runs that tie on
    both are sorted again, by (release, code, input row). The first sort
    need not be stable: that last key gives rows equal on all four keys
    their input order, as with `lexsort`.
    """
    press = events[:, PRESS]
    rising = (groups[1:] == groups[:-1]) & (press[1:] > press[:-1])
    if np.all(rising | (groups[1:] > groups[:-1])):
        return None
    low = int(press.min())
    shift = (int(press.max()) - low).bit_length()
    if (int(groups.max()) + 1) << shift < 1 << 63:
        key = groups.astype(np.int64)
        key <<= shift
        key += press
        key -= low  # rank << shift | press - low: exact, as int64 wraps
        order = np.argsort(key)
        del key
    else:
        order = np.argsort(press)
        # Ranks in the smallest unsigned type that holds them: numpy sorts 8-
        # and 16-bit keys stably by radix. The cast comes first, so no int64
        # copy of the ranks is made.
        ranks = groups.astype(np.min_scalar_type(groups.max()), copy=False)[order]
        order = order[np.argsort(ranks, kind="stable")]
    sorted_groups, sorted_press = groups[order], press[order]
    tied = (sorted_groups[1:] == sorted_groups[:-1]) & (sorted_press[1:] == sorted_press[:-1])
    if tied.any():
        in_run = np.zeros(len(order), dtype=bool)
        in_run[1:] = tied
        in_run[:-1] |= tied
        rows = np.flatnonzero(in_run)
        tie_rows = order[rows]
        # The rows come in (session, press) order, so the run of a row is
        # the number of run starts up to it.
        run = np.cumsum(np.concatenate([[True], ~tied[rows[1:] - 1]]))
        order[rows] = tie_rows[
            np.lexsort((tie_rows, events[tie_rows, CODE], events[tie_rows, RELEASE], run))
        ]
    return order


def _line_chunks(fh: BinaryIO) -> Iterator[tuple[int, bytes]]:
    """The bytes of `fh` in chunks of whole lines, about `CHUNK_BYTES` each,
    with `\\r\\n` and a lone `\\r` turned into b"\\n", as (lines before
    the chunk, chunk). Every chunk ends in b"\\n" but the last, whose line
    may have no end. A chunk that is not UTF-8 is cut before its first bad
    line and is the last; after it, ParseError `<fh.name (or "<stream>")>
    is not UTF-8 text (<reason>)` is raised, so a reader that scans the
    chunk first reports the first bad line."""
    rest, lineno = b"", 0
    while True:
        # A line longer than a chunk is read in doubling blocks, not re-copied
        # once per chunk.
        block = fh.read(max(CHUNK_BYTES, len(rest)))
        data = rest + block
        # While more may follow, a closing \r may be the start of a \r\n.
        split = len(data) - (bool(block) and data.endswith(b"\r"))
        lines = data[:split]
        if b"\r" in lines:
            lines = lines.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        cut = lines.rfind(b"\n") + 1 if block else len(lines)
        chunk, rest = lines[:cut], lines[cut:] + data[split:]
        del data, lines  # only the chunk is held while it is scanned
        reason = None
        if not chunk.isascii():
            try:
                chunk.decode("utf-8")
            except UnicodeDecodeError as exc:
                chunk, reason = chunk[: chunk.rfind(b"\n", 0, exc.start) + 1], exc.reason
        if chunk:
            yield lineno, chunk
        if reason:
            raise ParseError(f"{getattr(fh, 'name', '<stream>')} is not UTF-8 text ({reason})")
        if not block:
            return
        # One vector compare counts the lines several times faster than bytes.count.
        lineno += int(np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == _NEWLINE))


def _split_lines(
    chunk: bytes, lineno: int, fields: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, ParseError | None]:
    """The bytes of `chunk` (padded with `_WORD_PAD`), and the starts, ends,
    numbers (from `lineno + 1`) and `(lines, fields - 1)` tab positions of
    its lines that are not blank, up to the first line that has other than
    `fields` tab-separated fields, with that line's error."""
    buf = np.frombuffer(chunk + _WORD_PAD, dtype=np.uint8)
    ends = np.flatnonzero(buf == _NEWLINE)
    tabs = np.flatnonzero(buf == _TAB)
    starts = np.concatenate([[0], ends[:-1] + 1])
    numbers = np.arange(lineno + 1, lineno + 1 + len(ends), dtype=np.int64)
    filled = starts != ends
    if not filled.all():
        starts, ends, numbers = starts[filled], ends[filled], numbers[filled]
    counts = np.diff(np.searchsorted(tabs, ends), prepend=0)
    stop, error = len(ends), None
    if np.any(counts != fields - 1):
        stop = int(np.argmax(counts != fields - 1))
        error = ParseError(
            f"expected {fields} tab-separated fields, got {counts[stop] + 1}",
            int(numbers[stop]),
        )
    tabs = tabs[: (fields - 1) * stop].reshape(stop, fields - 1)
    return buf, starts[:stop], ends[:stop], numbers[:stop], tabs, error


def _scan_lines(
    chunk: bytes, lineno: int, heads: dict[bytes, int], known: _MixMap
) -> tuple[np.ndarray, np.ndarray, np.ndarray, ParseError | None]:
    """The session indices, line numbers and (code, press, release) rows of
    the lines of `chunk`, numbered from `lineno + 1`; blank lines are
    skipped, new heads join `heads` and heads that recur join `known`.
    Only the lines before the first bad one are returned, with that line's error: a line that fails several
    checks reports its field count first, then a non-integer field, then a
    field outside 64 bits, then a code outside [0, 255] or a release before
    its press."""
    buf, starts, ends, numbers, tabs, error = _split_lines(chunk, lineno, 5)
    stop = len(ends)  # lines before `stop` passed every check so far
    # Heads of lines cut off below by a bad field only add unused entries:
    # the parse then fails.
    sessions = _intern(chunk, buf, starts, tabs[:, 1], heads, known)
    # The code, press and release fields, one column per call: a column of
    # one width, as press and release times mostly are, converts as a whole.
    cuts = np.concatenate([tabs[:, 1:], ends[:, None]], axis=1)
    events = np.empty((stop, _EVENT_COLUMNS), dtype=np.int64)
    bulk = np.ones(stop, dtype=bool)
    for column in range(_EVENT_COLUMNS):
        events[:, column], fits = _bulk_integers(buf, cuts[:, column] + 1, cuts[:, column + 1])
        bulk &= fits
    for i in np.flatnonzero(~bulk).tolist():
        bounds = cuts[i].tolist()
        fields = [chunk[a + 1 : b].decode() for a, b in zip(bounds, bounds[1:])]
        try:
            row = [int(f) for f in fields]
        except ValueError:
            stop, error = i, ParseError(f"non-integer event field in {fields!r}", int(numbers[i]))
            break
        try:
            events[i] = row
        except OverflowError:
            stop, error = i, ParseError(
                _event_problem(*row) or f"event field outside 64 bits in {row!r}",
                int(numbers[i]),
            )
            break
    bad = _first_bad_row(events[:stop])
    if bad is not None:
        stop, error = bad, ParseError(_event_problem(*events[bad].tolist()), int(numbers[bad]))
    return sessions[:stop], numbers[:stop], events[:stop], error


def _bulk_integers(
    buf: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The values of the fields `buf[starts:ends]` that read
    `-?[0-9]{1,18}`, and a mask of those fields (the others' values mean
    nothing). Fields of one width are converted together: of 9 to 16
    digits as two 8-byte words, of other widths a digit column at a time.
    When all the fields share one width, that conversion is the result,
    with no scatter."""
    negative = buf[starts] == _MINUS
    first = starts + negative
    widths = ends - first
    values = np.zeros(len(starts), dtype=np.int64)
    bulk = (widths >= 1) & (widths <= _BULK_DIGITS)
    counts = np.bincount(widths[bulk])
    for width in np.flatnonzero(counts).tolist():
        convert = _word_digits if width in _WORD_DIGITS else _column_digits
        if counts[width] == len(starts):
            values, bulk = convert(buf, first, width)
        else:
            at = np.flatnonzero(widths == width)
            values[at], bulk[at] = convert(buf, first[at], width)
    np.negative(values, out=values, where=negative)
    return values, bulk


def _column_digits(
    buf: np.ndarray, first: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """The values of the `width`-byte fields at `first`, a digit column at
    a time, and whether each field is all digits."""
    position = np.empty_like(first)
    number = np.zeros(len(first), dtype=np.int64)
    digits = np.ones(len(first), dtype=bool)
    for offset in range(width):
        digit = buf[np.add(first, offset, out=position)] - _ZERO  # below b"0" wraps above 9
        digits &= digit < 10
        number *= 10
        number += digit
    return number, digits


def _word_digits(
    buf: np.ndarray, first: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """The values of the `width`-byte fields (9 to 16) at `first`, and
    whether each field is all digits. A field's first and last 8 bytes are
    two little-endian words, each checked and reduced to its number eight
    digits at once (Langdale and Lemire, 2019)."""
    words = _words(buf)
    high, low = words[first], words[first + (width - 8)]
    # A byte is a digit iff its high nibble is 3 before and after adding 6:
    # b":" to b"?" carry into the next nibble. No byte carries into the next
    # byte, since a byte that would fails the first test.
    digits = (high & _HIGH_NIBBLES == _ZEROS) & (high + _SIXES & _HIGH_NIBBLES == _ZEROS)
    digits &= (low & _HIGH_NIBBLES == _ZEROS) & (low + _SIXES & _HIGH_NIBBLES == _ZEROS)
    # The high word keeps its first `width - 8` digits, shifted behind
    # leading zero digits; the low word holds the last eight.
    high &= _LOW_NIBBLES
    high <<= np.uint64(8 * (16 - width))
    low &= _LOW_NIBBLES
    number = _eight_digits(high)
    number *= 10**8
    number += _eight_digits(low)
    return number.view(np.int64), digits


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The numbers of little-endian words of eight digit values (0 to 9,
    the first digit in the lowest byte), reduced in place: digits to pairs,
    pairs to fours, fours to eight."""
    words *= 10 << 8 | 1
    words >>= 8
    words &= 0x00FF00FF00FF00FF
    words *= 100 << 16 | 1
    words >>= 16
    words &= 0x0000FFFF0000FFFF
    words *= 10_000 << 32 | 1
    words >>= 32
    return words


def _words(buf: np.ndarray) -> np.ndarray:
    """The little-endian 8-byte word at each byte of `buf` but its last 7."""
    return np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))


class _MixMap:
    """The short keys a reader has asked its dict for in two chunks.

    A key of at most 16 bytes that a later chunk asks the dict for again
    joins `by_mix`, a map from its `_mix` to its id, and `columns` keeps
    its (length, first word, second word) under its id. A log whose keys
    never repeat across chunks fills neither.
    """

    def __init__(self) -> None:
        self.by_mix: dict[int, int] = {}
        self.columns = np.zeros((3, 0), dtype=np.uint64)

    def look_up(self, mixes: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """The id in `by_mix` of each key column of `keys` with its mix,
        or -1. A mapped id is taken only when its columns equal the key's,
        so keys that share a mix miss, and a key longer than 16 bytes,
        whose length no mapped key has, always does."""
        ids = np.fromiter(
            map(self.by_mix.get, mixes.tolist(), repeat(-1)), dtype=np.int64, count=len(mixes)
        )
        hits = np.flatnonzero(ids >= 0)
        wrong = (self.columns[:, ids[hits]] != keys[:, hits]).any(axis=0)
        ids[hits[wrong]] = -1
        return ids

    def learn(self, mixes: np.ndarray, keys: np.ndarray, ids: np.ndarray) -> None:
        """Map the keys of columns `keys`, with their mixes and ids."""
        top = int(ids.max()) + 1
        if top > self.columns.shape[1]:  # at least doubles
            spare = np.zeros((3, max(top, self.columns.shape[1])), dtype=np.uint64)
            self.columns = np.concatenate([self.columns, spare], axis=1)
        self.columns[:, ids] = keys
        self.by_mix.update(zip(mixes.tolist(), ids.tolist()))


def _intern(
    chunk: bytes,
    buf: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    ids: dict[bytes, int],
    known: _MixMap | None = None,
) -> np.ndarray:
    """The id in `ids` of each key `chunk[starts:ends]`, for key bounds of
    any shape (`buf` is the chunk padded with `_WORD_PAD`). Keys new to
    `ids` join it in flat (line, column) order: ids follow first appearance.

    The keys are sorted on their `_mix`; a run of equal mixes is led by its
    earliest key, and every key is compared with its leader by length and
    first 16 bytes, then 8 bytes at a time. Only the leaders and the keys
    that differ from theirs are looked up: in `known`, when given, by mix
    and then by their columns, and the rest in `ids`, in flat order. Every
    other key takes its leader's id. The dict decides every new id, so
    distinct keys with one mix cost a lookup, never a wrong id.
    """
    shape, starts, ends = starts.shape, starts.ravel(), ends.ravel()
    words = _words(buf)
    lengths = ends - starts
    # Each key's length and first two words, zero past its end.
    keys = np.stack([lengths.astype(np.uint64)] + [
        words[np.minimum(starts + k, len(words) - 1)] & _BYTE_MASKS[np.clip(lengths - k, 0, 8)]
        for k in (0, 8)
    ])
    mixes = _mix(keys)
    order = np.argsort(mixes)
    sorted_mixes = mixes[order]
    opens = np.ones(len(order), dtype=bool)
    opens[1:] = sorted_mixes[1:] != sorted_mixes[:-1]
    # The sort leaves a run's keys in any order; its earliest one leads it.
    leader = np.empty_like(order)
    leader[order] = np.minimum.reduceat(order, np.flatnonzero(opens))[np.cumsum(opens) - 1]
    same = (keys == keys.take(leader, axis=1)).all(axis=0)
    at, offset = np.flatnonzero(same & (lengths > 16)), 16
    while len(at):
        mask = _BYTE_MASKS[np.minimum(lengths[at] - offset, 8)]
        equal = (words[starts[at] + offset] ^ words[starts[leader[at]] + offset]) & mask == 0
        same[at[~equal]] = False
        offset += 8
        at = at[equal & (lengths[at] > offset)]
    own = np.arange(len(order))
    source = np.where(same, leader, own)  # the key whose id each key takes
    asked = np.flatnonzero(source == own)
    found = np.empty(len(order), dtype=np.int64)
    if known is not None and known.by_mix:
        hits = known.look_up(mixes[asked], keys[:, asked])
        found[asked] = hits
        asked = asked[hits < 0]
    before = len(ids)
    found[asked] = [
        ids.setdefault(chunk[a:b], len(ids))
        for a, b in zip(starts[asked].tolist(), ends[asked].tolist())
    ]
    if known is not None:
        # Short keys that a former chunk asked for already join the known ones.
        again = asked[(found[asked] < before) & (lengths[asked] <= 16)]
        if len(again):
            known.learn(mixes[again], keys[:, again], found[again])
    return found[source].reshape(shape)


# Odd multipliers for `_mix`.
_MIX_FIRST, _MIX_SECOND = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9)


def _mix(keys: np.ndarray) -> np.ndarray:
    """One 64-bit value per (length, first word, second word) column of
    `keys`: equal keys mix equal, and distinct ones seldom do. Keys that
    share their first 16 bytes and length mix equal; the byte compare
    against the run's leader tells them apart."""
    return (keys[1] * _MIX_FIRST ^ keys[2]) * _MIX_SECOND ^ keys[0]


def eligibility_issues(dataset: Dataset) -> dict[int, list[str]]:
    """Protocol-eligibility issues (session count, empty sessions) of each
    ineligible subject, by subject index in dataset order; an eligible
    subject has no entry. Issues are reported, never raised.
    """
    counts = np.diff(dataset.session_offsets)
    issues: dict[int, list[str]] = {}
    for i in np.flatnonzero(counts != REQUIRED_SESSIONS).tolist():
        relation = "<" if counts[i] < REQUIRED_SESSIONS else ">"
        issues[i] = [f"session count {counts[i]} {relation} {REQUIRED_SESSIONS}"]
    empty = np.flatnonzero(np.diff(dataset.event_offsets) == 0)
    for i, j in zip(dataset.subject_of_session()[empty].tolist(), empty.tolist()):
        issues.setdefault(i, []).append(f"session {dataset.session_ids[j]}: no events")
    return dict(sorted(issues.items()))


def filter_eligible(dataset: Dataset) -> Dataset:
    """Keep exactly the eligible subjects, preserving their original order."""
    issues = eligibility_issues(dataset)
    if not issues:
        return dataset
    return dataset.select(np.setdiff1d(np.arange(len(dataset)), list(issues)))


def attach_demographics(dataset: Dataset, mapping: Mapping[str, Demographics]) -> Dataset:
    """Return a copy of the dataset with demographics from `mapping` attached.

    Subjects absent from the mapping keep their existing annotation (the
    protocol stage rejects a subject left without one).
    """
    columns = {field.name: getattr(dataset, field.name) for field in fields(dataset)}
    columns["demographics"] = [
        mapping.get(subject_id, demographics)
        for subject_id, demographics in zip(
            dataset.subject_ids.tolist(), dataset.demographics.tolist()
        )
    ]
    return Dataset._trusted(**columns)
