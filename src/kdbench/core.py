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
from collections import Counter
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence

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
    `eligibility_issues` to report.
    """

    subject_ids: np.ndarray
    demographics: np.ndarray
    session_offsets: np.ndarray
    session_ids: np.ndarray
    event_offsets: np.ndarray
    events: np.ndarray

    def __post_init__(self) -> None:
        dtypes = (object, object, np.intp, object, np.intp, np.int64)
        for field, dtype in zip(fields(self), dtypes):
            column = np.asarray(getattr(self, field.name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, field.name, column)
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
        sessions and events."""
        chosen = np.asarray(subject_indices, dtype=np.intp)
        sessions = _ranges(self.session_offsets, chosen)
        return Dataset(
            subject_ids=self.subject_ids[chosen],
            demographics=self.demographics[chosen],
            session_offsets=_offsets(np.diff(self.session_offsets)[chosen]),
            session_ids=self.session_ids[sessions],
            event_offsets=_offsets(np.diff(self.event_offsets)[sessions]),
            events=self.events[_ranges(self.event_offsets, sessions)],
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


def _parse_demographics_fields(age_token: str, gender_token: str, lineno: int) -> Demographics:
    try:
        age = AgeGroup(age_token)
    except ValueError:
        raise ParseError(f"unknown age group {age_token!r}", lineno) from None
    try:
        gender = Gender(gender_token)
    except ValueError:
        raise ParseError(f"unknown gender {gender_token!r}", lineno) from None
    return Demographics(age, gender)


# Event fields are converted to integers in chunks of this many strings.
_CHUNK_FIELDS = 3 << 15


def parse_raw_log(lines: Iterable[str]) -> Dataset:
    """Parse a raw log TSV stream into a Dataset.

    Each line is `subject_id  session_id  ascii  press_ms  release_ms`.
    Subjects and, within each subject, sessions keep their order of first
    appearance; events are sorted by (press, release, ascii code) within
    each session.
    Raises ParseError with the offending line number on malformed lines,
    invariant violations, or duplicated events; when several lines are
    bad, the first one is reported.
    """
    heads: dict[str, int] = {}  # "subject\tsession" -> session index
    session_of = array("q")
    linenos = array("q")
    values = array("q")  # code, press, release of each event
    pending: list[str] = []
    error: ParseError | None = None
    for lineno, raw_line in enumerate(lines, start=1):
        parts = raw_line.rsplit("\t", 3)
        session = heads.get(parts[0]) if len(parts) == 4 else None
        if session is None:
            line = raw_line.rstrip("\n")
            if not line:
                continue
            if len(parts) != 4 or parts[0].count("\t") != 1:
                error = ParseError(
                    f"expected 5 tab-separated fields, got {line.count(chr(9)) + 1}",
                    lineno,
                )
                break
            session = heads[parts[0]] = len(heads)
        session_of.append(session)
        linenos.append(lineno)
        pending += parts[1:]
        if len(pending) >= _CHUNK_FIELDS:
            error = _convert_fields(pending, values, linenos)
            if error:
                break
    # Lines whose fields fail to convert precede the line that stopped the loop.
    error = _convert_fields(pending, values, linenos) or error

    n = len(values) // _EVENT_COLUMNS
    # A view of the buffer, not a copy: the sorted block is the one copy.
    events = np.frombuffer(values, dtype=np.int64, count=n * _EVENT_COLUMNS).reshape(
        n, _EVENT_COLUMNS
    )
    keys = [head.split("\t") for head in heads]
    subjects: dict[str, int] = {}
    subject_of = np.array(
        [subjects.setdefault(subject_id, len(subjects)) for subject_id, _ in keys],
        dtype=np.intp,
    )
    # Sessions are ranked subject by subject, so sorting on the rank also
    # groups the block by subject, with no extra sort key or block copy.
    by_subject = np.argsort(subject_of, kind="stable")
    rank = np.empty_like(by_subject)
    rank[by_subject] = np.arange(len(by_subject))
    groups = rank[np.array(session_of[:n], dtype=np.intp)]
    order = np.lexsort((events[:, CODE], events[:, RELEASE], events[:, PRESS], groups))
    block, groups = events[order], groups[order]

    # The first bad line wins, whichever check it fails.
    bad = _first_bad_row(events)
    repeats = order[1:][
        (groups[1:] == groups[:-1]) & (block[1:] == block[:-1]).all(axis=1)
    ]
    first_repeat = int(repeats.min()) if repeats.size else None
    if first_repeat is not None and (bad is None or first_repeat < bad):
        event = (*keys[session_of[first_repeat]], *events[first_repeat].tolist())
        raise ParseError(f"duplicate event {event!r}", linenos[first_repeat])
    if bad is not None:
        raise ParseError(_event_problem(*events[bad].tolist()), linenos[bad])
    if error is not None:
        raise error

    return Dataset(
        subject_ids=list(subjects),
        demographics=[None] * len(subjects),
        session_offsets=_offsets(np.bincount(subject_of, minlength=len(subjects))),
        session_ids=[keys[h][1] for h in by_subject.tolist()],
        event_offsets=_offsets(np.bincount(groups, minlength=len(keys))),
        events=block,
    )


def _convert_fields(
    pending: list[str], values: array, linenos: array
) -> ParseError | None:
    """Move the integer values of `pending` (three fields per line) into
    `values`. On the first line whose fields are not 64-bit integers, keep
    only the lines before it and return that line's error."""
    done = len(values)
    try:
        values.extend(map(int, pending))
        return None
    except (ValueError, OverflowError):
        del values[done:]
        return _first_conversion_error(pending, values, linenos)
    finally:
        pending.clear()


def _first_conversion_error(
    pending: list[str], values: array, linenos: array
) -> ParseError:
    for i in range(0, len(pending), _EVENT_COLUMNS):
        fields = pending[i : i + _EVENT_COLUMNS]
        lineno = linenos[len(values) // _EVENT_COLUMNS]
        try:
            numbers = [int(f) for f in fields]
        except ValueError:
            shown = fields[:-1] + [fields[-1].rstrip("\n")]
            return ParseError(f"non-integer event field in {shown!r}", lineno)
        try:
            values.extend(numbers)
        except OverflowError:
            del values[len(values) - len(values) % _EVENT_COLUMNS :]
            return ParseError(
                _event_problem(*numbers) or f"event field outside 64 bits in {numbers!r}",
                lineno,
            )
    raise AssertionError("a conversion failed but every line converted")


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
    return replace(dataset, demographics=[
        mapping.get(subject_id, demographics)
        for subject_id, demographics in zip(
            dataset.subject_ids.tolist(), dataset.demographics.tolist()
        )
    ])
