"""Domain data model, raw keystroke log parsing, and dataset validation.

A raw log is a stream of press/release events with millisecond Unix
timestamps. Events are grouped into sessions, sessions into subjects, and
subjects (optionally annotated with age group and gender) into a dataset
that the protocol and feature stages consume. Events are never objects:
each session holds an (n, 3) int64 block of (code, press, release) rows,
and the parser's sessions are views into one block per log.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping

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


# Column layout of a session's event block: one int64 row per key event.
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


@dataclass(frozen=True, eq=False)
class Session:
    """One acquisition session: an (n, 3) int64 block of (key code,
    press_ms, release_ms) rows in press order.

    Timestamps are integer Unix epoch milliseconds. Construction checks
    every row: codes fit [0, 255], no key is released before it is
    pressed, and press times never decrease. An empty session can be
    represented so that validation can report it (`issues`).
    """

    session_id: str
    events: np.ndarray

    def __post_init__(self) -> None:
        events = np.array(self.events, dtype=np.int64)
        if events.size == 0:
            events = events.reshape(0, _EVENT_COLUMNS)
        if events.ndim != 2 or events.shape[1] != _EVENT_COLUMNS:
            raise ValueError(
                f"session {self.session_id}: events must be (code, press, release) rows"
            )
        bad = _first_bad_row(events)
        if bad is not None:
            raise ValueError(_event_problem(*events[bad].tolist()))
        if np.any(events[1:, PRESS] < events[:-1, PRESS]):
            raise ValueError(f"session {self.session_id}: press times not sorted")
        events.flags.writeable = False
        object.__setattr__(self, "events", events)

    @classmethod
    def of_checked_rows(cls, session_id: str, events: np.ndarray) -> "Session":
        """A session over a read-only block whose rows a bulk producer (the
        parser, the generator) has already checked; skips the per-session
        checks."""
        session = object.__new__(cls)
        object.__setattr__(session, "session_id", session_id)
        object.__setattr__(session, "events", events)
        return session

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Session):
            return NotImplemented
        return self.session_id == other.session_id and np.array_equal(
            self.events, other.events
        )

    def issues(self) -> list[str]:
        if len(self.events) == 0:
            return [f"session {self.session_id}: no events"]
        return []

    def start_ms(self) -> int:
        if len(self.events) == 0:
            raise ValueError(f"session {self.session_id} is empty")
        return int(self.events[0, PRESS])


@dataclass(frozen=True)
class Subject:
    subject_id: str
    demographics: Demographics | None
    sessions: tuple[Session, ...]

    def session_ids(self) -> list[str]:
        return [s.session_id for s in self.sessions]


class DatasetLabel(Enum):
    DEVELOPMENT = "development"
    EVALUATION = "evaluation"


@dataclass(frozen=True)
class Dataset:
    """A collection of subjects, optionally tagged with its protocol role."""

    subjects: tuple[Subject, ...]
    label: DatasetLabel | None = None

    def __post_init__(self) -> None:
        ids = [s.subject_id for s in self.subjects]
        if len(ids) != len(set(ids)):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate subject ids: {dupes}")

    def __len__(self) -> int:
        return len(self.subjects)

    def subject_map(self) -> dict[str, Subject]:
        return {s.subject_id: s for s in self.subjects}

    def n_sessions(self) -> int:
        return sum(len(s.sessions) for s in self.subjects)


@dataclass(frozen=True)
class ValidationResult:
    eligible: bool
    issues: tuple[str, ...] = ()


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
    Events are grouped by (subject_id, session_id) in order of first
    appearance and sorted by (press, release, ascii code) within each
    session; every session is a row view into one sorted event block.
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
    events = np.array(values, dtype=np.int64).reshape(n, _EVENT_COLUMNS)
    groups = np.array(session_of[:n], dtype=np.int64)
    order = np.lexsort((events[:, CODE], events[:, RELEASE], events[:, PRESS], groups))
    block, groups = events[order], groups[order]

    # The first bad line wins, whichever check it fails.
    bad = _first_bad_row(events)
    repeats = order[1:][
        (groups[1:] == groups[:-1]) & (block[1:] == block[:-1]).all(axis=1)
    ]
    first_repeat = int(repeats.min()) if repeats.size else None
    if first_repeat is not None and (bad is None or first_repeat < bad):
        head = next(h for h, g in heads.items() if g == session_of[first_repeat])
        event = (*head.split("\t"), *events[first_repeat].tolist())
        raise ParseError(f"duplicate event {event!r}", linenos[first_repeat])
    if bad is not None:
        raise ParseError(_event_problem(*events[bad].tolist()), linenos[bad])
    if error is not None:
        raise error

    block.flags.writeable = False
    bounds = np.searchsorted(groups, np.arange(len(heads) + 1)).tolist()
    sessions: dict[str, list[Session]] = {}
    for g, head in enumerate(heads):
        subject_id, session_id = head.split("\t")
        sessions.setdefault(subject_id, []).append(
            Session.of_checked_rows(session_id, block[bounds[g] : bounds[g + 1]])
        )
    return Dataset(
        tuple(Subject(subject_id, None, tuple(s)) for subject_id, s in sessions.items())
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


def validate_subject(
    subject: Subject, required_sessions: int = REQUIRED_SESSIONS
) -> ValidationResult:
    """Check protocol eligibility: session count and per-session invariants.

    Issues are reported, never raised.
    """
    issues: list[str] = []
    n = len(subject.sessions)
    if n != required_sessions:
        issues.append(f"session count {n} < {required_sessions}" if n < required_sessions
                      else f"session count {n} > {required_sessions}")
    ids = subject.session_ids()
    if len(ids) != len(set(ids)):
        issues.append("duplicate session ids")
    for session in subject.sessions:
        issues.extend(session.issues())
    return ValidationResult(eligible=not issues, issues=tuple(issues))


def filter_eligible(
    dataset: Dataset, required_sessions: int = REQUIRED_SESSIONS
) -> Dataset:
    """Keep exactly the eligible subjects, preserving their original order."""
    kept = tuple(
        s for s in dataset.subjects if validate_subject(s, required_sessions).eligible
    )
    return Dataset(kept, label=dataset.label)


def attach_demographics(
    dataset: Dataset,
    mapping: Mapping[str, Demographics],
    require_all: bool = False,
) -> Dataset:
    """Return a copy of the dataset with demographics from `mapping` attached.

    Subjects absent from the mapping keep their existing annotation; with
    `require_all` every subject must be covered.
    """
    missing = [s.subject_id for s in dataset.subjects if s.subject_id not in mapping]
    if require_all and missing:
        raise ParseError(f"demographics missing for subjects: {missing[:5]}")
    subjects = tuple(
        replace(s, demographics=mapping.get(s.subject_id, s.demographics))
        for s in dataset.subjects
    )
    return Dataset(subjects, label=dataset.label)
