"""Bit-exact file formats for every pipeline artifact.

All text files are UTF-8 with LF endings and no header unless stated:

- raw log TSV:      subject_id  session_id  ascii  press_ms  release_ms
- demographics TSV: subject_id  age_group  gender        (age_group like
  "18-26", gender M/F)
- comparisons.txt:  enrol_subject:enrol_session  verif_subject:verif_session
  kind  slot   (kind G/S/D, slot = score index; the five enrolment lines of
  a slot appear consecutively in enrolment order)
- scores.txt:       one similarity per line, '.' decimal separator, order
  matching comparisons.txt; an optional strict-mode header line carries the
  comparison file digest
- det.csv:          threshold,fmr,fnmr rows (fractions), shortest
  round-trip float formatting so re-reading reproduces identical points
- sir_*.csv:        row/column group labels plus mean-score cells; missing
  cells are empty

Identifiers must not contain tabs, newlines, or ':' (the comparison-file
separator).
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from itertools import chain, repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .core import (
    Dataset,
    Demographics,
    parse_raw_log,
    _parse_demographics_fields,
)
from .errors import AlignmentError, ConfigError, ParseError
from .protocol import KINDS, ComparisonPlan, subject_table

STRICT_HEADER_PREFIX = "# comparisons_sha256="


def _check_identifier(value: str, what: str) -> str:
    if not value or any(c in value for c in "\t\n:"):
        raise ConfigError(f"{what} {value!r} is empty or contains tab/newline/colon")
    return value


@contextmanager
def _reading(path: Path, mode: str = "r") -> Iterator[IO]:
    """Open an input as UTF-8 text, or as bytes with mode "rb"; a byte that
    is not UTF-8 is reported with the file's path, whichever loader reads it."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text ({exc.reason})") from None


def _check_identifiers(pairs: Iterable[tuple[str, str]]) -> None:
    """Check (subject_id, session_id) pairs. Writers call this before they
    open their file, so a bad identifier leaves no partial file behind.
    One scan covers every identifier; the per-identifier check runs only
    to name the first bad one."""
    ids = list(chain.from_iterable(pairs))
    text = "".join(ids)
    if "" not in ids and not any(c in text for c in "\t\n:"):
        return
    for i in range(0, len(ids), 2):
        _check_identifier(ids[i], "subject_id")
        _check_identifier(ids[i + 1], "session_id")


# -- raw event logs ----------------------------------------------------


def raw_log_lines(dataset: Dataset) -> Iterable[str]:
    """The raw log's text, one session's lines at a time (identifiers are
    not checked here; `write_raw_log` checks them)."""
    bounds = dataset.event_offsets.tolist()
    for j, (subject_id, session_id) in enumerate(dataset.session_keys()):
        prefix = f"{subject_id}\t{session_id}\t"
        yield "".join(
            f"{prefix}{code}\t{press}\t{release}\n"
            for code, press, release in dataset.events[bounds[j] : bounds[j + 1]].tolist()
        )


def write_raw_log(dataset: Dataset, path: Path) -> None:
    _check_identifiers(dataset.session_keys())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(raw_log_lines(dataset))


def load_raw_log(path: Path) -> Dataset:
    with _reading(path, "rb") as fh:
        return parse_raw_log(fh)


# -- demographics sidecar ----------------------------------------------


def write_demographics(dataset: Dataset, path: Path) -> None:
    # Lines are built first, so a bad identifier leaves no partial file.
    lines = [
        f"{_check_identifier(subject_id, 'subject_id')}\t"
        f"{demographics.age_group.value}\t{demographics.gender.value}\n"
        for subject_id, demographics in zip(
            dataset.subject_ids.tolist(), dataset.demographics.tolist()
        )
        if demographics is not None
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def load_demographics(path: Path) -> dict[str, Demographics]:
    mapping: dict[str, Demographics] = {}
    with _reading(path) as fh:
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(
                    f"expected 3 tab-separated fields, got {len(fields)}", lineno
                )
            demo = _parse_demographics_fields(fields[1], fields[2], lineno)
            prior = mapping.setdefault(fields[0], demo)
            if prior != demo:
                raise ParseError(
                    f"conflicting demographics for subject {fields[0]!r}", lineno
                )
    return mapping


# -- comparison plans ---------------------------------------------------


# Lines per write of a comparison file, and characters per read.
_WRITE_LINES = 1 << 16
_READ_CHARS = 1 << 16
_KIND_CODES = {kind.letter: code for code, kind in enumerate(KINDS)}


def write_comparisons(plan: ComparisonPlan, path: Path) -> None:
    _check_identifiers(plan.sessions)
    names = np.array([f"{s}:{t}" for s, t in plan.sessions], dtype=object)
    letters = np.array([kind.letter for kind in KINDS], dtype=object)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(plan), _WRITE_LINES):
            rows = slice(start, start + _WRITE_LINES)
            lines = zip(
                names[plan.enrol[rows]].tolist(),
                names[plan.verif[rows]].tolist(),
                letters[plan.kind[rows]].tolist(),
                map(str, plan.slot[rows].tolist()),
            )
            fh.write("\n".join(map("\t".join, lines)) + "\n")


def load_comparisons(path: Path) -> ComparisonPlan:
    """Read a comparison file; enrolment indices are recovered from the
    order of appearance within each (subject, kind, slot) group.

    The file is read `_READ_CHARS` characters at a time and each chunk's
    lines are split at once; identifiers are interned in a dict, so the
    session table lists each pair in order of first appearance. Raises
    ParseError with the line number of the first bad line.
    """
    table: dict[str, int] = {}  # "subject:session" -> session-table row
    with _reading(path) as fh:
        chunks = [
            _read_comparison_lines(lines, lineno, table) for lines, lineno in _text_chunks(fh)
        ]

    sessions = tuple([(s, t) for s, _, t in map(str.partition, table, repeat(":"))])
    del table
    ends, kind, slot = (np.concatenate(column) for column in zip(*chunks))
    del chunks
    enrol, verif = ends[0::2], ends[1::2]
    enrolled = subject_table(sessions)[1][enrol]
    return ComparisonPlan(
        sessions, enrol, verif, kind, slot, _enrolment_indices(enrolled, kind, slot)
    )


def _text_chunks(fh: TextIO) -> Iterator[tuple[list[str], int]]:
    """The lines of `fh`, read `_READ_CHARS` characters at a time, in
    lists, each with the count of the lines before it; the last list holds
    the text after the last newline."""
    pending, lineno = "", 0
    while block := fh.read(_READ_CHARS):
        lines = (pending + block).split("\n")
        pending = lines.pop()
        yield lines, lineno
        lineno += len(lines)
    yield [pending], lineno


def _enrolment_indices(
    enrolled: np.ndarray, kind: np.ndarray, slot: np.ndarray
) -> np.ndarray:
    """Each line's count of the earlier lines with its (enrolled subject,
    kind, slot)."""
    keys = (slot, kind, enrolled)
    order = np.lexsort(keys)  # stable: equal keys keep their line order
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for key in keys:
        ranked = key[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    # Sorted position minus the position where the line's group starts.
    offsets = np.flatnonzero(starts)[np.cumsum(starts) - 1]
    np.subtract(np.arange(len(order)), offsets, out=offsets)
    indices = np.empty(len(order), dtype=np.int64)
    indices[order] = offsets
    return indices


def _read_comparison_lines(
    lines: list[str], lineno: int, table: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The enrol and verif rows (interleaved), kinds and slots of `lines`,
    numbered from `lineno + 1`; blank lines are skipped and new identifiers
    join `table`. Every check runs over the whole chunk; the first bad line
    wins, and a line that fails several checks reports the first of field
    count, subject:session pair, kind and slot."""
    numbers: Sequence[int] = range(lineno + 1, lineno + 1 + len(lines))
    if "" in lines:
        kept = [i for i, line in enumerate(lines) if line]
        lines, numbers = [lines[i] for i in kept], [numbers[i] for i in kept]
    error: ParseError | None = None
    tabs = list(map(str.count, lines, repeat("\t")))
    stop = len(lines)  # lines before `stop` passed every check so far
    if tabs.count(3) != stop:
        stop = next(i for i, n in enumerate(tabs) if n != 3)
        error = ParseError(
            f"expected 4 tab-separated fields, got {tabs[stop] + 1}", numbers[stop]
        )
    fields = "\t".join(lines[:stop]).split("\t") if stop else []

    both = [""] * (2 * stop)
    both[0::2], both[1::2] = fields[0::4], fields[1::4]
    distinct = dict.fromkeys(both)
    new = [name for name in distinct if name not in table]
    malformed = next((name for name in new if ":" not in name), None)
    if malformed is not None:
        stop = both.index(malformed) // 2
        error = ParseError("malformed subject:session pair", numbers[stop])
    table.update(zip(new, range(len(table), len(table) + len(new))))

    codes = list(map(_KIND_CODES.get, fields[2 : 4 * stop : 4]))
    if None in codes:
        stop = codes.index(None)
        error = ParseError(
            f"unknown comparison kind {fields[4 * stop + 2]!r}", numbers[stop]
        )

    tokens = fields[3 : 4 * stop : 4]
    try:
        slots = np.fromiter(map(int, tokens), dtype=np.int64, count=len(tokens))
    except (ValueError, OverflowError):
        for i, token in enumerate(tokens):
            try:
                np.int64(int(token))  # one of these failed to convert
            except ValueError:
                stop, error = i, ParseError(f"non-integer slot {token!r}", numbers[i])
                break
            except OverflowError:
                stop, error = i, ParseError(f"slot {token!r} outside 64 bits", numbers[i])
                break
    if error is not None:
        raise error
    # Lookups go to the chunk's own small dict, not the whole table.
    rows = dict(zip(distinct, map(table.__getitem__, distinct)))
    ends = np.fromiter(map(rows.__getitem__, both), dtype=np.intp, count=len(both))
    return ends, np.array(codes, dtype=np.int8), slots


# -- score files ---------------------------------------------------------


def write_scores(
    scores: Sequence[float], path: Path, comparisons_digest: str | None = None
) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if comparisons_digest is not None:
            fh.write(f"{STRICT_HEADER_PREFIX}{comparisons_digest}\n")
        for s in scores:
            fh.write(f"{float(s)!r}\n")


def load_scores(path: Path) -> tuple[np.ndarray, str | None]:
    """Returns (scores, strict-mode digest or None).

    The file is read `_READ_CHARS` characters at a time and each chunk's
    lines are converted with one `float` map; a line-by-line pass runs
    only to name the first bad line.
    """
    digest = None
    scores = []
    with _reading(path) as fh:
        for lines, lineno in _text_chunks(fh):
            if lineno == 0 and lines and lines[0].startswith(STRICT_HEADER_PREFIX):
                digest = lines[0][len(STRICT_HEADER_PREFIX):]
                lines[0] = ""
            scores.append(_read_score_lines(lines, lineno))
    return np.concatenate(scores), digest


def _read_score_lines(lines: list[str], lineno: int) -> np.ndarray:
    """The scores of `lines`, numbered from `lineno + 1`; blank lines are
    skipped."""
    tokens = [line for line in lines if line] if "" in lines else lines
    try:
        return np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    except ValueError:
        pass
    for number, line in enumerate(lines, start=lineno + 1):
        if not line:
            continue
        if line.startswith(STRICT_HEADER_PREFIX):
            raise ParseError("strict header must be the first line", number)
        try:
            float(line)
        except ValueError:
            raise ParseError(f"non-numeric score {line!r}", number) from None
    raise AssertionError("a conversion failed but every line converted")


def verify_strict_digest(digest: str | None, comparisons_path: Path) -> None:
    if digest is None:
        return
    actual = sha256_file(comparisons_path)
    if digest != actual:
        raise AlignmentError(
            "score file was produced for a different comparison file "
            f"(expected digest {digest}, found {actual})"
        )


# -- curves and matrices --------------------------------------------------


def write_det_csv(
    thresholds: np.ndarray, fmr: np.ndarray, fnmr: np.ndarray, path: Path
) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("threshold,fmr,fnmr\n")
        for t, fm, fn in zip(thresholds, fmr, fnmr):
            fh.write(f"{float(t)!r},{float(fm)!r},{float(fn)!r}\n")


def write_sir_csv(
    labels: Sequence[str], cells: np.ndarray, missing: np.ndarray, path: Path
) -> None:
    """A labelled square matrix; each available cell is written as the
    repr of its Python value (mean scores as floats, binarized cells as
    0/1 integers), a missing one as the empty string."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("enrol\\verif," + ",".join(labels) + "\n")
        for label, row, gaps in zip(labels, cells.tolist(), missing.tolist()):
            text = ",".join("" if m else repr(v) for v, m in zip(row, gaps))
            fh.write(f"{label},{text}\n")


# -- json reports ----------------------------------------------------------


def write_json(payload: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
