"""Bit-exact file formats for every pipeline artifact.

All text files are UTF-8 with LF endings and no header unless stated:

- raw log TSV:      subject_id  session_id  ascii  press_ms  release_ms
- demographics TSV: subject_id  age_group  gender        (age_group like
  "18-26", gender M/F)
- comparisons.txt:  enrol_subject:enrol_session  verif_subject:verif_session
  kind  slot   (kind G/S/D, slot = score index; a slot has five lines, one
  per enrolment session, in any order)
- scores.txt:       one similarity per line, '.' decimal separator, order
  matching comparisons.txt; an optional strict-mode header line carries the
  comparison file digest
- det.csv:          threshold,fmr,fnmr rows (fractions), shortest
  round-trip float formatting so re-reading reproduces identical points
- sir_*.csv:        row/column group labels plus mean-score cells; missing
  cells are empty

Identifiers must not contain tabs, line ends ('\n' or '\r', which the
readers take as a line end), or ':' (the comparison-file separator), and
need a UTF-8 encoding. Both table writers render their lines through one
renderer, `_write_rows`: a byte matrix of padded fields and a keep-mask.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import (
    CHUNK_BYTES,
    AgeGroup,
    Dataset,
    Demographics,
    Gender,
    parse_raw_log,
    subject_table,
    _bulk_integers,
    _intern,
    _line_chunks,
    _split_lines,
)
from .errors import AlignmentError, ConfigError, ParseError
from .protocol import KINDS, ComparisonPlan

STRICT_HEADER_PREFIX = "# comparisons_sha256="
_STRICT_HEADER = STRICT_HEADER_PREFIX.encode()
_NOT_IN_IDENTIFIERS = "\t\n\r:"


def _check_identifier(value: str, what: str) -> str:
    if not value or any(c in value for c in _NOT_IN_IDENTIFIERS):
        raise ConfigError(f"{what} {value!r} is empty or contains tab/newline/colon")
    if not _encodes(value):
        raise ConfigError(f"{what} {value!r} holds a lone surrogate, which UTF-8 cannot encode")
    return value


def _encodes(text: str) -> bool:
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


def _check_identifiers(pairs: Iterable[tuple[str, str]]) -> None:
    """Check (subject_id, session_id) pairs. Writers call this before they
    open their file, so a bad identifier leaves no partial file behind.
    One scan and one encode cover every identifier; the per-identifier
    check runs only to name the first bad one."""
    ids = list(chain.from_iterable(pairs))
    text = "".join(ids)
    if "" not in ids and not any(c in text for c in _NOT_IN_IDENTIFIERS) and _encodes(text):
        return
    for i in range(0, len(ids), 2):
        _check_identifier(ids[i], "subject_id")
        _check_identifier(ids[i + 1], "session_id")


# -- raw event logs ----------------------------------------------------


# The most bytes of a raw-log line after its head: a code of 3 digits, two
# times of up to 20 characters (an int64's sign and 19 digits) and 3 ends.
_EVENT_BYTES = 46


def write_raw_log(dataset: Dataset, path: Path) -> None:
    """Write the raw log through `_write_rows`: each event's line is its
    session's `subject\tsession` head, then its code, press and release."""
    heads, head_lengths = _key_rows(dataset.session_keys(), "\t")
    events, bounds = dataset.events, dataset.event_offsets
    block = max(1, CHUNK_BYTES // (heads.shape[1] + _EVENT_BYTES))

    def blocks():
        for start in range(0, len(events), block):
            stop = min(start + block, len(events))
            # The sessions of the block's events, and each one's count of them.
            first = int(np.searchsorted(bounds, start, side="right")) - 1
            last = int(np.searchsorted(bounds, stop, side="left"))
            counts = np.diff(np.clip(bounds[first : last + 1], start, stop))
            lengths = np.repeat(head_lengths[first:last], counts)
            head = (np.repeat(heads[first:last, : lengths.max()], counts, axis=0), lengths, False)
            yield [head] + [(*_decimals(v), True) for v in events[start:stop].T]

    _write_rows(path, blocks())


def _key_rows(pairs: Sequence[tuple[str, str]], sep: str) -> tuple[np.ndarray, np.ndarray]:
    """The `_byte_rows` of each checked pair's `subject{sep}session` text."""
    _check_identifiers(pairs)
    return _byte_rows([f"{subject}{sep}{session}".encode() for subject, session in pairs])


def _byte_rows(texts: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """`texts` as the zero-padded rows of a uint8 matrix, and each one's
    length, from the bytes: a numpy bytes element drops trailing NULs."""
    rows = np.array(texts, dtype=bytes)
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    return rows.view(np.uint8).reshape(len(texts), rows.itemsize), lengths


def _write_rows(path: Path, blocks: Iterable[list[tuple[np.ndarray, np.ndarray, bool]]]) -> None:
    """Write `path` a block at a time, a line per row of a block's fields:
    each field's text, then a tab, or a newline after the last. A field is
    a uint8 matrix of a row per line, each row's text length, and whether it
    is padded before the text or after; a keep-mask over the columns where
    lengths vary drops the padding. Every block's text and keep-mask share
    one buffer, so a block does not wait for fresh pages from the allocator."""
    buffer = np.empty(0, np.uint8)
    with open(path, "wb") as fh:
        for fields in blocks:
            shape = (len(fields[0][1]), sum(f[0].shape[1] + 1 for f in fields))
            if buffer.size < 2 * shape[0] * shape[1]:
                buffer = np.empty(2 * shape[0] * shape[1], np.uint8)
            text, kept = buffer[: 2 * shape[0] * shape[1]].reshape(2, *shape)
            kept[:] = 1
            at = 0
            for rows, lengths, before in fields:
                width = rows.shape[1]
                text[:, at : at + width] = rows
                text[:, at + width] = ord("\t")
                # Byte j, from the side away from the padding, of texts longer than j.
                for j in range(lengths.min(), width):
                    kept[:, at + width - 1 - j if before else at + j] = lengths > j
                at += width + 1
            text[:, -1] = ord("\n")
            fh.write(text[kept.view(bool)])


def _decimals(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The text of int64 `values` as `str` writes it, right-aligned in the
    transposed view of a (width, n) byte matrix whose rows are character
    positions (bytes before a shorter text are left unset); and each text's
    length."""
    negative = values < 0
    # Two's complement: the magnitude of int64's minimum fits uint64.
    magnitude = values.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)
    shortest, digits = (len(str(bound)) for bound in (magnitude.min(), magnitude.max()))
    lengths = np.full(len(values), shortest) + negative
    for k in range(shortest, digits):
        lengths += magnitude >= 10**k
    width = int(lengths.max())
    text = np.empty((width, len(values)), np.uint8)
    # Digits from the last, out of uint32 parts of eight digits each.
    for k in range(digits):
        if k % 8 == 0:
            rest = magnitude // 10**8
            part = (magnitude - rest * 10**8).astype(np.uint32)
            magnitude = rest
        quotient = part // 10
        text[width - 1 - k] = part - quotient * 10
        part = quotient
    text[width - digits :] += ord("0")
    text[width - lengths[negative], negative] = ord("-")
    return text.T, lengths


def load_raw_log(path: Path) -> Dataset:
    with open(path, "rb") as fh:
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
    """Read a demographics file, `CHUNK_BYTES` at a time. Raises ParseError
    naming the first bad line, or the file when that line is not UTF-8."""
    mapping: dict[str, Demographics] = {}
    with open(path, "rb") as fh:
        for lineno, chunk in _line_chunks(fh):
            for number, line in enumerate(chunk.decode().split("\n"), start=lineno + 1):
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise ParseError(f"expected 3 tab-separated fields, got {len(fields)}", number)
                demo = _parse_demographics_fields(fields[1], fields[2], number)
                prior = mapping.setdefault(fields[0], demo)
                if prior != demo:
                    raise ParseError(
                        f"conflicting demographics for subject {fields[0]!r}", number
                    )
    return mapping


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


# -- comparison plans ---------------------------------------------------


# Each byte's kind code (0/1/2 for G/S/D, as in `KINDS`), or -1.
_KIND_CODES = np.full(256, -1, dtype=np.int8)
_KIND_CODES[[ord(kind.letter) for kind in KINDS]] = range(len(KINDS))


def write_comparisons(plan: ComparisonPlan, path: Path) -> None:
    """Write the plan through `_write_rows`: each line is its enrolment and
    verification `subject:session` keys, its kind letter and its slot."""
    keys, key_lengths = _key_rows(plan.sessions, ":")
    letters, letter_lengths = _byte_rows([kind.letter.encode() for kind in KINDS])
    # Lines per block, for slots of up to 20 characters.
    block = max(1, CHUNK_BYTES // (2 * keys.shape[1] + 26))

    def blocks():
        for start in range(0, len(plan), block):
            rows = slice(start, start + block)
            enrol, verif, kind = plan.enrol[rows], plan.verif[rows], plan.kind[rows]
            # `np.take` gathers byte-matrix rows several times faster than indexing.
            yield [
                (np.take(keys, enrol, axis=0), key_lengths[enrol], False),
                (np.take(keys, verif, axis=0), key_lengths[verif], False),
                (np.take(letters, kind, axis=0), letter_lengths[kind], False),
                (*_decimals(plan.slot[rows]), True),
            ]

    _write_rows(path, blocks())


def load_comparisons(path: Path) -> ComparisonPlan:
    """Read a comparison file.

    The file is read as bytes, `CHUNK_BYTES` at a time, and each chunk's
    lines are scanned with array operations; their columns are appended to
    typed buffers, which the plan's columns view. Keys are interned in a dict,
    so the session table lists each pair in order of first appearance.
    Raises ParseError with the line number of the first bad line, or
    naming the file when that line is not UTF-8.
    """
    table: dict[bytes, int] = {}  # b"subject:session" -> session-table row
    columns = array("q"), array("q"), array("b"), array("q")  # enrol, verif, kind, slot
    with open(path, "rb") as fh:
        for lineno, chunk in _line_chunks(fh):
            for column, values in zip(columns, _scan_comparison_lines(chunk, lineno, table)):
                column.frombytes(values.tobytes())
    sessions = tuple([
        (s, t) for s, _, t in map(str.partition, map(bytes.decode, table), repeat(":"))
    ])
    del table
    enrol, verif, kind, slot = (np.frombuffer(column, dtype=column.typecode) for column in columns)
    return ComparisonPlan(sessions, enrol, verif, kind, slot, subject_table(sessions))


def _scan_comparison_lines(
    chunk: bytes, lineno: int, table: dict[bytes, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The enrol and verif session-table rows, kinds and slots of the lines
    of `chunk`, numbered from `lineno + 1`; blank lines are skipped and new
    keys join `table`. The first bad line wins, and a line that fails
    several checks reports the first of field count, subject:session pair,
    kind and slot."""
    buf, starts, ends, numbers, tabs, error = _split_lines(chunk, lineno, 4)
    stop = len(ends)  # lines before `stop` passed every check so far
    before = len(table)
    rows = _intern(chunk, buf, np.stack([starts, tabs[:, 0] + 1], axis=1), tabs[:, :2], table)
    # A key equal to one already in the table has its colon, so only the
    # keys new to the table are checked; the first line holding one without
    # a colon is bad.
    unpaired = [
        row for row, key in zip(range(len(table) - 1, before - 1, -1), reversed(table))
        if b":" not in key
    ]
    if unpaired:
        stop = int(np.argmax((rows == min(unpaired)).any(axis=1)))
        error = ParseError("malformed subject:session pair", int(numbers[stop]))

    kind = _KIND_CODES[buf[tabs[:stop, 1] + 1]]
    known = (kind >= 0) & (tabs[:stop, 2] - tabs[:stop, 1] == 2)
    if not known.all():
        stop = int(np.argmin(known))
        token = chunk[tabs[stop, 1] + 1 : tabs[stop, 2]].decode()
        error = ParseError(f"unknown comparison kind {token!r}", int(numbers[stop]))

    slot, bulk = _bulk_integers(buf, tabs[:stop, 2] + 1, ends[:stop])
    for i in np.flatnonzero(~bulk).tolist():
        token = chunk[tabs[i, 2] + 1 : ends[i]].decode()
        try:
            slot[i] = int(token)
        except ValueError:
            stop, error = i, ParseError(f"non-integer slot {token!r}", int(numbers[i]))
            break
        except OverflowError:
            stop, error = i, ParseError(f"slot {token!r} outside 64 bits", int(numbers[i]))
            break
    if error is not None:
        raise error
    return rows[:, 0], rows[:, 1], kind, slot


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

    The file is read as bytes, `CHUNK_BYTES` at a time, and each chunk is
    decoded and its lines converted with one `float` map into a typed
    buffer, which the scores view. A line-by-line pass runs only to name
    the first bad line.
    """
    digest = None
    scores = array("d")
    with open(path, "rb") as fh:
        for lineno, chunk in _line_chunks(fh):
            if lineno == 0 and chunk.startswith(_STRICT_HEADER):
                header, _, chunk = chunk.partition(b"\n")
                digest = header[len(_STRICT_HEADER):].decode()
                lineno = 1
            scores.frombytes(_read_score_lines(chunk.decode().split("\n"), lineno).tobytes())
    return np.frombuffer(scores, dtype=np.float64), digest


def _read_score_lines(lines: list[str], lineno: int) -> np.ndarray:
    """The scores of `lines`, numbered from `lineno + 1`; blank lines are
    skipped."""
    tokens = list(filter(None, lines))
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
