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
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import (
    Dataset,
    Demographics,
    parse_raw_log,
    _parse_demographics_fields,
)
from .errors import AlignmentError, ConfigError, ParseError
from .protocol import Comparison, ComparisonKind, ComparisonPlan

STRICT_HEADER_PREFIX = "# comparisons_sha256="


def _check_identifier(value: str, what: str) -> str:
    if not value or any(c in value for c in "\t\n:"):
        raise ConfigError(f"{what} {value!r} is empty or contains tab/newline/colon")
    return value


def _check_identifiers(pairs: Iterable[tuple[str, str]]) -> None:
    """Check (subject_id, session_id) pairs. Writers call this before they
    open their file, so a bad identifier leaves no partial file behind."""
    for subject_id, session_id in pairs:
        _check_identifier(subject_id, "subject_id")
        _check_identifier(session_id, "session_id")


# -- raw event logs ----------------------------------------------------


def raw_log_lines(dataset: Dataset) -> Iterable[str]:
    """The raw log's text, one session's lines at a time (identifiers are
    not checked here; `write_raw_log` checks them)."""
    for subject in dataset.subjects:
        for session in subject.sessions:
            prefix = f"{subject.subject_id}\t{session.session_id}\t"
            yield "".join(
                f"{prefix}{code}\t{press}\t{release}\n"
                for code, press, release in session.events.tolist()
            )


def write_raw_log(dataset: Dataset, path: Path) -> None:
    _check_identifiers(
        (subject.subject_id, session.session_id)
        for subject in dataset.subjects
        for session in subject.sessions
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(raw_log_lines(dataset))


def load_raw_log(path: Path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_raw_log(fh)


# -- demographics sidecar ----------------------------------------------


def write_demographics(dataset: Dataset, path: Path) -> None:
    # Lines are built first, so a bad identifier leaves no partial file.
    lines = [
        f"{_check_identifier(s.subject_id, 'subject_id')}\t"
        f"{s.demographics.age_group.value}\t{s.demographics.gender.value}\n"
        for s in dataset.subjects
        if s.demographics is not None
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def load_demographics(path: Path) -> dict[str, Demographics]:
    mapping: dict[str, Demographics] = {}
    with open(path, "r", encoding="utf-8") as fh:
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


def write_comparisons(plan: ComparisonPlan, path: Path) -> None:
    _check_identifiers(plan.referenced_sessions())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for e in plan.entries:
            fh.write(
                f"{e.enrol_subject}:{e.enrol_session}\t"
                f"{e.verif_subject}:{e.verif_session}\t"
                f"{e.kind.letter}\t{e.score_index}\n"
            )


def load_comparisons(path: Path) -> ComparisonPlan:
    """Read a comparison file; enrolment indices are recovered from the
    order of appearance within each (subject, kind, slot) group."""
    entries: list[Comparison] = []
    occurrence: dict[tuple[str, ComparisonKind, int], int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ParseError(
                    f"expected 4 tab-separated fields, got {len(fields)}", lineno
                )
            try:
                enrol_subject, enrol_session = fields[0].split(":", 1)
                verif_subject, verif_session = fields[1].split(":", 1)
            except ValueError:
                raise ParseError(f"malformed subject:session pair", lineno) from None
            try:
                kind = ComparisonKind.from_letter(fields[2])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            try:
                slot = int(fields[3])
            except ValueError:
                raise ParseError(f"non-integer slot {fields[3]!r}", lineno) from None
            key = (enrol_subject, kind, slot)
            enrol_index = occurrence.get(key, 0)
            occurrence[key] = enrol_index + 1
            entries.append(
                Comparison(
                    enrol_subject,
                    enrol_session,
                    verif_subject,
                    verif_session,
                    kind,
                    slot,
                    enrol_index,
                )
            )
    return ComparisonPlan(tuple(entries))


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
    """Returns (scores, strict-mode digest or None)."""
    digest = None
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.rstrip("\n")
            if not line:
                continue
            if line.startswith(STRICT_HEADER_PREFIX):
                if lineno != 1:
                    raise ParseError("strict header must be the first line", lineno)
                digest = line[len(STRICT_HEADER_PREFIX):]
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ParseError(f"non-numeric score {line!r}", lineno) from None
    return np.asarray(values, dtype=np.float64), digest


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


def load_det_csv(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (thresholds, fmr, fnmr)."""
    thresholds, fmr, fnmr = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != "threshold,fmr,fnmr":
            raise ParseError(f"unexpected DET header {header!r}", 1)
        for lineno, line in enumerate(fh, start=2):
            fields = line.rstrip("\n").split(",")
            if len(fields) != 3:
                raise ParseError(f"expected 3 columns, got {len(fields)}", lineno)
            try:
                thresholds.append(float(fields[0]))
                fmr.append(float(fields[1]))
                fnmr.append(float(fields[2]))
            except ValueError:
                raise ParseError(f"non-numeric DET row {fields!r}", lineno) from None
    return np.asarray(thresholds), np.asarray(fmr), np.asarray(fnmr)


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


def load_sir_csv(path: Path) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Returns (labels, values, missing mask)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        labels = tuple(header[1:])
        n = len(labels)
        values = np.zeros((n, n))
        missing = np.zeros((n, n), dtype=bool)
        for i in range(n):
            fields = fh.readline().rstrip("\n").split(",")
            if len(fields) != n + 1 or fields[0] != labels[i]:
                raise ParseError(f"malformed matrix row {fields!r}", i + 2)
            for j, cell in enumerate(fields[1:]):
                if cell == "":
                    missing[i, j] = True
                else:
                    values[i, j] = float(cell)
    return labels, values, missing


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
