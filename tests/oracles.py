"""Independent brute-force reference implementations.

Every metric function here recomputes a metric straight from its
definition, counting comparisons over full outer products instead of
reusing the library's sort/cumsum machinery. Rates are formed as count / n
and the crossing interpolation uses the same arithmetic expressions as the
library, so agreement is expected to be bit-exact. The comparison-file
reader is the per-line loader the chunked one replaced, and the session
embedder is the one-session-at-a-time path the block embedder replaced.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from kdbench.core import CODE, PRESS, RELEASE, Session
from kdbench.errors import ParseError
from kdbench.features import ASCII_CHANNEL, FeatureConfig, order_insensitive_mean_std
from kdbench.protocol import KINDS, Comparison, ComparisonKind, ComparisonPlan


def sweep_rates(
    genuine: np.ndarray, impostor: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(thresholds, fmr, fnmr) by direct counting at every threshold."""
    uniq = np.unique(np.concatenate([genuine, impostor]))
    thresholds = np.concatenate([[uniq[0] - 1.0], uniq, [uniq[-1] + 1.0]])
    fmr = (impostor[None, :] >= thresholds[:, None]).sum(axis=1) / len(impostor)
    fnmr = (genuine[None, :] < thresholds[:, None]).sum(axis=1) / len(genuine)
    return thresholds, fmr, fnmr


def eer_brute(genuine: np.ndarray, impostor: np.ndarray) -> tuple[float, float]:
    thresholds, fmr, fnmr = sweep_rates(genuine, impostor)
    i = 0
    while fnmr[i] < fmr[i]:
        i += 1
    if fnmr[i] == fmr[i]:
        return float(fmr[i]) * 100.0, float(thresholds[i])
    f0, f1 = float(fmr[i - 1]), float(fmr[i])
    n0, n1 = float(fnmr[i - 1]), float(fnmr[i])
    t0, t1 = float(thresholds[i - 1]), float(thresholds[i])
    s = (f0 - n0) / ((n1 - n0) - (f1 - f0))
    value = n0 + s * (n1 - n0)
    threshold = t0 + s * (t1 - t0)
    return value * 100.0, threshold


def fnmr_at_fmr_brute(
    genuine: np.ndarray, impostor: np.ndarray, x_percent: float
) -> float:
    thresholds, fmr, fnmr = sweep_rates(genuine, impostor)
    for i in range(len(thresholds)):
        if fmr[i] <= x_percent / 100.0:
            return float(fnmr[i]) * 100.0
    raise AssertionError("unreachable: the top sentinel has fmr == 0")


def auc_brute(genuine: np.ndarray, impostor: np.ndarray) -> float:
    wins = (genuine[:, None] > impostor[None, :]).sum()
    ties = (genuine[:, None] == impostor[None, :]).sum()
    total = float(wins) + 0.5 * float(ties)
    return total / (len(genuine) * len(impostor)) * 100.0


def accuracy_brute(
    genuine: np.ndarray, impostor: np.ndarray, threshold: float
) -> float:
    correct = sum(1 for s in genuine if s >= threshold)
    correct += sum(1 for s in impostor if s < threshold)
    return correct / (len(genuine) + len(impostor)) * 100.0


def rank1_brute(score_sets) -> float:
    hits = 0
    attempts = 0
    for s in score_sets:
        worst_case = max(s.impostor())
        for g in s.genuine:
            attempts += 1
            if g > worst_case:
                hits += 1
    return hits / attempts * 100.0


def group_rates_brute(score_sets, demographics, threshold):
    """group -> (fmr over similar impostors, fnmr over genuine)."""
    by_group: dict = {}
    for s in score_sets:
        by_group.setdefault(demographics[s.subject_id], []).append(s)
    out = {}
    for group, members in by_group.items():
        similar = [v for s in members for v in s.similar]
        genuine = [v for s in members for v in s.genuine]
        fmr = sum(1 for v in similar if v >= threshold) / len(similar)
        fnmr = sum(1 for v in genuine if v < threshold) / len(genuine)
        out[group] = (fmr, fnmr)
    return out


def plan_of_rows(rows: Iterable[Comparison]) -> ComparisonPlan:
    """The columnar plan of `Comparison` rows; its session table lists each
    (subject, session) in order of first appearance."""
    table: dict[tuple[str, str], int] = {}
    columns: list[list[int]] = [[], [], [], [], []]
    for row in rows:
        enrol = table.setdefault((row.enrol_subject, row.enrol_session), len(table))
        verif = table.setdefault((row.verif_subject, row.verif_session), len(table))
        values = (enrol, verif, KINDS.index(row.kind), row.score_index, row.enrol_index)
        for column, value in zip(columns, values):
            column.append(value)
    return ComparisonPlan(tuple(table), *(np.array(c, dtype=np.int64) for c in columns))


def load_comparisons_per_line(path) -> list[Comparison]:
    """A comparison file's rows, one line at a time; enrolment indices are
    recovered from the order of appearance within each (subject, kind,
    slot) group."""
    entries: list[Comparison] = []
    occurrence: dict[tuple[str, ComparisonKind, int], int] = {}
    letters = {kind.letter: kind for kind in ComparisonKind}
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
                raise ParseError("malformed subject:session pair", lineno) from None
            if fields[2] not in letters:
                raise ParseError(f"unknown comparison kind {fields[2]!r}", lineno)
            kind = letters[fields[2]]
            try:
                slot = int(fields[3])
            except ValueError:
                raise ParseError(f"non-integer slot {fields[3]!r}", lineno) from None
            key = (enrol_subject, kind, slot)
            enrol_index = occurrence.get(key, 0)
            occurrence[key] = enrol_index + 1
            entries.append(
                Comparison(
                    enrol_subject, enrol_session, verif_subject, verif_session,
                    kind, slot, enrol_index,
                )
            )
    return entries


def features_per_session(session: Session, config: FeatureConfig) -> np.ndarray:
    """The (n, channels) rows of one session, truncated to max_len, built
    from one temporary column per channel."""
    if len(session.events) == 0:
        raise ValueError(f"session {session.session_id} has no events")
    events = session.events[: config.max_len]
    n = len(events)
    press, release = events[:, PRESS], events[:, RELEASE]

    def lookahead(target: np.ndarray, base: np.ndarray, k: int) -> np.ndarray:
        col = np.zeros(n)
        if n > k:
            col[: n - k] = (target[k:] - base[: n - k]) / 1000.0
        return col

    columns = {"ht": (release - press) / 1000.0}
    for k in (1, 2, 3):
        suffix = "" if k == 1 else str(k)
        columns[f"ipt{suffix}"] = lookahead(press, press, k)
        columns[f"irt{suffix}"] = lookahead(release, release, k)
        columns[f"ikt{suffix}"] = lookahead(press, release, k)
    out = np.zeros((n, config.feature_set.n_channels))
    clip = config.clip_seconds
    for j, name in enumerate(config.feature_set.channels):
        if name == ASCII_CHANNEL:
            out[:, j] = events[:, CODE] / 255.0
        else:
            out[:, j] = np.clip(columns[name], -clip, clip)
    return out


def raw_embeddings_per_session(sessions, config: FeatureConfig) -> np.ndarray:
    """One summary row (per channel: mean, std, median, p25, p75) per
    session, each from its own `np.percentile` call."""
    vectors = []
    for session in sessions:
        rows = features_per_session(session, config)
        p25, median, p75 = np.percentile(rows, [25.0, 50.0, 75.0], axis=0)
        stats = np.stack([rows.mean(axis=0), rows.std(axis=0), median, p25, p75], axis=1)
        vectors.append(stats.reshape(-1))
    return np.stack(vectors)


def normalization_per_session(sessions, config: FeatureConfig, floor: float):
    """(mean, std) per embedding coordinate, stds floored at `floor`."""
    stacked = raw_embeddings_per_session(sessions, config)
    stats = [order_insensitive_mean_std(stacked[:, j]) for j in range(stacked.shape[1])]
    return (
        np.array([m for m, _ in stats]),
        np.maximum(np.array([s for _, s in stats]), floor),
    )


def embed_per_session(sessions, config: FeatureConfig, mean, std) -> np.ndarray:
    """z-normalized embeddings, one session at a time."""
    return np.stack(
        [(raw - mean) / std for raw in raw_embeddings_per_session(sessions, config)]
    )
