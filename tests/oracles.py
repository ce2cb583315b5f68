"""Independent brute-force reference implementations.

Every function here recomputes a metric straight from its definition,
counting comparisons over full outer products instead of reusing the
library's sort/cumsum machinery. Rates are formed as count / n and the
crossing interpolation uses the same arithmetic expressions as the
library, so agreement is expected to be bit-exact.
"""

from __future__ import annotations

import numpy as np


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
