"""Verification-performance metrics: ROC/DET machinery, equal error rate,
miss rates at fixed false-match operating points, AUC, accuracy, and the
per-subject (threshold-adaptive) variants plus rank-1.

All rates are reported in percent. The acceptance rule everywhere is
"accept iff score >= threshold"; every metric is a rank statistic and is
therefore invariant under strictly increasing score transformations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .protocol import GENUINE, SIMILAR

FMR_TARGETS_PERCENT = (0.1, 1.0, 10.0)


@dataclass(frozen=True)
class RocCurve:
    """Exact step curve over the observed score multiset.

    Thresholds never decrease (`roc` lists each once) and include a
    sentinel below the minimum score (fmr=1, fnmr=0) and above the maximum
    (fmr=0, fnmr=1). Rates are fractions in [0, 1]; a stack has leading axes.
    """

    thresholds: np.ndarray
    fmr: np.ndarray
    fnmr: np.ndarray

    def __len__(self) -> int:
        return len(self.thresholds)


def _as_scores(values: Iterable[float], name: str) -> np.ndarray:
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=np.float64)
    if arr.size == 0:
        raise ValueError(f"{name} score list is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} scores contain non-finite values")
    return arr


def roc(genuine: Iterable[float], impostor: Iterable[float]) -> RocCurve:
    """Build the exact ROC/DET step curve.

    FMR(t) is the impostor fraction with score >= t, FNMR(t) the genuine
    fraction with score < t, evaluated at every observed score plus the
    two sentinels.
    """
    gen = np.sort(_as_scores(genuine, "genuine"))
    imp = np.sort(_as_scores(impostor, "impostor"))
    uniq = np.unique(np.concatenate([gen, imp]))
    thresholds = np.concatenate([[uniq[0] - 1.0], uniq, [uniq[-1] + 1.0]])
    fmr = (len(imp) - np.searchsorted(imp, thresholds, side="left")) / len(imp)
    fnmr = np.searchsorted(gen, thresholds, side="left") / len(gen)
    return RocCurve(thresholds=thresholds, fmr=fmr, fnmr=fnmr)


def eer(curve: RocCurve) -> tuple[float, float]:
    """Equal error rate (percent) and its threshold.

    Returns the exact step-curve crossing when FMR == FNMR at some
    threshold; otherwise interpolates linearly between the two bracketing
    points, which is also where the reported threshold lives.
    """
    value, threshold = _crossing(curve)
    return float(value), float(threshold)


def _crossing(curve: RocCurve) -> tuple[np.ndarray, np.ndarray]:
    """`eer` of each curve of a stack. A threshold may repeat: the crossing
    is found at its first copy, whose neighbour below is the next lower
    threshold, as on a curve without repeats."""
    i = np.argmax(curve.fnmr - curve.fmr >= 0.0, axis=-1)[..., None]
    f0, f1, n0, n1, t0, t1 = (
        np.take_along_axis(values, at, axis=-1)[..., 0]
        for values in (curve.fmr, curve.fnmr, curve.thresholds) for at in (i - 1, i)
    )
    s = (f0 - n0) / ((n1 - n0) - (f1 - f0))
    exact = n1 == f1
    return np.where(exact, f1, n0 + s * (n1 - n0)) * 100.0, np.where(exact, t1, t0 + s * (t1 - t0))


def operating_point(curve: RocCurve, x_percent: float) -> tuple[float, float]:
    """(threshold, FNMR percent) at the smallest threshold whose FMR does
    not exceed x percent.

    Conservative by construction: the realized FMR never exceeds the
    target.
    """
    if not 0 < x_percent <= 100:
        raise ValueError(f"x_percent {x_percent} outside (0, 100]")
    i = int(np.argmax(curve.fmr <= x_percent / 100.0))
    return float(curve.thresholds[i]), float(curve.fnmr[i]) * 100.0


def auc(genuine: Iterable[float], impostor: Iterable[float]) -> float:
    """Area under the ROC curve in percent.

    Equals the rank statistic P(genuine > impostor) + 0.5 P(equal) over
    all genuine x impostor pairs.
    """
    gen = _as_scores(genuine, "genuine")
    imp = np.sort(_as_scores(impostor, "impostor"))
    below = np.searchsorted(imp, gen, side="left")
    ties = np.searchsorted(imp, gen, side="right") - below
    total = float(below.sum()) + 0.5 * float(ties.sum())
    return total / (len(gen) * len(imp)) * 100.0


def accuracy_at(
    genuine: Iterable[float], impostor: Iterable[float], threshold: float
) -> float:
    """Fraction of correct decisions (percent) under accept iff score >= threshold."""
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    return float(_accuracy(
        _as_scores(genuine, "genuine"), _as_scores(impostor, "impostor"), threshold
    ))


def _accuracy(gen: np.ndarray, imp: np.ndarray, threshold: np.ndarray | float) -> np.ndarray:
    """`accuracy_at` along the last axis, at one threshold per row."""
    at = np.asarray(threshold)[..., None]
    correct = (gen >= at).sum(axis=-1) + (imp < at).sum(axis=-1)
    return correct / (gen.shape[-1] + imp.shape[-1]) * 100.0


@dataclass(frozen=True)
class GlobalMetrics:
    """Pooled single-threshold metrics, with the pooled curve they were read
    from (the DET file and the fairness operating threshold reuse it)."""

    curve: RocCurve
    eer: float
    eer_threshold: float
    fnmr_at_fmr: dict[float, float]
    auc: float
    accuracy: float


@dataclass(frozen=True)
class PerSubjectMetrics:
    eer: float
    auc: float
    accuracy: float
    rank1: float


@dataclass(frozen=True)
class MetricsReport:
    """Everything the evaluation stage reports, all rates in percent."""

    global_metrics: GlobalMetrics
    per_subject: PerSubjectMetrics

    def __post_init__(self) -> None:
        rates = [
            self.global_metrics.eer,
            self.global_metrics.auc,
            self.global_metrics.accuracy,
            *self.global_metrics.fnmr_at_fmr.values(),
            self.per_subject.eer,
            self.per_subject.auc,
            self.per_subject.accuracy,
            self.per_subject.rank1,
        ]
        for value in rates:
            if not 0.0 <= value <= 100.0:
                raise ValueError(f"rate {value} outside [0, 100]")


def pooled_scores(slot_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The genuine and the impostor scores of (subjects, 3, 10) slot scores,
    subject by subject; a subject's impostors run similar, then dissimilar."""
    return slot_scores[:, GENUINE].ravel(), slot_scores[:, SIMILAR:].ravel()


def global_metrics(slot_scores: np.ndarray) -> GlobalMetrics:
    """Single-threshold evaluation over the pooled score distributions."""
    genuine, impostor = pooled_scores(slot_scores)
    curve = roc(genuine, impostor)
    eer_value, eer_thr = eer(curve)
    return GlobalMetrics(
        curve=curve,
        eer=eer_value,
        eer_threshold=eer_thr,
        fnmr_at_fmr={x: operating_point(curve, x)[1] for x in FMR_TARGETS_PERCENT},
        auc=auc(genuine, impostor),
        accuracy=accuracy_at(genuine, impostor, eer_thr),
    )


def per_subject_metrics(slot_scores: np.ndarray) -> PerSubjectMetrics:
    """Subject-adaptive evaluation: EER/AUC/accuracy per subject (row of
    the slot scores), averaged in row order, every row at once.

    A row's curve is taken at its 30 scores, repeats kept, and the two
    sentinels. Accuracy uses each subject's own EER threshold. Rank-1 is
    the fraction of genuine attempts strictly exceeding all 20 of that
    subject's impostor scores.
    """
    if not len(slot_scores):
        raise ValueError("no subjects")
    slot_scores = _as_scores(slot_scores, "slot")
    genuine = slot_scores[:, GENUINE]
    impostor = slot_scores[:, SIMILAR:].reshape(len(slot_scores), -1)
    scores = np.sort(slot_scores.reshape(len(slot_scores), -1))
    at = np.concatenate([scores[:, :1] - 1.0, scores, scores[:, -1:] + 1.0], axis=1)[..., None]
    eers, eer_thresholds = _crossing(RocCurve(
        at[..., 0], (impostor[:, None] >= at).mean(axis=-1), (genuine[:, None] < at).mean(axis=-1)
    ))
    wins = genuine[:, :, None] > impostor[:, None]
    ties = genuine[:, :, None] == impostor[:, None]
    aucs = (wins.sum(axis=(1, 2)) + 0.5 * ties.sum(axis=(1, 2))) / wins[0].size * 100.0
    return PerSubjectMetrics(
        eer=float(np.mean(eers)),
        auc=float(np.mean(aucs)),
        accuracy=float(np.mean(_accuracy(genuine, impostor, eer_thresholds))),
        rank1=float((genuine > impostor.max(axis=1, keepdims=True)).mean()) * 100.0,
    )


def compute_metrics_report(slot_scores: np.ndarray) -> MetricsReport:
    return MetricsReport(
        global_metrics=global_metrics(slot_scores),
        per_subject=per_subject_metrics(slot_scores),
    )
