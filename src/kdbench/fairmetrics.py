"""Demographic fairness metrics over the 12 (age bin, gender) groups.

Two operating points are in play: the accuracy-spread metrics (STD, SER)
use the global equal-error threshold, while the rate-gap metrics (FDR,
IR, GARBE) use the global threshold at the configured false-match target.
The skewed impostor rate (SIR) is threshold-free: it compares mean
impostor similarity within and across groups, per attribute.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import AgeGroup, ALL_GROUPS, Demographics, Gender
from .errors import ConfigError, ProtocolError
from .protocol import ComparisonKind, ComparisonPlan, ScoreSet
from .verifmetrics import roc, threshold_at_fmr


@dataclass(frozen=True)
class FairnessConfig:
    """alpha weights false-match gaps against false-non-match gaps
    (beta = 1 - alpha is implied). epsilon_rate floors zero rates in the
    ratio metrics; by default it is 1 / (largest per-group impostor
    count), the smallest resolvable rate."""

    alpha: float = 0.5
    operating_fmr_percent: float = 1.0
    epsilon_rate: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha {self.alpha} outside [0, 1]")
        if not 0.0 < self.operating_fmr_percent < 100.0:
            raise ConfigError(
                f"operating_fmr_percent {self.operating_fmr_percent} outside (0, 100)"
            )


@dataclass(frozen=True)
class GroupRates:
    """Per-group (fmr, fnmr) fractions at one fixed global threshold.

    FMR comes from same-group (similar) impostor scores only, FNMR from
    genuine scores.
    """

    rates: dict[Demographics, tuple[float, float]]
    threshold: float
    impostor_counts: dict[Demographics, int] | None = None

    def fmrs(self) -> np.ndarray:
        return np.array([fmr for fmr, _ in self.rates.values()])

    def fnmrs(self) -> np.ndarray:
        return np.array([fnmr for _, fnmr in self.rates.values()])


@dataclass(frozen=True)
class SpreadReport:
    per_group: dict[Demographics, float]
    std: float
    ser: float


@dataclass(frozen=True)
class SirMatrix:
    """Mean impostor similarity per (enrolled group, verification group).

    `missing` flags cells with no comparisons; `binarized` thresholds the
    available entries with Otsu's method (value >= threshold).
    """

    attribute: str
    labels: tuple[str, ...]
    values: np.ndarray
    missing: np.ndarray
    binarized: np.ndarray
    binarize_threshold: float


def _group_of(demographics: Mapping[str, Demographics], subject_id: str) -> Demographics:
    try:
        return demographics[subject_id]
    except KeyError:
        raise ProtocolError(f"no demographics for subject {subject_id!r}") from None


def accuracy_spread(values: Sequence[float]) -> tuple[float, float]:
    """(STD, SER) of a set of per-group accuracies.

    STD is the sample standard deviation (divisor n - 1); SER is the ratio
    of the highest to the lowest accuracy.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise ValueError("need at least 2 group accuracies")
    std = float(arr.std(ddof=1))
    ser = float(arr.max() / arr.min())
    return std, ser


def group_accuracy_spread(
    score_sets: Sequence[ScoreSet],
    demographics: Mapping[str, Demographics],
    eer_threshold: float,
) -> SpreadReport:
    """Per-group verification accuracy at the global EER threshold, with
    its spread. Unpopulated groups are excluded with a warning."""
    by_group: dict[Demographics, list[ScoreSet]] = {g: [] for g in ALL_GROUPS}
    for s in score_sets:
        by_group[_group_of(demographics, s.subject_id)].append(s)

    per_group: dict[Demographics, float] = {}
    for group, members in by_group.items():
        if not members:
            warnings.warn(f"group {group.label()} has no subjects; excluded from spread")
            continue
        genuine = np.array([v for s in members for v in s.genuine])
        impostor = np.array([v for s in members for v in s.impostor()])
        correct = int((genuine >= eer_threshold).sum()) + int(
            (impostor < eer_threshold).sum()
        )
        per_group[group] = correct / (len(genuine) + len(impostor)) * 100.0

    std, ser = accuracy_spread(list(per_group.values()))
    return SpreadReport(per_group=per_group, std=std, ser=ser)


def group_rates(
    score_sets: Sequence[ScoreSet],
    demographics: Mapping[str, Demographics],
    config: FairnessConfig = FairnessConfig(),
) -> GroupRates:
    """Per-group FMR/FNMR at the global operating-FMR threshold.

    The threshold is the smallest one keeping the pooled (all-impostor)
    FMR at or below the target; group FMRs then use similar impostors
    only.
    """
    genuine_all = np.array([v for s in score_sets for v in s.genuine])
    impostor_all = np.array([v for s in score_sets for v in s.impostor()])
    curve = roc(genuine_all, impostor_all)
    threshold = threshold_at_fmr(curve, config.operating_fmr_percent)

    by_group: dict[Demographics, list[ScoreSet]] = {}
    for s in score_sets:
        by_group.setdefault(_group_of(demographics, s.subject_id), []).append(s)

    rates: dict[Demographics, tuple[float, float]] = {}
    counts: dict[Demographics, int] = {}
    for group in ALL_GROUPS:
        members = by_group.get(group)
        if not members:
            continue
        genuine = np.array([v for s in members for v in s.genuine])
        similar = np.array([v for s in members for v in s.similar])
        if similar.size == 0:
            raise ValueError(f"group {group.label()} has no impostor scores")
        rates[group] = (
            float((similar >= threshold).mean()),
            float((genuine < threshold).mean()),
        )
        counts[group] = int(similar.size)
    return GroupRates(rates=rates, threshold=threshold, impostor_counts=counts)


def fdr(rates: GroupRates, config: FairnessConfig = FairnessConfig()) -> float:
    """Fairness discrepancy rate: 100 is perfectly fair.

    100 x (1 - [alpha * max FMR gap + (1 - alpha) * max FNMR gap]).
    """
    _require_groups(rates)
    fmr_gap = float(rates.fmrs().max() - rates.fmrs().min())
    fnmr_gap = float(rates.fnmrs().max() - rates.fnmrs().min())
    return 100.0 * (1.0 - (config.alpha * fmr_gap + (1.0 - config.alpha) * fnmr_gap))


def _epsilon(rates: GroupRates, config: FairnessConfig) -> float:
    if config.epsilon_rate is not None:
        return config.epsilon_rate
    if rates.impostor_counts:
        return 1.0 / max(rates.impostor_counts.values())
    return 1e-9


def inequity_rate(rates: GroupRates, config: FairnessConfig = FairnessConfig()) -> float:
    """Worst-case rate ratios: (max/min FMR)^alpha x (max/min FNMR)^(1-alpha).

    Rates are floored at epsilon so empty error counts cannot blow the
    ratios up to infinity.
    """
    _require_groups(rates)
    eps = _epsilon(rates, config)
    fmrs = np.maximum(rates.fmrs(), eps)
    fnmrs = np.maximum(rates.fnmrs(), eps)
    return float(
        (fmrs.max() / fmrs.min()) ** config.alpha
        * (fnmrs.max() / fnmrs.min()) ** (1.0 - config.alpha)
    )


def gini(values: Sequence[float]) -> float:
    """Gini coefficient with the small-sample n/(n-1) correction.

    Defined as 0 when the mean is 0 (all rates zero means nothing to
    redistribute).
    """
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    if n < 2:
        raise ValueError("gini needs at least 2 values")
    mean = arr.mean()
    if mean == 0.0:
        return 0.0
    pairwise = np.abs(arr[:, None] - arr[None, :]).sum()
    return float((n / (n - 1)) * pairwise / (2.0 * n * n * mean))


def garbe(rates: GroupRates, config: FairnessConfig = FairnessConfig()) -> float:
    """Gini-aggregated rate inequality: alpha-weighted mix of the FMR and
    FNMR Gini coefficients; 0 is perfectly fair."""
    _require_groups(rates)
    return config.alpha * gini(rates.fmrs()) + (1.0 - config.alpha) * gini(
        rates.fnmrs()
    )


def _require_groups(rates: GroupRates) -> None:
    if len(rates.rates) < 2:
        raise ValueError("fairness metrics need at least 2 populated groups")


_ATTRIBUTES = {
    "age": tuple(a.value for a in AgeGroup),
    "gender": tuple(g.value for g in Gender),
}


def _attribute_value(demo: Demographics, attribute: str) -> str:
    return demo.age_group.value if attribute == "age" else demo.gender.value


def impostor_score_entries(
    plan: ComparisonPlan,
    raw_scores: Sequence[float],
    demographics: Mapping[str, Demographics],
) -> list[tuple[Demographics, Demographics, float]]:
    """(enrolled demographics, verification demographics, score) for every
    impostor entry of the plan, aligned with the session-level scores."""
    if len(raw_scores) != len(plan.entries):
        raise ValueError("raw_scores not aligned with plan")
    out = []
    for entry, score in zip(plan.entries, raw_scores):
        if entry.kind is ComparisonKind.GENUINE:
            continue
        out.append(
            (
                _group_of(demographics, entry.enrol_subject),
                _group_of(demographics, entry.verif_subject),
                float(score),
            )
        )
    return out


def otsu_threshold(values: np.ndarray) -> float:
    """Deterministic two-class threshold maximizing between-class variance.

    Candidates are midpoints between consecutive distinct values; ties go
    to the smallest candidate. With fewer than two distinct values the
    single value is returned.
    """
    uniq = np.unique(values)
    if uniq.size < 2:
        return float(uniq[0])
    best_t, best_sep = float(uniq[0]), -1.0
    for left, right in zip(uniq, uniq[1:]):
        t = (left + right) / 2.0
        lower = values[values < t]
        upper = values[values >= t]
        w0, w1 = lower.size / values.size, upper.size / values.size
        sep = w0 * w1 * (lower.mean() - upper.mean()) ** 2
        if sep > best_sep:
            best_t, best_sep = t, sep
    return best_t


def sir(
    entries: Iterable[tuple[Demographics, Demographics, float]],
    attribute: str,
) -> tuple[SirMatrix, float]:
    """Skewed impostor rate for one attribute ("age" or "gender").

    The matrix holds mean impostor similarity per ordered (enrolled,
    verification) group pair; the scalar averages |diagonal - off-diagonal|
    gaps along each row, in percent. Cells without comparisons are flagged
    missing and skipped with a warning.
    """
    if attribute not in _ATTRIBUTES:
        raise ValueError(f"attribute must be one of {sorted(_ATTRIBUTES)}")
    labels = _ATTRIBUTES[attribute]
    n = len(labels)
    index = {label: i for i, label in enumerate(labels)}

    cells: list[list[list[float]]] = [[[] for _ in range(n)] for _ in range(n)]
    for enrol_demo, verif_demo, score in entries:
        i = index[_attribute_value(enrol_demo, attribute)]
        j = index[_attribute_value(verif_demo, attribute)]
        cells[i][j].append(score)

    missing = np.array([[not cells[i][j] for j in range(n)] for i in range(n)])
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if cells[i][j]:
                # fsum keeps the cell mean independent of entry order.
                values[i, j] = math.fsum(cells[i][j]) / len(cells[i][j])

    gaps = []
    skipped = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if missing[i, i] or missing[i, j]:
                skipped += 1
                continue
            gaps.append(abs(values[i, i] - values[i, j]))
    if skipped:
        warnings.warn(
            f"SIR({attribute}): {skipped} ordered group pair(s) have no "
            "comparisons; scalar computed over available pairs"
        )
    if not gaps:
        raise ValueError(f"SIR({attribute}): no group pairs with comparisons")
    scalar = 100.0 * float(np.mean(gaps))

    available = values[~missing]
    threshold = otsu_threshold(available)
    binarized = np.where(missing, False, values >= threshold)
    matrix = SirMatrix(
        attribute=attribute,
        labels=labels,
        values=values,
        missing=missing,
        binarized=binarized,
        binarize_threshold=threshold,
    )
    return matrix, scalar


@dataclass(frozen=True)
class FairnessReport:
    """All fairness outputs in one bundle (rates in percent where noted)."""

    spread: SpreadReport
    rates: GroupRates
    fdr: float
    inequity_rate: float
    garbe: float
    sir_age: float
    sir_gender: float
    sir_age_matrix: SirMatrix
    sir_gender_matrix: SirMatrix


def compute_fairness_report(
    score_sets: Sequence[ScoreSet],
    demographics: Mapping[str, Demographics],
    plan: ComparisonPlan,
    raw_scores: Sequence[float],
    eer_threshold: float,
    config: FairnessConfig = FairnessConfig(),
) -> FairnessReport:
    spread = group_accuracy_spread(score_sets, demographics, eer_threshold)
    rates = group_rates(score_sets, demographics, config)
    entries = impostor_score_entries(plan, raw_scores, demographics)
    age_matrix, sir_age = sir(entries, "age")
    gender_matrix, sir_gender = sir(entries, "gender")
    return FairnessReport(
        spread=spread,
        rates=rates,
        fdr=fdr(rates, config),
        inequity_rate=inequity_rate(rates, config),
        garbe=garbe(rates, config),
        sir_age=sir_age,
        sir_gender=sir_gender,
        sir_age_matrix=age_matrix,
        sir_gender_matrix=gender_matrix,
    )
