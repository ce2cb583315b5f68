"""Demographic fairness metrics over the 12 (age bin, gender) groups.

Two operating points are in play: the accuracy-spread metrics (STD, SER)
use the global equal-error threshold, while the rate-gap metrics (FDR,
IR, GARBE) use the global threshold at the configured false-match target.
The skewed impostor rate (SIR) is threshold-free: it compares mean
impostor similarity within and across groups, per attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import ALL_GROUPS, GROUP_INDEX, AgeGroup, Demographics, Gender
from .errors import ConfigError, ProtocolError
from .protocol import GENUINE, KINDS, SIMILAR, ComparisonPlan, cell_means
from .verifmetrics import GlobalMetrics, accuracy_at, operating_point, pooled_scores


@dataclass(frozen=True)
class FairnessConfig:
    """alpha weights false-match gaps against false-non-match gaps
    (beta = 1 - alpha is implied)."""

    alpha: float = 0.5
    operating_fmr_percent: float = 1.0

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

    @property
    def excluded(self) -> list[str]:
        """The labels of the groups without subjects, left out of the spread."""
        return [group.label() for group in ALL_GROUPS if group not in self.per_group]


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

    @property
    def missing_cells(self) -> list[list[str]]:
        """The (enrolled, verification) labels of the cells without
        comparisons, row by row; the scalar skips the pairs they touch."""
        return [[self.labels[i], self.labels[j]] for i, j in np.argwhere(self.missing).tolist()]


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


def group_index(
    subject_ids: Sequence[str], demographics: Mapping[str, Demographics]
) -> np.ndarray:
    """Each subject's index into `ALL_GROUPS`; -1 for a subject without
    demographics."""
    return np.array([GROUP_INDEX.get(demographics.get(s), -1) for s in subject_ids], np.intp)


def _by_group(slot_scores: np.ndarray, groups: np.ndarray):
    """(group, its subjects' slot-score rows) for each populated group, in
    `ALL_GROUPS` order; `groups` holds each row's group index."""
    for index, group in enumerate(ALL_GROUPS):
        rows = slot_scores[groups == index]
        if len(rows):
            yield group, rows


def group_accuracy_spread(
    slot_scores: np.ndarray, groups: np.ndarray, eer_threshold: float
) -> SpreadReport:
    """Per-group verification accuracy at the global EER threshold, with
    its spread. Unpopulated groups are excluded (`SpreadReport.excluded`)."""
    per_group = {
        group: accuracy_at(*pooled_scores(rows), eer_threshold)
        for group, rows in _by_group(slot_scores, groups)
    }
    std, ser = accuracy_spread(list(per_group.values()))
    return SpreadReport(per_group=per_group, std=std, ser=ser)


def group_rates(slot_scores: np.ndarray, groups: np.ndarray, threshold: float) -> GroupRates:
    """Per-group FMR/FNMR at one global threshold (in the fairness report,
    the smallest keeping the pooled all-impostor FMR at or below the
    operating target). Group FMRs use similar impostors only; unpopulated
    groups are skipped."""
    rates: dict[Demographics, tuple[float, float]] = {}
    counts: dict[Demographics, int] = {}
    for group, rows in _by_group(slot_scores, groups):
        genuine, similar = rows[:, GENUINE], rows[:, SIMILAR]
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


def _epsilon(rates: GroupRates) -> float:
    # The smallest resolvable rate: one error in the largest group.
    if rates.impostor_counts:
        return 1.0 / max(rates.impostor_counts.values())
    return 1e-9


def inequity_rate(rates: GroupRates, config: FairnessConfig = FairnessConfig()) -> float:
    """Worst-case rate ratios: (max/min FMR)^alpha x (max/min FNMR)^(1-alpha).

    Rates are floored at epsilon so empty error counts cannot blow the
    ratios up to infinity.
    """
    _require_groups(rates)
    eps = _epsilon(rates)
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

# Impostor entries: enrolled groups, verification groups (indices into
# ALL_GROUPS) and scores, one element per impostor line.
ImpostorEntries = tuple[np.ndarray, np.ndarray, np.ndarray]


def _attribute_index(groups: np.ndarray, attribute: str) -> np.ndarray:
    # ALL_GROUPS runs over the genders within each age bin.
    return groups // len(Gender) if attribute == "age" else groups % len(Gender)


def impostor_score_entries(
    plan: ComparisonPlan,
    raw_scores: Sequence[float],
    demographics: Mapping[str, Demographics],
) -> ImpostorEntries:
    """The enrolled group, verification group and session-level score of
    every impostor line of the plan, in plan order.

    An S line must pair two subjects of one group and a D line two that
    differ in both age bin and gender; otherwise the plan and the
    demographics disagree (ProtocolError). When several lines are bad,
    the first one is reported.
    """
    if len(raw_scores) != len(plan):
        raise ValueError("raw_scores not aligned with plan")
    subject_ids, subject_of = plan.subjects
    group_of_subject = group_index(subject_ids, demographics)
    lines = np.flatnonzero(plan.kind != GENUINE)
    enrol = group_of_subject[subject_of[plan.enrol[lines]]]
    verif = group_of_subject[subject_of[plan.verif[lines]]]
    consistent = np.where(
        plan.kind[lines] == SIMILAR,
        enrol == verif,
        (_attribute_index(enrol, "age") != _attribute_index(verif, "age"))
        & (_attribute_index(enrol, "gender") != _attribute_index(verif, "gender")),
    )
    bad = np.flatnonzero((enrol < 0) | (verif < 0) | ~consistent)
    if bad.size:
        line = int(lines[bad[0]])
        names = [plan.sessions[plan.enrol[line]][0], plan.sessions[plan.verif[line]][0]]
        # A subject without demographics fails here, the enrolled one first.
        for name in names:
            if name not in demographics:
                raise ProtocolError(f"no demographics for subject {name!r}")
        raise ProtocolError(
            f"plan and demographics disagree: {KINDS[plan.kind[line]].letter} comparison of "
            f"{names[0]} ({demographics[names[0]].label()}) against "
            f"{names[1]} ({demographics[names[1]].label()})"
        )
    return enrol, verif, np.asarray(raw_scores, dtype=np.float64)[lines]


def otsu_threshold(values: np.ndarray) -> float:
    """Deterministic two-class threshold maximizing between-class variance.

    Candidates are midpoints between consecutive distinct values, or the
    right value where the midpoint rounds onto the left one; ties go to the
    smallest candidate. With fewer than two distinct values the single
    value is returned.
    """
    uniq = np.unique(values)
    if uniq.size < 2:
        return float(uniq[0])
    best_t, best_sep = float(uniq[0]), -1.0
    for left, right in zip(uniq, uniq[1:]):
        t = (left + right) / 2.0
        if t == left:
            t = right
        lower = values[values < t]
        upper = values[values >= t]
        w0, w1 = lower.size / values.size, upper.size / values.size
        sep = w0 * w1 * (lower.mean() - upper.mean()) ** 2
        if sep > best_sep:
            best_t, best_sep = t, sep
    return best_t


def sir(entries: ImpostorEntries, attribute: str) -> tuple[SirMatrix, float]:
    """Skewed impostor rate for one attribute ("age" or "gender").

    The matrix holds mean impostor similarity per ordered (enrolled,
    verification) group pair; the scalar averages |diagonal - off-diagonal|
    gaps along each row, in percent. Cells without comparisons are flagged
    missing (`SirMatrix.missing_cells`) and skipped.
    """
    if attribute not in _ATTRIBUTES:
        raise ValueError(f"attribute must be one of {sorted(_ATTRIBUTES)}")
    labels = _ATTRIBUTES[attribute]
    n = len(labels)
    enrol, verif = (np.asarray(column, dtype=np.intp) for column in entries[:2])

    cell = _attribute_index(enrol, attribute) * n + _attribute_index(verif, attribute)
    counts = np.bincount(cell, minlength=n * n)
    values = cell_means(entries[2], cell, counts).reshape(n, n)
    missing = (counts == 0).reshape(n, n)

    usable = ~(missing | missing.diagonal()[:, None] | np.eye(n, dtype=bool))
    if not usable.any():
        raise ValueError(f"SIR({attribute}): no group pairs with comparisons")
    scalar = 100.0 * float(np.mean(np.abs(values.diagonal()[:, None] - values)[usable]))

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
    slot_scores: np.ndarray,
    subject_ids: Sequence[str],
    plan: ComparisonPlan,
    raw_scores: Sequence[float],
    demographics: Mapping[str, Demographics],
    pooled: GlobalMetrics,
    config: FairnessConfig = FairnessConfig(),
) -> FairnessReport:
    """Every fairness output from `aggregate_scores`' subject ids and slot
    scores; `pooled` supplies the EER threshold and the pooled curve the
    operating-FMR threshold is read from."""
    # The plan is checked against the demographics before any group metric,
    # so every enrolled subject has a group.
    entries = impostor_score_entries(plan, raw_scores, demographics)
    groups = group_index(subject_ids, demographics)
    populated = [ALL_GROUPS[g].label() for g in np.unique(groups).tolist()]
    if len(populated) < 2:
        raise ProtocolError(
            "fairness metrics need at least 2 populated groups; the plan enrols "
            f"subjects of {', '.join(populated)} only"
        )
    spread = group_accuracy_spread(slot_scores, groups, pooled.eer_threshold)
    threshold, _ = operating_point(pooled.curve, config.operating_fmr_percent)
    rates = group_rates(slot_scores, groups, threshold)
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
