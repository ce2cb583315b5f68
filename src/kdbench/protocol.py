"""Open-set evaluation protocol: splits, the 1vs1 comparison plan, and
aggregation of raw comparison scores into per-subject score sets.

Every protocol subject contributes 150 session-level comparisons: its 10
verification sessions against its 5 enrolment sessions (genuine), plus 10
same-group impostor sessions and 10 impostor sessions differing in both
age bin and gender, each also compared against the 5 enrolment sessions.
"""

from __future__ import annotations

import gc
import hashlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import AgeGroup, Dataset, Demographics, Session, Subject, validate_subject
from .errors import AlignmentError, ConfigError, ProtocolError

ENROL_SESSIONS = 5
VERIF_SESSIONS = 10
SLOTS_PER_KIND = 10  # genuine, similar, and dissimilar scores per subject
ENTRIES_PER_SUBJECT = 150


class ComparisonKind(Enum):
    GENUINE = "genuine"
    SIMILAR = "similar"
    DISSIMILAR = "dissimilar"

    @property
    def letter(self) -> str:
        return self.value[0].upper()

    @classmethod
    def from_letter(cls, letter: str) -> "ComparisonKind":
        for kind in cls:
            if kind.letter == letter:
                return kind
        raise ValueError(f"unknown comparison kind {letter!r}")


@dataclass(frozen=True, slots=True)
class Comparison:
    enrol_subject: str
    enrol_session: str
    verif_subject: str
    verif_session: str
    kind: ComparisonKind
    score_index: int
    enrol_index: int


@dataclass(frozen=True)
class ComparisonPlan:
    entries: tuple[Comparison, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def subject_ids(self) -> list[str]:
        seen: dict[str, None] = {}
        for entry in self.entries:
            seen.setdefault(entry.enrol_subject)
        return list(seen)

    def referenced_sessions(self) -> set[tuple[str, str]]:
        refs = set()
        for e in self.entries:
            refs.add((e.enrol_subject, e.enrol_session))
            refs.add((e.verif_subject, e.verif_session))
        return refs


@dataclass(frozen=True)
class ScoreSet:
    """Aggregated similarity scores for one subject: 10 genuine, 10 similar
    impostor, 10 dissimilar impostor. Higher means more likely the same
    subject."""

    subject_id: str
    genuine: tuple[float, ...]
    similar: tuple[float, ...]
    dissimilar: tuple[float, ...]

    def __post_init__(self) -> None:
        for name, values in (
            ("genuine", self.genuine),
            ("similar", self.similar),
            ("dissimilar", self.dissimilar),
        ):
            if len(values) != SLOTS_PER_KIND:
                raise ValueError(
                    f"{name} must hold {SLOTS_PER_KIND} scores, got {len(values)}"
                )

    def impostor(self) -> tuple[float, ...]:
        return self.similar + self.dissimilar


@dataclass(frozen=True)
class SplitConfig:
    """Development/evaluation split parameters.

    Exactly one of eval_count / eval_fraction must be set. With
    gender_balance on, the evaluation set holds equal male/female counts
    within every age bin; an odd target size is floored to the next even
    number.
    """

    seed: int
    eval_count: int | None = None
    eval_fraction: float | None = None
    gender_balance: bool = True

    def __post_init__(self) -> None:
        if (self.eval_count is None) == (self.eval_fraction is None):
            raise ConfigError("set exactly one of eval_count / eval_fraction")
        if self.eval_fraction is not None and not 0 < self.eval_fraction < 1:
            raise ConfigError(f"eval_fraction {self.eval_fraction} outside (0, 1)")
        if self.eval_count is not None and self.eval_count < 1:
            raise ConfigError(f"eval_count must be positive, got {self.eval_count}")


def _subject_stream(seed: int, subject_id: str) -> np.random.Generator:
    # Stable per-subject stream: independent of dataset iteration order and
    # of how many other subjects exist.
    digest = hashlib.blake2b(subject_id.encode("utf-8"), digest_size=8).digest()
    return np.random.default_rng(
        np.random.SeedSequence([seed, int.from_bytes(digest, "big")])
    )


def _require_protocol_ready(dataset: Dataset) -> None:
    for subject in dataset.subjects:
        if subject.demographics is None:
            raise ProtocolError(f"subject {subject.subject_id} has no demographics")
        issues = validate_subject(subject)
        if issues:
            raise ProtocolError(
                f"subject {subject.subject_id} not protocol-eligible: " + "; ".join(issues)
            )


def split_dataset(dataset: Dataset, config: SplitConfig) -> tuple[Dataset, Dataset]:
    """Partition subjects into disjoint development and evaluation sets.

    Proportional (largest-remainder) allocation decides how many
    gender-balanced pairs each age bin contributes; within a bin the
    concrete subjects are drawn from a seeded shuffle and the excess stays
    in development.
    """
    _require_protocol_ready(dataset)
    n = len(dataset.subjects)
    if config.eval_count is not None:
        eval_count = config.eval_count
    else:
        eval_count = round(config.eval_fraction * n)
    if eval_count >= n:
        raise ConfigError(f"evaluation size {eval_count} must be < dataset size {n}")
    if eval_count < 1:
        raise ConfigError("evaluation size must be at least 1")

    if not config.gender_balance:
        rng = np.random.default_rng(np.random.SeedSequence([config.seed]))
        chosen = set(rng.choice(n, size=eval_count, replace=False).tolist())
        return _partition(dataset, chosen)

    pairs_total = eval_count // 2
    if pairs_total < 1:
        raise ConfigError("gender-balanced split needs an evaluation size of >= 2")

    bins: dict[AgeGroup, dict[str, list[int]]] = {
        age: {"M": [], "F": []} for age in AgeGroup
    }
    for idx, subject in enumerate(dataset.subjects):
        demo = subject.demographics
        bins[demo.age_group][demo.gender.value].append(idx)

    quotas = _largest_remainder_quotas(
        [len(b["M"]) + len(b["F"]) for b in bins.values()], pairs_total
    )
    chosen: set[int] = set()
    for bin_index, (age, members) in enumerate(bins.items()):
        k = quotas[bin_index]
        if k == 0:
            continue
        if k > min(len(members["M"]), len(members["F"])):
            raise ProtocolError(
                f"age bin {age.value}: needs {k} subjects per gender, has "
                f"{len(members['M'])} male / {len(members['F'])} female"
            )
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, bin_index]))
        for gender in ("M", "F"):
            order = rng.permutation(len(members[gender]))
            chosen.update(members[gender][i] for i in order[:k])
    return _partition(dataset, chosen)


def _largest_remainder_quotas(sizes: list[int], total: int) -> list[int]:
    population = sum(sizes)
    if population == 0:
        raise ProtocolError("dataset has no demographically labeled subjects")
    exact = [total * s / population for s in sizes]
    quotas = [math.floor(x) for x in exact]
    remainder = total - sum(quotas)
    by_fraction = sorted(
        range(len(sizes)), key=lambda i: (quotas[i] - exact[i], i)
    )
    for i in by_fraction[:remainder]:
        quotas[i] += 1
    return quotas


def _partition(dataset: Dataset, eval_indices: set[int]) -> tuple[Dataset, Dataset]:
    dev = tuple(s for i, s in enumerate(dataset.subjects) if i not in eval_indices)
    ev = tuple(s for i, s in enumerate(dataset.subjects) if i in eval_indices)
    return Dataset(dev), Dataset(ev)


def chronological_sessions(subject: Subject) -> list[Session]:
    return sorted(subject.sessions, key=lambda s: (s.start_ms(), s.session_id))


def build_comparison_plan(evaluation: Dataset, seed: int) -> ComparisonPlan:
    """Construct the full 1vs1 comparison list for an evaluation set.

    Enrolment is the first 5 sessions in chronological order, verification
    the remaining 10. Similar impostors come from the subject's own (age
    bin, gender) group, dissimilar impostors from subjects differing in
    both attributes. Sampling is seeded per subject, so the plan does not
    depend on iteration order.
    """
    _require_protocol_ready(evaluation)
    subjects = evaluation.subjects

    groups: dict[Demographics, list[int]] = {}
    for idx, subject in enumerate(subjects):
        groups.setdefault(subject.demographics, []).append(idx)
    for demo, members in groups.items():
        if len(members) < 2:
            raise ProtocolError(
                f"group {demo.label()} has only {len(members)} subject(s); "
                "similar impostors need at least 2"
            )
    dissimilar_pool: dict[Demographics, list[int]] = {
        demo: [
            idx
            for idx, s in enumerate(subjects)
            if s.demographics.age_group != demo.age_group
            and s.demographics.gender != demo.gender
        ]
        for demo in groups
    }

    sessions_by_idx = [chronological_sessions(s) for s in subjects]
    entries: list[Comparison] = []
    # Millions of small acyclic entries are allocated below; keeping the
    # cyclic collector out of the loop roughly halves construction time on
    # full-scale plans.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _build_entries(subjects, sessions_by_idx, groups, dissimilar_pool, seed, entries)
    finally:
        if gc_was_enabled:
            gc.enable()
    return ComparisonPlan(tuple(entries))


def _build_entries(
    subjects: tuple[Subject, ...],
    sessions_by_idx: list[list[Session]],
    groups: dict[Demographics, list[int]],
    dissimilar_pool: dict[Demographics, list[int]],
    seed: int,
    entries: list[Comparison],
) -> None:
    for idx, subject in enumerate(subjects):
        demo = subject.demographics
        if not dissimilar_pool[demo]:
            raise ProtocolError(
                f"subject {subject.subject_id}: no subject differs in both "
                "gender and age bin"
            )
        ordered = sessions_by_idx[idx]
        enrol = ordered[:ENROL_SESSIONS]
        verif = ordered[ENROL_SESSIONS:]
        rng = _subject_stream(seed, subject.subject_id)

        for v_idx, verif_session in enumerate(verif):
            for e_idx, enrol_session in enumerate(enrol):
                entries.append(
                    Comparison(
                        subject.subject_id,
                        enrol_session.session_id,
                        subject.subject_id,
                        verif_session.session_id,
                        ComparisonKind.GENUINE,
                        v_idx,
                        e_idx,
                    )
                )

        similar_candidates = [i for i in groups[demo] if i != idx]
        for kind, pool in (
            (ComparisonKind.SIMILAR, similar_candidates),
            (ComparisonKind.DISSIMILAR, dissimilar_pool[demo]),
        ):
            for slot, (imp_idx, sess_idx) in enumerate(
                _draw_impostors(rng, pool, sessions_by_idx)
            ):
                impostor = subjects[imp_idx]
                impostor_session = sessions_by_idx[imp_idx][sess_idx]
                for e_idx, enrol_session in enumerate(enrol):
                    entries.append(
                        Comparison(
                            subject.subject_id,
                            enrol_session.session_id,
                            impostor.subject_id,
                            impostor_session.session_id,
                            kind,
                            slot,
                            e_idx,
                        )
                    )


def _draw_impostors(
    rng: np.random.Generator,
    pool: list[int],
    sessions_by_idx: list[list[Session]],
) -> list[tuple[int, int]]:
    """Pick 10 (subject index, session index) impostor pairs.

    Distinct subjects when the pool allows it; otherwise distinct
    (subject, session) pairs with subject reuse.
    """
    if len(pool) >= SLOTS_PER_KIND:
        picked = rng.choice(len(pool), size=SLOTS_PER_KIND, replace=False)
        counts = np.array([len(sessions_by_idx[pool[i]]) for i in picked])
        session_picks = rng.integers(counts)
        return [
            (pool[i], int(s)) for i, s in zip(picked, session_picks)
        ]
    pairs = [
        (subject_idx, sess_idx)
        for subject_idx in pool
        for sess_idx in range(len(sessions_by_idx[subject_idx]))
    ]
    picked = rng.choice(len(pairs), size=SLOTS_PER_KIND, replace=False)
    return [pairs[i] for i in picked]


def aggregate_scores(
    plan: ComparisonPlan, raw_scores: "np.ndarray | list[float]"
) -> list[ScoreSet]:
    """Average each slot's 5 enrolment comparisons into one score.

    Yields one ScoreSet per subject (10 genuine + 10 similar + 10
    dissimilar slots), sorted by subject id. A plan whose slot lies
    outside [0, 10), whose genuine line pairs two subjects, or whose
    impostor line pairs a subject with itself is rejected (ProtocolError).
    """
    scores = np.asarray(raw_scores, dtype=np.float64)
    if scores.ndim != 1 or len(scores) != len(plan.entries):
        raise AlignmentError(
            f"{len(scores)} scores for {len(plan.entries)} plan entries"
        )
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise AlignmentError(f"non-finite score at entry {int(bad[0])}")

    # Values are keyed by enrolment index so the mean is taken in canonical
    # order: permuting plan entries together with their scores cannot move
    # the result by even an ulp.
    slots: dict[tuple[str, ComparisonKind, int], list[float | None]] = {}
    for entry, score in zip(plan.entries, scores):
        key = (entry.enrol_subject, entry.kind, entry.score_index)
        if not 0 <= entry.score_index < SLOTS_PER_KIND:
            raise ProtocolError(
                f"slot {key[0]}/{key[1].value}/{key[2]} outside [0, {SLOTS_PER_KIND})"
            )
        if (entry.kind is ComparisonKind.GENUINE) != (entry.verif_subject == key[0]):
            raise ProtocolError(
                f"{entry.kind.value} comparison of {key[0]} against {entry.verif_subject}: "
                "genuine lines pair a subject with itself, impostor lines with another"
            )
        values = slots.setdefault(key, [None] * ENROL_SESSIONS)
        if not 0 <= entry.enrol_index < ENROL_SESSIONS or values[entry.enrol_index] is not None:
            raise ProtocolError(
                f"slot {key[0]}/{key[1].value}/{key[2]} has a duplicate or "
                f"out-of-range enrolment index {entry.enrol_index}"
            )
        values[entry.enrol_index] = float(score)

    for key, values in slots.items():
        if any(v is None for v in values):
            raise ProtocolError(
                f"slot {key[0]}/{key[1].value}/{key[2]} has "
                f"{sum(v is not None for v in values)} comparisons, "
                f"expected {ENROL_SESSIONS}"
            )

    def slot_means(subject_id: str, kind: ComparisonKind) -> tuple[float, ...]:
        means = []
        for i in range(SLOTS_PER_KIND):
            values = slots.get((subject_id, kind, i))
            if values is None:
                raise ProtocolError(
                    f"subject {subject_id} is missing {kind.value} slot {i}"
                )
            # fsum: the mean cannot depend on the order the five enrolment
            # lines appeared in the comparison file.
            means.append(math.fsum(values) / ENROL_SESSIONS)
        return tuple(means)

    subject_ids = sorted({key[0] for key in slots})
    out = []
    for subject_id in subject_ids:
        out.append(
            ScoreSet(
                subject_id,
                genuine=slot_means(subject_id, ComparisonKind.GENUINE),
                similar=slot_means(subject_id, ComparisonKind.SIMILAR),
                dissimilar=slot_means(subject_id, ComparisonKind.DISSIMILAR),
            )
        )
    return out
