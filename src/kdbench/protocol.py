"""Open-set evaluation protocol: splits, the 1vs1 comparison plan, and
aggregation of raw comparison scores into per-subject score sets.

Every protocol subject contributes 150 session-level comparisons: its 10
verification sessions against its 5 enrolment sessions (genuine), plus 10
same-group impostor sessions and 10 impostor sessions differing in both
age bin and gender, each also compared against the 5 enrolment sessions.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .core import AgeGroup, Dataset, Demographics, Session, Subject, validate_subject
from .errors import AlignmentError, ConfigError, ProtocolError

ENROL_SESSIONS = 5
SLOTS_PER_KIND = 10  # genuine, similar, and dissimilar scores per subject


class ComparisonKind(Enum):
    GENUINE = "genuine"
    SIMILAR = "similar"
    DISSIMILAR = "dissimilar"

    @property
    def letter(self) -> str:
        return self.value[0].upper()


# A plan's `kind` column holds each kind's position here: 0/1/2 for G/S/D.
KINDS: tuple[ComparisonKind, ...] = tuple(ComparisonKind)
GENUINE, SIMILAR, DISSIMILAR = range(len(KINDS))


class Comparison(NamedTuple):
    """One plan line as an object; see `ComparisonPlan.entries`."""

    enrol_subject: str
    enrol_session: str
    verif_subject: str
    verif_session: str
    kind: ComparisonKind
    score_index: int
    enrol_index: int


SessionKey = tuple[str, str]  # (subject_id, session_id)


@dataclass(frozen=True, eq=False)
class ComparisonPlan:
    """The 1vs1 comparison list as integer columns, one row per line.

    `sessions` is the session table: every (subject_id, session_id) the
    plan references, once. `enrol` and `verif` index it; `kind` holds
    0/1/2 for G/S/D (`KINDS`), `slot` the score index and `enrol_index`
    the line's place among the five enrolment comparisons of its slot.
    Two plans are equal when they list the same lines in the same order,
    whatever the order of their session tables.
    """

    sessions: tuple[SessionKey, ...]
    enrol: np.ndarray
    verif: np.ndarray
    kind: np.ndarray
    slot: np.ndarray
    enrol_index: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.kind)
        for name, dtype in (
            ("enrol", np.intp),
            ("verif", np.intp),
            ("kind", np.int8),
            ("slot", np.int64),
            ("enrol_index", np.int64),
        ):
            column = np.asarray(getattr(self, name), dtype=dtype)
            if column.shape != (n,):
                raise ValueError(f"plan column {name} must be 1-D of length {n}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.kind)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComparisonPlan):
            return NotImplemented
        return len(self) == len(other) and all(
            np.array_equal(mine, theirs)
            for mine, theirs in zip(self._resolved(), other._resolved())
        )

    def _resolved(self) -> tuple[np.ndarray, ...]:
        keys = np.array(self.sessions, dtype=object).reshape(-1, 2)
        return keys[self.enrol], keys[self.verif], self.kind, self.slot, self.enrol_index

    @property
    def entries(self) -> tuple[Comparison, ...]:
        """The plan as `Comparison` rows, built anew on each access."""
        enrol, verif, kind, slot, enrol_index = self._resolved()
        return tuple(map(
            Comparison,
            enrol[:, 0].tolist(), enrol[:, 1].tolist(),
            verif[:, 0].tolist(), verif[:, 1].tolist(),
            np.array(KINDS, dtype=object)[kind].tolist(),
            slot.tolist(), enrol_index.tolist(),
        ))

    def referenced_sessions(self) -> set[SessionKey]:
        return set(self.sessions)


def subject_table(sessions: Sequence[SessionKey]) -> tuple[list[str], np.ndarray]:
    """The distinct subject ids of a session table, in table order, and the
    index into them of each session-table row."""
    index: dict[str, int] = {}
    rows = [index.setdefault(subject_id, len(index)) for subject_id, _ in sessions]
    return list(index), np.array(rows, dtype=np.intp)


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
    depend on iteration order. The session table lists every session of
    the evaluation set, subject by subject, in chronological order.
    """
    _require_protocol_ready(evaluation)
    subjects = evaluation.subjects
    demographics = [s.demographics for s in subjects]

    groups: dict[Demographics, list[int]] = {}
    for idx, demo in enumerate(demographics):
        groups.setdefault(demo, []).append(idx)
    for demo, members in groups.items():
        if len(members) < 2:
            raise ProtocolError(
                f"group {demo.label()} has only {len(members)} subject(s); "
                "similar impostors need at least 2"
            )
    members_of = {demo: np.array(members) for demo, members in groups.items()}
    dissimilar_pool = {
        demo: np.array([
            idx
            for idx, other in enumerate(demographics)
            if other.age_group != demo.age_group and other.gender != demo.gender
        ], dtype=np.intp)
        for demo in groups
    }

    sessions_by_idx = [chronological_sessions(s) for s in subjects]
    counts = np.array([len(ordered) for ordered in sessions_by_idx], dtype=np.intp)
    first_row = np.concatenate([[0], np.cumsum(counts)])
    # Session-table rows of the similar (0) and dissimilar (1) impostors.
    impostors = np.empty((len(subjects), 2, SLOTS_PER_KIND), dtype=np.intp)
    for idx, subject in enumerate(subjects):
        demo = subject.demographics
        if not dissimilar_pool[demo].size:
            raise ProtocolError(
                f"subject {subject.subject_id}: no subject differs in both "
                "gender and age bin"
            )
        rng = _subject_stream(seed, subject.subject_id)
        similar = members_of[demo]
        for k, pool in enumerate((similar[similar != idx], dissimilar_pool[demo])):
            impostors[idx, k] = _draw_impostors(rng, pool, counts, first_row)

    # Lines run subject, kind, slot, enrolment session, as the file lists them.
    shape = (len(subjects), len(KINDS), SLOTS_PER_KIND, ENROL_SESSIONS)
    verif = np.empty(shape[:3], dtype=np.intp)
    verif[:, GENUINE] = first_row[:-1, None] + ENROL_SESSIONS + np.arange(SLOTS_PER_KIND)
    verif[:, SIMILAR:] = impostors
    return ComparisonPlan(
        sessions=tuple(
            (subject.subject_id, session.session_id)
            for subject, ordered in zip(subjects, sessions_by_idx)
            for session in ordered
        ),
        enrol=np.broadcast_to(
            first_row[:-1, None, None, None] + np.arange(ENROL_SESSIONS), shape
        ).ravel(),
        verif=np.broadcast_to(verif[..., None], shape).ravel(),
        kind=np.broadcast_to(np.arange(len(KINDS))[:, None, None], shape).ravel(),
        slot=np.broadcast_to(np.arange(SLOTS_PER_KIND)[:, None], shape).ravel(),
        enrol_index=np.broadcast_to(np.arange(ENROL_SESSIONS), shape).ravel(),
    )


def _draw_impostors(
    rng: np.random.Generator,
    pool: np.ndarray,
    counts: np.ndarray,
    first_row: np.ndarray,
) -> np.ndarray:
    """Session-table rows of 10 impostor sessions drawn from the subjects
    in `pool` (`counts` sessions each, the first at `first_row`).

    Distinct subjects when the pool allows it; otherwise distinct
    (subject, session) pairs with subject reuse.
    """
    if len(pool) >= SLOTS_PER_KIND:
        picked = pool[rng.choice(len(pool), size=SLOTS_PER_KIND, replace=False)]
        return first_row[picked] + rng.integers(counts[picked])
    rows = np.concatenate([np.arange(first_row[i], first_row[i + 1]) for i in pool])
    return rows[rng.choice(len(rows), size=SLOTS_PER_KIND, replace=False)]


def aggregate_scores(
    plan: ComparisonPlan, raw_scores: "np.ndarray | list[float]"
) -> list[ScoreSet]:
    """Average each slot's 5 enrolment comparisons into one score.

    Yields one ScoreSet per subject (10 genuine + 10 similar + 10
    dissimilar slots), sorted by subject id. A plan whose slot lies
    outside [0, 10), whose genuine line pairs two subjects, or whose
    impostor line pairs a subject with itself is rejected (ProtocolError);
    when several lines are bad, the first one is reported.
    """
    scores = np.asarray(raw_scores, dtype=np.float64)
    if scores.ndim != 1 or len(scores) != len(plan):
        raise AlignmentError(f"{len(scores)} scores for {len(plan)} plan entries")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise AlignmentError(f"non-finite score at entry {int(bad[0])}")

    subject_ids, subject_of = subject_table(plan.sessions)
    enrolled, verified = subject_of[plan.enrol], subject_of[plan.verif]
    kind, slot, enrol_index = plan.kind, plan.slot, plan.enrol_index

    def slot_name(line: int) -> str:
        return f"{subject_ids[enrolled[line]]}/{KINDS[kind[line]].value}/{slot[line]}"

    # Each line's cell in a (subjects, 3, 10, 5) block; -1 when out of range.
    slot_ok = (slot >= 0) & (slot < SLOTS_PER_KIND)
    index_ok = (enrol_index >= 0) & (enrol_index < ENROL_SESSIONS)
    pairing_bad = (kind == GENUINE) != (verified == enrolled)
    cell = np.where(
        slot_ok & index_ok,
        ((enrolled * len(KINDS) + kind) * SLOTS_PER_KIND + slot) * ENROL_SESSIONS
        + enrol_index,
        -1,
    )
    # A repeated cell is bad from its second line on.
    order = np.argsort(cell, kind="stable")
    ranked = cell[order]
    repeated = np.zeros(len(plan), dtype=bool)
    repeated[order[1:]] = (ranked[1:] == ranked[:-1]) & (ranked[1:] >= 0)
    bad = np.flatnonzero(~slot_ok | pairing_bad | ~index_ok | repeated)
    if bad.size:
        line = int(bad[0])
        if not slot_ok[line]:
            raise ProtocolError(
                f"slot {slot_name(line)} outside [0, {SLOTS_PER_KIND})"
            )
        if pairing_bad[line]:
            raise ProtocolError(
                f"{KINDS[kind[line]].value} comparison of {subject_ids[enrolled[line]]} "
                f"against {subject_ids[verified[line]]}: "
                "genuine lines pair a subject with itself, impostor lines with another"
            )
        raise ProtocolError(
            f"slot {slot_name(line)} has a duplicate or out-of-range enrolment "
            f"index {enrol_index[line]}"
        )

    n_slots = len(subject_ids) * len(KINDS) * SLOTS_PER_KIND
    slot_of = cell // ENROL_SESSIONS
    filled = np.bincount(slot_of, minlength=n_slots)
    short = np.flatnonzero(filled[slot_of] < ENROL_SESSIONS)
    if short.size:
        line = int(short[0])
        raise ProtocolError(
            f"slot {slot_name(line)} has {filled[slot_of[line]]} comparisons, "
            f"expected {ENROL_SESSIONS}"
        )

    present = filled.reshape(len(subject_ids), len(KINDS), SLOTS_PER_KIND) > 0
    block = np.zeros(n_slots * ENROL_SESSIONS)
    block[cell] = scores
    # Values sit at their enrolment index and fsum is exact, so permuting
    # plan lines together with their scores cannot move a mean by an ulp.
    means = [math.fsum(values) / ENROL_SESSIONS for values in
             block.reshape(n_slots, ENROL_SESSIONS).tolist()]
    out = []
    for subject_id, s in sorted((subject_ids[s], s) for s in np.unique(enrolled).tolist()):
        missing = np.argwhere(~present[s])
        if missing.size:
            k, i = missing[0].tolist()
            raise ProtocolError(f"subject {subject_id} is missing {KINDS[k].value} slot {i}")
        first = s * len(KINDS) * SLOTS_PER_KIND
        genuine, similar, dissimilar = (
            tuple(means[first + k * SLOTS_PER_KIND : first + (k + 1) * SLOTS_PER_KIND])
            for k in range(len(KINDS))
        )
        out.append(ScoreSet(subject_id, genuine, similar, dissimilar))
    return out
