"""Open-set evaluation protocol: splits, the 1vs1 comparison plan, and
aggregation of raw comparison scores into per-subject slot scores.

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
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .core import (
    ALL_GROUPS, CHUNK_BYTES, GROUP_INDEX, PRESS, AgeGroup, Dataset, Gender, eligibility_issues,
    subject_table,
)
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


SessionKey = tuple[str, str]  # (subject_id, session_id)


@dataclass(frozen=True, eq=False)
class ComparisonPlan:
    """The 1vs1 comparison list as integer columns, one row per line.

    `sessions` is the session table: every (subject_id, session_id) the
    plan references, once. `enrol` and `verif` index it; `kind` holds
    0/1/2 for G/S/D (`KINDS`) and `slot` the score index.
    `subjects` is the subject table of the sessions (`subject_table`),
    built from them when not given. Two plans are equal when they list the
    same lines in the same order, whatever the order of their session
    tables.
    """

    sessions: tuple[SessionKey, ...]
    enrol: np.ndarray
    verif: np.ndarray
    kind: np.ndarray
    slot: np.ndarray
    subjects: tuple[list[str], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.subjects is None:
            object.__setattr__(self, "subjects", subject_table(self.sessions))
        n = len(self.kind)
        for name, dtype in (
            ("enrol", np.intp),
            ("verif", np.intp),
            ("kind", np.int8),
            ("slot", np.int64),
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
        return keys[self.enrol], keys[self.verif], self.kind, self.slot

    @property
    def entries(self) -> tuple[Comparison, ...]:
        """The plan as `Comparison` rows, built anew on each access."""
        enrol, verif, kind, slot = self._resolved()
        return tuple(map(
            Comparison,
            enrol[:, 0].tolist(), enrol[:, 1].tolist(),
            verif[:, 0].tolist(), verif[:, 1].tolist(),
            np.array(KINDS, dtype=object)[kind].tolist(),
            slot.tolist(),
        ))

    def referenced_sessions(self) -> set[SessionKey]:
        return set(self.sessions)


@dataclass(frozen=True)
class SplitConfig:
    """Development/evaluation split parameters.

    Exactly one of eval_count / eval_fraction must be set. With
    gender_balance on, the evaluation set holds equal male/female counts
    within every age bin; an odd target size is floored to the next even
    number.
    """

    seed: int = 0
    eval_count: int | None = None
    eval_fraction: float | None = None
    gender_balance: bool = True

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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


def _protocol_groups(dataset: Dataset) -> np.ndarray:
    """Each subject's index into `ALL_GROUPS`. Every subject must have
    demographics and be protocol-eligible; the first that is not, in
    dataset order, is reported."""
    issues = eligibility_issues(dataset)
    group = np.empty(len(dataset), dtype=np.intp)
    for i, (subject_id, demographics) in enumerate(
        zip(dataset.subject_ids.tolist(), dataset.demographics.tolist())
    ):
        if demographics is None:
            raise ProtocolError(f"subject {subject_id} has no demographics")
        if i in issues:
            raise ProtocolError(
                f"subject {subject_id} not protocol-eligible: " + "; ".join(issues[i])
            )
        group[i] = GROUP_INDEX[demographics]
    return group


def split_dataset(dataset: Dataset, config: SplitConfig) -> tuple[Dataset, Dataset]:
    """Partition subjects into disjoint development and evaluation sets.

    Proportional (largest-remainder) allocation decides how many
    gender-balanced pairs each age bin contributes; within a bin the
    concrete subjects are drawn from a seeded shuffle and the excess stays
    in development.
    """
    group = _protocol_groups(dataset)
    n = len(dataset)
    if config.eval_count is not None:
        eval_count = config.eval_count
    else:
        eval_count = round(config.eval_fraction * n)
    if eval_count >= n:
        raise ConfigError(f"evaluation size {eval_count} must be < dataset size {n}")
    if eval_count < 1:
        raise ConfigError("evaluation size must be at least 1")

    evaluation = np.zeros(n, dtype=bool)
    if not config.gender_balance:
        rng = np.random.default_rng(np.random.SeedSequence([config.seed]))
        evaluation[rng.choice(n, size=eval_count, replace=False)] = True
    else:
        pairs_total = eval_count // 2
        if pairs_total < 1:
            raise ConfigError("gender-balanced split needs an evaluation size of >= 2")

        # Subjects per (age bin, gender): ALL_GROUPS runs over the genders
        # within each age bin.
        sizes = np.bincount(group, minlength=len(ALL_GROUPS)).reshape(len(AgeGroup), len(Gender))
        quotas = _largest_remainder_quotas(sizes.sum(axis=1), pairs_total)
        for age_bin in np.flatnonzero(quotas).tolist():
            k = int(quotas[age_bin])
            males, females = sizes[age_bin].tolist()
            if k > min(males, females):
                raise ProtocolError(
                    f"age bin {list(AgeGroup)[age_bin].value}: needs {k} subjects per "
                    f"gender, has {males} male / {females} female"
                )
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, age_bin]))
            for g in range(age_bin * len(Gender), (age_bin + 1) * len(Gender)):
                members = np.flatnonzero(group == g)
                evaluation[members[rng.permutation(len(members))[:k]]] = True
    return (
        dataset.select(np.flatnonzero(~evaluation)),
        dataset.select(np.flatnonzero(evaluation)),
    )


def _largest_remainder_quotas(sizes: np.ndarray, total: int) -> np.ndarray:
    exact = total * sizes / sizes.sum()
    quotas = np.floor(exact).astype(np.intp)
    # The largest remainders get one more; a tie goes to the earlier bin.
    by_fraction = np.argsort(quotas - exact, kind="stable")
    quotas[by_fraction[: total - quotas.sum()]] += 1
    return quotas


def build_comparison_plan(evaluation: Dataset, seed: int) -> ComparisonPlan:
    """Construct the full 1vs1 comparison list for an evaluation set.

    Enrolment is the first 5 sessions in chronological order, verification
    the remaining 10. Similar impostors come from the subject's own (age
    bin, gender) group, dissimilar impostors from subjects differing in
    both attributes. Sampling is seeded per subject, so the plan does not
    depend on iteration order. The session table lists every session of
    the evaluation set, subject by subject, in chronological order: by
    first press, ties broken by session id.
    """
    if not len(evaluation):
        raise ProtocolError("evaluation set has no subjects")
    group = _protocol_groups(evaluation)
    subject_ids = evaluation.subject_ids.tolist()
    sizes = np.bincount(group, minlength=len(ALL_GROUPS))
    alone = np.flatnonzero(sizes[group] < 2)
    if alone.size:
        g = group[alone[0]]
        raise ProtocolError(
            f"group {ALL_GROUPS[g].label()} has only {sizes[g]} subject(s); "
            "similar impostors need at least 2"
        )
    # Each group's similar (its own members) and dissimilar (other age bin
    # and other gender) impostor pools.
    age_bin, gender = np.divmod(group, len(Gender))
    pools = [
        (np.flatnonzero(group == g), np.flatnonzero((age_bin != a) & (gender != s)))
        for g, (a, s) in enumerate(np.ndindex(len(AgeGroup), len(Gender)))
    ]

    keys, subject_of = evaluation.session_keys(), evaluation.subject_of_session()
    first_press = evaluation.events[evaluation.event_offsets[:-1], PRESS]
    id_rank = np.unique(evaluation.session_ids, return_inverse=True)[1]
    chronological = np.lexsort((id_rank, first_press, subject_of))
    first_row = evaluation.session_offsets
    counts = np.diff(first_row)
    # Session-table rows of the similar (0) and dissimilar (1) impostors.
    impostors = np.empty((len(subject_ids), 2, SLOTS_PER_KIND), dtype=np.intp)
    for idx, (subject_id, g) in enumerate(zip(subject_ids, group.tolist())):
        similar, dissimilar = pools[g]
        if not dissimilar.size:
            raise ProtocolError(
                f"subject {subject_id}: no subject differs in both gender and age bin"
            )
        rng = _subject_stream(seed, subject_id)
        for k, pool in enumerate((similar[similar != idx], dissimilar)):
            impostors[idx, k] = _draw_impostors(rng, pool, counts, first_row)

    # Lines run subject, kind, slot, enrolment session, as the file lists them.
    shape = (len(subject_ids), len(KINDS), SLOTS_PER_KIND, ENROL_SESSIONS)
    verif = np.empty(shape[:3], dtype=np.intp)
    verif[:, GENUINE] = first_row[:-1, None] + ENROL_SESSIONS + np.arange(SLOTS_PER_KIND)
    verif[:, SIMILAR:] = impostors
    return ComparisonPlan(
        sessions=tuple(keys[j] for j in chronological.tolist()),
        subjects=(subject_ids, subject_of[chronological]),
        enrol=np.broadcast_to(
            first_row[:-1, None, None, None] + np.arange(ENROL_SESSIONS), shape
        ).ravel(),
        verif=np.broadcast_to(verif[..., None], shape).ravel(),
        kind=np.broadcast_to(np.arange(len(KINDS))[:, None, None], shape).ravel(),
        slot=np.broadcast_to(np.arange(SLOTS_PER_KIND)[:, None], shape).ravel(),
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
) -> tuple[list[str], np.ndarray]:
    """Average each slot's 5 enrolment comparisons into one score.

    Returns the enrolled subject ids, sorted, and a read-only
    (subjects, 3, 10) array of their slot means: row r holds subject r's
    genuine, similar and dissimilar slots, in `KINDS` order. A score
    outside [0, 1] is rejected (AlignmentError). A plan whose slot lies
    outside [0, 10), whose genuine line pairs two subjects, or whose
    impostor line pairs a subject with itself is rejected (ProtocolError),
    and so is one with a slot of other than 5 lines; when several lines
    are bad, the first one is reported.
    """
    scores = np.asarray(raw_scores, dtype=np.float64)
    if scores.ndim != 1 or len(scores) != len(plan):
        raise AlignmentError(f"{len(scores)} scores for {len(plan)} plan entries")
    bad = np.flatnonzero(~((scores >= 0) & (scores <= 1)))  # NaN fails too
    if bad.size:
        line = int(bad[0])
        raise AlignmentError(f"score {float(scores[line])!r} at entry {line} outside [0, 1]")

    subject_ids, subject_of = plan.subjects
    enrolled, verified = subject_of[plan.enrol], subject_of[plan.verif]
    kind, slot = plan.kind, plan.slot

    def slot_name(line: int) -> str:
        return f"{subject_ids[enrolled[line]]}/{KINDS[kind[line]].value}/{slot[line]}"

    slot_ok = (slot >= 0) & (slot < SLOTS_PER_KIND)
    pairing_bad = (kind == GENUINE) != (verified == enrolled)
    bad = np.flatnonzero(~slot_ok | pairing_bad)
    if bad.size:
        line = int(bad[0])
        if not slot_ok[line]:
            raise ProtocolError(
                f"slot {slot_name(line)} outside [0, {SLOTS_PER_KIND})"
            )
        raise ProtocolError(
            f"{KINDS[kind[line]].value} comparison of {subject_ids[enrolled[line]]} "
            f"against {subject_ids[verified[line]]}: "
            "genuine lines pair a subject with itself, impostor lines with another"
        )

    # Each line's cell in a (subjects, 3, 10) block of slots.
    shape = (len(subject_ids), len(KINDS), SLOTS_PER_KIND)
    cell = (enrolled * len(KINDS) + kind) * SLOTS_PER_KIND + slot
    filled = np.bincount(cell, minlength=math.prod(shape))
    wrong = np.flatnonzero(filled[cell] != ENROL_SESSIONS)
    if wrong.size:
        line = int(wrong[0])
        raise ProtocolError(
            f"slot {slot_name(line)} has {filled[cell[line]]} comparisons, "
            f"expected {ENROL_SESSIONS}"
        )

    rows = sorted(np.unique(enrolled).tolist(), key=subject_ids.__getitem__)
    missing = np.argwhere(filled.reshape(shape)[rows] == 0)
    if missing.size:
        row, k, i = missing[0].tolist()
        raise ProtocolError(
            f"subject {subject_ids[rows[row]]} is missing {KINDS[k].value} slot {i}"
        )
    means = cell_means(scores, cell, filled).reshape(shape)[rows]
    means.flags.writeable = False
    return [subject_ids[s] for s in rows], means


def cell_means(values: np.ndarray, cells: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The mean of each cell's `values`: the `math.fsum` of the values whose
    `cells` entry is the cell, over their count (`counts`, as
    `np.bincount(cells)` gives it), or 0 for an empty cell. fsum is exact,
    so the order of a cell's values cannot move its mean by an ulp. Values
    become Python floats a block of `CHUNK_BYTES // 8` at a time."""
    ordered = np.asarray(values, dtype=np.float64)[np.argsort(cells, kind="stable")]
    blocks = np.split(ordered, range(CHUNK_BYTES // 8, len(ordered), CHUNK_BYTES // 8))
    ranked = chain.from_iterable(map(np.ndarray.tolist, blocks))
    sums = (math.fsum(islice(ranked, count)) for count in counts.tolist())
    return np.fromiter(sums, dtype=np.float64, count=len(counts)) / np.maximum(counts, 1)
