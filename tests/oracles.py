"""Independent brute-force reference implementations.

Every metric function here recomputes a metric straight from its
definition, counting comparisons over full outer products instead of
reusing the library's sort/cumsum machinery. Rates are formed as count / n
and the crossing interpolation uses the same arithmetic expressions as the
library, so agreement is expected to be bit-exact. The comparison-file
reader is the per-line loader the chunked one replaced, the comparison-file
writer is the per-token text writer the byte-matrix one replaced, the
slot aggregation is a dict of each (subject, kind, slot)'s scores, and the
session embedder is the one-session-at-a-time path the block embedder
replaced.
The event-row checks and the chronological session order are the
per-session code the columnar dataset replaced. The split and the plan
builder are the code that grouped subjects in dicts keyed by
`Demographics` and by "M"/"F", which the `ALL_GROUPS` index arrays replaced. The raw-log parser and the
score reader are the per-line code the byte scanner and the chunked score
reader replaced; they read text-mode lines. The SIR scalar is the loop over
group pairs that the masked gap array replaced. The generator is the
per-profile path (a `TypingProfile` and three helpers per subject) that the
one-call subject draw replaced.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from kdbench.core import (
    _EVENT_COLUMNS,
    ALL_GROUPS,
    CODE,
    PRESS,
    RELEASE,
    AgeGroup,
    Dataset,
    Demographics,
    Session,
    Subject,
    _event_problem,
    _first_bad_row,
    _offsets,
    eligibility_issues,
)
from kdbench.errors import ConfigError, ParseError, ProtocolError
from kdbench.features import ASCII_CHANNEL, FeatureConfig, order_insensitive_mean_std
from kdbench.formats import STRICT_HEADER_PREFIX
from kdbench.protocol import (
    ENROL_SESSIONS,
    GENUINE,
    KINDS,
    SIMILAR,
    SLOTS_PER_KIND,
    Comparison,
    ComparisonKind,
    ComparisonPlan,
    SplitConfig,
    _draw_impostors,
    _subject_stream,
)
from kdbench.synthgen import (
    _KEY_CODES,
    PRINTABLE_ASCII,
    GeneratorConfig,
    _event_times,
    _group_shift,
    _lognormal,
    _subject_rng,
)


def check_session_rows(session_id: str, events) -> None:
    """Check one session's (code, press, release) rows on their own: codes
    fit [0, 255], no key is released before it is pressed, and press times
    never decrease. The first bad row is reported before an unsorted press."""
    events = np.array(events, dtype=np.int64)
    if events.size == 0:
        events = events.reshape(0, 3)
    if events.ndim != 2 or events.shape[1] != 3:
        raise ValueError(f"session {session_id}: events must be (code, press, release) rows")
    for code, press, release in events.tolist():
        if not 0 <= code <= 255:
            raise ValueError(f"key code {code} outside [0, 255]")
        if release < press:
            raise ValueError(f"release {release} precedes press {press}")
    if np.any(events[1:, PRESS] < events[:-1, PRESS]):
        raise ValueError(f"session {session_id}: press times not sorted")


def chronological_sessions(subject: Subject) -> list[Session]:
    """A subject's sessions by first press, ties broken by session id."""
    return sorted(subject.sessions, key=lambda s: (int(s.events[0, PRESS]), s.session_id))


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


def rank1_brute(slot_scores) -> float:
    hits = 0
    attempts = 0
    for genuine, similar, dissimilar in slot_scores.tolist():
        worst_case = max(similar + dissimilar)
        for g in genuine:
            attempts += 1
            if g > worst_case:
                hits += 1
    return hits / attempts * 100.0


def group_rates_brute(subject_ids, slot_scores, demographics, threshold):
    """group -> (fmr over similar impostors, fnmr over genuine)."""
    by_group: dict = {}
    for subject_id, row in zip(subject_ids, slot_scores.tolist()):
        by_group.setdefault(demographics[subject_id], []).append(row)
    out = {}
    for group, members in by_group.items():
        similar = [v for _, row, _ in members for v in row]
        genuine = [v for row, _, _ in members for v in row]
        fmr = sum(1 for v in similar if v >= threshold) / len(similar)
        fnmr = sum(1 for v in genuine if v < threshold) / len(genuine)
        out[group] = (fmr, fnmr)
    return out


def sir_scalar_per_pair(values: np.ndarray, missing: np.ndarray) -> float | None:
    """`fairmetrics.sir`'s scalar from its cell means: the mean
    |diagonal - off-diagonal| gap over the ordered group pairs whose two
    cells are not missing, row by row, in percent; None when no pair is
    left."""
    n = len(values)
    gaps = [
        abs(values[i, i] - values[i, j])
        for i in range(n)
        for j in range(n)
        if i != j and not (missing[i, i] or missing[i, j])
    ]
    return 100.0 * float(np.mean(gaps)) if gaps else None


def _require_protocol_ready(dataset: Dataset) -> None:
    issues = eligibility_issues(dataset)
    for i, (subject_id, demographics) in enumerate(
        zip(dataset.subject_ids.tolist(), dataset.demographics.tolist())
    ):
        if demographics is None:
            raise ProtocolError(f"subject {subject_id} has no demographics")
        if i in issues:
            raise ProtocolError(
                f"subject {subject_id} not protocol-eligible: " + "; ".join(issues[i])
            )


def split_dataset_by_dicts(dataset: Dataset, config: SplitConfig) -> tuple[Dataset, Dataset]:
    """`protocol.split_dataset` with its subjects binned in a dict of age
    bins, each a dict of "M"/"F" index lists."""
    _require_protocol_ready(dataset)
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

        bins: dict[AgeGroup, dict[str, list[int]]] = {
            age: {"M": [], "F": []} for age in AgeGroup
        }
        for idx, demo in enumerate(dataset.demographics.tolist()):
            bins[demo.age_group][demo.gender.value].append(idx)

        quotas = _largest_remainder_quotas(
            [len(b["M"]) + len(b["F"]) for b in bins.values()], pairs_total
        )
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
                evaluation[[members[gender][i] for i in order[:k]]] = True
    return (
        dataset.select(np.flatnonzero(~evaluation)),
        dataset.select(np.flatnonzero(evaluation)),
    )


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


def build_comparison_plan_by_dicts(evaluation: Dataset, seed: int) -> ComparisonPlan:
    """`protocol.build_comparison_plan` with its impostor pools in dicts
    keyed by `Demographics`, the dissimilar pool built subject by subject."""
    if not len(evaluation):
        raise ProtocolError("evaluation set has no subjects")
    _require_protocol_ready(evaluation)
    subject_ids = evaluation.subject_ids.tolist()
    demographics = evaluation.demographics.tolist()

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

    keys, subject_of = evaluation.session_keys(), evaluation.subject_of_session()
    first_press = evaluation.events[evaluation.event_offsets[:-1], PRESS]
    id_rank = np.unique(evaluation.session_ids, return_inverse=True)[1]
    chronological = np.lexsort((id_rank, first_press, subject_of))
    first_row = evaluation.session_offsets
    counts = np.diff(first_row)
    impostors = np.empty((len(subject_ids), 2, SLOTS_PER_KIND), dtype=np.intp)
    for idx, (subject_id, demo) in enumerate(zip(subject_ids, demographics)):
        if not dissimilar_pool[demo].size:
            raise ProtocolError(
                f"subject {subject_id}: no subject differs in both gender and age bin"
            )
        rng = _subject_stream(seed, subject_id)
        similar = members_of[demo]
        for k, pool in enumerate((similar[similar != idx], dissimilar_pool[demo])):
            impostors[idx, k] = _draw_impostors(rng, pool, counts, first_row)

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


def plan_of_rows(rows: Iterable[Comparison]) -> ComparisonPlan:
    """The columnar plan of `Comparison` rows; its session table lists each
    (subject, session) in order of first appearance."""
    table: dict[tuple[str, str], int] = {}
    columns: list[list[int]] = [[], [], [], []]
    for row in rows:
        enrol = table.setdefault((row.enrol_subject, row.enrol_session), len(table))
        verif = table.setdefault((row.verif_subject, row.verif_session), len(table))
        values = (enrol, verif, KINDS.index(row.kind), row.score_index)
        for column, value in zip(columns, values):
            column.append(value)
    return ComparisonPlan(tuple(table), *(np.array(c, dtype=np.int64) for c in columns))


def load_comparisons_per_line(path) -> list[Comparison]:
    """A comparison file's rows, one line at a time."""
    entries: list[Comparison] = []
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
            entries.append(
                Comparison(enrol_subject, enrol_session, verif_subject, verif_session, kind, slot)
            )
    return entries


def aggregate_scores_per_line(rows: Iterable[Comparison], scores) -> tuple[list[str], np.ndarray]:
    """The enrolled subject ids, sorted, and their (subjects, 3, 10) slot
    means: each (enrolled subject, kind, slot)'s scores collected in a
    dict, and each mean their `math.fsum` over 5."""
    slots: dict[tuple[str, ComparisonKind, int], list[float]] = {}
    for row, score in zip(rows, scores):
        slots.setdefault((row.enrol_subject, row.kind, row.score_index), []).append(score)
    ids = sorted({subject_id for subject_id, _, _ in slots})
    means = [
        [[math.fsum(slots[subject_id, kind, i]) / 5 for i in range(10)] for kind in KINDS]
        for subject_id in ids
    ]
    return ids, np.array(means, dtype=np.float64).reshape(len(ids), len(KINDS), 10)


def write_comparisons_per_token(plan: ComparisonPlan, path) -> None:
    """Write a plan's lines as text, one `str` per field."""
    names = np.array([f"{s}:{t}" for s, t in plan.sessions], dtype=object)
    letters = np.array([kind.letter for kind in KINDS], dtype=object)
    lines = zip(
        names[plan.enrol].tolist(),
        names[plan.verif].tolist(),
        letters[plan.kind].tolist(),
        map(str, plan.slot.tolist()),
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{line}\n" for line in map("\t".join, lines))


# Event fields are converted to integers in chunks of this many strings.
_CHUNK_FIELDS = 3 << 15


def parse_raw_log_per_line(lines: Iterable[str]) -> Dataset:
    """Parse a raw log TSV stream into a Dataset.

    Each line is `subject_id  session_id  ascii  press_ms  release_ms`.
    Subjects and, within each subject, sessions keep their order of first
    appearance; events are sorted by (press, release, ascii code) within
    each session.
    Raises ParseError with the offending line number on malformed lines,
    invariant violations, or duplicated events; when several lines are
    bad, the first one is reported.
    """
    heads: dict[str, int] = {}  # "subject\tsession" -> session index
    session_of = array("q")
    linenos = array("q")
    values = array("q")  # code, press, release of each event
    pending: list[str] = []
    error: ParseError | None = None
    for lineno, raw_line in enumerate(lines, start=1):
        parts = raw_line.rsplit("\t", 3)
        session = heads.get(parts[0]) if len(parts) == 4 else None
        if session is None:
            line = raw_line.rstrip("\n")
            if not line:
                continue
            if len(parts) != 4 or parts[0].count("\t") != 1:
                error = ParseError(
                    f"expected 5 tab-separated fields, got {line.count(chr(9)) + 1}",
                    lineno,
                )
                break
            session = heads[parts[0]] = len(heads)
        session_of.append(session)
        linenos.append(lineno)
        pending += parts[1:]
        if len(pending) >= _CHUNK_FIELDS:
            error = _convert_fields(pending, values, linenos)
            if error:
                break
    # Lines whose fields fail to convert precede the line that stopped the loop.
    error = _convert_fields(pending, values, linenos) or error

    n = len(values) // _EVENT_COLUMNS
    # A view of the buffer, not a copy: the sorted block is the one copy.
    events = np.frombuffer(values, dtype=np.int64, count=n * _EVENT_COLUMNS).reshape(
        n, _EVENT_COLUMNS
    )
    keys = [head.split("\t") for head in heads]
    subjects: dict[str, int] = {}
    subject_of = np.array(
        [subjects.setdefault(subject_id, len(subjects)) for subject_id, _ in keys],
        dtype=np.intp,
    )
    # Sessions are ranked subject by subject, so sorting on the rank also
    # groups the block by subject, with no extra sort key or block copy.
    by_subject = np.argsort(subject_of, kind="stable")
    rank = np.empty_like(by_subject)
    rank[by_subject] = np.arange(len(by_subject))
    groups = rank[np.array(session_of[:n], dtype=np.intp)]
    order = np.lexsort((events[:, CODE], events[:, RELEASE], events[:, PRESS], groups))
    block, groups = events[order], groups[order]

    # The first bad line wins, whichever check it fails.
    bad = _first_bad_row(events)
    repeats = order[1:][
        (groups[1:] == groups[:-1]) & (block[1:] == block[:-1]).all(axis=1)
    ]
    first_repeat = int(repeats.min()) if repeats.size else None
    if first_repeat is not None and (bad is None or first_repeat < bad):
        event = (*keys[session_of[first_repeat]], *events[first_repeat].tolist())
        raise ParseError(f"duplicate event {event!r}", linenos[first_repeat])
    if bad is not None:
        raise ParseError(_event_problem(*events[bad].tolist()), linenos[bad])
    if error is not None:
        raise error

    return Dataset(
        subject_ids=list(subjects),
        demographics=[None] * len(subjects),
        session_offsets=_offsets(np.bincount(subject_of, minlength=len(subjects))),
        session_ids=[keys[h][1] for h in by_subject.tolist()],
        event_offsets=_offsets(np.bincount(groups, minlength=len(keys))),
        events=block,
    )


def _convert_fields(
    pending: list[str], values: array, linenos: array
) -> ParseError | None:
    """Move the integer values of `pending` (three fields per line) into
    `values`. On the first line whose fields are not 64-bit integers, keep
    only the lines before it and return that line's error."""
    done = len(values)
    try:
        values.extend(map(int, pending))
        return None
    except (ValueError, OverflowError):
        del values[done:]
        return _first_conversion_error(pending, values, linenos)
    finally:
        pending.clear()


def _first_conversion_error(
    pending: list[str], values: array, linenos: array
) -> ParseError:
    for i in range(0, len(pending), _EVENT_COLUMNS):
        fields = pending[i : i + _EVENT_COLUMNS]
        lineno = linenos[len(values) // _EVENT_COLUMNS]
        try:
            numbers = [int(f) for f in fields]
        except ValueError:
            shown = fields[:-1] + [fields[-1].rstrip("\n")]
            return ParseError(f"non-integer event field in {shown!r}", lineno)
        try:
            values.extend(numbers)
        except OverflowError:
            del values[len(values) - len(values) % _EVENT_COLUMNS :]
            return ParseError(
                _event_problem(*numbers) or f"event field outside 64 bits in {numbers!r}",
                lineno,
            )
    raise AssertionError("a conversion failed but every line converted")


def load_scores_per_line(path) -> tuple[np.ndarray, str | None]:
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


@dataclass(frozen=True)
class TypingProfile:
    """Per-subject timing parameters (all times in seconds);
    per_key_offset holds the hold-time offset of each of the 256 key codes."""

    mean_hold_s: float
    sd_hold_s: float
    mean_gap_s: float
    sd_gap_s: float
    rollover_prob: float
    per_key_offset: np.ndarray

    def __post_init__(self) -> None:
        if self.mean_hold_s <= 0 or self.mean_gap_s <= 0:
            raise ValueError("mean_hold_s and mean_gap_s must be positive")
        if not 0 <= self.rollover_prob <= 1:
            raise ValueError(f"rollover_prob {self.rollover_prob} outside [0, 1]")


def _draw_profile(rng: np.random.Generator, group: int, skew_strength: float) -> TypingProfile:
    shift = 1.0 + _group_shift(group, skew_strength)
    mean_hold = 0.085 * math.exp(rng.normal(0.0, 0.22)) * shift
    mean_gap = 0.230 * math.exp(rng.normal(0.0, 0.25)) * shift
    sd_hold = 0.25 * mean_hold * math.exp(rng.normal(0.0, 0.20))
    sd_gap = 0.45 * mean_gap * math.exp(rng.normal(0.0, 0.20))
    rollover = float(min(0.6, rng.beta(2.0, 10.0)))
    offsets = np.zeros(256)
    offsets[_KEY_CODES] = rng.normal(0.0, 0.006, len(PRINTABLE_ASCII))
    return TypingProfile(mean_hold, sd_hold, mean_gap, sd_gap, rollover, offsets)


def _key_distribution(rng: np.random.Generator) -> np.ndarray:
    ranks = rng.permutation(len(PRINTABLE_ASCII)) + 1
    weights = 1.0 / ranks
    return weights / weights.sum()


def _generate_subject_sessions(
    rng: np.random.Generator, profile: TypingProfile, key_probs: np.ndarray, out: np.ndarray
) -> None:
    shape = out.shape[:2]
    codes = rng.choice(_KEY_CODES, size=shape, p=key_probs)
    holds = _lognormal(rng, profile.mean_hold_s, profile.sd_hold_s, shape)
    holds = np.maximum(0.002, holds + profile.per_key_offset[codes])
    flight_mean = max(profile.mean_gap_s - profile.mean_hold_s, 0.02)
    flights = _lognormal(rng, flight_mean, profile.sd_gap_s, shape)
    rollover = rng.random(shape) < profile.rollover_prob
    rollover_scale = rng.uniform(0.2, 0.8, shape)
    flights = np.where(rollover, -holds * rollover_scale, flights)
    out[:, :, CODE] = codes
    out[:, :, PRESS], out[:, :, RELEASE] = _event_times(holds, flights)


def generate_by_profiles(config: GeneratorConfig) -> Dataset:
    """`synthgen.generate` with each subject's draw split into a profile,
    a key distribution and its sessions."""
    weights = np.asarray(config.group_weights, dtype=np.float64)
    weights = weights / weights.sum()
    n, sessions = config.n_subjects, config.sessions_per_subject
    events = np.empty((n, sessions, config.keys_per_session, 3), dtype=np.int64)
    demographics = []
    with np.errstate(over="ignore", invalid="ignore"):
        for index in range(n):
            rng = _subject_rng(config, index)
            group = int(rng.choice(len(ALL_GROUPS), p=weights))
            demo = ALL_GROUPS[group]
            demographics.append(demo)
            try:
                profile = _draw_profile(rng, group, config.skew_strength)
                _generate_subject_sessions(rng, profile, _key_distribution(rng), events[index])
            except (ValueError, OverflowError) as exc:
                raise ConfigError(
                    f"skew_strength {config.skew_strength} gives group {demo.label()} "
                    f"impossible timings ({exc})"
                ) from None
    return Dataset(
        subject_ids=[f"u{index:05d}" for index in range(n)],
        demographics=demographics,
        session_offsets=np.arange(n + 1) * sessions,
        session_ids=np.tile(np.array([f"s{j:02d}" for j in range(sessions)], object), n),
        event_offsets=np.arange(n * sessions + 1) * config.keys_per_session,
        events=events.reshape(-1, 3),
    )
