"""Command-line pipelines: synth, protocol, score, evaluate, and demo.

Every subcommand is deterministic given its flags and input files and
drops a manifest_<stage>.json (its stage config's fields, input digests,
seed, timestamp) alongside its outputs. Each flag is named after the
config field it sets; a flag left out takes that field's default.
Exit codes: 0 ok, 2 configuration or input-format error (an output that
cannot be written included), 3 protocol precondition failure, 4 dangling
data reference, 5 score/comparison misalignment.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from . import formats
from .baseline import fit_normalization, normalize, raw_embeddings, score_comparisons
from .core import Dataset, attach_demographics, eligibility_issues, filter_eligible
from .errors import (
    AlignmentError,
    ConfigError,
    DataReferenceError,
    KdbenchError,
    ProtocolError,
)
from .fairmetrics import FairnessConfig, compute_fairness_report
# extract_features stays bound here although cli never calls it:
# bench/tests asserts that the tracer rebinds this binding and restores it,
# and the tracer needs every function it wraps to stay defined.
from .features import FeatureConfig, FeatureSet, extract_features  # noqa: F401
from .protocol import (
    ComparisonPlan,
    SplitConfig,
    aggregate_scores,
    build_comparison_plan,
    split_dataset,
)
from .synthgen import GeneratorConfig, generate
from .verifmetrics import compute_metrics_report

_EXIT_CODES = (
    (ConfigError, 2),
    (ProtocolError, 3),
    (DataReferenceError, 4),
    (AlignmentError, 5),
)


def _stage_config(cls: type, args: argparse.Namespace):
    """The config `cls` with the fields whose flags were given; the
    dataclass supplies every other field's default."""
    names = {f.name for f in fields(cls)}
    return cls(**{name: value for name, value in vars(args).items() if name in names})


def _write_manifest(
    out_dir: Path, subcommand: str, config: object, inputs: dict[str, Path],
    diagnostics: dict | None = None, **extra: object,
) -> None:
    # One manifest per stage so composed pipelines (demo) keep all of them.
    # The config section is the config's fields (enums by value) plus
    # `extra`; the seed, if any, is a top-level key. `diagnostics` holds
    # only deterministic facts about the run, so reruns write equal ones.
    settings = {f.name: getattr(config, f.name) for f in fields(config)} | extra
    seed = settings.pop("seed", None)
    formats.write_json(
        {
            "tool": "kdbench",
            "version": __version__,
            "subcommand": subcommand,
            "config": {k: v.value if isinstance(v, Enum) else v for k, v in settings.items()},
            "inputs": {name: formats.sha256_file(p) for name, p in inputs.items()},
            "seed": seed,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        } | ({} if diagnostics is None else {"diagnostics": diagnostics}),
        out_dir / f"manifest_{subcommand}.json",
    )


def _require_file(path: Path, exc_type: type[KdbenchError] = ConfigError) -> Path:
    if path.is_dir():
        raise exc_type(f"input file is a directory: {path}")
    if not path.exists():
        raise exc_type(f"input file not found: {path}")
    if not path.is_file():
        raise exc_type(f"input file is not a regular file: {path}")
    return path


@contextmanager
def _writing(out_dir: Path) -> Iterator[None]:
    """Create `out_dir` for a stage's outputs. An OS error while the
    outputs are created or written becomes a ConfigError naming the path."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise ConfigError(
            f"cannot write {exc.filename or out_dir}: {exc.strerror or exc}"
        ) from None


def _load_plan(comparisons_path: Path) -> ComparisonPlan:
    plan = formats.load_comparisons(_require_file(comparisons_path))
    if not len(plan):
        raise ConfigError(f"comparison file {comparisons_path} has no comparisons")
    return plan


def _load_labeled_dataset(data_path: Path, demographics_path: Path) -> Dataset:
    dataset = formats.load_raw_log(_require_file(data_path))
    mapping = formats.load_demographics(_require_file(demographics_path, ProtocolError))
    return attach_demographics(dataset, mapping)


# -- synth ----------------------------------------------------------------


def run_synth(config: GeneratorConfig, out_dir: Path) -> None:
    dataset = generate(config)
    with _writing(out_dir):
        formats.write_raw_log(dataset, out_dir / "raw_log.tsv")
        formats.write_demographics(dataset, out_dir / "demographics.tsv")
        _write_manifest(out_dir, "synth", config, {})
    print(f"wrote {len(dataset)} subjects to {out_dir}")


def cmd_synth(args: argparse.Namespace) -> int:
    run_synth(_stage_config(GeneratorConfig, args), Path(args.out))
    return 0


# -- protocol ---------------------------------------------------------------


def run_protocol(
    data_path: Path,
    demographics_path: Path,
    split_config: SplitConfig,
    out_dir: Path,
) -> ComparisonPlan:
    labeled = _load_labeled_dataset(data_path, demographics_path)
    dropped = eligibility_issues(labeled)
    dataset = filter_eligible(labeled)
    development, evaluation = split_dataset(dataset, split_config)
    plan = build_comparison_plan(evaluation, split_config.seed)
    with _writing(out_dir):
        formats.write_comparisons(plan, out_dir / "comparisons.txt")
        formats.write_json(
            {
                "development": development.subject_ids.tolist(),
                "evaluation": evaluation.subject_ids.tolist(),
            },
            out_dir / "split.json",
        )
        _write_manifest(
            out_dir, "protocol", split_config,
            {"data": data_path, "demographics": demographics_path},
            diagnostics={
                "subjects_dropped": len(dropped),
                "dropped_by_issue": Counter(
                    kind for issues in dropped.values() for kind in set(map(_issue_kind, issues))
                ),
                "first_dropped": labeled.subject_ids[list(dropped)[:5]].tolist(),
            },
        )
    print(
        f"wrote {len(plan)} comparisons for {len(evaluation)} evaluation "
        f"subjects to {out_dir}"
    )
    return plan


def _issue_kind(issue: str) -> str:
    """An `eligibility_issues` message without its count or session id."""
    if issue.startswith("session count "):
        return "session count " + " ".join(issue.split()[3:])
    return "session with no events"


def cmd_protocol(args: argparse.Namespace) -> int:
    run_protocol(
        Path(args.data),
        Path(args.demographics),
        _stage_config(SplitConfig, args),
        Path(args.out),
    )
    return 0


# -- score -------------------------------------------------------------------


def run_score(
    data_path: Path,
    comparisons_path: Path,
    feature_config: FeatureConfig,
    out_dir: Path,
    strict: bool = False,
) -> None:
    # Only eligible subjects reach the split in `protocol`, so only they may
    # fit the normalization here.
    dataset = filter_eligible(formats.load_raw_log(_require_file(data_path)))
    plan = _load_plan(comparisons_path)

    # Plan references resolve first (exit 4), then the development set
    # must be non-empty (exit 3).
    referenced = plan.referenced_sessions()
    row_of = {key: row for row, key in enumerate(dataset.session_keys())}
    for subject_id, session_id in sorted(referenced - row_of.keys()):
        if subject_id not in dataset.subject_ids:
            raise DataReferenceError(
                f"subject {subject_id!r} not in dataset or not protocol-eligible"
            )
        raise DataReferenceError(
            f"session {session_id!r} of subject {subject_id!r} not in dataset"
        )

    sessions = np.array([row_of[key] for key in plan.sessions], dtype=np.intp)
    in_plan = np.zeros(len(dataset), dtype=bool)
    in_plan[dataset.subject_of_session()[sessions]] = True
    development = dataset.select(np.flatnonzero(~in_plan))
    if not len(development):
        raise ProtocolError(
            "every eligible subject in the dataset is referenced by the comparison "
            "file; no development subjects left to fit normalization"
        )
    stats = fit_normalization(development, feature_config)
    del development  # its copy of the events is freed before the embeddings are built

    scores = score_comparisons(
        plan, normalize(raw_embeddings(dataset, sessions, feature_config), stats)
    )
    digest = formats.sha256_file(comparisons_path) if strict else None
    with _writing(out_dir):
        formats.write_scores(scores.tolist(), out_dir / "scores.txt", digest)
        _write_manifest(
            out_dir, "score", feature_config,
            {"data": data_path, "comparisons": comparisons_path}, strict=strict,
        )
    print(f"wrote {len(scores)} scores to {out_dir / 'scores.txt'}")


def cmd_score(args: argparse.Namespace) -> int:
    run_score(
        Path(args.data),
        Path(args.comparisons),
        _stage_config(FeatureConfig, args),
        Path(args.out),
        strict="strict" in args,
    )
    return 0


# -- evaluate ------------------------------------------------------------------


def run_evaluate(
    comparisons_path: Path,
    scores_path: Path,
    demographics_path: Path,
    out_dir: Path,
    fairness_config: FairnessConfig = FairnessConfig(),
) -> dict:
    plan = _load_plan(comparisons_path)
    raw_scores, digest = formats.load_scores(_require_file(scores_path))
    formats.verify_strict_digest(digest, comparisons_path)
    demographics = formats.load_demographics(_require_file(demographics_path))

    subject_ids, slot_scores = aggregate_scores(plan, raw_scores)
    metrics = compute_metrics_report(slot_scores)
    g = metrics.global_metrics
    p = metrics.per_subject
    fairness = compute_fairness_report(
        slot_scores, subject_ids, plan, raw_scores, demographics, g, config=fairness_config
    )
    matrices = (fairness.sir_age_matrix, fairness.sir_gender_matrix)

    fairness_payload = {
        "std": fairness.spread.std,
        "ser": fairness.spread.ser,
        "fdr": fairness.fdr,
        "ir": fairness.inequity_rate,
        "garbe": fairness.garbe,
        "sir_age": fairness.sir_age,
        "sir_gender": fairness.sir_gender,
        "per_group_accuracy": {
            demo.label(): acc for demo, acc in fairness.spread.per_group.items()
        },
        "per_group_rates": {
            demo.label(): {"fmr": fmr, "fnmr": fnmr}
            for demo, (fmr, fnmr) in fairness.rates.rates.items()
        },
        "operating_threshold": fairness.rates.threshold,
    }
    metrics_payload = {
        "eer_global": g.eer,
        "eer_threshold_global": g.eer_threshold,
        "fnmr_at_fmr_0p1": g.fnmr_at_fmr[0.1],
        "fnmr_at_fmr_1": g.fnmr_at_fmr[1.0],
        "fnmr_at_fmr_10": g.fnmr_at_fmr[10.0],
        "auc_global": g.auc,
        "acc_global": g.accuracy,
        "eer_subject_mean": p.eer,
        "auc_subject_mean": p.auc,
        "acc_subject_mean": p.accuracy,
        "rank1": p.rank1,
        "fairness": fairness_payload,
    }

    with _writing(out_dir):
        formats.write_json(metrics_payload, out_dir / "metrics.json")
        formats.write_json(fairness_payload, out_dir / "fairness.json")
        formats.write_det_csv(
            g.curve.thresholds, g.curve.fmr, g.curve.fnmr, out_dir / "det.csv"
        )
        for m in matrices:
            name = f"sir_{m.attribute}"
            formats.write_sir_csv(m.labels, m.values, m.missing, out_dir / f"{name}.csv")
            formats.write_sir_csv(
                m.labels, m.binarized.astype(int), m.missing, out_dir / f"{name}_binarized.csv"
            )
        _write_manifest(
            out_dir,
            "evaluate",
            fairness_config,
            {
                "comparisons": comparisons_path,
                "scores": scores_path,
                "demographics": demographics_path,
            },
            diagnostics={
                "groups_excluded_from_spread": fairness.spread.excluded,
                "sir_missing_cells": {m.attribute: m.missing_cells for m in matrices},
            },
        )
    print(
        f"global EER {g.eer:.2f}%  AUC {g.auc:.2f}%  "
        f"mean per-subject EER {p.eer:.2f}%  rank-1 {p.rank1:.2f}%"
    )
    return metrics_payload


def cmd_evaluate(args: argparse.Namespace) -> int:
    run_evaluate(
        Path(args.comparisons),
        Path(args.scores),
        Path(args.demographics),
        Path(args.out),
        _stage_config(FairnessConfig, args),
    )
    return 0


# -- demo -----------------------------------------------------------------------


def cmd_demo(args: argparse.Namespace) -> int:
    # Every config is checked before the first stage writes anything.
    synth, split, features, fairness = (
        _stage_config(cls, args)
        for cls in (GeneratorConfig, SplitConfig, FeatureConfig, FairnessConfig)
    )
    out = Path(args.out)
    run_synth(synth, out)
    run_protocol(out / "raw_log.tsv", out / "demographics.tsv", split, out)
    run_score(out / "raw_log.tsv", out / "comparisons.txt", features, out)
    run_evaluate(
        out / "comparisons.txt", out / "scores.txt", out / "demographics.tsv", out, fairness
    )
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdbench",
        description="Keystroke-dynamics verification benchmark harness.",
    )
    parser.add_argument(
        "--version", action="version", version=f"kdbench {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_stage(name: str, help: str) -> argparse.ArgumentParser:
        # A flag left out stays off the namespace, so `_stage_config` takes
        # the config field's own default.
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    def add_out(p: argparse.ArgumentParser, func) -> None:
        p.add_argument("--out", required=True)
        p.add_argument("--threads", type=int, default=1,
                       help="upper bound on worker threads (computation is vectorized; "
                       "results never depend on this value)")
        p.set_defaults(func=func)

    features = [fs.value for fs in FeatureSet]

    p = add_stage("synth", "generate a synthetic dataset")
    p.add_argument("--subjects", dest="n_subjects", metavar="SUBJECTS", type=int,
                   required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--sessions", dest="sessions_per_subject", metavar="SESSIONS", type=int)
    p.add_argument("--keys", dest="keys_per_session", metavar="KEYS", type=int)
    p.add_argument("--skew", dest="skew_strength", metavar="SKEW", type=float,
                   help="strength of group-dependent timing shifts")
    add_out(p, cmd_synth)

    p = add_stage("protocol", "split a dataset and build the comparison plan")
    p.add_argument("--data", required=True, help="raw log TSV")
    p.add_argument("--demographics", required=True, help="demographics TSV")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--eval-count", type=int)
    group.add_argument("--eval-fraction", type=float)
    p.add_argument("--no-gender-balance", dest="gender_balance", action="store_false")
    p.add_argument("--seed", type=int)
    add_out(p, cmd_protocol)

    p = add_stage("score", "score a comparison plan with the baseline verifier")
    p.add_argument("--data", required=True)
    p.add_argument("--comparisons", required=True)
    p.add_argument("--features", dest="feature_set", choices=features)
    p.add_argument("--max-len", type=int)
    p.add_argument("--clip-seconds", type=float)
    p.add_argument("--strict", action="store_true",
                   help="record the comparison-file digest in the score file header")
    add_out(p, cmd_score)

    p = add_stage("evaluate", "compute verification and fairness metrics")
    p.add_argument("--comparisons", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--demographics", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--operating-fmr", dest="operating_fmr_percent",
                   metavar="OPERATING_FMR", type=float,
                   help="FMR target (percent) for the rate-gap fairness metrics")
    add_out(p, cmd_evaluate)

    # Only demo's own defaults live here; they differ from the configs'.
    p = add_stage("demo", "synth -> protocol -> score -> evaluate on defaults")
    p.add_argument("--subjects", dest="n_subjects", metavar="SUBJECTS", type=int,
                   default=200)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--skew", dest="skew_strength", metavar="SKEW", type=float)
    p.add_argument("--eval-count", type=int, default=60)
    p.add_argument("--features", dest="feature_set", choices=features)
    p.add_argument("--max-len", type=int)
    add_out(p, cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except KdbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for exc_type, code in _EXIT_CODES if isinstance(exc, exc_type)), 1)


if __name__ == "__main__":
    sys.exit(main())
