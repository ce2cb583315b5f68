"""Command-line pipelines: synth, protocol, score, evaluate, and demo.

Every subcommand is deterministic given its flags and input files and
drops a manifest.json (resolved configuration, input digests, seed,
timestamp) alongside its outputs. Exit codes: 0 ok, 2 configuration or
input-format error, 3 protocol precondition failure, 4 dangling data
reference, 5 score/comparison misalignment.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from . import formats
from .baseline import embed_dataset, fit_normalization, score_comparisons
from .core import Dataset, attach_demographics, filter_eligible
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


def _write_manifest(
    out_dir: Path,
    subcommand: str,
    config: dict,
    inputs: dict[str, Path],
    seed: int | None,
) -> None:
    # One manifest per stage so composed pipelines (demo) keep all of them.
    formats.write_json(
        {
            "tool": "kdbench",
            "version": __version__,
            "subcommand": subcommand,
            "config": config,
            "inputs": {name: formats.sha256_file(p) for name, p in inputs.items()},
            "seed": seed,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
        out_dir / f"manifest_{subcommand}.json",
    )


def _require_file(path: Path, exc_type: type[KdbenchError] = ConfigError) -> Path:
    if not path.is_file():
        raise exc_type(f"input file not found: {path}")
    return path


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
    out_dir.mkdir(parents=True, exist_ok=True)
    formats.write_raw_log(dataset, out_dir / "raw_log.tsv")
    formats.write_demographics(dataset, out_dir / "demographics.tsv")
    _write_manifest(
        out_dir,
        "synth",
        {
            "n_subjects": config.n_subjects,
            "sessions_per_subject": config.sessions_per_subject,
            "keys_per_session": config.keys_per_session,
            "group_weights": list(config.group_weights),
            "skew_strength": config.skew_strength,
        },
        {},
        config.seed,
    )
    print(f"wrote {len(dataset)} subjects to {out_dir}")


def cmd_synth(args: argparse.Namespace) -> int:
    run_synth(
        GeneratorConfig(
            n_subjects=args.subjects,
            seed=args.seed,
            sessions_per_subject=args.sessions,
            keys_per_session=args.keys,
            skew_strength=args.skew,
        ),
        Path(args.out),
    )
    return 0


# -- protocol ---------------------------------------------------------------


def run_protocol(
    data_path: Path,
    demographics_path: Path,
    split_config: SplitConfig,
    out_dir: Path,
) -> ComparisonPlan:
    dataset = filter_eligible(_load_labeled_dataset(data_path, demographics_path))
    development, evaluation = split_dataset(dataset, split_config)
    plan = build_comparison_plan(evaluation, split_config.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    formats.write_comparisons(plan, out_dir / "comparisons.txt")
    formats.write_json(
        {
            "development": [s.subject_id for s in development.subjects],
            "evaluation": [s.subject_id for s in evaluation.subjects],
        },
        out_dir / "split.json",
    )
    _write_manifest(
        out_dir,
        "protocol",
        {
            "eval_count": split_config.eval_count,
            "eval_fraction": split_config.eval_fraction,
            "gender_balance": split_config.gender_balance,
        },
        {"data": data_path, "demographics": demographics_path},
        split_config.seed,
    )
    print(
        f"wrote {len(plan)} comparisons for {len(evaluation)} evaluation "
        f"subjects to {out_dir}"
    )
    return plan


def cmd_protocol(args: argparse.Namespace) -> int:
    run_protocol(
        Path(args.data),
        Path(args.demographics),
        SplitConfig(
            seed=args.seed,
            eval_count=args.eval_count,
            eval_fraction=args.eval_fraction,
            gender_balance=not args.no_gender_balance,
        ),
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

    referenced = plan.referenced_sessions()
    referenced_subjects = {subject_id for subject_id, _ in referenced}
    development = Dataset(
        tuple(s for s in dataset.subjects if s.subject_id not in referenced_subjects)
    )
    if not development.subjects:
        raise ProtocolError(
            "every eligible subject in the dataset is referenced by the comparison "
            "file; no development subjects left to fit normalization"
        )
    stats = fit_normalization(development, feature_config)

    subject_map = dataset.subject_map()
    evaluation = Dataset(
        tuple(subject_map[s] for s in referenced_subjects if s in subject_map)
    )
    embeddings = embed_dataset(evaluation, feature_config, stats)
    for subject_id, session_id in sorted(referenced - embeddings.keys()):
        if subject_id not in subject_map:
            raise DataReferenceError(
                f"subject {subject_id!r} not in dataset or not protocol-eligible"
            )
        raise DataReferenceError(
            f"session {session_id!r} of subject {subject_id!r} not in dataset"
        )

    scores = score_comparisons(plan, embeddings)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = formats.sha256_file(comparisons_path) if strict else None
    formats.write_scores(scores.tolist(), out_dir / "scores.txt", digest)
    _write_manifest(
        out_dir,
        "score",
        {
            "features": feature_config.feature_set.value,
            "max_len": feature_config.max_len,
            "clip_seconds": feature_config.clip_seconds,
            "strict": strict,
        },
        {"data": data_path, "comparisons": comparisons_path},
        None,
    )
    print(f"wrote {len(scores)} scores to {out_dir / 'scores.txt'}")


def cmd_score(args: argparse.Namespace) -> int:
    run_score(
        Path(args.data),
        Path(args.comparisons),
        FeatureConfig(
            feature_set=FeatureSet(args.features),
            max_len=args.max_len,
            clip_seconds=args.clip_seconds,
        ),
        Path(args.out),
        strict=args.strict,
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

    score_sets = aggregate_scores(plan, raw_scores)
    metrics = compute_metrics_report(score_sets)
    g = metrics.global_metrics
    p = metrics.per_subject
    fairness = compute_fairness_report(
        score_sets, demographics, plan, raw_scores, g, config=fairness_config
    )

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

    out_dir.mkdir(parents=True, exist_ok=True)
    formats.write_json(metrics_payload, out_dir / "metrics.json")
    formats.write_json(fairness_payload, out_dir / "fairness.json")
    formats.write_det_csv(g.curve.thresholds, g.curve.fmr, g.curve.fnmr, out_dir / "det.csv")
    for m in (fairness.sir_age_matrix, fairness.sir_gender_matrix):
        name = f"sir_{m.attribute}"
        formats.write_sir_csv(m.labels, m.values, m.missing, out_dir / f"{name}.csv")
        formats.write_sir_csv(
            m.labels, m.binarized.astype(int), m.missing, out_dir / f"{name}_binarized.csv"
        )
    _write_manifest(
        out_dir,
        "evaluate",
        {
            "alpha": fairness_config.alpha,
            "operating_fmr_percent": fairness_config.operating_fmr_percent,
        },
        {
            "comparisons": comparisons_path,
            "scores": scores_path,
            "demographics": demographics_path,
        },
        None,
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
        FairnessConfig(
            alpha=args.alpha, operating_fmr_percent=args.operating_fmr
        ),
    )
    return 0


# -- demo -----------------------------------------------------------------------


def cmd_demo(args: argparse.Namespace) -> int:
    out = Path(args.out)
    run_synth(
        GeneratorConfig(
            n_subjects=args.subjects, seed=args.seed, skew_strength=args.skew
        ),
        out,
    )
    run_protocol(
        out / "raw_log.tsv",
        out / "demographics.tsv",
        SplitConfig(seed=args.seed, eval_count=args.eval_count),
        out,
    )
    run_score(
        out / "raw_log.tsv",
        out / "comparisons.txt",
        FeatureConfig(
            feature_set=FeatureSet(args.features), max_len=args.max_len
        ),
        out,
    )
    run_evaluate(
        out / "comparisons.txt",
        out / "scores.txt",
        out / "demographics.tsv",
        out,
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

    def add_threads(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="upper bound on worker threads (computation is vectorized; "
            "results never depend on this value)",
        )

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--subjects", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sessions", type=int, default=15)
    p.add_argument("--keys", type=int, default=48)
    p.add_argument("--skew", type=float, default=0.0,
                   help="strength of group-dependent timing shifts")
    p.add_argument("--out", required=True)
    add_threads(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("protocol", help="split a dataset and build the comparison plan")
    p.add_argument("--data", required=True, help="raw log TSV")
    p.add_argument("--demographics", required=True, help="demographics TSV")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--eval-count", type=int)
    group.add_argument("--eval-fraction", type=float)
    p.add_argument("--no-gender-balance", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    add_threads(p)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("score", help="score a comparison plan with the baseline verifier")
    p.add_argument("--data", required=True)
    p.add_argument("--comparisons", required=True)
    p.add_argument("--features", choices=[fs.value for fs in FeatureSet], default="5f")
    p.add_argument("--max-len", type=int, default=48)
    p.add_argument("--clip-seconds", type=float, default=10.0)
    p.add_argument("--strict", action="store_true",
                   help="record the comparison-file digest in the score file header")
    p.add_argument("--out", required=True)
    add_threads(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="compute verification and fairness metrics")
    p.add_argument("--comparisons", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--demographics", required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--operating-fmr", type=float, default=1.0,
                   help="FMR target (percent) for the rate-gap fairness metrics")
    p.add_argument("--out", required=True)
    add_threads(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("demo", help="synth -> protocol -> score -> evaluate on defaults")
    p.add_argument("--subjects", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--skew", type=float, default=0.0)
    p.add_argument("--eval-count", type=int, default=60)
    p.add_argument("--features", choices=[fs.value for fs in FeatureSet], default="5f")
    p.add_argument("--max-len", type=int, default=48)
    p.add_argument("--out", required=True)
    add_threads(p)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except KdbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for exc_type, code in _EXIT_CODES if isinstance(exc, exc_type)), 1)


if __name__ == "__main__":
    sys.exit(main())
