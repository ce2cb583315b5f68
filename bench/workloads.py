"""The benchmark's workloads: their inputs, timed stage chains and output checks.

Every timed stage is a call to the same `kdbench.cli.run_*` function that
`kdbench demo` and the subcommands use, so any cost in the CLI layer shows
up in the numbers. The caller must put the repository's `src/` on
`sys.path` before importing this module.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kdbench import cli, formats
from kdbench.features import FeatureConfig, FeatureSet
from kdbench.protocol import SplitConfig, build_comparison_plan, split_dataset
from kdbench.synthgen import GeneratorConfig, generate

SESSIONS_PER_SUBJECT = 15
COMPARISONS_PER_SUBJECT = 150
STAGES = ("synth", "protocol", "score", "evaluate")

# Files each stage writes into its --out directory, manifests excluded:
# they carry a timestamp, so their bytes differ on every run.
STAGE_OUTPUTS = {
    "synth": ("raw_log.tsv", "demographics.tsv"),
    "protocol": ("comparisons.txt", "split.json"),
    "score": ("scores.txt",),
    "evaluate": (
        "metrics.json",
        "fairness.json",
        "det.csv",
        "sir_age.csv",
        "sir_gender.csv",
        "sir_age_binarized.csv",
        "sir_gender_binarized.csv",
    ),
}
# The stage whose output a file is: a chain that lacks that stage reads the
# file from the generated inputs instead.
PRODUCER = {name: stage for stage, names in STAGE_OUTPUTS.items() for name in names}

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Mean similarity per comparison kind in a generated external score file:
# genuine above similar impostors above dissimilar ones, as a verifier
# that works would produce.
EXTERNAL_SCORE_MEANS = {"G": 0.70, "S": 0.45, "D": 0.35}
EXTERNAL_SCORE_SD = 0.12


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[str, ...]
    subjects: int
    eval_count: int
    keys: int
    features: str = "5f"
    max_len: int = 48
    shuffle: bool = False

    @property
    def events(self) -> int:
        return self.subjects * SESSIONS_PER_SUBJECT * self.keys

    @property
    def comparisons(self) -> int:
        return self.eval_count * COMPARISONS_PER_SUBJECT


# Sizes keep one timed chain at a few seconds on one core, so a run holds
# several chains and reports their median. The protocol's group
# preconditions held on every seed tried: 0-1999 at 200/60 subjects,
# 0-499 at 1000/600. At 150/60 and 120/48 they fail on 1-3% of seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "full-pipeline",
            STAGES,
            subjects=200,
            eval_count=60,
            keys=48,
        ),
        Workload(
            "external-verifier",
            ("protocol", "evaluate"),
            subjects=1000,
            eval_count=600,
            keys=1,
        ),
        Workload(
            "rescore-unordered",
            ("score",),
            subjects=200,
            eval_count=60,
            keys=96,
            features="11f",
            max_len=64,
            shuffle=True,
        ),
    )
}


# -- inputs -------------------------------------------------------------


def prepare(w: Workload, seed: int, inputs: Path) -> None:
    """Write the inputs the workload's timed chain reads but does not make.

    A pure function of (w, seed). For a shuffled workload `raw_log.tsv`
    holds the shuffled lines and `ordered_raw_log.tsv` the synth order.
    """
    if "synth" in w.stages:
        return
    inputs.mkdir(parents=True, exist_ok=True)
    dataset = generate(
        GeneratorConfig(n_subjects=w.subjects, seed=seed, keys_per_session=w.keys)
    )
    raw_log = inputs / ("ordered_raw_log.tsv" if w.shuffle else "raw_log.tsv")
    formats.write_raw_log(dataset, raw_log)
    formats.write_demographics(dataset, inputs / "demographics.tsv")
    if w.shuffle:
        lines = raw_log.read_text(encoding="utf-8").splitlines(keepends=True)
        random.Random(seed).shuffle(lines)
        (inputs / "raw_log.tsv").write_text("".join(lines), encoding="utf-8")

    # Synth output is already eligible and labelled, so the plan built here
    # equals the one `run_protocol` builds from the written files.
    _, evaluation = split_dataset(dataset, SplitConfig(seed=seed, eval_count=w.eval_count))
    plan = build_comparison_plan(evaluation, seed)
    formats.write_comparisons(plan, inputs / "comparisons.txt")
    if "score" not in w.stages:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        means = np.array([EXTERNAL_SCORE_MEANS[e.kind.letter] for e in plan.entries])
        scores = np.clip(rng.normal(means, EXTERNAL_SCORE_SD), 0.0, 1.0)
        (inputs / "scores.txt").write_text(
            "".join(f"{s!r}\n" for s in scores.tolist()), encoding="utf-8"
        )


# -- the timed chain ----------------------------------------------------


def call_stage(
    w: Workload, stage: str, seed: int, inputs: Path, out: Path, raw_log: str = "raw_log.tsv"
) -> None:
    """Run one CLI stage exactly as `kdbench demo` configures it."""

    def source(name: str) -> Path:
        return (out if PRODUCER.get(name) in w.stages else inputs) / name

    if stage == "synth":
        cli.run_synth(
            GeneratorConfig(n_subjects=w.subjects, seed=seed, keys_per_session=w.keys), out
        )
    elif stage == "protocol":
        cli.run_protocol(
            source("raw_log.tsv"),
            source("demographics.tsv"),
            SplitConfig(seed=seed, eval_count=w.eval_count),
            out,
        )
    elif stage == "score":
        cli.run_score(
            source(raw_log),
            source("comparisons.txt"),
            FeatureConfig(feature_set=FeatureSet(w.features), max_len=w.max_len),
            out,
        )
    elif stage == "evaluate":
        cli.run_evaluate(
            source("comparisons.txt"), source("scores.txt"), source("demographics.tsv"), out
        )
    else:
        raise ValueError(f"unknown stage {stage!r}")


def file_facts(path: Path) -> tuple[str, int]:
    """(SHA-256, line count) of a file."""
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), data.count(b"\n")


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Rep:
    """One pass over the timed chain."""

    stage_s: dict[str, float] = field(default_factory=dict)
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.stage_s.values())


class Chain:
    """Runs a workload's stage chain repeatedly and checks every output.

    Checks on any seed: each output exists; it equals the same output of
    the first pass (reruns are byte-identical); the plan has 150 lines per
    evaluated subject; there is one score per plan line; a plan the chain
    builds equals the one the generated inputs were made for; and a
    shuffled log scores byte-identically to the ordered one. On the pinned
    seed every output must also match its pinned SHA-256.
    """

    def __init__(self, w: Workload, seed: int, work: Path, golden: dict | None = None):
        self.w = w
        self.seed = seed
        self.inputs = work / "inputs"
        self.out = work / "out"
        golden = load_golden() if golden is None else golden
        self.pinned = golden["workloads"].get(w.name, {}) if seed == golden["seed"] else {}
        self.first: dict[str, str] = {}
        self.reference_scores: str | None = None

    def reference(self) -> Rep:
        """Score the ordered log once: the oracle for the shuffled one."""
        rep = Rep(attempted=1)
        ref = self.out.parent / "reference"
        shutil.rmtree(ref, ignore_errors=True)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                call_stage(self.w, "score", self.seed, self.inputs, ref, "ordered_raw_log.tsv")
        except Exception as exc:  # reported as a failed stage call
            rep.failed = 1
            rep.problems.append(f"reference score: {type(exc).__name__}: {exc}")
        else:
            self.reference_scores = file_facts(ref / "scores.txt")[0]
        return rep

    def run(self) -> Rep:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        gc.collect()
        rep = Rep()
        with contextlib.redirect_stdout(io.StringIO()):
            for stage in self.w.stages:
                rep.attempted += 1
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    call_stage(self.w, stage, self.seed, self.inputs, self.out)
                except Exception as exc:  # reported as a failed stage call
                    error = f"{stage}: {type(exc).__name__}: {exc}"
                else:
                    error = None
                rep.stage_s[stage] = time.perf_counter() - t0
                rep.cpu_s += time.process_time() - c0
                problems = [error] if error else self.check(stage)
                if problems:
                    rep.failed += 1
                    rep.problems.extend(problems)
                if error:
                    break
        return rep

    def check(self, stage: str) -> list[str]:
        w, problems, facts = self.w, [], {}
        for name in STAGE_OUTPUTS[stage]:
            path = self.out / name
            if not path.is_file():
                problems.append(f"{stage}: {name} was not written")
                continue
            facts[name] = file_facts(path)
            digest = facts[name][0]
            if self.pinned and self.pinned.get(name) != digest:
                problems.append(f"{stage}: {name} differs from its pinned digest")
            if self.first.setdefault(name, digest) != digest:
                problems.append(f"{stage}: {name} differs from the first pass")
        if problems:
            return problems

        def plan_lines() -> int:
            if "comparisons.txt" in facts:
                return facts["comparisons.txt"][1]
            plan_dir = self.out if "protocol" in w.stages else self.inputs
            return file_facts(plan_dir / "comparisons.txt")[1]

        if stage == "protocol":
            try:
                evaluated = len(json.loads((self.out / "split.json").read_text())["evaluation"])
            except (ValueError, KeyError, TypeError):
                evaluated = -1  # a malformed split fails the check below
            if evaluated != w.eval_count or plan_lines() != COMPARISONS_PER_SUBJECT * evaluated:
                problems.append(
                    f"protocol: {plan_lines()} comparisons for {evaluated} evaluated "
                    f"subjects, expected {COMPARISONS_PER_SUBJECT} each of {w.eval_count}"
                )
            generated = self.inputs / "comparisons.txt"
            if generated.is_file() and file_facts(generated)[0] != facts["comparisons.txt"][0]:
                problems.append("protocol: plan differs from the one the inputs were made for")
        elif stage == "score":
            if facts["scores.txt"][1] != plan_lines():
                problems.append(
                    f"score: {facts['scores.txt'][1]} scores for {plan_lines()} comparisons"
                )
            if w.shuffle and facts["scores.txt"][0] != self.reference_scores:
                problems.append("score: shuffled log scored differently from the ordered log")
        elif stage == "evaluate" and "score" not in w.stages:
            scores = file_facts(self.inputs / "scores.txt")[1]
            if scores != plan_lines():
                problems.append(f"evaluate: {scores} scores for {plan_lines()} comparisons")
        return problems
