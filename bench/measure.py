"""One benchmark run: set-up, warm-up, timed passes, and the metrics.

Set-up runs `SETUP_REPEATS` times, each in a fresh process, so `setup_s`
includes the import of kdbench. This process then runs one untimed
warm-up pass and timed passes until the requested seconds are used (at
least `MIN_PASSES`), and reports medians. Its peak RSS is therefore the
stage chain's own: no input generation ever ran in it.

With tracing on, untraced and traced passes alternate. Untraced passes
give the per-stage wall times; traced passes give the per-layer numbers,
and the difference of the two medians is the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from tracer import TARGETS, Tracer
from workloads import STAGES, Chain, Rep, Workload

SETUP_REPEATS = 3
MIN_PASSES = 3
SETUP_TIMEOUT_S = 50
BENCH_DIR = Path(__file__).resolve().parent


class SetupError(RuntimeError):
    pass


def run_setups(w: Workload, seed: int, inputs: Path) -> list[float]:
    """Generate the inputs `SETUP_REPEATS` times; return each set-up time."""
    spec = json.dumps(dataclasses.asdict(w))
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "prepare.py"),
             "--spec", spec, "--seed", str(seed), "--out", str(inputs)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SetupError(f"input generation failed: {proc.stderr.strip()[-2000:]}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(w: Workload, passes: list[Rep], setups: list[float]) -> dict:
    wall = median(p.wall_s for p in passes)
    return {
        "wall_s": _metric(wall, "s"),
        "cpu_s": _metric(median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "events_per_s": _metric(w.events / wall, "events/s"),
        "comparisons_per_s": _metric(w.comparisons / wall, "comparisons/s"),
        "setup_s": _metric(median(setups), "s"),
    }


def per_layer(untraced: list[Rep], traced: list[tuple[Rep, dict]], absent: list[str]) -> dict:
    metrics = {}
    for t in TARGETS:
        if t.name in absent:
            continue
        spans = [stats[t.name] for _, stats in traced]
        metrics[f"{t.name}.busy_s"] = _metric(median(s.busy_s for s in spans), "s")
        metrics[f"{t.name}.calls"] = _metric(median(s.calls for s in spans), "count")
        metrics[f"{t.name}.items"] = _metric(median(s.items for s in spans), t.unit)
        metrics[f"{t.name}.rss_growth_mb"] = _metric(
            median(s.rss_growth_mb for s in spans), "MB"
        )
    for stage in STAGES:
        span = f"cli.run_{stage}"
        if span not in absent:
            metrics[f"cli.{stage}.self_s"] = _metric(
                median(stats[span].busy_s for _, stats in traced), "s"
            )
        metrics[f"cli.{stage}.wall_s"] = _metric(
            median(p.stage_s.get(stage, 0.0) for p in untraced), "s"
        )
    metrics["trace.overhead_s"] = _metric(
        median(p.wall_s for p, _ in traced) - median(p.wall_s for p in untraced), "s"
    )
    return metrics


def measure(
    w: Workload, seed: int, seconds: float, trace: bool, work: Path
) -> tuple[dict, list[str]]:
    """Run the workload; return the result object and the problems found."""
    setups = run_setups(w, seed, work / "inputs")
    chain = Chain(w, seed, work)
    # The warm-up pass is checked but not timed. On a shuffled workload it
    # scores the ordered log, which gives the reference the timed passes
    # must reproduce byte for byte.
    checked = [chain.reference() if w.shuffle else chain.run()]
    untraced: list[Rep] = []
    traced: list[tuple[Rep, dict]] = []
    tracer = Tracer()
    start = time.perf_counter()
    while len(untraced) < MIN_PASSES or time.perf_counter() - start < seconds:
        untraced.append(chain.run())
        if trace:
            with tracer:
                traced.append((chain.run(), tracer.take()))
    checked += untraced + [p for p, _ in traced]

    metrics = per_layer(untraced, traced, tracer.absent) if trace else end_to_end(w, untraced, setups)
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    problems = [msg for p in checked for msg in p.problems]
    problems += [f"span absent: {name}" for name in tracer.absent]
    return result, problems


def machine_facts(root: Path) -> dict:
    """Facts that make results from different machines tell apart."""
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src" / "kdbench").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kdbench_commit": commit,
        "kdbench_src_sha256": src.hexdigest(),
    }
