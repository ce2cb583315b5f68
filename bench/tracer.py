"""Per-layer tracing from outside the program.

The tracer replaces each public function named in `TARGETS` with a wrapper
that records a span per call. A name is replaced in every `kdbench`
module namespace that binds it (`from .baseline import embed_session` in
`cli`, for one), so calls through any of those names are seen. Spans stay
in memory and nothing is written to disk.

For each span the tracer keeps busy (self) time: the call's duration
minus the time its wrapped child calls and the tracer's own bookkeeping
took. It also keeps the call count, the items handled, and the largest
growth of resident memory across one call. A target that the program no
longer defines is reported as absent, never as zero.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _events(dataset: Any) -> int:
    return sum(len(session.events) for s in dataset.subjects for session in s.sessions)


@dataclass(frozen=True)
class Target:
    """A wrapped function: `module` under `kdbench`, `qualname` in it, and
    how many `unit`s one call handles, from its (args, result)."""

    module: str
    qualname: str
    unit: str
    items: Callable[[tuple, Any], int]

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


TARGETS = (
    Target("synthgen", "generate", "events", lambda a, r: _events(r)),
    Target("formats", "write_raw_log", "events", lambda a, r: _events(a[0])),
    Target("formats", "load_raw_log", "events", lambda a, r: _events(r)),
    Target("core", "parse_raw_log", "events", lambda a, r: _events(r)),
    Target("core", "filter_eligible", "subjects", lambda a, r: len(a[0])),
    Target("core", "attach_demographics", "subjects", lambda a, r: len(a[0])),
    Target("features", "extract_features", "events", lambda a, r: r.valid_len),
    Target("baseline", "fit_normalization", "sessions", lambda a, r: a[0].n_sessions()),
    Target("baseline", "embed_session", "sessions", lambda a, r: 1),
    Target("baseline", "score_comparisons", "comparisons", lambda a, r: len(a[0])),
    Target("protocol", "split_dataset", "subjects", lambda a, r: len(a[0])),
    Target("protocol", "build_comparison_plan", "comparisons", lambda a, r: len(r)),
    Target(
        "protocol", "ComparisonPlan.referenced_sessions", "comparisons",
        lambda a, r: len(a[0]),
    ),
    Target("protocol", "aggregate_scores", "comparisons", lambda a, r: len(a[0])),
    Target("formats", "write_comparisons", "comparisons", lambda a, r: len(a[0])),
    Target("formats", "load_comparisons", "comparisons", lambda a, r: len(r)),
    Target("formats", "write_scores", "comparisons", lambda a, r: len(a[0])),
    Target("formats", "load_scores", "comparisons", lambda a, r: len(r[0])),
    Target("formats", "sha256_file", "bytes", lambda a, r: os.path.getsize(a[0])),
    Target("verifmetrics", "compute_metrics_report", "subjects", lambda a, r: len(a[0])),
    Target("verifmetrics", "roc", "scores", lambda a, r: len(a[0]) + len(a[1])),
    Target(
        "fairmetrics", "compute_fairness_report", "comparisons", lambda a, r: len(a[3])
    ),
)

# The CLI stage functions; their self time is stage time no wrapped call covers.
STAGE_TARGETS = tuple(
    Target("cli", f"run_{stage}", "calls", lambda a, r: 1)
    for stage in ("synth", "protocol", "score", "evaluate")
)
ALL_TARGETS = TARGETS + STAGE_TARGETS


@dataclass
class SpanStats:
    busy_s: float = 0.0
    calls: int = 0
    items: int = 0
    rss_growth_mb: float = 0.0


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []
        self._statm = -1

    def _rss_mb(self) -> float:
        return int(os.pread(self._statm, 128, 0).split()[1]) * _PAGE_MB

    def take(self) -> dict[str, SpanStats]:
        """Return the stats gathered since the last call and start afresh."""
        taken, self.stats = self.stats, {t.name: SpanStats() for t in ALL_TARGETS
                                         if t.name not in self.absent}
        return taken

    def __enter__(self) -> "Tracer":
        self._statm = os.open("/proc/self/statm", os.O_RDONLY)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "kdbench" or n.startswith("kdbench."))]
        self.absent = []
        for target in ALL_TARGETS:
            owner = sys.modules.get(f"kdbench.{target.module}")
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            holders = [owner] if path else modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        self._restore.append((holder, name, original))
        self.take()
        return self

    def __exit__(self, *exc_info: object) -> None:
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()
        os.close(self._statm)

    def _wrap(self, target: Target, original: Callable) -> Callable:
        stack, span = self._stack, target.name

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            children = [0.0]
            stack.append(children)
            rss0 = self._rss_mb()
            start = time.perf_counter()
            returned = False
            try:
                result = original(*args, **kwargs)
                returned = True
                return result
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stats = self.stats[span]
                stats.busy_s += elapsed - children[0]
                stats.calls += 1
                if returned:
                    stats.items += target.items(args, result)
                stats.rss_growth_mb = max(stats.rss_growth_mb, self._rss_mb() - rss0)
                if stack:
                    # The parent's self time excludes this whole call,
                    # the tracer's bookkeeping included.
                    stack[-1][0] += time.perf_counter() - entered

        return wrapper
