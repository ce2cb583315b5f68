"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload full-pipeline --seed 7 --seconds 20 --trace 0

Prints the machine facts, one line per metric, and as the last line a
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
the per-layer ones. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK_ROOT = ROOT / ".bench_work"
MAX_PROBLEMS_SHOWN = 20


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one kdbench benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep starting timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kdbench" / "__init__.py").is_file():
        print(f"error: no kdbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from measure import SetupError, machine_facts, measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT))
    try:
        result, problems = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work
        )
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"problem: {problem}", file=sys.stderr)
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"problem: ... {len(problems) - MAX_PROBLEMS_SHOWN} more", file=sys.stderr)
    print("machine " + json.dumps(machine_facts(ROOT), sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  "
          f"failed_ratio {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']} of {result['attempted']} stage calls)")
    for name, metric in result["metrics"].items():
        print(f"  {name:<58} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
