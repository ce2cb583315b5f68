"""Re-pin the SHA-256 of every non-manifest output of each workload.

    python3 bench/pin.py

Runs each workload's chain once at the pinned seed and rewrites
bench/golden.json. Re-pin only when a change alters output bytes on
purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK_ROOT = ROOT / ".bench_work"
PIN_SEED = 7


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import GOLDEN_PATH, WORKLOADS, Chain, prepare

    pins = {}
    for w in WORKLOADS.values():
        WORK_ROOT.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f"pin-{w.name}-", dir=WORK_ROOT))
        try:
            prepare(w, PIN_SEED, work / "inputs")
            chain = Chain(w, PIN_SEED, work, golden={"seed": PIN_SEED, "workloads": {}})
            passes = ([chain.reference()] if w.shuffle else []) + [chain.run()]
            problems = [msg for p in passes for msg in p.problems]
            if problems:
                print(f"error: {w.name}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            pins[w.name] = dict(sorted(chain.first.items()))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"pinned {len(pins[w.name])} outputs of {w.name}")
    GOLDEN_PATH.write_text(
        json.dumps({"seed": PIN_SEED, "workloads": pins}, indent=2) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
