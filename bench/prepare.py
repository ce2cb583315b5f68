"""Generate one workload's untimed inputs in a fresh process.

    python3 bench/prepare.py --spec '<Workload as JSON>' --seed 7 --out DIR

Prints, as its last line, a JSON object whose `setup_s` is the time to
import kdbench plus the time to write the inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = json.loads(args.spec)
    w = workloads.Workload(**{**spec, "stages": tuple(spec["stages"])})
    workloads.prepare(w, args.seed, Path(args.out))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
