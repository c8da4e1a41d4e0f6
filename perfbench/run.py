"""Audit-path benchmark: one run of one workload through ``AuditGateway``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_cnn --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
record the environment, the detection AUROC with its seed, every timed pass
and, when traced, the per-layer tables.  The workloads, metrics and the
layer -> end-to-end metric -> workload table are described in
``perfbench/LAYERS.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: catalogue cache and per-run scratch stores, inside the checkout
WORK_DIR = ROOT / ".bench_build" / "perfbench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"perfbench: no program sources at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from harness import END_TO_END_UNITS, run
    from layers import PER_LAYER_UNITS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"available: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), WORK_DIR)
    for line in result.report:
        print(line)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
