"""Smoke test of the benchmark itself; run from the checkout root:

    python3 perfbench/smoke.py

Runs every workload at minimal size, untraced and traced, and checks
that each run emits every metric `BENCHMARK.json` names with its unit and
serves every verdict correctly.  It also checks that a wrong verdict is
counted as a failure, and that the benchmark refuses to run in a directory
without the program.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402
from run import WORK_DIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: minimal sizes: models per catalogue, zipf submissions per pass
MODELS = 3
SUBMISSIONS = 24


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def declared_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def smoke_run(workload: str, trace: bool) -> harness.RunResult:
    return harness.run(workload, 0, 0.1, trace, WORK_DIR, models=MODELS, submissions=SUBMISSIONS)


def main() -> None:
    check(
        declared_units("end_to_end") == harness.END_TO_END_UNITS,
        "BENCHMARK.json end-to-end metrics match the harness",
    )
    check(
        declared_units("per_layer") == PER_LAYER_UNITS,
        "BENCHMARK.json per-layer metrics match the traced run",
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(
        sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
        "BENCHMARK.json workloads match the harness",
    )
    for workload in WORKLOADS:
        for trace, units in ((False, harness.END_TO_END_UNITS), (True, PER_LAYER_UNITS)):
            result = smoke_run(workload, trace)
            label = f"{workload} trace={int(trace)}"
            check(result.attempted > 0 and result.failed == 0, f"{label}: every verdict correct")
            check(set(result.metrics) == set(units), f"{label}: emits every metric")

    # an injected wrong verdict must count as a failed operation
    honest = harness.reference_verdicts

    def corrupted(workload, registry):
        reference = honest(workload, registry)
        key = sorted(reference)[0]
        reference[key].score = reference[key].score + 1e-9
        return reference

    harness.reference_verdicts = corrupted
    try:
        result = smoke_run("fleet_zipf", False)
    finally:
        harness.reference_verdicts = honest
    check(result.failed >= 1, f"a wrong verdict is a failure ({result.failed} failed)")

    # without the program sources the benchmark must refuse, printing no result
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        command = [sys.executable, f"{HERE.name}/run.py", "--workload", "fleet_zipf",
                   "--seed", "0", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=180)
    check(done.returncode != 0 and not done.stdout.strip(), "refuses to run without the program")
    print("smoke test passed")


if __name__ == "__main__":
    main()
