"""Quick check of the benchmark harness at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload once untraced and twice traced with ``--size tiny``,
and confirms that each run is correct, that it emits exactly the metrics
BENCHMARK.json names with their units, that the exact per-layer counts
repeat between the two traced runs, and that predictions.json covers
every per-layer metric.  It also confirms that the benchmark refuses to
run, printing no result, where the package sources are absent.  Exits 1
on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = (
    "gf.Matrix.rank.calls",
    "key_design.circulant_ratio_valid.calls",
    "protocol.user_encode.calls",
    "protocol.field_ops",
    "audit.states",
)


def check(ok: bool, message: str) -> None:
    if not ok:
        print(f"FAIL {message}")
        sys.exit(1)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(workload: str, trace: int, expected: list[dict]) -> dict:
    proc = run(ROOT, workload, trace)
    check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    where = f"{workload} trace={trace}"
    check(set(out) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys {sorted(out)}")
    check(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, f"{where}: not correct")
    metrics = out["metrics"]
    check([m["name"] for m in expected] == list(metrics), f"{where}: metric names differ")
    for m in expected:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"], f"{where}: unit of {m['name']}")
        check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
              f"{where}: value of {m['name']}")
        if trace == 0:
            check(got["value"] > 0, f"{where}: {m['name']} is not positive")
    return {name: m["value"] for name, m in metrics.items()}


def main() -> None:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in contract["per_layer"]]
    workloads = [w["name"] for w in contract["workloads"]]
    end_to_end = {m["name"] for m in contract["end_to_end"]}

    predictions = json.loads((HERE / "predictions.json").read_text())["per_layer"]
    check(sorted(predictions) == sorted(per_layer), "predictions.json does not cover per_layer")
    for name, pred in predictions.items():
        for key in ("moves", "moves_less"):
            for target in pred.get(key, []):
                metric, _, workload = target.partition("@")
                check(metric in end_to_end and workload in workloads, f"{name}: bad target {target}")
        check(set(pred.get("steady", [])) <= set(workloads), f"{name}: bad steady workload")

    for workload in workloads:
        result(workload, 0, contract["end_to_end"])
        first = result(workload, 1, contract["per_layer"])
        second = result(workload, 1, contract["per_layer"])
        for name in EXACT:
            check(first[name] == second[name], f"{workload}: {name} {first[name]} != {second[name]}")
        print(f"ok {workload}")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, workloads[0], 0)
    finally:
        shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout, "ran without package sources")
    print("ok refuses to run without package sources")


if __name__ == "__main__":
    main()
