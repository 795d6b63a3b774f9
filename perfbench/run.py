"""hsagg benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload round-stream --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory.  With ``--trace 0`` the run reports the end-to-end
metrics named in BENCHMARK.json; with ``--trace 1`` it runs the same ops
untraced and then traced, and reports the per-layer metrics, including
the tracing overhead.  The last line of standard output is the result
object; the line before it holds the run's provenance.  ``--workload
all`` runs every workload in a fresh process and prints one summary.
"""

from __future__ import annotations

import os

# One process, no worker threads: pinned before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HSA_THREADS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
TAIL_BEYOND = 10
TAIL_LADDER = (99, 95, 90, 75)
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import hsagg; print(time.perf_counter() - t)"
)
# calibrate() on an idle 2-vCPU Intel Xeon host (5th percentile of 600 calls).
REFERENCE_CALIBRATION_S = 0.00265


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_hsagg():
    if not (SRC / "hsagg" / "__init__.py").is_file():
        fail(f"no hsagg sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import hsagg

    if Path(hsagg.__file__).resolve().parent != SRC / "hsagg":
        fail(f"imported hsagg from {hsagg.__file__}, not from {SRC}")
    return hsagg


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop that shares no code with hsagg.

    On a shared host the speed of a core swings up to twofold within
    seconds as neighbours come and go.  The loop runs right before and
    right after every timed call, and the call's time is scaled to the
    reference speed by REFERENCE_CALIBRATION_S / mean(the two loop times).
    """
    t0 = time.perf_counter()
    acc = 0
    for x in range(1, 20001):
        acc = (acc + x * 7919) % 305017
    tuple((x * 31) % 305017 for x in range(20000))
    return time.perf_counter() - t0


def to_reference(raw: float, before: float, after: float) -> float:
    return raw * REFERENCE_CALIBRATION_S * 2 / (before + after)


@dataclass
class Phase:
    latencies: list = field(default_factory=list)  # scaled to the reference speed
    raw_latencies: list = field(default_factory=list)
    pass_rates: list = field(default_factory=list)  # work units per scaled second
    calibrations: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    passes: int = 0


def measure(wl, budget: float, tracer=None) -> Phase:
    """Whole passes; another starts only if a mean pass still fits the budget."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        gc.collect()
        work = busy = 0.0
        for op in wl.ops():
            phase.attempted += 1
            before = calibrate()
            if tracer is not None:
                tracer.begin(phase.attempted)
            try:
                t0 = time.perf_counter()
                result = wl.run(op)
                dt = time.perf_counter() - t0
            except Exception as exc:  # a failed op is counted, not fatal
                print(f"perfbench: op {op!r} raised {exc!r}", file=sys.stderr)
                phase.failed += 1
                continue
            finally:
                if tracer is not None:
                    tracer.end()
            after = calibrate()
            scaled = to_reference(dt, before, after)
            phase.calibrations += [before, after]
            phase.raw_latencies.append(dt)
            phase.latencies.append(scaled)
            work += wl.work(op)
            busy += scaled
            if not wl.check(op, result):
                print(f"perfbench: op {op!r} failed its check", file=sys.stderr)
                phase.failed += 1
        if busy:
            phase.pass_rates.append(work / busy)
        phase.passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / phase.passes > budget:
            return phase


def tail(latencies: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile of
    TAIL_LADDER with at least TAIL_BEYOND samples beyond it, else the
    median.  A fixed ladder keeps the tail on the same op of a
    heterogeneous pass however many passes fit in the run."""
    xs = sorted(latencies)
    n = len(xs)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct * n / 100)  # nearest rank
        if n - rank >= TAIL_BEYOND:
            return xs[rank - 1], pct, n - rank
    return statistics.median(xs), 50, n // 2


def setup_seconds(wl) -> float:
    """Median fresh-interpreter import of hsagg plus median workload
    prepare, each scaled to the reference speed."""
    imports = []
    for _ in range(SETUP_REPS):
        before = calibrate()
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        imports.append(to_reference(float(probe.stdout), before, calibrate()))
    prepares = []
    for rep in range(SETUP_REPS):
        if rep:
            wl.close()
        before = calibrate()
        t0 = time.perf_counter()
        wl.prepare()
        prepares.append(to_reference(time.perf_counter() - t0, before, calibrate()))
    return statistics.median(imports) + statistics.median(prepares)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, phase: Phase) -> dict:
    import numpy

    value, pct, beyond = tail(phase.latencies)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "hsa_threads": os.environ.get("HSA_THREADS", "unset"),
        "passes": phase.passes,
        "percentiles": {
            "op_p50_ms": {"percentile": 50, "samples": len(phase.latencies)},
            "op_tail_ms": {
                "percentile": pct,
                "samples": len(phase.latencies),
                "beyond": beyond,
            },
        },
        "setup_reps": SETUP_REPS,
        "reference_calibration_ms": 1e3 * REFERENCE_CALIBRATION_S,
        "calibration_p50_ms": 1e3 * statistics.median(phase.calibrations),
        "unscaled_op_p50_ms": 1e3 * statistics.median(phase.raw_latencies),
    }


def load_contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"missing {path}")
    return json.loads(path.read_text())


def end_to_end(phase: Phase, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "work_per_s": statistics.median(phase.pass_rates),
        "op_p50_ms": 1e3 * statistics.median(phase.latencies),
        "op_tail_ms": 1e3 * tail(phase.latencies)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, untraced: Phase, traced: Phase) -> dict[str, float]:
    values = tracer.per_op()
    calls = values.get("key_design.circulant_ratio_valid.calls", 0.0)
    built = values.pop("key_design.circulant_built", 0.0)
    values["key_design.accept_ratio"] = built / calls if calls else 0.0
    for counted in ("protocol.field_ops", "audit.states"):
        values.setdefault(counted, 0.0)
    values["trace.overhead_ms"] = 1e3 * (
        statistics.median(traced.latencies) - statistics.median(untraced.latencies)
    )
    return values


def run_one(args, contract: dict) -> None:
    import_hsagg()
    from tracer import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.size == "tiny", OUT)
    try:
        if args.trace:
            wl.prepare()
            untraced = measure(wl, args.seconds / 2)
            with Tracer() as tracer:
                phase = measure(wl, args.seconds / 2, tracer)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
            values = per_layer(tracer, untraced, phase)
            wanted = contract["per_layer"]
        else:
            setup_s = setup_seconds(wl)
            phase = measure(wl, args.seconds)
            values = end_to_end(phase, setup_s)
            wanted = contract["end_to_end"]
    finally:
        wl.close()

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        label = wl.work_name if name == "work_per_s" else name
        print(f"{args.workload:<17} {label:<44} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:<17} {'fail_ratio':<44} {phase.failed / phase.attempted:>16.6g} "
          f"({phase.failed}/{phase.attempted})")
    record = provenance(args, phase)
    if args.trace:
        record["computed_metrics"] = ["protocol.field_ops", "audit.states"]
    print(json.dumps({"provenance": record}, sort_keys=True))
    print(json.dumps({
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
    }))


def run_all(args, names: list[str]) -> None:
    """Each workload in a fresh process, so peak RSS belongs to it alone."""
    results = {}
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            fail(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-2]))
        results[name] = {**json.loads(lines[-2]), **json.loads(lines[-1])}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"results-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"results and provenance: {path.relative_to(ROOT)}")
    if not all(r["correct"] for r in results.values()):
        sys.exit(1)


def main() -> None:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke check")
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args, names)
    else:
        run_one(args, contract)


if __name__ == "__main__":
    main()
