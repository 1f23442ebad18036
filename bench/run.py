"""The spiralshift benchmark: three closed-loop workloads, timed end to end.

    python3 bench/run.py [--workload verify-full|census|operators|all]
        [--seed N] [--seconds T] [--trace 0|1] [--spans FILE]

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  Each workload runs in its own fresh process
(workloads.py), one thread, jobs issued back to back.  With --trace 0 the
end-to-end metrics are reported; with --trace 1 the per-layer metrics of a
traced run (tracing.py).  Every metric is printed by name and unit, then a
record line with the run metadata, then, last, one JSON result line.  The
exit code is non-zero when any job's output is wrong.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Fresh processes timed for setup_s, the measuring one included; the median
# is reported.
SETUP_PROBES = 15

# A workload process that runs this much longer than its --seconds is killed
# and the run fails.
CHILD_MARGIN_S = 120


def workload_process(args: list[str], seconds: float) -> dict:
    """Run workloads.py with `args` in a fresh process and return its report."""
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--src", str(SRC), *args]
    done = subprocess.run(
        cmd, capture_output=True, text=True, timeout=seconds + CHILD_MARGIN_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile of `times` with at least ten samples beyond it.

    Runs with fewer than 40 passes keep a quarter of them beyond it instead.
    Returns (value, percentile, samples beyond).
    """
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(10, n // 4)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def unit_of(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_s", ".tail")) or ".busy_s." in metric:
        return "s"
    if metric.endswith(("ratio", "overhead", "per_call")):
        return "ratio"
    return "count"


def commit() -> str:
    """`git rev-parse HEAD` of the checkout, or "unknown" outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def measure(workload: str, seed: int, seconds: float, trace: bool, spans: str | None):
    """Run one workload; returns (metrics, record, attempted, failed)."""
    common = ["--workload", workload, "--seed", str(seed)]
    args = common + ["--seconds", str(seconds), "--trace", str(int(trace))]
    if spans:
        args += ["--spans", spans]
    report = workload_process(args, seconds)
    passes = report["passes"]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "passes": passes,
        "failures": report["failures"],
    }
    wall = statistics.median(passes)
    if trace:
        traced = report["traced"]
        metrics = dict(traced["metrics"])
        metrics["run.cpu_s"] = statistics.median(report["cpu"])
        metrics["run.trace_overhead"] = statistics.median(
            t / u for t, u in zip(traced["passes"], passes)
        )
        record.update(
            traced_passes=traced["passes"],
            tracer_s=traced["tracer_s"],
            counters_repeat=traced["counters_repeat"],
        )
    else:
        setups = [report["setup_s"]] + [
            workload_process(common + ["--setup-only"], 0)["setup_s"]
            for _ in range(SETUP_PROBES - 1)
        ]
        tail_s, percentile, beyond = tail(passes)
        metrics = {
            "wall_s": wall,
            "wall_s.tail": tail_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        record.update(tail_percentile=percentile, tail_beyond=beyond, setup_probes=setups)
    return metrics, record, report["attempted"], report["failed"]


def print_table(workload: str, metrics: dict, record: dict, attempted: int, failed: int) -> None:
    n = len(record["passes"])
    notes = {
        "wall_s": f"median of {n} passes",
        "setup_s": f"median of {SETUP_PROBES} fresh processes",
    }
    if "tail_percentile" in record:
        notes["wall_s.tail"] = (
            f"p{record['tail_percentile']:.1f}, {record['tail_beyond']} of {n} passes beyond"
        )
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload:<12} {name:<42} {value:>14.6g} {unit_of(name)}{note}")
    rate = failed / attempted
    print(f"{workload:<12} {'fail_rate':<42} {rate:>14.6g} ratio  ({failed} of {attempted} jobs)")
    for message in record["failures"]:
        print(f"{workload:<12} FAILED {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0, help="operators draws its inputs from it")
    parser.add_argument("--seconds", type=float, default=38.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans", help="with --trace 1 and one workload: write the first traced pass's spans here"
    )
    args = parser.parse_args(argv)
    if args.spans and args.workload == "all":
        parser.error("--spans needs a single --workload")
    if not (SRC / "spiralshift" / "__init__.py").is_file():
        print(f"error: no spiralshift package under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    attempted = failed = 0
    for workload in workloads:
        metrics, record, tried, bad = measure(
            workload, args.seed, args.seconds, bool(args.trace), args.spans
        )
        attempted += tried
        failed += bad
        print_table(workload, metrics, record, tried, bad)
        print(json.dumps({"record": record}))
        results[workload] = {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()}
    metrics_out = results[workloads[0]] if len(workloads) == 1 else results
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    print(json.dumps({**result, "metrics": metrics_out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
