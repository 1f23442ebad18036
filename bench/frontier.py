"""Report-only frontier: the largest census and series that finish in a budget.

    python3 bench/frontier.py

Walks two ladders rung by rung: `count --q Q --d D --N n` for growing n at
each (Q, D), and `series --d D --tcut t --method configs` for growing t at
each D.  Each rung runs `spiralshift` in a child process that is killed
after BUDGET_S seconds; a ladder stops at its first rung that is killed,
refused (exit 4) or wrong.  The last rung that finished is the reachable
frontier.  Nothing here is gated or repeated: it is not a workload of
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Seconds a rung may take before its child process is killed.
BUDGET_S = 5.0

CENSUS_LADDERS = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2))
CENSUS_MAX_N = 12
SERIES_WIDTHS = (2, 3, 4, 5, 6)
SERIES_TCUTS = (2, 3, 4, 6, 9, 13, 19, 28, 42, 63, 94, 141, 211, 316, 474, 711, 1066)

RUNNER = "import sys; from spiralshift.cli import main; sys.exit(main(sys.argv[1:]))"


def run_rung(argv: list[str], budget: float = BUDGET_S) -> tuple[str, float, dict | None]:
    """Run `spiralshift <argv> --json` in a child; returns (status, seconds, result)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-c", RUNNER, *argv, "--json"],
            capture_output=True,
            text=True,
            timeout=budget,
            env=env,
        )
    except subprocess.TimeoutExpired:
        return "killed", time.perf_counter() - started, None
    elapsed = time.perf_counter() - started
    if done.returncode == 4:
        return "refused", elapsed, None
    if done.returncode != 0:
        return f"exit {done.returncode}", elapsed, None
    return "finished", elapsed, json.loads(done.stdout)["result"]


def counts_configs(result: dict, d: int) -> bool:
    """The t^n coefficients sum to the number of width-d configurations of size n."""
    totals = [0] * (result["t_cut"] + 1)
    for n, _, c in result["coeffs"]:
        totals[n] += c
    return totals == [math.comb(n + d - 1, d - 1) for n in range(result["t_cut"] + 1)]


def walk(rungs, is_correct) -> dict:
    """Run rungs in order until one does not finish correctly."""
    largest, steps = None, []
    for size, argv in rungs:
        status, elapsed, result = run_rung(argv)
        if status == "finished" and not is_correct(result):
            status = "wrong"
        steps.append({"size": size, "status": status, "seconds": round(elapsed, 3)})
        print(f"  {' '.join(argv):<40} {status:<9} {elapsed:8.2f} s", flush=True)
        if status != "finished":
            break
        largest = size
    return {"largest": largest, "rungs": steps}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    if not (SRC / "spiralshift" / "__init__.py").is_file():
        print(f"error: no spiralshift package under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    report: dict = {"budget_s": BUDGET_S, "census": {}, "series": {}}
    for q, d in CENSUS_LADDERS:
        print(f"census q={q} d={d}", flush=True)
        rungs = [
            (n, ["count", "--q", str(q), "--d", str(d), "--N", str(n)])
            for n in range(1, CENSUS_MAX_N + 1)
        ]
        report["census"][f"q={q},d={d}"] = walk(rungs, lambda r: r["observed"] == r["predicted"])
    for d in SERIES_WIDTHS:
        print(f"series --method configs d={d}", flush=True)
        rungs = [
            (t, ["series", "--d", str(d), "--tcut", str(t), "--method", "configs"])
            for t in SERIES_TCUTS
        ]
        report["series"][f"d={d}"] = walk(rungs, lambda r, d=d: counts_configs(r, d))
    wrong = [
        ladder
        for kind in ("census", "series")
        for ladder, walked in report[kind].items()
        if walked["rungs"][-1]["status"] == "wrong"
    ]
    for kind in ("census", "series"):
        for ladder, walked in report[kind].items():
            print(f"frontier {kind} {ladder}: largest finished {walked['largest']}")
    print(json.dumps(report))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
