"""One benchmark workload, run in a fresh process on one thread.

    python3 bench/workloads.py --src SRC --workload W --seed N --seconds T --trace 0|1
        [--setup-only] [--spans FILE]

Times setup (from just before `import spiralshift` until the package, the
CLI parser and the workload's inputs are ready), then issues passes back to
back for about T seconds.  There is no warm-up pass: the package has no
lazy set-up, and a user's CLI run is a first pass.  Every job's output is
checked against its oracle.  With --trace 1 untraced and traced passes
take turns (see tracing.py).  Prints one JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import sys
import time

import tracing

WORKLOADS = ("verify-full", "census", "operators")

CENSUS_STRATA = (2, 3, 3)

OPERATOR_WIDTHS = (2, 3, 4, 6)
OPERATOR_BOUNDS = (10, 100, 1000)
OPERATOR_DRAWS = 3


def operator_vectors(seed: int) -> list[tuple[int, ...]]:
    """3 exponent vectors per (width d, component bound b).

    Components lie in [0, b] and sum to d*b/2, so `act` and `decompose`
    apply exactly d*b/2 operators each whatever the seed: the seed changes
    the inputs, not the number of operator applications.
    """
    rng = random.Random(seed)
    out = []
    for d in OPERATOR_WIDTHS:
        for bound in OPERATOR_BOUNDS:
            total = d * bound // 2
            for _ in range(OPERATOR_DRAWS):
                v = [rng.randint(0, bound) for _ in range(d)]
                while sum(v) != total:
                    i = rng.randrange(d)
                    if sum(v) < total and v[i] < bound:
                        v[i] += 1
                    elif sum(v) > total and v[i] > 0:
                        v[i] -= 1
                out.append(tuple(v))
    return out


def cli_job(cli, argv: list[str], oracle):
    """A job that runs `spiralshift <argv> --json` in-process and checks its record."""

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv + ["--json"])
        if code != 0:
            return f"exit {code}"
        return oracle(json.loads(out.getvalue())["result"])

    return " ".join(argv), run


def counts_agree(result) -> str | None:
    if result["observed"] != result["predicted"]:
        return f"observed {result['observed']} != predicted {result['predicted']}"
    return None


def strata_agree(result) -> str | None:
    bad = [row for row in result["strata"] if row["observed"] != row["predicted"]]
    return f"{len(bad)} strata disagree, first {bad[0]}" if bad else None


def all_checks_pass(result) -> str | None:
    failed = [c["name"] for c in result["checks"] if not c["passed"]]
    return f"failed checks: {failed}" if failed else None


def operator_job(ss, steps: tuple[int, ...]):
    def run():
        a = ss.MultiIndex(steps)
        y = ss.act(a, ss.Config.origin(len(steps)))
        if ss.content(y) != ss.multiindex_content(a):
            return f"content law fails for a={steps}"
        if ss.decompose(y) != a:
            return f"decompose(act(a)) != a for a={steps}"
        return None

    return f"operators {steps}", run


def setup(workload: str, seed: int):
    """Import the package, build the CLI parser and the job list.

    Returns (setup seconds, jobs); a job is a (label, run) pair whose run
    returns None when the output is correct and a message otherwise.
    """
    started = time.perf_counter()
    import spiralshift as ss
    from spiralshift import cli

    cli.build_parser()
    if workload == "verify-full":
        jobs = [cli_job(cli, ["verify", "--profile", "full"], all_checks_pass)]
    elif workload == "census":
        jobs = [
            cli_job(cli, ["count", "--q", str(q), "--d", str(d), "--N", str(n)], counts_agree)
            for q, d, n in tracing.CENSUS_GRIDS
        ]
        q, d, n = CENSUS_STRATA
        jobs.append(
            cli_job(cli, ["strata", "--q", str(q), "--d", str(d), "--n", str(n)], strata_agree)
        )
    elif workload == "operators":
        jobs = [operator_job(ss, steps) for steps in operator_vectors(seed)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return time.perf_counter() - started, jobs


class Tally:
    """Jobs attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run_pass(self, jobs) -> None:
        for label, run in jobs:
            self.attempted += 1
            try:
                problem = run()
            except Exception as exc:  # a job that raises is a failed job
                problem = f"raised {type(exc).__name__}: {exc}"
            if problem is not None:
                self.failed += 1
                if len(self.messages) < 5:
                    self.messages.append(f"{label}: {problem}")


def timed_pass(jobs, tally: Tally) -> tuple[float, float]:
    """Wall and process CPU time of one pass."""
    w0, c0 = time.perf_counter(), time.process_time()
    tally.run_pass(jobs)
    return time.perf_counter() - w0, time.process_time() - c0


def timed_passes(jobs, tally: Tally, seconds: float):
    """Passes back to back for about `seconds`, at least one.

    A pass starts only if a pass of the mean length so far would end
    within `seconds`, so long passes do not overrun the budget.  Returns
    per-pass wall and process CPU times.
    """
    walls, cpus = [], []
    deadline = time.perf_counter() + seconds
    while True:
        wall, cpu = timed_pass(jobs, tally)
        walls.append(wall)
        cpus.append(cpu)
        if time.perf_counter() + statistics.mean(walls) > deadline:
            return walls, cpus


def traced_passes(jobs, tally: Tally, seconds: float, spans_path: str | None) -> dict:
    """An untraced and a traced pass in turn, for about `seconds`.

    Taking them in turn keeps the host's drift in speed, which is slow
    against a pass, out of the ratio of the two.  Returns the untraced pass
    times, as timed_passes does, and the traced pass times with the
    per-layer metrics.
    """
    tracer = tracing.Tracer()
    tracer.calibrate()
    walls, cpus, traced = [], [], []
    per_pass: list[dict] = []
    tracer_times: list[float] = []
    first_spans: list = []
    deadline = time.perf_counter() + seconds
    while True:
        wall, cpu = timed_pass(jobs, tally)
        walls.append(wall)
        cpus.append(cpu)
        uninstall = tracing.install(tracer)
        try:
            traced.append(timed_pass(jobs, tally)[0])
        finally:
            uninstall()
        per_pass.append(tracing.pass_metrics(tracer))
        tracer_times.append(tracing.tracer_s(tracer))
        if spans_path and not first_spans:
            first_spans.extend(tracer.spans())
        tracer.reset()
        if time.perf_counter() + statistics.mean(walls) + statistics.mean(traced) > deadline:
            break
    if spans_path:
        with open(spans_path, "w") as fh:
            for span in first_spans:
                fh.write(json.dumps(span) + "\n")
    counts = [{k: v for k, v in m.items() if not is_time(k)} for m in per_pass]
    metrics = {
        key: sum(m[key] for m in per_pass) / len(per_pass) if is_time(key) else value
        for key, value in per_pass[0].items()
    }
    return {
        "passes": walls,
        "cpu": cpus,
        "traced": {
            "passes": traced,
            "metrics": metrics,
            "tracer_s": tracer_times,
            "counters_repeat": all(c == counts[0] for c in counts),
        },
    }


def is_time(metric: str) -> bool:
    return metric.endswith(("busy_s", "self_s")) or ".busy_s." in metric


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the spiralshift package")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the first traced pass's spans here")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)

    setup_s, jobs = setup(args.workload, args.seed)
    report: dict = {"setup_s": setup_s}
    if not args.setup_only:
        tally = Tally()
        if args.trace:
            report.update(traced_passes(jobs, tally, args.seconds, args.spans))
        else:
            report["passes"], report["cpu"] = timed_passes(jobs, tally, args.seconds)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report.update(attempted=tally.attempted, failed=tally.failed, failures=tally.messages)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
