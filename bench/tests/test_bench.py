"""Tests of the benchmark itself: python3 -m pytest -q bench/tests"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import frontier  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_and_record(done: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: one untraced run, and two traced runs with the same seed."""
    spans = tmp_path_factory.mktemp("spans")
    out = {}
    for w in workloads.WORKLOADS:
        base = ["--workload", w, "--seed", "7", "--seconds", "0.5"]
        out[w] = {
            "untraced": result_and_record(bench(*base, "--trace", "0")),
            "traced": [
                result_and_record(bench(*base, "--trace", "1", "--spans", str(spans / f"{w}-{k}")))
                for k in range(2)
            ],
            "spans": spans / f"{w}-0",
        }
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_metric_names_match_benchmark_json(runs, workload):
    untraced, _ = runs[workload]["untraced"]
    traced, _ = runs[workload]["traced"][0]
    for result, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert printed == declared


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counters_repeat(runs, workload):
    (first, rec1), (second, rec2) = runs[workload]["traced"]
    assert rec1["counters_repeat"] and rec2["counters_repeat"]

    def counters(result):
        return {
            k: m["value"]
            for k, m in result["metrics"].items()
            if not workloads.is_time(k) and not k.startswith("run.")
        }

    assert counters(first) == counters(second)


def test_known_counts(runs):
    census = runs["census"]["traced"][0][0]["metrics"]
    assert census["submodules.candidates.2-4-2"]["value"] == 10351
    assert census["submodules.candidates.2-3-3"]["value"] == 2 * 13682  # count and strata
    assert census["cylinder.shift_from.calls"]["value"] == 0
    operators = runs["operators"]["traced"][0][0]["metrics"]
    assert operators["cylinder.shift_from.calls"]["value"] == 2 * sum(
        sum(v) for v in workloads.operator_vectors(7)
    )
    assert operators["submodules.candidates"]["value"] == 0
    assert operators["series.mul.calls"]["value"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_spans_nest(runs, workload):
    spans = [json.loads(line) for line in runs[workload]["spans"].read_text().splitlines()]
    assert spans
    last_child_end: dict[int, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        assert name.split(".", 1)[0] in tracing.LAYERS
        assert start <= end
        if parent >= 0:
            assert parent < i
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end
            # siblings run one after another
            assert last_child_end.get(parent, p_start) <= start
            last_child_end[parent] = end


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_within_traced_wall(runs, workload):
    result, record = runs[workload]["traced"][0]
    total = sum(result["metrics"][m]["value"] for m in tracing.SELF_TIME_METRICS)
    assert 0 < total <= statistics.mean(record["traced_passes"])


def test_tracer_time_is_taken_out():
    # Span 0 (10 s) holds span 1 (2 s), whose wrapper took 0.5 s measured
    # and 0.25 s unseen; four counted calls of 0.1 s each ran inside span 1.
    tracer = tracing.Tracer()
    tracer.names[:] = ["cli.main", "submodules.enumerate_submodules"]
    tracer.nid.extend([0, 1])
    tracer.parent.extend([-1, 0])
    tracer.outer.extend([1, 1])
    tracer.start.extend([0.0, 1.0])
    tracer.end.extend([10.0, 3.0])
    tracer.cost.extend([0.5, 0.5])
    tracer.counted[1] = {1: 4}
    tracer.span_unseen, tracer.count_unseen = 0.25, 0.1
    self_time, inclusive = tracing._times(tracer)
    assert self_time == pytest.approx([10 - 2 - 0.5 - 0.25, 2 - 0.4])
    assert inclusive == pytest.approx([10 - 0.5 - 0.25 - 0.4, 2 - 0.4])
    assert tracing.tracer_s(tracer) == pytest.approx(1.0 + 2 * 0.25 + 4 * 0.1)


def test_record_metadata(runs):
    _, record = runs["operators"]["untraced"]
    assert record["seed"] == 7
    assert record["python"] == ".".join(str(v) for v in sys.version_info[:3])
    assert record["nproc"] >= 1
    assert record["commit"]
    assert record["tail_beyond"] <= 10


def test_tail_keeps_ten_passes_beyond():
    times = [float(i) for i in range(100)]
    assert run.tail(times) == (89.0, 90.0, 10)
    assert run.tail(times[:12]) == (8.0, 75.0, 3)
    assert run.tail([1.0]) == (1.0, 100.0, 0)


def test_operator_vectors_fix_the_work():
    vectors = workloads.operator_vectors(3)
    assert vectors == workloads.operator_vectors(3)
    assert vectors != workloads.operator_vectors(4)
    assert len(vectors) == 36
    totals = [sum(v) for v in vectors]
    assert totals == [sum(v) for v in workloads.operator_vectors(4)]
    for v, (d, b) in zip(
        vectors,
        [(d, b) for d in (2, 3, 4, 6) for b in (10, 100, 1000) for _ in range(3)],
    ):
        assert len(v) == d and sum(v) == d * b // 2 and max(v) <= b


def test_wrong_outputs_are_counted(monkeypatch):
    _, jobs = workloads.setup("census", 0)
    import spiralshift.cli

    monkeypatch.setattr(spiralshift.cli, "enumerate_submodules", lambda *a, **k: [])
    tally = workloads.Tally()
    tally.run_pass(jobs)
    assert tally.attempted == 6 and tally.failed == 6

    _, jobs = workloads.setup("operators", 0)
    import spiralshift

    monkeypatch.setattr(spiralshift, "decompose", lambda y: None)
    tally = workloads.Tally()
    tally.run_pass(jobs[:3])
    assert tally.failed == 3 and "decompose" in tally.messages[0]


def test_install_is_undone():
    import spiralshift
    import spiralshift.checks as checks
    import spiralshift.cli as cli
    import spiralshift.submodules as submodules

    def patched_names():
        return (cli.enumerate_submodules, checks.ALL_CHECKS, submodules.SubmoduleBasis.is_t_stable)

    before = patched_names()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert cli.enumerate_submodules is not before[0]
        spiralshift.decompose(spiralshift.Config((3, 0)))
        assert tracer.spans()[0][0] == "cylinder.decompose"
    finally:
        uninstall()
    assert patched_names() == before


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "census", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_frontier_kills_a_rung_at_the_budget():
    status, elapsed, _ = frontier.run_rung(["count", "--q", "2", "--d", "4", "--N", "5"], 1.0)
    assert status == "killed" and elapsed < 10
    argv = ["series", "--d", "3", "--tcut", "4", "--method", "configs"]
    status, _, result = frontier.run_rung(argv, 30)
    assert status == "finished" and frontier.counts_configs(result, 3)
