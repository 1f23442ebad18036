"""Command-line surface: outputs, exit codes, determinism, serialization."""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spiralshift import Config, brute_strata, cli
from spiralshift.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_apply_worked_example(capsys):
    code, out, _ = run(capsys, ["apply", "--d", "5", "--j", "3", "--x", "0,2,1,0,1"])
    assert code == 0
    assert out.strip() == "0,2,2,0,1"


def test_decompose_origin(capsys):
    code, out, _ = run(capsys, ["decompose", "--d", "2", "--x", "0,0"])
    assert code == 0
    assert out.strip() == "0,0"


def test_decompose_huge_exponent_is_immediate(capsys):
    code, out, _ = run(capsys, ["decompose", "--d", "2", "--x", "1000000000,0"])
    assert code == 0
    assert out.strip() == "1,999999999"


def test_stats_worked_example(capsys):
    code, out, _ = run(capsys, ["stats", "--d", "5", "--x", "0,2,1,0,1"])
    assert code == 0
    assert out.strip() == "n=4 W=6"


def test_series_width_one(capsys):
    code, out, _ = run(capsys, ["series", "--d", "1", "--tcut", "3"])
    assert code == 0
    assert out.splitlines() == ["(0,0): 1", "(1,0): 1", "(2,0): 1", "(3,0): 1"]


def test_series_methods_agree_byte_for_byte(capsys):
    outputs = set()
    for method in ("product", "configs", "recurrence"):
        _, out, _ = run(
            capsys, ["series", "--d", "3", "--tcut", "6", "--method", method]
        )
        outputs.add(out)
    assert len(outputs) == 1


def test_series_configs_past_the_cap_exits_4_at_once(capsys):
    # C(40 + 8, 8) configurations of size at most 40: refused before any is built.
    started = time.perf_counter()
    code, out, err = run(capsys, ["series", "--d", "8", "--tcut", "40", "--method", "configs"])
    assert time.perf_counter() - started < 1
    assert code == 4
    assert out == ""
    assert "377348994 configurations exceed the cap 1048576" in err


def test_series_configs_cap_at_the_exact_work_runs(capsys):
    # C(4 + 3, 3) = 35 configurations of size at most 4.
    argv = ["series", "--d", "3", "--tcut", "4", "--method"]
    code, out, _ = run(capsys, argv + ["configs", "--cap", "35"])
    assert code == 0
    assert out == run(capsys, argv + ["product"])[1]
    code, out, err = run(capsys, argv + ["configs", "--cap", "34"])
    assert code == 4
    assert out == ""
    assert "35 configurations exceed the cap 34" in err


def test_series_cap_leaves_the_closed_forms_alone(capsys):
    for method in ("product", "recurrence"):
        argv = ["series", "--d", "3", "--tcut", "4", "--method", method]
        assert run(capsys, argv + ["--cap", "0"]) == run(capsys, argv)


def test_series_is_deterministic(capsys):
    _, first, _ = run(capsys, ["series", "--d", "2", "--tcut", "2"])
    _, second, _ = run(capsys, ["series", "--d", "2", "--tcut", "2"])
    assert first == second


def test_json_record_round_trips(capsys):
    code, out, _ = run(
        capsys, ["stats", "--d", "5", "--x", "0,2,1,0,1", "--json"]
    )
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == "spiralshift.output/1"
    assert record["command"] == "stats"
    assert record["inputs"] == {"d": 5, "x": [0, 2, 1, 0, 1]}
    assert record["result"] == {"size": 4, "weight": 6}
    assert record["elapsed_s"] >= 0
    assert json.loads(json.dumps(record)) == record


def test_json_matches_table_data(capsys):
    _, table, _ = run(capsys, ["series", "--d", "2", "--tcut", "2"])
    _, machine, _ = run(capsys, ["series", "--d", "2", "--tcut", "2", "--json"])
    record = json.loads(machine)
    rebuilt = [f"({n},{w}): {c}" for n, w, c in record["result"]["coeffs"]]
    assert rebuilt == table.splitlines()


def test_json_deterministic_modulo_timing(capsys):
    _, first, _ = run(capsys, ["count", "--q", "2", "--d", "2", "--N", "2", "--json"])
    _, second, _ = run(capsys, ["count", "--q", "2", "--d", "2", "--N", "2", "--json"])
    a, b = json.loads(first), json.loads(second)
    a.pop("elapsed_s")
    b.pop("elapsed_s")
    assert a == b


def test_orbit_brute_force(capsys):
    code, out, _ = run(
        capsys, ["orbit", "--d", "2", "--x0", "0,0", "--gens", "1,0", "--tcut", "3"]
    )
    assert code == 0
    assert out.splitlines() == ["(0,0): 1", "(1,0): 1", "(2,0): 1", "(3,0): 1"]


def test_orbit_closed_form(capsys):
    code, out, _ = run(
        capsys,
        ["orbit", "--d", "2", "--x0", "0,0", "--gens", "1,1", "--tcut", "6", "--closed-form"],
    )
    assert code == 0
    assert out.splitlines() == ["(0,0): 1", "(2,1): 1", "(4,2): 1", "(6,3): 1"]


@pytest.mark.parametrize("closed_form", [False, True])
def test_orbit_free_generators_full_output(capsys, closed_form):
    # x0 has content (3, 3); the generators add (1, 0) and (3, 4) per step.
    argv = ["orbit", "--d", "3", "--x0", "1,0,2", "--gens", "1,0,0", "0,2,1", "--tcut", "9"]
    argv += ["--closed-form"] * closed_form
    coeffs = [
        [3, 3, 1],
        [4, 3, 1],
        [5, 3, 1],
        [6, 3, 1],
        [6, 7, 1],
        [7, 3, 1],
        [7, 7, 1],
        [8, 3, 1],
        [8, 7, 1],
        [9, 3, 1],
        [9, 7, 1],
        [9, 11, 1],
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == "".join(f"({n},{w}): {c}\n" for n, w, c in coeffs)
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 0
    record = {
        "schema": "spiralshift.output/1",
        "command": "orbit",
        "inputs": {
            "d": 3,
            "x0": [1, 0, 2],
            "gens": [[1, 0, 0], [0, 2, 1]],
            "tcut": 9,
            "closed_form": closed_form,
        },
        "result": {"t_cut": 9, "coeffs": coeffs},
        "elapsed_s": json.loads(out)["elapsed_s"],
    }
    assert out == json.dumps(record, indent=2) + "\n"


def test_orbit_closed_form_rejects_dependent_generators(capsys):
    code, _, err = run(
        capsys,
        ["orbit", "--d", "2", "--x0", "0,0", "--gens", "1,0", "2,0", "--closed-form"],
    )
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize(
    "gens,words",
    [
        # Independent: C(3 + 2, 2) = 10 combinations of total at most 4 - 1, one per element.
        (["1,0", "0,1"], 10),
        # Dependent: c1 + 2*c2 <= 3 has 6 solutions, but only 4 elements (k, 0) are distinct.
        (["1,0", "2,0"], 6),
    ],
)
def test_orbit_cap_at_the_exact_work_runs(capsys, gens, words):
    argv = ["orbit", "--d", "2", "--x0", "1,0", "--gens", *gens, "--tcut", "4", "--cap"]
    code, out, _ = run(capsys, argv + [str(words)])
    assert code == 0
    assert out == run(capsys, argv[:-1])[1]
    code, out, err = run(capsys, argv + [str(words - 1)])
    assert code == 4
    assert out == ""
    assert f"more than --cap {words - 1} generator combinations" in err


def test_orbit_past_the_cap_exits_4_at_once(capsys):
    # 2,343,926 combinations of total at most 100; refused before any element is built.
    argv = ["orbit", "--d", "3", "--x0", "0,0,0", "--gens", "1,0,0", "0,1,0", "0,0,1", "1,1,0"]
    for tcut in (100, 10**12):
        started = time.perf_counter()
        code, out, err = run(capsys, argv + ["--tcut", str(tcut)])
        assert time.perf_counter() - started < 1
        assert code == 4
        assert out == ""
        assert "more than --cap 1048576 generator combinations" in err


def test_orbit_cap_leaves_the_closed_form_alone(capsys):
    argv = ["orbit", "--d", "2", "--x0", "0,0", "--gens", "1,1", "--tcut", "6", "--closed-form"]
    assert run(capsys, argv + ["--cap", "0"]) == run(capsys, argv)


def test_count_table(capsys):
    code, out, _ = run(capsys, ["count", "--q", "2", "--d", "2", "--N", "3"])
    assert code == 0
    assert out.splitlines() == [
        "n=0 observed=1 predicted=1",
        "n=1 observed=3 predicted=3",
        "n=2 observed=7 predicted=7",
        "n=3 observed=15 predicted=15",
    ]


def test_strata_table(capsys):
    code, out, _ = run(capsys, ["strata", "--q", "2", "--d", "2", "--n", "2"])
    assert code == 0
    assert out.splitlines() == [
        "x=(0,2) W=2 predicted=4 observed=4",
        "x=(1,1) W=0 predicted=1 observed=1",
        "x=(2,0) W=1 predicted=2 observed=2",
    ]


def test_census_tables_up_to_colength_two(capsys):
    code, out, _ = run(capsys, ["count", "--q", "2", "--d", "2", "--N", "2"])
    assert code == 0
    assert out.splitlines() == [
        "n=0 observed=1 predicted=1",
        "n=1 observed=3 predicted=3",
        "n=2 observed=7 predicted=7",
    ]
    code, out, _ = run(capsys, ["strata", "--q", "2", "--d", "2", "--n", "0"])
    assert code == 0
    assert out.splitlines() == ["x=(0,0) W=0 predicted=1 observed=1"]
    code, out, _ = run(capsys, ["strata", "--q", "2", "--d", "2", "--n", "1"])
    assert code == 0
    assert out.splitlines() == [
        "x=(0,1) W=1 predicted=2 observed=2",
        "x=(1,0) W=0 predicted=1 observed=1",
    ]


def test_count_at_colength_zero(capsys):
    code, out, _ = run(capsys, ["count", "--q", "2", "--d", "2", "--N", "0"])
    assert code == 0
    assert out.splitlines() == ["n=0 observed=1 predicted=1"]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["count", "--q", "2", "--d", "2", "--N", "-1"], "--N"),
        (["strata", "--q", "2", "--d", "2", "--n", "-1"], "--n"),
        (["count", "--q", "2", "--d", "2", "--N", "2", "--cap", "-1"], "--cap"),
        (["strata", "--q", "2", "--d", "2", "--n", "2", "--cap", "-1"], "--cap"),
        (["series", "--d", "2", "--tcut", "3", "--method", "configs", "--cap", "-1"], "--cap"),
        (["orbit", "--d", "2", "--x0", "0,0", "--gens", "1,0", "--cap", "-1"], "--cap"),
    ],
)
def test_negative_colength_exits_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be nonnegative" in captured.err


CONFIGS = ["series", "--method", "configs"]
ORBIT = ["orbit", "--d", "2", "--gens", "1,0", "--cap", "0"]


@pytest.mark.parametrize(
    "argv,err",
    [
        # A bad width or cut gets its own error, whatever the cap.
        (CONFIGS + ["--d", "0", "--tcut", "3"], "width d must be positive"),
        (CONFIGS + ["--d", "0", "--tcut", "3", "--cap", "0"], "width d must be positive"),
        (CONFIGS + ["--d", "3", "--tcut", "-1"], "t_cut must be nonnegative"),
        (CONFIGS + ["--d", "3", "--tcut", "-1", "--cap", "0"], "t_cut must be nonnegative"),
        (CONFIGS + ["--d", "3", "--tcut", "-5", "--cap", "0"], "t_cut must be nonnegative"),
        (ORBIT + ["--x0", "0,0", "--tcut", "-1"], "t_cut must be nonnegative"),
        # A base past the cut tries no generator combination, so it runs at cap 0.
        (ORBIT + ["--x0", "5,5", "--tcut", "3"], None),
    ],
)
def test_cap_edge_cases(capsys, argv, err):
    expected = (2, "", f"error: {err}\n") if err else (0, "\n", "")
    assert run(capsys, argv) == expected


def test_cap_exceeded_exits_4(capsys):
    # The walk at (2, 3, 3) generates exactly 198 submodules.
    code, _, err = run(
        capsys, ["count", "--q", "2", "--d", "3", "--N", "3", "--cap", "197"]
    )
    assert code == 4
    assert "cap" in err


@pytest.mark.parametrize("command,flag", [("count", "--N"), ("strata", "--n")])
def test_census_past_the_cap_exits_4_at_once(capsys, command, flag):
    # 906,192 profiles of size at most 26 in width 6; counting stops past the cap.
    started = time.perf_counter()
    code, out, err = run(capsys, [command, "--q", "2", "--d", "6", flag, "26"])
    assert time.perf_counter() - started < 1
    assert (code, out, err) == (4, "", "error: submodules to build exceed the cap 1048576\n")


def test_cap_at_the_exact_work_runs(capsys):
    code, out, _ = run(
        capsys, ["count", "--q", "2", "--d", "3", "--N", "3", "--cap", "198"]
    )
    assert code == 0
    assert out.splitlines()[-1] == "n=3 observed=155 predicted=155"


def test_cap_counts_submodules_not_ambient_vectors(capsys):
    # 22 submodules, in a window of 2^21 vectors.
    code, out, _ = run(capsys, ["count", "--q", "2", "--d", "1", "--N", "21"])
    assert code == 0
    assert out.splitlines() == [f"n={n} observed=1 predicted=1" for n in range(22)]


def test_composite_modulus_exits_2(capsys):
    code, out, err = run(capsys, ["count", "--q", "4", "--d", "2", "--N", "2"])
    assert code == 2
    assert out == ""
    assert "modulus must be prime" in err


def test_large_prime_modulus_is_checked_fast(capsys):
    # 2^64 - 59 is prime; a trial-division test would take minutes.
    started = time.perf_counter()
    code, _, err = run(capsys, ["count", "--q", str(2**64 - 59), "--d", "2", "--N", "2"])
    assert code == 4
    assert "exceed the cap" in err
    assert time.perf_counter() - started < 1


def test_large_prime_modulus_counts_width_one(capsys):
    code, out, _ = run(capsys, ["count", "--q", str(2**61 - 1), "--d", "1", "--N", "3"])
    assert code == 0
    assert out.splitlines() == [f"n={n} observed=1 predicted=1" for n in range(4)]


def test_modulus_of_2_to_the_64_exits_2(capsys):
    code, out, err = run(capsys, ["count", "--q", str(2**64), "--d", "2", "--N", "2"])
    assert code == 2
    assert out == ""
    assert "below 2^64" in err


def test_malformed_tuple_exits_2(capsys):
    code, _, err = run(capsys, ["stats", "--d", "2", "--x", "0,oops"])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "--d", "3", "--j", "2", "--x", "0,2,1,0,1"],
        ["decompose", "--d", "7", "--x", "1,0,2"],
        ["stats", "--d", "2", "--x", "1,0,2"],
        ["orbit", "--d", "2", "--x0", "0,0,0", "--gens", "1,0"],
    ],
)
def test_width_mismatch_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "does not match" in err


def test_rank_out_of_range_exits_2(capsys):
    code, _, _ = run(capsys, ["apply", "--d", "2", "--j", "5", "--x", "0,0"])
    assert code == 2


def test_bad_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--d", "2", "--tcut", "2", "--method", "magic"])
    assert exc.value.code == 2
    capsys.readouterr()


def subparsers(parser):
    """The subcommand parsers of a CLI parser, by name."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_named_build_holds_only_that_subcommand():
    # The bench's setup builds the full parser, all eight subcommands.
    assert list(subparsers(cli.build_parser())) == [
        "apply", "decompose", "stats", "series", "orbit", "count", "strata", "verify"
    ]
    for name in cli.COMMANDS:
        assert list(subparsers(cli.build_parser(name))) == [name]


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_named_build_reads_like_the_full_parser(name):
    full, lean = cli.build_parser(), cli.build_parser(name)
    assert subparsers(lean)[name].format_help() == subparsers(full)[name].format_help()
    assert lean.format_usage() == full.format_usage()


def test_main_builds_only_the_named_subcommand(monkeypatch, capsys):
    built, build = [], cli.build_parser

    def spy(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    assert main(["stats", "--d", "2", "--x", "1,0"]) == 0
    for argv in (["--help"], ["bogus"], []):
        with pytest.raises(SystemExit):
            main(argv)
    assert built == ["stats", None, None, None]
    # The full parser names the subcommand argument by its dest in errors.
    assert "argument command: invalid choice: 'bogus'" in capsys.readouterr().err


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code, out, _ = run(
        capsys, ["apply", "--d", "5", "--j", "3", "--x", "0,2,1,0,1", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert target.read_text().strip() == "0,2,2,0,1"


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(
        capsys, ["apply", "--d", "5", "--j", "3", "--x", "0,2,1,0,1", "--out", str(target)]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert str(target) in err
    assert not target.exists()


def test_verify_quick_profile(capsys):
    code, out, _ = run(capsys, ["verify", "--profile", "quick"])
    assert code == 0
    assert out.splitlines() == [
        "PASS worked example (width-5 commuting square): 4 equalities",
        "PASS operator commutation: 70 ordered pairs, d <= 3, size <= 3",
        "PASS free transitive action: bijective with inverse, d <= 3, size <= 4",
        "PASS size and weight increments: 140 applications, d <= 3, size <= 4",
        "PASS weight formula equivalence: 55 configurations",
        "PASS series identity three ways: d <= 3, t_cut <= 5, coefficients vs partitions",
        "PASS box partition bijection: d <= 3, size <= 4, every weight",
        "PASS submodule counts by colength: q=2,d=2,N=2",
        "PASS stratum law: q=2,d=2,N=2",
        "PASS free orbit product formula: 10 random independent generator sets, t_cut=6",
        "PASS tightness preservation: 50 preserved applications",
        "PASS content additivity under the action: 46 pairs",
    ]


def test_verify_full_profile(capsys):
    code, out, _ = run(capsys, ["verify", "--profile", "full"])
    assert code == 0
    assert out.splitlines() == [
        "PASS worked example (width-5 commuting square): 4 equalities",
        "PASS operator commutation: 945 ordered pairs, d <= 4, size <= 5",
        "PASS free transitive action: bijective with inverse, d <= 4, size <= 6",
        "PASS size and weight increments: 1155 applications, d <= 4, size <= 6",
        "PASS weight formula equivalence: 329 configurations",
        "PASS series identity three ways: d <= 5, t_cut <= 8, coefficients vs partitions",
        "PASS box partition bijection: d <= 4, size <= 6, every weight",
        "PASS submodule counts by colength: q=2,d=2,N=3, q=2,d=3,N=2, q=3,d=2,N=2",
        "PASS stratum law: q=2,d=2,N=3, q=2,d=3,N=2, q=3,d=2,N=2",
        "PASS free orbit product formula: 50 random independent generator sets, t_cut=8",
        "PASS tightness preservation: 595 preserved applications",
        "PASS content additivity under the action: 146 pairs",
    ]


def test_verify_stratum_law_failure_names_the_stray_profiles(capsys, monkeypatch):
    monkeypatch.setattr(
        "spiralshift.checks.brute_strata",
        lambda q, d, n: {**brute_strata(q, d, n), Config((9, 9)): []},
    )
    code, out, _ = run(capsys, ["verify", "--profile", "quick"])
    assert code == 5
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL stratum law: unlabelled submodules at q=2, d=2, profiles [(9, 9)]"
    ]


def test_verify_failure_exits_5_and_names_the_counterexample(capsys, monkeypatch):
    monkeypatch.setattr("spiralshift.checks.weight_by_seats", lambda x: -1)
    code, out, _ = run(capsys, ["verify", "--profile", "quick"])
    assert code == 5
    assert "FAIL weight formula equivalence: (0,): 0 vs -1" in out.splitlines()
    code, out, _ = run(capsys, ["verify", "--profile", "quick", "--json"])
    assert code == 5
    failed = [c for c in json.loads(out)["result"]["checks"] if not c["passed"]]
    assert failed == [
        {"name": "weight formula equivalence", "passed": False, "detail": "(0,): 0 vs -1"}
    ]


ROOT = Path(__file__).resolve().parents[1]


def run_python(*argv):
    """Run the interpreter on argv in a subprocess, with the package's source on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def run_module(module, *argv):
    return run_python("-m", module, *argv)


@pytest.mark.parametrize("module", ["spiralshift", "spiralshift.cli"])
def test_python_dash_m_runs_the_cli(module):
    done = run_module(module, "decompose", "--d", "2", "--x", "2,0")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1,1"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--N", "-1"], "argument --N: must be nonnegative"),
        (["--q", "4"], "modulus must be prime"),
    ],
)
def test_census_bad_input_exits_2_without_traceback(argv, message):
    done = run_module("spiralshift", "count", "--q", "2", "--d", "2", "--N", "2", *argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert message in done.stderr
    assert "Traceback" not in done.stderr


WORKED_EXAMPLE_STDOUT = (
    "start: levels=(0, 2, 1, 0, 1)  n=4  W=6\n"
    "    points low to high: (1,0) (4,0) (3,1) (5,1) (2,2)\n"
    "after rank 3: levels=(0, 2, 2, 0, 1)  n=5  W=8\n"
    "    points low to high: (1,0) (4,0) (5,1) (2,2) (3,2)\n"
    "after rank 2: levels=(0, 2, 2, 1, 0)  n=5  W=7\n"
    "    points low to high: (1,0) (5,0) (4,1) (2,2) (3,2)\n"
    "rank 3 then rank 2: levels=(0, 2, 2, 2, 0)  n=6  W=9\n"
    "    points low to high: (1,0) (5,0) (2,2) (3,2) (4,2)\n"
    "rank 2 then rank 3: levels=(0, 2, 2, 2, 0)  n=6  W=9\n"
    "    points low to high: (1,0) (5,0) (2,2) (3,2) (4,2)\n"
    "commutes: True\n"
    "exponents reaching (0, 2, 1, 0, 1) from the origin: (0, 2, 2, 0, 0)\n"
)


def test_worked_example_script_default_run():
    done = run_python(str(ROOT / "scripts" / "worked_example.py"))
    assert done.returncode == 0, done.stderr
    assert done.stdout == WORKED_EXAMPLE_STDOUT


@pytest.mark.parametrize(
    "levels,message",
    [("1,a", "expected a comma-separated integer tuple"), ("1,0", "at least 3 levels")],
)
def test_worked_example_script_bad_levels_exit_2_without_traceback(levels, message):
    done = run_python(str(ROOT / "scripts" / "worked_example.py"), "--x", levels)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert message in done.stderr
    assert len(done.stderr.splitlines()) == 1


def load_capture_script():
    path = ROOT / "scripts" / "capture_cli.py"
    spec = importlib.util.spec_from_file_location("spiralshift_capture_cli", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_capture_script_records_code_streams_and_blanked_timing():
    capture = load_capture_script().capture
    argv = ["count", "--q", "2", "--d", "2", "--N", "2"]
    assert capture(argv) == {
        "argv": argv,
        "code": 0,
        "stdout": "n=0 observed=1 predicted=1\nn=1 observed=3 predicted=3\n"
        "n=2 observed=7 predicted=7\n",
        "stderr": "",
    }
    record = capture(argv + ["--json"])
    assert (record["code"], record["stderr"]) == (0, "")
    assert record["stdout"].endswith('  "elapsed_s": null\n}\n')
    assert json.loads(record["stdout"])["result"] == {"observed": [1, 3, 7], "predicted": [1, 3, 7]}
    refused = ["count", "--q", "4", "--d", "2", "--N", "2"]
    assert capture(refused) == {
        "argv": refused,
        "code": 2,
        "stdout": "",
        "stderr": "error: modulus must be prime, got 4\n",
    }
    # argparse refuses by raising SystemExit, which the capture records too.
    malformed = capture(["count", "--q", "2", "--d", "2", "--N", "-1"])
    assert (malformed["code"], malformed["stdout"]) == (2, "")
    assert "argument --N: must be nonnegative" in malformed["stderr"]


def test_capture_script_covers_the_argparse_surface():
    script = load_capture_script()
    records = [script.capture(argv) for argv in script.ARGPARSE_SURFACE]
    assert [r["code"] for r in records] == [0, 2, 2, 0, 0, 0, 2, 2, 2]
    assert all(r["stdout"].startswith("usage: spiralshift") for r in records if r["code"] == 0)
    assert all(r["stderr"].startswith("usage: spiralshift") for r in records if r["code"])


def test_capture_script_runs_every_subcommand_and_every_exit_code():
    script = load_capture_script()
    assert {argv[0] for argv in script.INVOCATIONS} == set(cli.COMMANDS)
    codes = {script.capture(argv)["code"] for argv in script.INVOCATIONS}
    assert codes == {0, 2, 3, 4}
