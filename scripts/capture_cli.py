#!/usr/bin/env python3
"""Capture the CLI's output on a fixed list of invocations, for byte-identity checks.

Each invocation runs in process through `spiralshift.cli.main`, once as a
table and once with `--json`; each entry of the argparse surface (help,
usage and argument errors) runs once, as listed.  One JSON line per run
goes to OUT: the argv, the exit code, stdout with every `elapsed_s` value
blanked to null, and stderr.  Two checkouts give the same output when
their captures are equal:

    PYTHONPATH=src python3 scripts/capture_cli.py before.jsonl   # in one checkout
    PYTHONPATH=src python3 scripts/capture_cli.py after.jsonl    # in the other
    cmp before.jsonl after.jsonl
"""

import argparse
import contextlib
import io
import json
import re

from spiralshift.cli import main

# The bench's census grids, the zero window, and three grids of deep members,
# whose strata lie in windows of many depths.
CENSUS_GRIDS = [
    (2, 3, 3), (2, 4, 2), (2, 2, 5), (3, 2, 4), (3, 3, 2), (2, 2, 0), (2, 2, 8), (3, 3, 3),
    (3, 2, 6),
]
STRATA_GRIDS = [(2, 3, 3), (3, 2, 3), (2, 2, 8)]
SERIES_METHODS = ["product", "configs", "recurrence"]
# Four generators of N^3: no free basis, so the closed form is refused.
DEPENDENT = ["1,0,0", "0,1,0", "0,0,1", "1,1,0"]

# Every subcommand, with refusals that exit 2 (bad input), 3 (no free
# basis) and 4 (past the cap).
INVOCATIONS = [
    ["verify", "--profile", "quick"],
    ["verify", "--profile", "full"],
    *(["count", "--q", str(q), "--d", str(d), "--N", str(n)] for q, d, n in CENSUS_GRIDS),
    *(["strata", "--q", str(q), "--d", str(d), "--n", str(n)] for q, d, n in STRATA_GRIDS),
    ["count", "--q", "2", "--d", "3", "--N", "3", "--cap", "197"],
    ["count", "--q", "2", "--d", "3", "--N", "3", "--cap", "198"],
    ["count", "--q", "4", "--d", "2", "--N", "2"],
    ["apply", "--d", "5", "--j", "3", "--x", "0,2,1,0,1"],
    ["decompose", "--d", "2", "--x", "1000000000,0"],
    ["stats", "--d", "5", "--x", "0,2,1,0,1"],
    *(["series", "--d", "3", "--tcut", "6", "--method", m] for m in SERIES_METHODS),
    ["series", "--d", "6", "--tcut", "28", "--method", "configs"],
    ["orbit", "--d", "2", "--x0", "0,0", "--gens", "1,1", "--tcut", "8"],
    ["orbit", "--d", "2", "--x0", "0,0", "--gens", "1,1", "--tcut", "8", "--closed-form"],
    ["orbit", "--d", "3", "--x0", "0,0,0", "--gens", *DEPENDENT, "--closed-form"],
    ["orbit", "--d", "3", "--x0", "0,0,0", "--gens", *DEPENDENT, "--tcut", "100"],
]

# The argparse surface: help, usage and argument errors, each run once as
# given (argparse answers them before any --json could matter).
ARGPARSE_SURFACE = [
    ["--help"],
    ["bogus"],
    ["count"],
    ["count", "-h"],
    ["series", "-h"],
    ["orbit", "-h"],
    ["count", "--q", "x", "--d", "3", "--N", "3"],
    ["count", "--q", "2", "--d", "3", "--N", "3", "extra"],
    ["count", "--cap", "-1", "--q", "2", "--d", "2", "--N", "2"],
]

ELAPSED = re.compile(r'("elapsed_s": )[^,\n}]+')


def capture(argv: list[str]) -> dict:
    """argv, exit code, stdout with the timings blanked, and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses malformed flags this way
            code = exc.code
    stdout = ELAPSED.sub(r"\1null", out.getvalue())
    return {"argv": argv, "code": code, "stdout": stdout, "stderr": err.getvalue()}


def main_entry() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", metavar="OUT", help="file to write the JSON lines to")
    args = parser.parse_args()
    with open(args.out, "w") as fh:
        runs = [run for argv in INVOCATIONS for run in (argv, argv + ["--json"])]
        for run in runs + ARGPARSE_SURFACE:
            fh.write(json.dumps(capture(run)) + "\n")


if __name__ == "__main__":
    main_entry()
