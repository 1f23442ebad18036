"""Command-line surface: operators, statistics, series, censuses, verification.

Each command returns what it found; `main` times it and emits the table or
the `--json` record.  `main` builds only the subcommand that its first
argument names; top-level `--help`, an unknown command or none get the
full parser.  The exhaustive commands pass `--cap` to the library, which
counts their work and refuses past it.  Exit codes: 0 success,
2 malformed input or an unwritable --out, 3 precondition violation,
4 feasibility cap exceeded, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import NamedTuple

from .checks import FULL, QUICK, run_profile
from .cylinder import Config, MultiIndex, decompose, shift_from
from .series import (
    DEFAULT_CAP,
    BiPoly,
    FeasibilityError,
    GeneratorSet,
    NotFreeError,
    free_orbit_formula,
    orbit_sum,
    product_formula,
    recurrence_formula,
    sum_over_configs,
)
from .stats import size, weight
from .submodules import Census

SCHEMA = "spiralshift.output/1"


def parse_levels(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer tuple, got {text!r}")


def parse_config(text: str, d: int) -> Config:
    """The configuration `text`, which must have exactly d levels."""
    levels = parse_levels(text)
    if len(levels) != d:
        raise ValueError(f"--d {d} does not match the {len(levels)} levels in {text!r}")
    return Config(levels)


class Findings(NamedTuple):
    """What a command found: its inputs, result record, table lines and exit code."""

    inputs: dict
    result: object
    lines: list[str]
    code: int = 0


def emit(args, found: Findings, elapsed: float) -> None:
    if args.json:
        record = {
            "schema": SCHEMA,
            "command": args.command,
            "inputs": found.inputs,
            "result": found.result,
            "elapsed_s": round(elapsed, 6),
        }
        text = json.dumps(record, indent=2)
    else:
        text = "\n".join(found.lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def series_lines(p: BiPoly) -> list[str]:
    return [f"({n},{w}): {c}" for (n, w), c in p.terms()]


def series_result(p: BiPoly) -> dict:
    return {"t_cut": p.t_cut, "coeffs": [[n, w, c] for (n, w), c in p.terms()]}


def cmd_apply(args) -> Findings:
    x = parse_config(args.x, args.d)
    y = shift_from(x, args.j)
    return Findings(
        {"d": args.d, "j": args.j, "x": list(x.levels)},
        {"levels": list(y.levels)},
        [",".join(str(n) for n in y.levels)],
    )


def cmd_decompose(args) -> Findings:
    x = parse_config(args.x, args.d)
    a = decompose(x)
    return Findings(
        {"d": args.d, "x": list(x.levels)},
        {"steps": list(a.steps)},
        [",".join(str(s) for s in a.steps)],
    )


def cmd_stats(args) -> Findings:
    x = parse_config(args.x, args.d)
    n, w = size(x), weight(x)
    return Findings({"d": args.d, "x": list(x.levels)}, {"size": n, "weight": w}, [f"n={n} W={w}"])


def cmd_series(args) -> Findings:
    methods = {
        "product": product_formula,
        "configs": lambda d, t_cut: sum_over_configs(d, t_cut, args.cap),
        "recurrence": recurrence_formula,
    }
    p = methods[args.method](args.d, args.tcut)
    return Findings(
        {"d": args.d, "tcut": args.tcut, "method": args.method},
        series_result(p),
        series_lines(p),
    )


def cmd_orbit(args) -> Findings:
    x0 = parse_config(args.x0, args.d)
    gens = GeneratorSet(args.d, tuple(MultiIndex(parse_levels(g)) for g in args.gens))
    if args.closed_form:
        p = free_orbit_formula(x0, gens, args.tcut)
    else:
        p = orbit_sum(x0, gens, args.tcut, args.cap)
    return Findings(
        {
            "d": args.d,
            "x0": list(x0.levels),
            "gens": [list(g.steps) for g in gens.generators],
            "tcut": args.tcut,
            "closed_form": bool(args.closed_form),
        },
        series_result(p),
        series_lines(p),
    )


def cmd_count(args) -> Findings:
    totals = Census.walk(args.q, args.d, args.N, cap=args.cap)
    observed, predicted = totals.observed(), totals.predicted()
    lines = [
        f"n={n} observed={o} predicted={p}"
        for n, (o, p) in enumerate(zip(observed, predicted))
    ]
    return Findings(
        {"q": args.q, "d": args.d, "N": args.N},
        {"observed": observed, "predicted": predicted},
        lines,
    )


def cmd_strata(args) -> Findings:
    census = Census.walk(args.q, args.d, args.n, cap=args.cap)
    rows = [
        {"x": list(x.levels), "weight": w, "predicted": p, "observed": o}
        for x, w, p, o in census.stratum_rows(args.n)
    ]
    lines = [
        "x=({}) W={} predicted={} observed={}".format(
            ",".join(str(v) for v in row["x"]),
            row["weight"],
            row["predicted"],
            row["observed"],
        )
        for row in rows
    ]
    return Findings({"q": args.q, "d": args.d, "n": args.n}, {"strata": rows}, lines)


def cmd_verify(args) -> Findings:
    profile = QUICK if args.profile == "quick" else FULL
    results = run_profile(profile)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ]
    payload = {
        "profile": args.profile,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }
    code = 0 if all(r.passed for r in results) else 5
    return Findings({"profile": args.profile}, payload, lines, code)


def nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")


def add_capped_output(p: argparse.ArgumentParser) -> None:
    add_output(p)
    p.add_argument(
        "--cap",
        type=nonnegative,
        default=DEFAULT_CAP,
        help="most configurations, generator combinations or submodules the exhaustive "
        "enumeration may visit, counted before it starts; the closed forms ignore it",
    )


def apply_args(p: argparse.ArgumentParser) -> None:
    add_output(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--x", required=True, help="comma-separated levels")


def config_args(p: argparse.ArgumentParser) -> None:
    add_output(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x", required=True)


def series_args(p: argparse.ArgumentParser) -> None:
    add_capped_output(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--tcut", type=int, required=True)
    p.add_argument(
        "--method",
        choices=("product", "configs", "recurrence"),
        default="product",
    )


def orbit_args(p: argparse.ArgumentParser) -> None:
    add_capped_output(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--gens", nargs="+", required=True, help="comma-separated exponent tuples")
    p.add_argument("--tcut", type=int, default=8)
    p.add_argument(
        "--closed-form",
        action="store_true",
        help="use the product formula; requires independent generators",
    )


def count_args(p: argparse.ArgumentParser) -> None:
    add_capped_output(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=nonnegative, required=True)


def strata_args(p: argparse.ArgumentParser) -> None:
    add_capped_output(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=nonnegative, required=True)


def verify_args(p: argparse.ArgumentParser) -> None:
    add_output(p)
    p.add_argument("--profile", choices=("quick", "full"), default="quick")


# Per subcommand, in the order `--help` lists them: its help line, the
# function that adds its arguments, and the command itself.
COMMANDS = {
    "apply": ("apply one shifting operator", apply_args, cmd_apply),
    "decompose": ("exponents reaching x from the origin", config_args, cmd_decompose),
    "stats": ("size and weight of a configuration", config_args, cmd_stats),
    "series": ("the size/weight census series", series_args, cmd_series),
    "orbit": ("orbit census under chosen generators", orbit_args, cmd_orbit),
    "count": ("submodule totals by colength", count_args, cmd_count),
    "strata": ("stratum table at one colength", strata_args, cmd_strata),
    "verify": ("run the verification suite", verify_args, cmd_verify),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser: every subcommand, or only `command` when one is named.

    Building one subcommand skips the arguments of the other seven.  Its
    top-level usage still names them all, so an error the top-level parser
    reports reads the same from either build.
    """
    parser = argparse.ArgumentParser(
        prog="spiralshift",
        description="Spiral shifting operators, their generating functions, "
        "and the submodule census they explain.",
    )
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
        names = list(COMMANDS)
    else:
        # The metavar is the one argparse writes from the full set of choices;
        # on the full parser it would also rename the argument in its errors.
        metavar = "{" + ",".join(COMMANDS) + "}"
        sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
        names = [command]
    for name in names:
        help_line, add_arguments, func = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        found = args.func(args)
        emit(args, found, time.perf_counter() - started)
        return found.code
    except NotFreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
