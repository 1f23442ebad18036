"""Runtime tracing of the spiralshift layers, installed from outside the package.

`install` wraps public functions and a few methods of the layer modules so
that each call records a span (name, start, end, parent) and bumps work
counters.  A function is patched in every module namespace that holds it,
because modules import names directly (`cli` and `checks` both hold their
own reference to `enumerate_submodules`).  Calls a layer makes to its own
functions stay unwrapped and count as that layer's own time, except for the
functions named in `SELF_CALLS`, whose counts a metric needs wherever they
are called from.  The calls in `COUNTED` run hundreds of thousands of times
a pass inside their own layer; they get no span, only a count charged to
the innermost open span.  `checks.ALL_CHECKS` is rebuilt from the wrapped
checks so that `run_profile` times each check.

Spans of the pass in progress are kept in flat arrays; `pass_metrics` turns
them, with the counters, into the per-layer metrics of one pass.  The
tracer's own time in a span wrapper (bookkeeping and hook, measured per
span) is taken out of every reported time.  What it cannot measure, the
calls into the wrappers and the counting of `COUNTED` calls, stays in the
enclosing layer's time; `run.trace_overhead` bounds it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

LAYERS = ("cylinder", "stats", "partitions", "series", "submodules", "checks", "cli")

# Functions traced also when their own module calls them, since a metric
# counts those calls (shift_from under act/decompose, weight under content,
# box_partitions under gaussian_count, echelonize under from_vectors,
# enumerate_submodules under count_by_colength), or the benchmark calls them
# through their module (cli.main).
SELF_CALLS = {
    "cylinder": ("shift_from",),
    "stats": ("weight",),
    "partitions": ("box_partitions",),
    "submodules": ("echelonize", "enumerate_submodules"),
    "cli": ("main",),
}

# Calls that are counted but get no span: the methods everywhere, shift_from
# where cylinder calls it (act and decompose apply it once per unit step).
COUNTED = ("cylinder.shift_from", "submodules.is_t_stable", "submodules.pivot_positions")

METHODS = (
    ("series", "BiPoly", "__mul__", "series.mul"),
    ("submodules", "SubmoduleBasis", "is_t_stable", "submodules.is_t_stable"),
    ("submodules", "SubmoduleBasis", "pivot_positions", "submodules.pivot_positions"),
)

# The (q, d, N) grids the census workload counts, reported one by one.
CENSUS_GRIDS = ((2, 3, 3), (2, 4, 2), (2, 2, 5), (3, 2, 4), (3, 3, 2))

CHECK_NAMES = (
    "worked_example",
    "commutation",
    "free_transitive",
    "increments",
    "weight_equivalence",
    "series_three_way",
    "partition_bijection",
    "submodule_counts",
    "stratum_law",
    "free_orbits",
    "tightness",
    "content_multiplicativity",
)


def grid_label(grid) -> str:
    return "-".join(str(v) for v in grid)


class Tracer:
    """Spans and counters of the current pass.

    Span i has name `names[nid[i]]`, parent span `parent[i]` (-1 at the
    root), and runs from `start[i]` to `end[i]`; `outer[i]` is 1 when no
    span of the same name encloses it.  `cost[i]` is the tracer's own time
    for span i, spent outside start..end but inside the parent's span: the
    wrapper's bookkeeping and the counting hook.  `pass_metrics` takes it
    out of the enclosing spans' times, together with the per-call time that
    no clock read in a wrapper sees (`span_unseen`, `count_unseen`, set by
    `calibrate`).  `counted[nid]` maps a span to the number of calls of a
    `COUNTED` name made while it was the innermost open span (-1: none
    open).  `active` counts the open spans of each name, so counting hooks
    can ask what they run under.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.active: dict[str, int] = {}
        self.nid = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.cost = array("d")
        self.counted: dict[int, dict[int, int]] = {}
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.span_unseen = 0.0
        self.count_unseen = 0.0
        # enumerate_submodules span -> its (q, d, depth) grid
        self.grid_of: dict[int, tuple[int, int, int]] = {}

    def reset(self) -> None:
        """Forget the spans and counters of the previous pass."""
        for spans in (self.nid, self.parent, self.outer, self.start, self.end, self.cost):
            del spans[:]
        for per_span in self.counted.values():
            per_span.clear()
        self.stack.clear()
        self.counters.clear()
        self.grid_of.clear()

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> None:
        """Measure the time per call each wrapper adds that it cannot see itself.

        That is the call into a span wrapper and its return, and the whole
        of a counting wrapper.  Both are timed on a no-op against the bare
        no-op, best of `repeats` loops.
        """

        def noop():
            return None

        def per_call(func) -> float:
            best = float("inf")
            for _ in range(repeats):
                self.reset()
                started = perf_counter()
                for _ in range(calls):
                    func()
                best = min(best, (perf_counter() - started - sum(self.cost)) / calls)
            self.reset()
            return best

        bare = per_call(noop)
        self.span_unseen = max(0.0, per_call(self.wrap("tracer.span", noop)) - bare)
        self.count_unseen = max(0.0, per_call(self.count_calls("tracer.count", noop)) - bare)

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _register(self, name: str) -> int:
        if name not in self.active:
            self.names.append(name)
            self.active[name] = 0
        return self.names.index(name)

    def count_calls(self, name: str, func):
        """`func`, with its calls counted against the innermost open span."""
        per_span = self.counted.setdefault(self._register(name), {})
        stack = self.stack

        @functools.wraps(func)
        def counted(*args, **kwargs):
            span = stack[-1] if stack else -1
            per_span[span] = per_span.get(span, 0) + 1
            return func(*args, **kwargs)

        return counted

    def wrap(self, name: str, func, hook=None):
        """`func`, with each call recorded as a span and passed to `hook`."""
        nid = self._register(name)
        active, stack = self.active, self.stack
        ids, parent, outer = self.nid, self.parent, self.outer
        start, end, cost = self.start, self.end, self.cost

        @functools.wraps(func)
        def traced(*args, **kwargs):
            entered = perf_counter()
            i = len(ids)
            ids.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer.append(active[name] == 0)
            end.append(0.0)
            cost.append(0.0)
            active[name] += 1
            stack.append(i)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                end[i] = t1
                stack.pop()
                active[name] -= 1
            if hook is not None:
                hook(self, i, args, kwargs, result)
            cost[i] = t0 - entered + perf_counter() - t1
            return result

        return traced

    def spans(self) -> list[tuple[str, float, float, int]]:
        """The pass's spans as (name, start, end, parent index) tuples."""
        return [
            (self.names[self.nid[i]], self.start[i], self.end[i], self.parent[i])
            for i in range(len(self.nid))
        ]


# Counting hooks: run after the span closes, with the span index and the
# call's arguments.  Counts that follow from the span tree and the counted
# calls (shift_from under act/decompose, candidates per grid) are taken in
# pass_metrics instead.


def _on_box_partitions(tracer, i, args, kwargs, result):
    tracer.count("box_partitions_items", len(result))
    if tracer.active["partitions.gaussian_count"]:
        tracer.count("gaussian_built", len(result))


def _on_gaussian_count(tracer, i, args, kwargs, result):
    tracer.count("gaussian_counted", result)


def _on_mul(tracer, i, args, kwargs, result):
    left, right = args
    tracer.count("mul_pairs", len(left.coeffs) * len(right.coeffs))
    # Pairs within t_cut: for each left t-degree, the right terms of
    # t-degree at most t_cut minus it.
    by_degree = [0] * (left.t_cut + 1)
    for td, _ in right.coeffs:
        by_degree[td] += 1
    within = [0] * (left.t_cut + 1)
    running = 0
    for td, n in enumerate(by_degree):
        running += n
        within[td] = running
    tracer.count("mul_kept", sum(within[left.t_cut - td] for td, _ in left.coeffs))


def _on_enumerate_submodules(tracer, i, args, kwargs, result):
    # The result is exactly the candidates that passed is_t_stable.
    given = dict(zip(("q", "d", "depth"), args), **kwargs)
    tracer.grid_of[i] = (given["q"], given["d"], given["depth"])
    tracer.count("survivors", len(result))
    tracer.count("useful", sum(1 for m in result if m.codim <= given["depth"]))


HOOKS = {
    "partitions.box_partitions": _on_box_partitions,
    "partitions.gaussian_count": _on_gaussian_count,
    "series.mul": _on_mul,
    "submodules.enumerate_submodules": _on_enumerate_submodules,
}


def _public_functions(module):
    for attr, value in vars(module).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield attr, value


def install(tracer: Tracer):
    """Wrap the layer functions and methods; returns a callable that undoes it."""
    modules = {layer: importlib.import_module(f"spiralshift.{layer}") for layer in LAYERS}
    namespaces = [importlib.import_module("spiralshift")] + list(modules.values())
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    wrapped_of = {}
    for layer, module in modules.items():
        for attr, func in list(_public_functions(module)):
            name = f"{layer}.{attr}"
            wrapped = wrapped_of[func] = tracer.wrap(name, func, HOOKS.get(name))
            for ns in namespaces:
                own = wrapped
                if ns is module:
                    if attr not in SELF_CALLS.get(layer, ()):
                        continue
                    if name in COUNTED:
                        own = tracer.count_calls(name, func)
                for held, value in list(vars(ns).items()):
                    if value is func:
                        patch(ns, held, own)
    checks = modules["checks"]
    patch(checks, "ALL_CHECKS", tuple(wrapped_of[check] for check in checks.ALL_CHECKS))
    for layer, cls_name, attr, name in METHODS:
        cls = getattr(modules[layer], cls_name)
        method = vars(cls)[attr]
        if name in COUNTED:
            patch(cls, attr, tracer.count_calls(name, method))
        else:
            patch(cls, attr, tracer.wrap(name, method, HOOKS.get(name)))

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def _counting_cost(tracer: Tracer) -> list[float]:
    """Per span, the counting wrappers' time spent while it was innermost."""
    inside = [0.0] * len(tracer.nid)
    for per_span in tracer.counted.values():
        for span, n_calls in per_span.items():
            if span >= 0:
                inside[span] += n_calls * tracer.count_unseen
    return inside


def _times(tracer: Tracer) -> tuple[list[float], list[float]]:
    """Self and inclusive time of every span, the tracer's own time taken out.

    A child's whole time, its wrapper's included, is taken out of its
    parent's self time; the tracer's time in the counting wrappers and in
    the wrappers of all nested spans is taken out of a span's inclusive time.
    """
    n = len(tracer.nid)
    start, end, parent, cost = tracer.start, tracer.end, tracer.parent, tracer.cost
    unseen = tracer.span_unseen
    inside = _counting_cost(tracer)
    child = [0.0] * n
    nested = inside[:]
    for i in range(n - 1, -1, -1):  # children come after their parents
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i] + cost[i] + unseen
            nested[p] += nested[i] + cost[i] + unseen
    duration = [end[i] - start[i] for i in range(n)]
    return (
        [duration[i] - child[i] - inside[i] for i in range(n)],
        [duration[i] - nested[i] for i in range(n)],
    )


def tracer_s(tracer: Tracer) -> float:
    """The tracer's own time in the pass: measured per span, estimated per call."""
    n_counted = sum(sum(per_span.values()) for per_span in tracer.counted.values())
    return (
        sum(tracer.cost)
        + len(tracer.nid) * tracer.span_unseen
        + n_counted * tracer.count_unseen
    )


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the pass recorded in `tracer`."""
    self_time, inclusive_time = _times(tracer)
    nid_of = {name: k for k, name in enumerate(tracer.names)}
    op_ids = {nid_of.get("cylinder.act"), nid_of.get("cylinder.decompose")}
    shift_id = nid_of.get("cylinder.shift_from")
    enum_id = nid_of.get("submodules.enumerate_submodules")
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    layer_busy = {layer: 0.0 for layer in LAYERS}
    grid_busy: dict[tuple[int, int, int], float] = {}
    grid_candidates: dict[tuple[int, int, int], int] = {}
    shift_under_ops = 0
    n = len(tracer.nid)
    under_ops = bytearray(n)  # span i is, or is nested in, an act/decompose span
    enum_span = array("i", [-1]) * n  # innermost enumerate_submodules span around i
    for i, nid in enumerate(tracer.nid):
        name = tracer.names[nid]
        p = tracer.parent[i]
        calls[name] = calls.get(name, 0) + 1
        layer_busy[name.split(".", 1)[0]] += self_time[i]
        if tracer.outer[i]:
            inclusive[name] = inclusive.get(name, 0.0) + inclusive_time[i]
        if p >= 0:
            under_ops[i] = under_ops[p]
            enum_span[i] = enum_span[p]
        if nid == shift_id and under_ops[i]:
            shift_under_ops += 1
        if nid in op_ids:
            under_ops[i] = 1
        if nid == enum_id:
            enum_span[i] = i
            grid = tracer.grid_of[i]
            if tracer.outer[i]:
                grid_busy[grid] = grid_busy.get(grid, 0.0) + inclusive_time[i]
    for nid, per_span in tracer.counted.items():
        name = tracer.names[nid]
        calls[name] = calls.get(name, 0) + sum(per_span.values())
        for span, n_calls in per_span.items():
            if span < 0:
                continue
            if nid == shift_id and under_ops[span]:
                shift_under_ops += n_calls
            if name == "submodules.is_t_stable" and enum_span[span] >= 0:
                grid = tracer.grid_of[enum_span[span]]
                grid_candidates[grid] = grid_candidates.get(grid, 0) + n_calls
    candidates = sum(grid_candidates.values())
    c = tracer.counters
    ops = calls.get("cylinder.act", 0) + calls.get("cylinder.decompose", 0)
    out = {
        "cylinder.busy_s": layer_busy["cylinder"],
        "cylinder.shift_from.calls": calls.get("cylinder.shift_from", 0),
        "cylinder.act.calls": calls.get("cylinder.act", 0),
        "cylinder.decompose.calls": calls.get("cylinder.decompose", 0),
        "cylinder.applications_per_call": _ratio(shift_under_ops, ops),
        "stats.busy_s": layer_busy["stats"],
        "stats.weight.calls": calls.get("stats.weight", 0),
        "partitions.busy_s": layer_busy["partitions"],
        "partitions.box_partitions.calls": calls.get("partitions.box_partitions", 0),
        "partitions.box_partitions.items": c.get("box_partitions_items", 0),
        "partitions.gaussian_count.kept_ratio": _ratio(
            c.get("gaussian_counted", 0), c.get("gaussian_built", 0)
        ),
        "series.busy_s": layer_busy["series"],
        "series.sum_over_configs.busy_s": inclusive.get("series.sum_over_configs", 0.0),
        "series.mul.calls": calls.get("series.mul", 0),
        "series.mul.pairs": c.get("mul_pairs", 0),
        "series.mul.kept_ratio": _ratio(c.get("mul_kept", 0), c.get("mul_pairs", 0)),
        "submodules.busy_s": layer_busy["submodules"],
        "submodules.enumerate_submodules.busy_s": inclusive.get(
            "submodules.enumerate_submodules", 0.0
        ),
        "submodules.candidates": candidates,
        "submodules.survivors": c.get("survivors", 0),
        "submodules.kept_ratio": _ratio(c.get("useful", 0), candidates),
        "submodules.pivot_positions.calls": calls.get("submodules.pivot_positions", 0),
        "submodules.echelonize.calls": calls.get("submodules.echelonize", 0),
        "submodules.echelonize.busy_s": inclusive.get("submodules.echelonize", 0.0),
    }
    for grid in CENSUS_GRIDS:
        label = grid_label(grid)
        out[f"submodules.candidates.{label}"] = grid_candidates.get(grid, 0)
        out[f"submodules.busy_s.{label}"] = grid_busy.get(grid, 0.0)
    for check in CHECK_NAMES:
        out[f"checks.{check}.busy_s"] = inclusive.get(f"checks.check_{check}", 0.0)
    out["cli.self_s"] = layer_busy["cli"]
    return out


SELF_TIME_METRICS = (
    "cylinder.busy_s",
    "stats.busy_s",
    "partitions.busy_s",
    "series.busy_s",
    "submodules.busy_s",
    "cli.self_s",
)
