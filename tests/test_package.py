"""The package's public surface."""

import ast
import importlib.util
import sys
import types
from pathlib import Path

import spiralshift


# The public surface, sorted; a name added to or taken from `__all__` shows up here.
EXPORTED = [
    "BiPoly",
    "Census",
    "Config",
    "ContentExponents",
    "DEFAULT_CAP",
    "FeasibilityError",
    "GeneratorSet",
    "InternalInvariantError",
    "ModuleSpace",
    "MultiIndex",
    "NotFreeError",
    "Partition",
    "SubmoduleBasis",
    "act",
    "box_partitions",
    "brute_strata",
    "compositions",
    "configs_with_size",
    "content",
    "decompose",
    "echelonize",
    "enumerate_submodules",
    "families",
    "free_orbit_formula",
    "gaussian_count",
    "gaussian_counts",
    "hlex_key",
    "is_free_basis",
    "is_tight",
    "leading_module",
    "lex_key",
    "multiindex_content",
    "orbit_sum",
    "partition_to_config",
    "product_formula",
    "recurrence_formula",
    "semigroup_elements",
    "shift_from",
    "size",
    "sum_over_configs",
    "weight",
    "weight_by_seats",
]


def test_exports_are_the_pinned_names():
    assert EXPORTED == sorted(EXPORTED)
    assert sorted(spiralshift.__all__) == EXPORTED


def test_every_exported_name_resolves_once():
    names = spiralshift.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(spiralshift, name)]
    assert missing == []


def test_exports_are_exactly_the_public_attributes():
    # Submodules and __version__ are attributes of the package but not exports.
    public = {
        name
        for name, value in vars(spiralshift).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(spiralshift.__all__) == public


def test_traced_bench_runs_against_the_package(capsys):
    # bench/tracing.py wraps the package's functions by name; a renamed or
    # deleted one shows up here as a failed command or a KeyError.
    from spiralshift import cli
    from spiralshift.submodules import SubmoduleBasis

    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("spiralshift_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    main, is_t_stable = cli.main, vars(SubmoduleBasis)["is_t_stable"]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert cli.main is not main
        assert cli.main(["verify", "--profile", "quick"]) == 0
        assert cli.main(["count", "--q", "2", "--d", "2", "--N", "2"]) == 0
    finally:
        uninstall()
    capsys.readouterr()
    metrics = tracing.pass_metrics(tracer)
    assert set(tracing.SELF_TIME_METRICS) <= set(metrics)
    assert cli.main is main
    assert vars(SubmoduleBasis)["is_t_stable"] is is_t_stable


def test_package_imports_only_the_standard_library():
    # spiralshift is stdlib-only: a third-party import for a faster kernel fails here.
    package = Path(spiralshift.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "spiralshift":
                    outside.append(f"{path.name}: {name}")
    assert outside == []


def sibling_imports(path: Path) -> set[str]:
    """The package modules that the module at `path` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spiralshift."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("spiralshift.")
            )
    return found


def test_modules_import_only_the_layers_below():
    # The layers, lowest first: cylinder; stats and partitions; series;
    # submodules; checks; cli.  The work cap and its error live in `series`
    # because `submodules` imports `series` and not the other way round.
    package = Path(spiralshift.__file__).parent
    imports = {path.stem: sibling_imports(path) for path in package.glob("*.py")}
    assert imports["cylinder"] == set()
    assert imports["stats"] <= {"cylinder"}
    assert imports["partitions"] <= {"cylinder"}
    assert not imports["series"] & {"submodules", "checks", "cli"}
    assert not imports["submodules"] & {"checks", "cli"}
    assert "cli" not in imports["checks"]


# The functools memoizers: state that outlives the call that fills it.
MEMOIZERS = {"cache", "lru_cache", "cached_property"}


def test_package_keeps_no_state_between_calls():
    # A cache kept across calls makes a repeated run look faster than the
    # first; every call derives what it needs afresh.
    package = Path(spiralshift.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
            ):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: functools.{n}" for n in names if n in MEMOIZERS]
    assert found == []


def test_every_private_definition_and_method_has_a_caller_in_the_package():
    # A private function or class, or a method, that only tests reach is
    # dead code kept alive by its tests.  A use is a name or an attribute
    # read anywhere in the package; docstrings do not count.
    package = Path(spiralshift.__file__).parent
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path)) for path in package.glob("*.py")
    }
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    defined = []
    for name, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined.append((name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (name, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
    unused = [f"{name}: {full}" for name, full in defined if full.split(".")[-1] not in used]
    assert defined and unused == []
