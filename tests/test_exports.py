"""Every exported name resolves: stale exports fail here, not in a user's import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ringtoa

MODULES = sorted(m.name for m in pkgutil.iter_modules(ringtoa.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_are_attributes(name):
    mod = importlib.import_module(f"ringtoa.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"ringtoa.{name}.__all__ names undefined {missing}"


def test_package_imports_are_defined():
    tree = ast.parse(Path(ringtoa.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        source = importlib.import_module(f"ringtoa.{node.module}") if node.module else ringtoa
        for alias in node.names:
            assert hasattr(source, alias.name), f"{node.module}.{alias.name} is undefined"
            assert getattr(ringtoa, alias.asname or alias.name) is getattr(source, alias.name)


def test_cli_imports_no_private_name():
    # the command line runs on the library's public names only
    tree = ast.parse((Path(ringtoa.__file__).parent / "cli.py").read_text())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "ringtoa")
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not private


def _package_imports(name: str) -> set[str]:
    """The package modules that ringtoa/<name>.py imports from, relative or absolute."""
    tree = ast.parse((Path(ringtoa.__file__).parent / f"{name}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ringtoa."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names if a.name.startswith("ringtoa.")}
    return out


@pytest.mark.parametrize("name, allowed", [("lattice", {"errors"}),
                                           ("oracle", {"errors", "lattice"})])
def test_evaluator_modules_import_only_below_them(name, allowed):
    # the two evaluators of every amplitude share nothing but these
    assert _package_imports(name) <= allowed


def test_probability_imports_nothing_from_the_oracle():
    assert "oracle" not in _package_imports("probability")


# chunk budgets and quadrature constants, each bound in its home module only,
# so a test that patches one anywhere else fails instead of patching nothing
HOMES = {
    "lattice": ("_CHUNK_BUDGET", "_BLOCK", "_MIN_UNIFORM", "_UNIFORM_ULPS", "_UNIT_ROUNDOFF",
                "REALITY_TOL"),
    "oracle": ("_NODE_BUDGET", "_PANEL_PHASE", "_MIN_PANELS", "_GRADE_RATIO", "_GRADE_LEVELS",
               "_GL_NODES", "_GL_WEIGHTS", "_TWO_PI_LO", "_REACH_SIGMAS", "_REACH_P_SIGMA"),
}


@pytest.mark.parametrize("home", sorted(HOMES))
def test_constants_are_bound_only_in_their_home(home):
    where = {name: [n for n in HOMES[home]
                    if hasattr(importlib.import_module(f"ringtoa.{name}"), n)]
             for name in MODULES}
    assert where == {name: list(HOMES[home]) if name == home else [] for name in MODULES}


SOURCES = sorted(Path(ringtoa.__file__).parent.glob("*.py")) + sorted(
    Path(__file__).parent.glob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    """Names path imports but never reads, save __future__ and its __all__."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {name for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for name in ast.literal_eval(node.value)}
    return sorted(bound - used - exported)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    # the package's __init__ imports only to re-export
    assert not _unused_imports(path), f"{path.name} imports unused names"


def _pinned_names() -> list[str]:
    """Every `module.attr` and `module.Class.attr` that benchmarks/tracer.py's
    LAYERS wraps, read from its source without importing it."""
    tracer = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    layers = next(ast.literal_eval(node.value) for node in ast.parse(tracer.read_text()).body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    return sorted(f"{mod}.{attr}" for mod, attrs in layers.values() for attr in attrs)


@pytest.mark.parametrize("pinned", _pinned_names())
def test_benchmark_pinned_names_resolve(pinned):
    # the benchmark's tracer wraps these by name: one that moves or goes
    # breaks the benchmark, so it fails tier-1 too
    mod, *owner, attr = pinned.split(".")
    where = importlib.import_module(f"ringtoa.{mod}")
    for name in owner:  # a method is wrapped from its class's own __dict__
        where = vars(where)[name]
    assert attr in vars(where), f"ringtoa.{pinned} is gone"
