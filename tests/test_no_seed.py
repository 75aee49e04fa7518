"""No verdict depends on a seed: the package's callables take none, and the
one random draw (the last step of `module_iso_test`) is seeded by a constant.

Four names keep a `seed` parameter that they accept and ignore, so that
callers written against the older signatures still run.  The walk reads
every public function, class and method of every module in the package, so
a `seed` threaded back into a signature fails here."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import quiverext

SOURCE_DIR = Path(quiverext.__file__).parent
ACCEPTS_SEED = {"ext.ext_table", "comparison.verify_comparison",
                "resolution.global_dimension", "resolution.MinimalResolution"}


def package_modules():
    return [importlib.import_module("quiverext." + info.name)
            for info in pkgutil.iter_modules(quiverext.__path__)]


def public_callables():
    """{'module.name' or 'module.Class.method': callable}, each defined in
    the package module that names it."""
    out = {}
    for mod in package_modules():
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        out["%s.%s.%s" % (short, name, attr)] = member
                out["%s.%s" % (short, name)] = obj
            elif inspect.isfunction(obj):
                out["%s.%s" % (short, name)] = obj
    return out


def parameters(obj):
    return list(inspect.signature(obj).parameters)


def test_the_walk_reaches_the_entry_points():
    found = public_callables()
    assert ACCEPTS_SEED <= set(found)
    assert {"modules.module_iso_test", "resolution.simple_resolutions",
            "resolution.MinimalResolution.pd_verdict", "ext.ExtTable",
            "comparison.compute_abc", "corner.gexact_condition", "cli.main"} <= set(found)


def test_only_the_benchmark_facing_names_take_a_seed():
    with_seed = {name for name, obj in public_callables().items()
                 if "seed" in parameters(obj)}
    assert with_seed == ACCEPTS_SEED


def test_iso_test_takes_only_the_two_modules():
    assert parameters(quiverext.module_iso_test) == ["M", "N"]


def test_only_modules_imports_random():
    importers = set()
    for path in sorted(SOURCE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(n == "random" or (n or "").startswith("random.") for n in names):
                importers.add(path.name)
    assert importers == {"modules.py"}
