"""Every function, class, constant, method and property of linksig is read
somewhere besides its own definition: in the package, the acceptance
criteria (tests/test_acceptance.py and the curve self-checks they run) or
the benchmark harness.  The other tests do not count, so a name that only
they read shows here: it is surface no command, route or criterion needs.
Dunders are exempt, because operators and the language call them."""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import subprocess
import sys
import typing
from pathlib import Path

import linksig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "linksig"


# the files whose reads count: the package, the criteria and the harness
USERS = [
    *sorted(PACKAGE.glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "curve_selfchecks.py",
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def definitions(tree):
    """Module-level names, and Class.method for each method and property."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}"
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_module_level_name_is_used():
    used = set()
    for path in USERS:
        used.update(references(ast.parse(path.read_text(encoding="utf-8"))))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname in definitions(ast.parse(path.read_text(encoding="utf-8"))):
            name = qualname.rpartition(".")[2]
            if name not in used and not (name.startswith("__") and name.endswith("__")):
                unused.append(f"{path.name}: {qualname}")
    assert unused == []


def test_every_exported_annotation_resolves():
    """typing.get_type_hints resolves the annotations of every exported
    function and of every method of an exported class."""
    functions = []
    for name in linksig.__all__:
        obj = getattr(linksig, name)
        if inspect.isclass(obj):
            functions += [f for f in vars(obj).values() if inspect.isfunction(f)]
        elif inspect.isfunction(obj):
            functions.append(obj)
    assert linksig.symmetrized_sigma in functions
    for f in functions:
        typing.get_type_hints(f)


# Imports every linksig submodule but __main__, which runs the command line,
# with numpy blocked: `import numpy` raises ImportError.
NO_NUMPY = """
import importlib
import pkgutil
import sys
sys.modules["numpy"] = None
import linksig
names = sorted(m.name for m in pkgutil.iter_modules(linksig.__path__) if m.name != "__main__")
for name in names:
    importlib.import_module(f"linksig.{name}")
print(" ".join(names))
"""


def test_every_module_imports_without_numpy():
    """numpy is no runtime dependency: every module imports with it blocked,
    and no function imports it when called, not even a self-check."""
    r = subprocess.run([sys.executable, "-c", NO_NUMPY], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    sources = sorted(PACKAGE.glob("*.py"))
    assert r.stdout.split() == [p.stem for p in sources if p.stem not in ("__init__", "__main__")]
    imported = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
    ]
    assert imported == []


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    """The benchmark tracer wraps these names; deleting one breaks `--trace 1`."""
    tracing = load_tracing()
    assert tracing.TARGETS
    for module_name, attr, *_ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        cls_name, _, name = attr.rpartition(".")
        # the tracer reads a method from its class's own __dict__
        owner = vars(getattr(module, cls_name)) if cls_name else vars(module)
        assert name in owner, (module_name, attr)


def test_traced_hooks_read_the_real_results():
    """Each describe or tally hook of the tracer takes what its target really
    returns: a band H of width 1 and one of width 2, both curve routes, a
    grid and a sweep."""
    from linksig.pillowcase import CHEB_PATH, QUAT_PATH
    from linksig.signature import build_H, seifert_system, torus_seifert
    from linksig.torus_rep import angle_pair

    tracing = load_tracing()
    m = [[1, 0, 2], [0, -1, 0], [1, 0, 1]]  # off the band
    dense_system = seifert_system(1, {"+": m, "-": [list(r) for r in zip(*m)]})
    band_system = torus_seifert(4)
    alpha = angle_pair("1/3", "1/5")
    omegas = {1: [0.6 + 0.8j], 2: list(alpha.omega())}
    systems = [(s, omegas[s.mu]) for s in (band_system, dense_system)]
    hs = [build_H(*args) for args in systems]
    assert [h.width for h in hs] == [1, 2]
    calls = {
        "main": [(["h", "--ell", "3", "--alpha", "1/3", "1/5"],)],
        "sweep_main_identity": [(3, 8)],
        "region_grid": [(3, 8)],
        "sample_curve": [(2, alpha, 16, QUAT_PATH), (2, alpha, 16, CHEB_PATH)],
        "sigma_eval": systems,
        "build_H": systems,
        "inertia": [(h,) for h in hs],
        "is_defined": [(3, alpha)],
        "solve_phi": [(3, alpha)],
    }
    described = set()
    for module_name, attr, kind, _, hook in tracing.TARGETS:
        if hook is None:
            continue
        fn = getattr(importlib.import_module(module_name), attr)
        for args in calls[attr]:
            with contextlib.redirect_stdout(io.StringIO()):
                result = fn(*args)
            if kind == tracing.SPAN:
                assert isinstance(hook(args, result), dict), attr
            else:
                int(hook(result))
            described.add(attr)
    assert described >= {"sample_curve", "build_H", "inertia", "sigma_eval"}


def places(predicate):
    """The package files whose syntax tree holds a node that predicate accepts."""
    return [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if any(predicate(node) for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    ]


def test_only_dunder_main_runs_as_a_script():
    """`python -m linksig` and the `linksig` script are the only entries; no
    other module has an `if __name__ == "__main__"` guard."""

    def is_main_guard(node):
        return (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name)
            and node.test.left.id == "__name__"
            and any(isinstance(c, ast.Constant) and c.value == "__main__"
                    for c in node.test.comparators)
        )

    assert places(is_main_guard) == ["__main__.py"]


def test_only_frozen_stores_fields():
    """Frozen.__init__ is the one place that sets a frozen value's fields."""

    def is_object_setattr(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        )

    assert places(is_object_setattr) == ["_values.py"]


def test_only_main_reports_usage_errors():
    """cli.py exits 64 in one place, main's `except ValueError`: the option
    reader and the commands raise ValueError, and only main prints it, with
    the failing command's usage.  No argparse parser prints a second form."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))

    def error_exits(node):
        return [
            n.lineno
            for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and ast.unparse(n.func) in ("SystemExit", "sys.exit", "exit")
            and [ast.unparse(a) for a in n.args] != ["EXIT_OK"]
        ]

    (main,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    (printer,) = [
        handler
        for node in ast.walk(main)
        if isinstance(node, ast.Try)
        for handler in node.handlers
        if handler.type is not None and ast.unparse(handler.type) == "ValueError"
    ]
    assert error_exits(printer) and error_exits(tree) == error_exits(printer)
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert not [n.lineno for n in imports if "argparse" in ast.unparse(n)]


def test_every_value_is_frozen_and_built_once():
    """_values.py defines Frozen alone, every class with fields derives from
    it, and no statement in the package assigns to a field, plainly or
    through an augmented assignment such as `report.checked += 1`."""
    values = ast.parse((PACKAGE / "_values.py").read_text(encoding="utf-8"))
    assert [n.name for n in ast.walk(values) if isinstance(n, ast.ClassDef)] == ["Frozen"]

    def has_fields(node):
        return isinstance(node, ast.ClassDef) and any(
            isinstance(item, ast.Assign)
            and [ast.unparse(t) for t in item.targets] == ["__slots__"]
            and ast.literal_eval(item.value)
            for item in node.body
        )

    classes = [
        (path.name, node.name, [ast.unparse(b) for b in node.bases])
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if has_fields(node)
    ]
    assert {"Report", "RegionGrid", "Band"} <= {name for _, name, _ in classes}
    assert [c for c in classes if c[2] != ["Frozen"]] == []

    def stored(targets):
        for t in targets:
            if isinstance(t, (ast.Tuple, ast.List)):
                yield from stored(t.elts)
            else:
                yield t.value if isinstance(t, ast.Starred) else t

    def stores_a_field(node):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            return False
        return any(isinstance(t, ast.Attribute) for t in stored(targets))

    assert places(stores_a_field) == []
