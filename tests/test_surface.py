"""Every module-level function, class and constant of linksig is named
somewhere besides its own definition: in the package, the tests, the
benchmark harness or the package's export table.  A name that nothing
reads is surface no command, route or criterion needs."""

import ast
from pathlib import Path

import linksig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "linksig"


def definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
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
    sources = sorted(PACKAGE.glob("*.py"))
    corpus = sources + sorted((ROOT / "tests").glob("*.py"))
    corpus += sorted((ROOT / "perfbench").glob("*.py"))
    used = set(" ".join(linksig._EXPORTS.values()).split())
    for path in corpus:
        used.update(references(ast.parse(path.read_text(encoding="utf-8"))))
    unused = [
        f"{path.name}: {name}"
        for path in sources
        for name in definitions(ast.parse(path.read_text(encoding="utf-8")))
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unused == []


def test_every_traced_name_resolves():
    """The benchmark tracer wraps these names; deleting one breaks `--trace 1`."""
    import importlib
    import importlib.util

    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attr, *_ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        cls_name, _, name = attr.rpartition(".")
        # the tracer reads a method from its class's own __dict__
        owner = vars(getattr(module, cls_name)) if cls_name else vars(module)
        assert name in owner, (module_name, attr)
