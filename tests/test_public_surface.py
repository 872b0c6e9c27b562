"""Every public top-level function or class in the package has a caller,
and so does every public method or property of such a class.

A name defined by `def` or `class` at the top of a module in `src/lieflow`
(`__init__.py` aside, which imports every export), or by `def` in the body of
a top-level class, and not starting with `_` must be referenced by name from
a module in `src/lieflow` other than `__init__.py`, its own included, from
the acceptance gate `tests/test_acceptance.py`, or from the benchmark
`perfbench/*.py`, including the function names that `perfbench/spans.py`
traces as strings in `TARGETS`. A private function, one defined by `def`
at the top of a module in `src/lieflow` with a name starting with `_`, must
be referenced by name from some module in `src/lieflow`. Code that only the
unit tests call is not kept in the library. And every name that a module in
`src/lieflow` (`__init__.py` aside) imports at its top level is read in that
module, so no import outlives the code that needed it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lieflow"


def referenced_names(tree):
    """Identifiers a module reads: names, attributes and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


def traced_names(tree):
    """The function names listed in a module-level `TARGETS` dict."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            for fns in ast.literal_eval(node.value).values():
                out.update(fns)
    return out


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_definition_has_a_caller():
    modules = {p.name: parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    callers = [parse(ROOT / "tests" / "test_acceptance.py")]
    callers += [parse(p) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    known = set().union(*map(referenced_names, [*modules.values(), *callers]),
                        *map(traced_names, callers))
    defs = (ast.FunctionDef, ast.ClassDef)
    defined = [(f"{name}:{node.name}", node) for name, tree in modules.items()
               for node in tree.body if isinstance(node, defs)]
    defined += [(f"{label}.{node.name}", node) for label, cls in defined
                if isinstance(cls, ast.ClassDef) for node in cls.body
                if isinstance(node, ast.FunctionDef)]
    unused = [label for label, node in defined
              if not node.name.startswith("_") and node.name not in known]
    assert not unused, f"public definitions that only the unit tests call: {unused}"


def test_every_private_function_has_a_caller_in_the_package():
    modules = {p.name: parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    known = set().union(*map(referenced_names, modules.values()))
    unused = [f"{name}:{node.name}" for name, tree in modules.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
              and node.name not in known]
    assert not unused, f"private functions that only the unit tests call: {unused}"


def test_every_top_level_import_is_read_in_its_module():
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = parse(path)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                stale += [f"{path.name}:{name}" for name in bound if name not in read]
    assert not stale, f"imported but never read: {stale}"
