"""Exact arithmetic and bounded recursion in ``src/cdindex``, checked on its syntax trees.

No result may pick up a float: the library has no true division, no float
or complex literal, no ``float(`` call, and takes only ``comb`` from
``math``.  No input size may reach Python's recursion limit: no function
calls itself unless ``RECURSIVE`` lists it with what bounds its depth.
"""

import ast
from pathlib import Path

import pytest

import cdindex

SOURCE = Path(cdindex.__file__).resolve().parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCE.glob("*.py"))}

# the one true division, a pathlib join, by its source text
DIVISIONS = {("fixtures.py", 'directory / f"{name}.json"')}

RECURSIVE = {
    # each call lowers l(v) by one, and l(v) = 0 leaves only u == v or u not below v
    ("coxeter.py", "BruhatGraph.r_polynomial_recursive"): "at most l(v) + 1",
    # one call per container, and the library writes only its own values
    ("jsontext.py", "_walk"): "the nesting of the library's own output",
}


def _functions(tree):
    """(qualified name, node, class name or None) of every function, nested ones included."""
    stack = [(tree, "")]
    while stack:
        node, prefix = stack.pop()
        owner = node.name if isinstance(node, ast.ClassDef) else None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append((child, f"{prefix}{child.name}."))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}{child.name}", child, owner


def _calls_itself(func, owner) -> bool:
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if owner is None and isinstance(callee, ast.Name) and callee.id == func.name:
            return True
        if (
            owner is not None
            and isinstance(callee, ast.Attribute)
            and callee.attr == func.name
            and isinstance(callee.value, ast.Name)
            and callee.value.id in ("self", "cls", owner)
        ):
            return True
    return False


def _divisions():
    for name, tree in TREES.items():
        source = (SOURCE / name).read_text(encoding="utf-8")
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                yield name, node.lineno, ast.get_source_segment(source, node)


def _self_calling():
    for name, tree in TREES.items():
        for qualname, func, owner in _functions(tree):
            if _calls_itself(func, owner):
                yield name, qualname


def test_the_package_is_read():
    assert {"coxeter.py", "digraph.py", "fixtures.py", "jsontext.py"} <= set(TREES)


def test_no_true_division():
    found = [(name, line, text) for name, line, text in _divisions() if (name, text) not in DIVISIONS]
    assert found == []


def test_no_float_literal_or_float_call():
    found = [
        (name, node.lineno)
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
    ]
    assert found == []


def test_only_comb_from_math():
    found = []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [(name, node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "math"]
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [(name, node.lineno, a.name) for a in node.names if a.name != "comb"]
    assert found == []


def test_no_function_calls_itself_unless_its_depth_is_bounded():
    assert [key for key in _self_calling() if key not in RECURSIVE] == []


@pytest.mark.parametrize(
    "allowed, found",
    [(DIVISIONS, lambda: {(name, text) for name, _, text in _divisions()}), (RECURSIVE, _self_calling)],
    ids=["divisions", "recursive"],
)
def test_every_allowed_entry_is_still_there(allowed, found):
    assert set(allowed) <= set(found())
