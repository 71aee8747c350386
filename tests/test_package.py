"""The package namespace: each module's ``__all__``, re-exported as the same objects.

Every public name has a caller: the library, its CLI or the acceptance
tests read it, unless ``UNCALLED`` names the planned work that will.
Every public member of a public class is read too: by the library, the
acceptance tests or the benchmark, unless ``UNREAD`` names the planned
work that will.
"""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import cdindex
from cdindex import cli

MODULES = ("ncpoly", "digraph", "alexander", "qsym", "coxeter", "construct")

LIBRARY = sorted(Path(cdindex.__file__).resolve().parent.glob("*.py"))
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
BENCH = sorted(Path(__file__).resolve().parent.parent.joinpath("bench").glob("*.py"))

# public names nothing calls yet, each with the ROADMAP item that will
UNCALLED = {
    "bruhat_leq": "items 6 and 24c",
    "cartesian_product": "item 11",
}

# public members nothing reads yet, each with the ROADMAP item that will
UNREAD = {
    "Permutation.swap": "items 6 and 24c",
}


def _bound(stmt) -> set:
    """The names a top-level statement defines: its def, class or assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}
    return set()


def _statements() -> list:
    """(names defined, names read, is a root) of each top-level statement.

    Roots are the acceptance tests and the library's statements that
    define nothing, such as the CLI's ``__main__`` guard.  Docstrings,
    comments, imports and the strings of ``__all__`` read no name, and a
    statement does not read the names it defines or binds inside, as
    assignment targets or parameters.
    """
    statements = []
    for path in [*LIBRARY, ACCEPTANCE]:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            nodes = list(ast.walk(stmt))
            names = [node for node in nodes if isinstance(node, ast.Name)]
            local = {node.id for node in names if isinstance(node.ctx, ast.Store)}
            local |= {node.arg for node in nodes if isinstance(node, ast.arg)}
            read = {node.id for node in names} - local
            read |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            bound = _bound(stmt)
            statements.append((bound, read - bound, path == ACCEPTANCE or not bound))
    return statements


def _called() -> set:
    """The names read by a root or by a statement defining a name read so far.

    So a public name that only uncalled code reads, such as a public
    function read only by another, is not called.
    """
    called, pending = set(), _statements()
    while reached := [s for s in pending if s[2] or s[0] & called]:
        for _, read, _ in reached:
            called |= read
        pending = [s for s in pending if s not in reached]
    return called


def _members() -> list:
    """``Class.member`` for each public member of a class in ``cdindex.__all__``.

    A member is a method, property or class attribute defined on the class
    itself; private names, dunders and NamedTuple or dataclass fields are
    not members.
    """
    members = []
    for name in cdindex.__all__:
        cls = getattr(cdindex, name)
        if not isinstance(cls, type):
            continue
        fields = set(getattr(cls, "_fields", ()))
        if dataclasses.is_dataclass(cls):
            fields |= {f.name for f in dataclasses.fields(cls)}
        members += [f"{name}.{m}" for m in vars(cls) if not m.startswith("_") and m not in fields]
    return members


def _read_members() -> set:
    """The member names read, bare or as ``Class.member``.

    An attribute anywhere in the library, the acceptance tests or
    ``bench/*.py`` reads its bare name, a bench span target such as
    ``"cdindex.digraph:LabeledDigraph.ab_index"`` reads its
    ``Class.member``, and the ``bruhat`` command reads the method names
    it passes to ``getattr``.
    """
    read = set(cli._BRUHAT_VALUES.values())
    for path in [*LIBRARY, ACCEPTANCE, *BENCH]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if target := re.fullmatch(r"cdindex\.\w+:(\w+\.\w+)", node.value):
                    read.add(target[1])
    return read


def _unread_members() -> list:
    read = _read_members()
    return [m for m in _members() if m not in read and m.split(".")[1] not in read]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_is_bound_in_the_package(name):
    module = importlib.import_module(f"cdindex.{name}")
    for public in module.__all__:
        assert getattr(cdindex, public) is getattr(module, public), public


def test_package_all_is_the_concatenation_without_duplicates():
    names = [public for name in MODULES for public in importlib.import_module(f"cdindex.{name}").__all__]
    assert cdindex.__all__ == names
    assert len(set(names)) == len(names)


def test_public_names_are_pinned():
    # adding or removing a public name is an API change: edit this list with it
    assert sorted(cdindex.__all__) == [
        "AbPoly", "AlexanderResult", "BalanceEquivalenceReport", "BalanceReport", "BalanceWitness",
        "BruhatGraph", "CdPoly", "Counterexample", "CycleDetected", "DEFAULT_MAX_N",
        "DanglingVertex", "Edge", "F_falling", "F_rising", "FreeModule", "GraphError",
        "HalfPowerResidue", "IntPoly", "InternalError", "LabeledDigraph", "LinearRelation",
        "MAX_CHECK_AB_WORDS", "MAX_M", "MAX_M_TERMS", "MAX_REALIZE_EDGES", "MAX_SEARCH_VERTICES",
        "MAX_SWEEP_INTERIOR", "NegativeCoefficient", "NoPath", "NotInSpan",
        "PairsRelation", "ParityResult", "Permutation", "PreconditionFailed", "QSymElement",
        "RestrictedDigraph", "SearchReport", "TensorPoly", "TensorSquare", "Unbounded",
        "UnknownLabel", "ZeroPolynomial", "ab_to_cd", "alexander_check", "alexander_sweep",
        "bruhat_graph_sn", "bruhat_leq", "butterfly", "cartesian_product",
        "cd_sort_key", "cd_word_degree", "cd_words_of_degree", "conjecture_search", "coproduct",
        "d_join", "dihedral_bruhat_graph", "dihedral_cover_interval", "dihedral_graph",
        "from_json_dict", "gamma", "gamma_inverse", "glue_sum", "load_graph", "omega",
        "parity_condition", "parse_cd", "parse_permutation", "peak_membership",
        "random_labeled_dag", "realize", "reflection_order_validate", "restrict",
        "sigma_involution", "stanley_product", "to_json_dict", "transpositions",
    ]


def test_every_public_name_has_a_caller():
    called = _called()
    assert [name for name in cdindex.__all__ if name not in called and name not in UNCALLED] == []


def test_every_uncalled_entry_is_still_uncalled():
    called = _called()
    assert {name for name in UNCALLED if name in cdindex.__all__ and name not in called} == set(UNCALLED)


def test_every_public_member_is_read():
    assert [member for member in _unread_members() if member not in UNREAD] == []


def test_every_unread_entry_is_still_unread():
    assert {member for member in _unread_members() if member in UNREAD} == set(UNREAD)
