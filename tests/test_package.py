"""The package namespace: each module's ``__all__``, re-exported as the same objects.

Every public name has a caller: the library, its CLI or the acceptance
tests read it, unless ``UNCALLED`` names the planned work that will.
"""

import ast
import importlib
from pathlib import Path

import pytest

import cdindex

MODULES = ("ncpoly", "digraph", "alexander", "qsym", "coxeter", "construct")

LIBRARY = sorted(Path(cdindex.__file__).resolve().parent.glob("*.py"))
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")

# public names nothing calls yet, each with the ROADMAP item that will
UNCALLED = {
    "bruhat_leq": "items 6 and 24c",
    "cartesian_product": "item 11",
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
        "MAX_SWEEP_INTERIOR", "M_in_L", "NegativeCoefficient", "NoPath", "NotInSpan",
        "PairsRelation", "ParityResult", "Permutation", "PreconditionFailed", "QSymElement",
        "RestrictedDigraph", "SearchReport", "TensorPoly", "TensorSquare", "Unbounded",
        "UnknownLabel", "ZeroPolynomial", "ab_to_cd", "alexander_check", "alexander_sweep",
        "bruhat_graph_sn", "bruhat_leq", "butterfly", "cartesian_product", "cd_expand",
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
