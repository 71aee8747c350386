"""The package namespace: each module's ``__all__``, re-exported as the same objects."""

import importlib

import pytest

import cdindex

MODULES = ("ncpoly", "digraph", "alexander", "qsym", "coxeter", "construct")


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
        "BruhatGraph", "CdPoly", "Composition", "Counterexample", "CycleDetected", "DEFAULT_MAX_N",
        "DanglingVertex", "Edge", "F_falling", "F_rising", "FreeModule", "GraphError", "HalfPowerResidue",
        "IntPoly", "InternalError", "LabeledDigraph", "LinearRelation", "MAX_CHECK_AB_WORDS", "MAX_M",
        "MAX_M_TERMS", "MAX_REALIZE_EDGES", "MAX_SEARCH_VERTICES", "MAX_SWEEP_INTERIOR", "M_in_L",
        "NegativeCoefficient", "NoPath", "NotInSpan", "PairsRelation", "ParityResult", "Permutation",
        "PreconditionFailed", "QSymElement", "QSymTensor", "RestrictedDigraph", "SearchReport", "TensorPoly",
        "TensorSquare", "Unbounded", "UnknownLabel", "ZeroPolynomial", "ab_to_cd", "alexander_check",
        "alexander_sweep", "antipode", "bar", "bruhat_graph_sn", "bruhat_leq", "butterfly",
        "cartesian_product", "cd_expand", "cd_sort_key", "cd_word_degree", "cd_words_of_degree",
        "complement", "composition_from_descents", "compositions", "conjecture_search", "coproduct",
        "d_join", "dihedral_bruhat_graph", "dihedral_cover_interval", "dihedral_graph",
        "from_json_dict", "gamma", "gamma_inverse", "glue_sum", "load_graph", "omega", "parity_condition",
        "parse_ab", "parse_cd", "parse_permutation", "peak_membership", "qsym_coproduct",
        "random_labeled_dag", "realize", "reflection_order_validate", "restrict", "sigma_involution",
        "stanley_product", "star", "to_json_dict", "transpositions",
    ]
