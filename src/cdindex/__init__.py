"""Exact invariants of labeled acyclic digraphs.

The package computes ab/cd-indexes and balance certificates for labeled
acyclic multidigraphs, restricted digraphs with their Alexander duality
identity, rising and falling quasisymmetric functions with peak-algebra
membership, Bruhat graphs of symmetric and dihedral groups with their
R-polynomials, and realizations of nonnegative cd-polynomials as balanced
linearly labeled digraphs.  Every computation uses exact integer
arithmetic.
"""

from .ncpoly import (
    AbPoly,
    CdPoly,
    IntPoly,
    NotInSpan,
    TensorPoly,
    ab_to_cd,
    apply_kappa,
    apply_lambda,
    bar,
    cd_expand,
    cd_word_cmp,
    coproduct,
    kappa_counit_check,
    lambda_counit_check,
    parse_ab,
    parse_cd,
    star,
)
from .digraph import (
    BalanceReport,
    CycleDetected,
    DanglingVertex,
    GraphError,
    InternalError,
    LabeledDigraph,
    LinearRelation,
    NoPath,
    PairsRelation,
    Unbounded,
    UnknownLabel,
    cartesian_product,
    dual,
    from_json_dict,
    load_graph,
    stanley_product,
    to_json_dict,
)
from .alexander import (
    PreconditionFailed,
    RestrictedDigraph,
    alexander_check,
    parity_condition,
    restrict,
    signed_path_sums,
)
from .qsym import (
    QSymElement,
    QSymTensor,
    F_falling,
    F_rising,
    antipode,
    complement,
    gamma,
    gamma_inverse,
    multichain_specialization,
    omega,
    peak_membership,
    qsym_coproduct,
    sigma_leq,
)
from .coxeter import (
    BruhatGraph,
    Permutation,
    bruhat_graph_sn,
    dihedral_bruhat_graph,
    dihedral_graph,
    reflection_order_validate,
)
from .construct import (
    butterfly,
    conjecture_search,
    d_join,
    glue_sum,
    realize,
)

__version__ = "0.1.0"
