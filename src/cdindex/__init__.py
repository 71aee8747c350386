"""Exact invariants of labeled acyclic digraphs.

The package computes ab/cd-indexes and balance certificates for labeled
acyclic multidigraphs, restricted digraphs with their Alexander duality
identity, rising and falling quasisymmetric functions with peak-algebra
membership, Bruhat graphs of symmetric and dihedral groups with their
R-polynomials, and realizations of nonnegative cd-polynomials as balanced
linearly labeled digraphs.  Every computation uses exact integer
arithmetic.

Each module's ``__all__`` is its list of public names, and the package
re-exports them all: ``cdindex.__all__`` is their concatenation.
"""

from .ncpoly import *
from .digraph import *
from .alexander import *
from .qsym import *
from .coxeter import *
from .construct import *
from . import alexander, construct, coxeter, digraph, ncpoly, qsym

__all__ = [
    name
    for module in (ncpoly, digraph, alexander, qsym, coxeter, construct)
    for name in module.__all__
]

__version__ = "0.1.0"
