"""Exact cluster mutation and categorification data for the quiver types
H4, H3 and I2(2n+1), through weighted unfoldings of E8, D6 and A_{2n}."""

from .chebring import (
    AlgReal,
    ChebElem,
    cheb_mul,
    equal_in_evaluation,
    minimal_poly,
    reg_rep,
    rho,
    semiring_leq,
    sigma,
)
from .clustercat import ClusterCategory
from .exchange import ExchangeMatrix, RQuiver, from_quiver, to_quiver
from .repcat import ARQuiver, FoldedCategory, IndecClass
from .rootsys import RootSet, e_F, e_F_float, generate_roots, root_system
from .tropical import GMatrix, Seed, TropicalWalker, enumerate_seeds, g_matrix
from .unfolding import (
    FoldingSpec,
    build_unfolded_matrix,
    check_conditions,
    check_weighted_unfolding,
    standard_folding,
)

__all__ = [
    "AlgReal",
    "ARQuiver",
    "ChebElem",
    "ClusterCategory",
    "ExchangeMatrix",
    "FoldedCategory",
    "FoldingSpec",
    "GMatrix",
    "IndecClass",
    "RootSet",
    "RQuiver",
    "Seed",
    "TropicalWalker",
    "build_unfolded_matrix",
    "cheb_mul",
    "check_conditions",
    "check_weighted_unfolding",
    "e_F",
    "e_F_float",
    "enumerate_seeds",
    "equal_in_evaluation",
    "from_quiver",
    "g_matrix",
    "generate_roots",
    "minimal_poly",
    "reg_rep",
    "rho",
    "root_system",
    "semiring_leq",
    "sigma",
    "standard_folding",
    "to_quiver",
]

__version__ = "0.1.0"
