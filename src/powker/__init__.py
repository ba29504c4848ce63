"""powker: exact mod-p kernels of the total power operation on F_p[t, x],
Hom-dimension tables along the flag filtration, and torsion rank bounds."""

from ._version import __version__
from .errors import ConsistencyError
from .ffpoly import BiPoly, PrimeModulus, binom_mod
from .steenrod import Parameters, h_poly, parameters, total_power
from .reps import Representation, f_of, filtration_rep, r_poly
from .homspace import (
    FpMatrix,
    HomProblem,
    HomSpace,
    contains,
    div_r_shift,
    family_element,
    hom_space,
    kernel_dim,
    ma_space,
    mul_r_shift,
    verify_k_lemma,
    verify_qr_identity,
    verify_substitution_identity,
)
from .bounds import (
    ORDER_STATEMENT,
    FiltrationRow,
    FiltrationTable,
    RankReport,
    SweepReport,
    SweepRow,
    filtration_table,
    pre_filtration_dims,
    rank_report,
    sweep,
)

__all__ = [
    "__version__",
    "ConsistencyError",
    "PrimeModulus",
    "BiPoly",
    "binom_mod",
    "total_power",
    "Parameters",
    "parameters",
    "h_poly",
    "Representation",
    "f_of",
    "r_poly",
    "filtration_rep",
    "HomProblem",
    "HomSpace",
    "FpMatrix",
    "hom_space",
    "kernel_dim",
    "ma_space",
    "family_element",
    "contains",
    "mul_r_shift",
    "div_r_shift",
    "verify_qr_identity",
    "verify_substitution_identity",
    "verify_k_lemma",
    "FiltrationRow",
    "FiltrationTable",
    "RankReport",
    "SweepRow",
    "SweepReport",
    "filtration_table",
    "pre_filtration_dims",
    "rank_report",
    "sweep",
    "ORDER_STATEMENT",
]
