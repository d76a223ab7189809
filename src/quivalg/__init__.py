"""Exact workbench for monomial bound quiver algebras.

Computes dominant dimension via minimal injective coresolutions, detects
Nakayama and QF-2 structure, builds endomorphism algebras of
generator-cogenerators over Nakayama algebras, and verifies the
classification of monomial algebras with the double centraliser property
exhaustively on bounded corpora.
"""

__version__ = "0.1.0"

from .errors import (
    AlgebraParseError,
    BadRelationError,
    DisconnectedQuiverError,
    DomDimZeroError,
    InvalidKupischError,
    NotAdmissibleError,
    NotBasicError,
    NotLocalError,
    NotNakayamaError,
    QuivalgError,
    UniserialLengthError,
    ZeroModuleError,
)
from .quiver import Arrow, Path, Quiver, QuiverShape, compose, is_connected, shape_classify
from .monomial import MonomialAlgebra, build
from .homological import (
    DomDim,
    base_algebra,
    dominant_dimension,
    double_centralizer_check,
    injective_coresolution,
    is_selfinjective,
    minimal_faithful_proj_inj,
    projective_injective_vertices,
)
from .nakayama import (
    KupischSeries,
    algebra_to_kupisch,
    enumerate_kupisch,
    is_selfinjective_kupisch,
    kupisch_to_algebra,
    parse_kupisch,
    uniserial_module,
)
from .endo import (
    BasicAlgebra,
    endomorphism_algebra,
    gabriel_quiver,
    is_nakayama_algebra,
    is_qf2_algebra,
    kupisch_of_endo,
)
from .enumeration import CorpusBounds, canonical_form, enumerate_monomial_algebras

__all__ = [
    "AlgebraParseError",
    "Arrow",
    "BadRelationError",
    "BasicAlgebra",
    "CorpusBounds",
    "DisconnectedQuiverError",
    "DomDim",
    "DomDimZeroError",
    "InvalidKupischError",
    "KupischSeries",
    "MonomialAlgebra",
    "NotAdmissibleError",
    "NotBasicError",
    "NotLocalError",
    "NotNakayamaError",
    "Path",
    "Quiver",
    "QuiverShape",
    "QuivalgError",
    "UniserialLengthError",
    "ZeroModuleError",
    "algebra_to_kupisch",
    "base_algebra",
    "build",
    "canonical_form",
    "compose",
    "dominant_dimension",
    "double_centralizer_check",
    "endomorphism_algebra",
    "enumerate_kupisch",
    "enumerate_monomial_algebras",
    "gabriel_quiver",
    "injective_coresolution",
    "is_connected",
    "is_nakayama_algebra",
    "is_qf2_algebra",
    "is_selfinjective",
    "is_selfinjective_kupisch",
    "kupisch_of_endo",
    "kupisch_to_algebra",
    "minimal_faithful_proj_inj",
    "parse_kupisch",
    "projective_injective_vertices",
    "shape_classify",
    "uniserial_module",
    "__version__",
]
