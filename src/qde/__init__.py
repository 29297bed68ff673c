"""Exact arithmetic for real quadratic irrationals and related invariants.

The package computes, entirely in exact integer arithmetic: canonical forms
and periodic continued fractions of real quadratic irrationals, fundamental
units, endomorphism orders of Z + theta*Z, class numbers and class groups of
real quadratic orders, K0 descriptors of the associated crossed products,
rank and Shafarevich-Tate predictions, and a validation harness that checks
curve data against |Sha| = (1 + rank)**2.
"""

from .classgroup import (
    DEFAULT_MAX_DISC,
    AbelianGroupStructure,
    BinaryQuadraticForm,
    class_group_structure,
    class_number_maximal,
    class_number_order,
    compose,
    reduce_cycle,
    unit_index,
)
from .errors import (
    CurveDataError,
    DiscriminantBoundError,
    FieldMismatchError,
    InvariantError,
    ParseError,
    QdeError,
    RationalValueError,
)
from .harness import CurveRecord, ValidationReport, parse_curves, validate
from .ktheory import KTheoryDescriptor, crossed_product_k0
from .lattice import QuadraticOrder, companion_tori, endomorphism_ring
from .predict import Prediction, predict, sha_doubling
from .quadratic import (
    ContinuedFraction,
    QuadraticInteger,
    QuadraticIrrational,
    cf_expand,
    cf_value,
    fundamental_unit,
    gl2z_equivalent,
    kronecker,
    parse_theta,
    squarefree_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupStructure",
    "BinaryQuadraticForm",
    "ContinuedFraction",
    "CurveDataError",
    "CurveRecord",
    "DEFAULT_MAX_DISC",
    "DiscriminantBoundError",
    "FieldMismatchError",
    "InvariantError",
    "KTheoryDescriptor",
    "ParseError",
    "Prediction",
    "QdeError",
    "QuadraticInteger",
    "QuadraticIrrational",
    "QuadraticOrder",
    "RationalValueError",
    "ValidationReport",
    "cf_expand",
    "cf_value",
    "class_group_structure",
    "class_number_maximal",
    "class_number_order",
    "companion_tori",
    "compose",
    "crossed_product_k0",
    "endomorphism_ring",
    "fundamental_unit",
    "gl2z_equivalent",
    "kronecker",
    "parse_curves",
    "parse_theta",
    "predict",
    "reduce_cycle",
    "sha_doubling",
    "squarefree_decompose",
    "unit_index",
    "validate",
]
