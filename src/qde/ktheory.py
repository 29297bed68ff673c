"""K-theory descriptors of the crossed product.

The K0 group of the crossed product attached to a quadratic irrational theta
has rank h + 1, where h is the class number of the endomorphism order of
Z + theta*Z.  The trace image is generated by 1, theta and one symbolic
generator per nonprincipal ideal class; the generators carry labels only,
never fabricated numeric values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classgroup import AbelianGroupStructure, BinaryQuadraticForm, _class_group
from .lattice import QuadraticOrder, endomorphism_ring
from .quadratic import QuadraticIrrational

__all__ = ["KTheoryDescriptor", "crossed_product_k0"]


@dataclass(frozen=True)
class KTheoryDescriptor:
    """Shape of K0 of the crossed product attached to one quadratic irrational.

    trace_generators lists the labels [1, theta, lambda_1, ..., lambda_{h-1}];
    the final abstract generator is normalized to 1 and dropped, so the count
    equals k0_rank = h + 1.  lambda_classes pairs each lambda label with the
    nonprincipal ideal class it belongs to, named by its least reduced form
    (a, b, c) with a > 0: lambda_i is the class of companion_tori(order)[i],
    the larger root of that form.
    """

    theta: QuadraticIrrational
    order: QuadraticOrder
    k0_rank: int
    trace_generators: tuple[str, ...]
    lambda_classes: tuple[BinaryQuadraticForm, ...]
    galois_group: AbelianGroupStructure

    def __post_init__(self):
        h = self.galois_group.order
        if self.k0_rank != h + 1:
            raise ValueError(f"k0_rank {self.k0_rank} must equal |Galois| + 1 = {h + 1}")
        if len(self.trace_generators) != self.k0_rank:
            raise ValueError("one trace generator per K0 rank is required")
        if len(self.lambda_classes) != h - 1:
            raise ValueError("lambda labels must biject with nonprincipal classes")
        if len(set(self.lambda_classes)) != len(self.lambda_classes):
            raise ValueError("lambda class tags must be pairwise distinct")


def crossed_product_k0(
    theta: QuadraticIrrational, max_disc: int | None = None
) -> KTheoryDescriptor:
    """K0 descriptor of the crossed product for the given theta."""
    order = endomorphism_ring(theta)
    data = _class_group(order, max_disc)
    galois = data.structure
    h = galois.order
    lambda_forms = tuple(
        BinaryQuadraticForm(*rep) for rep in data.classes if rep != data.identity
    )
    labels = ("1", "theta") + tuple(f"lambda_{i}" for i in range(1, h))
    return KTheoryDescriptor(
        theta=theta,
        order=order,
        k0_rank=h + 1,
        trace_generators=labels,
        lambda_classes=lambda_forms,
        galois_group=galois,
    )

