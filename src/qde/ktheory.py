"""K-theory descriptors of the crossed product and a finite AF-algebra model.

The K0 group of the crossed product attached to a quadratic irrational theta
has rank h + 1, where h is the class number of the endomorphism order of
Z + theta*Z.  The trace image is generated by 1, theta and one symbolic
generator per nonprincipal ideal class; the generators carry labels only,
never fabricated numeric values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classgroup import (
    AbelianGroupStructure,
    BinaryQuadraticForm,
    _class_data,
    galois_group_Kab,
)
from .errors import InvariantError
from .lattice import QuadraticOrder, endomorphism_ring
from .quadratic import QuadraticIrrational

__all__ = [
    "KTheoryDescriptor",
    "FiniteGroupTower",
    "crossed_product_k0",
    "group_algebra_decomposition",
    "af_k0_truncated",
]


@dataclass(frozen=True)
class KTheoryDescriptor:
    """Shape of K0 of the crossed product attached to one quadratic irrational.

    trace_generators lists the labels [1, theta, lambda_1, ..., lambda_{h-1}];
    the final abstract generator is normalized to 1 and dropped, so the count
    equals k0_rank = h + 1.  lambda_classes pairs each lambda label with the
    nonprincipal ideal class it belongs to.
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
    galois = galois_group_Kab(order, max_disc=max_disc)
    h = galois.order
    data = _class_data(order.discriminant)
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


def group_algebra_decomposition(group: AbelianGroupStructure) -> tuple[int, ...]:
    """Matrix block dimensions of the complex group algebra of a finite abelian group.

    Abelian groups have |G| one-dimensional characters, so the algebra splits
    into |G| blocks of dimension 1.
    """
    return (1,) * group.order


@dataclass(frozen=True)
class FiniteGroupTower:
    """Ascending tower of finite abelian groups with explicit inclusion maps.

    inclusions[i] maps the canonical generators of levels[i] into
    levels[i+1]: one coefficient vector per generator, written in the
    invariant-factor coordinates of the next level.
    """

    levels: tuple[AbelianGroupStructure, ...]
    inclusions: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("a tower needs at least one level")
        if len(self.inclusions) != len(self.levels) - 1:
            raise ValueError("one inclusion map is needed per adjacent pair of levels")
        for i, images in enumerate(self.inclusions):
            src = self.levels[i].invariant_factors
            dst = self.levels[i + 1].invariant_factors
            if len(images) != len(src):
                raise ValueError(f"inclusion {i} must map every generator of level {i}")
            for gen, image in zip(src, images):
                if len(image) != len(dst):
                    raise ValueError(
                        f"inclusion {i}: image vectors need {len(dst)} coordinates"
                    )
                if any(gen * v % d for v, d in zip(image, dst)):
                    raise ValueError(
                        f"inclusion {i}: the image of an order-{gen} generator "
                        f"must have order dividing {gen}"
                    )


def _subgroup_order(images, moduli) -> int:
    if not moduli:
        return 1
    zero = (0,) * len(moduli)
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for img in images:
            nxt = tuple((x + y) % d for x, y, d in zip(cur, img, moduli))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


def af_k0_truncated(tower: FiniteGroupTower) -> AbelianGroupStructure:
    """K0 of the finite truncation of the AF-algebra built from the tower.

    For an injective tower of finite abelian groups the direct limit at finite
    depth is simply the top level; each inclusion is certified injective by
    comparing the image subgroup order with the source order.
    """
    for i, images in enumerate(tower.inclusions):
        src = tower.levels[i]
        dst = tower.levels[i + 1].invariant_factors
        image_order = _subgroup_order(images, dst)
        if image_order != src.order:
            raise InvariantError(
                f"inclusion {i} is not injective: image order {image_order} "
                f"< source order {src.order}"
            )
    return tower.levels[-1]
