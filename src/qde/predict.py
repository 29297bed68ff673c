"""Rank and Shafarevich-Tate predictions attached to a quadratic irrational.

The predictions are functions of the endomorphism order alone: rank = h - 1,
Sha = Cl + Cl (so |Sha| = h**2), K0 rank = h + 1.  No claim is made about
which elliptic curve, if any, a given theta belongs to; the harness compares
only the numeric shape |Sha| = (1 + rank)**2 against curve data.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classgroup import AbelianGroupStructure, class_group_structure
from .errors import InvariantError
from .lattice import QuadraticOrder, endomorphism_ring
from .quadratic import QuadraticIrrational

__all__ = ["Prediction", "predict", "sha_doubling"]


@dataclass(frozen=True)
class Prediction:
    order: QuadraticOrder
    h_lambda: int
    rank: int
    sha_structure: AbelianGroupStructure
    sha_order: int
    k0_rank: int

    def __post_init__(self):
        if self.rank != self.h_lambda - 1:
            raise InvariantError(f"rank {self.rank} must be h - 1 = {self.h_lambda - 1}")
        if self.sha_order != self.h_lambda**2:
            raise InvariantError(
                f"|Sha| {self.sha_order} must be h**2 = {self.h_lambda ** 2}"
            )
        if self.sha_order != (1 + self.rank) ** 2:
            raise InvariantError(
                f"|Sha| {self.sha_order} must equal (1 + rank)**2 = {(1 + self.rank) ** 2}"
            )
        if self.sha_structure.order != self.sha_order:
            raise InvariantError("Sha structure order disagrees with |Sha|")
        if self.k0_rank != self.h_lambda + 1:
            raise InvariantError(f"K0 rank {self.k0_rank} must be h + 1")


def sha_doubling(cl: AbelianGroupStructure) -> AbelianGroupStructure:
    """Invariant factors of Cl + Cl, renormalized into a divisibility chain.

    >>> sha_doubling(AbelianGroupStructure((2, 4))).invariant_factors
    (2, 2, 4, 4)
    """
    return cl.direct_sum(cl)


def predict(theta: QuadraticIrrational, max_disc: int | None = None) -> Prediction:
    """Assemble the rank / Sha / K0 prediction for theta's endomorphism order."""
    order = endomorphism_ring(theta)
    cl = class_group_structure(order, max_disc=max_disc)
    h = cl.order
    sha = sha_doubling(cl)
    return Prediction(
        order=order,
        h_lambda=h,
        rank=h - 1,
        sha_structure=sha,
        sha_order=sha.order,
        k0_rank=h + 1,
    )
