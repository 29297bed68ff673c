"""Real quadratic orders: the endomorphism order of Z + theta*Z and its companion tori."""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import InvariantError
from .quadratic import QuadraticIrrational, _check_int, _check_radicand, _field_discriminant

__all__ = ["QuadraticOrder", "endomorphism_ring", "companion_tori"]


@dataclass(frozen=True)
class QuadraticOrder:
    """The order Z + f*O_k of conductor f in the real quadratic field Q(sqrt(D))."""

    D: int
    f: int

    def __post_init__(self):
        _check_radicand(self.D)
        _check_int("conductor", self.f)
        if self.f < 1:
            raise ValueError(f"conductor must be >= 1, got {self.f}")

    @property
    def field_discriminant(self) -> int:
        return _field_discriminant(self.D)

    @property
    def discriminant(self) -> int:
        return self.f * self.f * self.field_discriminant

    def __str__(self) -> str:
        return f"Z + {self.f}*O_Q(sqrt({self.D}))" if self.f > 1 else f"O_Q(sqrt({self.D}))"


def endomorphism_ring(theta: QuadraticIrrational) -> QuadraticOrder:
    """The order End(Z + theta*Z), read off the minimal polynomial of theta.

    The discriminant of the primitive minimal polynomial factors as
    f**2 * d_K, which pins down the conductor.
    """
    disc = theta.discriminant()
    d_K = _field_discriminant(theta.D)
    f2, rem = divmod(disc, d_K)
    if rem:
        raise InvariantError(f"discriminant {disc} is not a multiple of d_K = {d_K}")
    f = isqrt(f2)
    if f * f != f2:
        raise InvariantError(f"discriminant ratio {f2} is not a perfect square")
    return QuadraticOrder(theta.D, f)


def companion_tori(order: QuadraticOrder) -> list[QuadraticIrrational]:
    """One quadratic irrational per ideal class of the order.

    Each companion is the larger root (-b + sqrt(disc))/(2a) of the form
    (a, b, c) that names its wide class: the lexicographically least reduced
    form with a > 0.  So all companions share the endomorphism order and are
    pairwise inequivalent under GL(2, Z).  They come in the order of the
    class names, the principal class first, so companion i >= 1 is the class
    of crossed_product_k0's lambda_i.
    """
    from . import classgroup  # deferred: classgroup imports QuadraticOrder from here

    disc = order.discriminant
    return [
        QuadraticIrrational.canonical(-b, 1, 2 * a, disc)
        for a, b, _ in classgroup._class_data(disc).classes
    ]
