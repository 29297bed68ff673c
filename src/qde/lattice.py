"""Pseudo-lattices in a real quadratic field and their endomorphism orders."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm

from .errors import DependentGeneratorsError, FieldMismatchError, InvariantError
from .quadratic import QuadraticIrrational, _check_int, _check_radicand, _field_discriminant

__all__ = [
    "QuadraticOrder",
    "PseudoLattice",
    "endomorphism_ring",
    "normalize_pseudolattice",
    "companion_tori",
]

Generator = Fraction | QuadraticIrrational


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


def _coords(gens) -> tuple[list[tuple[Fraction, Fraction]], int | None]:
    """Coordinates (u, v) of each generator u + v*sqrt(D), and the one shared D.

    A generator is an int (not a bool), a Fraction or a QuadraticIrrational.
    """
    D = None
    coords = []
    for g in gens:
        if isinstance(g, QuadraticIrrational):
            if D is not None and g.D != D:
                raise FieldMismatchError(f"generator in Q(sqrt({g.D})), expected Q(sqrt({D}))")
            D = g.D
            coords.append((Fraction(g.a, g.c), Fraction(g.b, g.c)))
        elif isinstance(g, (int, Fraction)) and not isinstance(g, bool):
            coords.append((Fraction(g), Fraction(0)))
        else:
            raise TypeError(
                f"a generator must be an int, Fraction or QuadraticIrrational, got {g!r}"
            )
    return coords, D


def _from_pair(u: Fraction, v: Fraction, D: int | None) -> Generator:
    if v == 0:
        return u
    den = lcm(u.denominator, v.denominator)
    return QuadraticIrrational.canonical(
        int(u * den), int(v * den), den, D
    )


def _div_pairs(u1, v1, u2, v2, D) -> tuple[Fraction, Fraction]:
    norm = u2 * u2 - v2 * v2 * D
    if norm == 0:
        raise ZeroDivisionError("division by zero field element")
    return (u1 * u2 - v1 * v2 * D) / norm, (v1 * u2 - u1 * v2) / norm


@dataclass(frozen=True)
class PseudoLattice:
    """Finitely generated subgroup of R spanned by generators in one field.

    Generators are ints, Fractions or QuadraticIrrationals (anything else is
    a TypeError), recorded in order; by convention generator 0 is 1.  The
    recorded generators must be Z-linearly independent, which for elements of
    a single quadratic field caps the rank at 2.
    """

    generators: tuple[Generator, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a pseudo-lattice needs at least one generator")
        coords, D = _coords(self.generators)
        rank = _coord_rank(coords)
        if rank != len(coords):
            raise DependentGeneratorsError(
                f"generators {self.generators} are Z-linearly dependent "
                f"(rank {rank} < {len(coords)})"
            )
        object.__setattr__(self, "_D", D)

    @property
    def D(self) -> int | None:
        """Radicand of the field the generators live in; None if all rational."""
        return self._D

    @property
    def rank(self) -> int:
        return len(self.generators)


def _coord_rank(coords: list[tuple[Fraction, Fraction]]) -> int:
    """Rank over Q of vectors in Q^2 (Z-independence equals Q-independence here)."""
    if any(u1 * v2 != u2 * v1 for (u1, v1), (u2, v2) in combinations(coords, 2)):
        return 2
    return 1 if any(c != (0, 0) for c in coords) else 0


def normalize_pseudolattice(gens) -> PseudoLattice:
    """Scale the generators so the leading one becomes 1.

    Every generator is divided exactly by the leading generator, which makes
    the result invariant under scaling the whole family by any nonzero field
    element and idempotent on already-normalized input.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("no generators given")
    coords, D = _coords(gens)
    u0, v0 = coords[0]
    if (u0, v0) == (0, 0):
        raise ZeroDivisionError("leading generator is zero, cannot scale by it")
    D_eff = D if D is not None else 2  # D unused when every v is zero
    scaled = [_div_pairs(u, v, u0, v0, D_eff) for u, v in coords]
    return PseudoLattice(tuple(_from_pair(u, v, D) for u, v in scaled))


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

    Each companion is the larger root (-b + sqrt(disc))/(2a) of the
    lexicographically least reduced form (a, b, c) with a > 0 in its class,
    so all companions share the endomorphism order and are pairwise
    inequivalent under GL(2, Z).  Ordered by the (a, b) of the chosen form.
    """
    from . import classgroup  # deferred: classgroup imports QuadraticOrder from here

    disc = order.discriminant
    return [
        QuadraticIrrational.canonical(-b, 1, 2 * a, disc)
        for a, b, _ in classgroup._class_data(disc).positive_forms()
    ]
