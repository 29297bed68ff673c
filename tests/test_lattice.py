from fractions import Fraction

import pytest
from sympy import Symbol, minimal_polynomial, sqrt

from oracles import order_parameters
from qde.classgroup import class_number_order
from qde.errors import DependentGeneratorsError, FieldMismatchError
from qde.lattice import (
    PseudoLattice,
    QuadraticOrder,
    companion_tori,
    endomorphism_ring,
    normalize_pseudolattice,
)
from qde.quadratic import QuadraticIrrational, gl2z_equivalent, parse_theta
from conftest import random_theta


def _sympy_min_poly(theta: QuadraticIrrational):
    x = Symbol("x")
    poly = minimal_polynomial(
        (theta.a + theta.b * sqrt(theta.D)) / theta.c, x, polys=True
    )
    coeffs = [int(c) for c in poly.all_coeffs()]
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# orders and endomorphism rings
# ---------------------------------------------------------------------------


def test_order_validation_and_discriminant():
    assert QuadraticOrder(5, 1).discriminant == 5
    assert QuadraticOrder(5, 2).discriminant == 20
    assert QuadraticOrder(2, 1).discriminant == 8
    assert QuadraticOrder(10, 1).discriminant == 40
    with pytest.raises(ValueError):
        QuadraticOrder(8, 1)  # not squarefree
    with pytest.raises(ValueError):
        QuadraticOrder(5, 0)


@pytest.mark.parametrize(
    "text,D,f,minpoly",
    [
        ("(1+sqrt(5))/2", 5, 1, (1, -1, -1)),
        ("sqrt(8)", 2, 2, (1, 0, -8)),
        ("sqrt(2)", 2, 1, (1, 0, -2)),
    ],
)
def test_endomorphism_ring_spot_values(text, D, f, minpoly):
    theta = parse_theta(text)
    assert _sympy_min_poly(theta) == minpoly  # oracle for the minimal polynomial
    assert theta.minimal_polynomial() == minpoly
    order = endomorphism_ring(theta)
    assert (order.D, order.f) == (D, f)


def test_endomorphism_ring_matches_sympy_minpoly(rng):
    for _ in range(40):
        theta = random_theta(rng)
        assert theta.minimal_polynomial() == _sympy_min_poly(theta)
        order = endomorphism_ring(theta)
        assert order.discriminant == theta.discriminant()
        assert order.D == theta.D


# ---------------------------------------------------------------------------
# pseudo-lattices
# ---------------------------------------------------------------------------


def test_normalize_divides_by_leading_generator():
    theta = parse_theta("(1+sqrt(5))/2")
    theta_sq = theta.mobius(1, 1, 0, 1)  # theta^2 = theta + 1
    assert normalize_pseudolattice([theta, theta_sq]).generators == (
        Fraction(1),
        theta,
    )
    two_theta = theta.mobius(2, 0, 0, 1)
    assert normalize_pseudolattice([2, two_theta]).generators == (Fraction(1), theta)


def test_normalize_rejects_dependence():
    theta = parse_theta("(1+sqrt(5))/2")
    one_plus = theta.mobius(1, 1, 0, 1)
    with pytest.raises(DependentGeneratorsError):
        normalize_pseudolattice([1, theta, one_plus])  # 1 + theta in Z + theta*Z


def test_normalize_rejects_zero_leading_generator():
    with pytest.raises(ZeroDivisionError):
        normalize_pseudolattice([0, parse_theta("sqrt(2)")])


def test_normalize_idempotent_and_scale_invariant(rng):
    for _ in range(30):
        theta = random_theta(rng)
        lattice = normalize_pseudolattice([1, theta])
        assert normalize_pseudolattice(lattice.generators) == lattice
        raw = random_theta(rng, d_limit=50)
        scale = QuadraticIrrational.canonical(raw.a, raw.b, raw.c, theta.D)
        scaled = [scale, _field_mul(scale, theta)]
        assert normalize_pseudolattice(scaled) == lattice


def _field_mul(x: QuadraticIrrational, y: QuadraticIrrational):
    # (x.a + x.b s)(y.a + y.b s) / (x.c y.c) with s = sqrt(D); may be rational
    num_rat = x.a * y.a + x.b * y.b * x.D
    num_rad = x.a * y.b + x.b * y.a
    if num_rad == 0:
        return Fraction(num_rat, x.c * y.c)
    return QuadraticIrrational.canonical(num_rat, num_rad, x.c * y.c, x.D)


def test_pseudolattice_validation():
    theta = parse_theta("sqrt(7)")
    assert PseudoLattice((Fraction(1), theta)).rank == 2
    assert PseudoLattice((Fraction(1),)).D is None
    with pytest.raises(DependentGeneratorsError):
        PseudoLattice((Fraction(1), Fraction(2)))
    with pytest.raises(DependentGeneratorsError):
        PseudoLattice((Fraction(1), theta, theta.mobius(1, 1, 0, 1)))
    with pytest.raises(FieldMismatchError):
        PseudoLattice((parse_theta("sqrt(2)"), parse_theta("sqrt(3)")))


def test_pseudolattice_rank_counts_every_pair_of_generators():
    # the independent pair is the first and third generator
    with pytest.raises(DependentGeneratorsError, match=r"rank 2 < 3"):
        PseudoLattice((Fraction(1), Fraction(0), parse_theta("sqrt(2)")))


@pytest.mark.parametrize("bad", [0.1, "3", True])
def test_pseudolattice_generators_are_ints_fractions_or_quadratic_irrationals(bad):
    # a float used to enter exact arithmetic through its binary expansion
    # (b=36028797018963968 for 0.1), and a str was stored as a generator
    theta = parse_theta("sqrt(2)")
    with pytest.raises(TypeError):
        normalize_pseudolattice([bad, theta])
    with pytest.raises(TypeError):
        PseudoLattice((bad, theta))
    with pytest.raises(TypeError):
        PseudoLattice((Fraction(1), bad))


# ---------------------------------------------------------------------------
# companion tori
# ---------------------------------------------------------------------------


def test_companions_for_class_number_one():
    assert companion_tori(QuadraticOrder(5, 1)) == [parse_theta("(-1+sqrt(5))/2")]
    assert companion_tori(QuadraticOrder(2, 1)) == [parse_theta("-1+sqrt(2)")]


def test_companions_for_d10():
    tori = companion_tori(QuadraticOrder(10, 1))
    assert len(tori) == 2
    assert not gl2z_equivalent(tori[0], tori[1])


def test_companions_share_the_order_and_are_inequivalent():
    for D, f in order_parameters(300):
        order = QuadraticOrder(D, f)
        tori = companion_tori(order)
        assert len(tori) == class_number_order(order)
        for theta in tori:
            assert endomorphism_ring(theta) == order
        for i in range(len(tori)):
            for j in range(i + 1, len(tori)):
                assert not gl2z_equivalent(tori[i], tori[j])


def test_companions_are_algebraic_integers_after_denominator_scaling():
    for D, f in order_parameters(200):
        for theta in companion_tori(QuadraticOrder(D, f)):
            scaled = theta.mobius(theta.c, 0, 0, 1)
            assert scaled.minimal_polynomial()[0] == 1  # monic: algebraic integer
