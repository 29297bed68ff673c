import pytest
from sympy import Symbol, minimal_polynomial, sqrt

from oracles import order_parameters
from qde.classgroup import class_number_order
from qde.lattice import QuadraticOrder, companion_tori, endomorphism_ring
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
