import time

import pytest

from oracles import merge_chains_reference, order_parameters
from qde.classgroup import AbelianGroupStructure, class_group_structure
from qde.errors import InvariantError
from qde.lattice import QuadraticOrder, companion_tori
from qde.predict import Prediction, predict, sha_doubling
from qde.quadratic import parse_theta


def test_predict_rank_zero():
    p = predict(parse_theta("(1+sqrt(5))/2"))
    assert p.rank == 0
    assert p.sha_structure == AbelianGroupStructure(())
    assert p.sha_order == 1
    assert p.k0_rank == 2


def test_predict_sqrt10():
    p = predict(parse_theta("sqrt(10)"))
    assert p.rank == 1
    assert p.sha_structure == AbelianGroupStructure((2, 2))
    assert p.sha_order == 4
    assert p.k0_rank == 3


def test_class_number_one_gives_trivial_sha():
    for text in ("(1+sqrt(5))/2", "sqrt(2)", "sqrt(8)", "(1+sqrt(13))/2"):
        p = predict(parse_theta(text))
        if p.h_lambda == 1:
            assert p.sha_order == (1 + 0) ** 2 == 1


@pytest.mark.parametrize(
    "chain,doubled",
    [((), ()), ((2,), (2, 2)), ((2, 4), (2, 2, 4, 4)), ((12,), (12, 12))],
)
def test_sha_doubling(chain, doubled):
    assert merge_chains_reference(chain, chain) == doubled  # oracle first
    assert sha_doubling(AbelianGroupStructure(chain)).invariant_factors == doubled


def test_sha_doubling_of_large_factors_factors_nothing():
    # n has two prime factors near 10^12, which Pollard rho took about 2 s to
    # split when the direct sum was merged prime by prime
    n = 1000000000039 * 3000000000013
    start = time.perf_counter()
    doubled = sha_doubling(AbelianGroupStructure((2, 2 * n)))
    assert time.perf_counter() - start < 0.1
    assert doubled.invariant_factors == (2, 2, 2 * n, 2 * n)


def test_sha_doubling_squares_the_order(rng):
    for chain in [(), (2,), (3,), (2, 2), (2, 6), (4, 8), (2, 2, 4)]:
        cl = AbelianGroupStructure(chain)
        assert sha_doubling(cl).order == cl.order**2


def test_consistency_identity_over_sweep():
    for D, f in order_parameters(300):
        order = QuadraticOrder(D, f)
        theta = companion_tori(order)[0]
        p = predict(theta)
        assert p.sha_order == (1 + p.rank) ** 2
        assert p.sha_order == p.h_lambda**2
        assert p.rank >= 0
        assert p.sha_structure == sha_doubling(class_group_structure(order))


def test_prediction_invariants_are_enforced():
    cl = AbelianGroupStructure((2,))
    with pytest.raises(InvariantError):
        Prediction(
            order=QuadraticOrder(10, 1),
            h_lambda=2,
            rank=2,  # must be h - 1 = 1
            sha_structure=sha_doubling(cl),
            sha_order=4,
            k0_rank=3,
        )
    with pytest.raises(InvariantError):
        Prediction(
            order=QuadraticOrder(10, 1),
            h_lambda=2,
            rank=1,
            sha_structure=sha_doubling(cl),
            sha_order=2,  # must be h**2 = 4
            k0_rank=3,
        )
