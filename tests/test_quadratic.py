import time
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import continued_fraction_periodic

from oracles import (
    cf_expand_full_walk,
    cf_expand_reference,
    factorize_reference,
    gl2_matrix_search,
    kronecker_two_by_cases,
    legendre_by_squares,
    sign_radical,
    smallest_unit_reference,
    squarefree_up_to,
    unit_by_norm_scan,
    unit_by_period_walk,
)
from qde.classgroup import _class_data, class_number_maximal
from qde.errors import FieldMismatchError, InvariantError, ParseError, RationalValueError
from qde.lattice import QuadraticOrder, companion_tori
from qde import quadratic
from qde.quadratic import (
    _factorize,
    _is_probable_prime,
    _pq_steps,
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
from conftest import random_theta


# ---------------------------------------------------------------------------
# parsing and canonical form
# ---------------------------------------------------------------------------


def test_parse_golden_ratio():
    assert parse_theta("(1+sqrt(5))/2") == QuadraticIrrational(1, 1, 2, 5)


def test_parse_absorbs_square_factors():
    assert parse_theta("sqrt(8)") == QuadraticIrrational(0, 2, 1, 2)
    assert parse_theta("sqrt(12)") == QuadraticIrrational(0, 2, 1, 3)
    assert parse_theta("(1+sqrt(45))/3") == QuadraticIrrational(1, 3, 3, 5)


def test_parse_perfect_square_rejected():
    with pytest.raises(RationalValueError):
        parse_theta("(3+sqrt(9))/2")
    with pytest.raises(RationalValueError):
        parse_theta("sqrt(16)")


@pytest.mark.parametrize(
    "text,expected",
    [
        ("sqrt(5)", (0, 1, 1, 5)),
        (" ( 1 + sqrt( 5 ) ) / 2 ", (1, 1, 2, 5)),
        ("2*sqrt(3)", (0, 2, 1, 3)),
        ("2sqrt(3)", (0, 2, 1, 3)),
        ("-sqrt(2)", (0, -1, 1, 2)),
        ("(3-2*sqrt(7))/5", (3, -2, 5, 7)),
        ("(-4+sqrt(2))/6", (-4, 1, 6, 2)),
        ("0+sqrt(13)", (0, 1, 1, 13)),
    ],
)
def test_parse_accepted_shapes(text, expected):
    theta = parse_theta(text)
    assert (theta.a, theta.b, theta.c, theta.D) == expected


@pytest.mark.parametrize(
    "text",
    ["", "sqrt(5", "sqrt 5)", "1who", "(1+sqrt(5))", "(1+sqrt(5))/", "sqrt(-5)", "1%2"],
)
def test_parse_syntax_errors_report_position(text):
    with pytest.raises(ParseError) as info:
        parse_theta(text)
    assert info.value.position >= 0
    assert "position" in str(info.value)


def test_parse_refuses_an_integer_literal_above_4300_digits():
    # refused at the literal's position before int() sees it; at 4,300 digits
    # the literal still parses
    for text, position in (("sqrt(1" + "0" * 4400 + "7)", 5), ("1" * 4301 + "+sqrt(2)", 0)):
        with pytest.raises(ParseError, match="4402 digits|4301 digits") as info:
            parse_theta(text)
        assert info.value.position == position
    assert parse_theta("(1" + "0" * 4299 + "+sqrt(2))/3").D == 2


def test_parse_rational_inputs_rejected():
    with pytest.raises(RationalValueError):
        parse_theta("7")
    with pytest.raises(ParseError):
        parse_theta("(1+sqrt(5))/0")


def test_parse_renders_back():
    for text in ["(1+sqrt(5))/2", "sqrt(8)", "-sqrt(2)", "(3-2*sqrt(7))/5"]:
        theta = parse_theta(text)
        assert parse_theta(str(theta)) == theta


def test_str_parse_round_trip_on_random_values(rng):
    for _ in range(100):
        theta = random_theta(rng)
        assert parse_theta(str(theta)) == theta


def test_canonical_rejects_noncanonical_fields():
    with pytest.raises(ValueError):
        QuadraticIrrational(2, 2, 4, 5)  # gcd 2
    with pytest.raises(ValueError):
        QuadraticIrrational(1, 1, -2, 5)  # negative denominator
    with pytest.raises(ValueError):
        QuadraticIrrational(1, 1, 2, 8)  # not squarefree
    with pytest.raises(RationalValueError):
        QuadraticIrrational(1, 0, 2, 5)  # rational


@pytest.mark.parametrize(
    "build,args,error,text",
    [
        # the float and bool cases used to be accepted and fail later inside
        # isqrt, and squarefree_decompose(5.5) returned (1.0, 5.5)
        (QuadraticOrder, (5.5, 1), TypeError, "D must be an int, got 5.5"),
        (QuadraticOrder, (5, 2.0), TypeError, "conductor must be an int, got 2.0"),
        (QuadraticOrder, (5, True), TypeError, "conductor must be an int, got True"),
        (QuadraticIrrational, (1, 1, 2, 5.0), TypeError, "D must be an int, got 5.0"),
        (QuadraticIrrational, (1, 1, 2, True), TypeError, "D must be an int, got True"),
        (QuadraticInteger, (1, 1, 2.0), TypeError, "D must be an int, got 2.0"),
        (fundamental_unit, ("5",), TypeError, "D must be an int, got '5'"),
        (squarefree_decompose, (5.5,), TypeError, "n must be an int, got 5.5"),
        (squarefree_decompose, (True,), TypeError, "n must be an int, got True"),
        (QuadraticOrder, (8, 1), ValueError, "D must be squarefree and > 1, got 8"),
        (QuadraticIrrational, (1, 1, 2, 1), ValueError, "D must be squarefree and > 1, got 1"),
        (QuadraticInteger, (1, 1, -7), ValueError, "D must be squarefree and > 1, got -7"),
        (fundamental_unit, (12,), ValueError, "D must be squarefree and > 1, got 12"),
        # class_number_maximal used to build class data first: a perfect-square
        # or non-integral discriminant error, or the class data of disc 32 for 8
        (class_number_maximal, (True,), TypeError, "D must be an int, got True"),
        (class_number_maximal, (5.5,), TypeError, "D must be an int, got 5.5"),
        (class_number_maximal, (4,), ValueError, "D must be squarefree and > 1, got 4"),
        (class_number_maximal, (8,), ValueError, "D must be squarefree and > 1, got 8"),
    ],
)
def test_one_radicand_check_takes_only_ints(build, args, error, text):
    before = _class_data.cache_info()
    with pytest.raises(error) as info:
        build(*args)
    assert str(info.value) == text
    assert _class_data.cache_info() == before


@given(
    a=st.integers(-10**6, 10**6),
    b=st.integers(-10**4, 10**4).filter(bool),
    c=st.integers(-10**4, 10**4).filter(bool),
    radicand=st.integers(2, 10**4),
)
@settings(max_examples=1000, deadline=None)
def test_canonical_form_is_idempotent_and_value_preserving(a, b, c, radicand):
    s, d = squarefree_decompose(radicand)
    if d == 1:
        with pytest.raises(RationalValueError):
            QuadraticIrrational.canonical(a, b, c, radicand)
        return
    theta = QuadraticIrrational.canonical(a, b, c, radicand)
    again = QuadraticIrrational.canonical(theta.a, theta.b, theta.c, theta.D)
    assert again == theta
    # exact cross-multiplication: (a + b*sqrt(radicand))/c == (a'+b'*sqrt(D'))/c'
    assert theta.D == d
    assert a * theta.c == theta.a * c
    assert b * s * theta.c == theta.b * c


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,pre,per",
    [
        ("(1+sqrt(5))/2", [], [1]),
        ("sqrt(2)", [1], [2]),
        ("sqrt(10)", [3], [6]),
    ],
)
def test_cf_spot_values(text, pre, per):
    theta = parse_theta(text)
    # certify the frozen values with both independent oracles first
    ref_pre, ref_per = cf_expand_reference(theta)
    assert (ref_pre, ref_per) == (pre, per)
    sym = continued_fraction_periodic(theta.a, theta.c, theta.b**2 * theta.D)
    assert sym[:-1] == pre and list(sym[-1]) == per
    cf = cf_expand(theta)
    assert (list(cf.preperiod), list(cf.period)) == (pre, per)


def test_cf_matches_reference_on_random_inputs(rng):
    for _ in range(150):
        theta = random_theta(rng)
        cf = cf_expand(theta)
        ref_pre, ref_per = cf_expand_reference(theta)
        assert (list(cf.preperiod), list(cf.period)) == (ref_pre, ref_per)


def test_cf_matches_reference_on_long_preperiods(rng):
    # c | a*a - b*b*D keeps the discriminant, and so the period, small while
    # the large a and c take many steps to reach the first reduced state
    squarefree = squarefree_up_to(200)
    preperiods = []
    while len(preperiods) < 100:
        D = rng.choice(squarefree)
        b = rng.choice([x for x in range(-9, 10) if x])
        c = rng.randrange(1, 10**4 + 1)
        roots = [x for x in range(c) if (x * x - b * b * D) % c == 0]
        if not roots:
            continue
        a = rng.choice(roots) + c * rng.randrange(-(10**6) // c, 10**6 // c)
        theta = QuadraticIrrational.canonical(a, b, c * rng.choice((1, -1)), D)
        cf = cf_expand(theta)
        assert (list(cf.preperiod), list(cf.period)) == cf_expand_reference(theta), theta
        preperiods.append(len(cf.preperiod))
    assert max(preperiods) >= 6


def test_cf_matches_sympy_on_random_inputs(rng):
    for _ in range(60):
        theta = random_theta(rng, d_limit=120)
        if theta.b < 0:
            sym = continued_fraction_periodic(-theta.a, -theta.c, theta.b**2 * theta.D)
        else:
            sym = continued_fraction_periodic(theta.a, theta.c, theta.b**2 * theta.D)
        cf = cf_expand(theta)
        assert list(cf.preperiod) == [int(x) for x in sym[:-1]]
        assert list(cf.period) == [int(x) for x in sym[-1]]


def test_cf_round_trip_exact(rng):
    for _ in range(200):
        theta = random_theta(rng)
        assert cf_value(cf_expand(theta)) == theta


# ---------------------------------------------------------------------------
# the half-period walk against the full walk
# ---------------------------------------------------------------------------


def test_pq_steps_exactness_error_names_the_state():
    # 3 does not divide 7 - 0*0, so the first step cannot be exact
    with pytest.raises(InvariantError, match=r"lost exactness at P=0, Q=3, N=7$"):
        next(_pq_steps(0, 3, 7))


def _assert_matches_full_walk(theta):
    cf = cf_expand(theta)
    assert (cf.preperiod, cf.period) == cf_expand_full_walk(theta), theta


def test_cf_matches_full_walk_on_every_small_radicand():
    # sqrt(N) and (1+sqrt(N))/2 start next to a center of their cycle; their
    # conjugates -sqrt(N) and (1-sqrt(N))/2 reach the cycle after a preperiod
    for N in range(2, 10**4):
        if isqrt(N) ** 2 != N:
            for a, b, c in ((0, 1, 1), (1, 1, 2), (0, -1, 1), (1, -1, 2)):
                _assert_matches_full_walk(QuadraticIrrational.canonical(a, b, c, N))


def test_cf_matches_full_walk_on_random_inputs(rng):
    for _ in range(2000):
        _assert_matches_full_walk(random_theta(rng, d_limit=10**4))


@pytest.mark.parametrize("D", [34, 82, 130, 221, 410, 1155, 3315])
def test_cf_matches_full_walk_on_companions(D):
    # with 2-torsion in the class group there are ambiguous cycles besides the
    # principal one, and a companion can enter its cycle away from a center
    for f in (1, 2, 3):
        for theta in companion_tori(QuadraticOrder(D, f)):
            _assert_matches_full_walk(theta)


@pytest.mark.parametrize(
    "text,ambiguous",
    [
        ("sqrt(1000099)", True),
        ("(1+sqrt(1000321))/2", True),
        ("(3+sqrt(1000003))/19", False),
    ],
)
def test_cf_walks_half_of_a_symmetric_period(monkeypatch, text, ambiguous):
    steps = 0

    def counting(P, Q, N):
        nonlocal steps
        for step in _pq_steps(P, Q, N):
            steps += 1
            yield step

    theta = parse_theta(text)
    expected = cf_expand_full_walk(theta)
    monkeypatch.setattr(quadratic, "_pq_steps", counting)
    cf = cf_expand(theta)
    assert (cf.preperiod, cf.period) == expected
    k = len(cf.period)
    assert k > 1000
    if ambiguous:
        assert steps <= len(cf.preperiod) + -(-k // 2) + 2
    else:
        assert steps <= len(cf.preperiod) + k + 2


def test_cf_period_states_are_reduced(rng):
    # every rotation of the period is the expansion of a reduced irrational:
    # value > 1 with conjugate strictly between -1 and 0
    for _ in range(40):
        theta = random_theta(rng, d_limit=80)
        period = cf_expand(theta).period
        for i in range(len(period)):
            rotation = period[i:] + period[:i]
            y = cf_value(ContinuedFraction((), rotation))
            conj = QuadraticIrrational(y.a, -y.b, y.c, y.D)
            assert sign_radical(y.b, y.a - y.c, y.D) > 0  # y > 1
            assert sign_radical(conj.b, conj.a, conj.D) < 0  # conj < 0
            assert sign_radical(conj.b, conj.a + conj.c, conj.D) > 0  # conj > -1


@pytest.mark.parametrize(
    "pre,per,text",
    [
        ((), (1,), "(1+sqrt(5))/2"),
        ((1,), (2,), "sqrt(2)"),
    ],
)
def test_cf_value_spot(pre, per, text):
    assert cf_value(ContinuedFraction(pre, per)) == parse_theta(text)


def test_cf_value_round_trip_on_given_expansion():
    cf = ContinuedFraction((3,), (6,))
    assert cf_expand(cf_value(cf)) == cf


def test_cf_value_matches_sympy_reduce(rng):
    from sympy import Rational, continued_fraction_reduce, simplify, sqrt

    for _ in range(20):
        cf = cf_expand(random_theta(rng, d_limit=60))
        value = cf_value(cf)
        expected = continued_fraction_reduce(list(cf.preperiod) + [list(cf.period)])
        mine = Rational(value.a, value.c) + Rational(value.b, value.c) * sqrt(value.D)
        assert simplify(mine - expected) == 0


def test_continued_fraction_validation():
    with pytest.raises(ValueError):
        ContinuedFraction((), ())  # empty period
    with pytest.raises(ValueError):
        ContinuedFraction((), (0,))  # quotient < 1
    with pytest.raises(ValueError):
        ContinuedFraction((1, 0), (2,))  # inner preperiod quotient < 1
    with pytest.raises(ValueError):
        ContinuedFraction((), (2, 2))  # period not minimal
    with pytest.raises(ValueError):
        ContinuedFraction((1, 2), (3, 2))  # preperiod foldable into the period
    for period in ((1, 2) * 6, (1, 1, 2) * 4, (3,) * 8, (1, 2, 2) * 9):
        with pytest.raises(ValueError, match="repetition of a shorter block"):
            ContinuedFraction((), period)  # composite repeat counts
    ContinuedFraction((-4, 1), (2, 3))  # leading quotient may be any integer
    ContinuedFraction((), (1, 2, 1, 2, 1, 3))  # near-repeats are minimal
    ContinuedFraction((), (2, 1, 1, 2))


@pytest.mark.parametrize(
    "preperiod,period",
    [
        ([2.5], [1.9, 3]),  # int() used to truncate these to [2] and [1, 3]
        (["3"], [True]),  # int() used to parse "3"
        ((), (True, 2)),  # operator.index used to read True as 1
        ((False,), (2,)),
    ],
)
def test_continued_fraction_rejects_non_integer_quotients(preperiod, period):
    with pytest.raises(TypeError):
        ContinuedFraction(preperiod, period)


# ---------------------------------------------------------------------------
# fundamental units
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "D,x,y,norm",
    [(5, 0, 1, -1), (2, 1, 1, -1), (3, 2, 1, 1)],
)
def test_fundamental_unit_spot_values(D, x, y, norm):
    # certified by the exhaustive coordinate scan
    assert smallest_unit_reference(D, 100) == (x, y, norm)
    unit, n = fundamental_unit(D)
    assert (unit.x, unit.y, n) == (x, y, norm)


def test_fundamental_unit_pell_law():
    for D in squarefree_up_to(100):
        unit, norm = fundamental_unit(D)
        assert unit.norm() == norm and norm in (1, -1)
        assert unit.exceeds_one()
        reference = smallest_unit_reference(D, 10**6)
        assert reference == (unit.x, unit.y, norm)


def test_fundamental_unit_matches_norm_scan():
    # the unit read off the end of the period is the first convergent
    # candidate of norm +-1, on every small field and on three large ones
    for D in squarefree_up_to(3000) + [9999907, 10000139, 99999989]:
        unit, norm = fundamental_unit(D)
        assert (unit.x, unit.y, norm) == unit_by_norm_scan(D), D


def test_fundamental_unit_matches_the_linear_period_walk():
    # the unit read off cf_expand's period through _convergent_matrix is the
    # one a full walk of the (P, Q) recurrence meets at the first return of Q
    large = [9999907, 10000139, 10000019, 30030, 7000003, 4000037, 99999989, 1000000007]
    for D in squarefree_up_to(3000) + large:
        unit, norm = fundamental_unit(D)
        assert (unit.x, unit.y, norm) == unit_by_period_walk(D), D


@pytest.mark.parametrize(
    "cf,message",
    [
        # D = 2 allows (isqrt(8) + 1) * ((8).bit_length() + 3) = 21 convergents
        (
            ContinuedFraction((1,), tuple(range(1, 23))),
            r"^no unit found within 21 convergents for D=2$",
        ),
        # the convergent 2/1 gives 2 + sqrt(2), of norm 2
        (ContinuedFraction((2,), (1,)), r"^the period end for D=2 is not a unit > 1$"),
    ],
)
def test_fundamental_unit_fault_checks(monkeypatch, cf, message):
    monkeypatch.setattr(quadratic, "cf_expand", lambda theta: cf)
    with pytest.raises(InvariantError, match=message):
        fundamental_unit.__wrapped__(2)


def test_quadratic_integer_arithmetic():
    assert QuadraticInteger(1, 1, 2).norm() == -1
    assert QuadraticInteger(3, 2, 2).norm() == 1


def _two_branch(D: int) -> int:
    """omega's trace, from D mod 4 rather than from d_K."""
    return 1 if D % 4 == 1 else 0


@pytest.mark.parametrize("D", [2, 3, 5, 13])
def test_exceeds_one_matches_the_sign_oracle(D):
    # x + y*omega - 1 is p + q*sqrt(D) over 1 + t, with q = y
    t = _two_branch(D)
    for x, y in product(range(-30, 31), repeat=2):
        expected = sign_radical(y, (2 * (x - 1) + y) if t else (x - 1), D) > 0
        assert QuadraticInteger(x, y, D).exceeds_one() == expected, (x, y)


def test_fundamental_unit_exceeds_one_and_its_conjugate_and_negative_do_not():
    for D in squarefree_up_to(200):
        unit, _ = fundamental_unit(D)
        x, y, t = unit.x, unit.y, unit.omega_trace
        assert unit.exceeds_one(), D
        # conj(omega) = t - omega, and |conj(epsilon)| = 1/epsilon < 1
        assert not QuadraticInteger(x + t * y, -y, D).exceeds_one(), D
        assert not QuadraticInteger(-x, -y, D).exceeds_one(), D


def test_omega_and_to_irrational_match_the_two_branch_formulas():
    for D in squarefree_up_to(100):
        omega = QuadraticInteger(0, 1, D)
        t, n = omega.omega_trace, omega.omega_norm
        assert (t, n) == ((1, (1 - D) // 4) if _two_branch(D) else (0, -D)), D
        # omega^2 = t*omega - n: omega has trace t (above) and norm n
        assert omega.norm() == n, D
        for x, y in product(range(-3, 4), (-2, -1, 1, 3)):
            value = QuadraticInteger(x, y, D).to_irrational()
            if _two_branch(D):
                assert value == QuadraticIrrational.canonical(2 * x + y, y, 2, D)
            else:
                assert value == QuadraticIrrational.canonical(x, y, 1, D)


# ---------------------------------------------------------------------------
# Kronecker symbol
# ---------------------------------------------------------------------------


def test_kronecker_spot_values():
    assert kronecker(5, 11) == 1
    assert kronecker(5, 2) == -1
    assert kronecker(10, 5) == 0


def test_kronecker_matches_legendre_enumeration():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(-30, 31):
            assert kronecker(a, p) == legendre_by_squares(a, p)


def test_kronecker_two_cases():
    for a in range(-40, 41):
        assert kronecker(a, 2) == kronecker_two_by_cases(a)


def test_kronecker_matches_sympy(rng):
    from sympy import kronecker_symbol

    for _ in range(400):
        a = rng.randrange(-500, 501)
        n = rng.randrange(-300, 301)
        if n == 0:
            continue
        assert kronecker(a, n) == kronecker_symbol(a, n), (a, n)


@given(
    a=st.integers(-10**6, 10**6).filter(bool),
    b=st.integers(-10**6, 10**6).filter(bool),
    m=st.integers(-10**4, 10**4).filter(bool),
    n=st.integers(-10**4, 10**4).filter(bool),
)
@settings(max_examples=1000, deadline=None)
def test_kronecker_multiplicativity(a, b, m, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


# ---------------------------------------------------------------------------
# GL(2, Z) equivalence
# ---------------------------------------------------------------------------


def test_gl2z_reflexive():
    theta = parse_theta("sqrt(10)")
    assert gl2z_equivalent(theta, theta)


def test_gl2z_golden_vs_sqrt5_inequivalent():
    # sqrt(5) generates the conductor-2 order while the golden ratio generates
    # the maximal one; no determinant +-1 matrix can connect them, and the
    # period cycles [1] vs [4] disagree.  The matrix-search oracle confirms.
    golden = parse_theta("(1+sqrt(5))/2")
    root5 = parse_theta("sqrt(5)")
    assert cf_expand(golden).period == (1,)
    assert cf_expand(root5).period == (4,)
    assert not gl2_matrix_search(golden, root5, 6)
    assert not gl2z_equivalent(golden, root5)


def test_gl2z_positive_case_certified_by_matrix_search():
    golden = parse_theta("(1+sqrt(5))/2")
    inverse = parse_theta("(-1+sqrt(5))/2")  # 1/golden
    assert gl2_matrix_search(golden, inverse, 3)
    assert gl2z_equivalent(golden, inverse)
    shifted = golden.mobius(3, -2, 1, -1)  # determinant -1
    assert gl2z_equivalent(golden, shifted)


def test_gl2z_matches_matrix_search_on_samples(rng):
    thetas = [
        parse_theta("sqrt(13)"),
        parse_theta("(1+sqrt(13))/2"),
        parse_theta("(1+sqrt(13))/3"),
        parse_theta("sqrt(13)").mobius(2, 1, 1, 1),
        parse_theta("(1+sqrt(13))/2").mobius(0, 1, 1, 0),
    ]
    for t1, t2 in product(thetas, repeat=2):
        if gl2_matrix_search(t1, t2, 4):
            assert gl2z_equivalent(t1, t2)


def test_gl2z_is_an_equivalence_relation(rng):
    base = [parse_theta("sqrt(34)"), parse_theta("(3+sqrt(34))/5")]
    sample = []
    for theta in base:
        sample.append(theta)
        sample.append(theta.mobius(1, 1, 0, 1))
        sample.append(theta.mobius(0, 1, 1, 0))
        sample.append(theta.mobius(2, 1, 1, 1))
    for t in sample:
        assert gl2z_equivalent(t, t)
    for t1, t2 in product(sample, repeat=2):
        assert gl2z_equivalent(t1, t2) == gl2z_equivalent(t2, t1)
    for t1, t2, t3 in product(sample, repeat=3):
        if gl2z_equivalent(t1, t2) and gl2z_equivalent(t2, t3):
            assert gl2z_equivalent(t1, t3)


def test_gl2z_finds_a_rotation_of_a_long_period_in_linear_time():
    # sqrt(D) and its second complete quotient enter one cycle of 71,938
    # quotients one step apart; a search that builds every rotation takes about 23 s
    root = parse_theta("sqrt(100000000003)")
    cf = cf_expand(root)
    second = root.mobius(0, 1, 1, -cf.preperiod[0]).mobius(0, 1, 1, -cf.period[0])
    assert len(cf.period) == 71938
    assert cf_expand(second).period == cf.period[1:] + cf.period[:1]
    start = time.perf_counter()
    assert gl2z_equivalent(root, second)
    assert time.perf_counter() - start < 2.0


def test_gl2z_refuses_a_reversed_period_of_equal_length():
    # the periods are reverses, not rotations, of each other, and their hex
    # digits run together would match: 111111113 occurs in 111131111 twice over
    t1 = parse_theta("(2+4*sqrt(2))/51")
    t2 = parse_theta("(1+4*sqrt(2))/51")
    assert cf_expand(t1).period == (1, 1, 1, 17, 1, 19)
    assert cf_expand(t2).period == (1, 1, 1, 19, 1, 17)
    assert not gl2z_equivalent(t1, t2)
    assert not gl2z_equivalent(t2, t1)


def test_gl2z_mismatched_fields():
    with pytest.raises(FieldMismatchError):
        gl2z_equivalent(parse_theta("sqrt(2)"), parse_theta("sqrt(3)"))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_squarefree_decompose():
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(45) == (3, 5)
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(9) == (3, 1)


def test_factorize_matches_trial_division_below_100000():
    for n in range(1, 10**5):
        assert _factorize(n) == factorize_reference(n), n


def _chernick_carmichael(k: int) -> tuple[int, int, int] | None:
    """(6k+1, 12k+1, 18k+1) if all three are prime: their product is a Carmichael number."""
    from sympy import isprime

    factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
    return factors if all(isprime(p) for p in factors) else None


def test_factorize_semiprimes_prime_powers_and_carmichael_numbers_up_to_1e24():
    from sympy import isprime

    primes = [1009, 999983, 1000003, 100000000003, 999999999989, 1000000000039,
              10000000019, 10000000033, 10**24 + 7]
    assert all(isprime(p) for p in primes)
    cases = {p: {p: 1} for p in primes}
    cases[1000003 * 1000000000039] = {1000003: 1, 1000000000039: 1}
    cases[1009 * 999983 * 100000000003] = {1009: 1, 999983: 1, 100000000003: 1}
    cases[10000000019 * 10000000033] = {10000000019: 1, 10000000033: 1}
    cases[2**79] = {2: 79}
    cases[3**50] = {3: 50}
    cases[999983**4] = {999983: 4}
    cases[1009**7] = {1009: 7}
    cases[1000003**2 * 10000000019] = {1000003: 2, 10000000019: 1}
    chernick = [f for f in map(_chernick_carmichael, range(200, 9 * 10**6, 15_013)) if f]
    assert len(chernick) >= 3 and 10**23 < max(a * b * c for a, b, c in chernick) < 10**24
    for a, b, c in chernick:
        cases[a * b * c] = {a: 1, b: 1, c: 1}
    for n, expected in cases.items():
        assert n < 3 * 10**24  # inside the deterministic range of the bases
        assert _factorize(n) == expected, n


def test_miller_rabin_rejects_strong_pseudoprimes_to_fewer_bases():
    # strong pseudoprimes to the first 9 and the first 12 prime bases
    # (Jaeschke; Sorenson-Webster): the 13 fixed bases catch both
    assert not _is_probable_prime(3825123056546413051)  # 149491 * 747451 * 34233211
    assert not _is_probable_prime(318665857834031151167461)  # 399165290221 * 798330580441
    assert _is_probable_prime(10**24 + 7)


def test_parse_factors_a_25_digit_prime_radicand_in_under_a_second():
    # trial division of this radicand did not finish
    start = time.perf_counter()
    theta = parse_theta("sqrt(1000000000000000000000007)")
    assert time.perf_counter() - start < 1.0
    assert theta == QuadraticIrrational(0, 1, 1, 10**24 + 7)


def test_mobius_identity_and_composition(rng):
    for _ in range(25):
        theta = random_theta(rng)
        assert theta.mobius(1, 0, 0, 1) == theta
        m1 = (2, 1, 1, 1)
        m2 = (1, -1, 3, -2)
        combined = (
            m1[0] * m2[0] + m1[1] * m2[2],
            m1[0] * m2[1] + m1[1] * m2[3],
            m1[2] * m2[0] + m1[3] * m2[2],
            m1[2] * m2[1] + m1[3] * m2[3],
        )
        assert theta.mobius(*m2).mobius(*m1) == theta.mobius(*combined)
