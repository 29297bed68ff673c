import dataclasses
import random
from itertools import combinations, permutations, product
from math import isqrt

import pytest

from oracles import (
    cf_expand_reference,
    class_number_by_dirichlet,
    conductor_formula_reference,
    merge_chains_reference,
    reduced_forms_reference,
    rho_cycle,
    factorize_reference,
    solution_counts_certify,
    squarefree_up_to,
    unit_index_reference,
    wide_classes_by_negation,
)
from qde.classgroup import (
    AbelianGroupStructure,
    BinaryQuadraticForm,
    _SIEVE_FROM,
    _class_data,
    _element_power,
    _enumerate_reduced,
    _primes_upto,
    _principal_form,
    _scan_reduced,
    _sieve_reduced,
    _sqrt_mod,
    class_group_structure,
    class_number_maximal,
    class_number_order,
    compose,
    reduce_cycle,
    unit_index,
)
from qde.errors import DiscriminantBoundError, InvariantError
from qde.lattice import QuadraticOrder
from qde.quadratic import QuadraticIrrational, cf_expand, fundamental_unit

VALID_DISCS = [d for d in range(5, 3000) if d % 4 in (0, 1) and isqrt(d) ** 2 != d]
SWEEP_DISCS = sorted(
    {QuadraticOrder(D, f).discriminant
     for D in squarefree_up_to(40) for f in (1, 2, 3)
     if QuadraticOrder(D, f).discriminant < 700}
)


# ---------------------------------------------------------------------------
# forms, reduction, cycles
# ---------------------------------------------------------------------------


def test_form_validation():
    with pytest.raises(ValueError):
        BinaryQuadraticForm(1, 1, 1)  # negative discriminant
    with pytest.raises(ValueError):
        BinaryQuadraticForm(1, 3, 0)  # discriminant 9 is square
    form = BinaryQuadraticForm(2, 4, -3)
    assert form.discriminant == 40 and form.is_primitive
    assert BinaryQuadraticForm(2, 2, -2).content == 2


def test_reduce_cycle_disc5():
    cycle = reduce_cycle(BinaryQuadraticForm(1, 1, -1))
    assert BinaryQuadraticForm(1, 1, -1) in cycle
    assert cycle[0].as_tuple() == min(f.as_tuple() for f in cycle)


def test_reduce_cycle_disc8_principal():
    cycle = reduce_cycle(BinaryQuadraticForm(1, 0, -2))
    assert {f.as_tuple() for f in cycle} == {(1, 2, -1), (-1, 2, 1)}


def test_reduce_cycle_disc40_two_classes():
    principal = reduce_cycle(BinaryQuadraticForm(1, 6, -1))
    other = reduce_cycle(BinaryQuadraticForm(2, 4, -3))
    assert not ({f.as_tuple() for f in principal} & {f.as_tuple() for f in other})
    assert len(principal) + len(other) == len(reduced_forms_reference(40))


def test_reduce_cycle_rejects_imprimitive():
    with pytest.raises(ValueError):
        reduce_cycle(BinaryQuadraticForm(2, 2, -2))


def _assert_enumeration_matches_reference(disc, enumerate_reduced=_enumerate_reduced):
    states = enumerate_reduced(disc)
    assert len(states) == len(set(states)), disc  # each state exactly once
    # a state (b, 2|c|) stands for the sign twins (a, b, c) and (-a, b, -c)
    assert set(states) == {(b, 2 * abs(c)) for _, b, c in reduced_forms_reference(disc)}, disc


def test_enumeration_matches_reference_below_1500():
    discs = [d for d in range(5, 1500) if d % 4 in (0, 1) and isqrt(d) ** 2 != d]
    for disc in discs:
        _assert_enumeration_matches_reference(disc)


def test_sieve_matches_reference_below_6000():
    # called directly: _enumerate_reduced only sieves from _SIEVE_FROM on
    discs = [d for d in range(5, 6000) if d % 4 in (0, 1) and isqrt(d) ** 2 != d]
    for disc in discs:
        _assert_enumeration_matches_reference(disc, _sieve_reduced)


@pytest.mark.parametrize(
    "a,b", [(1, 1), (3, 2), (5, 7), (40, 41), (61, 59), (101, 103), (250, 251)]
)
def test_enumeration_of_forms_with_equal_outer_coefficients(a, b):
    # (a, b, -a) has disc b^2 + 4a^2 and |a| = |c|: the divisor a of m = a^2
    # is its own cofactor and must give the state (b, 2a) of its two forms
    # once, not twice, on either path (the last disc, 313001, is above
    # _SIEVE_FROM)
    disc = b * b + 4 * a * a
    assert {(a, b, -a), (-a, b, a)} <= reduced_forms_reference(disc)
    for enumerate_reduced in (_scan_reduced, _sieve_reduced, _enumerate_reduced):
        _assert_enumeration_matches_reference(disc, enumerate_reduced)


def _assert_sieve_matches_scan(disc):
    states = _sieve_reduced(disc)
    assert len(states) == len(set(states)), disc
    assert states == _scan_reduced(disc), disc  # the same states in the same order


def test_sieve_matches_scan_on_random_discriminants():
    # log-uniform up to 10^8, so every scale on both sides of _SIEVE_FROM is hit
    rng = random.Random(8)
    discs = []
    while len(discs) < 200:
        disc = int(10 ** rng.uniform(1, 8))
        if disc % 4 in (0, 1) and isqrt(disc) ** 2 != disc:
            discs.append(disc)
    assert min(discs) < _SIEVE_FROM < max(discs)
    for disc in discs:
        _assert_sieve_matches_scan(disc)


def test_sieve_matches_scan_when_small_primes_divide_the_discriminant():
    # p | disc gives the single root b = 0 (mod p); p^2 | disc makes p divide
    # m(b) several times over
    discs = {
        QuadraticOrder(D, f).discriminant
        for D in (3, 5, 15, 105, 1155, 15015)
        for f in (1, 2, 3, 4, 5, 7, 9, 25, 27, 49, 121)
    }
    for disc in sorted(d for d in discs if d < 10**7):
        _assert_sieve_matches_scan(disc)


def test_sqrt_mod_matches_brute_force_for_odd_primes_below_3000():
    for p in range(3, 3000, 2):
        if factorize_reference(p) != {p: 1}:
            continue
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            root = _sqrt_mod(a, p)
            if a in squares:
                assert root is not None and root * root % p == a, (a, p)
            else:
                assert root is None, (a, p)


def test_primes_upto_matches_trial_division():
    primes = [p for p in range(2, 2000) if factorize_reference(p) == {p: 1}]
    for n in range(2000):
        assert _primes_upto(n) == [p for p in primes if p <= n], n


@pytest.mark.parametrize("disc", SWEEP_DISCS[:40])
def test_cycles_partition_all_reduced_forms(disc):
    data = _class_data(disc)
    everything = set()
    for form in sorted(reduced_forms_reference(disc)):
        if form in everything:
            continue
        cycle = [f.as_tuple() for f in reduce_cycle(BinaryQuadraticForm(*form))]
        members = set(cycle)
        assert form in members and cycle[0] == min(members)
        for member in members:  # every member names the same cycle
            assert [f.as_tuple() for f in reduce_cycle(BinaryQuadraticForm(*member))] == cycle
        assert not (members & everything)  # cycles are disjoint
        everything |= members
        # a narrow class lies inside one wide class
        assert len({_wide_class(data, f) for f in members}) == 1
    assert everything == reduced_forms_reference(disc)


def _wide_class(data, form):
    """Wide class of a reduced form: the name of the cycle of its state (b, 2|c|)."""
    _, b, c = form
    return data.wide_of[(b, 2 * abs(c))]


def test_wide_classes_match_the_negation_oracle_below_3000():
    # the state cycles give the same partition of reduced forms into wide
    # classes and the same identity as rho cycles collapsed by the negated
    # principal form, with each oracle wide class named by its least member
    # with a > 0; odd cycles exactly when narrow = wide
    for disc in VALID_DISCS:
        narrow_of, wide_of, identity = wide_classes_by_negation(disc)
        name = {}
        for form, narrow in narrow_of.items():
            if form[0] > 0:
                name[wide_of[narrow]] = min(form, name.get(wide_of[narrow], form))
        assert set(name) == set(wide_of.values()), disc
        data = _class_data(disc)
        assert data.classes == tuple(sorted(name.values())), disc
        assert data.identity == name[identity], disc
        for form, narrow in narrow_of.items():
            assert _wide_class(data, form) == name[wide_of[narrow]], (disc, form)
        assert set(data.wide_of) == {(b, 2 * abs(c)) for _, b, c in narrow_of}, disc
        assert data.odd == (len(wide_of) == len(data.classes)), disc


def test_reduce_cycle_matches_the_rho_oracle_element_for_element():
    # same cycle, same order, same rotation: from every reduced form and from
    # unreduced SL(2, Z) images of it, whose reduction passes states with Q < 0
    rng = random.Random(20261018)
    for disc in VALID_DISCS[:200]:
        for form in sorted(reduced_forms_reference(disc)):
            images = [form] + [_act(form, *_random_sl2(rng)) for _ in range(3)]
            for image in images:
                cycle = [f.as_tuple() for f in reduce_cycle(BinaryQuadraticForm(*image))]
                assert cycle == rho_cycle(image), (disc, image)


# ---------------------------------------------------------------------------
# composition group laws
# ---------------------------------------------------------------------------


def _classes(disc):
    """The narrow classes, one least reduced form per cycle, sorted."""
    seen, reps = set(), []
    for form in reduced_forms_reference(disc):
        if form not in seen:
            cycle = reduce_cycle(BinaryQuadraticForm(*form))
            seen.update(f.as_tuple() for f in cycle)
            reps.append(cycle[0].as_tuple())
    return [BinaryQuadraticForm(*rep) for rep in sorted(reps)]


def _opposite(g):
    """(a, -b, c), the inverse class of (a, b, c)."""
    return BinaryQuadraticForm(g.a, -g.b, g.c)


def test_compose_identity_and_inverse_laws():
    from oracles import order_parameters

    discs = sorted({QuadraticOrder(D, f).discriminant for D, f in order_parameters(2000)})
    for disc in discs:
        principal = BinaryQuadraticForm(*_principal_form(disc))
        classes = _classes(disc)
        canonical_principal = compose(principal, _opposite(principal))
        for g in classes:
            assert compose(principal, g) == g
            assert compose(g, _opposite(g)) == canonical_principal


def test_compose_is_commutative_and_associative():
    for disc in SWEEP_DISCS[:12]:
        classes = _classes(disc)
        for f, g in combinations(classes, 2):
            assert compose(f, g) == compose(g, f)
        for f, g, h in product(classes[:4], repeat=3):
            assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_compose_two_torsion_at_disc40():
    g = BinaryQuadraticForm(2, 4, -3)
    assert compose(g, g) == compose(
        BinaryQuadraticForm(1, 6, -1), BinaryQuadraticForm(1, 6, -1)
    )


def test_compose_rejects_mismatched_discriminants():
    with pytest.raises(ValueError):
        compose(BinaryQuadraticForm(1, 1, -1), BinaryQuadraticForm(1, 2, -1))


def _act(form, p, q, r, s):
    """The form f(p*x + q*y, r*x + s*y)."""
    a, b, c = form
    return (
        a * p * p + b * p * r + c * r * r,
        2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
        a * q * q + b * q * s + c * s * s,
    )


def _random_sl2(rng):
    p, q, r, s = 1, 0, 0, 1
    for _ in range(rng.randrange(1, 5)):
        k = rng.choice([x for x in range(-3, 4) if x])
        if rng.random() < 0.5:
            p, q, r, s = p, q + k * p, r, s + k * r  # times [[1, k], [0, 1]]
        else:
            p, q, r, s = p + k * q, q, r + k * s, s  # times [[1, 0], [k, 1]]
    return p, q, r, s


def test_compose_is_invariant_under_proper_equivalence():
    # composition is a map on classes: replacing either input by any properly
    # equivalent, unreduced form must not change the canonical product
    rng = random.Random(20261017)
    seen = {"negative": 0, "equal": 0, "divides": 0}
    for disc in SWEEP_DISCS[:30]:
        classes = _classes(disc)
        for f, g in product(classes[:5], repeat=2):
            expected = compose(f, g)
            for _ in range(4):
                f2 = _act(f.as_tuple(), *_random_sl2(rng))
                g2 = f2 if f == g and rng.random() < 0.5 else _act(g.as_tuple(), *_random_sl2(rng))
                assert compose(BinaryQuadraticForm(*f2), BinaryQuadraticForm(*g2)) == expected
                seen["negative"] += f2[0] < 0 or g2[0] < 0
                seen["equal"] += f2[0] == g2[0]
                seen["divides"] += abs(f2[0]) < abs(g2[0]) and g2[0] % f2[0] == 0
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# class numbers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("D,h", [(5, 1), (10, 2), (2, 1), (79, 3), (82, 4), (3, 1)])
def test_class_number_maximal_spot_values(D, h):
    assert class_number_maximal(D) == h


@pytest.mark.parametrize(
    "D,h,factors",
    [
        (142, 3, (3,)),
        (145, 4, (4,)),
        (226, 8, (8,)),
        (229, 3, (3,)),
        (257, 3, (3,)),
        (401, 5, (5,)),
        (577, 7, (7,)),
    ],
)
def test_class_groups_from_published_tables(D, h, factors):
    # frozen against the standard published class-number tables
    assert class_number_maximal(D) == h
    assert class_group_structure(QuadraticOrder(D, 1)).invariant_factors == factors


def test_wide_classes_match_gl2_orbits_for_every_small_discriminant():
    # two independent mechanisms must agree everywhere: wide classes as state
    # cycles, and orbits of the roots of the narrow classes' least forms under
    # tail equivalence of continued fractions
    from oracles import order_parameters

    def canonical_rotation(period):
        k = len(period)
        return min(period[i:] + period[:i] for i in range(k))

    for D, f in order_parameters(2000):
        disc = QuadraticOrder(D, f).discriminant
        orbits = set()
        for a, b, c in (g.as_tuple() for g in _classes(disc)):
            root = QuadraticIrrational.canonical(-b, 1, 2 * a, disc)
            orbits.add(canonical_rotation(cf_expand(root).period))
        assert len(orbits) == len(_class_data(disc).classes), (D, f)


def test_class_number_maximal_against_gl2_orbit_count():
    # independent route: wide classes = GL(2,Z) orbits of the roots of all
    # reduced forms, detected by rotation-equality of reference CF periods
    for D in squarefree_up_to(40):
        d_K = D if D % 4 == 1 else 4 * D
        periods = []
        for a, b, c in reduced_forms_reference(d_K):
            root = QuadraticIrrational.canonical(-b, 1, 2 * a, d_K)
            _, period = cf_expand_reference(root)
            periods.append(tuple(period))
        orbits = []
        for period in periods:
            doubled = period + period
            if not any(
                len(seen) == len(period)
                and any(doubled[i : i + len(seen)] == seen for i in range(len(period)))
                for seen in orbits
            ):
                orbits.append(period)
        assert class_number_maximal(D) == len(orbits)


def test_class_number_maximal_matches_dirichlets_formula():
    # an analytic witness that never touches reduced forms: 607 fields, and
    # each float value lies within 1e-13 of the exact class number
    for D in squarefree_up_to(1000):
        h = class_number_by_dirichlet(D)
        assert abs(h - class_number_maximal(D)) < 1e-9, (D, h)


def test_dirichlets_formula_refuses_a_lost_class(monkeypatch):
    # D = 79 has h = 3; class data that lost one of its classes keeps the
    # cycle parity, so the N(epsilon) cross-check lets h = 2 through
    import qde.classgroup as classgroup

    real = _class_data(316)
    short = dataclasses.replace(real, classes=real.classes[:-1])
    monkeypatch.setattr(classgroup, "_class_data", lambda disc: short)
    assert class_number_maximal(79) == 2
    assert abs(class_number_by_dirichlet(79) - 2) > 0.5
    assert abs(class_number_by_dirichlet(79) - 3) < 1e-9


def test_class_number_is_the_cycle_count_and_parity_matches_the_unit_norm():
    # odd state cycles (narrow = wide) exactly when N(epsilon) = -1
    for D in squarefree_up_to(5000):
        data = _class_data(D if D % 4 == 1 else 4 * D)
        assert class_number_maximal(D) == len(data.classes), D
        assert data.odd == (fundamental_unit(D)[1] == -1), D


@pytest.mark.parametrize("D", [2, 3, 10, 79, 82])
def test_class_number_maximal_refuses_a_unit_norm_against_the_parity(D, monkeypatch):
    import qde.classgroup

    epsilon, norm = fundamental_unit(D)
    monkeypatch.setattr(qde.classgroup, "fundamental_unit", lambda _: (epsilon, -norm))
    with pytest.raises(InvariantError, match="N\\(epsilon\\)"):
        class_number_maximal(D)


@pytest.mark.parametrize(
    "D,f,e,h",
    [(5, 2, 3, 1), (2, 2, 2, 1), (3, 2, 2, 1), (5, 1, 1, 1), (13, 1, 1, 1)],
)
def test_unit_index_and_order_class_number(D, f, e, h):
    order = QuadraticOrder(D, f)
    assert unit_index(order) == e
    assert class_number_order(order) == h


def test_unit_index_by_direct_power_iteration():
    # oracle: multiply out the full powers epsilon**n, not their residues mod f
    for D in squarefree_up_to(300):
        for f in range(1, 41):
            assert unit_index(QuadraticOrder(D, f)) == unit_index_reference(D, f), (D, f)


def test_class_number_order_of_maximal_order_is_field_class_number():
    for D in squarefree_up_to(60):
        assert class_number_order(QuadraticOrder(D, 1)) == class_number_maximal(D)


def test_class_number_order_matches_the_rational_conductor_formula():
    for D in squarefree_up_to(500):
        h = class_number_maximal(D)
        for f in range(1, 31):
            order = QuadraticOrder(D, f)
            expected = conductor_formula_reference(D, f, h, unit_index(order))
            assert expected.denominator == 1, (D, f)
            assert class_number_order(order) == expected, (D, f)


def test_conductor_formula_matches_composition_group():
    for D in squarefree_up_to(30):
        for f in (1, 2, 3, 4, 5):
            order = QuadraticOrder(D, f)
            structure = class_group_structure(order)
            h = class_number_order(order)
            assert structure.order == h
            assert h % class_number_maximal(D) == 0


# ---------------------------------------------------------------------------
# group structure
# ---------------------------------------------------------------------------


def test_class_group_structure_spot_values():
    assert class_group_structure(QuadraticOrder(5, 1)).invariant_factors == ()
    assert class_group_structure(QuadraticOrder(10, 1)).invariant_factors == (2,)
    assert class_group_structure(QuadraticOrder(82, 1)).invariant_factors == (4,)


def test_class_group_structure_certified_by_solution_counts():
    for D in (10, 34, 79, 82, 105, 145, 226):
        order = QuadraticOrder(D, 1)
        structure = class_group_structure(order)
        disc = order.discriminant
        data = _class_data(disc)
        wide_classes = data.classes
        principal = _principal_form(disc)
        assert data.identity == data.mul(principal, principal)

        def power(x, e):
            result = data.identity
            for _ in range(e):
                result = data.mul(result, x)
            return result

        assert solution_counts_certify(
            wide_classes, power, data.identity, structure.invariant_factors
        )


def test_invariant_factors_of_a_noncyclic_two_part():
    # p-parts of rank 2: disc 1596 and 1785 give Z/2 x Z/4, of exponent p^2,
    # so the p-th power table is iterated past its first step; disc 32009,
    # 22356 (D = 69, f = 18) and 31425 (D = 1257, f = 5) have the 3-part Z/3 x Z/3
    for D, f, factors, cyclic in [
        (399, 1, (2, 4), (8,)),
        (1785, 1, (2, 4), (8,)),
        (32009, 1, (3, 3), (9,)),
        (69, 18, (3, 3), (9,)),
        (1257, 5, (3, 6), (18,)),
    ]:
        order = QuadraticOrder(D, f)
        structure = class_group_structure(order)
        assert structure.invariant_factors == factors
        data = _class_data(order.discriminant)

        def power(x, e):
            result = data.identity
            for _ in range(e):
                result = data.mul(result, x)
            return result

        assert solution_counts_certify(data.classes, power, data.identity, factors)
        assert not solution_counts_certify(data.classes, power, data.identity, cyclic)


def test_element_power_matches_repeated_multiplication():
    # e runs past h, so the powers wrap round through the identity
    for disc in SWEEP_DISCS:
        data = _class_data(disc)
        h = len(data.classes)
        for x in data.classes:
            product = x
            for e in range(1, 2 * h + 2):
                assert _element_power(data, x, e) == product, (disc, x, e)
                product = data.mul(product, x)


def test_class_group_structure_is_deterministic():
    first = class_group_structure(QuadraticOrder(79, 1))
    second = class_group_structure(QuadraticOrder(79, 1))
    assert first == second
    assert companions_repr(79) == companions_repr(79)


def companions_repr(D):
    from qde.lattice import companion_tori

    return [str(t) for t in companion_tori(QuadraticOrder(D, 1))]


def test_desk_scale_bound_is_reported():
    with pytest.raises(DiscriminantBoundError) as info:
        class_group_structure(QuadraticOrder(10, 1), max_disc=30)
    assert info.value.bound == 30
    assert "30" in str(info.value)


def test_refusal_comes_before_any_class_data_is_built():
    # disc 399999956: its reduced forms take 40-65 ms to enumerate and its
    # class data about 85 ms in all, paid only if the bound is not checked first
    from qde.ktheory import crossed_product_k0
    from qde.predict import predict

    theta = QuadraticIrrational(0, 1, 1, 99999989)
    order = QuadraticOrder(99999989, 1)
    before = _class_data.cache_info()
    for refuse in (
        lambda: predict(theta),
        lambda: crossed_product_k0(theta),
        lambda: class_group_structure(order),
    ):
        with pytest.raises(DiscriminantBoundError, match="desk-scale bound 1000000"):
            refuse()
    assert _class_data.cache_info() == before


ONE_ORDER_THETAS = [QuadraticIrrational(0, 1, 1, 10), QuadraticIrrational(1, 1, 2, 1785)]


def _group_calls(theta):
    from qde.ktheory import crossed_product_k0
    from qde.lattice import endomorphism_ring
    from qde.predict import predict

    order = endomorphism_ring(theta)
    return {
        "class_group_structure": lambda: class_group_structure(order),
        "predict": lambda: predict(theta),
        "crossed_product_k0": lambda: crossed_product_k0(theta),
    }


@pytest.mark.parametrize("theta", ONE_ORDER_THETAS, ids=str)
def test_the_group_of_one_order_is_composed_once(theta, monkeypatch):
    # the powering tables are built by the first of the three calls, in any
    # order; the later two read the invariant factors off the cached class data
    from qde import classgroup

    powers = []

    def counting(data, x, e):
        powers.append(e)
        return _element_power(data, x, e)

    monkeypatch.setattr(classgroup, "_element_power", counting)
    group_calls = _group_calls(theta)
    for names in permutations(group_calls):
        _class_data.cache_clear()
        added = []
        for name in names:
            before = len(powers)
            group_calls[name]()
            added.append(len(powers) - before)
        assert added[0] > 0 and added[1:] == [0, 0], (names, added)


@pytest.mark.parametrize("theta", ONE_ORDER_THETAS, ids=str)
def test_a_cached_group_is_still_checked_against_the_conductor_formula(theta, monkeypatch):
    from qde import classgroup

    group_calls = _group_calls(theta)
    h = group_calls["class_group_structure"]().order
    assert "structure" in _class_data(QuadraticOrder(theta.D, 1).discriminant).__dict__
    monkeypatch.setattr(classgroup, "class_number_order", lambda order: h + 1)
    for call in group_calls.values():
        with pytest.raises(InvariantError, match=f"conductor formula value {h + 1} "):
            call()


def test_invariant_factor_errors_name_the_discriminant():
    # a wrong identity leaves no solution of x^3 = identity in Z/3 (disc 316)
    data = _class_data(316)
    wrong = next(x for x in data.classes if x != data.identity)
    with pytest.raises(InvariantError, match="not a power of 3 for discriminant 316"):
        dataclasses.replace(data, identity=wrong).structure


def test_galois_group_is_the_class_group():
    from qde.ktheory import crossed_product_k0
    from qde.lattice import companion_tori

    for D in (5, 10, 79, 82, 399):  # 399 has the noncyclic group Z/2 x Z/4
        order = QuadraticOrder(D, 1)
        theta = companion_tori(order)[0]
        assert crossed_product_k0(theta).galois_group == class_group_structure(order)


# ---------------------------------------------------------------------------
# abelian group structure type
# ---------------------------------------------------------------------------


def test_abelian_group_validation():
    assert AbelianGroupStructure(()).order == 1
    assert AbelianGroupStructure((2, 4)).order == 8
    with pytest.raises(ValueError):
        AbelianGroupStructure((1,))
    with pytest.raises(ValueError):
        AbelianGroupStructure((4, 2))  # not a divisibility chain
    with pytest.raises(ValueError):
        AbelianGroupStructure((2, 3))


def test_abelian_group_rejects_non_integer_factors():
    # int() used to truncate 2.5 to 2 and parse "4", printing Z/2 x Z/4
    with pytest.raises(TypeError):
        AbelianGroupStructure((2.5, "4"))


def _random_chain(rng):
    """A divisibility chain of at most four factors, each below 200 times the last."""
    chain, d = [], 1
    for _ in range(rng.randrange(5)):
        d *= rng.randrange(1, 200)
        if d > 1:
            chain.append(d)
    return tuple(chain)


def test_direct_sum_matches_merge_oracle(rng):
    chains = [(), (2,), (3,), (2, 2), (2, 4), (6,), (2, 6), (12,), (2, 2, 4)]
    pairs = [(c1, c2) for c1 in chains for c2 in chains]
    pairs += [(_random_chain(rng), _random_chain(rng)) for _ in range(300)]
    for c1, c2 in pairs:
        merged = AbelianGroupStructure(c1).direct_sum(AbelianGroupStructure(c2))
        assert merged.invariant_factors == merge_chains_reference(c1, c2), (c1, c2)
        assert merged.order == AbelianGroupStructure(c1).order * AbelianGroupStructure(c2).order
