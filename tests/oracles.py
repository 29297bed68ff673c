"""Independent reference implementations used to certify expected values.

Everything here deliberately avoids the code paths of the package under test:
continued fractions run on a Mobius-transform state instead of the (P, Q)
recurrence, and long periods on a full walk of that recurrence without the
half-period mirror; units come from a raw Pell-style coordinate scan or from
a norm test at every convergent instead of the end of the period, the conductor
formula runs in rationals, reduced forms come from a direct double loop over
form coefficients, narrow and wide classes from the rho reduction step on
signed forms and composition with the negated principal form, class numbers
of fields from Dirichlet's analytic formula in floats, and group structures
are checked through solution counts.  Factoring is plain trial division and
the unit index multiplies out the full powers of the unit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, isqrt, log, pi, sin, sqrt

from qde.quadratic import QuadraticIrrational


def sign_radical(u: int, v: int, D: int) -> int:
    """Sign of u*sqrt(D) + v, exactly."""
    if u == 0:
        return (v > 0) - (v < 0)
    if v == 0:
        return 1 if u > 0 else -1
    if u > 0 and v > 0:
        return 1
    if u < 0 and v < 0:
        return -1
    t = u * u * D - v * v
    if u > 0:
        return (t > 0) - (t < 0)
    return (t < 0) - (t > 0)


def _mobius_floor(p: int, q: int, r: int, s: int, D: int) -> int:
    """Floor of (p*sqrt(D) + q)/(r*sqrt(D) + s) by exact gallop plus bisection."""
    den_sign = sign_radical(r, s, D)

    def at_most(m: int) -> bool:  # m <= value
        return sign_radical(p - m * r, q - m * s, D) * den_sign >= 0

    if at_most(0):
        lo, hi = 0, 1
        while at_most(hi):
            lo, hi = hi, hi * 2
    else:
        lo, hi = -1, 0
        while not at_most(lo):
            lo, hi = lo * 2, lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if at_most(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _mobius_equal(st1, st2, D) -> bool:
    p1, q1, r1, s1 = st1
    p2, q2, r2, s2 = st2
    return (
        p1 * r2 * D + q1 * s2 == p2 * r1 * D + q2 * s1
        and p1 * s2 + q1 * r2 == p2 * s1 + q2 * r1
    )


def cf_expand_reference(theta: QuadraticIrrational) -> tuple[list[int], list[int]]:
    """Continued fraction by exact floor-and-invert iteration on Mobius states.

    State n is theta_n = (p*sqrt(D) + q)/(r*sqrt(D) + s); repetition is found
    by exact value comparison against every previous state.
    """
    D = theta.D
    state = (theta.b, theta.a, 0, theta.c)
    states = []
    quotients = []
    while True:
        for i, prev in enumerate(states):
            if _mobius_equal(state, prev, D):
                return quotients[:i], quotients[i:]
        states.append(state)
        p, q, r, s = state
        a = _mobius_floor(p, q, r, s, D)
        quotients.append(a)
        # next = 1/(theta - a)
        p2, q2 = p - a * r, q - a * s
        g = gcd(gcd(abs(r), abs(s)), gcd(abs(p2), abs(q2)))
        state = (r // g, s // g, p2 // g, q2 // g)
        if len(states) > 10000:
            raise RuntimeError("reference expansion did not become periodic")


def cf_expand_full_walk(theta: QuadraticIrrational) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Continued fraction by walking the (P, Q) recurrence over the whole period.

    The expansion without the half-period mirror: theta_n = (P_n + sqrt(N))/Q_n,
    the preperiod ends at the first reduced state and the period at the first
    return to it.  Linear in the period, so it checks periods far beyond the
    reach of cf_expand_reference.
    """
    if theta.b > 0:
        P, Q = theta.a, theta.c
    else:
        P, Q = -theta.a, -theta.c
    N = theta.b * theta.b * theta.D
    if (N - P * P) % Q:
        t = abs(Q)
        P, Q, N = P * t, Q * t, N * t * t
    s = isqrt(N)
    quotients = []
    start = first = None
    while (P, Q) != first:
        if start is None and 0 < Q and Q - s <= P <= s and s - P < Q:
            start, first = len(quotients), (P, Q)
        a = (P + s) // Q if Q > 0 else (-P - s - 1) // (-Q)
        quotients.append(a)
        P = a * Q - P
        Q, rem = divmod(N - P * P, Q)
        assert rem == 0
    return tuple(quotients[:start]), tuple(quotients[start:])


def smallest_unit_reference(D: int, y_cap: int):
    """Exhaustive scan for the smallest unit exceeding 1.

    Returns (x, y, norm) or None if no unit has omega-coordinate y <= y_cap.
    Units x + y*omega satisfy x**2 + t*x*y + n*y**2 = +-1, equivalently
    (2x + t*y)**2 = d_K*y**2 +- 4; several x can share one y, so the scan
    keeps the least x whose value still exceeds 1.
    """
    d_K = D if D % 4 == 1 else 4 * D
    t = 1 if D % 4 == 1 else 0

    def exceeds_one(x: int, y: int) -> bool:
        if t:
            return sign_radical(y, 2 * (x - 1) + y, D) > 0
        return sign_radical(y, x - 1, D) > 0

    for y in range(1, y_cap + 1):
        base = d_K * y * y
        candidates = []
        for norm in (1, -1):
            z2 = base + 4 * norm
            z = isqrt(z2)
            if z * z != z2:
                continue
            for signed in (z, -z):
                if (signed - t * y) % 2:
                    continue
                x = (signed - t * y) // 2
                if exceeds_one(x, y):
                    candidates.append((x, norm))
        if candidates:
            x, norm = min(candidates)
            return x, y, norm
    return None


def unit_by_norm_scan(D: int) -> tuple[int, int, int]:
    """The fundamental unit (x, y, norm) by a norm test at every convergent.

    Walks the convergents p/q of omega, with quotients from the textbook
    recurrence on (m + sqrt(D))/d, and returns the first candidate
    x + y*omega = p - q*conj(omega) whose norm x**2 + t*x*y + n*y**2 is +-1.
    Plain integers throughout; no period detection.
    """
    t = 1 if D % 4 == 1 else 0
    n = (1 - D) // 4 if t else -D
    r = isqrt(D)
    m, d = t, 1 + t
    p, p1, q, q1 = 1, 0, 0, 1
    while True:
        a = (m + r) // d
        p, p1 = a * p + p1, p
        q, q1 = a * q + q1, q
        x, y = p - t * q, q
        norm = x * x + t * x * y + n * y * y
        if norm in (1, -1):
            return x, y, norm
        m = a * d - m
        d = (D - m * m) // d


def legendre_by_squares(a: int, p: int) -> int:
    """Legendre symbol of an odd prime by enumerating squares mod p."""
    a %= p
    if a == 0:
        return 0
    squares = {x * x % p for x in range(1, p)}
    return 1 if a in squares else -1


def kronecker_two_by_cases(a: int) -> int:
    """The (a|2) rule as a literal case table."""
    if a % 2 == 0:
        return 0
    return 1 if a % 8 in (1, 7) else -1


def class_number_by_dirichlet(D: int) -> float:
    """The class number of Q(sqrt(D)) by Dirichlet's formula, unrounded.

    h*log(epsilon) = -1/2 * sum over 0 < a < d of (d|a)*log(sin(pi*a/d)) for
    the field discriminant d and the fundamental unit epsilon (Cohen, A Course
    in Computational Algebraic Number Theory, section 5.6).  (d|a) is totally
    multiplicative in a, so its table is built over the prime powers below d:
    the (d|2) case table at 2 and Euler's criterion at odd primes.  epsilon
    comes from unit_by_norm_scan.  Floats here only; the result is compared
    with an exact class number, never fed back into one.
    """
    d = D if D % 4 == 1 else 4 * D
    chi = [0] + [1] * (d - 1)
    composite = bytearray(d)
    for p in range(2, d):
        if composite[p]:
            continue
        composite[p * p :: p] = b"\x01" * len(range(p * p, d, p))
        if p == 2:
            symbol = kronecker_two_by_cases(d)
        else:
            r = pow(d, (p - 1) // 2, p)  # 0, 1 or p - 1
            symbol = -1 if r == p - 1 else r
        q = p
        while q < d:
            for m in range(q, d, q):
                chi[m] *= symbol
            q *= p
    x, y, _ = unit_by_norm_scan(D)
    omega = (1 + sqrt(D)) / 2 if D % 4 == 1 else sqrt(D)
    total = sum(chi[a] * log(sin(pi * a / d)) for a in range(1, d))
    return -total / (2 * log(x + y * omega))


def factorize_reference(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def unit_index_reference(D: int, f: int) -> int:
    """Least n >= 1 whose full power epsilon**n has omega-coordinate 0 mod f."""
    from qde.quadratic import fundamental_unit

    epsilon, _ = fundamental_unit(D)
    power = epsilon
    n = 1
    while power.y % f:
        power = power * epsilon
        n += 1
    return n


def conductor_formula_reference(D: int, f: int, h: int, e_f: int) -> Fraction:
    """h * (f / e_f) * prod over primes p | f of (1 - (d_K|p)/p), in rationals.

    The primes come from trial division and the symbol from a case table at 2
    and square enumeration at odd p.
    """
    d_K = D if D % 4 == 1 else 4 * D
    value = Fraction(h * f, e_f)
    for p in range(2, f + 1):
        if f % p == 0 and all(p % q for q in range(2, p)):
            symbol = kronecker_two_by_cases(d_K) if p == 2 else legendre_by_squares(d_K, p)
            value *= 1 - Fraction(symbol, p)
    return value


def reduced_forms_reference(disc: int) -> set[tuple[int, int, int]]:
    """All reduced primitive forms of a discriminant by a raw coefficient scan."""
    s = isqrt(disc)
    out = set()
    for a in range(-s, s + 1):
        if a == 0:
            continue
        for b in range(1, s + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if b * b >= disc:
                continue
            twoa = 2 * abs(a)
            if not (s - b + 1 <= twoa <= s + b):
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            out.add((a, b, c))
    return out


def _rho(form, disc: int, s: int):
    """Reduction step (a, b, c) -> (c, r, (r*r - disc)/(4c)), r = -b mod 2c.

    r lies in (-|c|, |c|] when |c| > isqrt(disc), else in (s - 2|c|, s].
    """
    _, b, c = form
    two_c = 2 * abs(c)
    lo = 1 - abs(c) if abs(c) > s else s + 1 - two_c
    r = lo + (-b - lo) % two_c
    return (c, r, (r * r - disc) // (4 * c))


def rho_reduce(form, disc: int):
    """A reduced form properly equivalent to form, by rho steps."""
    s = isqrt(disc)
    while not (0 < form[1] <= s and s - form[1] < 2 * abs(form[0]) <= s + form[1]):
        form = _rho(form, disc, s)
    return form


def rho_cycle(form) -> list[tuple[int, int, int]]:
    """The reduced cycle of a form by rho steps, rotated to its least member."""
    a, b, c = form
    disc = b * b - 4 * a * c
    s = isqrt(disc)
    out = [rho_reduce(form, disc)]
    cur = _rho(out[0], disc, s)
    while cur != out[0]:
        out.append(cur)
        cur = _rho(cur, disc, s)
    k = out.index(min(out))
    return out[k:] + out[:k]


def _dirichlet_compose(f1, f2, disc: int):
    """Dirichlet composition with d = gcd(a1, a2, (b1 + b2)/2) = u*a1 + v*a2 + w*s."""
    a1, b1, _ = f1
    a2, b2, c2 = f2
    half = (b1 + b2) // 2
    g, _, y = _ext_gcd(a1, a2)
    d, z, w = _ext_gcd(g, half)
    a = a1 * a2 // (d * d)
    b = (b2 + 2 * (a2 // d) * (z * y * (b1 - b2) // 2 - w * c2)) % (2 * abs(a))
    return (a, b, (b * b - disc) // (4 * a))


def _ext_gcd(a: int, b: int):
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def wide_classes_by_negation(disc: int):
    """Narrow and wide classes of a discriminant, the long way round.

    Narrow classes are rho cycles of the reference reduced forms, each named
    by its least form.  Wide classes are orbits of narrow classes under
    composition with the class of the negated principal form, each named by
    the lesser narrow class.  Returns (narrow_of, wide_of, identity): reduced
    form -> narrow class, narrow class -> wide class, and the wide class of
    the principal form.
    """
    narrow_of = {}
    for form in reduced_forms_reference(disc):
        if form not in narrow_of:
            cycle = rho_cycle(form)
            for member in cycle:
                narrow_of[member] = cycle[0]

    def narrow(form):
        return narrow_of[rho_reduce(form, disc)]

    s = isqrt(disc)
    b = s if (s - disc) % 2 == 0 else s - 1
    principal = (1, b, (b * b - disc) // 4)
    negated = narrow(tuple(-x for x in principal))
    wide_of = {}
    for rep in set(narrow_of.values()):
        if rep not in wide_of:
            partner = narrow(_dirichlet_compose(rep, negated, disc))
            wide_of[rep] = wide_of[partner] = min(rep, partner)
    return narrow_of, wide_of, wide_of[narrow(principal)]


def gl2_matrix_search(
    t1: QuadraticIrrational, t2: QuadraticIrrational, bound: int
) -> bool:
    """Search determinant +-1 integer matrices with t1 = (p*t2+q)/(r*t2+s)."""
    rng = range(-bound, bound + 1)
    for p, q, r, s in product(rng, rng, rng, rng):
        if p * s - q * r not in (1, -1):
            continue
        if (r, s) == (0, 0):
            continue
        if t2.mobius(p, q, r, s) == t1:
            return True
    return False


def merge_chains_reference(*chains) -> tuple[int, ...]:
    """Invariant factors of a direct sum, recomputed from prime factorizations."""
    from sympy import factorint

    primary: dict[int, list[int]] = {}
    for chain in chains:
        for d in chain:
            for prime, e in factorint(int(d)).items():
                primary.setdefault(int(prime), []).append(int(e))
    width = max((len(v) for v in primary.values()), default=0)
    out = []
    for i in range(width):
        d = 1
        for prime, exps in primary.items():
            exps = sorted(exps, reverse=True)
            if i < len(exps):
                d *= prime ** exps[i]
        out.append(d)
    return tuple(sorted(out))


def solution_counts_certify(elements, power, identity, invariant_factors) -> bool:
    """Certify claimed invariant factors by counting d-torsion for every d | n.

    A finite abelian group satisfies #{x : x**d = e} = prod_i gcd(d, d_i); the
    full vector of counts over the divisors of n determines the group.
    """
    n = len(elements)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for d in divisors:
        actual = sum(1 for x in elements if power(x, d) == identity)
        predicted = 1
        for di in invariant_factors:
            predicted *= gcd(d, di)
        if actual != predicted:
            return False
    return True


def squarefree_up_to(limit: int):
    """Squarefree integers D with 1 < D < limit."""
    from qde.quadratic import squarefree_decompose

    return [D for D in range(2, limit) if squarefree_decompose(D)[0] == 1]


def order_parameters(disc_limit: int):
    """All (D, f) with squarefree D > 1 and order discriminant f**2 * d_K < disc_limit."""
    out = []
    for D in squarefree_up_to(disc_limit):
        d_K = D if D % 4 == 1 else 4 * D
        if d_K >= disc_limit:
            continue
        f = 1
        while f * f * d_K < disc_limit:
            out.append((D, f))
            f += 1
    return out
