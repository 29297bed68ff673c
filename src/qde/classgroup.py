"""Class numbers and class groups of real quadratic orders.

The computational backbone is reduction theory for indefinite binary quadratic
forms, run on the continued-fraction recurrence of quadratic._pq_steps: the
form (a, b, c) has the state (P, Q) = (b, 2|c|).  A form and its sign twin
(-a, b, -c) share a state, so each cycle of reduced states is one wide
(ordinary) class; no narrow-to-wide collapse is needed.  Narrow classes, which
only reduce_cycle and compose return, are the signed form cycles over the
states.  Classes are composed by the general Dirichlet composition formula
(any signs, any common divisor of the leading coefficients).  One cached
object per discriminant holds the wide classes, the identity and, once
composed, the invariant factors.  All arithmetic is exact and pure Python:
the reduced states, one per pair of sign twins, come from the divisors of
m(b) = (disc - b^2)/4 in a window, for each middle coefficient b.  Small
discriminants try each candidate divisor; larger ones factor every m(b) at
once with a sieve over b, by the roots of b^2 = disc modulo each prime.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from math import gcd, isqrt, lcm, prod

from . import quadratic
from .errors import DiscriminantBoundError, InvariantError
from .lattice import QuadraticOrder
from .quadratic import _is_reduced_state, _pq_steps, fundamental_unit, kronecker

__all__ = [
    "BinaryQuadraticForm",
    "AbelianGroupStructure",
    "reduce_cycle",
    "compose",
    "class_number_maximal",
    "unit_index",
    "class_number_order",
    "class_group_structure",
    "DEFAULT_MAX_DISC",
]

#: Default desk-scale ceiling for discriminants in brute-force group computations.
DEFAULT_MAX_DISC = 10**6

_Form = tuple[int, int, int]
_State = tuple[int, int]  # (P, Q) = (b, 2|c|) of the forms (a, b, c) and (-a, b, -c)


@dataclass(frozen=True)
class BinaryQuadraticForm:
    """Integral binary quadratic form a*x^2 + b*x*y + c*y^2 of positive discriminant."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        for name in ("a", "b", "c"):
            quadratic._check_int(name, getattr(self, name))
        _check_disc(self.discriminant)  # b^2 - 4ac is always 0 or 1 mod 4

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def content(self) -> int:
        return gcd(gcd(self.a, self.b), self.c)

    @property
    def is_primitive(self) -> bool:
        return self.content == 1

    def as_tuple(self) -> _Form:
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Finite abelian group given by its invariant factors d1 | d2 | ... | dr."""

    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "invariant_factors", tuple(map(operator.index, self.invariant_factors))
        )
        for d in self.invariant_factors:
            if d < 2:
                raise ValueError(f"invariant factors must be >= 2, got {d}")
        for x, y in zip(self.invariant_factors, self.invariant_factors[1:]):
            if y % x:
                raise ValueError(
                    f"invariant factors {self.invariant_factors} do not form a divisibility chain"
                )

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    def direct_sum(self, other: "AbelianGroupStructure") -> "AbelianGroupStructure":
        """The direct sum, its invariant factors merged by _chain with no factoring."""
        return _chain(self.invariant_factors + other.invariant_factors)

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


def _chain(orders: list[int] | tuple[int, ...]) -> AbelianGroupStructure:
    """The product of cyclic groups of the given orders, as d1 | d2 | ... without 1s.

    Each pair (x, y), x the earlier entry, becomes (gcd(x, y), lcm(x, y)), which
    keeps the Smith normal form (Cohen, A Course in Computational Algebraic Number
    Theory, section 2.4.4); after its pairs, entry i divides every later one.
    """
    d = list(orders)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return AbelianGroupStructure(tuple(x for x in d if x > 1))


# ---------------------------------------------------------------------------
# reduction theory on raw (a, b, c) tuples
# ---------------------------------------------------------------------------
#
# The form (a, b, c) starts the recurrence quadratic._pq_steps at the state
# (P, Q) = (b, 2|c|) of (b + sqrt(disc))/(2|c|).  A step to (P', Q') is the
# reduction step to the form (c, P', -k*Q'/2), where k = sign(c) at the start
# and is negated at every step, because Q' = -4*c*c'/Q.  A form is reduced
# exactly when its state is, since |a| and |c| lie in the same window.


def _state_form(P: int, Q: int, k: int, disc: int) -> _Form:
    """The form (a, P, k*Q/2) with a = -k*(disc - P^2)/(2Q), of state (P, Q)."""
    return (-k * (disc - P * P) // (2 * Q), P, k * Q // 2)


def _reduce(form: _Form, disc: int, s: int) -> tuple[int, int, int]:
    """The first reduced state (P, Q) of the form's recurrence, with its sign k.

    _state_form(P, Q, k, disc) is then a reduced form properly equivalent to
    the input.
    """
    _, b, c = form
    k = 1 if c > 0 else -1
    if _is_reduced_state(b, 2 * k * c, s):
        return b, 2 * k * c, k
    fuel = 4 * max(abs(form[0]), abs(c)).bit_length() + 64
    for _, P, Q in _pq_steps(b, 2 * k * c, disc):
        k = -k
        if _is_reduced_state(P, Q, s):
            return P, Q, k
        fuel -= 1
        if fuel < 0:
            raise InvariantError(f"reduction of {form} at discriminant {disc} did not terminate")


def _cycle(form: _Form, disc: int) -> list[_Form]:
    """The reduced forms properly equivalent to form, from the least one on.

    They come in reduction order.  The cycle is as long as its state cycle,
    or twice as long when that is odd and returns with k negated, at the sign
    twin.
    """
    P, Q, k = _reduce(form, disc, _check_disc(disc))
    start = _state_form(P, Q, k, disc)
    out = [start]
    for _, P, Q in _pq_steps(P, Q, disc):
        k = -k
        nxt = _state_form(P, Q, k, disc)
        if nxt == start:
            break
        out.append(nxt)
    i = out.index(min(out))
    return out[i:] + out[:i]


def _check_disc(disc: int) -> int:
    if disc <= 0:
        raise ValueError(f"discriminant must be positive, got {disc}")
    if disc % 4 not in (0, 1):
        raise ValueError(f"{disc} is not 0 or 1 mod 4")
    s = isqrt(disc)
    if s * s == disc:
        raise ValueError(f"discriminant {disc} is a perfect square")
    return s


# Below this discriminant trying every candidate divisor is faster than the
# sieve; above it the sieve wins by a factor that grows like sqrt(disc).  The
# two break even between 2e5 and 2.5e5 on random discriminants (Python 3.11,
# x86-64; the bands are in CHANGES.md).
_SIEVE_FROM = 250_000


def _enumerate_reduced(disc: int) -> list[_State]:
    """The reduced states of the given discriminant, each exactly once.

    Each state (P, Q) = (b, 2|c|) stands for the two reduced primitive forms
    (a, b, c) and (-a, b, -c), the sign twins a*c = -(disc - b^2)/4 allows.

    A reduced form (a, b, c) has 0 < b <= s = isqrt(disc), and both |a| and
    |c| lie in the window (s - b)/2 < |a|, |c| <= (s + b)/2, with
    |a*c| = m = (disc - b^2)/4.  So for each b the lesser of |a| and |c| is a
    divisor d of m in [(s - b)//2 + 1, isqrt(m)]: isqrt(m) <= s//2 never
    exceeds the top of the window, and the cofactor d <= m // d <
    m / ((sqrt(disc) - b)/2) = (sqrt(disc) + b)/2 lies inside it.  Each such
    d gives the state (b, 2*(m // d)) of the forms with |a| = d and, unless
    d = m // d, the state (b, 2*d) of those with |c| = d.  The divisors are
    found by trial below _SIEVE_FROM and by the sieve above; both list the
    states in the same order.
    """
    if disc < _SIEVE_FROM:
        return _scan_reduced(disc)
    return _sieve_reduced(disc)


def _scan_reduced(disc: int) -> list[_State]:
    """The reduced states, by trying every candidate divisor in each window."""
    s = _check_disc(disc)
    out: list[_State] = []
    for b in range(2 - (disc & 1), s + 1, 2):
        m = (disc - b * b) // 4
        for d in [d for d in range((s - b) // 2 + 1, isqrt(m) + 1) if not m % d]:
            c = m // d
            if gcd(gcd(d, b), c) == 1:
                out.append((b, 2 * c))
                if c != d:
                    out.append((b, 2 * d))
    return out


def _sieve_reduced(disc: int) -> list[_State]:
    """The reduced states, from a factorisation of every m(b) by a sieve over b.

    With b = b0 + 2i, an odd prime p divides m(b) exactly when b is a root of
    b^2 = disc (mod p), so on at most two progressions i = i0 (mod p); p = 2
    is read off each m's low bits.  Dividing out every prime p <= s//2 leaves
    a cofactor whose primes all exceed s//2 >= isqrt(m), so no window divisor
    shares a factor with it: the window divisors are those of the sieved part.
    The lists are O(sqrt(disc)) long.
    """
    s = _check_disc(disc)
    b0 = 2 - (disc & 1)
    ms = [(disc - b * b) // 4 for b in range(b0, s + 1, 2)]
    factors = [[2] * ((m & -m).bit_length() - 1) for m in ms]  # primes with multiplicity
    rest = [m >> len(f) for m, f in zip(ms, factors)]
    n = len(ms)
    for p in _primes_upto(s // 2)[1:]:
        t = _sqrt_mod(disc, p)
        if t is None:
            continue
        half = (p + 1) // 2  # inverse of 2 mod p
        for i0 in {(t - b0) * half % p, (-t - b0) * half % p}:  # one if p | disc
            for i in range(i0, n, p):
                r = rest[i] // p
                fac = factors[i]
                fac.append(p)
                while not r % p:
                    r //= p
                    fac.append(p)
                rest[i] = r
    out: list[_State] = []
    for i, (m, r, fac) in enumerate(zip(ms, rest, factors)):
        b = b0 + 2 * i
        lo = (s - b) // 2 + 1
        if m // r < lo:  # the sieved part is below the window
            continue
        hi = isqrt(m)
        divisors = [1]
        prev = start = 0
        for p in fac:  # a repeated p only extends the divisors its last copy made
            if p != prev:
                prev, start = p, 0
            new = [d * p for d in divisors[start:] if d * p <= hi]
            start = len(divisors)
            divisors += new
        for d in sorted([d for d in divisors if d >= lo]):  # the scan's order
            c = m // d
            if gcd(gcd(d, b), c) == 1:
                out.append((b, 2 * c))
                if c != d:
                    out.append((b, 2 * d))
    return out


def _primes_upto(n: int) -> list[int]:
    """The primes p <= n, by the sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), sieve))


def _sqrt_mod(a: int, p: int) -> int | None:
    """A root of x^2 = a (mod p) for an odd prime p, or None if a is a non-residue.

    Tonelli-Shanks (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 1.5.1): with p - 1 = q*2^e, q odd, x = a^((q+1)/2) is a root up to
    the factor t = a^q, whose order 2^i is cut down by powers of c, a
    generator of the 2-Sylow subgroup.  Order 2^e itself means a non-residue.
    """
    a %= p
    if a == 0:
        return 0
    q, e = p - 1, 0
    while not q & 1:
        q >>= 1
        e += 1
    x, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
    if e == 1:
        return x if t == 1 else None
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        if i == e:
            return None
        g = pow(c, 1 << (e - i - 1), p)
        x, c = x * g % p, g * g % p
        t, e = t * c % p, i
    return x


# ---------------------------------------------------------------------------
# composition and the class-group object
# ---------------------------------------------------------------------------


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _compose_raw(f1: _Form, f2: _Form, disc: int) -> _Form:
    """Dirichlet composition of two primitive forms of one discriminant.

    With s = (b1 + b2)/2 and u*a1 + v*a2 + w*s = d = gcd(a1, a2, s), the
    composite is (a1*a2/d^2, b3, c3) where
    b3 = b2 + 2*(a2/d)*(v*(b1 - b2)/2 - w*c2) mod 2|a3| and
    c3 = (b3^2 - disc)/(4*a3).  No sign or coprimality condition is placed on
    the inputs (Cohen, A Course in Computational Algebraic Number Theory,
    Lemma 5.4.5 and Alg. 5.4.7; Buchmann-Vollmer, Binary Quadratic Forms,
    ch. 6).
    """
    a1, b1, _ = f1
    a2, b2, c2 = f2
    s = (b1 + b2) // 2
    g, _, y = _ext_gcd(a1, a2)  # x*a1 + y*a2 = g
    d, z, w = _ext_gcd(g, s)  # z*g + w*s = d, so u = z*x, v = z*y; the sign of d cancels
    v = z * y
    a = a1 * a2 // (d * d)
    b = (b2 + 2 * (a2 // d) * (v * (b1 - b2) // 2 - w * c2)) % (2 * abs(a))
    c, rem = divmod(b * b - disc, 4 * a)
    if rem:
        raise InvariantError(f"composition of {f1} and {f2} lost integrality")
    return (a, b, c)


def _principal_form(disc: int) -> _Form:
    s = isqrt(disc)
    b = s if (s - disc) % 2 == 0 else s - 1
    return (1, b, (b * b - disc) // 4)


@dataclass(frozen=True)
class _ClassData:
    """The wide classes of one discriminant, as cycles of reduced states.

    Each cycle of states (P, Q) = (b, 2|c|) of reduced forms under the
    continued-fraction recurrence is one wide class, named by its least
    reduced form with a > 0: the minimum over its states of
    ((disc - P^2)/(2Q), P, -Q/2).  The principal form (1, b, (b^2 - disc)/4)
    is the only reduced form with a = 1, so classes[0] is the identity.
    """

    disc: int
    wide_of: dict[_State, _Form]  # reduced state -> its wide class
    classes: tuple[_Form, ...]             # the wide classes, sorted
    identity: _Form                        # wide class of the principal form
    odd: bool                              # odd cycles: narrow and wide classes coincide

    def mul(self, x: _Form, y: _Form) -> _Form:
        """Wide class of the composite of x and y."""
        P, Q, _ = _reduce(_compose_raw(x, y, self.disc), self.disc, isqrt(self.disc))
        return self.wide_of[(P, Q)]

    @cached_property
    def structure(self) -> AbelianGroupStructure:
        """Invariant factors from the p-adic valuations v_k of #{x : x**(p**k) = 1}.

        v_k - v_(k-1) counts the cyclic p-parts of order >= p^k, so the i-th
        largest, i < v_1, has order p^#{k : v_k - v_(k-1) > i}.  Composed on
        first use and kept with the classes.
        """
        elements = self.classes
        n = len(elements)
        orders: list[int] = []
        for p in quadratic._factorize(n):
            # x**(p**k) is one lookup from x**(p**(k-1)) in the table of p-th powers
            power = {x: _element_power(self, x, p) for x in elements}
            current = elements
            valuations = [0]
            while True:
                k = len(valuations)
                current = [power[x] for x in current]
                count = current.count(self.identity)
                v = 0
                while count and count % p == 0:
                    count //= p
                    v += 1
                if count != 1:
                    raise InvariantError(
                        f"solution count of x^{p}^{k} is not a power of {p} "
                        f"for discriminant {self.disc}"
                    )
                if v == valuations[-1]:
                    break
                valuations.append(v)
            steps = [b - a for a, b in zip(valuations, valuations[1:])]
            orders += [p ** sum(s > i for s in steps) for i in range(max(steps, default=0))]
        structure = _chain(orders)
        if structure.order != n:
            raise InvariantError(
                f"reconstructed group order {structure.order} does not match element "
                f"count {n} for discriminant {self.disc}"
            )
        return structure


def _element_power(data: _ClassData, x: _Form, e: int) -> _Form:
    """The class x**e for e >= 1, by left-to-right binary powering from x."""
    result = x
    for bit in bin(e)[3:]:
        result = data.mul(result, result)
        if bit == "1":
            result = data.mul(result, x)
    return result


@lru_cache(maxsize=4096)
def _class_data(disc: int) -> _ClassData:
    """Class data of the discriminant, from the state cycles of its reduced forms.

    The one object per discriminant holds the wide classes, each named by its
    least reduced form with a > 0 (so classes[0] is the identity), and, once
    composed, the invariant factors.  A form and its sign twin (-a, b, -c)
    share a state, and the state cycle through them is the union of their
    narrow classes: one wide class.  The form cycle is twice the state cycle
    exactly when the state cycle is odd, and then the twins are narrowly
    equivalent.  All cycles of one discriminant have the same parity; odd
    cycles mean narrow = wide, i.e. a unit of norm -1 in the order.
    """
    wide_of: dict[_State, _Form] = {}
    parities = set()
    for start in _enumerate_reduced(disc):
        if start in wide_of:
            continue
        cycle = [start]
        for _, P, Q in _pq_steps(*start, disc):
            if (P, Q) == start:
                break
            cycle.append((P, Q))
        name = min(_state_form(P, Q, -1, disc) for P, Q in cycle)
        for state in cycle:
            wide_of[state] = name
        parities.add(len(cycle) % 2)
    if len(parities) != 1:
        raise InvariantError(f"state cycles of discriminant {disc} have mixed parity")
    _, b, c = _principal_form(disc)
    classes = tuple(sorted(set(wide_of.values())))
    return _ClassData(disc, wide_of, classes, wide_of[(b, -2 * c)], parities == {1})


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def reduce_cycle(form: BinaryQuadraticForm) -> list[BinaryQuadraticForm]:
    """The full cycle of reduced forms equivalent to the input.

    The cycle is returned in reduction order, rotated to start from its
    lexicographically least member.
    """
    if not form.is_primitive:
        raise ValueError(f"form {form} is imprimitive (content {form.content})")
    return [BinaryQuadraticForm(*f) for f in _cycle(form.as_tuple(), form.discriminant)]


def compose(f: BinaryQuadraticForm, g: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Gauss composition of primitive forms of one discriminant.

    The result is the canonical reduced representative of the product class:
    the least form of its cycle.
    """
    if f.discriminant != g.discriminant:
        raise ValueError(
            f"discriminants differ: {f.discriminant} vs {g.discriminant}"
        )
    if not (f.is_primitive and g.is_primitive):
        raise ValueError("composition needs primitive forms")
    disc = f.discriminant
    raw = _compose_raw(f.as_tuple(), g.as_tuple(), disc)
    return BinaryQuadraticForm(*_cycle(raw, disc)[0])


def class_number_maximal(D: int) -> int:
    """Wide class number of the field Q(sqrt(D)).

    Counts the state cycles of the field discriminant.  The norm of the
    fundamental unit is a cross-check: it is -1 exactly when the cycles are
    odd (narrow = wide).  The unit search checks D before class data is built.
    """
    _, norm = fundamental_unit(D)
    data = _class_data(quadratic._field_discriminant(D))
    if data.odd != (norm == -1):
        raise InvariantError(
            f"state cycles are {'odd' if data.odd else 'even'} although "
            f"N(epsilon) = {norm:+d} for D={D}"
        )
    return len(data.classes)


def unit_index(order: QuadraticOrder) -> int:
    """Least n >= 1 with epsilon**n in Z + f*O_k (epsilon the fundamental unit).

    The powers are multiplied as coordinates (x, y) mod f, since the product
    of x + y*omega has integer coefficients and the test is y = 0 (mod f).
    The index divides the order of the unit group of O_k/(f), so it is at
    most f**2; the search fails loudly past that bound.
    """
    D, f = order.D, order.f
    epsilon, _ = fundamental_unit(D)
    t, nrm = epsilon.omega_trace, epsilon.omega_norm  # omega**2 = t*omega - nrm
    ex, ey = epsilon.x % f, epsilon.y % f
    x, y = ex, ey
    for n in range(1, f * f + 1):
        if y == 0:
            return n
        x, y = (x * ex - nrm * y * ey) % f, (x * ey + y * ex + t * y * ey) % f
    raise InvariantError(f"unit index for D={D}, f={f} exceeded the bound {f * f}")


def class_number_order(order: QuadraticOrder) -> int:
    """Class number of the order by the conductor formula, in integers.

    h_order = h * psi(f) / e_f with psi(f) = f * prod over p | f of
    (p - (d_K|p))/p, where the symbol is the Kronecker symbol of the field
    discriminant; psi(f) is an integer because each p divides f.  The result
    is checked to be a positive integer and a multiple of h.
    """
    D, f = order.D, order.f
    h = class_number_maximal(D)
    e_f = unit_index(order)
    d_K = quadratic._field_discriminant(D)
    psi = f
    for p in quadratic._factorize(f):
        psi = psi // p * (p - kronecker(d_K, p))
    h_order, rem = divmod(h * psi, e_f)
    if rem or h_order <= 0:
        raise InvariantError(
            f"conductor formula gave a non-integral or non-positive value "
            f"{h * psi}/{e_f} for D={D}, f={f}"
        )
    if h_order % h:
        raise InvariantError(
            f"conductor formula value {h_order} is not a multiple of h = {h} for D={D}, f={f}"
        )
    return h_order


def _check_bound(D: int, f: int, max_disc: int | None) -> None:
    """Refuse Z + f*O_k of Q(sqrt(D)) above the desk-scale bound, before D is factored."""
    bound = DEFAULT_MAX_DISC if max_disc is None else max_disc
    disc = f * f * quadratic._field_discriminant(D)
    if disc > bound:
        raise DiscriminantBoundError(disc, bound)


def _class_group(order: QuadraticOrder, max_disc: int | None) -> _ClassData:
    """The cached class data of the order, on the one checked path to it.

    The bound is checked before any class data is built, and the composed
    group order against class_number_order on every call, cached or not.
    """
    _check_bound(order.D, order.f, max_disc)
    data = _class_data(order.discriminant)
    h = data.structure.order
    expected = class_number_order(order)
    if h != expected:
        raise InvariantError(
            f"composition group order {h} disagrees with the conductor "
            f"formula value {expected} for {order}"
        )
    return data


def class_group_structure(
    order: QuadraticOrder, max_disc: int | None = None
) -> AbelianGroupStructure:
    """Invariant factors of the class group, from brute-force composition.

    Enumerates every reduced form of the discriminant, groups their states
    into wide classes, and reads the group structure off composition.  The
    cached class data of the discriminant holds the wide classes, the identity
    and, once composed, the invariant factors, so a repeat call composes
    nothing; the bound and the conductor formula are checked on every call.
    Bounded by a desk-scale discriminant ceiling (DEFAULT_MAX_DISC unless
    overridden).
    """
    return _class_group(order, max_disc).structure
