"""Exact arithmetic for real quadratic irrationals.

Values (a + b*sqrt(D))/c are kept in a canonical form (D squarefree, gcd(a,b,c)=1,
c > 0, b != 0) so that equality of values is field-by-field equality.  Every
algorithm in this module runs on unbounded integers; no floating point is used
anywhere.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from math import gcd, isqrt

from .errors import (
    FieldMismatchError,
    InvariantError,
    ParseError,
    RationalValueError,
)

__all__ = [
    "QuadraticIrrational",
    "ContinuedFraction",
    "QuadraticInteger",
    "parse_theta",
    "cf_expand",
    "cf_value",
    "fundamental_unit",
    "kronecker",
    "gl2z_equivalent",
    "squarefree_decompose",
]


# Trial division runs up to this bound; a cofactor below its square is prime.
_TRIAL_BOUND = 1000
# The first 13 primes: a strong probable prime to all of them is prime below
# 3.3 * 10^24 (Sorenson-Webster 2015), and probably prime above.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, primes ascending.

    Trial division by d < _TRIAL_BOUND, then Miller-Rabin and Pollard-Brent
    rho on the cofactor left over.
    """
    out: dict[int, int] = {}
    d = 2
    while d < _TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    todo = [n] if n > 1 else []
    while todo:
        n = todo.pop()
        if n < _TRIAL_BOUND**2 or _is_probable_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            p = _rho_factor(n)
            todo += (p, n // p)
    return dict(sorted(out.items()))


def _is_probable_prime(n: int) -> bool:
    """Strong probable-prime test of odd n > 41 to every base in _MR_BASES."""
    q, e = n - 1, 0
    while not q & 1:
        q >>= 1
        e += 1
    for a in _MR_BASES:
        x = pow(a, q, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(e - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of an odd composite n, by Pollard-Brent rho.

    Brent's cycle search on x -> x^2 + c (mod n) from x = 2, taking the gcd of
    a product of 128 differences at a time and backtracking one step at a time
    when that gcd is n (Brent 1980; Cohen, A Course in Computational Algebraic
    Number Theory, section 8.5).  A c whose cycle closes mod n is replaced by
    c + 1.
    """
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


@lru_cache(maxsize=1024)
def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n >= 1 as s**2 * r with r squarefree; return (s, r).

    Cached, so the constructor checks of values in one field factor D once.
    """
    _check_int("n", n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    s = r = 1
    for p, e in _factorize(n).items():
        s *= p ** (e // 2)
        if e % 2:
            r *= p
    return s, r


def _check_int(name: str, n: object) -> None:
    """Refuse anything but an int; a bool is not taken for one."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"{name} must be an int, got {n!r}")


def _check_radicand(D: object) -> None:
    """Refuse any radicand D but a squarefree int > 1."""
    _check_int("D", D)
    if D <= 1 or squarefree_decompose(D)[0] != 1:
        raise ValueError(f"D must be squarefree and > 1, got {D}")


def _field_discriminant(D: int) -> int:
    """Discriminant d_K of Q(sqrt(D)) for squarefree D > 1.

    The only test of D mod 4: omega = (t + sqrt(d_K))/2 with t = d_K & 1.
    """
    return D if D % 4 == 1 else 4 * D


@dataclass(frozen=True)
class QuadraticIrrational:
    """The real quadratic irrational (a + b*sqrt(D))/c in canonical form.

    Canonical means: D squarefree and > 1, c > 0, b != 0, gcd(a, b, c) = 1.
    Instances are immutable; two instances are equal exactly when they denote
    the same real number.
    """

    a: int
    b: int
    c: int
    D: int

    def __post_init__(self):
        for name in ("a", "b", "c"):
            _check_int(name, getattr(self, name))
        _check_radicand(self.D)
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.b == 0:
            raise RationalValueError("b = 0 makes the value rational")
        if gcd(gcd(self.a, self.b), self.c) != 1:
            raise ValueError(f"({self.a}, {self.b}, {self.c}) is not gcd-reduced")

    @classmethod
    def canonical(cls, a: int, b: int, c: int, radicand: int) -> "QuadraticIrrational":
        """Canonicalize (a + b*sqrt(radicand))/c.

        Square factors of the radicand are absorbed into b, the sign of c is
        fixed positive and the triple is gcd-reduced.  Raises
        RationalValueError if the value is rational (radicand a perfect square,
        or b = 0).
        """
        if c == 0:
            raise ValueError("denominator c must be nonzero")
        if radicand < 0:
            raise ValueError(f"radicand must be nonnegative, got {radicand}")
        if radicand == 0:
            raise RationalValueError("sqrt(0) is rational")
        s, d = squarefree_decompose(radicand)
        if d == 1:
            raise RationalValueError(
                f"{radicand} is a perfect square, the value is rational"
            )
        b = b * s
        if b == 0:
            raise RationalValueError("zero radical coefficient, the value is rational")
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(gcd(a, b), c)
        return cls(a // g, b // g, c // g, d)

    def minimal_polynomial(self) -> tuple[int, int, int]:
        """Primitive integral minimal polynomial A*x^2 + B*x + C with A > 0."""
        A = self.c * self.c
        B = -2 * self.a * self.c
        C = self.a * self.a - self.b * self.b * self.D
        g = gcd(gcd(A, B), C)
        return A // g, B // g, C // g

    def discriminant(self) -> int:
        """Discriminant of the minimal polynomial (equals f**2 * d_K)."""
        A, B, C = self.minimal_polynomial()
        return B * B - 4 * A * C

    def mobius(self, p: int, q: int, r: int, s: int) -> "QuadraticIrrational":
        """Apply the fractional-linear map x -> (p*x + q)/(r*x + s) exactly."""
        a, b, c = self.a, self.b, self.c
        # numerator (pa+qc) + pb*sqrt(D), denominator (ra+sc) + rb*sqrt(D)
        u, v = p * a + q * c, p * b
        w, z = r * a + s * c, r * b
        e = w * w - z * z * self.D
        if e == 0:
            raise ValueError("map sends the value to infinity (zero denominator)")
        a2 = u * w - v * z * self.D
        b2 = v * w - u * z
        if b2 == 0:
            raise RationalValueError("degenerate map produced a rational value")
        return QuadraticIrrational.canonical(a2, b2, e, self.D)

    def __str__(self) -> str:
        if self.b == 1:
            rad = f"sqrt({self.D})"
        elif self.b == -1:
            rad = f"-sqrt({self.D})"
        else:
            rad = f"{self.b}*sqrt({self.D})"
        if self.a == 0:
            body = rad
        elif self.b < 0:
            body = f"{self.a}-{rad[1:]}"
        else:
            body = f"{self.a}+{rad}"
        if self.c == 1:
            return body
        return f"({body})/{self.c}"


@dataclass(frozen=True)
class ContinuedFraction:
    """Eventually periodic continued fraction with minimal preperiod and period.

    The first preperiod quotient may be any integer (not a bool); all later
    quotients are >= 1.  The period is nonempty.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        for name in ("preperiod", "period"):
            quotients = tuple(getattr(self, name))
            types = set(map(type, quotients))
            if bool in types:
                raise TypeError(f"{name} quotients must be integers, not bools")
            if types != {int}:
                quotients = tuple(map(operator.index, quotients))
            object.__setattr__(self, name, quotients)
        if not self.period:
            raise ValueError("period must be nonempty")
        if min(self.period) < 1:
            raise ValueError(f"period quotients must be >= 1, got {self.period}")
        if min(self.preperiod[1:], default=1) < 1:
            raise ValueError(
                f"preperiod quotients after the first must be >= 1, got {self.preperiod}"
            )
        # a shorter repeating block divides k, so it divides k // p for a prime p | k
        k = len(self.period)
        for p in _factorize(k):
            if self.period == self.period[: k // p] * p:
                raise ValueError(f"period {self.period} is a repetition of a shorter block")
        if self.preperiod and self.preperiod[-1] == self.period[-1]:
            raise ValueError(
                "preperiod is not minimal: its last quotient can be rotated into the period"
            )

    def __str__(self) -> str:
        return f"preperiod={list(self.preperiod)} period={list(self.period)}"


@dataclass(frozen=True)
class QuadraticInteger:
    """Element x + y*omega of the ring of integers of Q(sqrt(D)).

    omega is sqrt(D) for D = 2, 3 (mod 4) and (1 + sqrt(D))/2 for D = 1 (mod 4).
    """

    x: int
    y: int
    D: int

    def __post_init__(self):
        _check_int("x", self.x)
        _check_int("y", self.y)
        _check_radicand(self.D)

    @property
    def omega_trace(self) -> int:
        """Trace t of omega: 1 for D = 1 (mod 4), else 0."""
        return _field_discriminant(self.D) & 1

    @property
    def omega_norm(self) -> int:
        """Norm of omega, (t - d_K)/4: (1 - D)/4 for D = 1 (mod 4), else -D."""
        return (self.omega_trace - _field_discriminant(self.D)) // 4

    def norm(self) -> int:
        t, n = self.omega_trace, self.omega_norm
        return self.x * self.x + t * self.x * self.y + n * self.y * self.y

    def to_irrational(self) -> QuadraticIrrational:
        """The value x + y*omega as a QuadraticIrrational (requires y != 0)."""
        t = self.omega_trace
        return QuadraticIrrational.canonical((1 + t) * self.x + t * self.y, self.y, 1 + t, self.D)

    def exceeds_one(self) -> bool:
        """Exact test for x + y*omega > 1."""
        # (1 + t)*(x + y*omega - 1) = p + q*sqrt(D), and u -> u*|u| keeps signs
        # and order, so p + q*sqrt(D) > 0 exactly when p*|p| + q*|q|*D > 0
        t = self.omega_trace
        p, q = (1 + t) * (self.x - 1) + t * self.y, self.y
        return p * abs(p) + q * abs(q) * self.D > 0

    def __str__(self) -> str:
        omega = f"(1+sqrt({self.D}))/2" if self.omega_trace else f"sqrt({self.D})"
        return f"{self.x} + {self.y}*{omega}"


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------


def _pq_steps(P: int, Q: int, N: int):
    """Run the continued-fraction recurrence of theta_0 = (P + sqrt(N))/Q.

    Needs Q | N - P*P and N not a square.  Yields (a_n, P_{n+1}, Q_{n+1}) for
    n = 0, 1, ...: the partial quotient of theta_n and the state of
    theta_{n+1} = 1/(theta_n - a_n) = (P_{n+1} + sqrt(N))/Q_{n+1}.
    """
    s = isqrt(N)
    while True:
        if Q > 0:
            a = (P + s) // Q
        else:
            a = (-P - s - 1) // (-Q)
        P = a * Q - P
        Q_next, rem = divmod(N - P * P, Q)
        if rem:
            raise InvariantError(
                "continued-fraction state recurrence lost exactness at "
                f"P={a * Q - P}, Q={Q}, N={N}"
            )
        Q = Q_next
        yield a, P, Q


def _is_reduced_state(P: int, Q: int, s: int) -> bool:
    """Whether (P + sqrt(N))/Q, s = isqrt(N), is reduced: > 1, conjugate in (-1, 0)."""
    return 0 < Q and Q - s <= P <= s and s - P < Q


def cf_expand(theta: QuadraticIrrational) -> ContinuedFraction:
    """Expand theta into its periodic continued fraction.

    The expansion runs the integer recurrence on states (P, Q) with
    theta_n = (P_n + sqrt(N))/Q_n, N fixed.  By Galois's theorem theta_n has a
    purely periodic expansion exactly when it is reduced (theta_n > 1 and
    -1 < conj(theta_n) < 0), so the minimal preperiod ends at the first
    reduced state S_0 and the minimal period k at the first return to it.

    A symmetric cycle is walked only halfway.  rho(P, Q) = (P, (N - P*P)/Q)
    sends theta to -1/conj(theta), which by Galois's theorem expands to the
    reversed cycle: rho(S_{j+1}) = (P_{j+1}, Q_j), the state whose quotients
    are a_j, a_{j-1}, ...  So the step S_j -> S_{j+1} is a center of the
    cycle when Q_{j+1} = Q_j (S_{j+1} is fixed by rho: c = 2j+1) or when
    P_{j+1} = P_j (rho swaps S_j and S_{j+1}: c = 2j), and a center c means
    a_{c-i} = a_i for every i.  Two mirror symmetries compose to a shift by
    their distance, and a shift of the minimal period is a multiple of k,
    so the second center is c + k.  The walk starts one step early, at the
    step into S_0 read off rho(S_0) = (P_0, Q_{-1}), stops at the second
    center or at the return to S_0, whichever comes first, and mirrors the
    quotients it walked into the rest of the period.  The mirrored
    quotients are exact because they are quotients of the same cycle; an
    asymmetric cycle has no center and is walked in full.  _pq_steps checks
    every walked step for exactness.  Only the quotients are stored.
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
    steps = _pq_steps(P, Q, N)
    quotients: list[int] = []
    while not _is_reduced_state(P, Q, s):
        a, P, Q = next(steps)
        quotients.append(a)
    start, P0, Q0 = len(quotients), P, Q
    # rho(S_0) = (P_0, Q_{-1}) steps with quotient a_{-1} to rho(S_{-1}) = (P_{-1}, Q_{-2})
    Q_prev = (N - P * P) // Q
    a, P_prev, _ = next(_pq_steps(P, Q_prev, N))
    quotients.append(a)  # a_{-1}
    center = -2 if P_prev == P else -1 if Q_prev == Q else None
    for a, P1, Q1 in steps:
        quotients.append(a)
        if P1 == P0 and Q1 == Q0:
            break
        if P1 == P or Q1 == Q:
            j = len(quotients) - start - 2
            c = 2 * j + (P1 != P)
            if center is not None:
                # a_i = a_{c-i} for j < i < k = c - center, read from a_{-1}..a_j
                quotients += quotients[start + center + 2 : start + c - j + 1][::-1]
                break
            center = c
        P, Q = P1, Q1
    return ContinuedFraction(tuple(quotients[:start]), tuple(quotients[start + 1 :]))


def _convergent_matrix(quotients) -> tuple[int, int, int, int]:
    """Product of [[a, 1], [1, 0]] over the quotients, as (p, p', q, q')."""
    p, p1, q, q1 = 1, 0, 0, 1
    for a in quotients:
        p, p1 = a * p + p1, p
        q, q1 = a * q + q1, q
    return p, p1, q, q1


def cf_value(cf: ContinuedFraction) -> QuadraticIrrational:
    """The exact quadratic irrational whose expansion is cf.

    Inverse of cf_expand: the purely periodic tail y solves the fixed-point
    quadratic of the period matrix, and the preperiod acts on y as a
    fractional-linear map.
    """
    pk, pk1, qk, qk1 = _convergent_matrix(cf.period)
    # y = (pk*y + pk1)/(qk*y + qk1)  =>  qk*y^2 + (qk1 - pk)*y - pk1 = 0.
    # The matrix coefficients are a huge multiple of the primitive minimal
    # polynomial (the content is the automorph coordinate), so primitivize
    # before touching the discriminant.
    g = gcd(gcd(qk, qk1 - pk), pk1)
    A, B = qk // g, (qk1 - pk) // g
    C = -(pk1 // g)
    disc = B * B - 4 * A * C
    if disc <= 0 or isqrt(disc) ** 2 == disc:
        raise RationalValueError(
            f"period {cf.period} has a rational fixed point (discriminant {disc})"
        )
    y = QuadraticIrrational.canonical(-B, 1, 2 * A, disc)
    if not cf.preperiod:
        return y
    p, p1, q, q1 = _convergent_matrix(cf.preperiod)
    return y.mobius(p, p1, q, q1)


def gl2z_equivalent(t1: QuadraticIrrational, t2: QuadraticIrrational) -> bool:
    """Whether t1 = (p*t2 + q)/(r*t2 + s) for some integer matrix with det +-1.

    Decided through the continued fractions: the two values are equivalent
    exactly when their expansions share a tail, i.e. when the minimal periods
    are cyclic rotations of each other.
    """
    if t1.D != t2.D:
        raise FieldMismatchError(
            f"values live in different fields Q(sqrt({t1.D})) and Q(sqrt({t2.D}))"
        )
    text1, text2 = ("".join(f"{a:x}," for a in cf_expand(t).period) for t in (t1, t2))
    # of equal length, a comma-led match in text2 twice over is a rotation
    return len(text1) == len(text2) and "," + text1 in "," + text2 * 2


# ---------------------------------------------------------------------------
# fundamental units
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def fundamental_unit(D: int) -> tuple[QuadraticInteger, int]:
    """Smallest unit epsilon > 1 of the ring of integers of Q(sqrt(D)).

    Returns (epsilon, norm) with norm in {+1, -1}.  The unit is read off the
    period of omega = (P_0 + sqrt(D))/Q_0: every unit exceeding 1 is
    p - q*conj(omega) for a convergent p/q of omega, and the candidate of
    convergent k has norm +-Q_{k+1}/Q_0.  So the first candidate of norm +-1
    is the one at the first step where Q returns to Q_0, the end of the
    period that cf_expand walks.  _convergent_matrix builds it once from the
    quotients up to there, and its norm and size are checked exactly.

    >>> print(*fundamental_unit(10))
    3 + 1*sqrt(10) -1
    """
    _check_radicand(D)
    d = _field_discriminant(D)
    t = d & 1
    cf = cf_expand(QuadraticIrrational(t, 1, 1 + t, D))
    k = len(cf.period)
    # log(epsilon) < sqrt(d)*(log(d)/2 + 1) for the field discriminant d (Hua)
    # and q_k >= Fibonacci(k + 1), so the period is shorter than this limit
    limit = (isqrt(d) + 1) * (d.bit_length() + 3)
    if k > limit:
        raise InvariantError(f"no unit found within {limit} convergents for D={D}")
    p, _, q, _ = _convergent_matrix((cf.preperiod + cf.period)[:k])
    unit = QuadraticInteger(p - t * q, q, D)
    norm = unit.norm()
    if norm not in (1, -1) or not unit.exceeds_one():
        raise InvariantError(f"the period end for D={D} is not a unit > 1")
    return unit, norm


# ---------------------------------------------------------------------------
# Kronecker symbol
# ---------------------------------------------------------------------------


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n); restricts to Jacobi/Legendre for odd n > 0.

    >>> kronecker(5, 11)
    1
    >>> kronecker(5, 2)
    -1
    >>> kronecker(10, 5)
    0
    """
    if n == 0:
        raise ValueError("Kronecker symbol needs n != 0")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# expression parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(sqrt)|([+\-*/()])|(\S))")
# Python's default int-to-str limit.  A longer integer literal is refused
# before int() sees it, so neither its conversion nor its factoring is paid.
_MAX_DIGITS = 4300


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        if m.group(1) is not None:
            if len(m.group(1)) > _MAX_DIGITS:
                raise ParseError(
                    f"integer literal of {len(m.group(1))} digits exceeds {_MAX_DIGITS}",
                    m.start(1),
                )
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("sqrt", "sqrt", m.start(2)))
        elif m.group(3) is not None:
            tokens.append((m.group(3), m.group(3), m.start(3)))
        else:
            raise ParseError(f"unexpected character {m.group(4)!r}", m.start(4))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for theta expressions.

    Grammar (whitespace-insensitive between tokens):

        expr     := "(" sum ")" "/" posint | sum
        sum      := signedint (("+" | "-") radical)? | sign? radical
        radical  := (posint "*"?)? "sqrt" "(" posint ")"
        signedint:= sign? posint
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def next(self) -> tuple[str, object, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, object, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def parse(self) -> tuple[int, int, int, int]:
        """Return (a, b, c, radicand) for (a + b*sqrt(radicand))/c, unreduced."""
        if self.peek() == "(":
            self.next()
            a, b, rad = self.parse_sum()
            self.expect(")")
            self.expect("/")
            tok = self.expect("int")
            c = tok[1]
            if c == 0:
                raise ParseError("denominator must be nonzero", tok[2])
        else:
            a, b, rad = self.parse_sum()
            c = 1
        self.expect("end")
        return a, b, c, rad

    def parse_sum(self) -> tuple[int, int, int]:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.next()[0] == "-" else 1
        if self.peek() == "sqrt":
            return 0, sign, self.parse_radical()
        value = sign * self.expect("int")[1]
        if self.peek() in ("*", "sqrt"):
            # the integer was a radical coefficient, as in 2*sqrt(3)
            return 0, value, self.parse_radical()
        if self.peek() in ("+", "-"):
            b = -1 if self.next()[0] == "-" else 1
            if self.peek() == "int":
                b *= self.expect("int")[1]
            return value, b, self.parse_radical()
        return value, 0, 0

    def parse_radical(self) -> int:
        """The radicand of ``"*"? "sqrt" "(" posint ")"``."""
        if self.peek() == "*":
            self.next()
        self.expect("sqrt")
        self.expect("(")
        rad_tok = self.expect("int")
        self.expect(")")
        if rad_tok[1] < 2:
            raise ParseError(f"radicand must be >= 2, got {rad_tok[1]}", rad_tok[2])
        return rad_tok[1]


def parse_theta(text: str) -> QuadraticIrrational:
    """Parse an expression like ``(1+sqrt(5))/2`` into canonical form.

    Accepted shapes: ``sqrt(D)``, ``B*sqrt(D)``, ``A+B*sqrt(D)``,
    ``A-B*sqrt(D)`` and any of these wrapped as ``( ... )/C``.  Square factors
    of the radicand are absorbed into the coefficient; rational values are
    rejected.
    """
    parser = _Parser(text)
    a, b, c, rad = parser.parse()
    if b == 0:
        raise RationalValueError(f"{text!r} denotes a rational number")
    return QuadraticIrrational.canonical(a, b, c, rad)
