"""Exact arithmetic in the cyclotomic field Q(zeta_N) for odd N.

Character sums are stored by their coordinates in the power basis
1, zeta, ..., zeta**(phi(N)-1), as integer numerators over one positive
denominator, reduced modulo the N-th cyclotomic polynomial.  The reduced
form is canonical, so equality, vanishing, and unit-modulus questions are
decided exactly; floating point appears only in the explicitly named
cross-check helpers (to_complex) and never inside a predicate.  Sign
decisions for real values use rigorous interval refinement, which
terminates because a nonzero algebraic number is bounded away from zero.

The hot zero tests skip the power basis: modular_field evaluates
character sums at a primitive N-th root of unity modulo primes
p = 1 (mod N), with a modulus M larger than the coefficient weight of
what is tested; a norm argument makes that verdict exact (see _ModField
for the proof).  That route never builds the cyclotomic polynomial.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, prod

from mpmath import iv

Rational = int | Fraction


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # Coefficient lists low -> high; the divisor is monic, division is exact.
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            j = i - dn
            out[j] = c
            for t in range(dn + 1):
                num[j + t] -= c * den[t]
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


_phi_cache: dict[int, tuple[int, ...]] = {}


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low to high."""
    if n in _phi_cache:
        return _phi_cache[n]
    if n == 1:
        poly = (-1, 1)
    else:
        acc = [-1] + [0] * (n - 1) + [1]  # x**n - 1
        for d in _divisors(n):
            if d < n:
                acc = _poly_div_exact(acc, list(cyclotomic_polynomial(d)))
        poly = tuple(acc)
    _phi_cache[n] = poly
    return poly


class _Ring:
    """Precomputed reduction data for Q(zeta_N).

    rows[e - degree] lists the nonzero (t, c) of the reduced form of
    zeta**e, degree <= e < N, so a reduction touches only nonzero entries
    (at N = 315, 19 of 144 on average).
    """

    def __init__(self, n: int):
        phi = cyclotomic_polynomial(n)
        self.order = n
        self.degree = len(phi) - 1
        base = [-c for c in phi[: self.degree]]  # x**degree reduced
        rows: list[tuple[tuple[int, int], ...]] = []
        cur = base
        for _ in range(self.degree, n):
            rows.append(tuple((t, c) for t, c in enumerate(cur) if c))
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [a + top * b for a, b in zip(cur, base)]
        self.rows = tuple(rows)


_ring_cache: dict[int, _Ring] = {}


def _check_order(n: int) -> None:
    if n < 1:
        raise ValueError("order must be positive")
    if n % 2 == 0:
        raise ValueError("order must be odd")


def _ring(n: int) -> _Ring:
    ring = _ring_cache.get(n)
    if ring is None:
        _check_order(n)
        ring = _Ring(n)
        _ring_cache[n] = ring
    return ring


# -- certified modular evaluation --------------------------------------------

# Miller-Rabin with these bases is deterministic below 3.18e23
# (Sorenson and Webster, 2015), far above every modulus prime used here.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_CEILING = 1 << 62


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _prime_below(n: int, ceiling: int) -> int:
    """Largest prime p = 1 (mod n) below ceiling (n odd, so p = 1 (mod 2n))."""
    p = (ceiling - 2) // (2 * n) * (2 * n) + 1
    while not _is_prime(p):
        p -= 2 * n
        if p <= n:
            raise ArithmeticError(f"no prime = 1 (mod {n}) below {ceiling}")
    return p


def _root_of_order(n: int, p: int, factors: list[int]) -> int:
    """An element of order exactly n modulo the prime p = 1 (mod n)."""
    for base in range(2, p):
        w = pow(base, (p - 1) // n, p)
        if pow(w, n, p) == 1 and all(pow(w, n // q, p) != 1 for q in factors):
            return w
    raise ArithmeticError(f"no element of order {n} modulo {p}")


class _ModField:
    """Z/MZ, M a product of primes p = 1 (mod N), with omega of order N mod each p.

    Evaluating Z[zeta_N] at omega decides exact zero tests on character
    sums.  Write c for a unit mod N and sigma_c for the automorphism
    zeta -> zeta**c, so sigma_c(a) evaluated at omega is a evaluated at
    omega**c.  Each p is prime to N and = 1 (mod N), so it is unramified
    and splits completely in Q(zeta_N) (Washington, Introduction to
    Cyclotomic Fields, ch. 2): the prime ideals above p are the kernels of
    the phi(N) maps zeta -> omega**c into Z/pZ.

    Take a = sum of c_e zeta**e with integers c_e whose absolute sum is at
    most w.

    - If a(omega**c) = 0 (mod p) for every unit c, then a lies in every
      prime above p, hence in their product pZ[zeta]; over the distinct
      p | M, a lies in MZ[zeta], so a = M b with b in Z[zeta].
    - If b != 0, N(b) is a nonzero integer and N(a) = M**phi(N) N(b), so
      |N(a)| >= M**phi(N).
      Every embedding of a has absolute value at most w, so
      |N(a)| <= w**phi(N) (Neukirch, Algebraic Number Theory, ch. I, sec. 2).
    - So if M > w and a = 0 (mod M) on every conjugate, a = 0 exactly;
      a nonzero residue always means a != 0.

    Applied to character sums, with masses a_x / D: sigma_c maps f(y) to
    f(c y).  One value f(y) has weight D, so f(y) = 0 exactly when its
    residue vanishes on the whole unit orbit of y (codes y' with
    gcd(y', N) = gcd(y, N)); that needs M > D.  A zero test over a
    union of unit orbits, such as the complement of a subgroup, needs no
    more.  For the dual equation, D(u, v) = f(u + v) g(u + beta v) -
    f(u - v) g(u - beta v) has weight 2 * D1 * D2 once scaled, beta
    commutes with scalars so sigma_c D(u, v) = D(c u, c v), and
    D(u, -v) = -D(u, v); the pairs first_equation_violation visits stand
    for every pair and every unit multiple of it.  The pairs it skips have
    both products = 0 (mod M), so D(u, v) = 0 (mod M) holds there too.  So
    with M > 2 * D1 * D2 its verdict is exact in both directions.

    modular_field(order, weight) returns a field with M > weight, adding
    primes below 2**62 as needed.
    """

    def __init__(self, order: int, primes: tuple[int, ...]):
        self.primes = primes
        self.modulus = prod(primes)
        factors = _prime_factors(order)
        root = 0
        for p in primes:
            if p >= 1 << 62 or (p - 1) % order or not _is_prime(p):
                raise ArithmeticError(f"{p} is not a prime = 1 (mod {order}) below 2**62")
            rest = self.modulus // p
            root += _root_of_order(order, p, factors) * rest * pow(rest, -1, p)
        self.root = root % self.modulus
        powers = [1]
        for _ in range(order - 1):
            powers.append(powers[-1] * self.root % self.modulus)
        self.powers = powers  # powers[k] = omega**k mod M


_field_cache: dict[int, _ModField] = {}


def modular_field(order: int, weight: int) -> _ModField:
    """The cached field for Q(zeta_order), grown until its modulus exceeds weight.

    weight bounds the absolute sum of the integer coefficients of whatever
    is tested for zero; see _ModField for why that makes the test exact.
    """
    field = _field_cache.get(order)
    if field is None:
        _check_order(order)
        field = _ModField(order, (_prime_below(order, _PRIME_CEILING),))
    while field.modulus <= weight:
        field = _ModField(order, field.primes + (_prime_below(order, field.primes[-1]),))
    _field_cache[order] = field
    return field


@dataclass(frozen=True)
class CycloElement:
    """An element of Q(zeta_order) in canonical reduced form."""

    order: int
    num: tuple[int, ...]
    den: int

    # -- construction -----------------------------------------------------

    @staticmethod
    def _make(order: int, num: list[int], den: int) -> "CycloElement":
        if den <= 0:
            raise ValueError("denominator must be positive")
        g = reduce(gcd, num, den)
        if g > 1:
            den //= g
            num = [c // g for c in num]
        if not any(num):
            return CycloElement(order, (0,) * _ring(order).degree, 1)
        return CycloElement(order, tuple(num), den)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return Fraction(self.num[0], self.den)

    def is_unit_modulus(self) -> bool:
        return (self * self.conj()).is_one()

    def is_real(self) -> bool:
        return self == self.conj()

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "CycloElement":
        if isinstance(other, CycloElement):
            if other.order != self.order:
                raise ValueError("order mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return from_rational(self.order, other)
        return NotImplemented

    def __add__(self, other) -> "CycloElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        num = [x * db + y * da for x, y in zip(self.num, other.num)]
        return CycloElement._make(self.order, num, da * db)

    __radd__ = __add__

    def __neg__(self) -> "CycloElement":
        return CycloElement(self.order, tuple(-c for c in self.num), self.den)

    def __sub__(self, other) -> "CycloElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "CycloElement":
        return (-self) + other

    def __mul__(self, other) -> "CycloElement":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            num = [c * q.numerator for c in self.num]
            return CycloElement._make(self.order, num, self.den * q.denominator)
        if not isinstance(other, CycloElement):
            return NotImplemented
        if other.order != self.order:
            raise ValueError("order mismatch")
        deg = _ring(self.order).degree
        a, b = self.num, other.num
        conv = [0] * (2 * deg - 1) if deg > 1 else [0]
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return from_terms(self.order, enumerate(conv), self.den * other.den)

    __rmul__ = __mul__

    def conj(self) -> "CycloElement":
        n = self.order
        terms = [((n - e) % n, c) for e, c in enumerate(self.num) if c]
        return from_terms(n, terms, self.den)

    # -- numeric cross-checks -------------------------------------------------

    def to_complex(self) -> complex:
        """Float evaluation at zeta = exp(2*pi*i/order); never used in predicates."""
        step = 2.0 * cmath.pi / self.order
        total = 0j
        for e, c in enumerate(self.num):
            if c:
                total += c * cmath.exp(1j * step * e)
        return total / self.den

    def real_sign(self) -> int:
        """Exact sign of a real value via interval refinement (-1, 0, or 1)."""
        if not self.is_real():
            raise ValueError("value is not real")
        if self.is_zero():
            return 0
        saved = iv.dps
        try:
            iv.dps = 30
            while True:
                two_pi = 2 * iv.pi
                total = iv.mpf(0)
                for e, c in enumerate(self.num):
                    if c:
                        total += c * iv.cos(two_pi * e / self.order)
                if total.a > 0:
                    return 1
                if total.b < 0:
                    return -1
                iv.dps *= 2
        finally:
            iv.dps = saved


def from_terms(order: int, terms, den: int = 1) -> CycloElement:
    """Sum of num * zeta**exponent monomials, reduced to canonical form."""
    ring = _ring(order)
    deg, n, rows = ring.degree, ring.order, ring.rows
    vec = [0] * deg
    for e, c in terms:
        if not c:
            continue
        e %= n
        if e < deg:
            vec[e] += c
        else:
            for t, r in rows[e - deg]:
                vec[t] += c * r
    return CycloElement._make(order, vec, den)


def from_rational(order: int, value: Rational) -> CycloElement:
    q = Fraction(value)
    ring = _ring(order)
    vec = [0] * ring.degree
    vec[0] = q.numerator
    return CycloElement._make(order, vec, q.denominator)


def zero(order: int) -> CycloElement:
    return from_rational(order, 0)


def one(order: int) -> CycloElement:
    return from_rational(order, 1)

