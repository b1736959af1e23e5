"""Exact arithmetic in the cyclotomic field Q(zeta_N) for odd N.

Character sums are stored by their phi(N) coordinates in the powerful
basis (_Basis), as integer numerators over one positive denominator: one
power basis per prime-power factor q of N, tensored, and reduced by one
fold rule per factor, so no cyclotomic polynomial is ever formed.  For N
a prime power that is the power basis 1, zeta, ..., zeta**(phi(N)-1).
The reduced form is canonical, so equality, vanishing, and unit-modulus
questions are decided exactly; CycloElement.terms() reads it back as
powers of zeta, coordinate_exponents() gives the power of zeta at each
coordinate to readers of num in bulk, and no other module knows the
basis.  Floating point appears only in the explicitly named cross-check
helpers (to_complex) and never inside a predicate.  Sign decisions for
real values sum integers: each cos(2 pi e / N) is bracketed between two
integers at the scale 2**B, from a per-process table filled one exponent
at a time (_Cosines, the only use of mpmath), and B doubles until the
bracket of the sum excludes 0, which it does once 2**B times the value
outgrows the bracket widths.

The hot zero tests skip the basis: modular_field evaluates character
sums at a primitive N-th root of unity modulo primes p = 1 (mod N), with
a modulus M larger than the coefficient weight of what is tested; a norm
argument makes that verdict exact (see _ModField for the proof).  That
route never builds a CycloElement.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, prod

from mpmath import iv

Rational = int | Fraction


class _Basis(dict):
    """The powerful basis of Q(zeta_N) and the reduced form of each power of zeta.

    Write N = q_1 * ... * q_r with q_j = p_j**k_j over the distinct primes
    p_1 < ... < p_r, w_j = N / q_j and zeta_j = zeta**w_j, a primitive
    q_j-th root of unity.  The q_j are coprime, so Q(zeta_N) is the tensor
    product of the Q(zeta_j), and the products zeta_1**i_1 * ... *
    zeta_r**i_r with i_j < phi(q_j) form its powerful basis (Lyubashevsky,
    Peikert and Regev, EUROCRYPT 2013).  Coordinate sum_j i_j * s_j, with
    s_1 = 1 and s_{j+1} = s_j * phi(q_j), holds that product, whose
    exponent is exponents[t] = sum_j i_j * w_j mod N.  Coordinate 0 is 1,
    and for N a prime power the basis is 1, zeta, ..., zeta**(phi(N)-1).

    zeta**e is the product over j of zeta_j**i_j, i_j = e / w_j mod q_j.
    On one axis, with q = p**k and s = q / p, Phi_q(x) is the sum of
    x**(b s) over b < p, so for phi(q) <= i < q one fold reduces
    zeta_j**i to minus the sum of zeta_j**(b s + i - phi(q)) over
    b < p - 1.  axes[j] holds, for each i < q_j, the reduced form of
    zeta_j**i (itself when i < phi(q_j)) as (offset, coefficient) pairs,
    the offset already times s_j: sum(q_j) entries in all.  basis[e] (0 <= e < N) is the reduced form of zeta**e,
    the product of its axis forms, filled on first use: at most
    prod(p_j - 1) pairs, and 2**r * phi(N) over all e.
    """

    def __init__(self, n: int):
        super().__init__()
        self.axes = []
        exponents = [0]
        for p in _prime_factors(n):
            q = p
            while n % (q * p) == 0:
                q *= p
            s, phi, stride, w = q // p, q - q // p, len(exponents), n // q
            table = [((i * stride, 1),) for i in range(phi)]
            table += [tuple(((b * s + i) * stride, -1) for b in range(p - 1)) for i in range(s)]
            self.axes.append((q, pow(w, -1, q), tuple(table)))
            exponents = [(e + i * w) % n for i in range(phi) for e in exponents]
        self.degree = len(exponents)
        self.exponents = tuple(exponents)

    def __missing__(self, e: int) -> tuple[tuple[int, int], ...]:
        row = ((0, 1),)
        for q, inverse, table in self.axes:
            fold = table[e * inverse % q]
            row = tuple((t + u, c * d) for t, c in row for u, d in fold)
        self[e] = row
        return row


_basis_cache: dict[int, _Basis] = {}


def _check_order(n: int) -> None:
    if n < 1:
        raise ValueError("order must be positive")
    if n % 2 == 0:
        raise ValueError("order must be odd")


def _basis(n: int) -> _Basis:
    basis = _basis_cache.get(n)
    if basis is None:
        _check_order(n)
        basis = _Basis(n)
        _basis_cache[n] = basis
    return basis


# -- certified cosine brackets -----------------------------------------------

_SIGN_BITS = 64  # the first scale 2**B that real_sign tries
_GUARD_BITS = 32  # extra working precision of the interval cosines


def _scaled_floor(endpoint: tuple, bits: int) -> int:
    """floor(x * 2**bits), exactly, for the mpmath mpf tuple (sign, man, exp, bc) of x."""
    sign, man, exp, _ = endpoint
    m = -man if sign else man
    shift = exp + bits
    return m << shift if shift >= 0 else m >> -shift


class _Cosines(dict):
    """e -> (lo, hi) with lo <= 2**bits * cos(2 pi e / order) <= hi, integers.

    Filled one exponent at a time, on first use, from the endpoints of
    mpmath's interval cosine at bits + _GUARD_BITS bits of precision: that
    interval contains cos(2 pi e / order), and lo and hi are the floor of
    its lower end and the ceiling of its upper end at the scale 2**bits,
    read exactly from their binary forms.  The interval is far narrower
    than 2**-bits at that precision, so hi - lo is at most 2.
    """

    def __init__(self, order: int, bits: int):
        super().__init__()
        self.order = order
        self.bits = bits

    def __missing__(self, e: int) -> tuple[int, int]:
        saved = iv.prec
        try:
            iv.prec = self.bits + _GUARD_BITS
            low, high = iv.cos(2 * iv.pi * e / self.order)._mpi_
        finally:
            iv.prec = saved
        sign, man, exp, bc = high
        ceiling = -_scaled_floor((not sign, man, exp, bc), self.bits)  # ceil(x) = -floor(-x)
        bounds = self[e] = (_scaled_floor(low, self.bits), ceiling)
        return bounds


_cosine_cache: dict[tuple[int, int], _Cosines] = {}


def _cosines(order: int, bits: int) -> _Cosines:
    table = _cosine_cache.get((order, bits))
    if table is None:
        table = _cosine_cache[order, bits] = _Cosines(order, bits)
    return table


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
    D(u, -v) = -D(u, v).  On the residues D(u + k, v) is a power of omega
    times D(u, v) for k in the unit-modulus set K, and D(u, v + k) = D(u, v)
    for k in its subgroup K' (engine._equation_quotient), and a power of
    omega is a unit mod M; so the pairs engine._quotient_loop_holds visits
    stand for every pair, every unit multiple of it and every K x K'
    translate of it.  The pairs it skips have both products = 0 (mod M),
    so D(u, v) = 0 (mod M) holds there too.  So with M > 2 * D1 * D2 its
    verdict is exact in both directions.

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
            return CycloElement(order, (0,) * _basis(order).degree, 1)
        return CycloElement(order, tuple(num), den)

    # -- queries -----------------------------------------------------------

    def coordinate_exponents(self) -> tuple[int, ...]:
        """The exponent of zeta at each coordinate of num, in coordinate order.

        The element is the sum of num[t] * zeta**exponents[t] over t,
        divided by den; the exponents are distinct and below order, and
        every element of Q(zeta_order) shares them.
        """
        return _basis(self.order).exponents

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) for each nonzero coordinate, by coordinate.

        The element is the sum of coefficient * zeta**exponent over these,
        divided by den; distinct coordinates have distinct exponents.
        """
        return [(e, c) for e, c in zip(_basis(self.order).exponents, self.num) if c]

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

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
        right = other.terms()
        conv = [0] * (2 * self.order - 1)
        for e, a in self.terms():
            for f, b in right:
                conv[e + f] += a * b
        return from_terms(self.order, enumerate(conv), self.den * other.den)

    __rmul__ = __mul__

    def conj(self) -> "CycloElement":
        return from_terms(self.order, [(-e, c) for e, c in self.terms()], self.den)

    # -- numeric cross-checks -------------------------------------------------

    def to_complex(self) -> complex:
        """Float evaluation at zeta = exp(2*pi*i/order); never used in predicates."""
        step = 2.0 * cmath.pi / self.order
        total = 0j
        for e, c in self.terms():
            total += c * cmath.exp(1j * step * e)
        return total / self.den

    def real_sign(self) -> int:
        """Exact sign of a real value (-1, 0, or 1), on integers.

        A real value is den**-1 times S, the sum of c * cos(2 pi e / order)
        over its terms.  With lo <= 2**B cos(2 pi e / order) <= hi from the
        cosine table at scale B (_Cosines), 2**B S lies between the sum of
        c * lo (c > 0) and c * hi (c < 0), and the sum of c * hi (c > 0) and
        c * lo (c < 0); once that bracket lies wholly on one side of 0 it
        gives the sign.  Otherwise B doubles, from _SIGN_BITS.  is_zero is
        exact and decided first, so S != 0, and the loop ends: the bracket
        is at most 2 * sum(|c|) wide while 2**B |S| grows without bound.
        """
        if not self.is_real():
            raise ValueError("value is not real")
        if self.is_zero():
            return 0
        terms = self.terms()
        bits = _SIGN_BITS
        while True:
            cosines = _cosines(self.order, bits)
            low = high = 0
            for e, c in terms:
                lo, hi = cosines[e]
                if c > 0:
                    low += c * lo
                    high += c * hi
                else:
                    low += c * hi
                    high += c * lo
            if low > 0:
                return 1
            if high < 0:
                return -1
            bits *= 2


def from_terms(order: int, terms, den: int = 1) -> CycloElement:
    """Sum of num * zeta**exponent monomials, reduced to canonical form."""
    basis = _basis(order)
    vec = [0] * basis.degree
    for e, c in terms:
        if c:
            for t, r in basis[e % order]:
                vec[t] += c * r
    return CycloElement._make(order, vec, den)


def from_rational(order: int, value: Rational) -> CycloElement:
    q = Fraction(value)
    vec = [0] * _basis(order).degree
    vec[0] = q.numerator
    return CycloElement._make(order, vec, q.denominator)

