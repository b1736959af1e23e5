"""Exact rational probability distributions on the model groups.

A distribution is a finitely supported probability mass function with
strictly positive rational masses summing to one.  It is stored on CRT
codes (GroupSpec.crt): a common denominator D and the pairs (code, a) of
its support in element order, each with mass a / D.  The stored form is
canonical (D is the least common denominator), so equality is structural
and every theorem-level conclusion is an exact identity.  The integer
constructors (convolve, shift, reflect, haar) and Fourier inversion
build codes directly, and a character table is a DualFunction indexed by
dual code that records its distribution.  Coordinate tuples and
Fractions appear only at the edges: in the masses view, in from_pmf,
which the tuple-keyed API uses, and in dual_function, the one reader of
an element-keyed table.  Files are read and written on codes
(serialize).

The unit-modulus predicate is decided combinatorially (a character sum
has modulus one exactly when the pairing is constant on the support); the
cyclotomic route is kept as a cross-check.  The character-sum zero tests
(one side of the dual-route Haar-factor test, and the nonvanishing
hypothesis of the corollaries) are decided on integers, by pushing the
numerators forward to each quotient Z(m) and folding them along its CRT
axes (char_fn_zero_classes).  Residues modulo primes that split
completely in the cyclotomic field, with a modulus certified large
enough for the verdict to be exact, serve the dual equation, there and
in the lemma verifiers, which also decide their other identities on the
residues of character tables (char_residues).

Quantities that depend on one distribution only (its code -> numerator
map, residues, zero classes and translation stabilizer, and its canonical
shift into each subgroup, for engine) are memoized on it, as plain
attributes filled on first use; a translate built from it (shift, and
engine's canonical shift) and its reflection start with its stabilizer
and zero classes.
"""

from __future__ import annotations

import itertools
import operator
import struct
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm, prod

from . import cyclotomic
from .cyclotomic import CycloElement
from .errors import VerificationFailure
from .groups import Element, GroupSpec, Subgroup, generated_by_codes


@dataclass(frozen=True)
class Distribution:
    """Mass a / den at each (code, a) of points, in element order (spec.crt_rank).

    Every a is positive, the a sum to den, and gcd(den, *a) == 1.
    """

    spec: GroupSpec
    den: int
    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.spec.exponent
        rank = self.spec.crt_rank
        if self.den < 1:
            raise ValueError("den must be positive")
        total = 0
        common = self.den
        prev = -1
        for r, a in self.points:
            if not 0 <= r < n:
                raise ValueError(f"{r!r} is not a code of {self.spec.describe()}")
            if rank[r] <= prev:
                raise ValueError("masses must be sorted by element with no duplicates")
            prev = rank[r]
            if a <= 0:
                raise ValueError("masses must be strictly positive")
            total += a
            common = gcd(common, a)
        if total != self.den:
            raise ValueError(f"total mass is {Fraction(total, self.den)}, expected 1")
        if common != 1:
            raise ValueError("den must be the least common denominator of the masses")

    @cached_property
    def masses(self) -> tuple[tuple[Element, Fraction], ...]:
        """(element, mass) pairs in element order."""
        return tuple((self.spec.element(r), Fraction(a, self.den)) for r, a in self.points)

    # Memos of quantities that depend on the distribution alone, each
    # filled on first use by the function named beside it.  They are plain
    # class attributes, not fields, so ==, hash and the writers ignore
    # them; an instance attribute shadows the None default once filled.
    _numerators = None  # numerator_map: code -> a
    _residues = None  # char_residues: field -> residue function
    _zero_classes = None  # char_fn_zero_classes
    _stabilizer = None  # stabilizer_index
    _shifts = None  # engine._canonical_shift: sub.index -> [x, lam, mu == shift(lam, x)]


def _memo(mu: Distribution, name: str, value):
    """Store value as mu's memo name and return it (mu is frozen)."""
    object.__setattr__(mu, name, value)
    return value


def numerator_map(mu: Distribution) -> dict[int, int]:
    """code -> a for each (code, a) of mu.points, memoized on mu."""
    found = mu._numerators
    return _memo(mu, "_numerators", dict(mu.points)) if found is None else found


def _canonical(
    spec: GroupSpec, den: int, points: Mapping[int, int] | Iterable[tuple[int, int]]
) -> Distribution:
    """The distribution with mass a / den at each code -> a (a mapping or
    (code, a) pairs, codes distinct): codes sorted by element, den and
    every a divided by their gcd."""
    masses = dict(points)
    codes = sorted(masses, key=spec.crt_rank.__getitem__)
    common = gcd(den, *masses.values())
    if common > 1:
        den //= common
        masses = {r: a // common for r, a in masses.items()}
    return Distribution(spec, den, tuple(zip(codes, map(masses.__getitem__, codes))))


def from_pmf(spec: GroupSpec, pmf) -> Distribution:
    """Build a distribution from any element -> mass mapping (reduces keys)."""
    acc: dict[int, Fraction] = {}
    for x, m in pmf.items() if isinstance(pmf, dict) else pmf:
        m = Fraction(m)
        if m == 0:
            continue
        r = spec.crt(spec.reduce(x))
        acc[r] = acc.get(r, Fraction(0)) + m
    den = lcm(*(m.denominator for m in acc.values()))
    return _canonical(spec, den, ((r, m.numerator * (den // m.denominator)) for r, m in acc.items()))


def degenerate(spec: GroupSpec, x: Element) -> Distribution:
    return Distribution(spec, 1, ((spec.crt(spec.reduce(x)), 1),))


def haar(sub: Subgroup) -> Distribution:
    """Uniform distribution on a subgroup: mass 1 / |sub| at each of its codes."""
    return Distribution(sub.spec, sub.order, tuple((r, 1) for r in sub.codes))


def convolve(mu: Distribution, nu: Distribution) -> Distribution:
    """mu * nu, on the stabilizer quotient of the operand with the smaller
    stabilizer index d (stabilizer_index).  With d = N the quotient is
    Z(N) itself and this is the double loop over the two supports, which a
    point-mass operand takes with no index computed: its product is a
    translate, at |supp| steps.

    Let mu be invariant under H = dZ(N), d | N, with numerator a_x at x.
    Its support is a union of H-cosets, the classes r mod d, and a_x is one
    numerator m(r) on the class of x (0 on a class that misses the
    support).  The numerator of mu * nu at z is
    sum_x a_x b_(z - x) = sum_(r < d) m(r) sum_(x = r mod d) b_(z - x),
    and as x runs over the class r, z - x runs over the class z - r, so
    the inner sum is P(z - r mod d), with P(s) the sum of the b_y over
    y = s (mod d), the pushforward of nu to Z(d).  So the numerator at z is
    the convolution of m with P on Z(d), taken at z mod d: mu * nu is
    invariant under H too, and is that value on each class.  It costs
    |supp nu| steps for P and one per pair of a class of mu and a class
    that P meets, in place of |supp mu| |supp nu|; every numerator is a
    sum of positive products, so no class it meets is zero.  Convolution
    commutes, so the operand with the smaller d plays mu.
    """
    if mu.spec != nu.spec:
        raise ValueError("spec mismatch")
    spec = mu.spec
    n = spec.exponent
    den = mu.den * nu.den
    d = n
    if min(len(mu.points), len(nu.points)) > 1:  # else mu * nu is a translate
        if stabilizer_index(nu) < stabilizer_index(mu):
            mu, nu = nu, mu
        d = stabilizer_index(mu)
    classes = mu.points  # (r, m(r)) for each class of Z(d) that meets mu
    pushed = nu.points  # (s, P(s)) for each class of Z(d) that P meets
    if d < n:  # at d = N both are the operands' own points
        classes = {x % d: a for x, a in mu.points}.items()
        sums: dict[int, int] = {}
        for y, b in nu.points:
            s = y % d
            sums[s] = sums.get(s, 0) + b
        pushed = sums.items()
    quotient: dict[int, int] = {}
    for r, a in classes:
        for s, b in pushed:
            c = (r + s) % d
            quotient[c] = quotient.get(c, 0) + a * b
    if d < n:  # each class of Z(d) to its N / d codes
        quotient = {c + i: v for i in range(0, n, d) for c, v in quotient.items()}
    return _canonical(spec, den, quotient)


def reflect(mu: Distribution) -> Distribution:
    """x -> mu(-x), carrying mu's filled stabilizer and zero-class memos.

    nu(r + h) = mu(-r - h) equals nu(r) = mu(-r) at every r exactly when
    mu is invariant under -h, that is under h, as the stabilizer is a
    subgroup.  The character sum of nu at y is the complex conjugate of
    mu's, the masses being real, so it vanishes exactly where mu's does.
    So both memos hold for nu as they stand (_carry_memos).
    """
    n = mu.spec.exponent
    return _carry_memos(mu, _canonical(mu.spec, mu.den, (((n - r) % n, a) for r, a in mu.points)))


def shift(mu: Distribution, x: Element) -> Distribution:
    spec = mu.spec
    return _translate(mu, spec.crt(spec.reduce(x)))


def _translate(mu: Distribution, c: int) -> Distribution:
    """mu shifted by the code c, carrying mu's filled stabilizer and zero-class memos.

    A translate nu(r) = mu(r - c) has the same translation stabilizer:
    nu(r + h) = mu(r - c + h) equals nu(r) = mu(r - c) at every r exactly
    when mu(r + h) = mu(r) at every r.  Its character sum is
    zeta**(s c y) times mu's at each y, a unit factor, so it has the same
    zeros and the same zero classes.  So both memos hold for the translate
    as they stand (_carry_memos).
    """
    spec = mu.spec
    n = spec.exponent
    return _carry_memos(mu, _canonical(spec, mu.den, (((r + c) % n, a) for r, a in mu.points)))


def _carry_memos(mu: Distribution, nu: Distribution) -> Distribution:
    """nu, given mu's filled stabilizer and zero-class memos, for an nu that
    has both the stabilizer and the zero classes of mu (a translate or the
    reflection); the zero-class dict, which callers only read, is shared."""
    for name in ("_stabilizer", "_zero_classes"):
        value = getattr(mu, name)
        if value is not None:
            _memo(nu, name, value)
    return nu


def _pair_terms(mu: Distribution) -> list[tuple[int, int]]:
    """(s * x mod N, a) for each (x, a) of mu.points, s = spec.crt_pair_unit:
    the character sum of mu at the dual code y is the sum of
    a * zeta**(s * x * y) over these, divided by mu.den."""
    n = mu.spec.exponent
    s = mu.spec.crt_pair_unit
    return [(s * x % n, a) for x, a in mu.points]


def char_fn(mu: Distribution, y: Element) -> CycloElement:
    """The character sum of mu at the dual element y, exactly."""
    c = mu.spec.crt(y)
    return cyclotomic.from_terms(mu.spec.exponent, [(t * c, a) for t, a in _pair_terms(mu)], mu.den)


@dataclass(frozen=True)
class DualFunction:
    """A total table on the dual group, valued in Q(zeta_N) or in Q.

    values[r] is the value at the dual element with CRT code r.
    distribution is the distribution whose character table this is, set by
    char_fn_table and lemmas.squared_modulus_table; a table built from
    values (dual_function, with_value) has none.  margin is the mu whose
    |char_fn(mu)|**2 the table is, with distribution mu * reflect(mu).  It
    is not a constructor argument: only _squared_modulus sets it, for
    lemmas.squared_modulus_table, and that table builds its values,
    char_fn_table(distribution).values, on first read.  Neither field is
    part of ==, hash or repr, so a table compares by its values, and
    reading those builds them.  The lemma verifiers decide the identities
    of two tables that carry their distributions on residues, and take
    what a margin settles on integers without checking it against the
    values (lemmas), arguments that hold for such tables only.
    """

    spec: GroupSpec
    values: tuple
    distribution: Distribution | None = field(default=None, compare=False, repr=False)
    margin: Distribution | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.values) != self.spec.exponent:
            raise ValueError("table must cover every dual element")

    @classmethod
    def _squared_modulus(cls, margin: Distribution, distribution: Distribution) -> "DualFunction":
        """The table of |char_fn(margin)|**2, whose distribution is
        margin * reflect(margin), with its values not yet built."""
        table = object.__new__(cls)
        object.__setattr__(table, "spec", margin.spec)
        object.__setattr__(table, "distribution", distribution)
        object.__setattr__(table, "margin", margin)
        return table

    def __getattr__(self, name: str):
        # Reached only for attributes the instance lacks: the values of a
        # table of _squared_modulus before their first read.
        if name != "values" or self.margin is None:
            raise AttributeError(name)
        values = char_fn_table(self.distribution).values
        object.__setattr__(self, "values", values)
        return values

    def __call__(self, y: Element):
        return self.values[self.spec.require_code(y)]

    def with_value(self, y: Element, value) -> "DualFunction":
        updated = list(self.values)
        updated[self.spec.require_code(y)] = value
        return DualFunction(self.spec, tuple(updated))


def dual_function(spec: GroupSpec, mapping) -> DualFunction:
    """The table of an element -> value mapping keyed by exactly the dual elements."""
    mapping = dict(mapping)
    elements = list(map(spec.element, range(spec.exponent)))  # by code
    if mapping.keys() != set(elements):
        raise ValueError("table must cover every dual element")
    return DualFunction(spec, tuple(map(mapping.__getitem__, elements)))


def char_fn_table(mu: Distribution) -> DualFunction:
    """char_fn(mu, y) at every dual code y, with mu as its distribution; the
    pair terms are formed once."""
    n = mu.spec.exponent
    terms = _pair_terms(mu)
    values = (cyclotomic.from_terms(n, [(t * y, a) for t, a in terms], mu.den) for y in range(n))
    return DualFunction(mu.spec, tuple(values), mu)


def char_residues(mu: Distribution, field) -> Callable[[int], int]:
    """y -> D * char_fn(mu, y) at zeta = field.root, mod field.modulus, on CRT codes.

    With masses a_x / D this is the sum of a_x * omega**(s * x * y mod N),
    s = spec.crt_pair_unit.  The caller picks the field for the bound its
    zero test needs (cyclotomic._ModField).  The function is memoized on
    mu, keyed by the field object, and keeps every residue it computes, so
    each residue of mu is computed at most once per field for the life of
    mu, however many instances or zero tests share mu.  Codes are computed
    one at a time, at |supp| terms each, and kept in a dict, which is all
    that a pair refuted at its first few values needs.  Past that window
    the next code asked for fills the whole code-indexed list by
    _residue_table, the only N-sized allocation of the memo, at
    |supp| + d * sum(gcd(q_j, d)) terms at most, d = stabilizer_index(mu)
    (_table_cost).  The window is sum(q_j) codes, or fewer once the codes
    read cost as much as that table (_lazy_window): a margin
    read widely then pays at most about twice the cheaper of the two, and
    one read at a few codes pays for those codes alone.  The window is
    first priced at the least d the support allows, with no stabilizer
    computed: dZ(N) has order N / d, and the support is a union of its
    cosets, so N / d divides gcd(|supp|, N).  Where it ends, d is
    computed, as the table needs it, and the window is priced again at
    the true d.  So a margin whose size is prime to N, as most sweep
    margins are, keeps the window of sum(q_j) codes with no stabilizer
    computed before its end, any margin reads its first code with none,
    and one on a Haar factor of small index fills its table after a few
    codes.  On one CRT axis sum(q_j) = N, and a window read at every code
    becomes the list itself, with no transform, so a margin read in full
    is read as a list from then on.  char_residue_table gives the list
    itself.  Building the memo costs more than a few residues: a sweep
    pair is mostly refuted by the two residues of each margin at u = 0 of
    its first v, so it reads those through char_residues_at, which uses a
    memo only if mu already has one, and asks for this function only for
    a pair that holds there.
    """
    memo = mu._residues
    if memo is None:
        memo = _memo(mu, "_residues", {})
    residue = memo.get(field)
    if residue is None:
        residue = memo[field] = _residue_function(mu, field)
    return residue


def char_residue_table(mu: Distribution, field) -> list[int]:
    """Every residue of char_residues(mu, field), as one code-indexed list,
    filled once per field.  It is zero off the multiples of
    N / stabilizer_index(mu) (_residue_table).  A margin whose lazy window
    covers every code even at the least stabilizer index its support
    allows (_least_window >= N, on one CRT axis only) is read at every
    code through the memo, which then keeps its list: that costs
    N * |supp| terms, no more than the window's price of the transform,
    and needs no stabilizer.  Any other margin fills the list by the
    transform, _residue_table.  Once filled, the memo holds the list's
    __getitem__ as the residue function, and any earlier residue function
    of the memo reads the same list once it leaves its window."""
    residue = char_residues(mu, field)
    table = getattr(residue, "__self__", None)  # a filled memo is table.__getitem__
    if table is None:
        spec = mu.spec
        n = spec.exponent
        if _least_window(spec.orders, len(mu.points)) >= n:
            for y in range(n):  # the memo keeps its list at the last code
                residue(y)
            table = mu._residues[field].__self__
        else:
            table = _residue_table(mu, field)
            mu._residues[field] = table.__getitem__
    return table


def _residue_function(mu: Distribution, field) -> Callable[[int], int]:
    spec = mu.spec
    n = spec.exponent
    points, s = mu.points, spec.crt_pair_unit
    powers, modulus = field.powers, field.modulus
    lazy: dict[int, int] = {}  # the codes computed one at a time
    window = _least_window(spec.orders, len(points))
    table = None

    def residue(y: int) -> int:
        nonlocal table, window
        if table is not None:
            return table[y]
        value = lazy.get(y)
        if value is None:
            if len(lazy) >= window:  # the window ends here: price it at the true d
                window = _lazy_window(mu.spec.orders, len(points), stabilizer_index(mu))
                if len(lazy) >= window:
                    table = char_residue_table(mu, field)
                    lazy.clear()
                    return table[y]
            value = lazy[y] = _residue(points, s * y % n, n, powers, modulus)
            if len(lazy) == n:  # a window of every code: keep them as the memo's list
                table = [lazy[c] for c in range(n)]
                mu._residues[field] = table.__getitem__
                lazy.clear()
        return value

    return residue


def _residue(points, c: int, n: int, powers: list[int], modulus: int) -> int:
    """The sum of a * omega**(x * c mod N) over the (x, a) of points, mod M:
    the residue of char_residues at the dual code y for c = s * y mod N,
    as the memo computes each code it reads one at a time."""
    return sum(a * powers[x * c % n] for x, a in points) % modulus


def char_residues_at(mu: Distribution, field, y: int) -> tuple[int, int]:
    """char_residues(mu, field) at the dual codes y and -y, y nonzero.

    They come from mu's memo when it has one for field, and otherwise from
    mu.points by the memo's own formula (_residue), with no memo built: a
    margin read at these two codes alone costs 2 |supp| terms, and one read
    further builds its memo then (char_residues)."""
    memo = mu._residues
    residue = memo.get(field) if memo else None
    n = mu.spec.exponent
    if residue is not None:
        return residue(y), residue(n - y)
    c = mu.spec.crt_pair_unit * y % n
    points, powers, modulus = mu.points, field.powers, field.modulus
    return _residue(points, c, n, powers, modulus), _residue(points, n - c, n, powers, modulus)


@lru_cache(maxsize=None)
def _least_window(orders: tuple[int, ...], size: int) -> int:
    """_lazy_window at the least stabilizer index a support of size points
    allows, N / gcd(size, N), N the product of the component orders: it
    depends on the group and the size alone, so it is formed once for
    each.  With gcd(size, N) = 1 that index is N, the table costs
    size + N * sum(q_j), and the window is sum(q_j)."""
    n = prod(orders)
    return _lazy_window(orders, size, n // gcd(size, n))


def _lazy_window(orders: tuple[int, ...], size: int, d: int) -> int:
    """The codes a residue memo of a margin of size points computes one at a
    time, for a stabilizer index d and component orders q_j: sum(q_j), or
    fewer once they cost as much as its table (_table_cost)."""
    return min(sum(orders), (size + _pass_cost(orders, d)) // size)


def _table_cost(spec: GroupSpec, size: int, d: int) -> int:
    """The terms _residue_table spends at most on a margin of size points
    with stabilizer index d: size for the pushforward to Z(d), and
    d * gcd(q_j, d) for the pass of axis j (_pass_cost).  It only grows as
    d grows by multiples, so at the least d a support allows it bounds the
    cost from below."""
    return size + _pass_cost(spec.orders, d)


@lru_cache(maxsize=None)
def _pass_cost(orders: tuple[int, ...], d: int) -> int:
    """d * sum(gcd(q_j, d)) over the component orders q_j, for a divisor d
    of their product: formed once per group and d."""
    return d * sum(gcd(q, d) for q in orders)


def _residue_table(mu: Distribution, field) -> list[int]:
    """Every residue of char_residues(mu, field), from the pushforward of mu
    to Z(d), d = stabilizer_index(mu), by the prime-factor transform.

    mu is invariant under its translation stabilizer H = dZ(N), so its
    support is a union of H-cosets r + H with one numerator a_r on each,
    and the residue at y is the sum over them of
    a_r * omega**(s * r * y) * sum_i omega**(s * d * i * y), i < N / d.
    omega has order N mod every prime p of M, so the inner sum is N / d
    when N / d divides y and otherwise a geometric sum
    (z**(N/d) - 1) / (z - 1) = 0 (mod p), z = omega**(s d y) != 1 (mod p),
    as s is a unit.  So only the codes y = (N / d) t, t < d, can be
    nonzero, and there s * r * y = (N / d) * (s * r * t mod d) (mod N),
    which depends on r mod d only.  With nu(r) = (N / d) a_r the sum of the
    a_x over x = r (mod d), the pushforward of mu to Z(d):

        residue((N / d) t) = sum_r nu(r) * omega**((N / d) * (s r t mod d)).

    That sum is the transform of nu on Z(d), made one CRT axis of d at a
    time.  With q the largest power of p_j dividing d and w = d / q, write
    E = w * (w**-1 mod q), which is 1 mod q and 0 mod d / q; then
    s r t = sum_j s E_j (r t mod q_j) (mod d), and the pass for axis j
    replaces the entries on each line {b + i * w : i < q} (b < w), the
    codes that differ only in their residue mod q, by
    sum_r A[r] * omega**((N / d) * s * E * (r * t mod q)) for each t on the
    line, mod M.  It starts from nu and skips zero entries, so the pass
    for axis j costs q_j products per nonzero entry before it: at most
    d * sum(q_j) in all, and at most 1.5 * d * |nu| (the q_j are at least
    3) for a sparse nu, such as a point mass (d = N, |nu| = 1), in place of
    N * sum(q_j) over Z(N).
    The roots are q_j-th roots of unity and the q_j are coprime, so no
    twiddle factors arise (Good 1958, Thomas 1963).  With d = N this is
    the transform of mu itself, as s * E_j = N / q_j (mod N).
    """
    spec = mu.spec
    n = spec.exponent
    d = stabilizer_index(mu)
    stride = n // d
    powers, modulus = field.powers, field.modulus
    nu = [0] * d
    for x, a in mu.points:
        nu[x % d] += a
    for c in spec.components:
        q = gcd(c.order, d)
        if q == 1:
            continue
        w = d // q
        step = stride * spec.crt_pair_unit * w * pow(w, -1, q) % n
        roots = [powers[step * k % n] for k in range(q)]
        lines: dict[int, list[tuple[int, int]]] = {}
        for x, a in enumerate(nu):
            if a:
                lines.setdefault(x % w, []).append((x % q, a))
        nu = [0] * d
        for b, line in lines.items():
            for t in range(b, d, w):
                k = t % q
                nu[t] = sum(a * roots[r * k % q] for r, a in line) % modulus
    table = [0] * n
    table[::stride] = [value % modulus for value in nu]
    return table


def char_fn_zero_classes(mu: Distribution) -> dict[int, bool]:
    """For each divisor g of N, whether char_fn(mu, y) is zero at the codes y
    with gcd(y, N) = g, decided on integers by the axis fold.

    Let m = N / g and w = zeta**g, a primitive m-th root of unity.  The
    pushforward nu(r) = sum of a_x over the support points x = r (mod m),
    r in Z(m), has the transform nu^(t) = sum_r nu(r) w**(t r), and
    D * char_fn(mu, u g) = nu^(s u) for s = spec.crt_pair_unit: the codes
    of the class are the u g with u a unit, and s is a unit.  The
    automorphisms w -> w**u of Q(w) permute the nu^(t) with t a unit, so
    the class is zero exactly when nu^(t) = 0 for every unit t mod m.

    The fold decides that without a field.  For each prime p of m,
    replace nu by nu - tau nu, with tau nu(r) = nu(r + m/p).  Translation
    by m/p moves only the CRT axis of p, taking each point to another
    block of that axis, so nu - tau nu vanishes exactly when nu is
    constant along the blocks, as does the fold of the powerful basis
    (block p - 1 subtracted from blocks 0 .. p - 2 and dropped); written
    as a translation it keeps the code indexing of Z(m).  The transform of
    nu - tau nu is (1 - w**(-t m / p)) nu^(t), and that factor is zero
    exactly when p divides t.  So after every prime of m the transform is
    nu^(t) times a factor that is nonzero exactly at the units t, and as a
    function on Z(m) is zero exactly when its transform is, the folded nu
    is zero exactly when nu^(t) = 0 at every unit t.  That costs
    |supp| + m * (number of primes of m) integer operations per divisor
    m, with no residue, modulus or cyclotomic value.  The answer depends
    on mu alone, so it is memoized on mu: every caller shares one dict and
    only reads it.
    """
    zero = mu._zero_classes
    if zero is not None:
        return zero
    spec = mu.spec
    n = spec.exponent
    primes = [c.p for c in spec.components]
    divisors = [1]
    for c in spec.components:
        divisors = [d * c.p**e for d in divisors for e in range(c.k + 1)]
    zero = {}
    for m in divisors:
        nu = [0] * m  # the pushforward to Z(m), indexed by code
        for r, a in mu.points:
            nu[r % m] += a
        for p in primes:
            if m % p == 0:
                s = m // p
                nu = list(map(operator.sub, nu, nu[s:] + nu[:s]))
        zero[n // m] = not any(nu)
    return _memo(mu, "_zero_classes", zero)


def difference_subgroup(mu: Distribution) -> Subgroup:
    """The subgroup generated by the differences of support points: the
    smallest subgroup that a shift of mu is supported in."""
    base = mu.points[0][0]
    return generated_by_codes(mu.spec, [r - base for r, _ in mu.points])


def unit_modulus_set(mu1: Distribution, mu2: Distribution) -> Subgroup:
    """Dual subgroup where both character sums have modulus one: where the
    pairing is constant on both supports, i.e. on their difference subgroups."""
    if mu1.spec != mu2.spec:
        raise ValueError("spec mismatch")
    return difference_subgroup(mu1).annihilator().intersect(difference_subgroup(mu2).annihilator())


def min_support_subgroup(mu: Distribution) -> Subgroup:
    """Smallest subgroup containing the support."""
    return generated_by_codes(mu.spec, [r for r, _ in mu.points])


def _is_haar_fixed_point(lam: Distribution, sub: Subgroup) -> bool:
    """Whether lam == lam * haar(sub), on integer numerators.

    (lam * haar(sub))(r) = (1/|sub|) sum_{s in sub} lam(r - s) is the mean
    of lam over the coset r + sub.  So lam is a fixed point exactly when
    lam is constant on every coset: if it is, each mean is that constant;
    if lam equals its coset mean at every point of a coset, it takes one
    value there.  On CRT codes sub is the multiples of its index d, and
    its cosets are the residue classes r mod d.  A class that meets the
    support must then lie wholly in it, |sub| points with one numerator
    over the common denominator D; a class that misses it is zero.
    """
    if lam.spec != sub.spec:
        raise ValueError("spec mismatch")
    d = sub.index
    classes: dict[int, list[int]] = {}
    for r, a in lam.points:
        seen = classes.setdefault(r % d, [a, 0])
        if seen[0] != a:
            return False
        seen[1] += 1
    return all(count == sub.order for _, count in classes.values())


def stabilizer_index(mu: Distribution) -> int:
    """The index d of the translation stabilizer H = dZ(N) of mu, memoized on mu.

    H is a subgroup of the cyclic Z(N), so it is dZ(N) for one d | N, and
    d'Z(N) lies in H exactly when d' is a multiple of d.  d'Z(N) lies in H
    when its classes r mod d' are constant and full on mu, the identity of
    _is_haar_fixed_point; here it is tested on codes as mu(r + d') = mu(r)
    at every support point r, which says the same: translation by d' then
    maps the support into itself, so onto it, and fixes mu, as does every
    multiple of d'.  Starting from d = N, each prime p of N is divided out
    of d while d / p still passes, which leaves its exponent in d at its
    exponent in the index.  The support is a union of H-cosets, so a
    candidate whose order does not divide the support size fails untested.
    Every candidate order is a multiple of a prime of N, so with the size
    prime to N none is tested: d = N, with no numerator map built.
    """
    d = mu._stabilizer
    if d is not None:
        return d
    n = mu.spec.exponent
    points = mu.points
    size = len(points)
    if gcd(size, n) == 1:
        return _memo(mu, "_stabilizer", n)
    get = numerator_map(mu).get
    d = n
    for comp in mu.spec.components:
        p = comp.p
        while d % p == 0 and size % (n // d * p) == 0:
            h = d // p
            if any(get((r + h) % n) != a for r, a in points):
                break
            d = h
    return _memo(mu, "_stabilizer", d)


def has_haar_factor(lam: Distribution, sub: Subgroup) -> bool:
    """Whether the uniform distribution on sub is a convolution factor of lam.

    Decided along two independent routes that must agree: the fixed-point
    identity lam == lam * haar(sub) on integer numerators
    (_is_haar_fixed_point), and vanishing of the character sum off the
    annihilator of sub, read from the zero classes of the axis fold
    (char_fn_zero_classes), which use neither residues nor the translation
    stabilizer.  The annihilator's codes are the multiples of its index,
    so its complement is the union of the gcd classes that index does not
    divide.
    """
    fixed_point = _is_haar_fixed_point(lam, sub)
    step = sub.annihilator().index
    vanishing = all(zero for g, zero in char_fn_zero_classes(lam).items() if g % step)
    if fixed_point != vanishing:
        raise VerificationFailure(
            "haar-factor routes disagree: "
            f"fixed_point={fixed_point} vanishing={vanishing} for subgroup {sub.exponents}"
        )
    return fixed_point


def invert_char_table(spec: GroupSpec, table: DualFunction) -> Distribution:
    """Recover a distribution from its full character table (exact inversion).

    mu(x) = (1/N) sum_y f(y) zeta**(-t), t = pair_exponent(x, y).  Over the
    common denominator D, f(y) = (1/D) sum_e c[y][e] zeta**e with integers
    c[y][e] (e < N): the coordinates of f(y) scaled by D / den, each at its
    exponent (CycloElement.coordinate_exponents), and 0 at the exponents
    no coordinate has.  The product by zeta**(-t) moves c[y][e] to
    exponent e - t mod N.  So each x needs the vector v_x in Z[Z(N)] with
    v_x[k] = sum_y c[y][k + t] over y, and N * D * mu(x) is the image of
    sum_k v_x[k] zeta**k in Q(zeta_N), which must be rational.

    The sums are exact integer Kronecker packing.  Let B be the largest
    |c[y][e]|, and W a whole number of bytes with 2**W > 2 * N * (B + 1).
    Entry y becomes the integer P_y with c[y][k] + B in bits kW..kW+W-1
    (slot k), k < N, so every slot is in [0, 2B]; _biased_words reads
    every coordinate of the table into one buffer at its slot and adds the
    bias per word.  P_y + (P_y << NW) holds two copies, and shifting it
    right by tW puts c[y][k + t mod N] + B in slot k for every k < N: the
    rotation by zeta**(-t).  Adding such shifts, each slot below bit NW
    sums values in [0, 2B], and no carry crosses a slot boundary while the
    sum stays below 2**W; the bits at and above NW, what the shifts leave
    of the second copies, only carry upward and are masked off.

    The shifts are summed one CRT axis at a time (the prime-factor, or
    Good-Thomas, transform).  On codes t = sum_j w_j * x * y mod N with
    w_j = N / q_j, and w_j * x * y mod N = w_j * (x * y mod q_j) depends
    only on x and y mod q_j.  So the pass for axis j replaces the words on
    each line {b + i * w_j : i < q_j} (b < w_j), the codes that differ only
    in their residue mod q_j, by their line transform: indexed by residue,
    X[k] = sum_{m < q} R**(k m) P[m] with q = q_j and R the rotation by
    w_j slots, so R**q = 1.  After the last pass the word at x has summed
    the rotation of every P_y by zeta**(-t).

    On q = p**a the line transform is split into radix-p stages
    (_line_transform; Cooley and Tukey 1965).  With q' = q / p and Y_s the
    length-q' transform with root R**p of the words P[p m + s], m < q',

        X[k + q' l] = sum_{s < p} R**((k + q' l) s) Y_s[k]   (k < q', l < p),

    as R**(p m (k + q' l)) = (R**p)**(m k), because R**q = 1.  Each Y_s
    splits the same way, so a line costs a * p * q shift-adds in place of
    q**2, and a prime axis (a = 1) is the direct q**2 loop.  Every twiddle
    R**e is a rotation, one shift of a doubled word.  That is
    N * sum_j a_j * p_j shift-adds over all axes.

    The width W holds at every stage.  The words on one line hold sums
    over disjoint sets of y (after the passes before it, the word at x
    sums the y = x mod w for the product w of the axes not yet passed),
    so by linearity every word a stage makes is a sum of rotations of
    distinct P_y.  Each of its slots then sums at most N values in
    [0, 2B], at most 2NB < 2**W, and no carry crosses a slot boundary;
    before its mask, a stage's sum has the same bits below NW, since the
    bits above, what the shifts leave of the second copies, only carry
    upward.  Slot k of the final word is v_x[k] + N * B.

    Whether the image of v = v_x is rational is decided on the packed word
    by the translation fold of char_fn_zero_classes, with no cyclotomic
    value.  Write tau_d v(e) = v(e + d), let p run over the primes of N and
    F = prod_p (1 - tau_{N/p}).  The image is the integer r exactly when
    v - r delta_0 lies in the kernel K of Z[Z(N)] -> Q(zeta_N); that image
    is an algebraic integer, so a rational one is an integer.  The
    transform w^(c) = sum_e w(e) zeta**(c e) of (1 - tau_{N/p}) w is
    (1 - zeta**(-c N / p)) w^(c), and that factor is zero exactly when p
    divides c, so the transform of F w is w^(c) times a factor that is
    nonzero exactly at the units c mod N.  The automorphisms
    zeta -> zeta**c permute the w^(c) with c a unit, so w lies in K exactly
    when w^(c) = 0 at every unit c, that is exactly when F w = 0, as a
    function on Z(N) is zero exactly when its transform is.  So the image
    is r exactly when F v = r F delta_0.  F delta_0 is the sum over the
    sets S of primes of (-1)**|S| delta at -sum_{p in S} N/p, and for S
    not empty that point is not 0: mod q_j, for p_j in S, the sum is
    N / p_j, which q_j does not divide.  So F delta_0 is 1 at 0, the r to
    test is slot 0 of F v, and the image is rational exactly when F v
    equals that r times F delta_0.

    Each step z -> z - tau_d z is made on the word as a rotation by d slots
    and one subtraction, with a bias that keeps every slot nonnegative: if
    every |z(e)| <= b and slot e holds z(e) + b, then adding 2b to each slot
    and subtracting the rotated word leaves z(e) - z(e + d) + 2b in
    [0, 4b], with no borrow across slots.  The bias starts at N * B and
    doubles with each step, so after k steps it is 2**k * N * B, and with
    h primes every slot stays at most 2**(h+1) * N * B.  So the final
    words are widened, all in one pass before the fold (_widen_words), to
    the width W' that the rule for W gives for 2**(h+1) * N * B in place
    of 2 * N * (B + 1), and never below W, so 2**W' > 2**(h+1) * N * B.
    Slot 0 of F v then reads r + 2**h * N * B, and F v equals r F delta_0
    exactly when the word equals 2**h * N * B in every slot plus r times
    the word of F delta_0, whose entries are 0 and +-1; the mass at x is
    r / (N * D).

    The table is read in code order and the masses are built on codes.
    A table that is not a DualFunction on spec, or has a value that is not
    a CycloElement of order N, is refused with ValueError; a non-rational
    mass is reported at the first such x in element order.
    """
    if not isinstance(table, DualFunction) or table.spec != spec:
        raise ValueError(f"table must be a DualFunction on {spec.describe()}")
    n = spec.exponent
    values = table.values
    if not all(isinstance(value, CycloElement) and value.order == n for value in values):
        raise ValueError(f"table values must be CycloElements of order {n}")
    coordinates: dict[int, set[int]] = {}  # den -> the coordinates of the values over it
    for value in values:
        coordinates.setdefault(value.den, set()).update(value.num)
    den = lcm(*coordinates)
    bias = max(max(max(seen), -min(seen)) * (den // d) for d, seen in coordinates.items())
    nbytes = (2 * n * (bias + 1)).bit_length() // 8 + 1
    words = _biased_words(values, den, bias, nbytes)
    width = 8 * nbytes
    for comp in spec.components:
        q = comp.order
        w = n // q
        inverse = pow(w, -1, q)
        for b in range(w):
            line = [b + (r - b) * inverse % q * w for r in range(q)]  # codes by residue mod q
            rotated = _line_transform([words[y] for y in line], w, comp.p, n, width)
            for x, word in zip(line, rotated):
                words[x] = word
    steps = [n // c.p for c in spec.components]
    wide = max(nbytes, (n * bias << len(steps) + 1).bit_length() // 8 + 1)
    words = _widen_words(words, n, nbytes, wide)
    wide_width = 8 * wide
    slot = (1 << wide_width) - 1
    ones = ((1 << n * wide_width) - 1) // slot  # 1 in every slot
    folds = []  # (shift right, shift left, low mask, 2 * bias * ones) per step
    step_bias = n * bias
    unit = [1] + [0] * (n - 1)  # delta_0, folded alongside into F delta_0
    for d in steps:
        low = d * wide_width
        folds.append((low, (n - d) * wide_width, (1 << low) - 1, 2 * step_bias * ones))
        step_bias *= 2
        unit = list(map(operator.sub, unit, unit[d:] + unit[:d]))
    unit_word = sum(c << e * wide_width for e, c in enumerate(unit) if c)
    level = step_bias * ones  # F v = r F delta_0 with every slot biased
    masses: dict[int, int] = {}
    for cx in spec.crt_codes:
        z = words[cx]
        for right, left, low, lift in folds:
            z += lift - (z >> right | (z & low) << left)
        r = (z & slot) - step_bias
        if z != level + r * unit_word:
            raise VerificationFailure(f"inversion produced a non-rational mass at {spec.element(cx)}")
        if r:
            masses[cx] = r
    return _canonical(spec, den * n, masses)


def _biased_words(values, den: int, bias: int, nbytes: int) -> list[int]:
    """Per value, the word with c[e] + bias in bytes e*nbytes .. (e+1)*nbytes - 1.

    values are CycloElements of one order N, e < N, and c[e] is the
    coordinate of the value at exponent e, times den / value.den, or 0 at
    an exponent no coordinate has; every |c[e]| <= bias and
    2 * bias < 2**(8 * nbytes).
    The coordinates of all values are packed at once as signed items of
    the least standard size (1, 2, 4 or 8 bytes, else nbytes) that holds
    nbytes, and each byte column of a coordinate is copied to its
    exponent's slot in every word of one zeroed buffer, so a slot holds
    its unscaled coordinate mod 2**(8 * nbytes).  That coordinate c has
    |c| < 2**(8 * nbytes - 1), so it is the slot minus 2**(8 * nbytes)
    exactly when the slot's top bit is set; a word is read from the buffer,
    made signed by subtracting those top bits shifted up by one, scaled
    and biased, and no slot leaves [0, 2 * bias] or borrows from its
    neighbour.
    """
    n = values[0].order
    exponents = values[0].coordinate_exponents()
    degree = len(exponents)
    count = len(values) * degree
    coordinates = itertools.chain.from_iterable(value.num for value in values)
    size = 1 << (nbytes - 1).bit_length()
    if size <= 8:
        raw = struct.pack(f"<{count}{'bhiq'[size.bit_length() - 1]}", *coordinates)
    else:
        size = nbytes
        raw = b"".join(c.to_bytes(size, "little", signed=True) for c in coordinates)
    row = n * nbytes
    buffer = bytearray(len(values) * row)
    for t, e in enumerate(exponents):
        for i in range(nbytes):
            buffer[e * nbytes + i :: row] = raw[t * size + i :: degree * size]
    width = 8 * nbytes
    ones = ((1 << n * width) - 1) // ((1 << width) - 1)  # 1 in every slot
    lift = bias * ones
    view = memoryview(buffer)
    words = []
    for y, value in enumerate(values):
        word = int.from_bytes(view[y * row : (y + 1) * row], "little")
        words.append((word - ((word >> width - 1 & ones) << width)) * (den // value.den) + lift)
    return words


def _line_transform(words: list[int], step: int, p: int, n: int, width: int) -> list[int]:
    """X[k] = sum_m R**(k m) words[m] for k < len(words), a power of p.

    Each word holds n slots of width bits, and R is the rotation by step
    slots (the shift right by step * width bits of a doubled word); step
    * len(words) is a multiple of n, so R**len(words) = 1.  The transform
    is split into the p transforms with root R**p of the words[s::p],
    combined by the stage identity of invert_char_table; a length-p
    transform is the direct loop.
    """
    size = len(words)
    if size == 1:
        return words
    span = n * width
    mask = (1 << span) - 1
    sub = size // p
    first, *rest = (_line_transform(words[s::p], step * p % n, p, n, width) for s in range(p))
    rest = [[word | word << span for word in part] for part in rest]  # doubled, so a shift rotates
    out = []
    for k in range(size):
        k0 = k % sub
        twiddle = k * step % n * width  # R**k; R**(k s) for part s
        acc = first[k0]
        for s, part in enumerate(rest, 1):
            acc += part[k0] >> (s * twiddle % span)
        out.append(acc & mask)
    return out


def _restride(raw, old: int, new: int) -> bytearray:
    """raw cut into items of old bytes, each cut or zero-padded to new bytes."""
    out = bytearray(len(raw) // old * new)
    for i in range(min(old, new)):
        out[i::new] = raw[i::old]
    return out


def _widen_words(words: list[int], count: int, nbytes: int, wide: int) -> list[int]:
    """Each word cut into count slots of nbytes bytes, every slot zero-padded
    to wide bytes, by one restride of the words joined."""
    if wide == nbytes:
        return words
    raw = _restride(b"".join(word.to_bytes(count * nbytes, "little") for word in words), nbytes, wide)
    row = count * wide
    view = memoryview(raw)
    return [int.from_bytes(view[i : i + row], "little") for i in range(0, len(raw), row)]
