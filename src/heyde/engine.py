"""Conditional symmetry of linear forms and its structural consequences.

Given independent group-valued random variables with distributions mu1 and
mu2 and an automorphism alpha, the package decides exactly whether the
conditional distribution of xi1 + alpha*xi2 given xi1 + xi2 is symmetric,
checks the equivalent dual functional equation, and, for symmetric pairs,
produces the canonical decomposition: a subgroup G stable under I - alpha,
a common distribution lambda supported in G whose shifts recover mu1 and
mu2, a Haar convolution factor on (I + alpha)(G), and symmetry of the
restricted pair.  Strengthened conclusions that hold under extra
hypotheses (trivial kernel of I + alpha, nonvanishing character sums,
truncated p-adic components) are checked by the corollary classifier.

Every layer works on the CRT codes of GroupSpec, plain ints in Z(N): a
Distribution stores its support as codes with integer numerators over one
denominator, and the joint symmetry test, the dual-equation loop and the
canonical shift read them as they are, decoding to coordinate tuples only
what they report.  The encoding is a bijection and an endomorphism is one
multiplier on it (Endomorphism.code), which keeps every equality and
order.  The dual equation evaluates character sums at a primitive N-th
root of unity modulo a product M of primes p = 1 (mod N);
cyclotomic._ModField states the bound on M and the proof that these
verdicts are then exact.  The nonvanishing hypothesis of the corollaries
and the vanishing side of the Haar-factor test use no residues: their
zero classes come from the integer axis fold of
distributions.char_fn_zero_classes.  No predicate is decided by floating
point or by a probabilistic test.  The lemma verifiers run the same
equation loop on the residues of their character tables, and on exact
canonical cyclotomic values, as ids, for tables built from values and to
name a violation; that interned loop stays the reference route.

The joint symmetry test first compares P(l1, l2) with P(l1, -l2) at one
key of the first point of mu1, in O(|supp1|) lookups, and stops there
when they differ; only then does it build the joint pmfs of (L1, L2) and
(L1, -L2) and compare them, on Z(m) for m the least common multiple of
the stabilizer indices and of the part of N on whose axes alpha = 1, one
point per coset of mZ(N) in each margin, so that a symmetric pair built
on a Haar factor costs one product per pair of cosets in place of
|supp1| * |supp2|.  The canonical shift sorts one candidate per coset of
the margin's translation stabilizer, among its points of least mass, in
place of one per support point.

The dual equation is decided by one loop, _residue_equation_holds, on a
quotient from the first pair on: the character sums are quasi-periodic
under the unit-modulus set K = eZ(N), so u runs over Z(N)/K and v over
Z(N)/K', K' = e'Z(N) the part of K that also annihilates
x1 + alpha x2 (_equation_quotient, whose proof needs no pair visited
first).  The residues of mu_i vanish off the multiples of
L_i = N / d_i, d_i the index of its translation stabilizer
(distributions._residue_table), so a side of the identity at (u, v) is
nonzero only where u + v or u - v is a multiple of L1 and u + beta v or
u - beta v, with the same sign, one of L2.  Both systems are solvable
only for v a multiple of vs = c / gcd(beta - 1, c), c = gcd(L1, L2), and
then their u are two classes modulo l = lcm(L1, L2): the loop visits
those alone, at most d1 d2 gcd(beta - 1, c) pairs, and fills no table,
reading each margin's memo.  For two point masses K = Z(N): u = 0
alone, and no pair at all when the pair is symmetric (e' = 1).  A margin
with a Haar factor has a small d, so its pair is decided on a few codes.
The lemma verifiers take that loop for a verdict only, and rerun
first_equation_violation, the reference loop over every pair in element
order, to report the first violation.  It compares the two products of
each pair as the caller's multiplication returns them, on the lemma
verifiers' interned route ids of cyclotomic values with a memoized
product of ids, and at every v visits only the u at which a side can be
nonzero (a falsy value is zero).

Each predicate is decided in one place: symmetry by _joint_symmetric,
and the residue equation by _residue_equation_holds, so
is_conditionally_symmetric, satisfies_heyde_equation, the lemma verifiers
and a sweep's pair loop (sweep._run_row, which calls _joint_symmetric
itself and sends every pair that holds at the first v of the equation to
satisfies_heyde_equation) run the same code.

Work that depends on one margin only is done once per object, not once
per instance: a Distribution memoizes its residues per field
(distributions.char_residues), its zero classes
(distributions.char_fn_zero_classes), its code -> numerator map, its
translation stabilizer (distributions.stabilizer_index) and its canonical
shift into each subgroup, with the check that shifting back recovers it
(_canonical_shift), so a sweep that pairs each margin with many others
pays for them once, and the symmetry test, the canonical shift and
decompose share one stabilizer.  A translate built from a margin, as the
canonical shift and shift build them, carries the margin's stabilizer
and zero classes (distributions._translate), and classify_corollary
reads the zero classes of lambda once the margins are its shifts.  An
Endomorphism is its CRT multiplier alone, so I + alpha and I - alpha
cost one addition mod N each.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .cyclotomic import modular_field
from .distributions import (
    Distribution,
    _memo,
    _translate,
    char_fn_zero_classes,
    char_residues,
    difference_subgroup,
    from_pmf,
    haar,
    has_haar_factor,
    min_support_subgroup,
    numerator_map,
    shift,
    stabilizer_index,
    unit_modulus_set,
)
from .errors import VerificationFailure
from .groups import Component, ComponentKind, Element, GroupSpec, Subgroup, validate_spec
from .morphisms import Endomorphism, PAdicUnit, identity, make_endo


@dataclass(frozen=True)
class HeydeInstance:
    """Two distributions and an automorphism on one group."""

    spec: GroupSpec
    mu1: Distribution
    mu2: Distribution
    alpha: Endomorphism

    def __post_init__(self):
        spec = self.spec
        for other in (self.mu1.spec, self.mu2.spec, self.alpha.spec):
            if other is not spec and other != spec:
                raise ValueError("spec mismatch")
        if not self.alpha.is_automorphism():
            raise ValueError("alpha is not an automorphism")


def is_conditionally_symmetric(inst: HeydeInstance) -> bool:
    """Whether (L1, L2) and (L1, -L2) have the same exact joint distribution.

    L1 = x1 + x2 and L2 = x1 + alpha x2 on CRT codes.  _joint_symmetric
    compares the two joint pmfs, after one key of them that refutes most
    pairs that are not symmetric, on a quotient Z(m) when the margins are
    invariant under mZ(N).  It compares integer numerators only, so the
    verdict is the exact one.
    """
    a, n = inst.alpha.code, inst.spec.exponent
    return _joint_symmetric(inst.mu1, inst.mu2, _joint_terms(inst.mu2.points, a), a, n)


# Support pairs above which the symmetry test computes the margins'
# stabilizers after its first key: below it the plain joint dict is cheaper.
_COSET_MIN_PAIRS = 64


def _cosets(points, m: int) -> dict[int, tuple[int, int]]:
    """One (code, numerator) of points per class mod m, keyed by the class:
    for a margin invariant under mZ(N), one point per coset, each with the
    numerator of its whole coset."""
    return {r % m: (r, w) for r, w in points}


def _joint_terms(points, a: int) -> list[tuple[int, int, int]]:
    """(r2, a * r2, w2) for each (r2, w2) of points."""
    return [(r, a * r, w) for r, w in points]


def _joint_symmetric(
    mu1: Distribution, mu2: Distribution, second: list, a: int, n: int
) -> bool:
    """is_conditionally_symmetric for any alpha, by the two joint pmfs, on
    the multiplier a of alpha and the terms of mu2
    (_joint_terms(mu2.points, a)).

    The joint pmf of (L1, L2) is kept on CRT codes, keyed by l1 * N + l2,
    with integer masses over the product of the margins' common
    denominators; scaling every mass by one positive integer keeps every
    equality, so the verdict is the exact one.

    Before it builds the joint pmf it compares P(l1, l2) with P(l1, -l2)
    at one key (l1, l2) of positive mass (_joint_masses_at), in
    O(|supp mu1|) steps: the key of the first point r1 of mu1 and the first
    point r2 of mu2 with l2 = r1 + a r2 != 0.  Symmetry is
    P(l1, l2) = P(l1, -l2) at every key, so unequal masses at one key
    refute it; equal masses there decide nothing, and the whole pmf is
    compared.  N is odd, so l2 = 0 is the only l2 with l2 = -l2, a key that
    is its own mirror, and since a is a unit at most one r2 gives it: only
    when that r2 is the whole support of mu2 is there no key to test.  A
    pair that is not symmetric, as nearly every sweep pair is not, mostly
    stops at this key, at about |supp mu1| steps in place of
    |supp mu1| * |supp mu2|.

    Above _COSET_MIN_PAIRS support pairs, the joint pmfs are then built on
    Z(m), m = lcm(d1, d2, A), with d_i the stabilizer index of mu_i
    (distributions.stabilizer_index, memoized on each margin) and A the
    product of the q_j with alpha = 1 (mod p_j) (_fixed_part).  That
    decides the same thing.  Let H = mZ(N) and Phi(x1, x2) =
    (x1 + x2, x1 + alpha x2) = (L1, L2).  H is a cyclic group of order
    N / m, and no p_j divides both N / m and a - 1: when a = 1 (mod p_j),
    q_j divides A and so m.  So alpha - 1 is a unit on H, and Phi maps H x H into itself
    with kernel {(-k, k) : (alpha - 1) k = 0} = 0 there, so onto it; so does
    S(l1, l2) = (l1, -l2).  P = mu1 x mu2 is invariant under translation by
    H x H, as each mu_i is under d_i Z(N), which contains H.  Then
    Phi_* P(l + Phi(k)) = P(Phi^-1(l) + k) = Phi_* P(l) for k in H x H, so
    Phi_* P, and likewise S_* Phi_* P, are invariant under H x H.  Two
    measures invariant under H x H are equal exactly when their pushforwards
    to (Z(N) / H)**2 = Z(m)**2 are, each mass being the mass of its coset
    over |H|**2; S commutes with reduction mod m, and the pushforward of
    Phi_* P is the law of (L1 mod m, L2 mod m), that is Phi on Z(m) applied
    to the pushforwards of the margins, which put (N / m) times the
    numerator of each coset on its class.  So the pmfs are compared over
    one point per class of each margin (_cosets), on keys mod m, and the
    common factor (N / m)**2 of every mass keeps every equality.  With
    alpha = 1 on no axis, as when alpha - 1 is a unit mod N, A = 1 and m is
    the least common stabilizer index, and with Haar factors on the margins
    |supp1| * |supp2| products become (N / m)**2 times fewer.
    """
    firsts = mu1.points
    r1 = firsts[0][0]
    for r2, ar2, _ in second:
        l2 = (r1 + ar2) % n
        if l2:
            plus, minus = _joint_masses_at(firsts, numerator_map(mu2).get, a, (r1 + r2) % n, l2, n)
            if plus != minus:
                return False
            break
    if len(firsts) * len(second) > _COSET_MIN_PAIRS:
        m = lcm(stabilizer_index(mu1), stabilizer_index(mu2), _fixed_part(mu1.spec, a))
        if m < n:
            firsts = _cosets(firsts, m).values()
            second = _joint_terms(_cosets(mu2.points, m).values(), a)
            n = m
    joint: dict[int, int] = {}
    for r1, w1 in firsts:
        for r2, ar2, w2 in second:
            key = (r1 + r2) % n * n + (r1 + ar2) % n
            joint[key] = joint.get(key, 0) + w1 * w2
    for key, mass in joint.items():
        l2 = key % n
        if joint.get(key - l2 + (n - l2) % n) != mass:
            return False
    return True


def _fixed_part(spec: GroupSpec, a: int) -> int:
    """The product of the component orders q_j on whose prime the multiplier
    a is 1, a = 1 (mod p_j): the part of N on which a - 1 need not be a
    unit, which _joint_symmetric keeps in its quotient."""
    return prod(c.order for c in spec.components if (a - 1) % c.p == 0)


def _joint_masses_at(firsts, get2, a: int, l1: int, l2: int, n: int) -> tuple[int, int]:
    """(P(l1, l2), P(l1, -l2)) as numerators over D1 * D2, for the points
    (y1, w1) of mu1 and get2 the code -> numerator lookup of mu2.

    L1 = y1 + y2 = l1 fixes y2 = l1 - y1, and then L2 = y1 + a y2 =
    (1 - a) y1 + a l1.  So P(l1, m) is the sum of w1 * mu2(l1 - y1) over
    the y1 of supp mu1 with (1 - a) y1 + a l1 = m (mod N): one step per
    point of mu1 and one lookup in mu2 per point that lands on l2 or -l2.
    l2 must not be 0, the one key that is its own mirror.
    """
    b, base, neg = (1 - a) % n, a * l1 % n, n - l2
    plus = minus = 0
    for y1, w1 in firsts:
        m = (b * y1 + base) % n
        if m == l2:
            plus += w1 * get2((l1 - y1) % n, 0)
        elif m == neg:
            minus += w1 * get2((l1 - y1) % n, 0)
    return plus, minus


def first_equation_violation(
    spec: GroupSpec,
    f: Callable[[int], object],
    g: Callable[[int], object],
    beta: Endomorphism,
    mul: Callable[[object, object], object] = operator.mul,
) -> tuple[Element, Element] | None:
    """First (u, v) with f(u + v) g(u + beta v) != f(u - v) g(u - beta v), or None.

    f and g take CRT codes (ints in Z(N)), not Elements; the (u, v)
    reported is decoded to Elements.  v runs over spec.crt_codes and, for
    each v, u does too; v = 0 and each v whose negation comes earlier are
    skipped, since (u, -v) states the same identity as (u, v).  The two
    sides are mul(f(u + v), g(u + beta v)) and mul(f(u - v), g(u - beta v)),
    compared by ==, and mul is called only when the factors differ.  The
    caller picks mul and values so that == on products is the identity it
    asks about: residues reduced mod M and their product mod M, which
    decide it exactly under the bound of cyclotomic._ModField, or ids of
    canonical cyclotomic values, one id per distinct value, and their
    memoized product (as the lemma verifiers pass).  A falsy value is zero, and mul(0, x) == mul(0, y)
    must hold for every x and y; a caller whose zero is truthy only loses
    the sparse visits below.

    f and g are read once at every code, into one table each, and every
    v, the first included, visits only the candidate pairs.  A pair with
    f(u + v) = f(u - v) = 0 has both products zero, so with S the codes
    where f is nonzero only u in (S - v) | (S + v) is visited, in element
    order; with g, u in (S - beta v) | (S + beta v), when g has fewer
    nonzero codes.  That is at most 2 |S| pairs per v in place of N.  When
    2 |S| >= N, as for point masses, every v visits every u.  A skipped
    pair holds exactly, so the (u, v) reported is the one the dense loop
    reports.  A caller that needs only the verdict on residues runs
    _residue_equation_holds instead.
    """
    n = spec.exponent
    b = beta.code
    f_values = [f(i) for i in range(n)]
    g_values = [g(i) for i in range(n)]
    f, g = f_values.__getitem__, g_values.__getitem__
    nonzero_f = [i for i, value in enumerate(f_values) if value]
    nonzero_g = [i for i, value in enumerate(g_values) if value]
    on_g = len(nonzero_g) < len(nonzero_f)
    support = nonzero_g if on_g else nonzero_f
    for v in _equation_vs(spec):
        bv = b * v % n
        us = spec.crt_codes
        if 2 * len(support) < n:
            d = bv if on_g else v
            us = {(s + d) % n for s in support}.union((s - d) % n for s in support)
            us = sorted(us, key=spec.crt_rank.__getitem__)  # the first violation in element order
        u = _first_violation(f, g, us, v, bv, n, mul)
        if u is not None:
            return spec.element(u), spec.element(v)
    return None


def _equation_vs(spec: GroupSpec):
    """The v of first_equation_violation, in its order:
    every nonzero code, in element order, whose negation comes later."""
    n = spec.exponent
    rank = spec.crt_rank
    return (v for v_rank, v in enumerate(spec.crt_codes) if v and rank[n - v] > v_rank)


def _first_violation(f, g, us, v: int, bv: int, n: int, mul) -> int | None:
    """The first u of us at which the identity at (u, v) fails, bv = beta v:
    the loop of every v of first_equation_violation and of
    _residue_equation_holds."""
    for u in us:
        f1, g1 = f((u + v) % n), g((u + bv) % n)
        f2, g2 = f((u - v) % n), g((u - bv) % n)
        if (f1 != f2 or g1 != g2) and mul(f1, g1) != mul(f2, g2):
            return u
    return None


def satisfies_heyde_equation(inst: HeydeInstance) -> bool:
    """Exact dual-side check of the functional equation equivalent to symmetry.

    Verifies that the product of the two characteristic functions at
    (u + v, u + adjoint(alpha) v) equals the product at
    (u - v, u - adjoint(alpha) v) for all dual pairs (u, v).  Character
    values are evaluated at a primitive N-th root of unity modulo M, a
    product of primes p = 1 (mod N), with M > 2 * D1 * D2 for mass
    denominators D1, D2; cyclotomic._ModField proves that this decides the
    identity exactly in both directions.  The residues come memoized from
    each margin (distributions.char_residues) and reduced mod M, so the
    zero residue is 0 and the loop skips only pairs whose two products are
    both = 0 (mod M).  See _residue_equation_holds for the loop.
    """
    mu1, mu2 = inst.mu1, inst.mu2
    field = modular_field(inst.spec.exponent, 2 * mu1.den * mu2.den)
    return _residue_equation_holds(mu1, mu2, inst.alpha.adjoint(), field)


def _residue_equation_holds(mu1: Distribution, mu2: Distribution, beta: Endomorphism, field) -> bool:
    """Whether the dual equation of the character sums of mu1 and mu2 under
    beta holds, decided on their residues R1, R2 in field, a field
    certified for 2 * mu1.den * mu2.den (cyclotomic._ModField): the one
    residue equation of satisfies_heyde_equation and of the lemma
    verifiers.

    With b the multiplier of beta, the identity at (u, v) is
    R1(u + v) R2(u + b v) = R1(u - v) R2(u - b v) (mod M).  It holds at
    (u + k, v) exactly when at (u, v) for k in K = eZ(N), and at (u, v + k)
    exactly when at (u, v) for k in K' = e'Z(N), with (e, e') =
    _equation_quotient(mu1, mu2, beta).  So v runs over the representatives
    1 .. e' - 1 of Z(N)/K' with v < e' - v, since v and -v state the same
    identity and no v but 0 is its own negative mod the odd e', and e' = 1
    leaves no v; u runs over the representatives 0 .. e - 1 of Z(N)/K.
    With e = 1, as for two point masses, u = 0 stands for every u.

    Of these pairs only those where a side can be nonzero are visited.
    With L_i = N / stabilizer_index(mu_i), R_i = 0 (mod M) off the
    multiples of L_i (_residue_table).  So the left side is nonzero only
    where u = -v (mod L1) and u = -b v (mod L2), and the right side only
    where u = v (mod L1) and u = b v (mod L2); at every other pair both
    products are zero and the identity holds with no residue read.  With
    c = gcd(L1, L2), each system is solvable exactly when v = b v (mod c),
    that is when c divides (b - 1) v, or equivalently when v is a multiple
    of vs = c / gcd(b - 1, c); any other v is skipped whole.  Then
    u = v + L1 t solves the right-hand system exactly when
    (L1 / c) t = (b - 1) v / c (mod L2 / c), and L1 / c is a unit mod
    L2 / c, so its solutions are one class u0 modulo l = lcm(L1, L2), and
    those of the left-hand system are -u0.  A v visits the u = u0 and the
    u = -u0 (mod l) of range(e), at most 2 e / l codes: K annihilates the
    difference subgroup of each mu_i, which contains its stabilizer
    d_i Z(N), so L1 and L2, and with them l, divide e, and so c divides e'.
    In all that is at most d1 d2 gcd(b - 1, c) pairs, as e <= e' <= N.

    The loop fills no table of its own: R1 and R2 are read from their memos
    (char_residues) again at each v, and a memo read past its window fills
    its table at its own price, which later v then read as a list.  So a
    pair refuted at its first v, or with no v to visit, reads only what it
    needs.  Every product is reduced mod M and zero means zero mod M, so
    the certification of cyclotomic._ModField holds for every pair
    visited, and the pairs skipped or stood for hold with them.
    """
    n = mu1.spec.exponent
    b = beta.code
    modulus = field.modulus
    mul = lambda x, y: x * y % modulus
    e, e_v = _equation_quotient(mu1, mu2, beta)
    l1, l2 = n // stabilizer_index(mu1), n // stabilizer_index(mu2)
    c = gcd(l1, l2)
    step, v_step = l1 * l2 // c, c // gcd(b - 1, c)
    inverse = pow(l1 // c, -1, l2 // c)
    for v in range(v_step, (e_v + 1) // 2, v_step):
        f, g = char_residues(mu1, field), char_residues(mu2, field)
        u0 = (v + l1 * ((b - 1) * v // c * inverse % (l2 // c))) % step
        for start in {u0, -u0 % step}:
            if _first_violation(f, g, range(start, e, step), v, b * v % n, n, mul) is not None:
                return False
    return True


def _equation_quotient(mu1: Distribution, mu2: Distribution, beta: Endomorphism) -> tuple[int, int]:
    """The indices (e, e') of K = eZ(N), the unit-modulus set, and of
    K' = K & Ann(x1 + beta x2) = e'Z(N), for any support points x_i of mu_i,
    for the dual equation of the character sums of mu1 and mu2 under beta.

    Write f, g for the character sums of mu1, mu2 and a for the multiplier
    of beta, any endomorphism (adjoint(alpha) has alpha's multiplier); on
    codes f(y) is (1/D1) times the sum of a_x * zeta**(s x y),
    s = spec.crt_pair_unit.  mu_i lives on x_i + G_i,
    G_i its difference subgroup, and K = Ann(G1) & Ann(G2)
    (distributions.unit_modulus_set).  For k in K and x in x1 + G1,
    s x k = s x1 k (mod N), so f(y + k) = zeta**(s x1 k) f(y), and likewise
    g(y + k) = zeta**(s x2 k) g(y).  With
    D(u, v) = f(u + v) g(u + beta v) - f(u - v) g(u - beta v):

    - D(u + k, v) = zeta**(s k (x1 + x2)) D(u, v), as both products pick up
      that factor;
    - D(u, v + k) = zeta**c P - zeta**(-c) P', P and P' the two products at
      (u, v) and c = s k (x1 + a x2), since a k lies in K too (K is a
      subgroup of the cyclic Z(N), so a need not be a unit).  For k in K'
      c = 0 (mod N), so D(u, v + k) = D(u, v).

    K' does not depend on the points chosen: x_i moves by G_i, which K
    annihilates, and a K lies in K.  Its index is
    lcm(e, N / gcd(x1 + a x2, N)), the index of Ann(x1 + a x2) being the
    order of x1 + a x2.  The same identities hold
    for the residues at omega, with omega**N = 1 (mod M), and a power of
    omega is a unit mod M, so each translate of a pair is zero mod M
    exactly when the pair is: the pairs _residue_equation_holds visits on
    this quotient stand for every pair.  This is the quasi-periodicity of
    the transform of a coset-supported measure (Hewitt and Ross, Abstract
    Harmonic Analysis I, sec. 23-24).
    """
    n = mu1.spec.exponent
    e = unit_modulus_set(mu1, mu2).index
    c = mu1.points[0][0] + beta.code * mu2.points[0][0]
    return e, lcm(e, n // gcd(c, n))


@dataclass(frozen=True)
class ReducedPair:
    subgroup: Subgroup
    lam1: Distribution
    lam2: Distribution
    shift1: Element
    shift2: Element


def _canonical_shift(mu: Distribution, sub: Subgroup) -> tuple[Element, Distribution]:
    """Shift mu into sub, canonically.

    All admissible shifts form one coset of sub, and the shifted
    distributions form one orbit under translation by sub; choosing the
    lexicographically smallest shifted distribution (then the smallest
    shift realizing it) removes the translation ambiguity, so both margins
    of a symmetric pair land on the same representative.  A shift exists
    exactly when sub contains the difference subgroup of mu.

    Candidates are compared as sorted (lexicographic rank, mass) lists on
    CRT codes.  Zero has rank 0, so a shift by a support point, which moves
    that point to zero, beats every other shift, and its first entry is
    (0, a) for the numerator a of that point: only the points of least
    numerator can win.  Shifts by x and x' give the same distribution
    exactly when x - x' lies in the translation stabilizer H of mu
    (distributions.stabilizer_index, memoized on mu), so one candidate per
    coset of H is sorted, the winning keys of distinct cosets differ, and
    the shift reported is the smallest-rank point of the winning coset.
    Only the winner is built as a Distribution.

    The result depends on (mu, sub) alone, and it is memoized on mu as
    [x, lam, recovered], keyed by sub.index (recovered is filled by
    _recovered_by_shift), so a margin that recurs in many symmetric pairs
    of a sweep is shifted once per subgroup, and its lam, with lam's own
    memos, is one object.  A refusal is not stored: it raises on every
    call.
    """
    memo = mu._shifts
    if memo is None:
        memo = _memo(mu, "_shifts", {})
    entry = memo.get(sub.index)
    if entry is not None:
        return entry[0], entry[1]
    if difference_subgroup(mu).index % sub.index:
        raise VerificationFailure("no valid shift found")
    spec = mu.spec
    n = spec.exponent
    rank = spec.crt_rank
    points = mu.points
    least = min(a for _, a in points)
    lightest = [x for x, a in points if a == least]  # in element order
    x = lightest[0]
    if len(lightest) > 1:
        d = stabilizer_index(mu)
        firsts: dict[int, int] = {}
        for y in lightest:
            firsts.setdefault(y % d, y)
        x = min(firsts.values(), key=lambda y: sorted((rank[(r - y) % n], a) for r, a in points))
    shift_x, lam = spec.element(x), _translate(mu, -x % n)  # with mu's stabilizer and zero classes
    memo[sub.index] = [shift_x, lam, None]
    return shift_x, lam


def _recovered_by_shift(mu: Distribution, sub: Subgroup) -> bool:
    """Whether mu == shift(lam, x) for (x, lam) = _canonical_shift(mu, sub),
    memoized with them: the half of shifts_of_common_distribution that
    concerns mu."""
    x, lam = _canonical_shift(mu, sub)
    entry = mu._shifts[sub.index]
    if entry[2] is None:
        entry[2] = mu == shift(lam, x)
    return entry[2]


def reduce_to_subgroup(inst: HeydeInstance) -> ReducedPair:
    """Reduce a symmetric pair to the annihilator of its unit-modulus set."""
    s_dual = unit_modulus_set(inst.mu1, inst.mu2)
    sub = s_dual.annihilator()
    x1, lam1 = _canonical_shift(inst.mu1, sub)
    x2, lam2 = _canonical_shift(inst.mu2, sub)
    return ReducedPair(sub, lam1, lam2, x1, x2)


@dataclass(frozen=True)
class DecompositionFlags:
    stable_under_one_minus_alpha: bool
    shifts_of_common_distribution: bool
    minimal_support_subgroup: bool
    haar_factor: bool
    restricted_symmetry: bool

    @property
    def all_true(self) -> bool:
        return (
            self.stable_under_one_minus_alpha
            and self.shifts_of_common_distribution
            and self.minimal_support_subgroup
            and self.haar_factor
            and self.restricted_symmetry
        )


@dataclass(frozen=True)
class HeydeDecomposition:
    subgroup: Subgroup
    lam: Distribution
    shift1: Element
    shift2: Element
    flags: DecompositionFlags


def decompose(inst: HeydeInstance) -> HeydeDecomposition:
    """Full decomposition of a conditionally symmetric pair, with all checks."""
    if not is_conditionally_symmetric(inst):
        raise ValueError("instance is not conditionally symmetric")
    return _decompose(inst)


def _decompose(inst: HeydeInstance) -> HeydeDecomposition:
    """decompose for a caller that has already found the pair symmetric."""
    red = reduce_to_subgroup(inst)
    if red.lam1 != red.lam2:
        raise VerificationFailure("lambda mismatch: reduced distributions differ")
    lam = red.lam1
    spec = inst.spec
    alpha = inst.alpha
    sub = red.subgroup
    one_minus = identity(spec).add(alpha.neg())
    one_plus = identity(spec).add(alpha)
    flags = DecompositionFlags(
        stable_under_one_minus_alpha=one_minus.image_of(sub) == sub,
        # lam is red.lam1 and equals red.lam2, so each half is its margin's own
        shifts_of_common_distribution=(
            _recovered_by_shift(inst.mu1, sub) and _recovered_by_shift(inst.mu2, sub)
        ),
        minimal_support_subgroup=min_support_subgroup(lam) == sub,
        haar_factor=has_haar_factor(lam, one_plus.image_of(sub)),
        restricted_symmetry=is_conditionally_symmetric(
            HeydeInstance(spec, lam, lam, alpha)
        ),
    )
    return HeydeDecomposition(sub, lam, red.shift1, red.shift2, flags)


@dataclass(frozen=True)
class CorollaryCheck:
    name: str
    applicable: bool
    verified: bool | None  # None when the hypothesis does not hold
    detail: str


@dataclass(frozen=True)
class CorollaryReport:
    checks: tuple[CorollaryCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.verified for c in self.checks if c.applicable)


def classify_corollary(inst: HeydeInstance, dec: HeydeDecomposition) -> CorollaryReport:
    """Check the strengthened conclusions whose hypotheses the instance meets."""
    spec = inst.spec
    one_plus = identity(spec).add(inst.alpha)
    checks: list[CorollaryCheck] = []

    kernel = one_plus.kernel()
    if kernel.is_trivial:
        checks.append(_uniform_lambda_check("haar_when_kernel_trivial", dec))
    else:
        checks.append(
            CorollaryCheck(
                "haar_when_kernel_trivial", False, None, "Ker(I + alpha) is nontrivial"
            )
        )

    # the margins are translates of lambda when the shift flag holds, with
    # the same zero classes (distributions._translate): lambda's are read once
    translates = (dec.lam,) if dec.flags.shifts_of_common_distribution else (inst.mu1, inst.mu2)
    nonvanishing = not any(any(char_fn_zero_classes(mu).values()) for mu in translates)
    if nonvanishing:
        verified = all(r % kernel.index == 0 for r, _ in dec.lam.points)
        detail = (
            "support of lambda lies in Ker(I + alpha)"
            if verified
            else "support of lambda escapes Ker(I + alpha)"
        )
        checks.append(CorollaryCheck("support_in_kernel_when_nonvanishing", True, verified, detail))
    else:
        checks.append(
            CorollaryCheck(
                "support_in_kernel_when_nonvanishing", False, None, "a character sum vanishes"
            )
        )

    comp = spec.components[0]
    truncated = len(spec.components) == 1 and comp.kind in (
        ComponentKind.PADIC,
        ComponentKind.QUASICYCLIC,
    )
    if truncated:
        c0 = inst.alpha.multipliers[0] % comp.p
        if c0 == comp.p - 1:
            checks.append(
                CorollaryCheck("truncated_unit_digit", False, None, "leading digit is p - 1")
            )
        elif c0 == 1:
            verified = (
                dec.subgroup.is_trivial
                and len(inst.mu1.points) == 1
                and len(inst.mu2.points) == 1
            )
            detail = "G is trivial and both margins degenerate" if verified else "G is nontrivial"
            checks.append(CorollaryCheck("truncated_unit_digit", True, verified, detail))
        else:
            checks.append(_uniform_lambda_check("truncated_unit_digit", dec))
    else:
        checks.append(
            CorollaryCheck(
                "truncated_unit_digit", False, None, "spec is not a single truncated component"
            )
        )

    return CorollaryReport(tuple(checks))


def _uniform_lambda_check(name: str, dec: HeydeDecomposition) -> CorollaryCheck:
    """The applicable check name that lambda is the uniform distribution on G."""
    verified = dec.lam == haar(dec.subgroup)
    detail = "lambda equals the uniform distribution on G" if verified else "lambda is not uniform on G"
    return CorollaryCheck(name, True, verified, detail)


# -- quasicyclic truncations ---------------------------------------------------


def quasicyclic_residue(p: int, level: int, value) -> int:
    """Map k/p**e (mod 1) to its residue in the level-sized cyclic layer."""
    v = Fraction(value)
    v -= v.numerator // v.denominator  # reduce mod 1
    scaled = v * p**level
    if scaled.denominator != 1:
        raise ValueError("support exceeds declared level")
    return int(scaled) % p**level


def quasicyclic_distribution(p: int, level: int, pmf) -> Distribution:
    """Distribution on the level-n layer from p-power fractions mod 1."""
    spec = validate_spec([Component(p, level, ComponentKind.QUASICYCLIC)])
    return from_pmf(
        spec, {(quasicyclic_residue(p, level, x),): Fraction(m) for x, m in dict(pmf).items()}
    )


def _truncated_unit(unit: PAdicUnit, p: int, level: int) -> int:
    """The multiplier of unit on the level-sized layer of the p-quasicyclic
    group, truncation(level) mod p**level, once unit's prime is p and its
    level reaches level."""
    if unit.p != p:
        raise ValueError("unit prime does not match the group prime")
    if unit.level < level:
        raise ValueError("truncation level exceeded")
    return unit.truncation(level) % p**level


@dataclass(frozen=True)
class QuasicyclicReduction:
    instance: HeydeInstance
    branch: str  # "minus_identity" or "general"
    symmetric: bool
    mu_equal: bool | None
    decomposition: HeydeDecomposition | None
    corollaries: CorollaryReport | None


def reduce_quasicyclic(p: int, level: int, pmf1, pmf2, unit: PAdicUnit) -> QuasicyclicReduction:
    """Finite reduction of a quasicyclic-group pair at a declared level.

    Finitely supported distributions live in the level-n layer, where the
    automorphism acts as multiplication by the truncated unit.  When that
    action is minus the identity, symmetry must coincide exactly with
    equality of the two distributions; otherwise the general decomposition
    machinery applies and produces a finite subgroup.
    """
    s = _truncated_unit(unit, p, level)
    mu1 = quasicyclic_distribution(p, level, pmf1)
    mu2 = quasicyclic_distribution(p, level, pmf2)
    spec = mu1.spec
    q = p**level
    inst = HeydeInstance(spec, mu1, mu2, Endomorphism(spec, s))
    symmetric = is_conditionally_symmetric(inst)
    if s == q - 1:
        equal = mu1 == mu2
        if symmetric != equal:
            raise VerificationFailure(
                "with the minus-identity action, symmetry must hold exactly when the "
                f"distributions coincide (symmetric={symmetric}, equal={equal})"
            )
        return QuasicyclicReduction(inst, "minus_identity", symmetric, equal, None, None)
    decomposition = corollaries = None
    if symmetric:
        decomposition = _decompose(inst)
        corollaries = classify_corollary(inst, decomposition)
    return QuasicyclicReduction(inst, "general", symmetric, None, decomposition, corollaries)


# -- mixed products -------------------------------------------------------------


@dataclass(frozen=True)
class MixedProductReduction:
    instance: HeydeInstance
    branch: str  # "regular" or "minus_identity"
    symmetric: bool
    decomposition: HeydeDecomposition | None
    reduces_to_first_factor: bool | None
    noncompact_candidate: bool | None


def mixed_product_spec(k_spec: GroupSpec, p: int, level: int) -> GroupSpec:
    if any(c.p == p for c in k_spec.components):
        raise ValueError(f"prime {p} appears in both factors")
    return validate_spec(k_spec.components + (Component(p, level, ComponentKind.QUASICYCLIC),))


def mixed_product_distribution(k_spec: GroupSpec, p: int, level: int, pmf) -> Distribution:
    """Distribution on K x (level-n quasicyclic layer).

    Support keys are tuples whose leading coordinates are residues in K and
    whose last coordinate is a p-power fraction mod 1 (or a plain residue).
    """
    spec = mixed_product_spec(k_spec, p, level)
    converted = {}
    for key, m in dict(pmf).items():
        *head, last = key
        if isinstance(last, Fraction) or not isinstance(last, int):
            last = quasicyclic_residue(p, level, last)
        converted[tuple(head) + (last,)] = Fraction(m)
    return from_pmf(spec, converted)


def reduce_mixed_product(
    k_spec: GroupSpec,
    alpha_k: Endomorphism,
    p: int,
    level: int,
    unit: PAdicUnit,
    pmf1,
    pmf2,
) -> MixedProductReduction:
    """Finite reduction on the product of a model group and a quasicyclic layer.

    While the quasicyclic action differs from minus identity the subgroup
    produced by the decomposition is compact; in the minus-identity case the
    reduction reports whether the computed subgroup contains the full
    truncated layer, which a finite truncation cannot distinguish from the
    genuinely noncompact outcome.
    """
    if alpha_k.spec != k_spec:
        raise ValueError("spec mismatch")
    s = _truncated_unit(unit, p, level)
    mu1 = mixed_product_distribution(k_spec, p, level, pmf1)
    mu2 = mixed_product_distribution(k_spec, p, level, pmf2)
    spec = mu1.spec
    q = p**level
    alpha = make_endo(spec, alpha_k.multipliers + (s,))
    inst = HeydeInstance(spec, mu1, mu2, alpha)
    symmetric = is_conditionally_symmetric(inst)
    decomposition = None
    reduces = noncompact = None
    if s == q - 1:
        branch = "minus_identity"
        if symmetric:
            decomposition = _decompose(inst)
            noncompact = decomposition.subgroup.exponents[-1] == 0
    else:
        branch = "regular"
        if symmetric:
            decomposition = _decompose(inst)
            reduces = s == 1
            if reduces and decomposition.subgroup.exponents[-1] != level:
                raise VerificationFailure(
                    "identity action on the quasicyclic layer must force a subgroup "
                    "inside the first factor"
                )
    return MixedProductReduction(inst, branch, symmetric, decomposition, reduces, noncompact)
