"""Standalone verifiers for the supporting functional-equation lemmas.

Each verifier first certifies its own hypothesis exactly, so a reported
violation can never be the artifact of a bad fixture.  Logarithmic
identities are checked in multiplicative (telescoping product) form to
stay in exact arithmetic; a floating log form is available as a
cross-check at a caller-supplied tolerance.

The tables are DualFunctions, the one table type of the package
(distributions.DualFunction, indexed by dual code), which char_fn_table
and squared_modulus_table return.  A table of squared_modulus_table
carries the margin mu whose |char_fn(mu)|**2 it is, and builds its values
only when they are read.  When both tables carry one, the bounds
0 <= f <= 1 hold by construction and positivity is decided by the zero
classes of the two margins, on integers (squared_modulus_table), so
neither reads a value.  Only for other tables are signs decided, once
per distinct value, in one sign table that both verifiers share
(_sign_table), by CycloElement.real_sign.  Every identity is then decided
on one of two routes.

A table that char_fn_table or squared_modulus_table built carries its
distribution nu, and its values are character sums: sigma_c f(y) =
f(c y) for every unit c, with sigma_c the automorphism zeta -> zeta**c.
Each set of points that the
verifiers check (all pairs (u, v) of the equation, every y of the
fixed-point identities, every (a, b, c, y) of a triple identity, whose
step sets are subgroups) is closed under multiplication by units, and
sigma_c maps the identity at a point to the identity at c times it.  So
the argument of cyclotomic._ModField applies: when both tables carry
their distribution, the equation hypothesis, the four fixed-point
identities and the generator triples are decided on the residues of
char_residues in one field certified for all of them (_residue_field),
and a verdict there is exact.  The hypothesis is the residue equation of
engine.satisfies_heyde_equation itself (engine._residue_equation_holds,
on the quotient of engine._equation_quotient), whose verdict is kept for
the last tables only.  The generator triples go there only when every
residue of the table is a unit mod M, which the subgroup argument of
_generator_triple_violation needs.  The residue route names no point:
on any failure the interned route below reruns and reports, so every
report is the one the interned route gives.

Tables built from values (dual_function, with_value) carry no
distribution and are otherwise arbitrary: nothing requires them to be
character tables or Galois-equivariant, so the modular evaluation does
not apply to them.  They go by the interned route, which is also the
reference: the equation hypothesis and the triple-difference scan run on
the ids of one interner (_interned, through _interner), which memoizes
the product of two ids, so each distinct product of exact canonical
CycloElements is computed once and equal sides have equal ids.
engine.first_equation_violation takes the id tables and that product as
its mul; id 0 is the zero value, so the loop's sparse visits apply to
tables with zeros.

The triple-difference conclusions are decided on subgroup generators.
For a nonvanishing table the steps at which a triple difference of
log f vanishes form a subgroup in each step (Frechet's argument for
difference operators), and each step set is the cyclic image of an
endomorphism.  Once the hypothesis has certified every value strictly
positive, the single generator triple at every base point (N checks)
therefore decides all |A| |B| |C| N checks; only a failure falls back to
the full scan, which stays the reference and names the first violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import add, itemgetter, sub

from .cyclotomic import CycloElement, from_rational, modular_field
from .distributions import (
    Distribution,
    DualFunction,
    char_fn_zero_classes,
    char_residue_table,
    convolve,
    reflect,
    stabilizer_index,
)
from .engine import _residue_equation_holds, first_equation_violation
from .morphisms import Endomorphism, identity, kappa_of


def squared_modulus_table(mu: Distribution) -> DualFunction:
    """Table of |character sum|**2, i.e. the character table of mu * reflect(mu).

    The table carries nu = mu * reflect(mu) as its distribution, so the
    residue route applies to it as to any character table, and mu as its
    margin; its values, char_fn_table(nu).values, are built on first read
    (distributions.DualFunction).  Three facts about its values follow
    from the margin, with no value read:

    - Each is real and at least 0.  With f = char_fn(mu) and D the
      denominator of mu, the value at y is sum over x, x' of
      a_x a_x' zeta**(s (x - x') y) / D**2, s = spec.crt_pair_unit, which
      is f(y) times the complex conjugate of f(y), as conjugation maps
      zeta to zeta**-1: that is |f(y)|**2.
    - Each lies in [0, 1].  f(y) is a convex combination of roots of
      unity, so |f(y)| <= 1.
    - The value at y is positive exactly when f(y) != 0, as |f(y)|**2 is
      zero exactly when f(y) is.  So every value is positive exactly when
      char_fn_zero_classes(mu) has no zero class: its classes, one per
      divisor g of N, hold the codes y with gcd(y, N) = g, so every code
      lies in one, and f vanishes on all of a class or on none of it, as
      the automorphisms zeta -> zeta**c, c a unit, permute its values.

    The verifiers take the bounds and positivity from these facts when
    both tables carry a margin, and read values only for what a report
    states of them (_log_residual) or for the interned route after a
    residue failure.
    """
    stabilizer_index(mu)  # filled on mu, so that its reflection starts with it
    return DualFunction._squared_modulus(mu, convolve(mu, reflect(mu)))


def _margins(*fns: DualFunction) -> tuple | None:
    """The margins of the tables (squared_modulus_table), or None unless
    every table carries one."""
    margins = tuple(fn.margin for fn in fns)
    return None if None in margins else margins


def _distinct_values(*fns: DualFunction) -> list:
    """The values of the tables, each once, in first-seen order."""
    return list(dict.fromkeys(v for fn in fns for v in fn.values))


def _interner(zero):
    """(intern, product) over one table of ids, with id 0 for zero.

    intern(value) is the id of value, given on first sight; product(i, j)
    is the id of the product of the values with ids i and j, memoized by
    one int key, so each distinct product is computed once.  Values are
    canonical cyclotomic elements, so two values are equal exactly when
    their ids are, and a product with zero has id 0.
    """
    ids = {zero: 0}
    values = [zero]
    memo: dict[int, int] = {}

    def intern(value) -> int:
        vid = ids.get(value)
        if vid is None:
            vid = ids[value] = len(values)
            values.append(value)
        return vid

    def product(i: int, j: int) -> int:
        key = i << 32 | j  # ids stay below 2**32
        pid = memo.get(key)
        if pid is None:
            pid = memo[key] = intern(values[i] * values[j])
        return pid

    return intern, product


@lru_cache(maxsize=1)
def _sign_table(f: DualFunction, g: DualFunction):
    """value -> value.real_sign(), memoized, kept for the last (f, g): both
    verifiers sign the values of the same tables, and verify-lemmas runs
    them in turn, so each distinct value is signed once per run."""
    signs: dict[CycloElement, int] = {}

    def sign(value: CycloElement) -> int:
        s = signs.get(value)
        if s is None:
            s = signs[value] = value.real_sign()
        return s

    return sign


@lru_cache(maxsize=1)
def _equation_violation(f: DualFunction, g: DualFunction, beta: Endomorphism):
    """engine.first_equation_violation on the tables of f and g, kept for the
    last (f, g, beta): both verifiers certify this hypothesis, and
    verify-lemmas runs them in turn on the same tables.

    The loop runs on interned ids and their memoized products (_interned),
    so each distinct product is computed once, and the zero value's id 0 is
    falsy, so the loop's sparse visits apply."""
    f_ids, g_ids, product = _interned(f, g)
    return first_equation_violation(f.spec, f_ids.__getitem__, g_ids.__getitem__, beta, product)


def _residue_field(f: DualFunction, g: DualFunction):
    """The one field of the residue route for the tables f and g, or None
    unless both carry their distribution.

    With D1, D2 the denominators of the two distributions, D1 * f(y) is a
    sum of roots of unity with integer coefficients of absolute sum D1.  So
    D1 * D2 times either side of the equation or of a fixed-point identity
    has weight at most D1 * D2, and D**4 times either side of a triple
    identity of a table with denominator D at most D**4; a difference of
    two sides has at most twice that.  A modulus above
    max(2 D1 D2, 2 D1**4, 2 D2**4) certifies each of them
    (cyclotomic._ModField).
    """
    nu1, nu2 = f.distribution, g.distribution
    if nu1 is None or nu2 is None:
        return None
    d1, d2 = nu1.den, nu2.den
    return modular_field(f.spec.exponent, max(2 * d1 * d2, 2 * d1**4, 2 * d2**4))


# engine._residue_equation_holds, kept for the last arguments:
# verify-lemmas runs both verifiers on the same tables.
_residue_equation = lru_cache(maxsize=1)(_residue_equation_holds)


def _hypothesis_violation(f: DualFunction, g: DualFunction, beta: Endomorphism, field):
    """The first (u, v) in element order at which the equation of f and g
    fails, or None.  With a field (_residue_field) the residue route
    decides; only when it finds a violation does the interned route
    (_equation_violation) run, and name the first one."""
    if field is not None and _residue_equation(f.distribution, g.distribution, beta, field):
        return None
    return _equation_violation(f, g, beta)


@dataclass(frozen=True)
class DifferenceLemmaReport:
    hypothesis_ok: bool
    positive_ok: bool
    evaluated: bool
    first_conclusion_ok: bool | None
    second_conclusion_ok: bool | None
    first_violation: str | None
    checks: int
    max_log_residual: float | None

    @property
    def ok(self) -> bool:
        return self.evaluated and bool(self.first_conclusion_ok and self.second_conclusion_ok)


def _first_triple_violation(fn: DualFunction, step_endos) -> tuple[int, tuple | None]:
    """Scan the multiplicative triple-difference identity of log fn.

    For a, b, c in the images of the three step endomorphisms (each in
    element order) and y in spec.crt_codes, in that order, tests
    f(y+a+b+c) f(y+a) f(y+b) f(y+c) == f(y+a+b) f(y+a+c) f(y+b+c) f(y).
    Returns the number of checks made and the first failing (a, b, c, y),
    or None.  This full scan is the reference route; it makes no
    assumption on the values, zeros included.
    """
    return _triple_scan(fn.spec, *_interned(fn), *(e.image().codes for e in step_endos))


def _interned(*tables: DualFunction) -> tuple:
    """The ids of each table's values, by code, one list per table, and the
    memoized product of ids, all of one _interner."""
    intern, product = _interner(from_rational(tables[0].spec.exponent, 0))
    return (*([intern(v) for v in fn.values] for fn in tables), product)


def _triple_scan(spec, values, product, a_steps, b_steps, c_steps) -> tuple[int, tuple | None]:
    """The triple-difference scan over the given step codes, in that order.

    The loop runs on CRT codes, on values indexed by code, and compares the
    two sides by ==, each the product of two pair products: ids of one
    _interner with their memoized product, equal exactly when the values
    are, or residues mod M with their product mod M.
    """
    ids = values * 4  # every index below is < 4N
    checks = 0
    for a in a_steps:
        for b in b_steps:
            ab = a + b
            for c in c_steps:
                abc, ac, bc = ab + c, a + c, b + c
                for y in spec.crt_codes:
                    checks += 1
                    lhs = product(product(ids[y + abc], ids[y + a]), product(ids[y + b], ids[y + c]))
                    rhs = product(product(ids[y + ab], ids[y + ac]), product(ids[y + bc], ids[y]))
                    if lhs != rhs:
                        return checks, tuple(map(spec.element, (a, b, c, y)))
    return checks, None


def _generator_triple_violation(fn: DualFunction, step_endos, field) -> tuple[int, tuple | None]:
    """_first_triple_violation for a table of nonzero values, scanning the
    generator triple first: on the residues of fn in field when field is
    not None (_residue_field) and every residue is a unit mod M, otherwise
    on interned ids.

    With D_a f(y) = f(y+a)/f(y), the identity at (a, b, c, y) says
    D_a D_b D_c f(y) == 1.  D_{a+a'} g = (T_{a'} D_a g) * D_{a'} g for the
    translation T_{a'} g(y) = g(y+a'), and the D's commute, so for fixed
    b, c the steps a at which the identity holds for every y are closed
    under addition: a subgroup of the finite group.  The same holds in b
    and in c.  Each step set is the image of r -> m * r on Z(N), the
    subgroup generated by m = endo.code.  So the identity holds on all of
    A x B x C x Z(N) exactly when it holds at (m_a, m_b, m_c, y) for every
    y, and a pass reports |A| |B| |C| N checks, the count of the full scan.
    A failure reruns the full scan for its first violation and count.

    On residues R(y) = D * fn(y) mod M the same argument runs in the
    group of units mod M, with D_a R(y) = R(y + a) / R(y), once every R(y)
    is a unit: the identity then holds mod M on all of A x B x C x Z(N).
    That set is closed under multiplication by units, as A, B and C are
    subgroups, so each identity holds exactly (see the module docstring).
    """
    values = product = None
    if field is not None:
        modulus = field.modulus
        residues = char_residue_table(fn.distribution, field)
        if all(math.gcd(r, modulus) == 1 for r in residues):
            values, product = residues, lambda a, b: a * b % modulus
    if values is None:
        values, product = _interned(fn)
    if _triple_scan(fn.spec, values, product, *([e.code] for e in step_endos))[1] is not None:
        return _first_triple_violation(fn, step_endos)
    return math.prod(e.image().order for e in step_endos) * fn.spec.exponent, None


def verify_difference_lemma(
    f1: DualFunction, f2: DualFunction, beta: Endomorphism, tolerance: float | None = None
) -> DifferenceLemmaReport:
    """Triple-difference conclusions for a solution pair of the dual equation.

    The hypothesis (the multiplicative dual equation plus strict positivity
    of both tables, so that logarithms exist) is certified first.  The two
    conclusions state that log f1 is killed by differences with steps
    (I+beta)k1, 2k2, (I-beta)k3 and log f2 by differences with steps
    2*beta*k1, (I+beta)k2, -(I-beta)k3; both are exact telescoping product
    identities over all step choices and base points.

    When both tables carry a margin (squared_modulus_table), positivity
    is decided by the margins' zero classes, with no value read.  The
    hypothesis makes every value nonzero, so each conclusion is first
    decided on the generator triple of its step sets (N checks, see
    _generator_triple_violation) and scanned in full only if that fails.
    The hypothesis and the generator triples go by the residue route when
    both tables carry their distribution (see the module docstring).
    checks is the number of quadruples (a, b, c, y) certified: |A| |B| |C| N
    per conclusion that holds, and for one that fails the count of the full
    scan up to and including its first violation.
    """
    spec = f1.spec
    if f2.spec != spec or beta.spec != spec:
        raise ValueError("spec mismatch")
    margins = _margins(f1, f2)
    if margins is not None:
        positive = not any(zero for mu in margins for zero in char_fn_zero_classes(mu).values())
    else:
        sign = _sign_table(f1, f2)
        positive = all(
            isinstance(v, CycloElement) and v.is_real() and sign(v) > 0
            for v in _distinct_values(f1, f2)
        )
    violation = field = None
    if positive:
        field = _residue_field(f1, f2)
        violation = _hypothesis_violation(f1, f2, beta, field)
    hypothesis_ok = positive and violation is None
    if not hypothesis_ok:
        detail = "hypothesis not satisfied"
        if positive:
            detail += f" at (u, v) = {violation}"
        else:
            detail += ": tables must be strictly positive"
        return DifferenceLemmaReport(
            hypothesis_ok=False,
            positive_ok=positive,
            evaluated=False,
            first_conclusion_ok=None,
            second_conclusion_ok=None,
            first_violation=detail,
            checks=0,
            max_log_residual=None,
        )

    one = identity(spec)
    one_plus = one.add(beta)
    one_minus = one.add(beta.neg())
    two_beta = beta.add(beta)
    double = one.add(one)

    checks = 0
    first_violation = None
    results = []
    for fn, step_endos in (
        (f1, (one_plus, double, one_minus)),
        (f2, (two_beta, one_plus, one_minus)),
    ):
        made, failed = _generator_triple_violation(fn, step_endos, field)
        checks += made
        results.append(failed is None)
        if failed is not None and first_violation is None:
            a, b, c, y = failed
            first_violation = f"steps {(a, b, c)} at y = {y}"

    max_residual = None
    if tolerance is not None:
        max_residual = _log_residual(f1, f2, beta)
    return DifferenceLemmaReport(
        hypothesis_ok=True,
        positive_ok=True,
        evaluated=True,
        first_conclusion_ok=results[0],
        second_conclusion_ok=results[1],
        first_violation=first_violation,
        checks=checks,
        max_log_residual=max_residual,
    )


def _log_residual(f1: DualFunction, f2: DualFunction, beta: Endomorphism) -> float:
    """Float cross-check: worst additive residual of the log-table equation,
    |log f1(u + v) + log f2(u + beta v) - log f1(u - v) - log f2(u - beta v)|
    over every (u, v), summed in that order.

    Each u is one pass over v on slices: with both log tables doubled,
    u + v runs over logs1[u:u + N] and u - v over the reverse slice from
    u + N down to u + 1, and logs2[u:u + N] is read at beta v and at
    -beta v through two getters of N indices formed once.  Every residual
    is the same sum of the same floats in the same order as the
    pair-by-pair loop, and the maximum does not depend on the order, so
    the value is the same float.
    """
    n = f1.spec.exponent
    b = beta.code
    logs1 = [math.log(abs(v.to_complex())) for v in f1.values] * 2
    logs2 = [math.log(abs(v.to_complex())) for v in f2.values] * 2
    plus = itemgetter(*[b * v % n for v in range(n)])  # N >= 3, so each gives a tuple
    minus = itemgetter(*[-b * v % n for v in range(n)])
    worst = 0.0
    for u in range(n):
        at = logs2[u : u + n]
        left = map(add, logs1[u : u + n], plus(at))
        residuals = map(sub, map(sub, left, logs1[u + n : u : -1]), minus(at))
        worst = max(worst, max(map(abs, residuals)))
    return worst


@dataclass(frozen=True)
class FixedPointLemmaReport:
    hypothesis_equation_ok: bool
    bounds_ok: bool
    invertible_ok: bool
    evaluated: bool
    substitution_f_ok: bool | None
    substitution_g_ok: bool | None
    fixed_point_f_ok: bool | None
    fixed_point_g_ok: bool | None
    kappa: tuple[int, ...] | None  # the multipliers of kappa
    first_violation: str | None

    @property
    def ok(self) -> bool:
        return self.evaluated and all(
            (
                self.substitution_f_ok,
                self.substitution_g_ok,
                self.fixed_point_f_ok,
                self.fixed_point_g_ok,
            )
        )


def _fixed_point_residues_hold(f: DualFunction, g: DualFunction, field, r: int, mg: int, mf: int) -> bool:
    """Whether the four identities of verify_fixed_point_lemma hold at every
    y, decided on the residues R1 = D1 f and R2 = D2 g in field
    (_residue_field), each identity times D1 D2:

        D2 R1(y) = R1(-r y) R2(mg y) = D1 R2(mg y),
        D1 R2(y) = R2(r y) R1(mf y) = D2 R1(mf y).

    Every side has weight at most D1 D2, the identities are checked at
    every y, and sigma_c maps the identity at y to the one at c y, so the
    verdict is exact (see the module docstring).
    """
    n = f.spec.exponent
    m = field.modulus
    d1, d2 = f.distribution.den, g.distribution.den
    rf, rg = char_residue_table(f.distribution, field), char_residue_table(g.distribution, field)
    return all(
        d2 * rf[y] % m == rf[-r * y % n] * rg[mg * y % n] % m == d1 * rg[mg * y % n] % m
        and d1 * rg[y] % m == rg[r * y % n] * rf[mf * y % n] % m == d2 * rf[mf * y % n] % m
        for y in range(n)
    )


def _within_unit_interval(value, sign) -> bool:
    if not isinstance(value, CycloElement) or not value.is_real():
        return False
    return sign(value) >= 0 and sign(1 - value) >= 0


def verify_fixed_point_lemma(
    f: DualFunction, g: DualFunction, beta: Endomorphism
) -> FixedPointLemmaReport:
    """Substitution and orbit fixed-point identities for bounded solutions.

    For [0, 1]-valued solutions of the dual pair equation with I - beta
    invertible, verifies the two substitution identities obtained from the
    equation, then checks at every base point the two equalities that the
    orbit argument forces.  Every orbit under the derived automorphism
    kappa = -4*beta*(I-beta)**-2 is finite because the group is, so the
    orbits need no enumeration; kappa is reported.  The bounds hold by
    construction when both tables carry a margin (squared_modulus_table),
    and are otherwise decided on the sign table.  The equation and the
    four identities go by the residue route when both tables carry their
    distribution (see the module docstring).
    """
    spec = f.spec
    if g.spec != spec or beta.spec != spec:
        raise ValueError("spec mismatch")
    invertible = identity(spec).add(beta.neg()).is_automorphism()
    bounds = True  # two squared moduli lie in [0, 1] (squared_modulus_table)
    if _margins(f, g) is None:
        sign = _sign_table(f, g)
        bounds = all(_within_unit_interval(v, sign) for v in _distinct_values(f, g))
    violation = field = None
    if bounds and invertible:
        field = _residue_field(f, g)
        violation = _hypothesis_violation(f, g, beta, field)
    equation_ok = violation is None and bounds and invertible
    if not equation_ok:
        parts = ["hypothesis not satisfied"]
        if not invertible:
            parts.append("I - beta is not invertible")
        if not bounds:
            parts.append("values must lie in [0, 1]")
        if bounds and invertible:
            parts.append(f"equation fails at (u, v) = {violation}")
        return FixedPointLemmaReport(
            hypothesis_equation_ok=False,
            bounds_ok=bounds,
            invertible_ok=invertible,
            evaluated=False,
            substitution_f_ok=None,
            substitution_g_ok=None,
            fixed_point_f_ok=None,
            fixed_point_g_ok=None,
            kappa=None,
            first_violation="; ".join(parts),
        )

    one = identity(spec)
    inv_minus = one.add(beta.neg()).invert()
    ratio = one.add(beta).compose(inv_minus)  # (I+beta)(I-beta)^-1
    to_g = beta.add(beta).compose(inv_minus).neg()  # -2 beta (I-beta)^-1
    to_f = inv_minus.add(inv_minus)  # 2 (I-beta)^-1
    kappa = kappa_of(beta)

    # On CRT codes each map is one multiplier; only a failing y is decoded.
    r, mg, mf = ratio.code, to_g.code, to_f.code
    sub_f = sub_g = fix_f = fix_g = True
    first_violation = None

    def note(msg: str):
        nonlocal first_violation
        if first_violation is None:
            first_violation = msg

    if field is None or not _fixed_point_residues_hold(f, g, field, r, mg, mf):
        n = spec.exponent
        fv, gv = f.values, g.values
        for y in spec.crt_codes:  # element order, so the first violation noted is too
            g_at, f_at = gv[mg * y % n], fv[mf * y % n]
            if fv[y] != fv[-r * y % n] * g_at:
                sub_f = False
                note(f"substitution identity for f fails at {spec.element(y)}")
            if gv[y] != gv[r * y % n] * f_at:
                sub_g = False
                note(f"substitution identity for g fails at {spec.element(y)}")
            if fv[y] != g_at:
                fix_f = False
                note(f"fixed-point identity for f fails at {spec.element(y)}")
            if gv[y] != f_at:
                fix_g = False
                note(f"fixed-point identity for g fails at {spec.element(y)}")

    return FixedPointLemmaReport(
        hypothesis_equation_ok=True,
        bounds_ok=True,
        invertible_ok=True,
        evaluated=True,
        substitution_f_ok=sub_f,
        substitution_g_ok=sub_g,
        fixed_point_f_ok=fix_f,
        fixed_point_g_ok=fix_g,
        kappa=kappa.multipliers,
        first_violation=first_violation,
    )
