"""Standalone verifiers for the supporting functional-equation lemmas.

Each verifier first certifies its own hypothesis exactly, so a reported
violation can never be the artifact of a bad fixture.  Logarithmic
identities are checked in multiplicative (telescoping product) form to
stay in exact arithmetic; a floating log form is available as a
cross-check at a caller-supplied tolerance.

The tables are DualFunctions, the one table type of the package
(distributions.DualFunction, indexed by dual code), which char_fn_table
and squared_modulus_table return.  Otherwise they are arbitrary: nothing
requires them to be character tables or Galois-equivariant, so the
modular evaluation of cyclotomic._ModField does not apply.  The checks
stay on exact canonical CycloElements and are made cheap by repetition
instead: the hypotheses decide each sign once per distinct value, in one
sign table that both verifiers share (_sign_table), and the equation
hypothesis and the triple-difference scan run on the ids of one interner
(_interner), which memoizes the product of two ids, so each distinct
product is computed once and equal sides have equal ids.  engine.first_equation_violation
takes the id tables and that product as its mul; id 0 is the zero value,
so the loop's sparse visits apply to tables with zeros.

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

from .cyclotomic import CycloElement, from_rational
from .distributions import Distribution, DualFunction, char_fn_table, convolve, reflect
from .engine import first_equation_violation
from .morphisms import Endomorphism, identity, kappa_of


def squared_modulus_table(mu: Distribution) -> DualFunction:
    """Table of |character sum|**2, i.e. the character table of mu * reflect(mu)."""
    return char_fn_table(convolve(mu, reflect(mu)))


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

    The loop runs on interned ids and their memoized products, so each
    distinct product is computed once, and the zero value's id 0 is falsy,
    so the loop's sparse visits apply."""
    intern, product = _interner(from_rational(f.spec.exponent, 0))
    f_ids = [intern(value) for value in f.values]
    g_ids = [intern(value) for value in g.values]
    return first_equation_violation(f.spec, f_ids.__getitem__, g_ids.__getitem__, beta, product)


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
    element order) and y in element_list, in that order, tests
    f(y+a+b+c) f(y+a) f(y+b) f(y+c) == f(y+a+b) f(y+a+c) f(y+b+c) f(y).
    Returns the number of checks made and the first failing (a, b, c, y),
    or None.  This full scan is the reference route; it makes no
    assumption on the values, zeros included.
    """
    return _triple_scan(fn, *(e.image().codes for e in step_endos))


def _triple_scan(fn: DualFunction, a_steps, b_steps, c_steps) -> tuple[int, tuple | None]:
    """The triple-difference scan over the given step codes, in that order.

    The loop runs on CRT codes, on the ids of one _interner, so each side
    is the product of two memoized pair products and the two sides are
    equal exactly when their ids are.
    """
    spec = fn.spec
    intern, product = _interner(from_rational(spec.exponent, 0))
    ids = [intern(v) for v in fn.values] * 4  # every index below is < 4N
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
                        return checks, tuple(spec.crt_elements[k] for k in (a, b, c, y))
    return checks, None


def _generator_triple_violation(fn: DualFunction, step_endos) -> tuple[int, tuple | None]:
    """_first_triple_violation for a table of nonzero values, scanning the
    generator triple first.

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
    """
    if _triple_scan(fn, *([e.code] for e in step_endos))[1] is not None:
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

    The hypothesis makes every value nonzero, so each conclusion is first
    decided on the generator triple of its step sets (N checks, see
    _generator_triple_violation) and scanned in full only if that fails.
    checks is the number of quadruples (a, b, c, y) certified: |A| |B| |C| N
    per conclusion that holds, and for one that fails the count of the full
    scan up to and including its first violation.
    """
    spec = f1.spec
    if f2.spec != spec or beta.spec != spec:
        raise ValueError("spec mismatch")
    sign = _sign_table(f1, f2)
    positive = all(
        isinstance(v, CycloElement) and v.is_real() and sign(v) > 0
        for v in _distinct_values(f1, f2)
    )
    violation = None
    if positive:
        violation = _equation_violation(f1, f2, beta)
    hypothesis_ok = positive and violation is None
    if not hypothesis_ok:
        detail = "hypothesis not satisfied"
        if positive and violation is not None:
            detail += f" at (u, v) = {violation}"
        if not positive:
            detail += ": tables must be strictly positive"
        return DifferenceLemmaReport(
            hypothesis_ok=violation is None if positive else False,
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
        made, failed = _generator_triple_violation(fn, step_endos)
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
    """Float cross-check: worst additive residual of the log-table equation."""
    n = f1.spec.exponent
    b = beta.code
    logs1 = [math.log(abs(v.to_complex())) for v in f1.values]
    logs2 = [math.log(abs(v.to_complex())) for v in f2.values]
    worst = 0.0
    for u in range(n):
        for v in range(n):
            bv = b * v
            residual = abs(
                logs1[(u + v) % n]
                + logs2[(u + bv) % n]
                - logs1[(u - v) % n]
                - logs2[(u - bv) % n]
            )
            worst = max(worst, residual)
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
    orbits need no enumeration; kappa is reported.
    """
    spec = f.spec
    if g.spec != spec or beta.spec != spec:
        raise ValueError("spec mismatch")
    invertible = identity(spec).add(beta.neg()).is_automorphism()
    sign = _sign_table(f, g)
    bounds = all(_within_unit_interval(v, sign) for v in _distinct_values(f, g))
    violation = None
    if bounds and invertible:
        violation = _equation_violation(f, g, beta)
    equation_ok = violation is None and bounds and invertible
    if not equation_ok:
        parts = ["hypothesis not satisfied"]
        if not invertible:
            parts.append("I - beta is not invertible")
        if not bounds:
            parts.append("values must lie in [0, 1]")
        if bounds and invertible and violation is not None:
            parts.append(f"equation fails at (u, v) = {violation}")
        return FixedPointLemmaReport(
            hypothesis_equation_ok=bounds and invertible and violation is None,
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
    n = spec.exponent
    elements = spec.crt_elements
    fv, gv = f.values, g.values
    r, mg, mf = ratio.code, to_g.code, to_f.code
    sub_f = sub_g = fix_f = fix_g = True
    first_violation = None

    def note(msg: str):
        nonlocal first_violation
        if first_violation is None:
            first_violation = msg

    for y in spec.crt_codes:  # element order, so the first violation noted is too
        g_at, f_at = gv[mg * y % n], fv[mf * y % n]
        if fv[y] != fv[-r * y % n] * g_at:
            sub_f = False
            note(f"substitution identity for f fails at {elements[y]}")
        if gv[y] != gv[r * y % n] * f_at:
            sub_g = False
            note(f"substitution identity for g fails at {elements[y]}")
        if fv[y] != g_at:
            fix_f = False
            note(f"fixed-point identity for f fails at {elements[y]}")
        if gv[y] != f_at:
            fix_g = False
            note(f"fixed-point identity for g fails at {elements[y]}")

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
