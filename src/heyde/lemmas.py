"""Standalone verifiers for the supporting functional-equation lemmas.

Each verifier first certifies its own hypothesis exactly, so a reported
violation can never be the artifact of a bad fixture.  Logarithmic
identities are checked in multiplicative (telescoping product) form to
stay in exact arithmetic; a floating log form is available as a
cross-check at a caller-supplied tolerance.

The tables are arbitrary: nothing requires them to be character tables
or Galois-equivariant, so the modular evaluation of cyclotomic._ModField
does not apply.  The checks stay on exact canonical CycloElements and are
made cheap by repetition instead: the hypotheses decide each sign once per
distinct table value, and the equation loop and the triple-difference
scan intern values and products to ids, so each distinct product is
computed once and equal sides have equal ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .cyclotomic import CycloElement, one as cyclo_one
from .distributions import Distribution, char_fn, convolve, reflect
from .engine import first_equation_violation
from .groups import Element, GroupSpec
from .morphisms import Endomorphism, identity, kappa_of


@dataclass(frozen=True)
class DualFunction:
    """A total table on the dual group, valued in Q(zeta_N) or in Q."""

    spec: GroupSpec
    table: tuple[tuple[Element, object], ...]

    def __post_init__(self):
        keys = tuple(x for x, _ in self.table)
        if keys != tuple(sorted(keys)) or len(set(keys)) != len(keys):
            raise ValueError("table must be sorted with unique keys")
        if set(keys) != set(self.spec.elements()):
            raise ValueError("table must cover every dual element")

    @cached_property
    def values(self) -> dict[Element, object]:
        return dict(self.table)

    def __call__(self, y: Element):
        return self.values[y]

    def with_value(self, y: Element, value) -> "DualFunction":
        updated = dict(self.table)
        updated[self.spec.require_element(y)] = value
        return DualFunction(self.spec, tuple(sorted(updated.items())))


def dual_function(spec: GroupSpec, mapping) -> DualFunction:
    return DualFunction(spec, tuple(sorted(dict(mapping).items())))


def char_table_function(mu: Distribution) -> DualFunction:
    return dual_function(mu.spec, {y: char_fn(mu, y) for y in mu.spec.elements()})


def squared_modulus_table(mu: Distribution) -> DualFunction:
    """Table of |character sum|**2, i.e. the character table of mu * reflect(mu)."""
    nu = convolve(mu, reflect(mu))
    return char_table_function(nu)


def _distinct_values(*fns: DualFunction) -> list:
    """The values of the tables, each once, in first-seen order."""
    return list(dict.fromkeys(v for fn in fns for v in fn.values.values()))


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


def _equation_violation(f: DualFunction, g: DualFunction, beta: Endomorphism):
    """engine.first_equation_violation on two tables, read on CRT codes."""
    elements = f.spec.crt_elements
    return first_equation_violation(
        f.spec, lambda r: f(elements[r]), lambda r: g(elements[r]), beta
    )


def _image_codes(spec: GroupSpec, endo: Endomorphism) -> list[int]:
    """CRT codes of the image of endo, in element_list order."""
    n = spec.exponent
    m = endo.code
    return sorted({m * r % n for r in range(n)}, key=spec.crt_rank.__getitem__)


def _first_triple_violation(fn: DualFunction, step_endos) -> tuple[int, tuple | None]:
    """Scan the multiplicative triple-difference identity of log fn.

    For a, b, c in the images of the three step endomorphisms (each in
    element order) and y in element_list, in that order, tests
    f(y+a+b+c) f(y+a) f(y+b) f(y+c) == f(y+a+b) f(y+a+c) f(y+b+c) f(y).
    Returns the number of checks made and the first failing (a, b, c, y),
    or None.  The loop runs on CRT codes.  Table values and every product
    are interned to ids in one table, and the product of two ids is
    memoized by the id pair, so each side is the product of two interned
    pair products.  The values are canonical cyclotomic elements, so two
    sides are equal exactly when their ids are.
    """
    spec = fn.spec
    elements = spec.crt_elements
    interned: dict = {}
    known: list = []
    memo: dict[tuple[int, int], int] = {}

    def intern(value) -> int:
        vid = interned.get(value)
        if vid is None:
            vid = interned[value] = len(known)
            known.append(value)
        return vid

    def product(i: int, j: int) -> int:
        pid = memo.get((i, j))
        if pid is None:
            pid = memo[i, j] = intern(known[i] * known[j])
        return pid

    ids = [intern(fn(x)) for x in elements] * 4  # every index below is < 4N
    a_steps, b_steps, c_steps = (_image_codes(spec, e) for e in step_endos)
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
                        return checks, tuple(elements[k] for k in (a, b, c, y))
    return checks, None


def verify_difference_lemma(
    f1: DualFunction, f2: DualFunction, beta: Endomorphism, tolerance: float | None = None
) -> DifferenceLemmaReport:
    """Triple-difference conclusions for a solution pair of the dual equation.

    The hypothesis (the multiplicative dual equation plus strict positivity
    of both tables, so that logarithms exist) is certified first.  The two
    conclusions state that log f1 is killed by differences with steps
    (I+beta)k1, 2k2, (I-beta)k3 and log f2 by differences with steps
    2*beta*k1, (I+beta)k2, -(I-beta)k3; both are checked as exact
    telescoping product identities over all step choices and base points.
    """
    spec = f1.spec
    if f2.spec != spec or beta.spec != spec:
        raise ValueError("spec mismatch")
    positive = all(
        isinstance(v, CycloElement) and v.is_real() and v.real_sign() > 0
        for v in _distinct_values(f1, f2)
    )
    violation = _equation_violation(f1, f2, beta) if positive else None
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
        made, failed = _first_triple_violation(fn, step_endos)
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
    spec = f1.spec
    logs1 = {y: math.log(abs(v.to_complex())) for y, v in f1.values.items()}
    logs2 = {y: math.log(abs(v.to_complex())) for y, v in f2.values.items()}
    worst = 0.0
    for u in spec.element_list:
        for v in spec.element_list:
            bv = beta.apply(v)
            residual = abs(
                logs1[spec.add(u, v)]
                + logs2[spec.add(u, bv)]
                - logs1[spec.sub(u, v)]
                - logs2[spec.sub(u, bv)]
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
    kappa_multipliers: tuple[int, ...] | None
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


def _within_unit_interval(value) -> bool:
    if not isinstance(value, CycloElement) or not value.is_real():
        return False
    return value.real_sign() >= 0 and (cyclo_one(value.order) - value).real_sign() >= 0


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
    bounds = all(_within_unit_interval(v) for v in _distinct_values(f, g))
    violation = _equation_violation(f, g, beta) if bounds and invertible else None
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
            kappa_multipliers=None,
            first_violation="; ".join(parts),
        )

    one = identity(spec)
    inv_minus = one.add(beta.neg()).invert()
    ratio = one.add(beta).compose(inv_minus)  # (I+beta)(I-beta)^-1
    to_g = beta.add(beta).compose(inv_minus).neg()  # -2 beta (I-beta)^-1
    to_f = inv_minus.add(inv_minus)  # 2 (I-beta)^-1
    kappa = kappa_of(beta)

    fv, gv = f.values, g.values
    sub_f = sub_g = fix_f = fix_g = True
    first_violation = None

    def note(msg: str):
        nonlocal first_violation
        if first_violation is None:
            first_violation = msg

    for y in spec.element_list:
        if fv[y] != fv[spec.neg(ratio.apply(y))] * gv[to_g.apply(y)]:
            sub_f = False
            note(f"substitution identity for f fails at {y}")
        if gv[y] != gv[ratio.apply(y)] * fv[to_f.apply(y)]:
            sub_g = False
            note(f"substitution identity for g fails at {y}")
        if fv[y] != gv[to_g.apply(y)]:
            fix_f = False
            note(f"fixed-point identity for f fails at {y}")
        if gv[y] != fv[to_f.apply(y)]:
            fix_g = False
            note(f"fixed-point identity for g fails at {y}")

    return FixedPointLemmaReport(
        hypothesis_equation_ok=True,
        bounds_ok=True,
        invertible_ok=True,
        evaluated=True,
        substitution_f_ok=sub_f,
        substitution_g_ok=sub_g,
        fixed_point_f_ok=fix_f,
        fixed_point_g_ok=fix_g,
        kappa_multipliers=kappa.multipliers,
        first_violation=first_violation,
    )
