"""Seeded verification sweeps over instance families, with JSON-ready reports.

A sweep runs the symmetry test and the dual functional equation on every
instance, decomposes the symmetric ones, and classifies the corollaries.
Any disagreement between the two equivalent tests, any false decomposition
flag, and any failed applicable corollary is a violation; the first
violating instance is kept in full so it can be replayed.

Both modes decide their pairs under one automorphism alpha at a time, in
one loop (_run_row).  What does not depend on alpha is built once per spec,
and only for a spec with an instance to decide: a field certified for
every pair of its margins, whose denominators are at most top
(2 * top * top < M, cyclotomic._ModField), and the first v of the dual
equation in element order (engine._equation_vs).  Under alpha a sweep
keeps alpha and beta v = alpha.code * v mod N, as beta = adjoint(alpha)
has alpha's multiplier.  Each margin enters the loop with the two
residues a pair reads from it at u = 0 of the first v, f(v) and f(-v) as
a first margin, which do not depend on alpha, and g(beta v) and
g(-beta v) as a second, with its terms under alpha (engine._joint_terms).
They come from the margin's residue memo when it has one and are
otherwise computed from its points, building none
(distributions.char_residues_at).  Each pair is decided there by one
comparison of two products mod M; only a pair that holds there asks for
the residue memos of its margins and reads the other u of that v, and
only a pair refuted at that v runs the symmetry test
(engine._joint_symmetric), building no HeydeInstance.  A pair that is
refuted at its first v and is not symmetric, as nearly every pair is, has
both predicates false: it only adds 1 to the instance count, which is all
that check_instance would record for it.  Every other pair goes through
check_instance, in the order the pairs come.  An exhaustive sweep reads
the first residues of each margin once per spec and the second ones once
per automorphism, and runs every ordered pair of margins under one alpha
at a time.  A random sweep draws instance i under the
(i mod min(budget, |Aut|))-th automorphism (_instance_alphas) through
fixtures.random_instance, and runs the loop on its two fresh margins: it
pays for its draws, four residues and one comparison, and holds no list
of automorphisms.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field
from math import prod

from . import engine
from .cyclotomic import modular_field
from .engine import (
    _decompose,
    _equation_vs,
    _first_violation,
    _joint_terms,
    HeydeInstance,
    classify_corollary,
    is_conditionally_symmetric,
    satisfies_heyde_equation,
)
from .distributions import char_residues, char_residues_at
from .errors import VerificationFailure
from .fixtures import _automorphisms, enumerate_distributions, random_instance
from .groups import GroupSpec
from .morphisms import Endomorphism, make_endo
from .rng import DeterministicStream


@dataclass(frozen=True)
class SweepConfig:
    specs: tuple[GroupSpec, ...]
    mode: str = "random"  # "random" or "exhaustive"
    denominator: int = 2  # exhaustive mode: mass granularity
    max_denominator: int = 8  # random mode: cap on mass denominators
    budget: int = 100  # random mode: instances per spec
    automorphisms: tuple[tuple[int, ...], ...] | None = None  # None means all
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("random", "exhaustive"):
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        if not self.specs:
            raise ValueError("the specs list must not be empty")
        if self.budget < 0:
            raise ValueError(f"budget must be non-negative, got {self.budget}")
        if self.automorphisms is not None:
            if not self.automorphisms:
                raise ValueError("the automorphisms list must not be empty")
            for spec in self.specs:
                for vec in self.automorphisms:
                    if not make_endo(spec, vec).is_automorphism():
                        raise ValueError(f"{list(vec)} is not an automorphism of {spec.describe()}")


@dataclass
class SweepReport:
    seed: int
    instances: int = 0
    symmetric: int = 0
    disagreements: int = 0
    decomposition_failures: int = 0
    corollary_failures: int = 0
    corollary_checked: int = 0
    corollary_skipped: int = 0
    first_counterexample: dict | None = field(default=None)

    @property
    def violations(self) -> int:
        return self.disagreements + self.decomposition_failures + self.corollary_failures

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _alphas_for(spec: GroupSpec, config: SweepConfig) -> Iterator[Endomorphism]:
    """The automorphisms the sweep uses on spec, in order, built as they are
    read."""
    if config.automorphisms is None:
        return _automorphisms(spec)
    return (make_endo(spec, vec) for vec in config.automorphisms)


def exhaustive_instances(spec: GroupSpec, config: SweepConfig) -> int | None:
    """|Aut| x C(d + N - 1, N - 1)**2: the instances an exhaustive sweep runs
    on spec, or None when that is more than 10**30.

    |Aut| counts the automorphisms the sweep uses, and C(d + N - 1, N - 1)
    the margins with masses in multiples of 1/d.  The binomial is built up
    as C(d + N - 1 - k + i, i) for i = 1..k, k = min(d, N - 1), which grows
    with i, so the loop can stop as soon as the count passes 10**30 and
    stays short for any d.
    """
    n = spec.exponent
    if config.automorphisms is not None:
        autos = len(config.automorphisms)
    else:
        autos = prod(c.order - c.order // c.p for c in spec.components)
    top, k = config.denominator + n - 1, min(config.denominator, n - 1)
    margins = 1
    for i in range(1, k + 1):
        margins = margins * (top - k + i) // i
        if autos * margins**2 > 10**30:
            return None
    return autos * margins**2


def _record(report: SweepReport, inst: HeydeInstance, reason: str) -> None:
    if report.first_counterexample is None:
        from .serialize import instance_to_obj

        report.first_counterexample = {"reason": reason, "instance": instance_to_obj(inst)}


def check_instance(inst: HeydeInstance, report: SweepReport) -> None:
    """Run the full battery on one instance, accumulating into the report."""
    report.instances += 1
    symmetric = is_conditionally_symmetric(inst)
    equation = satisfies_heyde_equation(inst)
    if symmetric != equation:
        report.disagreements += 1
        _record(report, inst, f"symmetry={symmetric} but equation={equation}")
    if not symmetric:
        return
    report.symmetric += 1
    try:
        dec = _decompose(inst)
    except VerificationFailure as exc:
        report.decomposition_failures += 1
        _record(report, inst, f"decompose failed: {exc}")
        return
    if not dec.flags.all_true:
        report.decomposition_failures += 1
        _record(report, inst, f"false decomposition flag: {dec.flags}")
        return
    corollaries = classify_corollary(inst, dec)
    for check in corollaries.checks:
        if not check.applicable:
            report.corollary_skipped += 1
        else:
            report.corollary_checked += 1
            if not check.verified:
                report.corollary_failures += 1
                _record(report, inst, f"corollary {check.name} failed: {check.detail}")


def _run_row(
    alpha: Endomorphism, field, v: int, firsts: list, seconds: list, report: SweepReport
) -> None:
    """Decide every pair of firsts x seconds, first-major, under alpha:
    count each pair on which both predicates are false, and run
    check_instance on every other one.  firsts holds (mu, f(v), f(-v)) and
    seconds the margins themselves, f = char_residues(mu, field) and v the
    first v; the seconds' residues at +-beta v and terms are read here,
    once per call.

    The equation goes first.  Its first v is decided at u = 0 by one
    comparison of two products mod M, and only a pair that holds there
    asks char_residues for the residue functions of its margins and runs
    _first_violation over every u of spec.crt_codes, where u = 0 holds
    again; for two point masses K = Z(N) (engine._equation_quotient), so
    u = 0 decides every u.  So a margin whose pairs are all refuted at
    u = 0 builds no residue memo.  A pair that holds at its first v goes
    to check_instance, whose satisfies_heyde_equation decides the later v
    in whichever certified field it builds.  A pair refuted there fails
    satisfies_heyde_equation, and engine._joint_symmetric, the test of
    is_conditionally_symmetric, read from the module at each call, decides
    it: symmetric, a disagreement that check_instance records, or not
    symmetric, both predicates false, which check_instance would only
    count.
    """
    spec = alpha.spec
    codes, n, a = spec.crt_codes, spec.exponent, alpha.code
    bv = a * v % n  # nonzero, as alpha is a unit
    modulus = field.modulus
    mul = lambda x, y: x * y % modulus
    seconds = [(mu, _joint_terms(mu.points, a), *char_residues_at(mu, field, bv)) for mu in seconds]
    refuted = 0
    for mu1, f_v, f_minus_v in firsts:
        single = len(mu1.points) == 1
        for mu2, terms, g_bv, g_minus_bv in seconds:
            holds = f_v * g_bv % modulus == f_minus_v * g_minus_bv % modulus and (
                single and len(mu2.points) == 1
                or _first_violation(
                    char_residues(mu1, field), char_residues(mu2, field), codes, v, bv, n, mul
                ) is None
            )
            if holds or engine._joint_symmetric(mu1, mu2, terms, a, n):
                check_instance(HeydeInstance(spec, mu1, mu2, alpha), report)
            else:
                refuted += 1
    report.instances += refuted


def _instance_alphas(spec: GroupSpec, config: SweepConfig) -> Iterator[Endomorphism]:
    """The automorphism of each instance of a random sweep, in order: instance
    i runs under the (i mod min(budget, |Aut|))-th of _alphas_for.  Each
    cycle enumerates them again, so none is kept between instances.  It
    never ends, so run_sweep reads it once per instance, and not at all at
    budget 0."""
    while True:
        yield from itertools.islice(_alphas_for(spec, config), config.budget)


def run_sweep(config: SweepConfig) -> SweepReport:
    report = SweepReport(seed=config.seed)
    exhaustive = config.mode == "exhaustive"
    top = config.denominator if exhaustive else config.max_denominator  # bounds every den
    for spec_index, spec in enumerate(config.specs):
        if not exhaustive and not config.budget:
            continue  # no instance, so nothing N-sized is built
        # the first v builds the codes and ranks, before the field: in the
        # other order the field's transients overlap theirs, 4 MB more peak
        # on Z(3^12)
        v, field = next(_equation_vs(spec)), modular_field(spec.exponent, 2 * top * top)
        if exhaustive:
            pmfs = list(enumerate_distributions(spec, config.denominator))
            firsts = [(mu, *char_residues_at(mu, field, v)) for mu in pmfs]
            for alpha in _alphas_for(spec, config):
                _run_row(alpha, field, v, firsts, pmfs, report)
        else:
            stream = DeterministicStream(config.seed, label=f"sweep:{spec_index}")
            for i, alpha in zip(range(config.budget), _instance_alphas(spec, config)):
                inst = random_instance(spec, top, stream.derive(str(i)), alpha)
                first = (inst.mu1, *char_residues_at(inst.mu1, field, v))
                _run_row(alpha, field, v, [first], [inst.mu2], report)
    return report
