import gc
import tracemalloc
from math import comb, gcd

import pytest

from heyde import DeterministicStream, SweepConfig, run_sweep, validate_spec
from heyde.sweep import SweepReport, check_instance, exhaustive_instances
from heyde import HeydeInstance, degenerate, enumerate_automorphisms, enumerate_distributions, make_endo
from heyde import distributions, engine, sweep
from heyde.cyclotomic import modular_field
from heyde.fixtures import random_instance
from heyde.serialize import dumps_canonical, sweep_report_to_obj

import oracles
from limits import time_limit

Z3 = validate_spec([(3, 1)])
Z5 = validate_spec([(5, 1)])


def test_zero_budget_gives_empty_report():
    report = run_sweep(SweepConfig(specs=(Z5,), mode="random", budget=0, seed=1))
    assert report.instances == 0
    assert report.ok


def test_exhaustive_denominator_one_counts():
    report = run_sweep(SweepConfig(specs=(Z3,), mode="exhaustive", denominator=1, seed=0))
    # 3 point masses squared, both automorphisms; symmetric exactly when
    # x1 + alpha x2 = 0
    assert report.instances == 18
    assert report.symmetric == 6
    assert report.violations == 0
    assert report.first_counterexample is None


def test_sweep_is_reproducible():
    config = SweepConfig(specs=(Z5, Z3), mode="random", budget=25, max_denominator=6, seed=404)
    first = run_sweep(config)
    second = run_sweep(config)
    assert first == second


def test_automorphism_filter():
    config = SweepConfig(
        specs=(Z5,), mode="exhaustive", denominator=1, automorphisms=((4,),), seed=0
    )
    report = run_sweep(config)
    assert report.instances == 25  # one automorphism, 5 x 5 point-mass pairs
    assert report.symmetric == 5  # alpha = -I: exactly the equal pairs


def test_check_instance_accumulates_symmetric_case():
    report = SweepReport(seed=0)
    inst = HeydeInstance(Z5, degenerate(Z5, (3,)), degenerate(Z5, (1,)), make_endo(Z5, [2]))
    check_instance(inst, report)
    assert report.instances == 1
    assert report.symmetric == 1
    assert report.disagreements == 0
    assert report.corollary_checked > 0
    assert report.ok


@pytest.mark.parametrize("comps, denominator", [([(3, 2)], 2), ([(5, 1)], 3)])
def test_exhaustive_reports_match_the_oracle(comps, denominator):
    # every margin recurs 2 |Aut| |pmfs| times, so the memoized residues and
    # automorphism codes are reused across thousands of instances here
    spec = validate_spec(comps)
    report = run_sweep(SweepConfig(specs=(spec,), mode="exhaustive", denominator=denominator))
    instances, symmetric = oracles.brute_exhaustive_sweep(spec.orders, denominator)
    assert (report.instances, report.symmetric) == (instances, symmetric)
    assert report.violations == 0 and report.first_counterexample is None
    if comps == [(3, 2)]:
        assert (instances, symmetric) == (12_150, 108)


def test_exhaustive_instances_counts_what_the_sweep_runs():
    for spec, denominator, autos in (
        (Z3, 1, None),
        (Z5, 1, ((4,),)),
        (Z5, 3, None),
        (validate_spec([(3, 2)]), 2, ((2,), (8,))),
    ):
        config = SweepConfig(
            specs=(spec,), mode="exhaustive", denominator=denominator, automorphisms=autos
        )
        assert exhaustive_instances(spec, config) == run_sweep(config).instances


def test_exhaustive_instances_beyond_10_30_is_none():
    big = validate_spec([(3, 2), (5, 1)])
    config = SweepConfig(specs=(big,), mode="exhaustive", denominator=4)
    assert exhaustive_instances(big, config) == 24 * comb(48, 4) ** 2
    # the count at d = 10**12 has millions of digits; the loop stops at 10**30
    spec = validate_spec([(3, 12)])
    config = SweepConfig(specs=(spec,), mode="exhaustive", denominator=10**12)
    assert exhaustive_instances(spec, config) is None
    config = SweepConfig(specs=(Z3,), mode="exhaustive", denominator=10**7)
    assert exhaustive_instances(Z3, config) == 2 * comb(10**7 + 2, 2) ** 2 < 10**30


# -- automorphism rows ---------------------------------------------------------------


ROW_CONFIGS = [
    ([(3, 1)], 1, None),
    ([(3, 1)], 2, None),
    ([(3, 1)], 3, None),
    ([(5, 1)], 2, None),
    ([(5, 1)], 3, None),
    ([(7, 1)], 2, None),
    ([(3, 2)], 2, None),
    ([(3, 3)], 1, None),
    ([(5, 2)], 1, None),
    # both symmetry routes, and asymmetric pairs that pass the first v
    ([(3, 1), (5, 1)], 1, None),
    ([(3, 2)], 3, ((2,), (4,), (8,))),
    # the joint route alone (alpha - 1 = 3, 6 not units), margins of up to three points
    ([(3, 2)], 3, ((4,), (7,))),
]


def _row_config(comps, denominator, automorphisms):
    return SweepConfig(
        specs=(validate_spec(comps),),
        mode="exhaustive",
        denominator=denominator,
        automorphisms=automorphisms,
    )


def _canonical_report(report):
    return dumps_canonical(sweep_report_to_obj(report))


@pytest.mark.parametrize("comps, denominator, automorphisms", ROW_CONFIGS)
def test_rows_report_what_the_per_instance_loop_reports(comps, denominator, automorphisms):
    config = _row_config(comps, denominator, automorphisms)
    expected = _canonical_report(oracles.per_instance_sweep(config))
    assert _canonical_report(run_sweep(config)) == expected


def _pairs(spec, denominator, alpha):
    pmfs = list(enumerate_distributions(spec, denominator))
    for mu1 in pmfs:
        for mu2 in pmfs:
            symmetric = oracles.brute_symmetric(
                spec.orders, dict(mu1.masses), dict(mu2.masses), alpha.multipliers
            )
            yield mu1, mu2, symmetric


@pytest.mark.parametrize("flip_symmetric", [True, False])
def test_a_flipped_verdict_is_reported_alike_by_rows_and_instances(flip_symmetric, monkeypatch):
    spec = validate_spec([(3, 2)])
    alpha = make_endo(spec, (2,))
    chosen = next(
        (mu1, mu2)
        for mu1, mu2, symmetric in _pairs(spec, 2, alpha)
        if symmetric == flip_symmetric and len(mu1.points) == 2
    )
    config = _row_config([(3, 2)], 2, None)
    _flip_one_verdict(
        monkeypatch, config, alpha, chosen, flip_symmetric, oracles.per_instance_sweep
    )


def _flip_one_verdict(monkeypatch, config, alpha, chosen, flip_symmetric, per_instance):
    # the symmetry test is shared by both loops: flipping it on one pair
    # under one alpha must give the same disagreement in both reports
    real = engine._joint_symmetric
    flips = []

    def flipped(mu1, mu2, second, a, n):
        verdict = real(mu1, mu2, second, a, n)
        if (mu1, mu2) == chosen and a == alpha.code:
            flips.append(verdict)
            return not verdict
        return verdict

    monkeypatch.setattr(engine, "_joint_symmetric", flipped)
    rows = run_sweep(config)
    assert flips and set(flips) == {flip_symmetric}
    reference = per_instance(config)
    assert rows.disagreements == reference.disagreements >= 1
    assert rows.first_counterexample is not None
    assert _canonical_report(rows) == _canonical_report(reference)


def _counting(monkeypatch):
    reached = []
    real = sweep.check_instance

    def counted(inst, report):
        reached.append((inst.alpha.code, inst.mu1, inst.mu2))
        real(inst, report)

    monkeypatch.setattr(sweep, "check_instance", counted)
    return reached


def test_only_symmetric_pairs_reach_check_instance_on_z9(monkeypatch):
    reached = _counting(monkeypatch)
    spec = validate_spec([(3, 2)])
    report = run_sweep(_row_config([(3, 2)], 2, None))
    expected = [
        (alpha.code, mu1, mu2)
        for alpha in enumerate_automorphisms(spec)
        for mu1, mu2, symmetric in _pairs(spec, 2, alpha)
        if symmetric
    ]
    assert reached == expected
    assert len(reached) == report.symmetric == 108
    assert report.instances == 12_150


def test_pairs_that_pass_the_first_v_reach_check_instance_on_z3xz5(monkeypatch):
    reached = _counting(monkeypatch)
    spec = validate_spec([(3, 1), (5, 1)])
    report = run_sweep(_row_config([(3, 1), (5, 1)], 1, None))
    expected, passing = _expected_reached(
        spec,
        modular_field(spec.exponent, 2),
        (
            (alpha, mu1, mu2, symmetric)
            for alpha in enumerate_automorphisms(spec)
            for mu1, mu2, symmetric in _pairs(spec, 1, alpha)
        ),
    )
    assert reached == expected
    assert (len(reached), report.symmetric, report.instances) == (360, 120, 1800)
    assert passing == 240  # asymmetric pairs that hold at the first v


def _expected_reached(spec, field, pairs):
    """(alpha.code, mu1, mu2) of each (alpha, mu1, mu2, symmetric) of pairs
    that is symmetric or whose dense equation loop holds at its first v,
    and how many of those are not symmetric."""
    first_v = oracles.element_list(spec)[1]
    expected = []
    passing = 0
    for alpha, mu1, mu2, symmetric in pairs:
        f, g = (oracles.per_code_residues(mu, field).__getitem__ for mu in (mu1, mu2))
        found = oracles.dense_equation_violation(spec, f, g, alpha, field.modulus)
        passes = found is None or found[1] != first_v
        if symmetric or passes:
            expected.append((alpha.code, mu1, mu2))
            passing += passes and not symmetric
    return expected, passing


@pytest.mark.parametrize("denominator", [1, 2])
def test_only_pairs_that_hold_at_u_0_run_the_rest_of_the_first_v(denominator, monkeypatch):
    # the row loop decides u = 0 of the first v from two residues of each
    # margin; _first_violation runs over the other u only for the pairs that
    # hold there and are not two point masses (which stop at u = 0), and
    # at denominator 1 every margin is a point mass
    spec = validate_spec([(3, 1), (5, 1)])
    n = spec.exponent
    real = sweep._first_violation
    called = []

    def counted(f, g, *args):
        u = real(f, g, *args)
        called.append((tuple(map(f, range(n))), tuple(map(g, range(n)))))
        return u

    monkeypatch.setattr(sweep, "_first_violation", counted)
    report = run_sweep(_row_config([(3, 1), (5, 1)], denominator, None))
    field = modular_field(n, 2 * denominator**2)
    modulus = field.modulus
    pmfs = list(enumerate_distributions(spec, denominator))
    residues = [tuple(oracles.per_code_residues(mu, field)) for mu in pmfs]
    v = spec.crt_codes[1]  # the first v
    expected = []
    holding = 0
    for alpha in enumerate_automorphisms(spec):
        bv = alpha.adjoint().code * v % n
        for mu1, f in zip(pmfs, residues):
            for mu2, g in zip(pmfs, residues):
                if f[v] * g[bv] % modulus == f[-v] * g[-bv] % modulus:
                    holding += 1
                    if len(mu1.points) > 1 or len(mu2.points) > 1:
                        expected.append((f, g))
    assert called == expected
    assert report.instances == len(enumerate_automorphisms(spec)) * len(pmfs) ** 2
    if denominator == 1:
        assert not called and holding == 360  # the pairs that reach check_instance
    else:
        assert 0 < len(called) < holding < report.instances // 4


# -- random mode on automorphism rows ------------------------------------------------


LADDER = {
    "Z9": [(3, 2)],
    "Z9xZ5": [(3, 2), (5, 1)],
    "Z27xZ5": [(3, 3), (5, 1)],
    "Z9xZ5xZ7": [(3, 2), (5, 1), (7, 1)],
}


def _random_config(comps, seed, max_denominator, budget, automorphisms=None):
    return SweepConfig(
        specs=(validate_spec(comps),),
        mode="random",
        budget=budget,
        max_denominator=max_denominator,
        automorphisms=automorphisms,
        seed=seed,
    )


@pytest.mark.parametrize("max_denominator", [1, 2, 32])
@pytest.mark.parametrize("name", list(LADDER))
def test_random_rows_report_what_the_per_instance_loop_reports(name, max_denominator):
    for seed in (1, 2, 3):
        config = _random_config(LADDER[name], seed, max_denominator, 60)
        expected = _canonical_report(oracles.per_instance_random_sweep(config))
        assert _canonical_report(run_sweep(config)) == expected


def test_random_rows_report_what_the_per_instance_loop_reports_on_small_groups():
    # symmetric pairs are common here, and budget > |Aut| reuses every row
    for comps, max_denominator, budget, automorphisms in (
        ([(3, 1)], 1, 300, None),
        ([(3, 1)], 2, 300, None),
        ([(5, 1)], 2, 300, ((4,),)),
        ([(3, 1), (5, 1)], 2, 400, None),
        ([(3, 2), (5, 1)], 32, 100, ((2, 2), (4, 1), (1, 3))),
        ([(3, 2)], 8, 5, ((8,), (4,))),
        ([(3, 2)], 3, 240, ((4,), (7,))),  # the joint route alone
    ):
        config = _random_config(comps, 7, max_denominator, budget, automorphisms)
        reference = oracles.per_instance_random_sweep(config)
        assert _canonical_report(run_sweep(config)) == _canonical_report(reference)


def _random_pairs(config):
    """(alpha, mu1, mu2) of every instance of a one-spec random sweep, in order."""
    spec = config.specs[0]
    alphas = list(sweep._alphas_for(spec, config))
    stream = DeterministicStream(config.seed, label="sweep:0")
    for i in range(config.budget):
        alpha = alphas[i % len(alphas)]
        inst = random_instance(spec, config.max_denominator, stream.derive(str(i)), alpha)
        yield inst.alpha, inst.mu1, inst.mu2


@pytest.mark.parametrize("flip_symmetric", [True, False])
def test_a_flipped_verdict_is_reported_alike_by_random_rows_and_instances(
    flip_symmetric, monkeypatch
):
    config = _random_config([(3, 2)], 5, 1, 120)
    spec = config.specs[0]
    alpha = make_endo(spec, (2,))
    chosen = next(
        (mu1, mu2)
        for beta, mu1, mu2 in _random_pairs(config)
        if beta == alpha
        and oracles.brute_symmetric(spec.orders, dict(mu1.masses), dict(mu2.masses), (2,))
        == flip_symmetric
    )
    _flip_one_verdict(
        monkeypatch, config, alpha, chosen, flip_symmetric, oracles.per_instance_random_sweep
    )


@pytest.mark.parametrize("flip_symmetric", [True, False])
@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_a_flipped_joint_verdict_is_reported_alike_by_rows_and_instances(
    mode, flip_symmetric, monkeypatch
):
    # alpha - 1 = 3 is not a unit mod 9, unlike alpha = 2 above; the
    # symmetric pairs of alpha = 4 are point masses, its asymmetric ones are
    # taken with two points or more in mu1
    spec = validate_spec([(3, 2)])
    alpha = make_endo(spec, (4,))
    if mode == "exhaustive":
        config, per_instance = _row_config([(3, 2)], 3, ((4,), (7,))), oracles.per_instance_sweep
        pairs = ((alpha, mu1, mu2) for mu1, mu2, _ in _pairs(spec, 3, alpha))
    else:
        config = _random_config([(3, 2)], 5, 2, 240, ((4,), (7,)))
        per_instance = oracles.per_instance_random_sweep
        pairs = _random_pairs(config)
    assert gcd(alpha.code - 1, spec.exponent) > 1
    chosen = next(
        (mu1, mu2)
        for beta, mu1, mu2 in pairs
        if beta == alpha
        and (flip_symmetric or len(mu1.points) > 1)
        and oracles.brute_symmetric(spec.orders, dict(mu1.masses), dict(mu2.masses), (4,))
        == flip_symmetric
    )
    _flip_one_verdict(monkeypatch, config, alpha, chosen, flip_symmetric, per_instance)


def test_pairs_that_pass_the_first_v_reach_check_instance_in_random_mode(monkeypatch):
    reached = _counting(monkeypatch)
    config = _random_config([(3, 1), (5, 1)], 11, 2, 600)
    spec = config.specs[0]
    report = run_sweep(config)
    pairs = [
        (alpha, mu1, mu2, oracles.brute_symmetric(
            spec.orders, dict(mu1.masses), dict(mu2.masses), alpha.multipliers
        ))
        for alpha, mu1, mu2 in _random_pairs(config)
    ]
    expected, passing = _expected_reached(spec, modular_field(spec.exponent, 8), pairs)
    assert reached == expected
    assert report.instances == 600 and len(reached) < 600
    assert report.symmetric >= 1 and passing >= 1
    # alpha with alpha - 1 a unit and without, and point-mass pairs, whose
    # first v reads u = 0 alone
    assert {gcd(alpha.code - 1, spec.exponent) == 1 for alpha, *_ in pairs} == {True, False}
    assert any(len(mu1.points) == len(mu2.points) == 1 for _, mu1, mu2, _ in pairs)


def test_a_sweep_builds_one_field_per_spec_and_none_at_budget_0(monkeypatch):
    # the field and the first v do not depend on alpha: a sweep builds them
    # once per spec over every automorphism, and not at all for a spec with
    # no instance to decide
    built = []
    real = sweep.modular_field
    monkeypatch.setattr(sweep, "modular_field", lambda *args: built.append(args) or real(*args))
    z9 = validate_spec([(3, 2)])
    assert len(enumerate_automorphisms(z9)) == 6
    report = run_sweep(SweepConfig((z9, Z5), mode="exhaustive", denominator=2, seed=0))
    assert report.instances == 6 * 45**2 + 4 * 15**2
    assert built == [(9, 8), (5, 8)]
    built.clear()
    run_sweep(SweepConfig((z9, Z5), mode="random", budget=7, max_denominator=4, seed=0))
    assert built == [(9, 32), (5, 32)]
    built.clear()
    big = validate_spec([(3, 12)])
    with time_limit(5):
        report = run_sweep(SweepConfig((big,), mode="random", budget=0, seed=0))
    assert report.instances == 0 and built == []


def test_an_exhaustive_sweep_reads_each_first_margin_once_per_spec(monkeypatch):
    # f(+-v) of a first margin does not depend on alpha, so it is read once
    # per spec; g(+-beta v) of a second margin once per automorphism
    reads = []
    real = sweep.char_residues_at
    monkeypatch.setattr(
        sweep, "char_residues_at", lambda mu, f, y: reads.append(y) or real(mu, f, y)
    )
    spec = validate_spec([(3, 2)])
    margins = list(enumerate_distributions(spec, 3))
    alphas = enumerate_automorphisms(spec)
    report = run_sweep(SweepConfig((spec,), mode="exhaustive", denominator=3, seed=0))
    assert report.instances == len(alphas) * len(margins) ** 2
    v = next(engine._equation_vs(spec))
    assert len(reads) == len(margins) * (1 + len(alphas))
    assert reads == [v] * len(margins) + [alpha.code * v % 9 for alpha in alphas for _ in margins]


def test_a_random_sweep_builds_each_row_as_it_draws_its_instance():
    # built before the first draw, min(budget, |Aut|) rows took about 0.7 KB
    # each: on Z(3^12) (|Aut| = 354,294) this sweep peaked at about 800 KB
    # of traced memory, against about 140 KB with a row per draw
    spec = validate_spec([(3, 12)])
    with time_limit(30):
        run_sweep(SweepConfig((spec,), mode="random", budget=2, seed=0))  # the spec's tables and field
        gc.collect()
        tracemalloc.start()
        try:
            report = run_sweep(SweepConfig((spec,), mode="random", budget=1000, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert report.instances == 1000
    assert peak < 1 << 19


def test_a_random_sweep_builds_residue_memos_only_for_pairs_that_hold_at_u_0(monkeypatch):
    config = _random_config([(3, 2), (5, 1)], 13, 8, 400)
    spec = config.specs[0]
    n = spec.exponent
    drawn = []
    draw = sweep.random_instance
    monkeypatch.setattr(sweep, "random_instance", lambda *args: drawn.append(draw(*args)) or drawn[-1])
    built = []
    memo = distributions._residue_function
    monkeypatch.setattr(
        distributions, "_residue_function", lambda mu, field: built.append(mu) or memo(mu, field)
    )
    run_sweep(config)
    field = modular_field(n, 2 * 8 * 8)
    modulus = field.modulus
    v = spec.crt_codes[1]  # the first v
    holding, read = set(), set()
    for inst in drawn:
        f, g = (oracles.per_code_residues(mu, field) for mu in (inst.mu1, inst.mu2))
        bv = inst.alpha.code * v % n
        if f[v] * g[bv] % modulus == f[-v] * g[-bv] % modulus:
            holding.update((id(inst.mu1), id(inst.mu2)))
            if len(inst.mu1.points) > 1 or len(inst.mu2.points) > 1:
                read.update((id(inst.mu1), id(inst.mu2)))
    assert len(drawn) == 400 and 0 < len(read) and len(holding) < 400
    assert read <= {id(mu) for mu in built} <= holding
