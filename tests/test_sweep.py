from math import comb

import pytest

from heyde import SweepConfig, run_sweep, validate_spec
from heyde.sweep import SweepReport, check_instance, exhaustive_instances
from heyde import HeydeInstance, degenerate, make_endo

import oracles

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
