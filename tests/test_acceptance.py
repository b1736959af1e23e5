"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every comparison is exact unless the criterion itself
is about the floating cross-check (criterion 10, tolerance 1e-9).
"""

import time

from heyde import (
    PAdicUnit,
    char_fn,
    char_fn_table,
    classify_corollary,
    convolve,
    decompose,
    enumerate_subgroups,
    haar,
    invert_char_table,
    is_conditionally_symmetric,
    reduce_quasicyclic,
    satisfies_heyde_equation,
    squared_modulus_table,
    verify_difference_lemma,
    verify_fixed_point_lemma,
)

import acceptance_corpus as corpus
import oracles


def _report(number: int, label: str, started: float, limit: float, details: str = ""):
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget ({elapsed:.1f}s)"
    suffix = f" [{details}]" if details else ""
    print(f"ACCEPTANCE {number:02d} {label}: PASS in {elapsed:.2f}s{suffix}")


def test_criterion_01_equivalence_exhaustive():
    started = time.monotonic()
    count = 0
    for inst in corpus.exhaustive_equivalence_instances():
        assert is_conditionally_symmetric(inst) == satisfies_heyde_equation(inst)
        count += 1
    assert count == 2 * 6 * 6
    _report(1, "equivalence lemma, exhaustive Z(3)", started, 1.0, f"{count} instances")


def test_criterion_02_equivalence_randomized():
    started = time.monotonic()
    disagreements = 0
    count = 0
    for inst in corpus.random_equivalence_instances(500):
        if is_conditionally_symmetric(inst) != satisfies_heyde_equation(inst):
            disagreements += 1
        count += 1
    assert count == 500 and disagreements == 0
    _report(2, "equivalence lemma, randomized Z(9)xZ(5)", started, 60.0, "500 instances")


def test_criterion_03_decomposition_soundness():
    started = time.monotonic()
    count = 0
    for fixture in corpus.constructed_fixtures(200):
        dec = decompose(fixture.instance)  # raises on any lambda mismatch
        assert dec.flags.all_true
        count += 1
    assert count == 200
    _report(3, "decomposition soundness on constructions", started, 120.0, "200 fixtures")


def test_criterion_04_minus_identity_characterization():
    started = time.monotonic()
    unit = PAdicUnit(3, (2,))
    pmfs = corpus.quasicyclic_denominator4_pmfs()
    assert len(pmfs) == 15
    checked = 0
    for pmf1 in pmfs:
        for pmf2 in pmfs:
            report = reduce_quasicyclic(3, 1, pmf1, pmf2, unit)
            assert report.branch == "minus_identity"
            assert report.symmetric == (pmf1 == pmf2)
            checked += 1
    assert checked == 225
    _report(4, "minus-identity symmetry iff equality", started, 10.0, "225 pairs")


def test_criterion_05_haar_corollary():
    started = time.monotonic()
    fixtures = corpus.haar_case_fixtures()
    for fixture in fixtures:
        dec = decompose(fixture.instance)
        assert dec.lam == haar(dec.subgroup)
        report = classify_corollary(fixture.instance, dec)
        by_name = {c.name: c for c in report.checks}
        assert by_name["haar_when_kernel_trivial"].applicable
        assert by_name["haar_when_kernel_trivial"].verified
    _report(5, "trivial-kernel Haar corollary on Z(25)", started, 30.0, f"{len(fixtures)} fixtures")


def test_criterion_06_unit_digit_one_corollary():
    started = time.monotonic()
    population = corpus.unit_digit_one_population()
    symmetric_count = 0
    for inst in population:
        if not is_conditionally_symmetric(inst):
            continue
        symmetric_count += 1
        dec = decompose(inst)
        assert dec.subgroup.is_trivial
        assert len(inst.mu1.masses) == 1 and len(inst.mu2.masses) == 1
        report = classify_corollary(inst, dec)
        by_name = {c.name: c for c in report.checks}
        assert by_name["truncated_unit_digit"].applicable
        assert by_name["truncated_unit_digit"].verified
    assert symmetric_count >= 36  # the constructed and matched families
    _report(
        6,
        "leading-digit-one corollary on truncated Z(27)",
        started,
        30.0,
        f"{symmetric_count} symmetric of {len(population)}",
    )


def test_criterion_07_haar_characteristic_function():
    started = time.monotonic()
    spec = corpus.Z9xZ5
    checked = 0
    for sub in enumerate_subgroups(spec):
        m = haar(sub)
        ann = sub.annihilator()
        for y in oracles.element_list(spec):
            value = char_fn(m, y)
            assert value.is_one() if oracles.contains(ann, y) else value.is_zero()
            checked += 1
    assert checked == 6 * 45
    _report(7, "uniform-distribution character indicator", started, 1.0, f"{checked} values")


def test_criterion_08_fixed_point_lemma():
    started = time.monotonic()
    fixtures = corpus.fixed_point_fixtures()
    assert len(fixtures) == 100
    for fixture in fixtures:
        f = squared_modulus_table(fixture.instance.mu1)
        g = squared_modulus_table(fixture.instance.mu2)
        report = verify_fixed_point_lemma(f, g, fixture.instance.alpha.adjoint())
        assert report.hypothesis_equation_ok and report.evaluated
        assert report.substitution_f_ok and report.substitution_g_ok
        assert report.fixed_point_f_ok and report.fixed_point_g_ok
    _report(8, "fixed-point lemma verifier", started, 60.0, "100 fixtures")


def test_criterion_09_difference_lemma():
    started = time.monotonic()
    fixtures = corpus.nonvanishing_difference_fixtures(50)
    for fixture in fixtures:
        f = squared_modulus_table(fixture.instance.mu1)
        g = squared_modulus_table(fixture.instance.mu2)
        report = verify_difference_lemma(f, g, fixture.instance.alpha.adjoint())
        assert report.hypothesis_ok and report.evaluated
        assert report.first_conclusion_ok and report.second_conclusion_ok
    _report(9, "finite-difference lemma verifier", started, 60.0, "50 fixtures")


def test_criterion_10_predicate_float_crosscheck():
    started = time.monotonic()
    values = corpus.random_character_values(10_000)
    zeros = units = 0
    for value in values:
        magnitude = abs(value.to_complex())
        if value.is_zero():
            zeros += 1
            assert magnitude < 1e-9
        if value.is_unit_modulus():
            units += 1
            assert abs(magnitude - 1) < 1e-9
        else:
            assert abs(magnitude - 1) > 1e-9
    assert zeros > 0 and units > 0  # both predicates genuinely exercised
    _report(10, "exact predicates vs float oracle", started, 30.0, f"{zeros} zeros, {units} units")


def test_criterion_11_fourier_infrastructure():
    started = time.monotonic()
    seen = set()
    inversions = 0
    convolution_pairs = 0

    def check_distribution(mu):
        nonlocal inversions
        key = (mu.spec, mu.masses)
        if key in seen:
            return
        seen.add(key)
        assert invert_char_table(mu.spec, char_fn_table(mu)) == mu
        inversions += 1

    def check_pair(mu1, mu2):
        nonlocal convolution_pairs
        check_distribution(mu1)
        check_distribution(mu2)
        spec = mu1.spec
        combined = convolve(mu1, mu2)
        t1, t2 = char_fn_table(mu1), char_fn_table(mu2)
        for y in oracles.element_list(spec):
            assert char_fn(combined, y) == t1(y) * t2(y)
        convolution_pairs += 1

    for inst in corpus.exhaustive_equivalence_instances():
        check_pair(inst.mu1, inst.mu2)
    for inst in corpus.random_equivalence_instances(500):
        check_pair(inst.mu1, inst.mu2)
    for fixture in corpus.constructed_fixtures(200):
        check_pair(fixture.instance.mu1, fixture.instance.mu2)
        check_distribution(fixture.lam)
    for pmf in corpus.quasicyclic_denominator4_pmfs():
        report = reduce_quasicyclic(3, 1, pmf, dict(pmf), PAdicUnit(3, (2,)))
        check_pair(report.instance.mu1, report.instance.mu2)
    for fixture in corpus.haar_case_fixtures():
        check_pair(fixture.instance.mu1, fixture.instance.mu2)
        check_distribution(fixture.lam)
    for inst in corpus.unit_digit_one_population():
        check_pair(inst.mu1, inst.mu2)
    _report(
        11,
        "inversion and convolution identities",
        started,
        300.0,
        f"{inversions} distributions, {convolution_pairs} pairs",
    )
