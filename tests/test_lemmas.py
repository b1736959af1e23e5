from fractions import Fraction

import pytest

from heyde import (
    DeterministicStream,
    char_fn,
    char_fn_table,
    construct_instance,
    degenerate,
    dual_function,
    from_pmf,
    from_rational,
    kappa_of,
    make_endo,
    minus_identity,
    random_distribution,
    squared_modulus_table,
    validate_spec,
    verify_difference_lemma,
    verify_fixed_point_lemma,
)
from heyde import lemmas
from heyde.cyclotomic import CycloElement

import oracles

Z3 = validate_spec([(3, 1)])
Z5 = validate_spec([(5, 1)])
Z9 = validate_spec([(3, 2)])
Z27 = validate_spec([(3, 3)])
Z9xZ5 = validate_spec([(3, 2), (5, 1)])
Z27xZ5 = validate_spec([(3, 3), (5, 1)])


def nonvanishing_fixture(spec, seed, x2):
    """Symmetric pair whose squared-modulus tables are strictly positive.

    With alpha = -I the Haar convolution factor is the point mass at zero,
    so a dominant atom in the seed keeps every character sum away from zero.
    """
    stream = DeterministicStream(seed, label="nonvanishing")
    bulk = random_distribution(spec, 8, stream)
    pmf = {x: m / 4 for x, m in bulk.masses}
    pmf[oracles.zero(spec)] = pmf.get(oracles.zero(spec), Fraction(0)) + Fraction(3, 4)
    rho = from_pmf(spec, pmf)
    return construct_instance(oracles.full_subgroup(spec), minus_identity(spec), rho, x2)


def test_dual_function_totality():
    with pytest.raises(ValueError, match="cover every dual element"):
        dual_function(Z3, {(0,): Fraction(1)})


def test_difference_lemma_pipeline_fixture():
    fixture = nonvanishing_fixture(Z9, 31, (2,))
    f = squared_modulus_table(fixture.instance.mu1)
    g = squared_modulus_table(fixture.instance.mu2)
    beta = fixture.instance.alpha.adjoint()
    report = verify_difference_lemma(f, g, beta, tolerance=1e-9)
    assert report.evaluated and report.ok
    assert report.max_log_residual < 1e-9
    assert report.checks > 0


def test_difference_lemma_trivial_tables():
    ones = dual_function(Z9, {y: from_rational(9, 1) for y in Z9.elements()})
    report = verify_difference_lemma(ones, ones, make_endo(Z9, [2]))
    assert report.evaluated and report.ok


def test_difference_lemma_detects_perturbation():
    _check_perturbation_detected(Z9, (1,))


def test_difference_lemma_detects_perturbation_on_product_group():
    _check_perturbation_detected(Z9xZ5, (2, 3))


def _check_perturbation_detected(spec, point):
    fixture = nonvanishing_fixture(spec, 32, point)
    f = squared_modulus_table(fixture.instance.mu1)
    g = squared_modulus_table(fixture.instance.mu2)
    beta = fixture.instance.alpha.adjoint()
    perturbed = f.with_value(point, from_rational(spec.exponent, Fraction(1, 2)))
    report = verify_difference_lemma(perturbed, g, beta)
    assert not report.evaluated
    assert "hypothesis not satisfied" in report.first_violation
    first = oracles.brute_equation_violation(spec.orders, perturbed, g, beta.multipliers)
    assert first is not None and report.first_violation.endswith(f"at (u, v) = {first}")


def test_difference_lemma_requires_positive_tables():
    # a haar factor forces zeros in the character table
    fixture = construct_instance(
        oracles.full_subgroup(Z9), make_endo(Z9, [2]), degenerate(Z9, (0,)), (1,)
    )
    f = squared_modulus_table(fixture.instance.mu1)
    g = squared_modulus_table(fixture.instance.mu2)
    report = verify_difference_lemma(f, g, fixture.instance.alpha.adjoint())
    assert not report.positive_ok
    assert not report.evaluated


def test_fixed_point_lemma_pipeline_fixture():
    stream = DeterministicStream(33, label="fp")
    for spec, alpha_mult in ((Z9, 2), (Z27, 5)):
        rho = random_distribution(spec, 8, stream.derive(str(spec.exponent)))
        alpha = make_endo(spec, [alpha_mult])
        fixture = construct_instance(oracles.full_subgroup(spec), alpha, rho, (1,))
        f = squared_modulus_table(fixture.instance.mu1)
        g = squared_modulus_table(fixture.instance.mu2)
        report = verify_fixed_point_lemma(f, g, alpha.adjoint())
        assert report.evaluated and report.ok


def test_fixed_point_lemma_trivial_tables():
    ones = dual_function(Z9, {y: from_rational(9, 1) for y in Z9.elements()})
    report = verify_fixed_point_lemma(ones, ones, make_endo(Z9, [2]))
    assert report.evaluated and report.ok
    assert report.kappa == (1,)  # kappa for beta = 2 on Z(9)


def test_fixed_point_kappa_matches_morphism():
    beta = make_endo(Z27, [2])
    ones = dual_function(Z27, {y: from_rational(27, 1) for y in Z27.elements()})
    report = verify_fixed_point_lemma(ones, ones, beta)
    assert report.kappa == kappa_of(beta).multipliers


def test_fixed_point_lemma_hypothesis_failure():
    # g constant one, f non-constant: the equation forces f(u+v) = f(u-v)
    mu = from_pmf(Z5, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    f = squared_modulus_table(mu)
    ones = dual_function(Z5, {y: from_rational(5, 1) for y in Z5.elements()})
    report = verify_fixed_point_lemma(f, ones, make_endo(Z5, [2]))
    assert not report.evaluated
    assert "hypothesis not satisfied" in report.first_violation
    first = oracles.brute_equation_violation(Z5.orders, f, ones, (2,))
    assert first is not None
    assert report.first_violation.endswith(f"equation fails at (u, v) = {first}")


def test_fixed_point_lemma_bounds_check():
    too_big = dual_function(Z5, {y: from_rational(5, 2) for y in Z5.elements()})
    report = verify_fixed_point_lemma(too_big, too_big, make_endo(Z5, [2]))
    assert not report.bounds_ok and not report.evaluated


def test_fixed_point_lemma_requires_invertible_one_minus_beta():
    ones = dual_function(Z9, {y: from_rational(9, 1) for y in Z9.elements()})
    report = verify_fixed_point_lemma(ones, ones, make_endo(Z9, [1]))
    assert not report.invertible_ok and not report.evaluated


def test_char_fn_table_matches_char_fn():
    # on groups with two or three axes, where a code differs from its
    # element, so a code/element mix-up in the table shows
    for spec in (Z9xZ5, Z27xZ5):
        stream = DeterministicStream(spec.exponent, label="char-table")
        for mu in (random_distribution(spec, 8, stream), degenerate(spec, oracles.element_list(spec)[7])):
            table = char_fn_table(mu)
            assert [table(y) for y in oracles.element_list(spec)] == [char_fn(mu, y) for y in oracles.element_list(spec)]


def test_both_verifiers_sign_each_value_once(monkeypatch):
    # Both verifiers run on the same tables, as in verify-lemmas: for tables
    # with no margin the positivity test and the [0, 1] bounds share one
    # sign table, so real_sign runs once per distinct value and once per
    # distinct 1 - value.  Squared-modulus tables carry their margins, which
    # settle both without a sign.
    fixture = nonvanishing_fixture(Z9, 31, (2,))
    marked_f = squared_modulus_table(fixture.instance.mu1)
    marked_g = squared_modulus_table(fixture.instance.mu2)
    f, g = oracles.plain_table(marked_f), oracles.plain_table(marked_g)
    beta = fixture.instance.alpha.adjoint()
    signed = []
    real_sign = CycloElement.real_sign

    def counted(value):
        signed.append(value)
        return real_sign(value)

    monkeypatch.setattr(CycloElement, "real_sign", counted)
    lemmas._sign_table.cache_clear()
    assert verify_difference_lemma(f, g, beta).ok
    assert verify_fixed_point_lemma(f, g, beta).evaluated
    values = set(f.values) | set(g.values)
    assert len(signed) == len(set(signed)) == len(values | {1 - v for v in values})
    signed.clear()
    assert verify_difference_lemma(marked_f, marked_g, beta).ok
    assert verify_fixed_point_lemma(marked_f, marked_g, beta).evaluated
    assert signed == []
