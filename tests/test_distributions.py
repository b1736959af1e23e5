from fractions import Fraction

import pytest

from heyde import (
    DeterministicStream,
    char_fn,
    char_fn_table,
    convolve,
    degenerate,
    enumerate_distributions,
    enumerate_subgroups,
    equals_one_set,
    from_pmf,
    haar,
    has_haar_factor,
    invert_char_table,
    min_support_subgroup,
    random_distribution,
    reflect,
    shift,
    subgroup_generated,
    trivial_subgroup,
    unit_modulus_set,
    validate_spec,
    zeta,
)
from heyde.distributions import _is_haar_fixed_point
from heyde.groups import Subgroup

import acceptance_corpus as corpus
import oracles

Z5 = validate_spec([(5, 1)])
Z9 = validate_spec([(3, 2)])
Z27 = validate_spec([(3, 3)])
Z9xZ5 = validate_spec([(3, 2), (5, 1)])
Z25 = validate_spec([(5, 2)])

K3 = Subgroup(Z9, (1,))  # 3Z(9)


def test_degenerate_convolution():
    assert convolve(degenerate(Z9, (3,)), degenerate(Z9, (4,))) == degenerate(Z9, (7,))


def test_haar_idempotent():
    m = haar(K3)
    assert convolve(m, m) == m
    assert m.masses == (((0,), Fraction(1, 3)), ((3,), Fraction(1, 3)), ((6,), Fraction(1, 3)))


def test_convolution_identity():
    mu = from_pmf(Z9, {(0,): Fraction(1, 4), (5,): Fraction(3, 4)})
    assert convolve(mu, degenerate(Z9, (0,))) == mu


def test_reflect_and_shift():
    assert reflect(degenerate(Z5, (2,))) == degenerate(Z5, (3,))
    shifted = shift(haar(K3), (1,))
    assert shifted.support() == ((1,), (4,), (7,))


def test_validation_rejects_bad_pmfs():
    with pytest.raises(ValueError, match="total mass"):
        from_pmf(Z9, {(0,): Fraction(1, 2)})
    with pytest.raises(ValueError, match="positive"):
        from_pmf(Z9, {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)})


def test_haar_character_is_annihilator_indicator():
    m = haar(K3)
    assert char_fn(m, (3,)).is_one()
    assert char_fn(m, (1,)).is_zero()
    for sub in enumerate_subgroups(Z9xZ5):
        m = haar(sub)
        ann = sub.annihilator()
        for y in Z9xZ5.element_list:
            value = char_fn(m, y)
            if ann.contains(y):
                assert value.is_one()
            else:
                assert value.is_zero()


def test_degenerate_character_is_pairing():
    for x in [(0,), (1,), (5,)]:
        for y in Z9.element_list:
            assert char_fn(degenerate(Z9, x), y) == zeta(9, Z9.pair_exponent(x, y))


def test_convolution_theorem_random():
    stream = DeterministicStream(11, label="conv")
    for i in range(10):
        mu = random_distribution(Z9, 8, stream.derive(f"a{i}"))
        nu = random_distribution(Z9, 8, stream.derive(f"b{i}"))
        combined = convolve(mu, nu)
        for y in Z9.element_list:
            assert char_fn(combined, y) == char_fn(mu, y) * char_fn(nu, y)


def test_reflection_conjugates_character():
    stream = DeterministicStream(12, label="refl")
    mu = random_distribution(Z9xZ5, 6, stream)
    for y in Z9xZ5.element_list:
        assert char_fn(reflect(mu), y) == char_fn(mu, y).conj()


def test_fourier_inversion_exhaustive():
    stream = DeterministicStream(13, label="inv")
    for spec in (Z27, Z9xZ5):
        for i in range(3):
            mu = random_distribution(spec, 8, stream.derive(f"{spec.exponent}:{i}"))
            assert invert_char_table(spec, char_fn_table(mu)) == mu


def test_unit_modulus_set_examples():
    m_full = haar(Subgroup(Z9, (0,)))
    assert unit_modulus_set(m_full, m_full) == trivial_subgroup(Z9)
    point = degenerate(Z9, (2,))
    assert unit_modulus_set(point, point).is_full
    mu1 = shift(haar(K3), (1,))
    mu2 = degenerate(Z9, (0,))
    assert unit_modulus_set(mu1, mu2) == Subgroup(Z9, (1,))


def test_unit_modulus_set_matches_bruteforce_and_cyclotomic():
    stream = DeterministicStream(14, label="ums")
    cases = [random_distribution(Z9, 6, stream.derive(str(i))) for i in range(6)]
    cases += list(enumerate_distributions(Z9, 2))
    for mu in cases:
        sub = unit_modulus_set(mu, mu)
        brute = oracles.brute_unit_modulus_points(Z9.orders, mu.pmf)
        assert set(sub.elements()) == brute
        for y in Z9.element_list:
            assert sub.contains(y) == char_fn(mu, y).is_unit_modulus()


def test_equals_one_set_properties():
    stream = DeterministicStream(15, label="eos")
    for i in range(6):
        mu = random_distribution(Z9xZ5, 6, stream.derive(str(i)))
        ones = equals_one_set(mu)
        for y in Z9xZ5.element_list:
            assert ones.contains(y) == char_fn(mu, y).is_one()
        # the distribution is supported in the annihilator of its equals-one set
        back = ones.annihilator()
        assert all(back.contains(x) for x in mu.support())


def test_min_support_subgroup():
    assert min_support_subgroup(haar(K3)) == K3
    assert min_support_subgroup(degenerate(Z9, (0,))) == trivial_subgroup(Z9)
    mu = from_pmf(Z9, {(0,): Fraction(1, 2), (3,): Fraction(1, 2)})
    assert min_support_subgroup(mu) == subgroup_generated(Z9, [(3,)])


def test_haar_factor_examples():
    assert has_haar_factor(haar(K3), K3)
    assert not has_haar_factor(degenerate(Z9, (1,)), K3)
    stream = DeterministicStream(16, label="haar")
    for i in range(5):
        rho = random_distribution(Z9, 6, stream.derive(str(i)))
        lam = convolve(rho, haar(K3))
        assert has_haar_factor(lam, K3)


def _corpus_distributions():
    instances = list(corpus.exhaustive_equivalence_instances())
    instances += list(corpus.random_equivalence_instances())
    instances += corpus.unit_digit_one_population()
    lams = []
    for fixtures in (
        corpus.constructed_fixtures(),
        corpus.haar_case_fixtures(),
        corpus.fixed_point_fixtures(),
        corpus.nonvanishing_difference_fixtures(),
    ):
        for fx in fixtures:
            instances.append(fx.instance)
            lams.append(fx.lam)
    return set(lams) | {mu for inst in instances for mu in (inst.mu1, inst.mu2)}


def test_integer_fixed_point_route_matches_convolution():
    # the integer coset test of has_haar_factor against the Fraction identity
    # lam == lam * haar(sub), on every subgroup of each corpus distribution's
    # group (all six of Z(9) x Z(5) for most), plus shifted Haar measures
    dists = _corpus_distributions()
    dists |= {
        shift(haar(sub), x)
        for sub in enumerate_subgroups(Z9xZ5)
        for x in Z9xZ5.element_list[::7]
    }
    assert {mu.spec for mu in dists} >= {Z9xZ5, Z9, Z27, Z25}
    found = {True: 0, False: 0}
    for mu in dists:
        for sub in enumerate_subgroups(mu.spec):
            expected = mu == convolve(mu, haar(sub))
            assert _is_haar_fixed_point(mu, sub) == expected
            found[expected] += 1
            if mu.spec == Z9xZ5 and not sub.is_trivial:
                assert has_haar_factor(mu, sub) == expected
    assert min(found.values()) > 100


def test_spec_mismatch_rejected():
    with pytest.raises(ValueError, match="spec mismatch"):
        convolve(degenerate(Z9, (0,)), degenerate(Z5, (0,)))
