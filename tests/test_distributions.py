from fractions import Fraction
from math import gcd

import pytest

from heyde import (
    DeterministicStream,
    char_fn,
    char_fn_table,
    convolve,
    degenerate,
    enumerate_distributions,
    enumerate_subgroups,
    from_pmf,
    haar,
    has_haar_factor,
    invert_char_table,
    min_support_subgroup,
    random_distribution,
    reflect,
    shift,
    unit_modulus_set,
    validate_spec,
)
from heyde import serialize
from heyde.cyclotomic import from_terms
from heyde.distributions import (
    Distribution,
    DualFunction,
    _is_haar_fixed_point,
    char_fn_zero_classes,
    stabilizer_index,
)
from heyde.engine import _canonical_shift
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
    assert [x for x, _ in shifted.masses] == [(1,), (4,), (7,)]


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
        for y in oracles.element_list(Z9xZ5):
            value = char_fn(m, y)
            if oracles.contains(ann, y):
                assert value.is_one()
            else:
                assert value.is_zero()


def test_degenerate_character_is_pairing():
    for x in [(0,), (1,), (5,)]:
        for y in oracles.element_list(Z9):
            assert char_fn(degenerate(Z9, x), y) == from_terms(9, [(Z9.pair_exponent(x, y), 1)])


def test_convolution_theorem_random():
    stream = DeterministicStream(11, label="conv")
    for i in range(10):
        mu = random_distribution(Z9, 8, stream.derive(f"a{i}"))
        nu = random_distribution(Z9, 8, stream.derive(f"b{i}"))
        combined = convolve(mu, nu)
        for y in oracles.element_list(Z9):
            assert char_fn(combined, y) == char_fn(mu, y) * char_fn(nu, y)


def test_reflection_conjugates_character():
    stream = DeterministicStream(12, label="refl")
    mu = random_distribution(Z9xZ5, 6, stream)
    for y in oracles.element_list(Z9xZ5):
        assert char_fn(reflect(mu), y) == char_fn(mu, y).conj()


def test_fourier_inversion_exhaustive():
    stream = DeterministicStream(13, label="inv")
    for spec in (Z27, Z9xZ5):
        for i in range(3):
            mu = random_distribution(spec, 8, stream.derive(f"{spec.exponent}:{i}"))
            assert invert_char_table(spec, char_fn_table(mu)) == mu


def test_unit_modulus_set_examples():
    m_full = haar(Subgroup(Z9, (0,)))
    assert unit_modulus_set(m_full, m_full) == oracles.trivial_subgroup(Z9)
    point = degenerate(Z9, (2,))
    assert oracles.is_full(unit_modulus_set(point, point))
    mu1 = shift(haar(K3), (1,))
    mu2 = degenerate(Z9, (0,))
    assert unit_modulus_set(mu1, mu2) == Subgroup(Z9, (1,))


def test_unit_modulus_set_matches_bruteforce_and_cyclotomic():
    stream = DeterministicStream(14, label="ums")
    cases = [random_distribution(Z9, 6, stream.derive(str(i))) for i in range(6)]
    cases += list(enumerate_distributions(Z9, 2))
    for mu in cases:
        sub = unit_modulus_set(mu, mu)
        brute = oracles.brute_unit_modulus_points(Z9.orders, dict(mu.masses))
        assert set(oracles.subgroup_elements(sub)) == brute
        for y in oracles.element_list(Z9):
            assert oracles.contains(sub, y) == char_fn(mu, y).is_unit_modulus()


def test_min_support_subgroup():
    assert min_support_subgroup(haar(K3)) == K3
    assert min_support_subgroup(degenerate(Z9, (0,))) == oracles.trivial_subgroup(Z9)
    mu = from_pmf(Z9, {(0,): Fraction(1, 2), (3,): Fraction(1, 2)})
    assert min_support_subgroup(mu) == oracles.subgroup_generated(Z9, [(3,)])


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
    # the stabilizer test of has_haar_factor against the identity
    # lam == lam * haar(sub) computed by convolve and by the double loop,
    # which reads no stabilizer, on every subgroup of each corpus
    # distribution's group (all six of Z(9) x Z(5) for most), plus shifted
    # Haar measures
    dists = _corpus_distributions()
    dists |= {
        shift(haar(sub), x)
        for sub in enumerate_subgroups(Z9xZ5)
        for x in oracles.element_list(Z9xZ5)[::7]
    }
    assert {mu.spec for mu in dists} >= {Z9xZ5, Z9, Z27, Z25}
    found = {True: 0, False: 0}
    for mu in dists:
        for sub in enumerate_subgroups(mu.spec):
            expected = mu == convolve(mu, haar(sub))
            assert expected == (mu == oracles.double_loop_convolve(mu, haar(sub)))
            assert _is_haar_fixed_point(mu, sub) == expected
            found[expected] += 1
            if mu.spec == Z9xZ5 and not sub.is_trivial:
                assert has_haar_factor(mu, sub) == expected
    assert min(found.values()) > 100


def test_spec_mismatch_rejected():
    with pytest.raises(ValueError, match="spec mismatch"):
        convolve(degenerate(Z9, (0,)), degenerate(Z5, (0,)))


# -- the canonical stored form ------------------------------------------------


def assert_canonical(mu):
    """Points strictly increasing in element rank, den the least common denominator."""
    ranks = [mu.spec.crt_rank[r] for r, _ in mu.points]
    assert all(a < b for a, b in zip(ranks, ranks[1:]))
    assert gcd(mu.den, *(a for _, a in mu.points)) == 1
    assert sum(a for _, a in mu.points) == mu.den


def _random_margins(spec, count, label):
    stream = DeterministicStream(23, label=label)
    return [random_distribution(spec, 12, stream.derive(str(i))) for i in range(count)]


def test_every_constructor_yields_the_canonical_form():
    margins = _random_margins(Z9xZ5, 12, "canonical")
    built = list(margins)
    built += list(enumerate_distributions(Z9, 4))
    built += [haar(sub) for sub in enumerate_subgroups(Z9xZ5)]
    built += [degenerate(Z9xZ5, x) for x in oracles.element_list(Z9xZ5)[::5]]
    built += [convolve(mu, nu) for mu, nu in zip(margins, margins[1:])]
    built += [shift(mu, (4, 3)) for mu in margins] + [reflect(mu) for mu in margins]
    built += [_canonical_shift(mu, oracles.full_subgroup(Z9xZ5))[1] for mu in margins]
    built += [invert_char_table(Z9xZ5, char_fn_table(mu)) for mu in margins[:3]]
    built.append(from_pmf(Z9xZ5, {(8, 4): Fraction(6, 8), (0, 1): Fraction(1, 8), (0, 0): Fraction(1, 8)}))
    built.append(from_pmf(Z9xZ5, [((9, 0), Fraction(2, 6)), ((0, 0), Fraction(1, 3)), ((1, 1), Fraction(1, 3))]))
    for mu in built:
        assert_canonical(mu)
    # some routes start from an unreduced denominator: 2/4 and 2/4 store as 1/2 and 1/2
    assert Distribution(Z9, 2, ((0, 1), (1, 1))) in built


def test_equal_distributions_by_different_routes_are_equal_and_hash_equal():
    def same(mu, nu):
        assert mu == nu and hash(mu) == hash(nu)

    for mu in enumerate_distributions(Z9, 4):
        same(mu, from_pmf(Z9, dict(mu.masses)))
        same(mu, serialize.distribution_from_obj(Z9, serialize.distribution_to_obj(mu)))
    for sub in enumerate_subgroups(Z9xZ5):
        same(convolve(haar(sub), haar(sub)), haar(sub))
    for mu in _random_margins(Z9xZ5, 8, "routes"):
        same(reflect(reflect(mu)), mu)
        for x in oracles.element_list(Z9xZ5)[::11]:
            same(shift(shift(mu, x), Z9xZ5.neg(x)), mu)
        same(serialize.distribution_from_obj(Z9xZ5, serialize.distribution_to_obj(mu)), mu)


def test_kernels_match_a_plain_dict_oracle():
    orders = Z9xZ5.orders
    margins = _random_margins(Z9xZ5, 10, "oracle")
    for mu, nu in zip(margins, margins[1:]):
        pmf = dict(mu.masses)
        assert dict(convolve(mu, nu).masses) == oracles.dict_convolve(orders, pmf, dict(nu.masses))
        assert dict(reflect(mu).masses) == oracles.dict_reflect(orders, pmf)
        for x in oracles.element_list(Z9xZ5)[::13]:
            assert dict(shift(mu, x).masses) == oracles.dict_shift(orders, pmf, x)
    for sub in enumerate_subgroups(Z9xZ5):
        gens = [
            tuple(c.p**a % c.order if i == j else 0 for i, c in enumerate(Z9xZ5.components))
            for j, a in enumerate(sub.exponents)
        ]
        members = oracles.brute_closure(orders, gens)
        assert dict(haar(sub).masses) == oracles.dict_uniform(members)


def test_constructor_rejects_noncanonical_points():
    for points, message in (
        (((1, 1), (0, 1)), "sorted by element"),
        (((0, 1), (0, 1)), "sorted by element"),
        (((0, 3), (1, -1)), "strictly positive"),
        (((0, 2), (1, 0)), "strictly positive"),
        (((0, 1), (1, 2)), "total mass is 3/2"),
    ):
        with pytest.raises(ValueError, match=message):
            Distribution(Z9, 2, points)
    with pytest.raises(ValueError, match="least common denominator"):
        Distribution(Z9, 4, ((0, 2), (1, 2)))
    # on Z(9) x Z(5) code 5 is (5, 0) and code 9 is (0, 4), which comes first
    with pytest.raises(ValueError, match="sorted by element"):
        Distribution(Z9xZ5, 2, ((5, 1), (9, 1)))
    Distribution(Z9xZ5, 2, ((9, 1), (5, 1)))


@pytest.mark.parametrize(
    "spec", [Z9, Z27, Z9xZ5, validate_spec([(3, 2), (5, 1), (7, 1)])], ids=["Z9", "Z27", "Z9xZ5", "Z9xZ5xZ7"]
)
def test_convolve_on_the_stabilizer_quotient_matches_the_double_loop(spec):
    # Seeded margins, some convolved with a Haar factor (translation
    # stabilizer of index d < N), against the plain double loop: every pair
    # of kinds, point masses included, in both orders.
    stream = DeterministicStream(spec.exponent, label="quotient convolve")
    subs = [sub for sub in enumerate_subgroups(spec) if 1 < sub.order < spec.exponent]
    margins = []
    for i in range(8):
        mu = random_distribution(spec, 6, stream.derive(str(i)))
        margins.append(convolve(mu, haar(subs[i // 2 % len(subs)])) if i % 2 else mu)
    margins += [haar(subs[-1]), degenerate(spec, spec.element(4))]
    indices = {stabilizer_index(mu) for mu in margins}
    assert spec.exponent in indices and len(indices) > min(2, len(subs))
    for mu in margins:
        for nu in margins:
            product = convolve(mu, nu)
            assert product == oracles.double_loop_convolve(mu, nu)
            assert_canonical(product)
            # invariant under both operands' stabilizers
            assert gcd(stabilizer_index(mu), stabilizer_index(nu)) % stabilizer_index(product) == 0


def test_reflect_and_shift_carry_the_stabilizer_and_zero_classes():
    # Margins with and without a Haar factor: a reflection or a translate
    # built after both memos are filled starts with them, and they equal
    # what a fresh copy computes.
    spec = Z9xZ5
    stream = DeterministicStream(31, label="carry")
    subs = [sub for sub in enumerate_subgroups(spec) if 1 < sub.order < spec.exponent]
    for i, sub in enumerate(subs):
        mu = convolve(random_distribution(spec, 5, stream.derive(str(i))), haar(sub))
        for lam in (mu, random_distribution(spec, 6, stream.derive(f"plain {i}"))):
            stabilizer_index(lam)
            char_fn_zero_classes(lam)
            for built in (reflect(lam), shift(lam, (4, 3))):
                assert {"_stabilizer", "_zero_classes"} <= vars(built).keys()
                fresh = Distribution(spec, built.den, built.points)
                assert stabilizer_index(built) == oracles.brute_stabilizer_index(fresh)
                assert char_fn_zero_classes(built) == char_fn_zero_classes(fresh)


def test_a_support_size_prime_to_n_has_index_n_with_no_numerator_map():
    stream = DeterministicStream(37, label="coprime")
    for size in (1, 2, 4, 7, 8, 16):
        codes = stream.distinct(Z9xZ5.exponent, size)
        mu = from_pmf(Z9xZ5, {Z9xZ5.element(c): Fraction(1, size) for c in codes})
        assert len(mu.points) == size
        assert stabilizer_index(mu) == Z9xZ5.exponent == oracles.brute_stabilizer_index(mu)
        assert "_numerators" not in vars(mu)


def test_a_margin_is_not_a_constructor_argument():
    mu = from_pmf(Z9, {(0,): Fraction(1, 4), (5,): Fraction(3, 4)})
    table = char_fn_table(mu)
    assert table.margin is None
    with pytest.raises(TypeError):
        DualFunction(Z9, table.values, mu, mu)
    with pytest.raises(TypeError):
        DualFunction(Z9, table.values, mu, margin=mu)
