import collections
import itertools
import random
from math import prod

import pytest

from heyde import (
    enumerate_subgroups,
    make_endo,
    validate_spec,
)
from heyde import serialize
from heyde.groups import Component, ComponentKind, Subgroup, generated_by_codes, subgroup_of_index

import oracles

Z9 = validate_spec([(3, 2)])
Z3 = validate_spec([(3, 1)])
Z27 = validate_spec([(3, 3)])
Z9xZ5 = validate_spec([(3, 2), (5, 1)])


def test_a_spec_read_twice_is_one_object():
    # one GroupSpec per component tuple, so its CRT tables are built once
    spec = validate_spec([(3, 2), (5, 1)])
    assert validate_spec([{"p": 3, "k": 2}, (5, 1, "finite")]) is spec
    assert validate_spec([Component(3, 2), Component(5, 1)]) is spec
    assert serialize.spec_from_obj(serialize.spec_to_obj(spec)) is spec
    assert validate_spec([(3, 2), (5, 1)]).crt_rank is spec.crt_rank
    padic = validate_spec([(3, 2, "padic"), (5, 1)])
    assert padic is not spec and padic.components[0].kind is ComponentKind.PADIC
    assert validate_spec([(3, 2, "padic"), (5, 1)]) is padic


def test_validate_spec_computes_exponent():
    spec = validate_spec([(3, 2), (5, 1)])
    assert spec.exponent == 45
    assert spec.size == 45
    assert spec.orders == (9, 5)


def test_validate_spec_rejects_two_torsion():
    with pytest.raises(ValueError, match="contains 2-torsion"):
        validate_spec([(2, 1)])


def test_validate_spec_rejects_repeated_primes():
    with pytest.raises(ValueError, match="primes must be pairwise distinct"):
        validate_spec([(3, 1), (3, 2)])


def test_validate_spec_rejects_nonpositive_exponent():
    with pytest.raises(ValueError, match="positive"):
        validate_spec([(3, 0)])


def test_validate_spec_rejects_composite():
    with pytest.raises(ValueError, match="odd prime"):
        validate_spec([(9, 1)])


def test_group_operations():
    assert Z9.add((5,), (7,)) == (3,)
    assert Z9.neg((0,)) == (0,)
    assert Z9xZ5.add((4, 3), (4, 3)) == (8, 1)
    assert Z9xZ5.sub((0, 0), (1, 1)) == (8, 4)


def test_pairing_examples():
    assert Z9.pair_exponent((3,), (3,)) == 0
    # single 5-adic layer: unit element against the smallest character
    z5 = validate_spec([(5, 1, "padic")])
    assert z5.exponent == 5 and z5.pair_exponent((1,), (1,)) == 1
    assert Z9xZ5.pair_exponent((1, 1), (0, 0)) == 0


def test_pairing_bilinearity_exhaustive():
    n = Z9xZ5.exponent
    elements = oracles.element_list(Z9xZ5)
    for x, xp in itertools.product(elements[:12], elements[:12]):
        for y in elements:
            left = Z9xZ5.pair_exponent(Z9xZ5.add(x, xp), y)
            assert left == (Z9xZ5.pair_exponent(x, y) + Z9xZ5.pair_exponent(xp, y)) % n
            right = Z9xZ5.pair_exponent(y, Z9xZ5.add(x, xp))
            assert right == left  # the pairing is symmetric in this model


def test_pairing_separates_points():
    for x in oracles.element_list(Z9xZ5):
        if x == oracles.zero(Z9xZ5):
            continue
        assert any(Z9xZ5.pair_exponent(x, y) != 0 for y in oracles.element_list(Z9xZ5))


def test_annihilator_matches_enumeration():
    for spec in (Z9, Z27, Z9xZ5):
        for sub in enumerate_subgroups(spec):
            expected = oracles.brute_annihilator(spec.orders, oracles.subgroup_elements(sub))
            assert set(oracles.subgroup_elements(sub.annihilator())) == expected


def test_annihilator_examples():
    k = Subgroup(Z9, (1,))  # 3Z(9)
    assert k.annihilator().exponents == (1,)
    assert oracles.full_subgroup(Z9).annihilator() == oracles.trivial_subgroup(Z9)
    assert oracles.trivial_subgroup(Z9).annihilator() == oracles.full_subgroup(Z9)


def test_annihilator_involution():
    for spec in (Z9, Z27, Z9xZ5):
        for sub in enumerate_subgroups(spec):
            assert sub.annihilator().annihilator() == sub


def test_subgroup_generated_examples():
    assert oracles.subgroup_generated(Z9, [(3,)]).exponents == (1,)
    assert oracles.subgroup_generated(Z9, [(0,)]) == oracles.trivial_subgroup(Z9)
    gen = oracles.subgroup_generated(Z9xZ5, [(3, 1)])
    assert set(oracles.subgroup_elements(gen)) == oracles.brute_closure(Z9xZ5.orders, [(3, 1)])


def test_subgroup_generated_matches_closure():
    for xs in [[(1,)], [(3,)], [(6,)], [(3,), (6,)], [(0,)]]:
        gen = oracles.subgroup_generated(Z27, [Z27.reduce(x) for x in xs])
        assert set(oracles.subgroup_elements(gen)) == oracles.brute_closure(Z27.orders, xs)


def test_enumerate_subgroups_counts():
    assert len(enumerate_subgroups(Z9)) == 3
    assert len(enumerate_subgroups(Z9xZ5)) == 6
    assert len(enumerate_subgroups(Z3)) == 2


def test_subgroups_closed_under_operations():
    for sub in enumerate_subgroups(Z9xZ5):
        members = set(oracles.subgroup_elements(sub))
        assert len(members) == sub.order
        for x in members:
            assert oracles.contains(sub, x)
            assert Z9xZ5.neg(x) in members
            for y in members:
                assert Z9xZ5.add(x, y) in members


def test_subgroup_membership_matches_elements():
    for sub in enumerate_subgroups(Z9xZ5):
        members = set(oracles.subgroup_elements(sub))
        for x in oracles.element_list(Z9xZ5):
            assert oracles.contains(sub, x) == (x in members)


def test_element_validation():
    with pytest.raises(ValueError, match="not a reduced element"):
        Z9.require_element((9,))
    with pytest.raises(ValueError, match="wrong arity"):
        Z9.reduce((1, 2))
    assert Z9.reduce((11,)) == (2,)


def test_require_code_is_crt_of_require_element():
    """The fused encode accepts, refuses and words its refusal as the
    two-step path does; a bool coordinate still passes, as it always has."""

    def outcome(encode, x):
        try:
            return encode(x)
        except ValueError as exc:
            return str(exc)

    Point = collections.namedtuple("Point", "a b")
    probes = [*oracles.element_list(Z9xZ5), (True, 1), (1, False), (1.0, 1), (9, 0), (0, 5), (-1, 0),
              (0,), (0, 0, 0), [1, 1], "ab", Point(2, 3), ((1,), 1), (None, 0)]
    for x in probes:
        expected = outcome(lambda y: Z9xZ5.crt(Z9xZ5.require_element(y)), x)
        assert outcome(Z9xZ5.require_code, x) == expected, x
    assert Z9xZ5.require_code((True, 1)) == Z9xZ5.crt((1, 1))
    assert Z9xZ5.require_code(Point(2, 3)) == Z9xZ5.crt((2, 3))


DIFFERENTIAL_SPECS = {
    "Z27xZ5xZ7": validate_spec([(3, 3), (5, 1), (7, 1)]),
    "Z9xZ25": validate_spec([(3, 2), (5, 2)]),
}


@pytest.mark.parametrize("name", DIFFERENTIAL_SPECS)
def test_subgroup_arithmetic_matches_the_valuation_oracle(name):
    """Every subgroup, pair of subgroups and endomorphism (units and
    non-units) against the per-component valuation arithmetic."""
    spec = DIFFERENTIAL_SPECS[name]
    comps = [(c.p, c.k) for c in spec.components]
    subs = enumerate_subgroups(spec)
    for sub in subs:
        exps = sub.exponents
        # element order: what random_distribution(support=) draws from
        assert sub.codes == tuple(spec.crt(x) for x in oracles.valuation_elements(comps, exps))
        assert sub.order == prod(p ** (k - a) for (p, k), a in zip(comps, exps)) == len(sub.codes)
        assert sub.is_trivial == (sub.order == 1) and oracles.is_full(sub) == (sub.order == spec.exponent)
        assert sub.annihilator().exponents == oracles.valuation_annihilator(comps, exps)
        assert subgroup_of_index(spec, sub.index) == sub
        for other in subs:
            assert sub.intersect(other).exponents == oracles.valuation_intersect(exps, other.exponents)
        for x in oracles.element_list(spec):
            assert oracles.contains(sub, x) == all(c % p**a == 0 for c, (p, k), a in zip(x, comps, exps))
    for mults in itertools.product(*(range(q) for q in spec.orders)):
        endo = make_endo(spec, mults)
        assert endo.kernel().exponents == oracles.valuation_kernel(comps, mults)
        assert endo.image().exponents == oracles.valuation_image(comps, mults)
        for sub in subs:
            assert endo.image_of(sub).exponents == oracles.valuation_image_of(comps, mults, sub.exponents)
    for x in oracles.element_list(spec):
        assert oracles.subgroup_generated(spec, [x]).exponents == oracles.valuation_generated(comps, [x])
    rng = random.Random(f"generated:{name}")
    for _ in range(500):
        xs = rng.sample(oracles.element_list(spec), rng.randint(0, 4))
        assert oracles.subgroup_generated(spec, xs).exponents == oracles.valuation_generated(comps, xs)


def test_subgroup_of_index_takes_the_gcd_with_n():
    assert oracles.trivial_subgroup(Z9xZ5).exponents == subgroup_of_index(Z9xZ5, 0).exponents == (2, 1)
    assert oracles.full_subgroup(Z9xZ5).exponents == subgroup_of_index(Z9xZ5, -1).exponents == (0, 0)
    assert subgroup_of_index(Z9xZ5, 3 * 3 * 3 * 7).exponents == (2, 0)
    assert subgroup_of_index(Z9xZ5, 45 + 15).index == 15
    assert generated_by_codes(Z9xZ5, []) == oracles.trivial_subgroup(Z9xZ5)
    assert generated_by_codes(Z9xZ5, [-6, 45 + 10]).index == 1
