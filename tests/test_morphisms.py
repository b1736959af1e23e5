import itertools
import random

import pytest

from heyde import (
    Endomorphism,
    PAdicUnit,
    enumerate_subgroups,
    identity,
    kappa_of,
    make_endo,
    minus_identity,
    validate_spec,
)

import oracles

Z5 = validate_spec([(5, 1)])
Z9 = validate_spec([(3, 2)])
Z9xZ5 = validate_spec([(3, 2), (5, 1)])
Z27xZ5xZ7 = validate_spec([(3, 3), (5, 1), (7, 1)])


def all_endos(spec):
    return [
        make_endo(spec, vec)
        for vec in itertools.product(*(range(q) for q in spec.orders))
    ]


def test_automorphism_detection():
    assert make_endo(Z9, [2]).is_automorphism()
    assert not make_endo(Z9, [3]).is_automorphism()
    assert oracles.is_identity(make_endo(Z9xZ5, [1, 1]))


def test_apply_and_compose():
    phi = make_endo(Z9xZ5, [2, 3])
    assert phi.apply((4, 3)) == (8, 4)
    psi = make_endo(Z9xZ5, [5, 2])
    assert phi.compose(psi).apply((1, 1)) == phi.apply(psi.apply((1, 1)))


def test_invert():
    assert make_endo(Z5, [2]).invert().multipliers == (3,)
    with pytest.raises(ValueError, match="not invertible"):
        make_endo(Z9, [3]).invert()
    for spec in (Z9, Z9xZ5):
        for endo in all_endos(spec):
            if endo.is_automorphism():
                assert oracles.is_identity(endo.compose(endo.invert()))


def test_add_endos():
    alpha = make_endo(Z5, [4])
    total = identity(Z5).add(alpha)
    assert total.multipliers == (0,)
    assert minus_identity(Z5).multipliers == (4,)


def test_kappa_example():
    # beta = 2 on Z(9): I - beta = 8, (I - beta)^-2 = 1, so kappa = -8 = 1
    assert kappa_of(make_endo(Z9, [2])).multipliers == (1,)
    # brute cross-check on the product group
    beta = make_endo(Z9xZ5, [2, 3])
    kappa = kappa_of(beta)
    for q, m, got in zip(Z9xZ5.orders, beta.multipliers, kappa.multipliers):
        assert got == (-4 * m * pow((1 - m) % q, -2, q)) % q


def test_adjoint_pairing_identity_exhaustive():
    for spec, multipliers in ((Z9, (2,)), (Z9xZ5, (2, 3))):
        phi = make_endo(spec, multipliers)
        adj = phi.adjoint()
        for x in oracles.element_list(spec):
            for y in oracles.element_list(spec):
                assert spec.pair_exponent(phi.apply(x), y) == spec.pair_exponent(
                    x, adj.apply(y)
                )
    assert identity(Z9).adjoint() == identity(Z9)


def test_kernel_image_closed_forms():
    phi = make_endo(Z9, [3])
    assert set(oracles.subgroup_elements(phi.kernel())) == {(0,), (3,), (6,)}
    assert set(oracles.subgroup_elements(phi.image())) == {(0,), (3,), (6,)}
    zero_map = identity(Z9).add(make_endo(Z9, [8]))  # I + (-I)
    assert oracles.is_full(zero_map.kernel())
    assert zero_map.image().is_trivial
    unit = make_endo(Z5, [2])
    assert unit.kernel().is_trivial
    assert unit.image().order == 5


def test_kernel_image_match_bruteforce():
    for endo in all_endos(Z9xZ5):
        image = {endo.apply(x) for x in oracles.element_list(Z9xZ5)}
        kernel = {x for x in oracles.element_list(Z9xZ5) if endo.apply(x) == oracles.zero(Z9xZ5)}
        assert set(oracles.subgroup_elements(endo.image())) == image
        assert set(oracles.subgroup_elements(endo.kernel())) == kernel
        assert endo.kernel().order * endo.image().order == Z9xZ5.size


def test_image_equals_annihilator_of_adjoint_kernel():
    for endo in all_endos(Z9xZ5):
        ann = oracles.brute_annihilator(
            Z9xZ5.orders, oracles.subgroup_elements(endo.adjoint().kernel())
        )
        assert set(oracles.subgroup_elements(endo.image())) == ann


def test_image_of_subgroup():
    for endo in all_endos(Z9):
        for sub in enumerate_subgroups(Z9):
            expected = {endo.apply(x) for x in oracles.subgroup_elements(sub)}
            assert set(oracles.subgroup_elements(endo.image_of(sub))) == expected


def test_every_subgroup_characteristic():
    for endo in all_endos(Z9xZ5):
        for sub in enumerate_subgroups(Z9xZ5):
            assert all(oracles.contains(sub, endo.apply(x)) for x in oracles.subgroup_elements(sub))


def test_truncated_unit_sums():
    unit = PAdicUnit(3, (2, 1))
    assert unit.truncation(1) == 2
    assert unit.truncation(2) == 5
    z125 = validate_spec([(5, 3, "padic")])
    assert oracles.is_identity(oracles.truncated_unit_endo(PAdicUnit(5, (1, 0, 0)), z125))
    z27 = validate_spec([(3, 3, "padic")])
    endo = oracles.truncated_unit_endo(PAdicUnit(3, (2, 2, 2)), z27)
    assert endo.multipliers == (26,)
    assert oracles.is_minus_identity(endo)


def test_unit_validation():
    with pytest.raises(ValueError, match="unit"):
        PAdicUnit(3, (0, 1))
    with pytest.raises(ValueError, match="digits"):
        PAdicUnit(3, (1, 5))
    with pytest.raises(ValueError, match="level exceeded"):
        PAdicUnit(3, (1,)).truncation(2)


def test_scalar_endo_is_multiplication():
    double = Endomorphism(Z9xZ5, 2)
    for x in oracles.element_list(Z9xZ5):
        assert double.apply(x) == tuple(2 * c % q for c, q in zip(x, Z9xZ5.orders))


def _vector_pairs(spec, sampled):
    vectors = list(itertools.product(*(range(q) for q in spec.orders)))
    if sampled is None:
        return itertools.product(vectors, vectors)
    rng = random.Random(f"pairs:{spec.describe()}")
    return ((rng.choice(vectors), rng.choice(vectors)) for _ in range(sampled))


@pytest.mark.parametrize(
    "spec, sampled", [(Z9xZ5, None), (Z27xZ5xZ7, 3000)], ids=["Z9xZ5-every-pair", "Z27xZ5xZ7-sampled"]
)
def test_code_arithmetic_matches_the_component_oracle(spec, sampled):
    orders = spec.orders
    for a, b in _vector_pairs(spec, sampled):
        ea, eb = make_endo(spec, a), make_endo(spec, b)
        assert ea.multipliers == a
        assert (ea == eb) == (a == b)
        # an unreduced vector names the same endomorphism
        shifted = make_endo(spec, [m - 2 * q for m, q in zip(a, orders)])
        assert shifted == ea and hash(shifted) == hash(ea)
        inverse = oracles.vector_invert(orders, a)
        assert ea.is_automorphism() == (inverse is not None)
        kappa = oracles.vector_kappa(orders, b)
        for got, want in (
            (ea.compose(eb), oracles.vector_compose(orders, a, b)),
            (ea.add(eb), oracles.vector_add(orders, a, b)),
            (ea.neg(), oracles.vector_neg(orders, a)),
            (ea.invert() if inverse else None, inverse),
            (kappa_of(eb) if kappa else None, kappa),
        ):
            if want is not None:
                assert got.multipliers == want
                assert got == make_endo(spec, want) and hash(got) == hash(make_endo(spec, want))
        assert ea.apply(b) == oracles.raw_apply(orders, a, b)
