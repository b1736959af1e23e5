from fractions import Fraction

import pytest

from heyde import (
    DeterministicStream,
    HeydeInstance,
    PAdicUnit,
    classify_corollary,
    construct_instance,
    decompose,
    degenerate,
    enumerate_automorphisms,
    enumerate_distributions,
    from_pmf,
    haar,
    is_conditionally_symmetric,
    make_endo,
    minus_identity,
    mixed_product_distribution,
    quasicyclic_residue,
    random_distribution,
    reduce_mixed_product,
    reduce_quasicyclic,
    reduce_to_subgroup,
    satisfies_heyde_equation,
    shift,
    validate_spec,
)
from heyde.groups import Subgroup

import oracles

Z5 = validate_spec([(5, 1)])
Z9 = validate_spec([(3, 2)])
Z25 = validate_spec([(5, 2)])
Z27 = validate_spec([(3, 3)])
Z9xZ5 = validate_spec([(3, 2), (5, 1)])

K3 = Subgroup(Z9, (1,))


def test_symmetry_of_matched_degenerate_pair():
    # x1 + alpha x2 = 3 + 2*1 = 5 = 0 on Z(5)
    inst = HeydeInstance(Z5, degenerate(Z5, (3,)), degenerate(Z5, (1,)), make_endo(Z5, [2]))
    assert is_conditionally_symmetric(inst)
    assert satisfies_heyde_equation(inst)


def test_asymmetry_of_unmatched_degenerate_pair():
    inst = HeydeInstance(Z5, degenerate(Z5, (1,)), degenerate(Z5, (1,)), make_endo(Z5, [2]))
    assert not is_conditionally_symmetric(inst)
    assert not satisfies_heyde_equation(inst)


def test_minus_identity_symmetric_for_equal_margins():
    stream = DeterministicStream(21, label="mi")
    for i in range(5):
        mu = random_distribution(Z5, 8, stream.derive(str(i)))
        inst = HeydeInstance(Z5, mu, mu, minus_identity(Z5))
        assert is_conditionally_symmetric(inst)
        assert satisfies_heyde_equation(inst)


def test_symmetry_matches_bruteforce_oracle():
    stream = DeterministicStream(22, label="oracle")
    alphas = enumerate_automorphisms(Z9)
    for i in range(40):
        mu1 = random_distribution(Z9, 6, stream.derive(f"a{i}"))
        mu2 = random_distribution(Z9, 6, stream.derive(f"b{i}"))
        alpha = alphas[i % len(alphas)]
        inst = HeydeInstance(Z9, mu1, mu2, alpha)
        expected = oracles.brute_symmetric(Z9.orders, dict(mu1.masses), dict(mu2.masses), alpha.multipliers)
        assert is_conditionally_symmetric(inst) == expected


def test_equivalence_on_exhaustive_small_family():
    pmfs = list(enumerate_distributions(validate_spec([(3, 1)]), 2))
    assert len(pmfs) == 6
    spec = pmfs[0].spec
    for alpha in enumerate_automorphisms(spec):
        for mu1 in pmfs:
            for mu2 in pmfs:
                inst = HeydeInstance(spec, mu1, mu2, alpha)
                assert is_conditionally_symmetric(inst) == satisfies_heyde_equation(inst)


def test_minus_identity_symmetry_iff_equal_exhaustive():
    # on Z(3) and Z(5): with alpha = -I, symmetry holds exactly for equal margins
    for spec, denominator in ((Z3 := validate_spec([(3, 1)]), 3), (Z5, 2)):
        pmfs = list(enumerate_distributions(spec, denominator))
        alpha = minus_identity(spec)
        for mu1 in pmfs:
            for mu2 in pmfs:
                inst = HeydeInstance(spec, mu1, mu2, alpha)
                assert is_conditionally_symmetric(inst) == (mu1 == mu2)


def test_reduce_to_subgroup_shifted_haar():
    # x1 = -alpha x2 = -2*2 = 5, so the pair is symmetric by construction
    mu1 = shift(haar(K3), (5,))
    mu2 = shift(haar(K3), (2,))
    inst = HeydeInstance(Z9, mu1, mu2, make_endo(Z9, [2]))
    assert is_conditionally_symmetric(inst)
    red = reduce_to_subgroup(inst)
    assert red.subgroup == K3
    assert red.lam1 == red.lam2 == haar(K3)
    assert all(oracles.contains(K3, x) for x, _ in red.lam1.masses)
    assert Z9.sub(red.shift1, (5,)) in set(oracles.subgroup_elements(K3))
    assert Z9.sub(red.shift2, (2,)) in set(oracles.subgroup_elements(K3))


def test_reduce_to_subgroup_degenerate_pair():
    inst = HeydeInstance(Z5, degenerate(Z5, (3,)), degenerate(Z5, (1,)), make_endo(Z5, [2]))
    red = reduce_to_subgroup(inst)
    assert red.subgroup.is_trivial
    assert red.lam1 == red.lam2 == degenerate(Z5, (0,))
    assert red.shift1 == (3,) and red.shift2 == (1,)


def test_reduce_to_subgroup_full_haar():
    m = haar(oracles.full_subgroup(Z9))
    inst = HeydeInstance(Z9, m, m, make_endo(Z9, [2]))
    red = reduce_to_subgroup(inst)
    assert oracles.is_full(red.subgroup)
    assert red.shift1 == (0,) and red.shift2 == (0,)
    assert red.lam1 == m


def test_decompose_requires_symmetry():
    inst = HeydeInstance(Z5, degenerate(Z5, (1,)), degenerate(Z5, (1,)), make_endo(Z5, [2]))
    with pytest.raises(ValueError, match="not conditionally symmetric"):
        decompose(inst)


def test_decompose_hand_case_minus_identity():
    mu = from_pmf(Z9, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    inst = HeydeInstance(Z9, mu, mu, make_endo(Z9, [8]))
    dec = decompose(inst)
    assert oracles.is_full(dec.subgroup)
    assert dec.lam == mu
    assert dec.flags.all_true
    # I + alpha = 0, so the Haar factor is the point mass at zero (vacuous)
    report = classify_corollary(inst, dec)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["haar_when_kernel_trivial"].applicable
    assert by_name["support_in_kernel_when_nonvanishing"].applicable
    assert by_name["support_in_kernel_when_nonvanishing"].verified


def test_decompose_misaligned_shifts_recover_common_lambda():
    lam = from_pmf(Z9, {(0,): Fraction(1, 2), (3,): Fraction(1, 2)})
    inst = HeydeInstance(Z9, shift(lam, (7,)), shift(lam, (1,)), make_endo(Z9, [2]))
    assert is_conditionally_symmetric(inst)
    dec = decompose(inst)
    assert dec.subgroup == K3
    assert dec.lam == lam
    assert dec.flags.all_true
    assert shift(dec.lam, dec.shift1) == inst.mu1
    assert shift(dec.lam, dec.shift2) == inst.mu2


def test_decompose_constructed_instance_all_flags():
    fixture = construct_instance(
        oracles.full_subgroup(Z27), make_endo(Z27, [2]), degenerate(Z27, (0,)), (4,)
    )
    dec = decompose(fixture.instance)
    assert dec.flags.all_true
    assert dec.subgroup == fixture.effective_subgroup


def test_shift_invariance_of_decomposition():
    stream = DeterministicStream(23, label="shiftinv")
    alpha = make_endo(Z9, [2])
    fixture = construct_instance(
        oracles.full_subgroup(Z9), alpha, random_distribution(Z9, 6, stream, support=oracles.full_subgroup(Z9)), (2,)
    )
    base = decompose(fixture.instance)
    for b in [(1,), (4,)]:
        a = Z9.neg(alpha.apply(b))
        moved = HeydeInstance(
            Z9, shift(fixture.instance.mu1, a), shift(fixture.instance.mu2, b), alpha
        )
        assert is_conditionally_symmetric(moved)
        dec = decompose(moved)
        assert dec.subgroup == base.subgroup
        assert dec.lam == base.lam


def test_haar_corollary_on_trivial_kernel():
    # 1 + 2 = 3 is a unit mod 25, so Ker(I + alpha) = 0 and lambda = haar(G)
    stream = DeterministicStream(24, label="z25")
    for sub in (oracles.full_subgroup(Z25), Subgroup(Z25, (1,)), oracles.trivial_subgroup(Z25)):
        rho = random_distribution(Z25, 6, stream.derive(str(sub.exponents)), support=sub)
        fixture = construct_instance(sub, make_endo(Z25, [2]), rho, (3,))
        dec = decompose(fixture.instance)
        report = classify_corollary(fixture.instance, dec)
        by_name = {c.name: c for c in report.checks}
        assert by_name["haar_when_kernel_trivial"].applicable
        assert by_name["haar_when_kernel_trivial"].verified
        assert dec.lam == haar(dec.subgroup)


def test_padic_unit_digit_corollary():
    z27 = validate_spec([(3, 3, "padic")])
    unit = PAdicUnit(3, (1, 2, 1))
    alpha = oracles.truncated_unit_endo(unit, z27)
    # only the trivial subgroup admits the construction when c0 = 1
    fixture = construct_instance(
        oracles.trivial_subgroup(z27), alpha, degenerate(z27, (0,)), (5,)
    )
    dec = decompose(fixture.instance)
    report = classify_corollary(fixture.instance, dec)
    by_name = {c.name: c for c in report.checks}
    assert by_name["truncated_unit_digit"].applicable
    assert by_name["truncated_unit_digit"].verified
    assert dec.subgroup.is_trivial


def test_quasicyclic_minus_identity_cases():
    unit = PAdicUnit(3, (2, 2))
    pmf = {Fraction(0): Fraction(1, 2), Fraction(1, 3): Fraction(1, 4), Fraction(2, 3): Fraction(1, 4)}
    report = reduce_quasicyclic(3, 1, pmf, dict(pmf), unit)
    assert report.branch == "minus_identity"
    assert report.symmetric and report.mu_equal
    other = {Fraction(0): Fraction(1, 4), Fraction(1, 3): Fraction(1, 2), Fraction(2, 3): Fraction(1, 4)}
    report = reduce_quasicyclic(3, 1, pmf, other, unit)
    assert not report.symmetric and not report.mu_equal


def test_quasicyclic_identity_action_forces_degenerate():
    unit = PAdicUnit(5, (1, 0))
    # matched degenerate pair: 3/25 + 22/25 = 0 mod 1
    report = reduce_quasicyclic(
        5, 2, {Fraction(3, 25): Fraction(1)}, {Fraction(22, 25): Fraction(1)}, unit
    )
    assert report.branch == "general"
    assert report.symmetric
    assert report.decomposition.subgroup.is_trivial
    # with the identity action, a non-degenerate symmetric pair cannot exist
    spread = {Fraction(0): Fraction(1, 2), Fraction(1, 5): Fraction(1, 2)}
    report = reduce_quasicyclic(5, 2, spread, dict(spread), unit)
    assert not report.symmetric


def test_quasicyclic_level_validation():
    unit = PAdicUnit(3, (2, 2))
    with pytest.raises(ValueError, match="support exceeds declared level"):
        reduce_quasicyclic(3, 1, {Fraction(1, 9): Fraction(1)}, {Fraction(0): Fraction(1)}, unit)
    with pytest.raises(ValueError, match="truncation level exceeded"):
        reduce_quasicyclic(3, 3, {Fraction(0): Fraction(1)}, {Fraction(0): Fraction(1)}, unit)


def test_quasicyclic_residue_mapping():
    assert quasicyclic_residue(3, 2, Fraction(1, 3)) == 3
    assert quasicyclic_residue(3, 2, Fraction(4, 9)) == 4
    assert quasicyclic_residue(3, 2, Fraction(10, 3)) == 3  # reduced mod 1


def test_mixed_product_minus_identity_branch():
    # combined group Z(9) x Z(5), quasicyclic part acted on by -1
    spec = validate_spec([(3, 2)])
    alpha_k = make_endo(spec, [2])
    unit = PAdicUnit(5, (4,))
    lam_pmf = {
        (0, Fraction(0)): Fraction(1, 3),
        (3, Fraction(0)): Fraction(1, 3),
        (6, Fraction(0)): Fraction(1, 3),
    }
    # build mu_j = lambda * E_{x_j} with x1 + alpha x2 = 0 by hand:
    # x2 = (1, 1/5), alpha x2 = (2, 4/5), x1 = (7, 1/5)
    mu1 = {(Z9.add((k,), (7,))[0], Fraction(1, 5)): m for (k, _), m in lam_pmf.items()}
    mu2 = {(Z9.add((k,), (1,))[0], Fraction(1, 5)): m for (k, _), m in lam_pmf.items()}
    report = reduce_mixed_product(spec, alpha_k, 5, 1, unit, mu1, mu2)
    assert report.branch == "minus_identity"
    assert report.symmetric
    assert report.decomposition is not None
    assert report.decomposition.flags.all_true
    # the quasicyclic layer collapses: both margins are degenerate there
    assert report.decomposition.subgroup.exponents[-1] == 1
    assert report.noncompact_candidate is False


def test_mixed_product_noncompact_candidate():
    spec = validate_spec([(3, 2)])
    alpha_k = make_endo(spec, [2])
    unit = PAdicUnit(5, (4,))
    # equal margins spread over the full quasicyclic layer, alpha_q = -1
    uniform_q = {(0, Fraction(j, 5)): Fraction(1, 5) for j in range(5)}
    report = reduce_mixed_product(spec, alpha_k, 5, 1, unit, uniform_q, dict(uniform_q))
    assert report.branch == "minus_identity"
    assert report.symmetric
    assert report.noncompact_candidate is True


def test_mixed_product_reduces_to_first_factor():
    spec = validate_spec([(3, 2)])
    alpha_k = make_endo(spec, [2])
    unit = PAdicUnit(5, (1,))
    lam = haar(Subgroup(spec, (1,)))
    # x1 = -alpha_k x2 = -4 = 5 keeps the first-factor pair symmetric
    mu1 = {(Z9.add((k,), (5,))[0], Fraction(0)): m for (k,), m in lam.masses}
    mu2 = {(Z9.add((k,), (2,))[0], Fraction(0)): m for (k,), m in lam.masses}
    report = reduce_mixed_product(spec, alpha_k, 5, 1, unit, mu1, mu2)
    assert report.branch == "regular"
    assert report.symmetric
    assert report.reduces_to_first_factor
    assert report.decomposition.subgroup.exponents[-1] == 1
    assert report.decomposition.flags.all_true


def test_mixed_product_prime_collision():
    spec = validate_spec([(3, 2)])
    with pytest.raises(ValueError, match="appears in both factors"):
        mixed_product_distribution(spec, 3, 1, {(0, Fraction(0)): Fraction(1)})
