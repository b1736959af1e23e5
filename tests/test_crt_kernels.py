"""The CRT encoding of GroupSpec and the kernels that run on it.

The encoding is checked exhaustively on Z(9) x Z(5) x Z(7), and the
element-order tables (GroupSpec.crt_codes, Subgroup.codes) against the CRT
sum on seven groups; the joint symmetry test, the dual-equation loop and
the canonical shift are checked against the brute-force tuple routes of
oracles.py on Z(9) x Z(5), the canonical shift also on margins that are
Haar blocks on several cosets with equal least numerators, whose
translation stabilizer it uses.
"""

import itertools
import random
from fractions import Fraction
from functools import partial
from math import gcd

import pytest

from heyde import (
    DeterministicStream,
    GroupSpec,
    HeydeInstance,
    char_fn,
    construct_instance,
    degenerate,
    enumerate_automorphisms,
    enumerate_subgroups,
    from_pmf,
    haar,
    is_conditionally_symmetric,
    make_endo,
    minus_identity,
    random_distribution,
    reduce_to_subgroup,
    satisfies_heyde_equation,
    shift,
    validate_spec,
)
from heyde.distributions import _canonical, stabilizer_index
from heyde.engine import _canonical_shift, first_equation_violation
from heyde.errors import VerificationFailure
from heyde.fixtures import construction_admissible
from heyde.groups import subgroup_of_index
from heyde.morphisms import identity

import oracles
from limits import time_limit

Z9xZ5 = validate_spec([(3, 2), (5, 1)])
Z9xZ5xZ7 = validate_spec([(3, 2), (5, 1), (7, 1)])


def test_encoding_round_trip_and_rank_order():
    spec = Z9xZ5xZ7
    n = spec.exponent
    assert sorted(spec.crt_codes) == list(range(n))
    for i, x in enumerate(oracles.element_list(spec)):
        r = spec.crt(x)
        assert r == spec.crt_codes[i]
        assert spec.element(r) == x
        assert spec.crt_rank[r] == i
    by_rank = sorted(range(n), key=spec.crt_rank.__getitem__)
    assert [spec.element(r) for r in by_rank] == list(oracles.element_list(spec))
    assert spec.element(0) == oracles.zero(spec) and spec.crt_rank[0] == 0


BUILDER_SPECS = {
    "Z9": [(3, 2)],
    "Z9xZ5": [(3, 2), (5, 1)],
    "Z27xZ5": [(3, 3), (5, 1)],
    "Z9xZ5xZ7": [(3, 2), (5, 1), (7, 1)],
    "Z3^6": [(3, 6)],
    "Z25xZ27": [(5, 2), (3, 3)],  # components not in prime order
    "Z3xZ5xZ7xZ11": [(3, 1), (5, 1), (7, 1), (11, 1)],
}


@pytest.mark.parametrize("components", BUILDER_SPECS.values(), ids=BUILDER_SPECS.keys())
def test_mixed_radix_codes_match_the_crt_sum(components):
    """crt_codes and every Subgroup.codes, built axis by axis, against the
    CRT sum of each coordinate tuple and the sort of dZ(N) by rank."""
    spec = validate_spec(components)
    n = spec.exponent
    xs = list(itertools.product(*(range(q) for q in spec.orders)))
    assert list(spec.crt_codes) == [spec.crt(x) for x in xs]
    assert all(spec.element(spec.crt(x)) == x for x in xs)
    for sub in enumerate_subgroups(spec):
        assert list(sub.codes) == sorted(range(0, n, sub.index), key=spec.crt_rank.__getitem__)


def test_element_order_tables_make_no_crt_sum(monkeypatch):
    """crt_codes, crt_rank and every Subgroup.codes of a fresh N = 45045
    spec are built without one call of GroupSpec.crt."""

    def refuse(self, residues):
        raise AssertionError("GroupSpec.crt called")

    components = validate_spec([(3, 2), (5, 1), (7, 1), (11, 1), (13, 1)]).components
    spec = GroupSpec(components)  # not the shared spec, so no table is built yet
    monkeypatch.setattr(GroupSpec, "crt", refuse)
    assert len(spec.crt_codes) == len(spec.crt_rank) == spec.exponent == 45045
    for sub in enumerate_subgroups(spec):
        assert len(sub.codes) == sub.order


def test_encoding_is_additive():
    spec = Z9xZ5xZ7
    n = spec.exponent
    code = spec.crt
    for x in oracles.element_list(spec):
        assert code(spec.neg(x)) == -code(x) % n
        for y in oracles.element_list(spec):
            assert code(spec.add(x, y)) == (code(x) + code(y)) % n


def test_endomorphisms_act_as_one_multiplier():
    spec = Z9xZ5xZ7
    n = spec.exponent
    code = spec.crt
    for multipliers in itertools.product(*(range(q) for q in spec.orders)):
        endo = make_endo(spec, multipliers)
        a = endo.code
        assert a == spec.crt(multipliers)
        assert endo.is_automorphism() == (gcd(a, n) == 1)
        for x in oracles.element_list(spec):
            assert code(endo.apply(x)) == a * code(x) % n


# -- kernels against the brute-force routes -----------------------------------


def _chars(mu):
    table = {}

    def value(y):
        if y not in table:
            table[y] = char_fn(mu, y)
        return table[y]

    return value


def _on_codes(spec, fn):
    """fn on Elements, read on CRT codes as first_equation_violation calls it."""
    return lambda r: fn(spec.element(r))


def _check_against_oracles(inst):
    spec = inst.spec
    orders = spec.orders
    pmf1, pmf2 = dict(inst.mu1.masses), dict(inst.mu2.masses)
    symmetric = oracles.brute_symmetric(orders, pmf1, pmf2, inst.alpha.multipliers)
    assert is_conditionally_symmetric(inst) == symmetric

    f, g = _chars(inst.mu1), _chars(inst.mu2)
    expected = oracles.brute_equation_violation(orders, f, g, inst.alpha.multipliers)
    assert first_equation_violation(spec, _on_codes(spec, f), _on_codes(spec, g), inst.alpha) == expected
    assert satisfies_heyde_equation(inst) == (expected is None) == symmetric

    if symmetric:
        dual = oracles.brute_unit_modulus_points(orders, pmf1)
        dual &= oracles.brute_unit_modulus_points(orders, pmf2)
        members = oracles.brute_annihilator(orders, dual)
        red = reduce_to_subgroup(inst)
        assert set(oracles.subgroup_elements(red.subgroup)) == members
        for pmf, lam, x in ((pmf1, red.lam1, red.shift1), (pmf2, red.lam2, red.shift2)):
            masses, expected_x = oracles.brute_canonical_shift(orders, pmf, members)
            assert (list(lam.masses), x) == (masses, expected_x)
    return symmetric


def test_kernels_plus_and_minus_identity():
    spec = Z9xZ5
    stream = DeterministicStream(41, label="pm")
    outcomes = []
    for i, alpha in enumerate((identity(spec), minus_identity(spec)) * 3):
        mu = random_distribution(spec, 6, stream.derive(f"a{i}"))
        nu = mu if i % 4 < 2 else random_distribution(spec, 6, stream.derive(f"b{i}"))
        outcomes.append(_check_against_oracles(HeydeInstance(spec, mu, nu, alpha)))
    assert True in outcomes and False in outcomes


def test_kernels_point_mass_pairs():
    spec = Z9xZ5
    alphas = enumerate_automorphisms(spec)
    outcomes = []
    points = itertools.product(((0, 0), (1, 0), (4, 3)), ((0, 0), (2, 1), (8, 4)))
    for i, (x1, x2) in enumerate(points):
        alpha = alphas[(5 * i) % len(alphas)]
        mu1, mu2 = degenerate(spec, x1), degenerate(spec, x2)
        outcomes.append(_check_against_oracles(HeydeInstance(spec, mu1, mu2, alpha)))
        matched = spec.neg(alpha.apply(x2))  # x1 = -alpha x2 makes the pair symmetric
        assert _check_against_oracles(HeydeInstance(spec, degenerate(spec, matched), mu2, alpha))
    assert False in outcomes


def test_kernels_full_support_haar():
    spec = Z9xZ5
    full = oracles.full_subgroup(spec)
    uniform = haar(full)
    outcomes = []
    for alpha in enumerate_automorphisms(spec)[::2]:
        # on this group, symmetric exactly when I - alpha is invertible
        symmetric = _check_against_oracles(HeydeInstance(spec, uniform, uniform, alpha))
        assert symmetric == construction_admissible(full, alpha)
        outcomes.append(symmetric)
    assert True in outcomes and False in outcomes


def test_kernels_constructed_symmetric_pairs():
    spec = Z9xZ5
    stream = DeterministicStream(43, label="construct")
    alphas = enumerate_automorphisms(spec)
    checked = 0
    for i, sub in enumerate(enumerate_subgroups(spec)):
        alpha = next(
            (a for a in alphas[i % 7 :] + alphas[: i % 7] if construction_admissible(sub, a)), None
        )
        if alpha is None:
            continue
        rho = random_distribution(spec, 4, stream.derive(f"rho{i}"), support=sub)
        fixture = construct_instance(sub, alpha, rho, oracles.element_list(spec)[(7 * i) % spec.size])
        assert _check_against_oracles(fixture.instance)
        checked += 1
    assert checked >= 3


def test_kernels_random_pairs():
    spec = Z9xZ5
    stream = DeterministicStream(47, label="random")
    alphas = enumerate_automorphisms(spec)
    for i in range(24):
        mu1 = random_distribution(spec, 4, stream.derive(f"a{i}"))
        mu2 = random_distribution(spec, 4, stream.derive(f"b{i}"))
        _check_against_oracles(HeydeInstance(spec, mu1, mu2, alphas[i]))


@pytest.mark.parametrize(
    "pmf1, pmf2, multipliers, first",
    [
        # uniform margins on 3Z(9) x 0 shifted apart: the first fifteen v hold
        (
            {(0, 0): Fraction(1, 3), (3, 0): Fraction(1, 3), (6, 0): Fraction(1, 3)},
            {(1, 0): Fraction(1, 3), (4, 0): Fraction(1, 3), (7, 0): Fraction(1, 3)},
            (2, 3),
            ((0, 0), (3, 0)),
        ),
        # a margin and its reflection: u = 0 holds for v = (0, 1)
        (
            {x: Fraction(1, 4) for x in ((0, 0), (6, 0), (8, 2), (8, 3))},
            {x: Fraction(1, 4) for x in ((0, 0), (1, 2), (1, 3), (3, 0))},
            (4, 4),
            ((1, 1), (0, 1)),
        ),
    ],
)
def test_first_violation_is_pinned(pmf1, pmf2, multipliers, first):
    spec = Z9xZ5
    mu1, mu2 = from_pmf(spec, pmf1), from_pmf(spec, pmf2)
    alpha = make_endo(spec, multipliers)
    inst = HeydeInstance(spec, mu1, mu2, alpha)
    assert not _check_against_oracles(inst)
    chars1, chars2 = _on_codes(spec, partial(char_fn, mu1)), _on_codes(spec, partial(char_fn, mu2))
    assert first_equation_violation(spec, chars1, chars2, alpha) == first


def _shift_against_oracle(mu, subs):
    """_canonical_shift of mu into each of subs against the brute-force
    route; returns how many shifts were checked and how many refused."""
    spec = mu.spec
    checked = raised = 0
    for sub in subs:
        expected = oracles.brute_canonical_shift(spec.orders, dict(mu.masses), set(oracles.subgroup_elements(sub)))
        if expected is None:
            with pytest.raises(VerificationFailure, match="no valid shift"):
                _canonical_shift(mu, sub)
            raised += 1
        else:
            x, lam = _canonical_shift(mu, sub)
            assert (list(lam.masses), x) == expected
            checked += 1
    return checked, raised


def test_canonical_shift_on_every_subgroup():
    # supports that leave one coset of the subgroup have no valid shift
    spec = Z9xZ5
    stream = DeterministicStream(53, label="shift")
    raised = 0
    for i in range(6):
        mu = random_distribution(spec, 4, stream.derive(str(i)))
        raised += _shift_against_oracle(mu, enumerate_subgroups(spec))[1]
    assert raised


def test_the_shift_memo_is_keyed_by_the_subgroup():
    # the memo on a margin must answer each subgroup as a fresh call would:
    # after a shift into the whole group, one into a subgroup that misses
    # the support's differences is still refused, and the other way round
    spec = Z9xZ5
    subs = sorted(enumerate_subgroups(spec), key=lambda sub: sub.index)
    stream = DeterministicStream(59, label="shift memo")
    checked = raised = 0
    for i in range(8):
        mu = random_distribution(spec, 4, stream.derive(str(i)))
        for order in (subs, subs[::-1]):
            made, refused = _shift_against_oracle(mu, order)
            checked += made
            raised += refused
        # one entry per subgroup that admits a shift, and none for a refusal
        assert sorted(vars(mu)["_shifts"]) == [
            sub.index
            for sub in subs
            if oracles.brute_canonical_shift(spec.orders, dict(mu.masses), set(oracles.subgroup_elements(sub)))
        ]
    assert checked and raised


# -- the canonical shift by the translation stabilizer -------------------------


def _coset_blocks(spec, index, residues, numerators):
    """Mass a at every code of r + index Z(N), for each (r, a)."""
    n = spec.exponent
    points = [(c, a) for r, a in zip(residues, numerators) for c in range(r, n, index)]
    return _canonical(spec, sum(a for _, a in points), points)


def _block_margins(spec, rng):
    """Haar blocks on cosets of each dZ(N), two or more of least numerator,
    each followed by a copy whose stabilizer one unit of mass breaks."""
    n = spec.exponent
    for index in (d for d in range(2, n + 1) if n % d == 0):
        for numerators in ((1, 1), (1, 1, 2), (2, 1, 1, 3), (1, 1, 1)):
            if len(numerators) > index:
                continue
            mu = _coset_blocks(spec, index, rng.sample(range(index), len(numerators)), numerators)
            yield mu
            points = list(mu.points)
            i = rng.randrange(len(points))
            points[i] = (points[i][0], points[i][1] + 1)
            yield _canonical(spec, mu.den + 1, points)


@pytest.mark.parametrize("components", [[(3, 2), (5, 1)], [(3, 3), (5, 1)]])
def test_canonical_shift_on_coset_blocks(components):
    spec = validate_spec(components)
    rng = random.Random(f"blocks:{spec.exponent}")
    subs = enumerate_subgroups(spec)
    checked = raised = broken = 0
    for mu in _block_margins(spec, rng):
        index = oracles.brute_stabilizer_index(mu)
        assert stabilizer_index(mu) == index
        broken += index == spec.exponent
        made, refused = _shift_against_oracle(mu, subs)
        checked += made
        raised += refused
    assert checked and raised and broken


def test_canonical_shift_of_a_5005_point_margin_at_n_15015():
    spec = validate_spec([(3, 1), (5, 1), (7, 1), (11, 1), (13, 1)])
    block = haar(subgroup_of_index(spec, 3))
    mu = shift(block, (2, 1, 3, 4, 5))
    assert len(mu.points) == 5005
    with time_limit(3):
        x, lam = _canonical_shift(mu, oracles.full_subgroup(spec))
    assert lam == block
    assert x == spec.element(mu.points[0][0])
