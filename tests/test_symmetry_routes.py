"""The joint symmetry test against the brute-force tuple route of
oracles.py, and the memos it reads.

Random pairs almost always fail at their first key, so the test is pinned
on constructed symmetric pairs and on near-symmetric variants of them: one
unit of mass moved, one point moved, two masses swapped.  Under alpha with
alpha - 1 a unit its quotient Z(m) is Z(lcm(d1, d2)), one point per coset
of the margins' common translation stabilizer.  That coset stage is pinned
on pairs that pass the first key: symmetric pairs, pairs whose margins
have different stabilizers, and pairs where one unit of mass moved inside
a coset breaks a stabilizer, with the pair threshold forced to 0 (every
such pair on the quotient) and to N**2 (none).  Under alpha with
alpha - 1 not a unit, the first key and the quotient Z(lcm(d1, d2, A))
are pinned on pairs of their own.
"""

import collections
import dataclasses
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from heyde import (
    HeydeInstance,
    construct_instance,
    enumerate_automorphisms,
    enumerate_subgroups,
    from_pmf,
    haar,
    is_conditionally_symmetric,
    make_endo,
    minus_identity,
    satisfies_heyde_equation,
    shift,
    validate_spec,
)
from heyde import classify_corollary, degenerate, distributions, engine, serialize
from heyde.distributions import Distribution, _canonical
from heyde.engine import AutomorphismRow, _decompose
from heyde.fixtures import construction_admissible
from heyde.groups import subgroup_of_index
from limits import time_limit

import oracles

LADDER = {
    "Z5": [(5, 1)],
    "Z7": [(7, 1)],
    "Z9": [(3, 2)],
    "Z9xZ5": [(3, 2), (5, 1)],
    "Z27xZ5": [(3, 3), (5, 1)],
    "Z9xZ5xZ7": [(3, 2), (5, 1), (7, 1)],
}


# -- near-symmetric variants ---------------------------------------------------


def _move_unit(mu, rng):
    """mu with one unit of numerator (over twice its denominator) moved
    from one support point to another, or to a new point."""
    points = [(r, 2 * a) for r, a in mu.points]
    i = rng.randrange(len(points))
    r, a = points[i]
    points[i] = (r, a - 1)
    if len(points) > 1:
        j = rng.choice([k for k in range(len(points)) if k != i])
        points[j] = (points[j][0], points[j][1] + 1)
    else:
        points.append(((r + 1) % mu.spec.exponent, 1))
    return _canonical(mu.spec, 2 * mu.den, points)


def _move_point(mu, rng):
    """mu with one support point moved to a code off the support."""
    n = mu.spec.exponent
    held = {r for r, _ in mu.points}
    free = [c for c in range(n) if c not in held]
    if not free:
        return None
    points = list(mu.points)
    i = rng.randrange(len(points))
    points[i] = (rng.choice(free), points[i][1])
    return _canonical(mu.spec, mu.den, points)


def _swap_masses(mu, rng):
    """mu with the numerators of two support points that differ swapped."""
    points = list(mu.points)
    pairs = [(i, j) for i in range(len(points)) for j in range(i) if points[i][1] != points[j][1]]
    if not pairs:
        return None
    i, j = rng.choice(pairs)
    (ri, ai), (rj, aj) = points[i], points[j]
    points[i], points[j] = (ri, aj), (rj, ai)
    return _canonical(mu.spec, mu.den, points)


def _constructed(spec, alpha, rng):
    """A constructed symmetric pair on a small subgroup with unequal masses."""
    subs = [s for s in enumerate_subgroups(spec) if 1 < s.order <= 15]
    sub = rng.choice(subs)
    codes = rng.sample(sub.codes, min(2, sub.order))
    rho = from_pmf(spec, {spec.element(c): Fraction(k + 1, 3) for k, c in enumerate(codes)})
    x2 = spec.element(rng.randrange(spec.exponent))
    return construct_instance(sub, alpha, rho, x2).instance


def _unit_minus_one(spec):
    n = spec.exponent
    return [a for a in enumerate_automorphisms(spec) if gcd(a.code - 1, n) == 1]


def _brute(inst):
    pmf1, pmf2 = dict(inst.mu1.masses), dict(inst.mu2.masses)
    return oracles.brute_symmetric(inst.spec.orders, pmf1, pmf2, inst.alpha.multipliers)


_MIN_PAIRS = engine._COSET_MIN_PAIRS


def _forced_verdicts(inst, monkeypatch):
    """is_conditionally_symmetric(inst) with the pair threshold at 0, so
    that every pair past its first key runs on the quotient, at its
    default, and at N**2, so that none does."""
    verdicts = []
    for threshold in (0, _MIN_PAIRS, inst.spec.exponent ** 2):
        monkeypatch.setattr(engine, "_COSET_MIN_PAIRS", threshold)
        verdicts.append(is_conditionally_symmetric(inst))
    return verdicts


@pytest.mark.parametrize("name", list(LADDER))
def test_involution_route_on_constructed_and_near_symmetric_pairs(name, monkeypatch):
    # alpha - 1 a unit, where (x1, x2) -> (L1, L2) is a bijection and
    # symmetry is the invariance of mu1 x mu2 under an involution of
    # Z(N)**2: the joint test decides these pairs with A = 1
    spec = validate_spec(LADDER[name])
    rng = random.Random(f"involution:{name}")
    alphas = _unit_minus_one(spec)
    assert alphas
    outcomes = {True: 0, False: 0}
    for alpha in alphas:
        inst = _constructed(spec, alpha, rng)
        variants = [inst]
        for perturb in (_move_unit, _move_point, _swap_masses):
            for side in ("mu1", "mu2"):
                mu = perturb(getattr(inst, side), rng)
                if mu is not None:
                    variants.append(dataclasses.replace(inst, **{side: mu}))
        for k, case in enumerate(variants):
            expected = _brute(case)
            assert _forced_verdicts(case, monkeypatch) == [expected] * 3
            assert expected or k  # every constructed pair is symmetric
            outcomes[expected] += 1
    assert outcomes[True] >= len(alphas) and outcomes[False] > len(alphas)


@pytest.mark.parametrize("name", ["Z9xZ5", "Z27xZ5"])
def test_rows_and_instances_take_the_same_route(name, monkeypatch):
    # AutomorphismRow and is_conditionally_symmetric each call
    # engine._joint_symmetric once, with the same arguments, under every
    # alpha, with alpha - 1 a unit or not
    spec = validate_spec(LADDER[name])
    n = spec.exponent
    rng = random.Random(f"row routes:{name}")
    calls = []
    real = engine._joint_symmetric
    monkeypatch.setattr(engine, "_joint_symmetric", lambda *args: calls.append(args) or real(*args))
    mu1 = _coset_blocks(spec, rng)
    units = set()
    for alpha in enumerate_automorphisms(spec):
        mu2 = shift(mu1, spec.element(rng.randrange(n)))
        inst = HeydeInstance(spec, mu1, mu2, alpha)
        calls.clear()
        verdict = is_conditionally_symmetric(inst)
        row = AutomorphismRow(alpha, mu2.den)
        _, terms, *_ = row.second(mu2)
        assert row.symmetric(mu1, mu2, terms) == verdict == _brute(inst)
        assert len(calls) == 2 and calls[0] == calls[1]
        units.add(gcd(alpha.code - 1, n) == 1)
    assert units == {True, False}


# -- the coset stage -------------------------------------------------------------


def _move_unit_in_coset(mu, index, rng):
    """mu with one unit of numerator (over twice its denominator) moved
    between two support points of one coset of index Z(N), or None when
    every such coset holds one point."""
    points = [(r, 2 * a) for r, a in mu.points]
    cosets: dict[int, list[int]] = {}
    for i, (r, _) in enumerate(points):
        cosets.setdefault(r % index, []).append(i)
    full = [members for members in cosets.values() if len(members) > 1]
    if not full:
        return None
    i, j = rng.sample(rng.choice(full), 2)
    points[i] = (points[i][0], points[i][1] - 1)
    points[j] = (points[j][0], points[j][1] + 1)
    return _canonical(mu.spec, 2 * mu.den, points)


def _coset_blocks(spec, rng):
    """Mass 1 or 2 on each of one to three cosets of some dZ(N) of order at
    most 45, and, most of the time, one or two units more at a random code."""
    n = spec.exponent
    index = rng.choice([d for d in range(2, n + 1) if n % d == 0 and n // d <= 45])
    points: dict[int, int] = {}
    for r in rng.sample(range(index), min(index, rng.randint(1, 3))):
        weight = rng.randint(1, 2)
        for c in range(r, n, index):
            points[c] = weight
    if rng.random() < 0.7:
        c = rng.randrange(n)
        points[c] = points.get(c, 0) + rng.randint(1, 2)
    return _canonical(spec, sum(points.values()), points.items())


def _coset_cases(spec, rng):
    """Pairs for the coset stage: constructed symmetric pairs whose margins
    have a nontrivial stabilizer, each followed by the variants with one
    unit of mass moved inside a coset of the stabilizer of either margin;
    then pairs of coset blocks, whose stabilizers mostly differ."""
    n = spec.exponent
    subs = enumerate_subgroups(spec)
    alphas = _unit_minus_one(spec)
    for alpha in alphas:
        one_plus = (alpha.code + 1) % n
        admissible = [
            sub for sub in subs
            if sub.order <= 45 and construction_admissible(sub, alpha)
            and gcd(one_plus * sub.index, n) < n
        ]
        if not admissible:
            continue
        sub = rng.choice(admissible)
        codes = rng.sample(sub.codes, min(2, sub.order))
        rho = _canonical(spec, 3, list(zip(codes, (1, 2))) if len(codes) == 2 else [(codes[0], 3)])
        x2 = spec.element(rng.randrange(n))
        inst = construct_instance(sub, alpha, rho, x2).instance
        yield inst
        for side in ("mu1", "mu2"):
            mu = getattr(inst, side)
            moved = _move_unit_in_coset(mu, oracles.brute_stabilizer_index(mu), rng)
            if moved is not None:
                yield dataclasses.replace(inst, **{side: moved})
    for _ in range(2000):
        yield HeydeInstance(spec, _coset_blocks(spec, rng), _coset_blocks(spec, rng), rng.choice(alphas))


# Z(5) and Z(7) have no subgroup but 0 and the whole group
@pytest.mark.parametrize("name", ["Z9", "Z9xZ5", "Z27xZ5", "Z9xZ5xZ7"])
def test_coset_stage_against_the_brute_route(name, monkeypatch):
    spec = validate_spec(LADDER[name])
    n = spec.exponent
    rng = random.Random(f"cosets:{name}")
    staged = []
    monkeypatch.setattr(
        engine, "stabilizer_index", lambda mu: staged.append(mu) or distributions.stabilizer_index(mu)
    )
    seen = {"symmetric": 0, "refuted": 0, "unequal": 0}
    for k, case in enumerate(_coset_cases(spec, rng)):
        # with threshold 0 every pair that passes its first key goes on to
        # the coset stage; with N**2 it is decided on the plain dict
        monkeypatch.setattr(engine, "_COSET_MIN_PAIRS", n * n)
        plain = is_conditionally_symmetric(case)
        monkeypatch.setattr(engine, "_COSET_MIN_PAIRS", 0)
        staged.clear()
        verdict = is_conditionally_symmetric(case)
        assert verdict == plain
        if not staged:
            assert not verdict  # refuted by the first key, as the tests below pin
            if k % 20 == 0:
                assert not _brute(case)
            continue
        expected = _brute(case)
        assert verdict == expected
        d1, d2 = (distributions.stabilizer_index(mu) for mu in (case.mu1, case.mu2))
        assert d1 == oracles.brute_stabilizer_index(case.mu1)
        assert d2 == oracles.brute_stabilizer_index(case.mu2)
        if expected:
            seen["symmetric"] += 1
            assert d1 == d2
        else:
            seen["refuted"] += 1
            seen["unequal"] += d1 != d2
    assert seen["symmetric"] and seen["refuted"] and seen["unequal"], seen


def test_the_coset_stage_waits_for_the_first_row(monkeypatch):
    # a pair refuted by its first key computes no stabilizer, and a pair
    # with few support pairs computes none either.  Moving one point of mu2
    # mostly leaves the first key alone, so those pairs reach the coset
    # stage; moving one unit of mass off the first point of mu2 changes
    # P(l1, l2) at the first key, where a = 2 gives one point of mu1 to each
    # side and mu1 is uniform, so P(l1, -l2) cannot follow it
    spec = validate_spec(LADDER["Z27xZ5"])
    alpha = make_endo(spec, (2, 2))
    staged = []
    monkeypatch.setattr(
        engine, "stabilizer_index", lambda mu: staged.append(mu) or distributions.stabilizer_index(mu)
    )
    inst = construct_instance(oracles.full_subgroup(spec), alpha, degenerate(spec, oracles.zero(spec)), (1, 2)).instance
    assert len(inst.mu1.points) * len(inst.mu2.points) > engine._COSET_MIN_PAIRS
    rng = random.Random("first row")
    for _ in range(10):
        case = dataclasses.replace(inst, mu2=_move_point(inst.mu2, rng))
        assert is_conditionally_symmetric(case) == _brute(case) is False
    points = [(r, 2 * a) for r, a in inst.mu2.points]
    (r0, a0), (r1, a1) = points[:2]
    points[:2] = [(r0, a0 - 1), (r1, a1 + 1)]
    case = dataclasses.replace(inst, mu2=_canonical(spec, 2 * inst.mu2.den, points))
    staged.clear()
    assert is_conditionally_symmetric(case) == _brute(case) is False
    assert not staged
    small = HeydeInstance(spec, degenerate(spec, (1, 0)), degenerate(spec, (3, 4)), alpha)
    staged.clear()
    assert is_conditionally_symmetric(small) == _brute(small)
    assert not staged


def test_growth_at_3465_within_two_seconds():
    # Z(9) x Z(5) x Z(7) x Z(11), every subgroup exponent 0, alpha = 2 and
    # rho = delta_0: margins of N / 3 = 1155 points, one stabilizer coset
    spec = validate_spec([(3, 2), (5, 1), (7, 1), (11, 1)])
    alpha = make_endo(spec, (2, 2, 2, 2))
    rho = degenerate(spec, oracles.zero(spec))
    with time_limit(2):
        inst = construct_instance(oracles.full_subgroup(spec), alpha, rho, (1, 2, 3, 4)).instance
        assert is_conditionally_symmetric(inst)
        dec = _decompose(inst)
        report = classify_corollary(inst, dec)
    assert len(inst.mu1.points) == 1155
    assert dataclasses.asdict(dec.flags) == dict.fromkeys(
        ["stable_under_one_minus_alpha", "shifts_of_common_distribution", "minimal_support_subgroup",
         "haar_factor", "restricted_symmetry"], True
    )
    assert report.ok


def test_a_dense_minus_identity_pair_at_3465_within_one_second():
    # alpha = -I, so alpha - 1 = -2 is a unit, and mu1 = mu2 with 300
    # points and no translation stabilizer: the first key passes and the
    # quotient is Z(N) itself, so the joint dict takes all 90,000 support
    # pairs
    spec = validate_spec([(3, 2), (5, 1), (7, 1), (11, 1)])
    n = spec.exponent
    rng = random.Random("dense minus identity")
    mu = _canonical(spec, 450, [(c, 1 + k % 2) for k, c in enumerate(rng.sample(range(n), 300))])
    inst = HeydeInstance(spec, mu, Distribution(spec, mu.den, mu.points), minus_identity(spec))
    assert len(mu.points) == 300
    with time_limit(1):
        assert is_conditionally_symmetric(inst)
    assert distributions.stabilizer_index(inst.mu1) == distributions.stabilizer_index(inst.mu2) == n


# -- the first key of the joint test -------------------------------------------------


def _joint_alphas(spec):
    n = spec.exponent
    return [a for a in enumerate_automorphisms(spec) if gcd(a.code - 1, n) > 1]


def _first_key(inst):
    """(l1, l2) of the first point of mu1 and the first point of mu2 with
    l2 != 0, or None when there is none."""
    n = inst.spec.exponent
    r1 = inst.mu1.points[0][0]
    keys = [((r1 + r2) % n, (r1 + inst.alpha.code * r2) % n) for r2, _ in inst.mu2.points]
    return next((key for key in keys if key[1]), None)


def _brute_key_masses(inst, l1, l2):
    """P(l1, l2) and P(l1, -l2) from the brute joint pmf, as numerators over
    the product of the margins' denominators."""
    spec = inst.spec
    n = spec.exponent
    joint = oracles.brute_joint(
        spec.orders, dict(inst.mu1.masses), dict(inst.mu2.masses), inst.alpha.multipliers
    )
    scale = inst.mu1.den * inst.mu2.den
    at = spec.element
    return tuple(joint.get((at(l1), at(m % n)), 0) * scale for m in (l2, -l2))


def _mirror_key_pairs(spec, alpha, rng):
    """Two pairs whose first points x1, x2 have x1 + alpha x2 = 0, a key that
    is its own mirror: in the first mu2 has a second point, whose key is
    tested in its place; in the second mu2 is a point mass, and no key is."""
    n = spec.exponent
    rank = spec.crt_rank
    mu2 = _canonical(spec, 3, [(c, k + 1) for k, c in enumerate(rng.sample(range(n), 2))])
    r2 = mu2.points[0][0]
    r1 = -alpha.code * r2 % n
    later = [c for c in range(n) if rank[c] > rank[r1]]
    points = [(r1, 1)] + [(c, 2) for c in rng.sample(later, min(2, len(later)))]
    mu1 = _canonical(spec, sum(a for _, a in points), points)
    point = _canonical(spec, 1, [(r2, 1)])
    return [HeydeInstance(spec, mu1, mu2, alpha), HeydeInstance(spec, mu1, point, alpha)]


def _first_key_cases(spec, rng):
    """Constructed symmetric pairs under each alpha with alpha - 1 not a
    unit, each followed by copies with one point moved, one unit of mass
    moved or two masses swapped, and the pairs of _mirror_key_pairs; then
    pairs of coset blocks."""
    subs = enumerate_subgroups(spec)
    alphas = _joint_alphas(spec)
    cases = []
    for alpha in alphas:
        admissible = [s for s in subs if s.order <= 45 and construction_admissible(s, alpha)]
        inst = _constructed_on(spec, alpha, rng.choice(admissible), rng)
        cases.append(inst)
        for perturb in (_move_point, _move_unit, _swap_masses):
            for side in ("mu1", "mu2"):
                mu = perturb(getattr(inst, side), rng)
                if mu is not None:
                    cases.append(dataclasses.replace(inst, **{side: mu}))
        cases.extend(_mirror_key_pairs(spec, alpha, rng))
    if spec.exponent > 5:
        for _ in range(60):
            mu1, mu2 = _coset_blocks(spec, rng), _coset_blocks(spec, rng)
            cases.append(HeydeInstance(spec, mu1, mu2, rng.choice(alphas)))
    return cases


def _constructed_on(spec, alpha, sub, rng):
    codes = rng.sample(sub.codes, min(2, sub.order))
    rho = _canonical(spec, 3, list(zip(codes, (1, 2))) if len(codes) == 2 else [(codes[0], 3)])
    x2 = spec.element(rng.randrange(spec.exponent))
    return construct_instance(sub, alpha, rho, x2).instance


def _check_first_key(cases, monkeypatch):
    """The first-key masses and the joint-test verdict against the brute
    joint pmf on every case; returns how many cases fell in each class."""
    called = []
    real = engine._joint_masses_at
    monkeypatch.setattr(
        engine, "_joint_masses_at", lambda *args: called.append(args) or real(*args)
    )
    classes = ["symmetric", "refuted_at_key", "refuted_later", "second_point", "no_key"]
    seen = dict.fromkeys(classes, 0)
    for case in cases:
        expected = _brute(case)
        key = _first_key(case)
        called.clear()
        assert is_conditionally_symmetric(case) == expected
        seen["symmetric"] += expected
        if key is None:
            assert not called  # every key of the first point of mu1 is its own mirror
            seen["no_key"] += 1
            continue
        l1, l2 = key
        r1, r2 = case.mu1.points[0][0], case.mu2.points[0][0]
        seen["second_point"] += (r1 + case.alpha.code * r2) % case.spec.exponent == 0
        masses = engine._joint_masses_at(
            case.mu1.points,
            distributions.numerator_map(case.mu2).get,
            case.alpha.code,
            l1,
            l2,
            case.spec.exponent,
        )
        assert {args[3:5] for args in called} == {(l1, l2)}
        assert masses == _brute_key_masses(case, l1, l2)
        assert masses[0] > 0
        if masses[0] != masses[1]:
            assert not expected
            seen["refuted_at_key"] += 1
        elif not expected:
            seen["refuted_later"] += 1
    return seen


@pytest.mark.parametrize("name", ["Z5", "Z9", "Z9xZ5", "Z27xZ5", "Z9xZ5xZ7"])
def test_first_key_of_the_joint_route_against_the_brute_joint(name, monkeypatch):
    spec = validate_spec(LADDER[name])
    cases = _first_key_cases(spec, random.Random(f"first key:{name}"))
    seen = _check_first_key(cases, monkeypatch)
    assert seen["symmetric"] and seen["refuted_at_key"], seen
    assert seen["second_point"] and seen["no_key"], seen
    if name != "Z5":
        assert seen["refuted_later"], seen  # asymmetric pairs that pass the first key


def test_a_first_key_that_tests_only_the_l2_side_is_caught(monkeypatch):
    # the mutant adds up P(l1, l2) alone and leaves P(l1, -l2) at 0, so
    # it refutes every pair, the symmetric ones too
    def only_l2(firsts, get2, a, l1, l2, n):
        plus = sum(
            w1 * get2((l1 - y1) % n, 0) for y1, w1 in firsts if ((1 - a) * y1 + a * l1) % n == l2
        )
        return plus, 0

    cases = _first_key_cases(validate_spec(LADDER["Z9xZ5"]), random.Random("first key:Z9xZ5"))
    monkeypatch.setattr(engine, "_joint_masses_at", only_l2)
    with pytest.raises(AssertionError):
        _check_first_key(cases, monkeypatch)


def test_an_asymmetric_joint_pair_at_15015_exits_at_its_first_key():
    # Z(3) x Z(5) x Z(7) x Z(11) x Z(13) with alpha = 1 (mod 3), so alpha - 1
    # is not a unit; margins of 2000 points, whose joint pmf would have
    # about 4 million keys
    spec = validate_spec([(3, 1), (5, 1), (7, 1), (11, 1), (13, 1)])
    n = spec.exponent
    alpha = make_endo(spec, (1, 2, 2, 2, 2))
    rng = random.Random("first key:15015")
    mu1, mu2 = (
        _canonical(spec, 3000, [(c, 1 + k % 2) for k, c in enumerate(rng.sample(range(n), 2000))])
        for _ in range(2)
    )
    inst = HeydeInstance(spec, mu1, mu2, alpha)
    assert len(mu1.points) == len(mu2.points) == 2000
    l1, l2 = _first_key(inst)
    plus, minus = engine._joint_masses_at(
        mu1.points, distributions.numerator_map(mu2).get, alpha.code, l1, l2, n
    )
    assert plus != minus
    with time_limit(1):
        assert not is_conditionally_symmetric(inst)


# -- the stabilizer quotient of the joint test ----------------------------------------


def _fixed_axis_cases(spec, rng):
    """Pairs under each alpha with alpha - 1 not a unit, on margins invariant
    under some dZ(N): coset blocks against their own shift and against other
    blocks, Haar measures of subgroups against their shifts, and constructed
    symmetric pairs, each followed by a copy with one point moved."""
    n = spec.exponent
    subs = [sub for sub in enumerate_subgroups(spec) if sub.order <= 45]
    alphas = _joint_alphas(spec)
    for alpha in rng.sample(alphas, min(8, len(alphas))):
        for _ in range(6):
            block = _coset_blocks(spec, rng)
            yield HeydeInstance(spec, block, shift(block, spec.element(rng.randrange(n))), alpha)
            yield HeydeInstance(spec, block, _coset_blocks(spec, rng), alpha)
        for sub in subs:
            mu = haar(sub)
            yield HeydeInstance(spec, mu, shift(mu, spec.element(rng.randrange(n))), alpha)
        admissible = [s for s in subs if construction_admissible(s, alpha)]
        inst = _constructed_on(spec, alpha, rng.choice(admissible), rng)
        yield inst
        moved = _move_point(inst.mu2, rng)
        if moved is not None:
            yield dataclasses.replace(inst, mu2=moved)


# On one axis (Z(5), Z(7), Z(9)) every alpha with alpha - 1 not a unit is
# 1 mod p, so A = N and the joint test keeps Z(N)
@pytest.mark.parametrize("forced", ["quotient", "dict"])
@pytest.mark.parametrize("name", ["Z9xZ5", "Z27xZ5", "Z9xZ5xZ7"])
def test_joint_route_on_the_stabilizer_quotient_against_the_brute_route(name, forced, monkeypatch):
    # With no pair threshold every pair past its first key is decided on
    # Z(m), m = lcm(d1, d2, A); with an unreachable one, on the joint dict
    # over Z(N).  Both must give the brute verdict, on pairs where A, the
    # part of N on which alpha = 1, enlarges m, and on pairs where it does
    # not.  Symmetric pairs are point masses on the axes where alpha = 1
    # (I - alpha must be invertible on G), so A never enlarges m for them.
    spec = validate_spec(LADDER[name])
    n = spec.exponent
    monkeypatch.setattr(engine, "_COSET_MIN_PAIRS", 0 if forced == "quotient" else n * n)
    seen = collections.Counter()
    for case in _fixed_axis_cases(spec, random.Random(f"joint quotient:{name}")):
        expected = _brute(case)
        assert is_conditionally_symmetric(case) == expected
        d1, d2 = (distributions.stabilizer_index(mu) for mu in (case.mu1, case.mu2))
        m = lcm(d1, d2, engine._fixed_part(spec, case.alpha.code))
        verdict = "symmetric" if expected else "asymmetric"
        seen[(verdict, "A enlarges m" if m > lcm(d1, d2) else "")] += 1
        seen["m < N"] += m < n
    assert seen["m < N"] and seen[("symmetric", "")] and seen[("asymmetric", "")], seen
    assert seen[("asymmetric", "A enlarges m")], seen


def _counting_bodies(monkeypatch):
    """Patch stabilizer_index and char_fn_zero_classes, in both modules that
    call them, to record each margin on which the body runs: a call that
    finds the memo of that margin empty."""
    bodies = {"_stabilizer": [], "_zero_classes": []}
    for name, memo in (("stabilizer_index", "_stabilizer"), ("char_fn_zero_classes", "_zero_classes")):
        real = getattr(distributions, name)

        def counted(mu, real=real, memo=memo):
            if getattr(mu, memo) is None:
                bodies[memo].append(mu)
            return real(mu)

        monkeypatch.setattr(distributions, name, counted)
        monkeypatch.setattr(engine, name, counted)
    return bodies


def test_decompose_computes_each_invariant_once_per_translation_class(monkeypatch):
    # A constructed Z(9) x Z(5) x Z(7) pair with alpha = 2 and rho = delta_0,
    # read into fresh margins as the CLI reads them, through the CLI's
    # decompose: the symmetry test, _decompose and classify_corollary.  lam,
    # its copy from mu2 and the shifts that check them are translates built
    # from mu1 and mu2, and carry their memos.  So the stabilizer runs once
    # on each margin the symmetry test is given and on nothing built from
    # them, and the zero classes run once, on lam, for all of them.
    spec = validate_spec(LADDER["Z9xZ5xZ7"])
    alpha = make_endo(spec, (2, 2, 2))
    rho = degenerate(spec, (0, 0, 0))
    built = construct_instance(oracles.full_subgroup(spec), alpha, rho, (1, 2, 3)).instance
    mu1, mu2 = (Distribution(spec, mu.den, mu.points) for mu in (built.mu1, built.mu2))
    inst = HeydeInstance(spec, mu1, mu2, alpha)
    assert len(mu1.points) * len(mu2.points) > engine._COSET_MIN_PAIRS
    bodies = _counting_bodies(monkeypatch)
    assert is_conditionally_symmetric(inst)
    dec = _decompose(inst)
    assert dec.flags.all_true and classify_corollary(inst, dec).ok
    assert sorted(map(id, bodies["_stabilizer"])) == sorted((id(mu1), id(mu2)))
    assert bodies["_zero_classes"] == [dec.lam]
    lam2 = mu2._shifts[dec.subgroup.index][1]
    assert lam2 is not dec.lam and lam2._stabilizer == mu2._stabilizer


# -- memo hygiene --------------------------------------------------------------


def test_filled_memos_leave_equality_hash_and_fields_alone():
    spec = validate_spec(LADDER["Z9xZ5"])
    alpha = make_endo(spec, (2, 2))
    inst = construct_instance(oracles.full_subgroup(spec), alpha, haar(subgroup_of_index(spec, 45)), (1, 2)).instance
    mu = inst.mu1
    fresh = Distribution(mu.spec, mu.den, mu.points)
    assert is_conditionally_symmetric(inst) and satisfies_heyde_equation(inst)
    distributions.stabilizer_index(mu)
    distributions.char_fn_zero_classes(mu)
    _decompose(inst)
    for memo in ("_numerators", "_residues", "_zero_classes", "_stabilizer", "_shifts"):
        assert memo in vars(mu) and memo not in vars(fresh)
    assert mu == fresh and hash(mu) == hash(fresh)
    assert dataclasses.fields(mu) == dataclasses.fields(fresh)
    assert [f.name for f in dataclasses.fields(mu)] == ["spec", "den", "points"]
    assert serialize.distribution_to_obj(mu) == serialize.distribution_to_obj(fresh)
    assert serialize.dumps_canonical(serialize.instance_to_obj(inst)) == serialize.dumps_canonical(
        serialize.instance_to_obj(dataclasses.replace(inst, mu1=fresh))
    )
