"""The two routes of the joint symmetry test against each other and the
brute-force tuple route of oracles.py, and the memo they read.

Random pairs almost always fail at their first support pair, so the
routes are pinned on constructed symmetric pairs and on near-symmetric
variants of them: one unit of mass moved, one point moved, two masses
swapped.
"""

import dataclasses
import random
from fractions import Fraction
from math import gcd

import pytest

from heyde import (
    HeydeInstance,
    construct_instance,
    enumerate_automorphisms,
    enumerate_subgroups,
    from_pmf,
    full_subgroup,
    haar,
    is_conditionally_symmetric,
    make_endo,
    shift,
    validate_spec,
)
from heyde import engine, serialize
from heyde.distributions import Distribution, _canonical
from heyde.engine import _symmetric_by_involution, _symmetric_by_joint
from heyde.groups import subgroup_of_index

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
    rho = from_pmf(spec, {spec.crt_elements[c]: Fraction(k + 1, 3) for k, c in enumerate(codes)})
    x2 = spec.crt_elements[rng.randrange(spec.exponent)]
    return construct_instance(sub, alpha, rho, x2).instance


def _unit_minus_one(spec):
    n = spec.exponent
    return [a for a in enumerate_automorphisms(spec) if gcd(a.code - 1, n) == 1]


def _brute(inst):
    pmf1, pmf2 = dict(inst.mu1.masses), dict(inst.mu2.masses)
    return oracles.brute_symmetric(inst.spec.orders, pmf1, pmf2, inst.alpha.multipliers)


@pytest.mark.parametrize("name", list(LADDER))
def test_involution_route_on_constructed_and_near_symmetric_pairs(name):
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
            assert _symmetric_by_involution(case) == expected
            assert _symmetric_by_joint(case) == expected
            assert is_conditionally_symmetric(case) == expected
            assert expected or k  # every constructed pair is symmetric
            outcomes[expected] += 1
    assert outcomes[True] >= len(alphas) and outcomes[False] > len(alphas)


def test_involution_route_is_taken_exactly_when_alpha_minus_one_is_a_unit(monkeypatch):
    spec = validate_spec(LADDER["Z9xZ5"])
    n = spec.exponent
    rng = random.Random("routes")
    taken = []
    for route in (_symmetric_by_involution, _symmetric_by_joint):
        monkeypatch.setattr(
            engine, route.__name__, lambda inst, route=route: taken.append(route) or route(inst)
        )
    mu = from_pmf(spec, {(0, 0): Fraction(1, 3), (3, 0): Fraction(1, 3), (6, 0): Fraction(1, 3)})
    nonunit = 0
    for alpha in enumerate_automorphisms(spec):
        nu = shift(mu, spec.crt_elements[rng.randrange(n)])
        inst = HeydeInstance(spec, mu, nu, alpha)
        taken.clear()
        assert is_conditionally_symmetric(inst) == _brute(inst)
        unit = gcd(alpha.code - 1, n) == 1
        assert taken == [_symmetric_by_involution if unit else _symmetric_by_joint]
        nonunit += not unit
    assert nonunit  # alpha = I and alpha = 1 (mod 3) reach the joint route


# -- memo hygiene --------------------------------------------------------------


def test_filled_memos_leave_equality_hash_and_fields_alone():
    spec = validate_spec(LADDER["Z9xZ5"])
    alpha = make_endo(spec, (2, 2))
    inst = construct_instance(full_subgroup(spec), alpha, haar(subgroup_of_index(spec, 45)), (1, 2)).instance
    mu = inst.mu1
    fresh = Distribution(mu.spec, mu.den, mu.points)
    assert is_conditionally_symmetric(inst)
    assert "_numerators" in vars(mu) and "_numerators" not in vars(fresh)
    assert mu == fresh and hash(mu) == hash(fresh)
    assert dataclasses.fields(mu) == dataclasses.fields(fresh)
    assert [f.name for f in dataclasses.fields(mu)] == ["spec", "den", "points"]
    assert serialize.distribution_to_obj(mu) == serialize.distribution_to_obj(fresh)
    assert serialize.dumps_canonical(serialize.instance_to_obj(inst)) == serialize.dumps_canonical(
        serialize.instance_to_obj(dataclasses.replace(inst, mu1=fresh))
    )
