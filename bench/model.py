"""Plain modular arithmetic on the benchmark's groups, independent of heyde.

A group is a tuple of (p, k) components with pairwise distinct odd primes;
an element is a tuple of residues, a subgroup is one exponent a_j per
component (p_j**a_j * Z(p_j**k_j)), an automorphism is one unit multiplier
per component, and a distribution is a dict element -> Fraction.  The
benchmark builds every input file and checks every output with these
helpers, so no check relies on heyde's own flags or code.
"""

from __future__ import annotations

import cmath
import itertools
import json
from fractions import Fraction
from math import comb


def orders(comps) -> tuple[int, ...]:
    return tuple(p**k for p, k in comps)


def size(comps) -> int:
    n = 1
    for q in orders(comps):
        n *= q
    return n


def spec_obj(comps) -> dict:
    return {"components": [{"p": p, "k": k, "kind": "finite"} for p, k in comps]}


def canonical(obj) -> str:
    """heyde's documented stdout encoding: sorted keys, compact, one line."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def valuation(n: int, p: int, cap: int) -> int:
    n %= p**cap
    if n == 0:
        return cap
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def elements(comps):
    return list(itertools.product(*(range(q) for q in orders(comps))))


def subgroups(comps):
    return list(itertools.product(*(range(k + 1) for _, k in comps)))


def automorphisms(comps):
    return list(itertools.product(*([m for m in range(1, p**k) if m % p] for p, k in comps)))


def subgroup_order(comps, exps) -> int:
    n = 1
    for (p, k), a in zip(comps, exps):
        n *= p ** (k - a)
    return n


def subgroup_elements(comps, exps):
    return list(itertools.product(*(range(0, p**k, p**a) for (p, k), a in zip(comps, exps))))


def in_subgroup(comps, exps, x) -> bool:
    return all(c % p**a == 0 for c, (p, _), a in zip(x, comps, exps))


def image_exps(comps, mults, exps):
    """Exponents of the image of a subgroup under multiplication by mults."""
    return tuple(min(k, a + valuation(m, p, k)) for (p, k), m, a in zip(comps, mults, exps))


def image_size(comps, mults) -> int:
    """Number of elements in the image of the whole group under mults."""
    return subgroup_order(comps, image_exps(comps, mults, (0,) * len(comps)))


def admissible(comps, exps, mults) -> bool:
    """Whether I - alpha restricts to an automorphism of the subgroup."""
    return all(a == k or (1 - m) % p for (p, k), a, m in zip(comps, exps, mults))


def generated_exps(comps, xs):
    """Exponents of the smallest product subgroup containing xs."""
    return tuple(
        min([k] + [valuation(x[j], p, k) for x in xs]) for j, (p, k) in enumerate(comps)
    )


def add(comps, x, y):
    return tuple((a + b) % q for a, b, q in zip(x, y, orders(comps)))


def neg(comps, x):
    return tuple((-a) % q for a, q in zip(x, orders(comps)))


def scale(comps, mults, x):
    return tuple((m * a) % q for m, a, q in zip(mults, x, orders(comps)))


def convolve(comps, mu: dict, nu: dict) -> dict:
    out: dict = {}
    for x, mx in mu.items():
        for y, my in nu.items():
            z = add(comps, x, y)
            out[z] = out.get(z, 0) + mx * my
    return out


def shift(comps, mu: dict, x) -> dict:
    return {add(comps, s, x): m for s, m in mu.items()}


def uniform(points) -> dict:
    w = Fraction(1, len(points))
    return {x: w for x in points}


def dist_obj(mu: dict) -> list:
    return [{"x": list(x), "num": m.numerator, "den": m.denominator} for x, m in sorted(mu.items())]


def dist_from_obj(obj) -> dict:
    """Read a mass list; raises ValueError on anything but a probability."""
    mu = {}
    for entry in obj:
        x, m = tuple(entry["x"]), Fraction(entry["num"], entry["den"])
        if m <= 0 or x in mu:
            raise ValueError(f"bad mass entry {entry!r}")
        mu[x] = m
    if sum(mu.values()) != 1:
        raise ValueError("total mass is not one")
    return mu


def instance_obj(comps, mu1: dict, mu2: dict, mults) -> dict:
    return {
        "spec": spec_obj(comps),
        "mu1": dist_obj(mu1),
        "mu2": dist_obj(mu2),
        "alpha": [m % q for m, q in zip(mults, orders(comps))],
    }


def construct(comps, exps, mults, rho: dict, x2):
    """The sufficiency construction: lambda = rho * Haar((I + alpha)(G)),
    mu1 = lambda shifted by -alpha(x2), mu2 = lambda shifted by x2."""
    one_plus = tuple(1 + m for m in mults)
    lam = convolve(comps, rho, uniform(subgroup_elements(comps, image_exps(comps, one_plus, exps))))
    x1 = neg(comps, scale(comps, mults, x2))
    return lam, shift(comps, lam, x1), shift(comps, lam, x2)


def min_squared_modulus(comps, mu: dict) -> float:
    """Smallest |character sum|**2 over the dual group, in floating point."""
    qs = orders(comps)
    n = size(comps)
    weights = [n // q for q in qs]
    step = 2j * cmath.pi / n
    worst = float("inf")
    for y in elements(comps):
        total = 0j
        for x, m in mu.items():
            t = sum(a * b * w for a, b, w in zip(x, y, weights)) % n
            total += float(m) * cmath.exp(step * t)
        worst = min(worst, abs(total) ** 2)
    return worst


def count_distributions(comps, denominator: int) -> int:
    n = size(comps)
    return comb(denominator + n - 1, n - 1)
