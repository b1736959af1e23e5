"""Independent brute-force oracles used to freeze and cross-check expectations.

Everything here works from raw component orders with plain modular
arithmetic and floating point, deliberately bypassing the library's own
subgroup/annihilator/character machinery.
"""

import cmath
import itertools
from fractions import Fraction


def all_elements(orders):
    return list(itertools.product(*(range(q) for q in orders)))


def raw_add(orders, x, y):
    return tuple((a + b) % q for a, b, q in zip(x, y, orders))


def raw_neg(orders, x):
    return tuple((-a) % q for a, q in zip(x, orders))


def raw_pair_exponent(orders, x, y):
    n = 1
    for q in orders:
        n *= q
    t = 0
    for a, b, q in zip(x, y, orders):
        t += a * b * (n // q)
    return t % n


def brute_closure(orders, xs):
    """Closure of xs under addition and negation, by breadth-first search."""
    zero = (0,) * len(orders)
    seen = {zero}
    frontier = [zero]
    gens = [tuple(x) for x in xs] + [raw_neg(orders, x) for x in xs]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = raw_add(orders, cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def brute_annihilator(orders, members):
    """All dual elements pairing trivially with every member."""
    return {
        y
        for y in all_elements(orders)
        if all(raw_pair_exponent(orders, x, y) == 0 for x in members)
    }


def char_value_complex(orders, pmf, y):
    """Floating-point characteristic value of a pmf dict at y."""
    n = 1
    for q in orders:
        n *= q
    total = 0j
    for x, mass in pmf.items():
        t = raw_pair_exponent(orders, x, y)
        total += float(mass) * cmath.exp(2j * cmath.pi * t / n)
    return total


def brute_joint(orders, pmf1, pmf2, multipliers):
    """Joint pmf of (x1 + x2, x1 + alpha(x2)) as a plain dict."""
    joint = {}
    for x1, m1 in pmf1.items():
        for x2, m2 in pmf2.items():
            ax2 = tuple((m * c) % q for m, c, q in zip(multipliers, x2, orders))
            key = (raw_add(orders, x1, x2), raw_add(orders, x1, ax2))
            joint[key] = joint.get(key, Fraction(0)) + m1 * m2
    return joint


def brute_symmetric(orders, pmf1, pmf2, multipliers):
    """Symmetry of the conditional distribution, from two full joints."""
    plus = brute_joint(orders, pmf1, pmf2, multipliers)
    minus = {
        (l1, raw_neg(orders, l2)): mass for (l1, l2), mass in plus.items()
    }
    return plus == minus


def brute_unit_modulus_points(orders, pmf):
    """Dual points where the pairing is constant on the support (|char| = 1)."""
    support = list(pmf)
    base = support[0]
    out = set()
    for y in all_elements(orders):
        t0 = raw_pair_exponent(orders, base, y)
        if all(raw_pair_exponent(orders, x, y) == t0 for x in support):
            out.add(y)
    return out


def raw_apply(orders, multipliers, x):
    return tuple((m * c) % q for m, c, q in zip(multipliers, x, orders))


def brute_equation_violation(orders, f, g, multipliers):
    """First (u, v) with f(u+v) g(u+beta v) != f(u-v) g(u-beta v), or None.

    A plain double loop over lexicographic tuples, v outer and u inner;
    v = 0 and every v with -v < v are skipped, since (u, -v) states the
    same identity as (u, v).  Products are memoized by value pair only.
    """
    elements = all_elements(orders)
    products = {}

    def product(a, b):
        if (a, b) not in products:
            products[(a, b)] = a * b
        return products[(a, b)]

    for v in elements:
        nv = raw_neg(orders, v)
        if nv <= v:
            continue
        bv = raw_apply(orders, multipliers, v)
        nbv = raw_neg(orders, bv)
        for u in elements:
            lhs = product(f(raw_add(orders, u, v)), g(raw_add(orders, u, bv)))
            rhs = product(f(raw_add(orders, u, nv)), g(raw_add(orders, u, nbv)))
            if lhs != rhs:
                return (u, v)
    return None


def brute_canonical_shift(orders, pmf, members):
    """Smallest (sorted shifted mass list, x) over every x whose shift of pmf
    by -x lands inside members, or None when no x does."""
    best = None
    for x in all_elements(orders):
        nx = raw_neg(orders, x)
        shifted = sorted((raw_add(orders, s, nx), m) for s, m in pmf.items())
        if all(y in members for y, _ in shifted):
            key = (shifted, x)
            if best is None or key < best:
                best = key
    return best
