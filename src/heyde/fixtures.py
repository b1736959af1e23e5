"""Construction of symmetric instances and deterministic test distributions.

The sufficiency construction takes a subgroup G, an automorphism whose
restriction I - alpha is invertible on G, a seed distribution on G, and a
free shift x2: the common distribution is the seed convolved with the
uniform distribution on (I + alpha)(G), and the two margins are its shifts
by x1 = -alpha(x2) and x2.  Every instance built this way is conditionally
symmetric, which the constructor asserts.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from math import gcd

from .distributions import Distribution, _canonical, convolve, difference_subgroup, haar, shift
from .engine import HeydeInstance, is_conditionally_symmetric
from .errors import VerificationFailure
from .groups import Element, GroupSpec, Subgroup
from .morphisms import Endomorphism, identity
from .rng import DeterministicStream


@dataclass(frozen=True)
class ConstructedFixture:
    instance: HeydeInstance
    lam: Distribution
    shift1: Element
    shift2: Element
    declared_subgroup: Subgroup
    effective_subgroup: Subgroup  # generated by the centered support of lam


def construction_admissible(sub: Subgroup, alpha: Endomorphism) -> bool:
    """Whether I - alpha restricts to an automorphism of the subgroup."""
    one_minus = identity(alpha.spec).add(alpha.neg())
    return one_minus.image_of(sub) == sub


def construct_instance(
    sub: Subgroup, alpha: Endomorphism, rho: Distribution, x2: Element
) -> ConstructedFixture:
    """Build a conditionally symmetric pair from a subgroup-level seed."""
    spec = sub.spec
    if alpha.spec != spec or rho.spec != spec:
        raise ValueError("spec mismatch")
    if not alpha.is_automorphism():
        raise ValueError("alpha is not an automorphism")
    if not construction_admissible(sub, alpha):
        raise ValueError("construction hypothesis violated: I - alpha not invertible on G")
    if any(r % sub.index for r, _ in rho.points):
        raise ValueError("seed distribution must be supported in the subgroup")
    x2 = spec.reduce(x2)
    one_plus = identity(spec).add(alpha)
    lam = convolve(rho, haar(one_plus.image_of(sub)))
    x1 = spec.neg(alpha.apply(x2))
    instance = HeydeInstance(spec, shift(lam, x1), shift(lam, x2), alpha)
    if not is_conditionally_symmetric(instance):
        raise VerificationFailure("constructed instance is not conditionally symmetric")
    # An off-center seed can make the raw support generate more than the
    # subgroup the pair really lives on; the decomposition always recenters,
    # so the effective subgroup is generated by the support differences.
    return ConstructedFixture(instance, lam, x1, x2, sub, difference_subgroup(lam))


def enumerate_automorphisms(spec: GroupSpec) -> list[Endomorphism]:
    """All automorphisms, ordered by multiplier vectors."""
    return list(_automorphisms(spec))


def _automorphisms(spec: GroupSpec) -> Iterator[Endomorphism]:
    """enumerate_automorphisms one at a time, for a caller that may need
    only the first few: the units of crt_codes, which is in element order,
    so the multiplier vectors come in order."""
    n = spec.exponent
    return (Endomorphism(spec, c) for c in spec.crt_codes if gcd(c, n) == 1)


def enumerate_distributions(spec: GroupSpec, denominator: int):
    """Every pmf whose masses are multiples of 1/denominator, in lex order
    of the mass vectors over crt_codes.

    A mass vector is a composition of denominator into N parts, and stars
    and bars places N - 1 bars among denominator + N - 1 slots: part j is
    the number of stars between bar j - 1 and bar j.  combinations yields
    the bar positions in lex order, and each part grows with its bar when
    the bars before it are fixed, so the parts come in lex order too.
    """
    if denominator < 1:
        raise ValueError("denominator must be at least 1")
    codes = spec.crt_codes
    slots = denominator + len(codes) - 1
    for bars in itertools.combinations(range(slots), len(codes) - 1):
        yield _canonical(
            spec,
            denominator,
            ((r, b - a - 1) for r, a, b in zip(codes, (-1, *bars), (*bars, slots)) if b - a > 1),
        )


def _as_stream(seed) -> DeterministicStream:
    return seed if isinstance(seed, DeterministicStream) else DeterministicStream(seed)


def random_distribution(
    spec: GroupSpec,
    max_denominator: int,
    seed,
    support: Subgroup | None = None,
) -> Distribution:
    """Seed-deterministic pmf with masses in multiples of 1/d, d <= max_denominator.

    The codes are drawn in element order (distinct returns increasing
    indices into codes, which are in element order), so the Distribution is
    built as it stands, with d and the masses divided by their gcd.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    stream = _as_stream(seed)
    codes = support.codes if support is not None else spec.crt_codes
    d = stream.randint(1, max_denominator)
    size = stream.randint(1, min(len(codes), d))
    chosen = [codes[i] for i in stream.distinct(len(codes), size)]
    if size == 1:
        masses = [d]
    else:
        cuts = stream.distinct(d - 1, size - 1)
        bounds = [0] + [c + 1 for c in cuts] + [d]
        masses = [b - a for a, b in zip(bounds, bounds[1:])]
    common = gcd(d, *masses)
    if common > 1:
        d //= common
        masses = [a // common for a in masses]
    return Distribution(spec, d, tuple(zip(chosen, masses)))


def random_instance(
    spec: GroupSpec, max_denominator: int, seed, alpha: Endomorphism
) -> HeydeInstance:
    stream = _as_stream(seed)
    mu1 = random_distribution(spec, max_denominator, stream.derive("mu1"))
    mu2 = random_distribution(spec, max_denominator, stream.derive("mu2"))
    return HeydeInstance(spec, mu1, mu2, alpha)

