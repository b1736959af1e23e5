"""Endomorphisms of the model groups and truncated p-adic units.

The component orders are pairwise coprime, so the group is Z(N) on CRT
codes, and every endomorphism is multiplication by one residue mod N:
Endomorphism.code.  Composition, sums, negation and inverses are that
residue's arithmetic mod N, and kernels and images are subgroups read off
gcd(code, N).  The multiplier vector (code mod each component order) is
the form of files, reports and labels; make_endo builds from it.  Under
the fixed self-duality pairing the adjoint has the same multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .groups import Element, GroupSpec, Subgroup, subgroup_of_index


@dataclass(frozen=True)
class Endomorphism:
    """r -> code * r on CRT codes; code is kept in [0, N)."""

    spec: GroupSpec
    code: int

    @cached_property
    def multipliers(self) -> tuple[int, ...]:
        """The multiplier on each component, code mod its order."""
        return tuple(self.code % q for q in self.spec.orders)

    def apply(self, x: Element) -> Element:
        return tuple(self.code * c % q for c, q in zip(x, self.spec.orders))

    def is_automorphism(self) -> bool:
        return gcd(self.code, self.spec.exponent) == 1

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        self._same_spec(other)
        return Endomorphism(self.spec, self.code * other.code % self.spec.exponent)

    def add(self, other: "Endomorphism") -> "Endomorphism":
        self._same_spec(other)
        return Endomorphism(self.spec, (self.code + other.code) % self.spec.exponent)

    def neg(self) -> "Endomorphism":
        return Endomorphism(self.spec, -self.code % self.spec.exponent)

    def invert(self) -> "Endomorphism":
        if not self.is_automorphism():
            raise ValueError("not invertible")
        return Endomorphism(self.spec, pow(self.code, -1, self.spec.exponent))

    def adjoint(self) -> "Endomorphism":
        # Under the fixed self-duality the adjoint keeps the multiplier;
        # the pairing identity is checked exhaustively in the tests.
        return self

    def kernel(self) -> Subgroup:
        # r -> m * r on Z(N) kills the multiples of N / gcd(m, N)
        n = self.spec.exponent
        return subgroup_of_index(self.spec, n // gcd(self.code, n))

    def image(self) -> Subgroup:
        return subgroup_of_index(self.spec, self.code)

    def image_of(self, sub: Subgroup) -> Subgroup:
        """Image of a subgroup: m * dZ(N) = gcd(m * d, N)Z(N)."""
        if sub.spec != self.spec:
            raise ValueError("spec mismatch")
        return subgroup_of_index(self.spec, self.code * sub.index)

    def _same_spec(self, other: "Endomorphism") -> None:
        if self.spec != other.spec:
            raise ValueError("spec mismatch")


def make_endo(spec: GroupSpec, multipliers) -> Endomorphism:
    """The endomorphism with the given multiplier on each component."""
    multipliers = tuple(multipliers)
    if len(multipliers) != len(spec.components):
        raise ValueError("multiplier vector has wrong arity")
    return Endomorphism(spec, spec.crt(multipliers))


def identity(spec: GroupSpec) -> Endomorphism:
    return Endomorphism(spec, 1)


def minus_identity(spec: GroupSpec) -> Endomorphism:
    return Endomorphism(spec, spec.exponent - 1)


def kappa_of(beta: Endomorphism) -> Endomorphism:
    """-4 * beta * (I - beta)**-2; requires I - beta invertible."""
    inv = identity(beta.spec).add(beta.neg()).invert().code
    return Endomorphism(beta.spec, -4 * beta.code * inv * inv % beta.spec.exponent)


@dataclass(frozen=True)
class PAdicUnit:
    """A unit of the p-adic integers truncated to finitely many digits."""

    p: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if not self.digits:
            raise ValueError("unit needs at least one digit")
        if any(not 0 <= d < self.p for d in self.digits):
            raise ValueError("digits must lie in [0, p)")
        if self.digits[0] == 0:
            raise ValueError("not a unit: leading digit is zero")

    @property
    def level(self) -> int:
        return len(self.digits)

    def truncation(self, n: int) -> int:
        """The partial digit sum c0 + c1*p + ... + c_{n-1}*p**(n-1)."""
        if n < 1 or n > self.level:
            raise ValueError("truncation level exceeded")
        total = 0
        for i in range(n - 1, -1, -1):
            total = total * self.p + self.digits[i]
        return total
