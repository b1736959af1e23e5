"""Endomorphisms of the model groups and truncated p-adic units.

Because each prime occurs in exactly one component, every endomorphism acts
componentwise as multiplication by a residue, so an endomorphism is just a
multiplier vector, and one multiplier on CRT codes (Endomorphism.code).
Under the fixed self-duality pairing the adjoint has the same multipliers,
and kernels and images are subgroups read off gcd(code, N).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .groups import Element, GroupSpec, Subgroup, subgroup_of_index


@dataclass(frozen=True)
class Endomorphism:
    spec: GroupSpec
    multipliers: tuple[int, ...]

    def __post_init__(self):
        if len(self.multipliers) != len(self.spec.components):
            raise ValueError("multiplier vector has wrong arity")
        object.__setattr__(
            self,
            "multipliers",
            tuple(m % q for m, q in zip(self.multipliers, self.spec.orders)),
        )

    def apply(self, x: Element) -> Element:
        return tuple((m * c) % q for m, c, q in zip(self.multipliers, x, self.spec.orders))

    @cached_property
    def code(self) -> int:
        """The CRT multiplier: on CRT codes this endomorphism is r -> code * r mod N."""
        return self.spec.crt(self.multipliers)

    @cached_property
    def _invertible(self) -> bool:
        return gcd(self.code, self.spec.exponent) == 1

    def is_automorphism(self) -> bool:
        # code is a unit mod N exactly when each multiplier is a unit mod its component
        return self._invertible

    def is_identity(self) -> bool:
        return all(m == 1 for m in self.multipliers)

    def is_minus_identity(self) -> bool:
        return all(m == q - 1 for m, q in zip(self.multipliers, self.spec.orders))

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        self._same_spec(other)
        return Endomorphism(self.spec, tuple(a * b for a, b in zip(self.multipliers, other.multipliers)))

    def add(self, other: "Endomorphism") -> "Endomorphism":
        self._same_spec(other)
        return Endomorphism(self.spec, tuple(a + b for a, b in zip(self.multipliers, other.multipliers)))

    def neg(self) -> "Endomorphism":
        return Endomorphism(self.spec, tuple(-m for m in self.multipliers))

    def invert(self) -> "Endomorphism":
        if not self.is_automorphism():
            raise ValueError("not invertible")
        return Endomorphism(
            self.spec, tuple(pow(m, -1, q) for m, q in zip(self.multipliers, self.spec.orders))
        )

    def adjoint(self) -> "Endomorphism":
        # Under the fixed self-duality the adjoint keeps the multiplier
        # vector; the pairing identity is checked exhaustively in the tests.
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
    return Endomorphism(spec, tuple(int(m) for m in multipliers))


def identity(spec: GroupSpec) -> Endomorphism:
    return Endomorphism(spec, (1,) * len(spec.components))


def minus_identity(spec: GroupSpec) -> Endomorphism:
    return Endomorphism(spec, (-1,) * len(spec.components))


def scalar_endo(spec: GroupSpec, n: int) -> Endomorphism:
    """Multiplication by n on every component."""
    return Endomorphism(spec, (n,) * len(spec.components))


def kappa_of(beta: Endomorphism) -> Endomorphism:
    """-4 * beta * (I - beta)**-2; requires I - beta invertible."""
    one_minus = identity(beta.spec).add(beta.neg())
    inv = one_minus.invert()
    return scalar_endo(beta.spec, -4).compose(beta).compose(inv).compose(inv)


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

    def to_endo(self, spec: GroupSpec) -> Endomorphism:
        """Multiplication by the truncated unit on a single p-component group."""
        if len(spec.components) != 1 or spec.components[0].p != self.p:
            raise ValueError(f"spec must be a single {self.p}-component group")
        k = spec.components[0].k
        return Endomorphism(spec, (self.truncation(k),))
