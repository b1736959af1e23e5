"""Finite abelian groups of odd order as products of cyclic p-components.

Every group handled by the package is a direct product of cyclic groups of
pairwise distinct odd prime power orders, and the character group is
identified with the group itself through the standard product pairing, so
dual elements share the element representation.  The component orders are
pairwise coprime, so the group is cyclic: GroupSpec.crt encodes a
coordinate tuple (one residue per component) as its code in Z(N), and the
code is the one form the package stores.  GroupSpec.element holds the
decode rule, x_j = code mod q_j, applied where a file, report or message
needs the tuple.  A subgroup of Z(N) is dZ(N), the multiples of its index
d, a divisor of N; Subgroup owns that arithmetic (order, annihilator,
intersection, generation) on codes.  Its exponent vector, one exponent per
component, is its file and label form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from math import gcd, lcm, prod

Element = tuple[int, ...]


class ComponentKind(str, Enum):
    """What the cyclic component of order p**k stands for."""

    FINITE = "finite"
    PADIC = "padic"  # finite truncation of the p-adic integers
    QUASICYCLIC = "quasicyclic"  # finite layer of the p-quasicyclic group


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Component:
    p: int
    k: int
    kind: ComponentKind = ComponentKind.FINITE

    @property
    def order(self) -> int:
        return self.p**self.k


@dataclass(frozen=True)
class GroupSpec:
    """A product of cyclic components with pairwise distinct odd primes."""

    components: tuple[Component, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("group must have at least one component")
        primes = []
        for comp in self.components:
            if comp.p == 2:
                raise ValueError("contains 2-torsion")
            if comp.k <= 0:  # before the trial division, which a large p makes slow
                raise ValueError("component exponent must be positive")
            if not is_odd_prime(comp.p):
                raise ValueError(f"{comp.p} is not an odd prime")
            primes.append(comp.p)
        if len(set(primes)) != len(primes):
            raise ValueError("primes must be pairwise distinct")

    @cached_property
    def orders(self) -> tuple[int, ...]:
        return tuple(c.order for c in self.components)

    @cached_property
    def exponent(self) -> int:
        return prod(self.orders)

    @property
    def size(self) -> int:
        return self.exponent

    @cached_property
    def _subgroups(self) -> dict:
        # index -> its Subgroup, so each one's codes are computed once
        return {}

    @cached_property
    def _pair_weights(self) -> tuple[int, ...]:
        n = self.exponent
        return tuple(n // q for q in self.orders)

    def is_element(self, x) -> bool:
        return (
            isinstance(x, tuple)
            and len(x) == len(self.components)
            and all(isinstance(c, int) and 0 <= c < q for c, q in zip(x, self.orders))
        )

    def require_element(self, x) -> Element:
        if not self.is_element(x):
            raise ValueError(f"{x!r} is not a reduced element of {self.describe()}")
        return x

    def reduce(self, x) -> Element:
        if len(x) != len(self.components):
            raise ValueError(f"{x!r} has wrong arity for {self.describe()}")
        return tuple(int(c) % q for c, q in zip(x, self.orders))

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % q for a, b, q in zip(x, y, self.orders))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % q for a, q in zip(x, self.orders))

    def sub(self, x: Element, y: Element) -> Element:
        return tuple((a - b) % q for a, b, q in zip(x, y, self.orders))

    def elements(self):
        """All elements in lexicographic order of coordinate tuples."""
        return itertools.product(*(range(q) for q in self.orders))

    # -- CRT encoding ------------------------------------------------------
    # The component orders are pairwise coprime, so by the Chinese remainder
    # theorem x -> crt(x) is an isomorphism onto Z(N): crt(x + y) is
    # crt(x) + crt(y) mod N, and the endomorphism with multipliers m acts as
    # multiplication by crt(m).  Distributions and dual tables are stored on
    # these codes; coordinate tuples, decoded by element, are the form of
    # files, reports and the public API.

    @cached_property
    def _crt_basis(self) -> tuple[int, ...]:
        # e_j = 1 mod q_j and e_j = 0 mod every other component order
        n = self.exponent
        return tuple((n // q) * pow(n // q, -1, q) for q in self.orders)

    def crt(self, residues) -> int:
        """The r in Z(N) with r = residues[j] mod the j-th component order."""
        return sum(c * e for c, e in zip(residues, self._crt_basis)) % self.exponent

    def element(self, code: int) -> Element:
        """The x with crt(x) == code: crt(x) = x_j mod q_j, so x_j is code mod q_j."""
        return tuple(code % q for q in self.orders)

    def reduced_code(self, x) -> int | None:
        """crt(x) when the list or tuple x holds one int in range(q_j) per
        component, else None.  The coordinate test and the CRT sum are one
        pass; a bool coordinate gives None, though True == 1."""
        orders = self.orders
        if len(x) != len(orders):
            return None
        basis = self._crt_basis
        code = 0
        j = 0
        for c in x:
            if type(c) is not int or not 0 <= c < orders[j]:
                return None
            code += c * basis[j]
            j += 1
        return code % self.exponent

    def require_code(self, x) -> int:
        """crt(require_element(x)); what reduced_code refuses goes to
        require_element, for its error or for a tuple subclass."""
        code = self.reduced_code(x) if type(x) is tuple else None
        return self.crt(self.require_element(x)) if code is None else code

    def _codes_by_element(self, steps) -> tuple[int, ...]:
        """The codes of the x with each x_j in range(0, q_j, steps[j]), in
        element order (lexicographic in x), built one axis at a time with
        the last axis fastest: the code of x plus i on axis j is the code
        of x plus i * e_j."""
        n = self.exponent
        codes = [0]
        for e, q, step in zip(self._crt_basis, self.orders, steps):
            moves = [i * e % n for i in range(0, q, step)]
            codes = [(c + m) % n for c in codes for m in moves]
        return tuple(codes)

    @cached_property
    def crt_codes(self) -> tuple[int, ...]:
        """Every code, in element order."""
        return self._codes_by_element((1,) * len(self.orders))

    @cached_property
    def crt_rank(self) -> tuple[int, ...]:
        """Code -> its position in crt_codes, the rank of its element in
        lexicographic order: the one table of element order."""
        out = [0] * self.exponent
        for i, r in enumerate(self.crt_codes):
            out[r] = i
        return tuple(out)

    @cached_property
    def crt_pair_unit(self) -> int:
        """s with pair_exponent(x, y) = s * crt(x) * crt(y) mod N."""
        return sum(self._pair_weights) % self.exponent

    def pair_exponent(self, x: Element, y: Element) -> int:
        """t with (x, y) = zeta_N ** t for the fixed self-duality pairing."""
        t = 0
        for a, b, w in zip(x, y, self._pair_weights):
            t += a * b * w
        return t % self.exponent

    def describe(self) -> str:
        return " x ".join(f"Z({c.p}^{c.k})" if c.k > 1 else f"Z({c.p})" for c in self.components)


def validate_spec(raw) -> GroupSpec:
    """Normalize a component list into a GroupSpec.

    Accepts (p, k) / (p, k, kind) tuples, dicts with keys p, k, kind, or
    Component instances; kind defaults to "finite".  Equal component
    tuples read in turn give the same GroupSpec object.
    """
    components = []
    for entry in raw:
        if isinstance(entry, Component):
            components.append(entry)
            continue
        if isinstance(entry, dict):
            p, k = entry["p"], entry["k"]
            kind = entry.get("kind", ComponentKind.FINITE)
        else:
            if len(entry) == 2:
                (p, k), kind = entry, ComponentKind.FINITE
            elif len(entry) == 3:
                p, k, kind = entry
            else:
                raise ValueError(f"component entry {entry!r} not understood")
        components.append(Component(int(p), int(k), ComponentKind(kind)))
    return _shared_spec(tuple(components))


@lru_cache(maxsize=16)
def _shared_spec(components: tuple[Component, ...]) -> GroupSpec:
    """The one GroupSpec of each recently read component tuple, so its CRT
    tables and subgroups are built once per group, not once per read."""
    return GroupSpec(components)


@dataclass(frozen=True)
class Subgroup:
    """The subgroup dZ(N) of the multiples of its index d, on CRT codes.

    exponents is its file form: component j contributes
    p_j**a_j * Z(p_j**k_j), and d is the product of the p_j**a_j.  Every
    other question is divisor arithmetic on d.
    """

    spec: GroupSpec
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) != len(self.spec.components):
            raise ValueError("exponent vector has wrong arity")
        for a, comp in zip(self.exponents, self.spec.components):
            if not 0 <= a <= comp.k:
                raise ValueError(f"subgroup exponent {a} out of range for p^{comp.k}")

    @cached_property
    def index(self) -> int:
        return prod(c.p**a for c, a in zip(self.spec.components, self.exponents))

    @cached_property
    def order(self) -> int:
        return self.spec.exponent // self.index

    @cached_property
    def codes(self) -> tuple[int, ...]:
        """The multiples of index, in element order: the x with x_j a
        multiple of p_j**a_j."""
        spec = self.spec
        return spec._codes_by_element([c.p**a for c, a in zip(spec.components, self.exponents)])

    @property
    def is_trivial(self) -> bool:
        return self.index == self.spec.exponent

    def annihilator(self) -> "Subgroup":
        """Characters trivial on this subgroup, as a subgroup of the dual: the
        pairing is a unit times the product of the codes, so (N / d)Z(N)."""
        return subgroup_of_index(self.spec, self.order)

    def intersect(self, other: "Subgroup") -> "Subgroup":
        if self.spec != other.spec:
            raise ValueError("spec mismatch")
        return subgroup_of_index(self.spec, lcm(self.index, other.index))


def subgroup_of_index(spec: GroupSpec, d: int) -> Subgroup:
    """dZ(N) for any int d: the subgroup of index gcd(d, N), built once per spec."""
    d = gcd(d, spec.exponent)  # so p**(k + 1) does not divide d
    sub = spec._subgroups.get(d)
    if sub is None:
        exps = (next(a for a in range(c.k + 1) if d % c.p ** (a + 1)) for c in spec.components)
        sub = spec._subgroups[d] = Subgroup(spec, tuple(exps))
    return sub


def generated_by_codes(spec: GroupSpec, codes) -> Subgroup:
    """Smallest subgroup containing every code (any ints): gcd(N, *codes)Z(N)."""
    return subgroup_of_index(spec, gcd(*codes))


def enumerate_subgroups(spec: GroupSpec) -> list[Subgroup]:
    """All subgroups, lexicographic in the exponent vectors."""
    ranges = [range(c.k + 1) for c in spec.components]
    return [Subgroup(spec, exps) for exps in itertools.product(*ranges)]
