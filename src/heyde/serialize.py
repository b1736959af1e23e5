"""Canonical JSON encodings for every object that crosses the CLI boundary.

Encodings are byte-stable: keys are emitted in sorted order with compact
separators, probabilities are integer numerator/denominator pairs (never
floats), and mass lists are sorted by support point.  Readers validate
exactly what the writers guarantee and raise ValueError on anything else.

Mass lists are read and written on CRT codes.  The reader accepts a list
only as the writer emits it, sorted and reduced, and builds the
Distribution from its one pass, with no sort and no reduction.  It
encodes each support point in one pass over its coordinates
(GroupSpec.reduced_code: exact int type, range and the CRT sum
together); only a point that pass refuses goes through element_from_obj,
so every refusal keeps its message.  There is no element -> code table,
which would cost N entries per group.  The writer decodes each code by the
rule of GroupSpec.element, x_j = code mod q_j, with no table, and reduces
each mass a / D by one gcd, with no Fraction.
"""

from __future__ import annotations

import json
from dataclasses import fields
from math import gcd, lcm

from .engine import (
    CorollaryReport,
    HeydeDecomposition,
    HeydeInstance,
)
from .distributions import Distribution
from .groups import GroupSpec, Subgroup, validate_spec
from .lemmas import DifferenceLemmaReport, FixedPointLemmaReport
from .morphisms import Endomorphism, make_endo
from .sweep import SweepConfig, SweepReport

# The largest group order a file may describe.  spec_from_obj checks it
# before GroupSpec tests the primes or anything is built on N.
MAX_GROUP_SIZE = 10**6


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# -- group specs -----------------------------------------------------------


def spec_to_obj(spec: GroupSpec) -> dict:
    return {
        "components": [
            {"p": c.p, "k": c.k, "kind": c.kind.value} for c in spec.components
        ]
    }


def spec_from_obj(obj) -> GroupSpec:
    # validate_spec also takes the tuple forms of the Python API; a file
    # holds only what spec_to_obj writes.
    if not isinstance(obj, dict) or not isinstance(obj.get("components"), list):
        raise ValueError("spec object must have a 'components' list")
    for entry in obj["components"]:
        if not (isinstance(entry, dict) and _is_int(entry.get("p")) and _is_int(entry.get("k"))
                and isinstance(entry.get("kind", ""), str)):
            raise ValueError(f"spec component {entry!r} must be an object with integer p, k and a string kind")
    # p**k is never formed: the product at least triples per factor, so the
    # loop stops within 13 steps.  p < 3 and k < 1 are left to GroupSpec.
    size = 1
    for entry in obj["components"]:
        for _ in range(entry["k"] if entry["p"] >= 3 else 0):
            size *= entry["p"]
            if size > MAX_GROUP_SIZE:
                raise ValueError(f"group order exceeds the CLI cap {MAX_GROUP_SIZE}")
    return validate_spec(obj["components"])


# -- elements, subgroups, endomorphisms --------------------------------------


def element_to_obj(x) -> list[int]:
    return list(x)


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, a subclass of int; no writer emits them.
    return isinstance(value, int) and not isinstance(value, bool)


def int_from_obj(value, what: str) -> int:
    """A JSON integer; booleans, strings and floats are refused."""
    if not _is_int(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _int_tuple(obj, what: str) -> tuple[int, ...]:
    if not isinstance(obj, list) or not all(_is_int(c) for c in obj):
        raise ValueError(f"{what} must be a list of integers, got {obj!r}")
    return tuple(obj)


def element_from_obj(spec: GroupSpec, obj):
    # Writers emit reduced coordinates only, so [-8] or [11] on Z(9) is an error.
    return spec.require_element(_int_tuple(obj, "element"))


def element_code_from_obj(spec: GroupSpec, obj) -> int:
    """spec.crt(element_from_obj(spec, obj)), in one pass over a well-formed
    obj; anything else goes to element_from_obj, for its error."""
    code = spec.reduced_code(obj) if type(obj) is list else None
    return spec.crt(element_from_obj(spec, obj)) if code is None else code


def subgroup_to_obj(sub: Subgroup) -> list[int]:
    return list(sub.exponents)


def subgroup_from_obj(spec: GroupSpec, obj) -> Subgroup:
    return Subgroup(spec, _int_tuple(obj, "subgroup"))


def endo_to_obj(endo: Endomorphism) -> list[int]:
    return list(endo.multipliers)


def _reduced(spec: GroupSpec, vec: tuple[int, ...], what: str) -> tuple[int, ...]:
    # Writers emit reduced multipliers only, so [7] or [-3] on Z(5) is an error.
    if len(vec) == len(spec.orders) and not all(0 <= m < q for m, q in zip(vec, spec.orders)):
        raise ValueError(f"{what} {list(vec)} is not reduced for {spec.describe()}")
    return vec


def endo_from_obj(spec: GroupSpec, obj) -> Endomorphism:
    return make_endo(spec, _reduced(spec, _int_tuple(obj, "endomorphism"), "endomorphism"))


# -- distributions -----------------------------------------------------------


def distribution_to_obj(mu: Distribution) -> list[dict]:
    orders = mu.spec.orders
    den = mu.den
    out = []
    for r, a in mu.points:
        common = gcd(a, den)
        out.append({"x": [r % q for q in orders], "num": a // common, "den": den // common})
    return out


_MASS_KEYS = {"x", "num", "den"}


def distribution_from_obj(spec: GroupSpec, obj) -> Distribution:
    """The distribution of a mass list as distribution_to_obj writes it, in
    one pass: entries with exactly the keys x, num, den, in element order
    with no point repeated, each num / den positive and in lowest terms.
    The numerators are put over the lcm D of the dens, which is then the
    least common denominator: a prime power that exactly divides D exactly
    divides some den, and does not divide that entry's num * (D / den)."""
    if not isinstance(obj, list):
        raise ValueError("distribution must be a list of mass entries")
    rank = spec.crt_rank
    codes, masses = [], []
    prev = -1
    for entry in obj:
        if not isinstance(entry, dict) or entry.keys() != _MASS_KEYS:
            raise ValueError(f"mass entry {entry!r} must have exactly the keys x, num, den")
        code = element_code_from_obj(spec, entry["x"])
        if rank[code] <= prev:
            order = "duplicates the point before it" if rank[code] == prev else "is out of element order"
            raise ValueError(f"mass entry {entry!r} {order}")
        prev = rank[code]
        num, den = entry["num"], entry["den"]
        if not _is_int(num) or not _is_int(den) or den <= 0:
            raise ValueError(f"mass entry {entry!r} must use integer num/den with den > 0")
        if num <= 0:
            raise ValueError("masses must be strictly positive")
        if gcd(num, den) > 1:
            raise ValueError(f"mass entry {entry!r} is not in lowest terms")
        codes.append(code)
        masses.append((num, den))
    total = lcm(*(den for _, den in masses))
    # Distribution validation enforces total mass one.
    return Distribution(spec, total, tuple(zip(codes, (num * (total // den) for num, den in masses))))


# -- instances ----------------------------------------------------------------


def instance_to_obj(inst: HeydeInstance) -> dict:
    return {
        "spec": spec_to_obj(inst.spec),
        "mu1": distribution_to_obj(inst.mu1),
        "mu2": distribution_to_obj(inst.mu2),
        "alpha": endo_to_obj(inst.alpha),
    }


def instance_from_obj(obj) -> HeydeInstance:
    if not isinstance(obj, dict):
        raise ValueError("instance must be a JSON object")
    for key in ("spec", "mu1", "mu2", "alpha"):
        if key not in obj:
            raise ValueError(f"instance is missing the {key!r} field")
    spec = spec_from_obj(obj["spec"])
    return HeydeInstance(
        spec,
        distribution_from_obj(spec, obj["mu1"]),
        distribution_from_obj(spec, obj["mu2"]),
        endo_from_obj(spec, obj["alpha"]),
    )


# -- reports --------------------------------------------------------------------


def _field_dict(record) -> dict:
    """The fields of a report dataclass by name; json writes a tuple as a list.

    dataclasses.asdict gives the same output but deep-copies every value,
    at several times the cost.
    """
    return {f.name: getattr(record, f.name) for f in fields(record)}


def decomposition_to_obj(dec: HeydeDecomposition, corollaries: CorollaryReport) -> dict:
    return {
        "subgroup": subgroup_to_obj(dec.subgroup),
        "lambda": distribution_to_obj(dec.lam),
        "x1": element_to_obj(dec.shift1),
        "x2": element_to_obj(dec.shift2),
        "flags": _field_dict(dec.flags),
        "all_flags_true": dec.flags.all_true,
        "corollaries": [_field_dict(c) for c in corollaries.checks],
    }


def difference_report_to_obj(report: DifferenceLemmaReport) -> dict:
    return _field_dict(report)


def fixed_point_report_to_obj(report: FixedPointLemmaReport) -> dict:
    return _field_dict(report)


# -- sweeps -----------------------------------------------------------------------


def sweep_config_from_obj(obj) -> SweepConfig:
    if not isinstance(obj, dict) or not isinstance(obj.get("specs"), list):
        raise ValueError("sweep config must be an object with a 'specs' list")
    specs = tuple(spec_from_obj(s) for s in obj["specs"])
    # An absent key is left to SweepConfig's default.
    given = {"specs": specs}
    autos = obj.get("automorphisms")
    if isinstance(autos, list):
        autos = given["automorphisms"] = tuple(_int_tuple(vec, "automorphism") for vec in autos)
        for spec in specs:
            for vec in autos:
                _reduced(spec, vec, "automorphism")
    elif autos is not None and autos != "all":
        raise ValueError(f'automorphisms must be "all" or a list, got {autos!r}')
    if "mode" in obj:
        given["mode"] = obj["mode"]
    for key in ("denominator", "max_denominator", "budget", "seed"):
        if key in obj:
            given[key] = int_from_obj(obj[key], key)
    return SweepConfig(**given)


def sweep_report_to_obj(report: SweepReport) -> dict:
    return {**_field_dict(report), "violations": report.violations}
