import dataclasses
import json
import random
from fractions import Fraction

import pytest

from heyde import (
    HeydeInstance,
    SweepConfig,
    classify_corollary,
    decompose,
    degenerate,
    from_pmf,
    haar,
    make_endo,
    shift,
    validate_spec,
)
from heyde.distributions import Distribution
from heyde.groups import Subgroup
from heyde import serialize

import oracles
from limits import time_limit

Z9 = validate_spec([(3, 2)])
Z9xZ5 = validate_spec([(3, 2), (5, 1)])
Z27xZ5 = validate_spec([(3, 3), (5, 1)])


def roundtrip_instance(inst):
    return serialize.instance_from_obj(json.loads(serialize.dumps_canonical(serialize.instance_to_obj(inst))))


def test_spec_roundtrip_bit_exact():
    for raw in ([(3, 2)], [(3, 2), (5, 1)], [(3, 3, "padic")], [(5, 2, "quasicyclic")]):
        spec = validate_spec(raw)
        obj = serialize.spec_to_obj(spec)
        assert serialize.spec_from_obj(json.loads(json.dumps(obj))) == spec


def test_distribution_roundtrip_bit_exact():
    mu = from_pmf(Z9xZ5, {(1, 2): Fraction(1, 3), (4, 0): Fraction(2, 3)})
    obj = serialize.distribution_to_obj(mu)
    assert serialize.distribution_from_obj(Z9xZ5, json.loads(json.dumps(obj))) == mu


def test_instance_roundtrip():
    inst = HeydeInstance(
        Z9,
        shift(haar(Subgroup(Z9, (1,))), (1,)),
        degenerate(Z9, (0,)),
        make_endo(Z9, [2]),
    )
    assert roundtrip_instance(inst) == inst


def test_reader_rejects_bad_mass():
    base = {"x": [0], "num": 1, "den": 2}
    with pytest.raises(ValueError, match="total mass"):
        serialize.distribution_from_obj(Z9, [base])
    with pytest.raises(ValueError, match="positive"):
        serialize.distribution_from_obj(
            Z9, [{"x": [0], "num": -1, "den": 2}, {"x": [1], "num": 3, "den": 2}]
        )
    with pytest.raises(ValueError, match="duplicate"):
        serialize.distribution_from_obj(
            Z9, [{"x": [0], "num": 1, "den": 2}, {"x": [0], "num": 1, "den": 2}]
        )
    with pytest.raises(ValueError, match="num/den"):
        serialize.distribution_from_obj(Z9, [{"x": [0], "num": 1.0, "den": 1}])


def test_reader_rejects_bad_spec():
    with pytest.raises(ValueError, match="contains 2-torsion"):
        serialize.spec_from_obj({"components": [{"p": 2, "k": 1, "kind": "finite"}]})
    with pytest.raises(ValueError, match="components"):
        serialize.spec_from_obj({})


def test_instance_reader_requires_fields():
    with pytest.raises(ValueError, match="missing"):
        serialize.instance_from_obj({"spec": serialize.spec_to_obj(Z9)})


def test_canonical_dumps_is_stable_and_sorted():
    obj = {"b": 1, "a": [3, 2, 1]}
    first = serialize.dumps_canonical(obj)
    second = serialize.dumps_canonical({"a": [3, 2, 1], "b": 1})
    assert first == second == '{"a":[3,2,1],"b":1}\n'


def test_decomposition_report_serializes():
    mu = from_pmf(Z9, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    inst = HeydeInstance(Z9, mu, mu, make_endo(Z9, [8]))
    dec = decompose(inst)
    report = classify_corollary(inst, dec)
    obj = serialize.decomposition_to_obj(dec, report)
    text = serialize.dumps_canonical(obj)
    parsed = json.loads(text)
    assert parsed["all_flags_true"] is True
    assert parsed["subgroup"] == [0]
    assert {c["name"] for c in parsed["corollaries"]} == {
        "haar_when_kernel_trivial",
        "support_in_kernel_when_nonvanishing",
        "truncated_unit_digit",
    }
    # every mass is an integer pair, never a float
    for entry in parsed["lambda"]:
        assert isinstance(entry["num"], int) and isinstance(entry["den"], int)


# -- the fused reader against the three-pass reference ---------------------------

READER_SPECS = {"Z9": Z9, "Z9xZ5": Z9xZ5, "Z27xZ5": Z27xZ5}
# 1.0 and True compare and hash equal to 1; no writer emits them
BAD_COORDINATES = (1.0, 0.0, True, False, "1", None, [1], [], {"c": 1})


def _read(reader, spec, obj):
    """What the reader returns, or the text of the ValueError it raises."""
    try:
        return reader(spec, obj)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _mass_list(rng, spec):
    """A mass list as distribution_to_obj writes it: 1 to 12 points in
    element order, each num / den in lowest terms, masses that sum to one."""
    points = sorted(rng.sample(oracles.element_list(spec), rng.randint(1, min(12, spec.size))))
    weights = [rng.randint(1, 6) for _ in points]
    total = sum(weights)
    entries = []
    for x, w in zip(points, weights):
        m = Fraction(w, total)
        entries.append({"x": list(x), "num": m.numerator, "den": m.denominator})
    return entries


def _reordered_or_scaled(rng, entries):
    """Copies of entries with the same masses that no writer emits: the
    entries shuffled out of element order, and one num / den scaled by 2
    or 3."""
    if len(entries) > 1:
        shuffled = list(entries)
        while shuffled == entries:
            rng.shuffle(shuffled)
        yield shuffled
    i = rng.randrange(len(entries))
    k = rng.choice((2, 3))
    entry = entries[i]
    yield [*entries[:i], {**entry, "num": entry["num"] * k, "den": entry["den"] * k}, *entries[i + 1:]]


def _ill_formed(rng, spec, entries):
    """Copies of entries with one defect each."""
    i = rng.randrange(len(entries))
    entry = entries[i]
    j = rng.randrange(len(spec.orders))
    q = spec.orders[j]

    def put(new):
        return [*entries[:i], new, *entries[i + 1:]]

    def coordinate(c):
        x = list(entry["x"])
        x[j] = c
        return put({**entry, "x": x})

    for c in (*BAD_COORDINATES, -1, -q, q, q + entry["x"][j], 10**30):
        yield coordinate(c)
    yield put({**entry, "x": entry["x"] + [0]})
    yield put({**entry, "x": entry["x"][:-1]})
    yield put({**entry, "x": tuple(entry["x"])})
    yield put({**entry, "x": [entry["x"]]})
    yield put({**entry, "x": None})
    for key in ("x", "num", "den"):
        yield put({k: v for k, v in entry.items() if k != key})
    yield put({**entry, "extra": 1})
    yield put({"den": entry["den"], "y": [0], "x": entry["x"], "num": entry["num"]})
    yield put(list(entry.values()))
    yield put("x")
    other = entries[(i + 1) % len(entries)]
    yield [*entries, dict(other)] if len(entries) == 1 else put({**entry, "x": list(other["x"])})
    for num in (0, -entry["num"], float(entry["num"]), True, "1", None):
        yield put({**entry, "num": num})
    for den in (0, -entry["den"], float(entry["den"]), True, "2", None):
        yield put({**entry, "den": den})
    yield put({**entry, "num": entry["num"] + 1})
    yield put({**entry, "den": entry["den"] * 2})
    yield entries[:i] + entries[i + 1:]
    yield tuple(entries)
    yield {"entries": entries}


@pytest.mark.parametrize("name", READER_SPECS)
def test_the_fused_reader_agrees_with_the_three_pass_reader(name):
    """Same Distribution or the same ValueError text, on well-formed and
    ill-formed mass lists alike; a list in another order or with a mass
    not in lowest terms is refused, naming the entry."""
    spec = READER_SPECS[name]
    rng = random.Random(f"reader:{name}")
    refused = 0
    for _ in range(40):
        entries = _mass_list(rng, spec)
        expected = oracles.reference_distribution_from_obj(spec, entries)
        assert isinstance(expected, Distribution)
        assert _read(serialize.distribution_from_obj, spec, entries) == expected
        assert serialize.distribution_to_obj(expected) == entries
        for same in _reordered_or_scaled(rng, entries):
            refusal = _read(serialize.distribution_from_obj, spec, same)
            assert refusal == _read(oracles.reference_distribution_from_obj, spec, same)
            assert any(refusal.startswith(f"ValueError: mass entry {entry!r} ") for entry in same), refusal
        for bad in _ill_formed(rng, spec, entries):
            expected = _read(oracles.reference_distribution_from_obj, spec, bad)
            assert _read(serialize.distribution_from_obj, spec, bad) == expected, bad
            refused += isinstance(expected, str)
    assert refused > 40 * 40


def test_the_writer_agrees_with_the_fraction_writer():
    """One gcd per point reduces each mass as Fraction does."""
    mu = Distribution(Z9, 6, ((0, 2), (1, 3), (2, 1)))
    assert serialize.distribution_to_obj(mu) == [
        {"x": [0], "num": 1, "den": 3},
        {"x": [1], "num": 1, "den": 2},
        {"x": [2], "num": 1, "den": 6},
    ]
    rng = random.Random("writer")
    for spec in READER_SPECS.values():
        for _ in range(20):
            mu = serialize.distribution_from_obj(spec, _mass_list(rng, spec))
            obj = serialize.distribution_to_obj(mu)
            reference = oracles.reference_distribution_to_obj(mu)
            assert serialize.dumps_canonical(obj) == serialize.dumps_canonical(reference)
            assert serialize.distribution_from_obj(spec, obj) == mu


def test_a_5005_point_margin_is_written_and_read_back_within_a_second():
    spec = validate_spec([(3, 1), (5, 1), (7, 1), (11, 1), (13, 1)])
    codes = range(0, spec.size, 3)
    total = sum(1 + r % 4 for r in codes)
    mu = from_pmf(spec, {spec.element(r): Fraction(1 + r % 4, total) for r in codes})
    with time_limit(1):
        text = serialize.dumps_canonical(serialize.distribution_to_obj(mu))
        back = serialize.distribution_from_obj(spec, json.loads(text))
    assert back == mu and len(mu.points) == 5005


# -- sweep configs -----------------------------------------------------------------

SWEEP_SPECS = [{"components": [{"p": 3, "k": 2}]}]
SWEEP_INT_KEYS = ("denominator", "max_denominator", "budget", "seed")


def test_a_sweep_config_of_specs_alone_reads_to_the_dataclass_defaults():
    config = serialize.sweep_config_from_obj({"specs": SWEEP_SPECS})
    assert config == SweepConfig(specs=(Z9,))
    defaults = {f.name: f.default for f in dataclasses.fields(SweepConfig) if f.name != "specs"}
    assert {name: getattr(config, name) for name in defaults} == defaults


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("mode", "exhaustive", "exhaustive"),
        ("denominator", 3, 3),
        ("max_denominator", 5, 5),
        ("budget", 7, 7),
        ("seed", 11, 11),
        ("automorphisms", [[2], [4]], ((2,), (4,))),
        ("automorphisms", "all", None),
    ],
)
def test_each_sweep_config_key_overrides_its_default(key, value, expected):
    config = serialize.sweep_config_from_obj({"specs": SWEEP_SPECS, key: value})
    assert getattr(config, key) == expected
    assert config == dataclasses.replace(SweepConfig(specs=(Z9,)), **{key: expected})


@pytest.mark.parametrize("key", SWEEP_INT_KEYS)
@pytest.mark.parametrize("value", [True, False, "3", 3.0], ids=["true", "false", "string", "float"])
def test_a_sweep_config_refuses_a_non_integer_in_an_integer_key(key, value):
    with pytest.raises(ValueError) as refused:
        serialize.sweep_config_from_obj({"specs": SWEEP_SPECS, key: value})
    assert str(refused.value) == f"{key} must be an integer, got {value!r}"
