import json
from fractions import Fraction

import pytest

from heyde import (
    HeydeInstance,
    classify_corollary,
    decompose,
    degenerate,
    from_pmf,
    haar,
    make_endo,
    shift,
    validate_spec,
)
from heyde.groups import Subgroup
from heyde import serialize

Z9 = validate_spec([(3, 2)])
Z9xZ5 = validate_spec([(3, 2), (5, 1)])


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
