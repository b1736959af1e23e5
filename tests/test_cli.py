import copy
import json

import pytest

from heyde import cli, engine, lemmas, serialize, validate_spec
from heyde.cli import main
from limits import TimeLimitExceeded, time_limit

Z5_SPEC = {"components": [{"p": 5, "k": 1, "kind": "finite"}]}
Z9_SPEC = {"components": [{"p": 3, "k": 2, "kind": "finite"}]}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def degenerate_instance(x1, x2, alpha):
    return {
        "spec": Z5_SPEC,
        "mu1": [{"x": [x1], "num": 1, "den": 1}],
        "mu2": [{"x": [x2], "num": 1, "den": 1}],
        "alpha": [alpha],
    }


def test_check_symmetric_instance(tmp_path, capsys):
    path = write(tmp_path, "inst.json", degenerate_instance(3, 1, 2))
    code = main(["check", "--input", path])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out) == {"symmetric": True, "heyde_equation": True, "agree": True}


def test_check_asymmetric_instance_is_not_an_error(tmp_path, capsys):
    path = write(tmp_path, "inst.json", degenerate_instance(1, 1, 2))
    code = main(["check", "--input", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out == {"symmetric": False, "heyde_equation": False, "agree": True}


def test_check_output_is_byte_stable(tmp_path, capsys):
    path = write(tmp_path, "inst.json", degenerate_instance(3, 1, 2))
    main(["check", "--input", path])
    first = capsys.readouterr().out
    main(["check", "--input", path])
    second = capsys.readouterr().out
    assert first == second


def test_decompose_constructed_fixture(tmp_path, capsys):
    construction = {
        "spec": Z9_SPEC,
        "subgroup": [0],
        "alpha": [2],
        "rho": [{"x": [0], "num": 1, "den": 1}],
        "x2": [4],
    }
    cpath = write(tmp_path, "construction.json", construction)
    ipath = str(tmp_path / "instance.json")
    code = main(["construct", "--input", cpath, "--output", ipath])
    assert code == 0
    capsys.readouterr()

    code = main(["decompose", "--input", ipath])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["symmetric"] is True
    dec = report["decomposition"]
    assert dec["all_flags_true"] is True
    assert all(dec["flags"].values())
    assert dec["subgroup"] == [1]


def test_decompose_asymmetric_reports_without_failure(tmp_path, capsys):
    path = write(tmp_path, "inst.json", degenerate_instance(1, 1, 2))
    code = main(["decompose", "--input", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report == {"symmetric": False, "decomposition": None}


def test_invalid_spec_exits_2(tmp_path, capsys):
    bad = degenerate_instance(3, 1, 2)
    bad["spec"] = {"components": [{"p": 2, "k": 1, "kind": "finite"}]}
    path = write(tmp_path, "inst.json", bad)
    code = main(["check", "--input", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "2-torsion" in out["error"]


def test_non_automorphism_exits_2(tmp_path, capsys):
    bad = {
        "spec": Z9_SPEC,
        "mu1": [{"x": [0], "num": 1, "den": 1}],
        "mu2": [{"x": [0], "num": 1, "den": 1}],
        "alpha": [3],
    }
    path = write(tmp_path, "inst.json", bad)
    code = main(["check", "--input", path])
    assert code == 2
    assert "automorphism" in json.loads(capsys.readouterr().out)["error"]


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code = main(["check", "--input", str(path)])
    assert code == 2
    assert "malformed JSON" in json.loads(capsys.readouterr().out)["error"]


def test_bad_mass_exits_2(tmp_path, capsys):
    bad = degenerate_instance(3, 1, 2)
    bad["mu1"] = [{"x": [3], "num": 1, "den": 2}]
    path = write(tmp_path, "inst.json", bad)
    code = main(["check", "--input", path])
    assert code == 2
    assert "total mass" in json.loads(capsys.readouterr().out)["error"]


def _exit_2_with(capsys, argv, fragment):
    code = main(argv)
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert fragment in out["error"]


def _refused_by_the_parser(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


def test_boolean_mass_entry_exits_2(tmp_path, capsys):
    # true would otherwise read as mass 1 at element 1
    for entry, fragment in (
        ({"x": [True], "num": True, "den": True}, "element"),
        ({"x": [1], "num": True, "den": 1}, "num/den"),
        ({"x": [1], "num": 1, "den": True}, "num/den"),
    ):
        bad = degenerate_instance(3, 1, 2)
        bad["mu1"] = [entry]
        path = write(tmp_path, "inst.json", bad)
        for command in ("check", "decompose", "verify-lemmas"):
            _exit_2_with(capsys, [command, "--input", path], fragment)


@pytest.mark.parametrize(
    "mu1, named, fragment",
    [
        ([{"x": [1], "num": 1, "den": 2, "w": 0}, {"x": [3], "num": 1, "den": 2}], 0, "exactly the keys"),
        ([{"x": [1], "num": 2, "den": 4}, {"x": [3], "num": 1, "den": 2}], 0, "lowest terms"),
        ([{"x": [3], "num": 1, "den": 2}, {"x": [1], "num": 1, "den": 2}], 1, "element order"),
        ([{"x": [1], "num": 1, "den": 2}, {"x": [1], "num": 1, "den": 2}], 1, "duplicates"),
    ],
    ids=["extra-key", "unreduced", "unsorted", "repeated"],
)
def test_a_mass_list_no_writer_emits_exits_2_naming_the_entry(tmp_path, capsys, mu1, named, fragment):
    # the same masses in canonical form are read as they always were
    bad = degenerate_instance(3, 1, 2)
    bad["mu1"] = mu1
    path = write(tmp_path, "inst.json", bad)
    for command in ("check", "decompose", "verify-lemmas"):
        _exit_2_with(capsys, [command, "--input", path], f"mass entry {mu1[named]!r} ")
        _exit_2_with(capsys, [command, "--input", path], fragment)
    good = degenerate_instance(3, 1, 2)
    good["mu1"] = [{"x": [1], "num": 1, "den": 2}, {"x": [3], "num": 1, "den": 2}]
    assert main(["check", "--input", write(tmp_path, "good.json", good)]) == 0
    capsys.readouterr()


def test_boolean_alpha_exits_2(tmp_path, capsys):
    # [true] would otherwise read as the identity
    bad = degenerate_instance(3, 1, 2)
    bad["alpha"] = [True]
    path = write(tmp_path, "inst.json", bad)
    _exit_2_with(capsys, ["check", "--input", path], "endomorphism")


def test_boolean_construction_fields_exit_2(tmp_path, capsys):
    base = {"spec": Z9_SPEC, "subgroup": [1], "alpha": [2], "x2": [4]}
    for key, value, fragment in (
        ("subgroup", [True], "subgroup"),
        ("alpha", [True], "endomorphism"),
        ("x2", [False], "element"),
    ):
        path = write(tmp_path, "construction.json", {**base, key: value})
        _exit_2_with(capsys, ["construct", "--input", path], fragment)


def test_unreduced_mass_point_exits_2(tmp_path, capsys):
    # out-of-range coordinates used to be reduced silently
    for x in ([-2], [5], [8]):
        bad = degenerate_instance(3, 1, 2)
        bad["mu1"] = [{"x": x, "num": 1, "den": 1}]
        path = write(tmp_path, "inst.json", bad)
        for command in ("check", "decompose", "verify-lemmas"):
            _exit_2_with(capsys, [command, "--input", path], "not a reduced element")


def test_unreduced_construction_x2_exits_2(tmp_path, capsys):
    base = {"spec": Z9_SPEC, "subgroup": [1], "alpha": [2]}
    for x2 in ([-8], [11], [9]):
        path = write(tmp_path, "construction.json", {**base, "x2": x2})
        _exit_2_with(capsys, ["construct", "--input", path], "not a reduced element")
    rho = [{"x": [12], "num": 1, "den": 1}]
    path = write(tmp_path, "construction.json", {**base, "x2": [4], "rho": rho})
    _exit_2_with(capsys, ["construct", "--input", path], "not a reduced element")


def test_boolean_sweep_automorphism_exits_2(tmp_path, capsys):
    config = {"specs": [Z5_SPEC], "automorphisms": [[True]], "budget": 1}
    path = write(tmp_path, "sweep.json", config)
    _exit_2_with(capsys, ["sweep", "--input", path], "automorphism")


def test_non_integer_sweep_fields_exit_2(tmp_path, capsys):
    # these fields went through int(), so true, "3" and 2.7 were accepted
    base = {"specs": [Z5_SPEC], "budget": 1}
    for key, value in (
        ("budget", True),
        ("seed", "3"),
        ("max_denominator", 2.7),
        ("denominator", True),
        ("seed", None),
    ):
        path = write(tmp_path, "sweep.json", {**base, key: value})
        _exit_2_with(capsys, ["sweep", "--input", path], f"{key} must be an integer")


def test_non_integer_construction_fields_exit_2(tmp_path, capsys):
    base = {"spec": Z9_SPEC, "subgroup": [1], "alpha": [2], "x2": [4]}
    for key, value in (("seed", True), ("seed", "7"), ("max_denominator", 8.0), ("max_denominator", False)):
        path = write(tmp_path, "construction.json", {**base, key: value})
        _exit_2_with(capsys, ["construct", "--input", path], f"{key} must be an integer")


@pytest.mark.parametrize(
    "component",
    [{"p": 3.9, "k": 2}, {"p": "3", "k": 2}, {"p": 3, "k": 2.0}, [3, 2], {"p": 3, "k": 2, "kind": 1}],
    ids=["float-p", "string-p", "float-k", "list-entry", "non-string-kind"],
)
def test_spec_component_is_an_object_with_integer_p_and_k(tmp_path, capsys, component):
    # spec_to_obj writes {"p": int, "k": int, "kind": str}; 3.9 read as Z(9) before
    inst = degenerate_instance(0, 0, 2)
    inst["spec"] = {"components": [component]}
    path = write(tmp_path, "inst.json", inst)
    _exit_2_with(capsys, ["check", "--input", path], "spec component")


@pytest.mark.parametrize(
    "command, obj, fragment",
    [
        ("check", {**degenerate_instance(0, 0, 2), "spec": {"components": 5}}, "'components' list"),
        ("sweep", {"specs": 5, "budget": 1}, "'specs' list"),
        ("sweep", {"specs": [Z5_SPEC], "automorphisms": 5, "budget": 1}, "automorphisms"),
    ],
    ids=["components", "specs", "automorphisms"],
)
def test_non_list_fields_exit_2(tmp_path, capsys, command, obj, fragment):
    # each raised TypeError, an uncaught traceback with exit status 1
    path = write(tmp_path, "input.json", obj)
    _exit_2_with(capsys, [command, "--input", path], fragment)


@pytest.mark.parametrize("flag", ["--seed", "--budget", "--denominator"])
def test_non_object_sweep_config_with_a_flag_exits_2(tmp_path, capsys, flag):
    # the flag once wrote its key into the config before the config was
    # checked; sweep settings now come from the file alone
    path = write(tmp_path, "sweep.json", [Z5_SPEC])
    _exit_2_with(capsys, ["sweep", "--input", path], "'specs' list")
    _refused_by_the_parser(capsys, ["sweep", "--input", path, flag, "2"])


def _input_on(command, spec):
    if command == "sweep":
        return {"specs": [spec], "budget": 1}
    if command == "construct":
        return {"spec": spec, "subgroup": [0], "alpha": [2]}
    return {**degenerate_instance(0, 0, 2), "spec": spec}


@pytest.mark.parametrize("command", ["check", "decompose", "construct", "sweep", "verify-lemmas"])
@pytest.mark.parametrize(
    "components",
    [[{"p": 5, "k": 10**20}], [{"p": 3, "k": 2000000}], [{"p": 100000000000031, "k": 1}],
     [{"p": 3, "k": 7}, {"p": 5, "k": 6}]],
    ids=["huge-k", "overflowing-k", "huge-p", "product"],
)
def test_spec_above_the_cap_exits_2_as_it_is_read(tmp_path, capsys, command, components):
    # the cap was checked after the spec was built: p**k hung on the first,
    # and the next two ended in OverflowError and MemoryError tracebacks
    path = write(tmp_path, "input.json", _input_on(command, {"components": components}))
    with time_limit(10):
        _exit_2_with(capsys, [command, "--input", path], "exceeds the CLI cap")


def test_spec_reader_cap_leaves_the_groupspec_messages():
    assert serialize.spec_from_obj({"components": [{"p": 3, "k": 12}]}).size == 3**12
    for k in (13, 10**20):
        with pytest.raises(ValueError, match="exceeds the CLI cap"):
            serialize.spec_from_obj({"components": [{"p": 3, "k": k}]})
    with time_limit(10):
        for component, message in (
            ({"p": 2, "k": 10**20}, "2-torsion"),
            ({"p": 1, "k": 10**20}, "not an odd prime"),
            ({"p": 3, "k": 0}, "exponent must be positive"),
            ({"p": 3, "k": -(10**20)}, "exponent must be positive"),
            ({"p": 2**89 - 1, "k": 0}, "exponent must be positive"),
        ):
            with pytest.raises(ValueError, match=message):
                serialize.spec_from_obj({"components": [component]})


def test_a_large_prime_with_exponent_0_exits_2(tmp_path, capsys):
    # the exponent is checked before the trial division of p, which ran
    # past this limit when k <= 0 skipped the cap
    path = write(tmp_path, "input.json", _input_on("check", {"components": [{"p": 2**89 - 1, "k": 0}]}))
    with time_limit(10):
        _exit_2_with(capsys, ["check", "--input", path], "exponent must be positive")


def test_random_sweep_budget_above_the_limit_exits_2(tmp_path, capsys):
    # a random sweep ran its budget with no cap, so 10**20 ran for ever
    config = {"specs": [Z5_SPEC], "mode": "random", "budget": 10**20}
    with time_limit(10):
        _exit_2_with(capsys, ["sweep", "--input", write(tmp_path, "sweep.json", config)], "above the limit")
        config = {"specs": [Z5_SPEC], "budget": 2 * 10**6 + 1}
        _exit_2_with(capsys, ["sweep", "--input", write(tmp_path, "sweep.json", config)], "above the limit")


@pytest.mark.parametrize("mode", ["random", "exhaustive"])
def test_negative_sweep_budget_exits_2(tmp_path, capsys, mode):
    # no writer emits a negative budget; it ran no instance and exited 0
    config = {"specs": [Z5_SPEC], "mode": mode, "budget": -1, "denominator": 1}
    path = write(tmp_path, "sweep.json", config)
    _exit_2_with(capsys, ["sweep", "--input", path], "budget must be non-negative")
    path = write(tmp_path, "sweep.json", {"specs": [Z5_SPEC], "budget": -5})
    _exit_2_with(capsys, ["sweep", "--input", path], "budget must be non-negative")


@pytest.mark.parametrize("mode", ["random", "exhaustive"])
def test_empty_specs_list_exits_2(tmp_path, capsys, mode):
    # an empty specs list ran no instance and exited 0 with an empty report
    config = {"specs": [], "mode": mode, "budget": 3, "denominator": 1}
    path = write(tmp_path, "sweep.json", config)
    _exit_2_with(capsys, ["sweep", "--input", path], "specs list must not be empty")


@pytest.mark.parametrize("mode", ["random", "exhaustive"])
def test_empty_automorphisms_list_exits_2(tmp_path, capsys, mode):
    # random mode divided by the empty list's length (ZeroDivisionError)
    config = {"specs": [Z5_SPEC], "mode": mode, "automorphisms": [], "budget": 3, "denominator": 1}
    path = write(tmp_path, "sweep.json", config)
    _exit_2_with(capsys, ["sweep", "--input", path], "must not be empty")


def test_sweep_refuses_a_non_automorphism_before_the_first_instance(tmp_path, capsys, monkeypatch):
    import heyde.sweep

    checked = []
    monkeypatch.setattr(heyde.sweep, "check_instance", lambda inst, report: checked.append(inst))
    # [3] is a unit on Z(5) but not on Z(9), the second spec
    config = {"specs": [Z5_SPEC, Z9_SPEC], "automorphisms": [[3]], "budget": 5}
    path = write(tmp_path, "sweep.json", config)
    _exit_2_with(capsys, ["sweep", "--input", path], "not an automorphism of Z(3^2)")
    assert checked == []


@pytest.mark.parametrize("value", [7, -3])
def test_unreduced_multipliers_exit_2(tmp_path, capsys, value):
    # writers emit reduced multipliers only; [7] and [-3] on Z(5) read as [2]
    inst = degenerate_instance(3, 1, value)
    _exit_2_with(capsys, ["check", "--input", write(tmp_path, "inst.json", inst)], "not reduced")
    construction = {"spec": Z5_SPEC, "subgroup": [0], "alpha": [value], "x2": [1]}
    path = write(tmp_path, "construction.json", construction)
    _exit_2_with(capsys, ["construct", "--input", path], "not reduced")
    config = {"specs": [Z5_SPEC], "automorphisms": [[value]], "budget": 1}
    _exit_2_with(capsys, ["sweep", "--input", write(tmp_path, "sweep.json", config)], "not reduced")


RANDOM_SWEEP = {
    "specs": [Z9_SPEC],
    "mode": "random",
    "budget": 20,
    "max_denominator": 8,
    "automorphisms": [[2], [4]],
    "seed": 3,
}
MUTANTS = ([], {}, None, True, "3", 2.5, -1, 0, 10**20)


def _field_paths(node, prefix=()):
    """The path of every field and list entry below the root, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


@pytest.mark.parametrize(
    "name, commands",
    [
        ("instance_degenerate_z5.json", ("check", "decompose", "verify-lemmas")),
        ("constructed_instance_z9.json", ("check", "decompose", "verify-lemmas")),
        ("construction_z9.json", ("construct",)),
        ("sweep_config_z3.json", ("sweep",)),
        ("random_sweep", ("sweep",)),
    ],
    ids=["instance_degenerate_z5", "constructed_instance_z9", "construction_z9", "sweep_config_z3", "random_sweep"],
)
def test_reader_mutations_exit_0_or_2(tmp_path, capsys, name, commands):
    # each field in turn takes each mutant value; a reader must refuse what
    # it cannot run (exit 2), never raise or hang
    original = RANDOM_SWEEP if name == "random_sweep" else json.loads((GOLDEN / name).read_text())
    failures = []
    for path in _field_paths(original):
        for value in MUTANTS:
            obj = copy.deepcopy(original)
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            input_path = write(tmp_path, "input.json", obj)
            for command in commands:
                try:
                    with time_limit(10):
                        code = main([command, "--input", input_path])
                except (Exception, TimeLimitExceeded) as exc:
                    code = repr(exc)
                capsys.readouterr()
                if code not in (0, 2):
                    failures.append((command, path, value, code))
    assert failures == []


def test_sweep_exhaustive_small(tmp_path, capsys):
    config = {
        "specs": [{"components": [{"p": 3, "k": 1, "kind": "finite"}]}],
        "mode": "exhaustive",
        "denominator": 2,
        "seed": 0,
    }
    path = write(tmp_path, "sweep.json", config)
    out_path = str(tmp_path / "report.json")
    code = main(["sweep", "--input", path, "--output", out_path])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["instances"] == 72  # 6 pmfs squared, both automorphisms
    assert report["disagreements"] == 0
    assert report["violations"] == 0
    assert json.loads(open(out_path).read()) == report


def test_exhaustive_sweep_above_the_cost_limit_exits_2(tmp_path, capsys, monkeypatch):
    # Z(9) x Z(5) at denominator 4: 24 x C(48, 4)**2 instances, refused
    # before a single margin is enumerated
    import heyde.sweep

    def enumerate_distributions(*args):
        raise AssertionError("enumerated an inadmissible sweep")

    monkeypatch.setattr(heyde.sweep, "enumerate_distributions", enumerate_distributions)
    spec = {"components": [{"p": 3, "k": 2}, {"p": 5, "k": 1}]}

    def argv(specs, denominator):
        config = {"specs": specs, "mode": "exhaustive", "denominator": denominator}
        return ["sweep", "--input", write(tmp_path, "sweep.json", config)]

    _exit_2_with(capsys, argv([spec], 4), "908,673,033,600 instances")
    _exit_2_with(capsys, argv([Z9_SPEC, spec], 4), "above the limit")
    _exit_2_with(capsys, argv([spec], 10**9), "more than 10**30")


def test_sweep_random_seeded(tmp_path, capsys):
    config = {
        "specs": [Z9_SPEC],
        "mode": "random",
        "budget": 40,
        "max_denominator": 8,
        "seed": 11,
    }
    path = write(tmp_path, "sweep.json", config)
    code = main(["sweep", "--input", path])
    first = capsys.readouterr().out
    assert code == 0
    main(["sweep", "--input", path])
    assert capsys.readouterr().out == first  # reproducible by seed


def test_sweep_inline_spec_with_flags(tmp_path, capsys):
    # the inline form is gone; the config file that says the same runs
    _refused_by_the_parser(capsys, ["sweep", "--spec", json.dumps(Z5_SPEC), "--budget", "10", "--seed", "3"])
    path = write(tmp_path, "sweep.json", {"specs": [Z5_SPEC], "budget": 10, "seed": 3})
    code = main(["sweep", "--input", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["instances"] == 10


@pytest.mark.parametrize("flag", ["--spec", "--seed", "--budget", "--denominator"])
def test_the_removed_sweep_flags_are_refused(tmp_path, capsys, flag):
    # they only repeated config keys, and --denominator also switched the
    # mode; the config file is required and is read alone
    value = json.dumps(Z5_SPEC) if flag == "--spec" else "3"
    path = write(tmp_path, "sweep.json", {"specs": [Z5_SPEC], "budget": 1})
    _refused_by_the_parser(capsys, ["sweep", "--input", path, flag, value])
    _refused_by_the_parser(capsys, ["sweep", flag, value])


def test_verify_lemmas_on_symmetric_instance(tmp_path, capsys):
    construction = {
        "spec": Z9_SPEC,
        "subgroup": [2],
        "alpha": [8],
        "rho": [{"x": [0], "num": 1, "den": 1}],
        "x2": [1],
    }
    cpath = write(tmp_path, "construction.json", construction)
    ipath = str(tmp_path / "instance.json")
    main(["construct", "--input", cpath, "--output", ipath])
    capsys.readouterr()
    code = main(["verify-lemmas", "--input", ipath, "--tolerance", "1e-9"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["fixed_point_lemma"]["evaluated"] is True
    assert report["fixed_point_lemma"]["substitution_f_ok"] is True
    # degenerate margins give identically-one tables, so logs exist
    assert report["difference_lemma"]["evaluated"] is True
    assert report["difference_lemma"]["max_log_residual"] <= 1e-9


def test_verify_lemmas_hypothesis_failure_is_a_result(tmp_path, capsys):
    inst = {
        "spec": Z5_SPEC,
        "mu1": [{"x": [0], "num": 1, "den": 2}, {"x": [1], "num": 1, "den": 2}],
        "mu2": [{"x": [0], "num": 1, "den": 1}],
        "alpha": [2],
    }
    path = write(tmp_path, "inst.json", inst)
    code = main(["verify-lemmas", "--input", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["difference_lemma"]["evaluated"] is False


def test_verify_lemmas_decides_the_equation_hypothesis_once(tmp_path, capsys, monkeypatch):
    # |char|**2 of (3/4, 1/4) on Z(7) is strictly positive and at most one,
    # and I - beta = 2 is invertible, so both lemmas need the hypothesis.
    # The residue equation, engine._residue_equation_holds, computes its
    # quotient once.
    calls = []
    real = engine._equation_quotient

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(engine, "_equation_quotient", counted)
    margin = [{"x": [0], "num": 3, "den": 4}, {"x": [1], "num": 1, "den": 4}]
    spec = {"components": [{"p": 7, "k": 1, "kind": "finite"}]}
    path = write(tmp_path, "inst.json", {"spec": spec, "mu1": margin, "mu2": margin, "alpha": [6]})
    code = main(["verify-lemmas", "--input", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["difference_lemma"]["evaluated"] and report["fixed_point_lemma"]["evaluated"]
    assert len(calls) == 1


def test_verify_lemmas_on_two_point_masses_matches_the_interned_route(tmp_path, capsys, monkeypatch):
    # |char|**2 of a point mass is 1 everywhere, the table of delta_0: the
    # residue route knows (e, e') = (1, 1) before its first v and visits no
    # pair, and the report is the one the interned route gives.
    spec = {"components": [{"p": 7, "k": 1, "kind": "finite"}]}
    inst = {"spec": spec, "mu1": [{"x": [3], "num": 1, "den": 1}],
            "mu2": [{"x": [1], "num": 1, "den": 1}], "alpha": [6]}
    path = write(tmp_path, "inst.json", inst)
    quotients = []
    lemmas._residue_equation.cache_clear()

    real = engine._equation_quotient

    def spy(*args):
        quotients.append(real(*args))
        return quotients[-1]

    with monkeypatch.context() as patched:
        patched.setattr(engine, "_equation_quotient", spy)
        assert main(["verify-lemmas", "--input", path]) == 0
    residue = capsys.readouterr().out
    assert quotients == [(1, 1)]
    lemmas._equation_violation.cache_clear()
    monkeypatch.setattr(lemmas, "_residue_field", lambda f, g: None)
    assert main(["verify-lemmas", "--input", path]) == 0
    interned = capsys.readouterr().out
    assert residue == interned
    report = json.loads(interned)
    assert report["difference_lemma"]["evaluated"] and report["fixed_point_lemma"]["evaluated"]


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_verify_lemmas_refuses_a_tolerance_that_is_no_cross_check(tmp_path, capsys, tolerance):
    # The difference lemma is evaluated here, so -1 would fail a correct
    # run and nan or inf would pass any residual.
    margin = [{"x": [0], "num": 3, "den": 4}, {"x": [1], "num": 1, "den": 4}]
    spec = {"components": [{"p": 7, "k": 1, "kind": "finite"}]}
    path = write(tmp_path, "inst.json", {"spec": spec, "mu1": margin, "mu2": margin, "alpha": [6]})
    code = main(["verify-lemmas", "--input", path, f"--tolerance={tolerance}"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "tolerance" in report["error"]


def test_construct_writes_loadable_instance(tmp_path, capsys):
    construction = {"spec": Z9_SPEC, "subgroup": [1], "alpha": [2], "seed": 9}
    cpath = write(tmp_path, "construction.json", construction)
    ipath = str(tmp_path / "instance.json")
    code = main(["construct", "--input", cpath, "--output", ipath])
    printed = capsys.readouterr().out
    assert code == 0
    inst = serialize.instance_from_obj(json.loads(printed))
    assert inst.spec == validate_spec([(3, 2)])
    assert open(ipath).read() == printed


# The seeded draws of rho and x2 (no "rho" or "x2" in the file), pinned by
# the exact stdout.
SEEDED_CONSTRUCTIONS = {
    "Z9xZ5": (
        {"components": [{"p": 3, "k": 2, "kind": "finite"}, {"p": 5, "k": 1, "kind": "finite"}]},
        [1, 1],
        [2, 2],
        11,
        (
            '{"alpha":[2,2],"mu1":[{"den":3,"num":1,"x":[2,2]},{"den":3,"num":1,"x":[5,2]},'
            '{"den":3,"num":1,"x":[8,2]}],"mu2":[{"den":3,"num":1,"x":[2,4]},'
            '{"den":3,"num":1,"x":[5,4]},{"den":3,"num":1,"x":[8,4]}],'
            '"spec":{"components":[{"k":2,"kind":"finite","p":3},{"k":1,"kind":"finite","p":5}]}}\n'
        ),
    ),
    "Z27xZ5": (
        {"components": [{"p": 3, "k": 3, "kind": "finite"}, {"p": 5, "k": 1, "kind": "finite"}]},
        [1, 1],
        [2, 3],
        12,
        (
            '{"alpha":[2,3],"mu1":[{"den":15,"num":1,"x":[3,2]},{"den":15,"num":4,"x":[6,2]},'
            '{"den":15,"num":1,"x":[12,2]},{"den":15,"num":4,"x":[15,2]},'
            '{"den":15,"num":1,"x":[21,2]},{"den":15,"num":4,"x":[24,2]}],'
            '"mu2":[{"den":15,"num":1,"x":[3,1]},{"den":15,"num":4,"x":[6,1]},'
            '{"den":15,"num":1,"x":[12,1]},{"den":15,"num":4,"x":[15,1]},'
            '{"den":15,"num":1,"x":[21,1]},{"den":15,"num":4,"x":[24,1]}],'
            '"spec":{"components":[{"k":3,"kind":"finite","p":3},{"k":1,"kind":"finite","p":5}]}}\n'
        ),
    ),
}


@pytest.mark.parametrize("case", SEEDED_CONSTRUCTIONS.values(), ids=SEEDED_CONSTRUCTIONS.keys())
def test_construct_draws_rho_and_x2_from_the_seed(tmp_path, capsys, case):
    spec, subgroup, alpha, seed, expected = case
    construction = {"spec": spec, "subgroup": subgroup, "alpha": alpha, "seed": seed}
    assert main(["construct", "--input", write(tmp_path, "construction.json", construction)]) == 0
    assert capsys.readouterr().out == expected


def test_construct_takes_its_seed_and_cap_from_the_file_alone(tmp_path, capsys):
    # the file's defaults are seed 0 and max_denominator 8; the --seed and
    # --denominator flags that duplicated them are gone
    base = {"spec": SEEDED_CONSTRUCTIONS["Z9xZ5"][0], "subgroup": [1, 1], "alpha": [2, 2]}
    outputs = []
    for construction in (base, {**base, "seed": 0, "max_denominator": 8}):
        assert main(["construct", "--input", write(tmp_path, "construction.json", construction)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    for flag in ("--seed", "--denominator"):
        with pytest.raises(SystemExit):
            main(["construct", "--input", write(tmp_path, "construction.json", base), flag, "3"])
        capsys.readouterr()


def test_a_key_error_inside_a_command_propagates(tmp_path, monkeypatch):
    # every reader checks its keys before it indexes them, so a KeyError
    # comes from a bug, which exit 2 (invalid input) would hide
    def broken(inst):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "satisfies_heyde_equation", broken)
    path = write(tmp_path, "inst.json", degenerate_instance(3, 1, 2))
    with pytest.raises(KeyError, match="internal"):
        main(["check", "--input", path])


GOLDEN = __import__("pathlib").Path(__file__).parent / "golden"


def test_golden_check_report(capsys):
    code = main(["check", "--input", str(GOLDEN / "instance_degenerate_z5.json")])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "check_report.json").read_text()


def test_golden_construct_and_decompose(tmp_path, capsys):
    code = main(["construct", "--input", str(GOLDEN / "construction_z9.json")])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "constructed_instance_z9.json").read_text()
    code = main(["decompose", "--input", str(GOLDEN / "constructed_instance_z9.json")])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "decompose_report_z9.json").read_text()


def test_golden_sweep_report(capsys):
    code = main(["sweep", "--input", str(GOLDEN / "sweep_config_z3.json")])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "sweep_report_z3.json").read_text()


def test_golden_verify_lemmas_report(capsys):
    code = main(["verify-lemmas", "--input", str(GOLDEN / "constructed_instance_z9.json")])
    assert code == 0  # a failed hypothesis is a result, not a finding
    assert capsys.readouterr().out == (GOLDEN / "verify_lemmas_report_z9.json").read_text()
