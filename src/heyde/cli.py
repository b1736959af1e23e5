"""Batch front door: validate, check, decompose, construct, sweep, verify.

Exit codes: 0 when every executed check is consistent (a negative answer
such as "not symmetric" is a result, not a failure), 1 when a run produced
a finding that contradicts a guaranteed conclusion or two equivalent
predicates disagree, 2 for invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import serialize
from .engine import (
    _decompose,
    classify_corollary,
    is_conditionally_symmetric,
    satisfies_heyde_equation,
)
from .errors import VerificationFailure
from .fixtures import construct_instance, random_distribution
from .lemmas import (
    squared_modulus_table,
    verify_difference_lemma,
    verify_fixed_point_lemma,
)
from .rng import DeterministicStream
from .sweep import exhaustive_instances, run_sweep

# An exhaustive sweep runs |Aut| x C(d + N - 1, N - 1)**2 instances per
# spec, a random one its budget.  A sweep above this many instances on some
# spec is refused before anything is enumerated, so that an admitted one
# finishes in minutes, not hours; README.md gives the measured cost per
# instance of each mode.
# The cap on the group order is serialize.MAX_GROUP_SIZE, checked as the
# spec is read.
MAX_SWEEP_INSTANCES = 2 * 10**6


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc


def _emit(obj, output: str | None) -> None:
    text = serialize.dumps_canonical(obj)
    sys.stdout.write(text)
    if output:
        Path(output).write_text(text, encoding="utf-8")


def cmd_check(args) -> int:
    inst = serialize.instance_from_obj(_load_json(args.input))
    symmetric = is_conditionally_symmetric(inst)
    equation = satisfies_heyde_equation(inst)
    agree = symmetric == equation
    _emit({"symmetric": symmetric, "heyde_equation": equation, "agree": agree}, args.output)
    return 0 if agree else 1


def cmd_decompose(args) -> int:
    inst = serialize.instance_from_obj(_load_json(args.input))
    if not is_conditionally_symmetric(inst):
        _emit({"symmetric": False, "decomposition": None}, args.output)
        return 0
    dec = _decompose(inst)
    corollaries = classify_corollary(inst, dec)
    obj = {
        "symmetric": True,
        "decomposition": serialize.decomposition_to_obj(dec, corollaries),
    }
    _emit(obj, args.output)
    return 0 if dec.flags.all_true and corollaries.ok else 1


def cmd_construct(args) -> int:
    obj = _load_json(args.input)
    if not isinstance(obj, dict):
        raise ValueError("construction file must be a JSON object")
    for key in ("spec", "subgroup", "alpha"):
        if key not in obj:
            raise ValueError(f"construction file is missing the {key!r} field")
    spec = serialize.spec_from_obj(obj["spec"])
    sub = serialize.subgroup_from_obj(spec, obj["subgroup"])
    alpha = serialize.endo_from_obj(spec, obj["alpha"])
    seed = serialize.int_from_obj(obj.get("seed", 0), "seed")
    stream = DeterministicStream(seed, label="construct")
    if "rho" in obj and obj["rho"] is not None:
        rho = serialize.distribution_from_obj(spec, obj["rho"])
    else:
        rho = random_distribution(
            spec,
            serialize.int_from_obj(obj.get("max_denominator", 8), "max_denominator"),
            stream.derive("rho"),
            support=sub,
        )
    if "x2" in obj and obj["x2"] is not None:
        x2 = serialize.element_from_obj(spec, obj["x2"])
    else:
        x2 = spec.element(stream.derive("x2").choice(spec.crt_codes))
    fixture = construct_instance(sub, alpha, rho, x2)
    _emit(serialize.instance_to_obj(fixture.instance), args.output)
    return 0


def cmd_sweep(args) -> int:
    config = serialize.sweep_config_from_obj(_load_json(args.input))
    if config.mode == "random" and config.budget > MAX_SWEEP_INSTANCES:
        raise ValueError(
            f"random sweep budget {config.budget:,} instances per spec is above "
            f"the limit of {MAX_SWEEP_INSTANCES:,}"
        )
    for spec in config.specs:
        if config.mode == "exhaustive":
            count = exhaustive_instances(spec, config)
            if count is None or count > MAX_SWEEP_INSTANCES:
                needs = "more than 10**30" if count is None else f"{count:,}"
                raise ValueError(
                    f"exhaustive sweep on {spec.describe()} at denominator "
                    f"{config.denominator} needs {needs} instances "
                    f"(|Aut| x C(d + N - 1, N - 1)**2), above the limit of "
                    f"{MAX_SWEEP_INSTANCES:,}"
                )
    report = run_sweep(config)
    _emit(serialize.sweep_report_to_obj(report), args.output)
    return 0 if report.ok else 1


def cmd_verify_lemmas(args) -> int:
    # A negative tolerance would fail every run, and nan or inf would pass
    # every residual, so neither is a cross-check.
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ValueError(f"--tolerance must be finite and non-negative, got {args.tolerance!r}")
    inst = serialize.instance_from_obj(_load_json(args.input))
    f = squared_modulus_table(inst.mu1)
    g = squared_modulus_table(inst.mu2)
    beta = inst.alpha.adjoint()
    difference = verify_difference_lemma(f, g, beta, tolerance=args.tolerance)
    fixed_point = verify_fixed_point_lemma(f, g, beta)
    obj = {
        "difference_lemma": serialize.difference_report_to_obj(difference),
        "fixed_point_lemma": serialize.fixed_point_report_to_obj(fixed_point),
    }
    _emit(obj, args.output)
    failed = (difference.evaluated and not difference.ok) or (
        fixed_point.evaluated and not fixed_point.ok
    )
    if difference.max_log_residual is not None and difference.max_log_residual > args.tolerance:
        failed = True
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heyde",
        description="Exact conditional-symmetry checks on odd-order model groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--output", help="also write the JSON report here")

    p_check = sub.add_parser("check", help="symmetry test and dual equation on an instance")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_dec = sub.add_parser("decompose", help="full decomposition with verification flags")
    common(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    p_con = sub.add_parser("construct", help="build a symmetric instance file")
    common(p_con)
    p_con.set_defaults(func=cmd_construct)

    p_sweep = sub.add_parser("sweep", help="seeded verification sweep")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_lem = sub.add_parser("verify-lemmas", help="run the lemma verifiers on an instance")
    common(p_lem)
    p_lem.add_argument(
        "--tolerance",
        type=float,
        default=1e-9,
        help="tolerance for the floating log cross-check",
    )
    p_lem.set_defaults(func=cmd_verify_lemmas)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args does not change the parser.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationFailure as exc:
        _emit({"finding": str(exc)}, getattr(args, "output", None))
        return 1
    except (ValueError, OSError) as exc:
        message = str(exc) if str(exc) else repr(exc)
        sys.stdout.write(serialize.dumps_canonical({"error": message}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
