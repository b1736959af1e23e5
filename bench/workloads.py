"""The three workloads: seeded input files, the ops that feed them to heyde,
and an independent check of every output.

A workload is a sequence of rounds.  Every round has the same shape (the
same op kinds on the same group and support sizes); the round index picks
the subgroups and automorphisms from a fixed schedule and the seed picks
the contents (points, shifts, which point gets which mass), so any whole
number of rounds has the same mix and about the same cost.  A run keeps
starting rounds until its time is up.

Why these workloads (see bench/README.md for the measured costs):

* sym-ladder -- constructed symmetric pairs on Z(9), Z(9)xZ(5), Z(27)xZ(5)
  and Z(9)xZ(5)xZ(7), each through construct, check and decompose.
  Symmetric pairs never leave the dual equation early, so the O(N^2)
  equation loop, cyclotomic multiply/reduce, character values, canonical
  shift and the Haar-factor routes do the work.  Z(27)xZ(5)xZ(7) (N = 945,
  ~50 s per instance) is left out until the equation check affords it.
* random-sweep -- many `heyde sweep` calls: random mode on every ladder
  group with all automorphisms, and exhaustive mode on Z(3), Z(5), Z(7),
  Z(9).  Nearly every pair is asymmetric and exits at the first violation,
  so per-instance overhead (rng, fixtures, Distribution validation,
  Fraction arithmetic) dominates.  It is the guard for optimisations that
  pay a per-group set-up cost.
* lemma-checks -- `heyde verify-lemmas` on strictly positive symmetric
  pairs (difference lemma, mpmath interval signs) and on fixed-point pairs,
  plus Fourier-inversion round trips up to N = 315: the same cyclotomic
  layer used without memoization and as an O(N^2) inverse transform.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import model

LADDER = {
    "N9": ((3, 2),),
    "N45": ((3, 2), (5, 1)),
    "N135": ((3, 3), (5, 1)),
    "N315": ((3, 2), (5, 1), (7, 1)),
}
Z9, Z25, Z27 = ((3, 2),), ((5, 2),), ((3, 3),)

CHECK_SYMMETRIC = model.canonical({"symmetric": True, "heyde_equation": True, "agree": True})
TOLERANCE = 1e-9


@dataclass
class Result:
    """What one op verified: an error message (None when correct) and counts."""

    error: str | None
    instances: int = 0
    pairs: int = 0
    symmetric: int = 0


@dataclass
class Op:
    kind: str
    rung: str
    argv: list[str] | None = None  # `heyde <argv>` through heyde.cli.main
    call: Callable[[], bool] | None = None  # a Python entry point returning True when correct
    check: Callable[[int, str], Result] = None
    support: tuple[int, int] = (0, 0)  # smallest and largest margin support


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"heyde-bench:{workload}:{seed}:{round_index}")


# Masses by number of points.  Random masses would change the size of
# every character value's coefficients, and with it the cost of an op by up
# to a third; the seed still picks the points and which gets which mass.
MASSES = {
    1: (Fraction(1),),
    2: (Fraction(1, 3), Fraction(2, 3)),
    3: (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
    4: (Fraction(2, 5), Fraction(3, 10), Fraction(1, 5), Fraction(1, 10)),
}


def _pmf(rng: random.Random, points, count: int) -> dict:
    """count distinct points, in random order, with the masses MASSES[count]."""
    return dict(zip(rng.sample(points, count), MASSES[count]))


def _dominant_atom_pmf(rng: random.Random, comps, exps, count: int) -> dict:
    """A seed on the subgroup with mass 3/4 at zero, so no character sum vanishes."""
    points = model.subgroup_elements(comps, exps)
    bulk = _pmf(rng, points, min(count, len(points)))
    pmf = {x: m / 4 for x, m in bulk.items()}
    zero = (0,) * len(comps)
    pmf[zero] = pmf.get(zero, 0) + Fraction(3, 4)
    return pmf


def _write(path: Path, obj) -> str:
    path.write_text(model.canonical(obj), encoding="utf-8")
    return str(path)


def _exit_code(code: int, want: int = 0) -> str | None:
    return None if code == want else f"exit code {code}, expected {want}"


# -- sym-ladder -------------------------------------------------------------------


def _check_construct(expected: str, output_path: Path):
    def check(code: int, out: str) -> Result:
        error = _exit_code(code)
        if error is None and out != expected:
            error = "construct output differs from the expected instance"
        if error is None and output_path.read_text(encoding="utf-8") != expected:
            error = "construct --output file differs from stdout"
        return Result(error)

    return check


def _check_check(code: int, out: str) -> Result:
    error = _exit_code(code)
    if error is None and out != CHECK_SYMMETRIC:
        error = f"check on a symmetric pair printed {out.strip()}"
    return Result(error)


def _check_decompose(comps, declared, mu1: dict, mu2: dict):
    """Recompute the decomposition's claims with plain modular arithmetic."""
    def check(code: int, out: str) -> Result:
        error = _exit_code(code)
        if error:
            return Result(error)
        report = json.loads(out)
        dec = report.get("decomposition")
        if report.get("symmetric") is not True or not dec:
            return Result("decompose did not report a symmetric decomposition")
        exps = tuple(dec["subgroup"])
        lam = model.dist_from_obj(dec["lambda"])
        x1, x2 = tuple(dec["x1"]), tuple(dec["x2"])
        diffs = [
            model.add(comps, s, model.neg(comps, min(mu)))
            for mu in (mu1, mu2)
            for s in mu
        ]
        if not all(model.in_subgroup(comps, exps, x) for x in lam):
            return Result("lambda is not supported in G")
        if model.shift(comps, lam, x1) != mu1 or model.shift(comps, lam, x2) != mu2:
            return Result("lambda shifted by x1, x2 does not give mu1, mu2")
        if exps != model.generated_exps(comps, diffs):
            return Result(f"G = {exps} is not generated by the support differences")
        if any(a < b for a, b in zip(exps, declared)):
            return Result(f"G = {exps} escapes the constructed subgroup {declared}")
        if dec["all_flags_true"] is not True or not all(dec["flags"].values()):
            return Result(f"a decomposition flag is false: {dec['flags']}")
        if any(c["applicable"] and c["verified"] is not True for c in dec["corollaries"]):
            return Result("an applicable corollary is not verified")
        return Result(None, instances=1, pairs=1, symmetric=1)

    return check


def _image_order(comps, exps, mults) -> int:
    """|(I + alpha)(G)|."""
    return model.subgroup_order(comps, model.image_exps(comps, [1 + m for m in mults], exps))


def _sym_ladder_slots() -> dict:
    """Per rung, the (G, alpha) pairs the rounds walk through, in an order
    that does not depend on the seed.

    Z(9), Z(9)xZ(5): every admissible pair.  Z(27)xZ(5): the automorphisms
    for which (I + alpha) has index 3, so one seed point per coset gives a
    full-support pair on the whole group.  Z(9)xZ(5)xZ(7): the admissible
    pairs with |(I + alpha)(G)| = 35, whose check (0.6-1.0 s) and
    decompose (0.1-0.17 s) cost about the same for every G.
    """
    slots = {
        rung: [
            (exps, mults)
            for exps in model.subgroups(comps)
            for mults in model.automorphisms(comps)
            if model.admissible(comps, exps, mults)
        ]
        for rung, comps in LADDER.items()
    }
    comps = LADDER["N135"]
    slots["N135"] = [(exps, mults) for exps, mults in slots["N135"]
                     if exps == (0, 0) and _image_order(comps, exps, mults) * 3 == model.size(comps)]
    comps = LADDER["N315"]
    slots["N315"] = [(exps, mults) for exps, mults in slots["N315"] if _image_order(comps, exps, mults) == 35]
    for rung in ("N45", "N315"):
        random.Random(f"heyde-bench:sym-ladder:{rung}").shuffle(slots[rung])
    return slots


def _coset_points(rng: random.Random, comps, exps, mults, count: int) -> list:
    """count points of G in distinct cosets of H = (I + alpha)(G), at most one
    per coset, so the pair's support is exactly (count, capped) * |H|."""
    h_exps = model.image_exps(comps, [1 + m for m in mults], exps)
    cosets: dict = {}
    for x in model.subgroup_elements(comps, exps):
        cosets.setdefault(tuple(c % p**h for c, (p, _), h in zip(x, comps, h_exps)), []).append(x)
    keys = rng.sample(sorted(cosets), min(count, len(cosets)))
    return [rng.choice(cosets[key]) for key in keys]


def sym_ladder_round(seed: int, round_index: int, work: Path, cache: dict) -> list[Op]:
    """24 pairs, each through three ops: construct, check, decompose.

    Z(9): all 12 admissible (G, alpha) pairs, with 1, 2 or 3 seed points.
    Z(9)xZ(5): the next 8 of its 84 admissible pairs, 1 to 3 seed points.
    Z(27)xZ(5): one full-support pair on the whole group (support 135).
    Z(9)xZ(5)xZ(7): the next 3 pairs with |(I + alpha)(G)| = 35, one seed
    point each (support 35).

    The schedule and the number of seed points follow the round index only;
    the seed picks the seed points (one per coset of (I + alpha)(G), so the
    support size is fixed too), which point gets which of the fixed masses,
    and the shift.  Every round then costs about the same, and about 10% of
    its ops lie above the N = 315 decompose ops, so call_p90_s falls among
    them; call_p50_s falls among the Z(9) and Z(9)xZ(5) ops.
    """
    if "slots" not in cache:
        cache["slots"] = _sym_ladder_slots()
    slots = cache["slots"]
    rng = _rng("sym-ladder", seed, round_index)
    plan = [("N9", slot, 1 + i % 3) for i, slot in enumerate(slots["N9"])]
    plan += [("N45", slots["N45"][(8 * round_index + i) % len(slots["N45"])], 1 + i % 3) for i in range(8)]
    plan.append(("N135", slots["N135"][round_index % len(slots["N135"])], 3))
    plan += [("N315", slots["N315"][(3 * round_index + i) % len(slots["N315"])], 1) for i in range(3)]

    ops: list[Op] = []
    for i, (rung, (exps, mults), count) in enumerate(plan):
        comps = LADDER[rung]
        points = _coset_points(rng, comps, exps, mults, count)
        rho = dict(zip(points, MASSES[len(points)]))
        x2 = rng.choice(model.elements(comps))
        lam, mu1, mu2 = model.construct(comps, exps, mults, rho, x2)
        construction = {
            "spec": model.spec_obj(comps),
            "subgroup": list(exps),
            "alpha": list(mults),
            "rho": model.dist_obj(rho),
            "x2": list(x2),
        }
        cpath = _write(work / f"construction-{i}.json", construction)
        ipath = work / f"instance-{i}.json"
        expected = model.canonical(model.instance_obj(comps, mu1, mu2, mults))
        support = (len(lam), len(lam))
        ops.append(
            Op("construct", rung, ["construct", "--input", cpath, "--output", str(ipath)],
               check=_check_construct(expected, ipath), support=support)
        )
        ops.append(Op("check", rung, ["check", "--input", str(ipath)], check=_check_check, support=support))
        ops.append(
            Op("decompose", rung, ["decompose", "--input", str(ipath)],
               check=_check_decompose(comps, exps, mu1, mu2), support=support)
        )
    return ops


# -- random-sweep -------------------------------------------------------------------

SWEEP_BUDGET = 25
# A larger cap than heyde's default of 8 keeps point-mass pairs rare: at
# N = 315 a pair of point masses can run the equation loop for seconds
# before its first violation, and those rare draws would decide the total.
SWEEP_MAX_DENOMINATOR = 32
# Even at 32, about one N = 315 random pair in 400 is a symmetric pair of
# point masses that costs ~5.6 s (against a 1.7 ms median) and ~25 MB of
# memo tables, and at N = 135 rare pairs cost ~0.35 s and ~5 MB: a lottery
# that would decide a run's time and peak memory.  The random-mode calls
# on these groups therefore use fixed sweep seeds, the same in every round
# and run, like the exhaustive calls.
SWEEP_FIXED_SEEDS = {
    "N135": (135_001, 135_002, 135_003, 135_004),
    "N315": (315_001, 315_002, 315_003, 315_004),
}
EXHAUSTIVE = ((((3, 1),), 2), (((3, 1),), 3), (((5, 1),), 2), (((5, 1),), 3), (((7, 1),), 2), (Z9, 2))


def _check_sweep(seed: int, expected_instances: int):
    def check(code: int, out: str) -> Result:
        error = _exit_code(code)
        if error:
            return Result(error)
        report = json.loads(out)
        if report["seed"] != seed or report["instances"] != expected_instances:
            return Result(f"sweep ran {report['instances']} instances, expected {expected_instances}")
        bad = ("violations", "disagreements", "decomposition_failures", "corollary_failures")
        if any(report[key] for key in bad) or report["first_counterexample"] is not None:
            return Result(f"sweep reported violations: {out.strip()[:300]}")
        if not 0 <= report["symmetric"] <= expected_instances:
            return Result("symmetric count out of range")
        return Result(None, report["instances"], report["instances"], report["symmetric"])

    return check


def random_sweep_round(seed: int, round_index: int, work: Path, cache: dict) -> list[Op]:
    """Four random-mode calls of 25 instances on each ladder group, and the
    six exhaustive calls (Z(3), Z(5) at denominators 2 and 3; Z(7), Z(9) at 2).

    The seed picks the sweep seeds of the random-mode calls on N = 9 and
    45; the N = 135 and N = 315 calls use SWEEP_FIXED_SEEDS.  Z(7) and Z(9) at
    denominator 3 (42,336 and 163,350 instances) would each take longer
    than a whole round and are left out.
    """
    rng = _rng("random-sweep", seed, round_index)
    ops: list[Op] = []
    random_mode = {"mode": "random", "budget": SWEEP_BUDGET, "max_denominator": SWEEP_MAX_DENOMINATOR}
    configs = [(f"random:{rung}", comps, random_mode) for _ in range(4) for rung, comps in LADDER.items()]
    fixed = {rung: list(seeds) for rung, seeds in SWEEP_FIXED_SEEDS.items()}
    # spread the exhaustive calls evenly through the random ones
    for j, (comps, den) in enumerate(EXHAUSTIVE):
        configs.insert(3 * j + 2, (f"exhaustive:N{model.size(comps)}", comps,
                                   {"mode": "exhaustive", "denominator": den}))
    for i, (rung, comps, extra) in enumerate(configs):
        call_seed = rng.randrange(2**31)
        if extra["mode"] == "random" and rung[len("random:"):] in fixed:
            call_seed = fixed[rung[len("random:"):]].pop(0)
        config = {"specs": [model.spec_obj(comps)], "automorphisms": "all", "seed": call_seed, **extra}
        path = _write(work / f"sweep-{i}.json", config)
        autos = len(model.automorphisms(comps))
        if extra["mode"] == "random":
            expected = SWEEP_BUDGET
            support = (1, min(model.size(comps), SWEEP_MAX_DENOMINATOR))
        else:
            expected = autos * model.count_distributions(comps, extra["denominator"]) ** 2
            support = (1, min(model.size(comps), extra["denominator"]))
        ops.append(Op("sweep", rung, ["sweep", "--input", path],
                      check=_check_sweep(call_seed, expected), support=support))
    return ops


# -- lemma-checks ---------------------------------------------------------------------


def _expected_kappa(comps, beta):
    """-4 beta (1 - beta)**-2, componentwise."""
    out = []
    for b, q in zip(beta, model.orders(comps)):
        inv = pow((1 - b) % q, -1, q)
        out.append((-4 * b * inv * inv) % q)
    return out


def _check_lemmas(comps, beta, expect_difference: bool | None):
    """Both verifiers on a symmetric pair with I - beta invertible.

    expect_difference is whether both squared-modulus tables are strictly
    positive (None when the float estimate is too close to zero to say).
    """
    n = model.size(comps)
    one_plus = [1 + b for b in beta]
    one_minus = [1 - b for b in beta]
    checks = n * model.image_size(comps, one_minus) * model.image_size(comps, one_plus) * (
        model.image_size(comps, [2] * len(beta)) + model.image_size(comps, [2 * b for b in beta])
    )
    kappa = _expected_kappa(comps, beta)

    def check(code: int, out: str) -> Result:
        error = _exit_code(code)
        if error:
            return Result(error)
        report = json.loads(out)
        fp, diff = report["fixed_point_lemma"], report["difference_lemma"]
        fp_keys = ("evaluated", "substitution_f_ok", "substitution_g_ok", "fixed_point_f_ok", "fixed_point_g_ok")
        if not all(fp[key] is True for key in fp_keys) or fp["kappa"] != kappa:
            return Result(f"fixed-point lemma not verified: {fp}")
        if expect_difference is not None and diff["evaluated"] is not expect_difference:
            return Result(f"difference lemma evaluated={diff['evaluated']}, expected {expect_difference}")
        if diff["evaluated"]:
            if not (diff["first_conclusion_ok"] and diff["second_conclusion_ok"] and diff["hypothesis_ok"]):
                return Result(f"difference lemma not verified: {diff}")
            if diff["checks"] != checks:
                return Result(f"difference lemma made {diff['checks']} checks, expected {checks}")
            if not 0 <= diff["max_log_residual"] <= TOLERANCE:
                return Result(f"log residual {diff['max_log_residual']} above {TOLERANCE}")
        return Result(None, instances=1, pairs=1, symmetric=1)

    return check


def _lemma_op(rung, comps, exps, mults, rho, x2, path: Path, expect_difference) -> Op:
    lam, mu1, mu2 = model.construct(comps, exps, mults, rho, x2)
    if expect_difference is None:
        smallest = min(model.min_squared_modulus(comps, mu) for mu in (mu1, mu2))
        expect_difference = True if smallest > 1e-6 else False if smallest < 1e-12 else None
    _write(path, model.instance_obj(comps, mu1, mu2, mults))
    argv = ["verify-lemmas", "--input", str(path), "--tolerance", repr(TOLERANCE)]
    return Op("verify-lemmas", rung, argv, check=_check_lemmas(comps, mults, expect_difference),
              support=(len(lam), len(lam)))


def _inversion_op(rung, comps, mu: dict) -> Op:
    import heyde.distributions as dist
    import heyde.serialize as ser

    spec = ser.spec_from_obj(model.spec_obj(comps))
    margin = ser.distribution_from_obj(spec, model.dist_obj(mu))

    def call() -> bool:
        return dist.invert_char_table(spec, dist.char_fn_table(margin)) == margin

    def check(code: int, out: str) -> Result:
        if code is not True:
            return Result("invert_char_table(char_fn_table(mu)) != mu")
        return Result(None, instances=1)

    return Op("inversion", rung, call=call, check=check, support=(len(mu), len(mu)))


def lemma_checks_round(seed: int, round_index: int, work: Path, cache: dict) -> list[Op]:
    """14 difference-lemma pairs on Z(9), 4 fixed-point pairs on Z(9) and
    Z(27), and 6 inversion round trips on margins from N = 9 to N = 315.
    Automorphisms and seed sizes follow the op's place in the round; the
    seed picks the seed points, which point gets which mass, the shifts and
    the margins' points.

    The Z(9) difference-lemma ops are the middle 60% of a round's ops, so
    both call_p50_s and call_p90_s fall among them; the N = 315 inversion is
    the one op above them.  Difference-lemma pairs on Z(25) and Z(27) are
    left out: with alpha = -1 one costs ~3 s, a third of a round, and other
    units cost 8-23 s.  Fixed-point pairs on Z(27) skip alpha = -1 for the
    same reason: there the tables can be positive and the difference lemma
    would run as well.
    """
    rng = _rng("lemma-checks", seed, round_index)
    ops: list[Op] = []
    for i in range(14):
        mults = (2,) if i % 2 == 0 else (5,)
        rho = _dominant_atom_pmf(rng, Z9, (1,), 1 + i % 3)
        x2 = rng.choice(model.elements(Z9))
        ops.append(_lemma_op("N9", Z9, (1,), mults, rho, x2, work / f"difference-{i}.json", True))
    for i in range(4):
        comps, units = (Z9, (2, 5, 8)) if i < 2 else (Z27, (2, 5, 8, 11, 14, 17, 20, 23))
        mults = (units[(2 * round_index + i) % len(units)],)
        points = model.elements(comps)
        rho = _pmf(rng, points, 1 + (round_index + i) % 3)
        x2 = rng.choice(points)
        rung = f"N{model.size(comps)}"
        ops.insert(4 * i + 1, _lemma_op(rung, comps, (0,), mults, rho, x2, work / f"fixed-{i}.json", None))
    margins = [("N9", Z9, 3), ("N25", Z25, 3), ("N27", Z27, 3), ("N45", LADDER["N45"], 4),
               ("N135", LADDER["N135"], 4), ("N315", LADDER["N315"], 4)]
    for j, (rung, comps, count) in enumerate(margins):
        mu = _pmf(rng, model.elements(comps), count)
        ops.insert(4 * j + 3, _inversion_op(rung, comps, mu))
    return ops


WORKLOADS = {
    "sym-ladder": sym_ladder_round,
    "random-sweep": random_sweep_round,
    "lemma-checks": lemma_checks_round,
}


# -- golden replay ---------------------------------------------------------------------

GOLDEN = (
    ("check", "instance_degenerate_z5.json", "check_report.json"),
    ("construct", "construction_z9.json", "constructed_instance_z9.json"),
    ("decompose", "constructed_instance_z9.json", "decompose_report_z9.json"),
    ("sweep", "sweep_config_z3.json", "sweep_report_z3.json"),
    ("verify-lemmas", "constructed_instance_z9.json", "verify_lemmas_report_z9.json"),
)


def golden_ops(golden_dir: Path) -> list[Op]:
    """Every tests/golden input/output pair, compared byte for byte."""
    ops = []
    for command, source, expected_name in GOLDEN:
        expected = (golden_dir / expected_name).read_text(encoding="utf-8")

        def check(code: int, out: str, expected=expected, name=expected_name) -> Result:
            error = _exit_code(code) or (None if out == expected else f"output differs from golden {name}")
            return Result(error)

        ops.append(Op(command, "golden", [command, "--input", str(golden_dir / source)], check=check))
    return ops
