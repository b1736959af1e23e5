"""The certified modular route for character sums, against the cyclotomic one.

satisfies_heyde_equation evaluates character sums at a primitive N-th
root of unity modulo primes p = 1 (mod N).  Here the field helper is
checked directly, and every modular decision is compared with the
reference route on exact CycloElement values: first_equation_violation
on interned char_fn values with no modulus, and char_fn(...).is_zero().
The zero classes of the vanishing side of has_haar_factor and of the
nonvanishing hypothesis of classify_corollary come from the integer axis
fold; they are checked against char_fn(...).is_zero() and against the
certified residue route they replaced (oracles.residue_zero_classes).
"""

import functools
import itertools
import json
import pathlib
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from heyde import (
    DeterministicStream,
    HeydeInstance,
    PAdicUnit,
    char_fn,
    classify_corollary,
    construct_instance,
    convolve,
    degenerate,
    enumerate_automorphisms,
    enumerate_distributions,
    enumerate_subgroups,
    from_pmf,
    haar,
    has_haar_factor,
    is_conditionally_symmetric,
    make_endo,
    random_distribution,
    reduce_mixed_product,
    satisfies_heyde_equation,
    shift,
    validate_spec,
)
from heyde import cli, cyclotomic, engine, lemmas
from heyde.cyclotomic import _is_prime, modular_field
from heyde.distributions import Distribution, char_fn_zero_classes, char_residues
from heyde.engine import _decompose, first_equation_violation
from heyde.fixtures import construction_admissible
from heyde.groups import Subgroup

import acceptance_corpus as corpus
import oracles

Z9xZ5 = validate_spec([(3, 2), (5, 1)])
Z9xZ5xZ7 = validate_spec([(3, 2), (5, 1), (7, 1)])

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _prime_factors(n):
    return [q for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, q))]


def reference_equation(inst):
    """The equation loop on exact cyclotomic values, with no modulus: char_fn
    read once per code and interned as the lemma verifiers intern their
    tables, so zero is the falsy id 0 and each product is computed once."""
    spec = inst.spec
    intern, product = lemmas._interner(cyclotomic.from_rational(spec.exponent, 0))
    violation = first_equation_violation(
        spec,
        functools.cache(lambda r: intern(char_fn(inst.mu1, spec.element(r)))),
        functools.cache(lambda r: intern(char_fn(inst.mu2, spec.element(r)))),
        inst.alpha.adjoint(),
        product,
    )
    return violation is None


def check_equation(inst):
    """Modular verdict == cyclotomic verdict == joint symmetry; a modular
    violation is a true violation."""
    verdict = satisfies_heyde_equation(inst)
    assert verdict == reference_equation(inst) == is_conditionally_symmetric(inst)
    spec = inst.spec
    d1, d2 = inst.mu1.den, inst.mu2.den
    field = modular_field(spec.exponent, 2 * d1 * d2)
    f, g = char_residues(inst.mu1, field), char_residues(inst.mu2, field)
    beta = inst.alpha.adjoint()
    found = first_equation_violation(spec, f, g, beta, lambda a, b: a * b % field.modulus)
    assert (found is None) == verdict
    if found is not None:
        u, v = found
        bv = beta.apply(v)
        lhs = char_fn(inst.mu1, spec.add(u, v)) * char_fn(inst.mu2, spec.add(u, bv))
        rhs = char_fn(inst.mu1, spec.sub(u, v)) * char_fn(inst.mu2, spec.sub(u, bv))
        assert lhs != rhs


def check_zero_classes(mu):
    """The per-class modular zero verdict matches char_fn at every dual element."""
    spec = mu.spec
    n = spec.exponent
    zero = char_fn_zero_classes(mu)
    assert set(zero) == {g for g in range(1, n + 1) if n % g == 0}
    for y in oracles.element_list(spec):
        assert char_fn(mu, y).is_zero() == zero[gcd(spec.crt(y), n)]
    return zero


def check_haar_factor(mu, sub):
    """has_haar_factor (which raises if its two routes disagree) against
    vanishing off the annihilator on exact values."""
    ann = sub.annihilator()
    exact = all(
        char_fn(mu, y).is_zero() for y in oracles.element_list(mu.spec) if not oracles.contains(ann, y)
    )
    assert has_haar_factor(mu, sub) == exact


# -- the field helper -----------------------------------------------------------


def test_miller_rabin_matches_trial_division():
    for n in range(-2, 20_000):
        assert _is_prime(n) == (n > 1 and all(n % d for d in range(2, int(n**0.5) + 1)))
    # strong pseudoprimes to every base 2..23, composite here
    assert 149491 * 747451 * 34233211 == 3825123056546413051
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(3215031751) and not _is_prime(2**61 + 1)
    assert _is_prime(2**61 - 1)


@pytest.mark.parametrize("n", [1, 3, 9, 25, 45, 225, 315, 945])
def test_field_is_certified(n):
    for weight in (1, 2 * 8 * 8, 2**40, 2 * 2**40 * 2**40):
        field = modular_field(n, weight)
        assert field.modulus == prod(field.primes)
        assert field.modulus > weight
        assert len(set(field.primes)) == len(field.primes)
        for p in field.primes:
            assert p < 2**62 and (p - 1) % n == 0 and _is_prime(p)
            w = field.root % p
            assert pow(w, n, p) == 1
            assert all(pow(w, n // q, p) != 1 for q in _prime_factors(n))
        m = field.modulus
        assert field.powers == [pow(field.root, k, m) for k in range(n)]
        phi = oracles.cyclotomic_polynomial(n)
        assert sum(c * pow(field.root, e, m) for e, c in enumerate(phi)) % m == 0


def test_large_bound_adds_a_prime(monkeypatch):
    monkeypatch.setattr(cyclotomic, "_field_cache", {})
    one = modular_field(315, 1)
    assert len(one.primes) == 1
    # the field grows exactly while M <= weight
    assert modular_field(315, one.modulus - 1) is one
    field = modular_field(315, one.modulus)
    assert len(field.primes) == 2 and field.primes[0] == one.primes[0]
    assert modular_field(315, 1) is field  # the cache keeps the larger field
    # one prime below 2**62 cannot exceed 2 * 2**80
    assert modular_field(315, 2 * 2**40 * 2**40).modulus > 2 * 2**80


def test_modulus_must_exceed_the_weight(monkeypatch):
    # The norm bound is tight: a nonzero value of weight w can vanish mod M
    # when M = w.  On Z(9), 1/37 at 0 and 36/37 at 4 give f(0) = 1, which
    # scaled by D = 37 is 1 + 36 = 37, zero mod 37 on its whole unit orbit.
    monkeypatch.setattr(cyclotomic, "_PRIME_CEILING", 64)
    monkeypatch.setattr(cyclotomic, "_field_cache", {})
    spec = validate_spec([(3, 2)])
    mu = from_pmf(spec, {(0,): Fraction(1, 37), (4,): Fraction(36, 37)})
    assert mu.den == 37
    field = modular_field(9, 36)
    assert field.primes == (37,)
    assert char_residues(mu, field)(0) == 0 and char_fn(mu, (0,)).is_one()
    assert modular_field(9, 37).primes == (37, 19)
    assert not any(check_zero_classes(mu).values())


def test_a_field_grown_by_several_primes_is_built_once(monkeypatch):
    # The primes are found first and one field is built from them, so its
    # N powers are filled once per growth, not once per prime added.
    monkeypatch.setattr(cyclotomic, "_field_cache", {})
    built = []
    init = cyclotomic._ModField.__init__
    monkeypatch.setattr(
        cyclotomic._ModField, "__init__", lambda self, *args: built.append(args) or init(self, *args)
    )
    field = modular_field(45, 2**130)  # a fresh order, a weight that needs 3 primes
    assert len(field.primes) == 3 and built == [(45, field.primes)]
    assert field.modulus > 2**130 and prod(field.primes[:2]) <= 2**130
    for below, p in zip(field.primes, field.primes[1:]):
        assert p == cyclotomic._prime_below(45, below)
    assert modular_field(45, 2**130) is field and modular_field(45, 1) is field
    one = modular_field(63, 1)
    assert len(built) == 2
    grown = modular_field(63, 2**130)  # a cached field grown by 2 primes
    assert len(built) == 3 and grown.primes[:1] == one.primes and len(grown.primes) == 3


@pytest.mark.parametrize("order", [0, -3, 10])
def test_field_rejects_bad_orders(order):
    with pytest.raises(ValueError, match="order must be"):
        modular_field(order, 1)


def test_residue_route_never_builds_the_cyclotomic_polynomial(monkeypatch, tmp_path, capsys):
    # check and decompose decide everything on residues; _Basis (the
    # powerful basis of CycloElement) is the reference route only.
    def refuse(self, n):
        raise AssertionError(f"_Basis({n}) built on the residue route")

    monkeypatch.setattr(cyclotomic._Basis, "__init__", refuse)
    monkeypatch.setattr(cyclotomic, "_basis_cache", {})

    def masses(points):
        return [{"x": list(x), "num": 1, "den": len(points)} for x in points]

    instance = {
        "spec": {"components": [{"p": p, "k": 1, "kind": "finite"} for p in (3, 5, 7, 11, 13)]},
        "mu1": masses([(0, 1, 5, 9, 7), (1, 1, 5, 6, 8), (2, 0, 1, 9, 8), (2, 0, 3, 4, 0),
                       (2, 2, 2, 0, 4)]),
        "mu2": masses([(0, 2, 0, 0, 9), (0, 3, 2, 1, 5), (1, 2, 3, 1, 12), (2, 2, 5, 9, 10)]),
        "alpha": [2, 2, 2, 2, 2],
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance), encoding="utf-8")
    assert cli.main(["check", "--input", str(path)]) == 0
    assert capsys.readouterr().out == '{"agree":true,"heyde_equation":false,"symmetric":false}\n'

    golden = pathlib.Path(__file__).parent / "golden"
    assert cli.main(["decompose", "--input", str(golden / "constructed_instance_z9.json")]) == 0
    assert capsys.readouterr().out == (golden / "decompose_report_z9.json").read_text()


def test_residues_evaluate_char_fn_at_the_root():
    for spec in (validate_spec([(3, 2)]), Z9xZ5xZ7):
        n = spec.exponent
        field = modular_field(n, 1)
        x, x2 = spec.element(1), spec.element(7)
        mu = from_pmf(spec, {x: Fraction(1, 3), x2: Fraction(2, 3)})
        den = mu.den
        residue = char_residues(mu, field)
        for y in oracles.element_list(spec):
            value = char_fn(mu, y)
            at_root = sum(c * field.powers[e] for e, c in value.terms()) * (den // value.den)
            assert residue(spec.crt(y)) == at_root % field.modulus


def test_small_primes_still_decide_exactly(monkeypatch):
    # Primes below 64 make one conjugate of a nonzero value vanish mod p
    # often; the verdicts must still match, through whole unit orbits and
    # the CRT of several primes.
    monkeypatch.setattr(cyclotomic, "_PRIME_CEILING", 64)
    monkeypatch.setattr(cyclotomic, "_field_cache", {})
    spec = validate_spec([(3, 2)])
    pmfs = list(enumerate_distributions(spec, 4))
    alphas = enumerate_automorphisms(spec)
    # (1/4, 3/4) on (7, 8): zero mod 37 at y = 7, nonzero elsewhere in its orbit
    mu = from_pmf(spec, {(7,): Fraction(1, 4), (8,): Fraction(3, 4)})
    assert char_residues(mu, modular_field(9, 1))(7) == 0
    assert not char_fn(mu, (7,)).is_zero()
    for primes, weight in (((37,), 1), ((37, 19), 2 * 6 * 6)):
        assert modular_field(9, weight).primes == primes
        for mu in pmfs:
            check_zero_classes(mu)
            for sub in enumerate_subgroups(spec):
                check_haar_factor(mu, sub)
        for i, (mu1, mu2) in enumerate(itertools.product(pmfs[::20], pmfs[::15])):
            check_equation(HeydeInstance(spec, mu1, mu2, alphas[i % len(alphas)]))


class CountingField:
    """A field whose power table counts its reads, so residue evaluations show."""

    def __init__(self, field):
        self.modulus = field.modulus
        self.reads = 0
        field_powers = field.powers
        outer = self

        class Powers(list):
            def __getitem__(self, k):
                outer.reads += 1
                return field_powers[k]

        self.powers = Powers(field_powers)


def test_residue_memo_keeps_fields_apart(monkeypatch):
    # One Distribution in two fields of different moduli: each field gets
    # its own memo, and a value memoized in one never answers for the other.
    monkeypatch.setattr(cyclotomic, "_PRIME_CEILING", 64)
    monkeypatch.setattr(cyclotomic, "_field_cache", {})
    spec = validate_spec([(3, 2)])
    mu = from_pmf(spec, {(5,): Fraction(1, 4), (7,): Fraction(1, 4), (8,): Fraction(1, 2)})
    small = modular_field(9, 1)
    large = modular_field(9, 2 * 6 * 6)
    assert (small.primes, large.primes) == ((37,), (37, 19))

    def at_root(field, code):
        value = char_fn(mu, spec.element(code))
        scaled = sum(c * field.powers[e] for e, c in value.terms()) * (4 // value.den)
        return scaled % field.modulus

    in_small, in_large = char_residues(mu, small), char_residues(mu, large)
    for code in (5, 1, 5, 4, 0, 1, 8, 5):
        assert in_small(code) == at_root(small, code)
        assert in_large(code) == at_root(large, code)
    assert in_small(5) == 0 and in_large(5) != 0  # 37 divides the value at 5, 703 does not
    assert char_residues(mu, small) is in_small and char_residues(mu, large) is in_large


def test_residues_are_computed_once_per_margin_and_field(monkeypatch):
    # Every margin of an exhaustive Z(9) family meets every other under every
    # automorphism; each residue is still evaluated once per margin and code.
    spec = validate_spec([(3, 2)])
    pmfs = list(enumerate_distributions(spec, 2))
    field = CountingField(modular_field(9, 2 * 2 * 2))
    monkeypatch.setattr(engine, "modular_field", lambda order, weight: field)
    alone = CountingField(modular_field(9, 2 * 2 * 2))
    for mu in pmfs:
        residue = char_residues(mu, alone)
        for code in range(9):
            residue(code)
            residue(code)
    assert alone.reads == 9 * sum(len(mu.masses) for mu in pmfs)
    verdicts = [
        satisfies_heyde_equation(HeydeInstance(spec, mu1, mu2, alpha))
        for alpha in enumerate_automorphisms(spec)
        for mu1 in pmfs
        for mu2 in pmfs
    ]
    assert field.reads <= alone.reads
    assert sum(verdicts) == 108  # the exhaustive sweep report (tests/test_sweep.py)


def test_denominators_near_2_40_on_the_equation():
    # masses with denominators near 2**40 need M > 2 * D1 * D2 ~ 2**81
    spec = validate_spec([(3, 2)])
    big = 2**40 + 15
    mu1 = from_pmf(spec, {(0,): Fraction(1, big), (3,): 1 - Fraction(1, big)})
    mu2 = from_pmf(spec, {(1,): Fraction(2, big + 2), (4,): 1 - Fraction(2, big + 2)})
    assert mu1.den * mu2.den > 2**80
    for alpha in enumerate_automorphisms(spec):
        check_equation(HeydeInstance(spec, mu1, mu2, alpha))
        check_equation(HeydeInstance(spec, mu1, mu1, alpha))
    assert len(modular_field(9, 2 * mu1.den * mu2.den).primes) >= 2
    check_zero_classes(mu1)


# -- the equation on the acceptance corpus (N <= 225) ----------------------------------


def test_equation_agrees_on_the_acceptance_corpus():
    instances = list(corpus.exhaustive_equivalence_instances())
    instances += list(corpus.random_equivalence_instances())
    instances += [fx.instance for fx in corpus.constructed_fixtures()]
    instances += [fx.instance for fx in corpus.haar_case_fixtures()]
    instances += corpus.unit_digit_one_population()
    instances += [fx.instance for fx in corpus.fixed_point_fixtures()]
    instances += [fx.instance for fx in corpus.nonvanishing_difference_fixtures()]
    assert max(inst.spec.exponent for inst in instances) <= 225
    verdicts = set()
    for inst in instances:
        check_equation(inst)
        verdicts.add(satisfies_heyde_equation(inst))
    assert verdicts == {True, False}


# -- the zero tests -------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec", [validate_spec([(3, 2)]), Z9xZ5, Z9xZ5xZ7], ids=lambda spec: spec.describe()
)
def test_zero_classes_on_haar_and_point_masses(spec):
    n = spec.exponent
    for sub in enumerate_subgroups(spec):
        lam = shift(haar(sub), spec.element(n // 3 + 1))
        zero = check_zero_classes(lam)
        # Haar on sub vanishes exactly off its annihilator: whole gcd classes
        step = n // sub.annihilator().order
        assert zero == {g: g % step != 0 for g in zero}
        assert has_haar_factor(lam, sub)
    for x in (oracles.zero(spec), spec.element(1), spec.element(n - 2)):
        zero = check_zero_classes(degenerate(spec, x))
        assert not any(zero.values())


LADDER = [
    validate_spec(components)
    for components in (
        [(3, 2)],
        [(3, 2), (5, 1)],
        [(3, 3), (5, 1)],
        [(3, 2), (5, 1), (7, 1)],
        [(3, 3), (5, 1), (7, 1)],
    )
]


@pytest.mark.parametrize("spec", LADDER, ids=lambda spec: spec.describe())
def test_fold_matches_the_residue_route(spec):
    # seeded margins, every other one convolved with a Haar factor, which
    # gives it whole zero classes
    stream = DeterministicStream(41, label=f"fold {spec.describe()}")
    subs = enumerate_subgroups(spec)
    zeros = 0
    for i in range(12):
        mu = random_distribution(spec, 2 + i % 5, stream.derive(str(i)))
        if i % 2:
            mu = convolve(mu, haar(subs[(7 * i) % len(subs)]))
        zero = char_fn_zero_classes(mu)
        assert zero == oracles.residue_zero_classes(mu)
        zeros += sum(zero.values())
    assert zeros


def test_fold_at_the_weight_boundary(monkeypatch):
    # 1/37 at 0 and 36/37 at 4 on Z(9): the residue at y = 0 is 37, zero
    # mod 37, which is why the residue route needed a modulus above the
    # weight; the fold reads the integer sum 37 itself
    monkeypatch.setattr(cyclotomic, "_PRIME_CEILING", 64)
    monkeypatch.setattr(cyclotomic, "_field_cache", {})
    spec = validate_spec([(3, 2)])
    mu = from_pmf(spec, {(0,): Fraction(1, 37), (4,): Fraction(36, 37)})
    assert char_residues(mu, modular_field(9, 36))(0) == 0
    zero = char_fn_zero_classes(mu)
    assert zero == oracles.residue_zero_classes(mu) == {1: False, 3: False, 9: False}
    assert zero == check_zero_classes(Distribution(spec, mu.den, mu.points))


def test_fold_builds_no_field_and_no_basis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the fold evaluated a character sum")

    monkeypatch.setattr(cyclotomic, "modular_field", refuse)
    monkeypatch.setattr(cyclotomic._Basis, "__init__", refuse)
    monkeypatch.setattr(cyclotomic, "_basis_cache", {})
    spec = LADDER[3]
    sub = Subgroup(spec, (1, 0, 1))
    lam = convolve(from_pmf(spec, {(0, 0, 0): Fraction(2, 3), (3, 1, 0): Fraction(1, 3)}), haar(sub))
    assert any(char_fn_zero_classes(lam).values())
    assert has_haar_factor(lam, sub)


def test_zero_classes_at_315_where_r_is_2():
    # R = 2 is the largest entry of the reduction rows of Phi_315: reduced
    # coordinates can exceed the weight, and the verdicts must not care.
    spec = Z9xZ5xZ7
    pmfs = [
        {(0, 0, 0): Fraction(1, 3), (3, 0, 0): Fraction(1, 3), (6, 0, 0): Fraction(1, 3)},
        {(1, 2, 3): Fraction(1, 2), (4, 2, 3): Fraction(1, 4), (7, 2, 3): Fraction(1, 4)},
        {(0, 0, 0): Fraction(1, 5), (0, 1, 0): Fraction(1, 5), (0, 2, 0): Fraction(1, 5),
         (0, 3, 0): Fraction(1, 5), (0, 4, 6): Fraction(1, 5)},
        {(2, 1, 1): Fraction(2, 7), (5, 3, 0): Fraction(5, 7)},
    ]
    for pmf in pmfs:
        check_zero_classes(from_pmf(spec, pmf))


def test_haar_factor_routes_agree_on_a_constructed_pair_at_315():
    spec = Z9xZ5xZ7
    alpha = make_endo(spec, [2, 2, 2])
    sub = Subgroup(spec, (1, 0, 1))
    assert construction_admissible(sub, alpha)
    rho = from_pmf(spec, {(0, 0, 0): Fraction(2, 3), (3, 1, 0): Fraction(1, 3)})
    inst = construct_instance(sub, alpha, rho, (4, 2, 5)).instance
    check_equation(inst)
    dec = _decompose(inst)
    assert dec.flags.all_true
    report = classify_corollary(inst, dec)
    nonvanishing = report.checks[1].applicable
    exact = all(
        not char_fn(mu, y).is_zero() for mu in (inst.mu1, inst.mu2) for y in oracles.element_list(spec)
    )
    assert nonvanishing == exact


# -- hypothesis-driven cases on Z(9) x Z(5) -------------------------------------------

AUTOMORPHISMS = enumerate_automorphisms(Z9xZ5)
PLUS_I = make_endo(Z9xZ5, [1, 1])
MINUS_I = make_endo(Z9xZ5, [8, 4])


@st.composite
def distributions(draw, spec=Z9xZ5, max_points=5):
    kind = draw(st.sampled_from(["point", "haar", "random"]))
    elements = oracles.element_list(spec)
    if kind == "point":
        return degenerate(spec, draw(st.sampled_from(elements)))
    if kind == "haar":
        sub = draw(st.sampled_from(enumerate_subgroups(spec)))
        return shift(haar(sub), draw(st.sampled_from(elements)))
    points = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=max_points, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(points), max_size=len(points)))
    total = sum(weights)
    return from_pmf(spec, {x: Fraction(w, total) for x, w in zip(points, weights)})


@st.composite
def symmetric_instances(draw):
    alpha = draw(st.sampled_from(AUTOMORPHISMS))
    subs = [s for s in enumerate_subgroups(Z9xZ5) if construction_admissible(s, alpha)]
    sub = draw(st.sampled_from(subs))
    points = [x for x in oracles.element_list(Z9xZ5) if oracles.contains(sub, x)]
    chosen = draw(st.lists(st.sampled_from(points), min_size=1, max_size=3, unique=True))
    rho = from_pmf(Z9xZ5, {x: Fraction(1, len(chosen)) for x in chosen})
    x2 = draw(st.sampled_from(oracles.element_list(Z9xZ5)))
    return construct_instance(sub, alpha, rho, x2).instance


@SETTINGS
@given(
    mu1=distributions(),
    mu2=distributions(),
    alpha=st.sampled_from([PLUS_I, MINUS_I] + AUTOMORPHISMS),
)
@example(mu1=degenerate(Z9xZ5, (1, 2)), mu2=degenerate(Z9xZ5, (1, 2)), alpha=MINUS_I)
@example(mu1=degenerate(Z9xZ5, (1, 2)), mu2=degenerate(Z9xZ5, (4, 0)), alpha=PLUS_I)
@example(  # I + alpha kills 3Z(9) x 0: not invertible on the first component only
    mu1=haar(Subgroup(Z9xZ5, (1, 1))),
    mu2=haar(Subgroup(Z9xZ5, (1, 1))),
    alpha=make_endo(Z9xZ5, [2, 1]),
)
@example(  # I - alpha not invertible on the second component only
    mu1=degenerate(Z9xZ5, (0, 3)),
    mu2=degenerate(Z9xZ5, (0, 1)),
    alpha=make_endo(Z9xZ5, [2, 1]),
)
def test_random_pairs_agree(mu1, mu2, alpha):
    inst = HeydeInstance(Z9xZ5, mu1, mu2, alpha)
    check_equation(inst)
    check_zero_classes(mu1)
    for sub in enumerate_subgroups(Z9xZ5):
        check_haar_factor(mu1, sub)


@SETTINGS
@given(inst=symmetric_instances())
def test_symmetric_pairs_agree(inst):
    check_equation(inst)
    dec = _decompose(inst)  # has_haar_factor raises if its two routes disagree
    assert dec.flags.all_true
    check_zero_classes(dec.lam)
    report = classify_corollary(inst, dec)
    exact = all(
        not char_fn(mu, y).is_zero() for mu in (inst.mu1, inst.mu2) for y in oracles.element_list(Z9xZ5)
    )
    assert report.checks[1].applicable == exact


@SETTINGS
@given(
    pmf1=st.dictionaries(
        st.tuples(st.integers(0, 8), st.integers(0, 4)), st.integers(1, 5), min_size=1, max_size=4
    ),
    pmf2=st.dictionaries(
        st.tuples(st.integers(0, 8), st.integers(0, 4)), st.integers(1, 5), min_size=1, max_size=4
    ),
    k_mult=st.sampled_from([1, 2, 4, 5, 7, 8]),
    digits=st.sampled_from([(1,), (2,), (4,), (3,)]),
)
@example(pmf1={(0, 1): 1}, pmf2={(0, 1): 1}, k_mult=8, digits=(4,))
@example(pmf1={(3, 0): 1, (6, 0): 1}, pmf2={(3, 0): 1, (6, 0): 1}, k_mult=2, digits=(1,))
def test_mixed_product_with_quasicyclic_layer(pmf1, pmf2, k_mult, digits):
    k_spec = validate_spec([(3, 2)])
    as_fractions = [
        {(a, Fraction(b, 5)): Fraction(w, sum(pmf.values())) for (a, b), w in pmf.items()}
        for pmf in (pmf1, pmf2)
    ]
    red = reduce_mixed_product(
        k_spec, make_endo(k_spec, [k_mult]), 5, 1, PAdicUnit(5, digits), *as_fractions
    )
    inst = red.instance
    assert inst.spec.components[-1].kind.value == "quasicyclic"
    check_equation(inst)
    check_zero_classes(inst.mu1)
    if red.decomposition is not None:
        check_zero_classes(red.decomposition.lam)
