"""The lemma-checks fast paths against their references.

The triple-difference scan of verify_difference_lemma runs on CRT codes
with interned values and memoized products, invert_char_table sums packed
integers and decides each mass by the translation fold on the packed
word, and cyclotomic values are reduced in the powerful basis.  Each is
compared here with a plain implementation in oracles.py: the brute triple
scan on tuples, the per-x inversion that reduces each mass with dense
rows modulo Phi_N, and dense reduction modulo Phi_N.  The generator route
of verify_difference_lemma is compared with the full scan; the fold's
verdicts, masses, errors and first failing points with the per-x
reference, at the byte boundaries of both slot widths, on prime-power
axes of two to four radix-p stages, and with no cyclotomic value built.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from heyde import (
    PAdicUnit,
    char_fn_table,
    degenerate,
    from_pmf,
    from_rational,
    haar,
    invert_char_table,
    make_endo,
    reduce_quasicyclic,
    squared_modulus_table,
    validate_spec,
    verify_difference_lemma,
)
from heyde import cyclotomic, distributions, lemmas
from heyde.cyclotomic import CycloElement, from_terms
from heyde.distributions import _biased_words, _widen_words, dual_function
from heyde.errors import VerificationFailure
from heyde.lemmas import _first_triple_violation
from heyde.morphisms import identity

import acceptance_corpus as corpus
import oracles
from limits import time_limit

Z5 = validate_spec([(5, 1)])
Z9 = validate_spec([(3, 2)])
Z3xZ5 = validate_spec([(3, 1), (5, 1)])
Z9xZ5 = validate_spec([(3, 2), (5, 1)])
Z9xZ5xZ7 = validate_spec([(3, 2), (5, 1), (7, 1)])
Z25 = validate_spec([(5, 2)])
Z27 = validate_spec([(3, 3)])
Z27xZ5 = validate_spec([(3, 3), (5, 1)])
Z27xZ5xZ7 = validate_spec([(3, 3), (5, 1), (7, 1)])
Z81 = validate_spec([(3, 4)])
Z125 = validate_spec([(5, 3)])
Z9xZ25 = validate_spec([(3, 2), (5, 2)])
Z729 = validate_spec([(3, 6)])


# -- triple-difference scan ------------------------------------------------------


def step_endos(beta):
    """The step endomorphisms of both conclusions, as verify_difference_lemma uses them."""
    one = identity(beta.spec)
    one_plus, one_minus = one.add(beta), one.add(beta.neg())
    return (one_plus, one.add(one), one_minus), (beta.add(beta), one_plus, one_minus)


def quadratic_table(spec):
    """f(y) = zeta**(y.y): log f is a quadratic form, so every triple
    difference vanishes; the table is not Galois-equivariant."""
    n = spec.exponent
    table = {y: from_terms(n, [(spec.pair_exponent(y, y), 1)]) for y in spec.elements()}
    return dual_function(spec, table)


def random_table(spec, seed, values):
    rng = random.Random(seed)
    n = spec.exponent
    return dual_function(spec, {y: from_rational(n, rng.choice(values)) for y in spec.elements()})


def scan_cases():
    for spec, mult in ((Z5, 2), (Z9, 2), (Z9, 5), (Z9, 1), (Z9, 4), (Z3xZ5, (1, 4))):
        beta = make_endo(spec, list(mult) if isinstance(mult, tuple) else [mult])
        n = spec.exponent
        smooth = quadratic_table(spec)
        last = oracles.element_list(spec)[-1]
        yield spec, beta, smooth
        yield spec, beta, smooth.with_value(last, from_rational(n, Fraction(1, 2)))
        yield spec, beta, smooth.with_value(oracles.element_list(spec)[n // 2], from_terms(n, [(1, 1)]))
        yield spec, beta, random_table(spec, n * 7 + 1, [1, 2, Fraction(3, 2)])
        constant = dual_function(spec, {y: from_rational(n, 3) for y in spec.elements()})
        yield spec, beta, constant.with_value(last, from_rational(n, 5))


@pytest.mark.parametrize("case", list(scan_cases()), ids=lambda c: f"N{c[0].exponent}-beta{c[1].multipliers}")
def test_triple_scan_matches_brute_force(case):
    spec, beta, table = case
    for endos in step_endos(beta):
        expected = oracles.brute_triple_violation(spec.orders, table, [e.multipliers for e in endos])
        assert _first_triple_violation(table, endos) == expected


def test_triple_scan_full_length_without_violation():
    # a clean table is scanned to the end: |A| |B| |C| N checks per conclusion
    table = quadratic_table(Z9xZ5)
    beta = make_endo(Z9xZ5, [1, 4])
    for endos in step_endos(beta):
        sizes = [len({e.apply(k) for k in oracles.element_list(Z9xZ5)}) for e in endos]
        checks, first = _first_triple_violation(table, endos)
        assert first is None and checks == sizes[0] * sizes[1] * sizes[2] * 45


@pytest.mark.parametrize("spec, point", [(Z9, (7,)), (Z3xZ5, (2, 4))])
def test_conclusion_failure_report_is_pinned(monkeypatch, spec, point):
    # The lemma guarantees both conclusions when the hypothesis holds, so a
    # conclusion failure needs the hypothesis check bypassed.
    monkeypatch.setattr(lemmas, "first_equation_violation", lambda *args: None)
    n = spec.exponent
    positive = dual_function(spec, {y: from_rational(n, 2) for y in spec.elements()})
    f = positive.with_value(point, from_rational(n, 3))
    g = positive.with_value(oracles.element_list(spec)[1], from_rational(n, Fraction(1, 3)))
    beta = make_endo(spec, [2] * len(spec.orders))
    report = verify_difference_lemma(f, g, beta)
    assert report.evaluated and not report.ok
    endos1, endos2 = step_endos(beta)
    checks1, first1 = oracles.brute_triple_violation(spec.orders, f, [e.multipliers for e in endos1])
    checks2, first2 = oracles.brute_triple_violation(spec.orders, g, [e.multipliers for e in endos2])
    assert first1 is not None and first2 is not None
    assert report.first_conclusion_ok is False and report.second_conclusion_ok is False
    assert report.checks == checks1 + checks2
    a, b, c, y = first1
    assert report.first_violation == f"steps {(a, b, c)} at y = {y}"


def test_signs_are_decided_once_per_distinct_value(monkeypatch):
    calls = []
    original = lemmas.CycloElement.real_sign

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(lemmas.CycloElement, "real_sign", counting)
    fixture = corpus.nonvanishing_difference_fixtures(1)[0]
    marked_f = squared_modulus_table(fixture.instance.mu1)
    marked_g = squared_modulus_table(fixture.instance.mu2)
    # the sign table serves tables with no margin: the same values, rebuilt
    f, g = oracles.plain_table(marked_f), oracles.plain_table(marked_g)
    distinct = set(f.values) | set(g.values)
    assert verify_difference_lemma(f, g, fixture.instance.alpha.adjoint()).ok
    assert len(calls) == len(distinct) < 2 * f.spec.size
    calls.clear()
    lemmas.verify_fixed_point_lemma(f, g, fixture.instance.alpha.adjoint())
    assert len(calls) <= 2 * len(distinct)
    # a bad value in the second table only is still seen
    last = oracles.element_list(g.spec)[-1]
    beta = fixture.instance.alpha.adjoint()
    assert not verify_difference_lemma(f, g.with_value(last, from_rational(9, -1)), beta).positive_ok
    assert not lemmas.verify_fixed_point_lemma(f, g.with_value(last, from_rational(9, 2)), beta).bounds_ok
    # squared-modulus tables settle positivity and the bounds from their margins
    calls.clear()
    assert verify_difference_lemma(marked_f, marked_g, beta).ok
    assert lemmas.verify_fixed_point_lemma(marked_f, marked_g, beta).evaluated
    assert calls == []


# -- generator route of the difference lemma ------------------------------------------


def periodic_table(spec, rng, d, perturb):
    """A positive rational table constant on the cosets of dZ(N) (by code),
    changed at one random code when perturb is set."""
    n = spec.exponent
    coset = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(d)]
    values = [from_rational(n, coset[r % d]) for r in range(n)]
    if perturb:
        r = rng.randrange(n)
        values[r] = from_rational(n, coset[r % d] + Fraction(1, rng.randint(2, 5)))
    return dual_function(spec, zip(map(spec.element, range(spec.exponent)), values))


def dominant_margin(spec, rng):
    """A margin with one atom of mass 3/5, so its character sums never vanish."""
    points = rng.sample(oracles.element_list(spec), 3)
    return from_pmf(spec, {points[0]: Fraction(3, 5), points[1]: Fraction(1, 5), points[2]: Fraction(1, 5)})


def generator_cases(spec, rng):
    """Endless (beta, f, g) with random beta, non-units included, and tables
    of three kinds: squared moduli of random margins, and positive rational
    tables periodic under the image of I + beta or of I - beta (every
    conclusion holds, because one step set lies in the period), perturbed
    at one point or not."""
    n = spec.exponent
    one = identity(spec)
    while True:
        beta = make_endo(spec, [rng.randrange(q) for q in spec.orders])
        periods = [math.gcd(e.code, n) for e in (one.add(beta), one.add(beta.neg()))]
        tables = []
        for _ in range(2):
            kind = rng.randrange(3)
            if kind == 0:
                tables.append(squared_modulus_table(dominant_margin(spec, rng)))
            else:
                tables.append(periodic_table(spec, rng, rng.choice(periods), perturb=kind == 2))
        yield beta, tables[0], tables[1]


@pytest.mark.parametrize(
    "spec, budget",
    [(Z5, 2000), (Z9, 15000), (Z3xZ5, 30000), (Z9xZ5, 200000)],
    ids=["Z5", "Z9", "Z3xZ5", "Z9xZ5"],
)
def test_generator_route_reports_equal_the_full_scan(monkeypatch, spec, budget):
    # The hypothesis is bypassed so that arbitrary positive tables reach the
    # conclusions.  A case is kept when its full scans, which make as many
    # checks as the report counts, fit the budget.
    monkeypatch.setattr(lemmas, "first_equation_violation", lambda *args: None)
    kept, outcomes, units = 0, set(), set()
    cases = generator_cases(spec, random.Random(spec.exponent * 101))
    for beta, f, g in itertools.islice(cases, 200):
        fast = verify_difference_lemma(f, g, beta)
        assert fast.evaluated
        if fast.checks > budget:
            continue
        with monkeypatch.context() as full:
            full.setattr(
                lemmas, "_generator_triple_violation", lambda fn, endos, field: lemmas._first_triple_violation(fn, endos)
            )
            slow = verify_difference_lemma(f, g, beta)
        assert fast == slow, beta.multipliers
        kept += 1
        outcomes.add((fast.first_conclusion_ok, fast.second_conclusion_ok))
        units.add(beta.is_automorphism())
        # until both routes have met a unit and a non-unit beta, a pair that
        # passes and a pair with one passing and one failing conclusion
        mixed = outcomes & {(True, False), (False, True)}
        if kept >= 8 and (True, True) in outcomes and mixed and len(units) == 2:
            break
    else:
        pytest.fail(f"200 cases kept {kept} with outcomes {outcomes} and units {units}")


def test_generator_route_counts_every_quadruple_it_certifies():
    # beta = -I with |f|**2 of a 3-point margin: the hypothesis holds, and in
    # each conclusion the step set of I + beta is trivial and the other two
    # are the whole group
    for spec in (Z9, Z3xZ5):
        mu = dominant_margin(spec, random.Random(3))
        f = squared_modulus_table(mu)
        beta = make_endo(spec, [q - 1 for q in spec.orders])
        report = verify_difference_lemma(f, f, beta)
        n = spec.exponent
        assert report.ok and report.checks == 2 * n**3


# -- the float log residual --------------------------------------------------------


def _log_residuals(f1, f2, beta):
    """(lemmas._log_residual, oracles.log_residual) on the tables, each the
    float or the name of the error it raised (a zero value has no log)."""
    outcomes = []
    for route in (lemmas._log_residual, oracles.log_residual):
        try:
            outcomes.append(route(f1, f2, beta))
        except ValueError as exc:
            outcomes.append(repr(exc))
    return outcomes


def test_the_log_residual_equals_the_pair_loop_on_the_verify_lemmas_corpus():
    fixtures = corpus.fixed_point_fixtures() + corpus.nonvanishing_difference_fixtures(50)
    assert len(fixtures) == 150
    evaluated = 0
    for fixture in fixtures:
        inst = fixture.instance
        f1, f2 = squared_modulus_table(inst.mu1), squared_modulus_table(inst.mu2)
        new, old = _log_residuals(f1, f2, inst.alpha.adjoint())
        assert new == old
        evaluated += isinstance(new, float)
    assert evaluated >= 50


def test_the_log_residual_equals_the_pair_loop_on_random_tables():
    # values of every sign pattern of their logs, spread over many binades,
    # under every endomorphism, units or not, on one, two and three axes
    rng = random.Random(945)
    for spec in (Z9, Z27, Z3xZ5, Z9xZ5, validate_spec([(3, 1), (5, 1), (7, 1)])):
        n = spec.exponent
        for trial in range(3):
            f1, f2 = (
                dual_function(
                    spec,
                    {
                        spec.element(y): from_rational(
                            n, Fraction(rng.randint(1, 10**rng.randint(1, 9)), rng.randint(1, 10**6))
                        )
                        for y in range(n)
                    },
                )
                for _ in range(2)
            )
            codes = range(n) if n <= 27 else rng.sample(range(n), 12)
            for b in codes:
                new, old = _log_residuals(f1, f2, make_endo(spec, spec.element(b)))
                assert new == old and isinstance(new, float)


# -- Fourier inversion -------------------------------------------------------------


def reference(spec, table):
    return oracles.reference_invert_char_table(spec, table)


def acceptance_margins():
    """Every distinct margin that acceptance criterion 11 inverts."""
    seen = {}

    def add(*mus):
        for mu in mus:
            seen.setdefault((mu.spec, mu.masses), mu)

    for inst in corpus.exhaustive_equivalence_instances():
        add(inst.mu1, inst.mu2)
    for inst in corpus.random_equivalence_instances(500):
        add(inst.mu1, inst.mu2)
    for fixture in corpus.constructed_fixtures(200):
        add(fixture.instance.mu1, fixture.instance.mu2, fixture.lam)
    for pmf in corpus.quasicyclic_denominator4_pmfs():
        report = reduce_quasicyclic(3, 1, pmf, dict(pmf), PAdicUnit(3, (2,)))
        add(report.instance.mu1, report.instance.mu2)
    for fixture in corpus.haar_case_fixtures():
        add(fixture.instance.mu1, fixture.instance.mu2, fixture.lam)
    for inst in corpus.unit_digit_one_population():
        add(inst.mu1, inst.mu2)
    return list(seen.values())


def test_packed_inversion_matches_reference_on_the_acceptance_corpus():
    margins = acceptance_margins()
    assert len(margins) > 500
    for mu in margins:
        table = char_fn_table(mu)
        assert invert_char_table(mu.spec, table) == reference(mu.spec, table) == mu


def test_packed_inversion_matches_reference_on_n315():
    spec = Z9xZ5xZ7
    els = oracles.element_list(spec)
    rng = random.Random(315)
    weights = [rng.randint(1, 9) for _ in range(5)]
    margins = [
        degenerate(spec, els[200]),
        haar(oracles.full_subgroup(spec)),
        from_pmf(spec, {els[3]: Fraction(1, 7), els[100]: Fraction(2, 7), els[301]: Fraction(4, 7)}),
        from_pmf(spec, {x: Fraction(w, sum(weights)) for x, w in zip(rng.sample(els, 5), weights)}),
    ]
    for mu in margins:
        table = char_fn_table(mu)
        assert invert_char_table(spec, table) == reference(spec, table) == mu


def test_wide_slots_for_large_denominators():
    big = 2**40
    for spec in (Z9, Z9xZ5):
        els = oracles.element_list(spec)
        for num, den in ((1, big), (big - 1, big), (12345, big + 15), (7, (big + 1) * (big + 3))):
            mu = from_pmf(spec, {els[1]: Fraction(num, den), els[-2]: 1 - Fraction(num, den)})
            table = char_fn_table(mu)
            assert invert_char_table(spec, table) == reference(spec, table) == mu


def test_non_equivariant_table_fails_at_the_same_point():
    for spec in (Z9, Z9xZ5):
        els = oracles.element_list(spec)
        mu = from_pmf(spec, {els[1]: Fraction(1, 3), els[4]: Fraction(2, 3)})
        table = char_fn_table(mu)
        y = els[2]
        table = table.with_value(y, table(y) + from_terms(spec.exponent, [(1, 1)]))
        with pytest.raises(VerificationFailure) as packed:
            invert_char_table(spec, table)
        with pytest.raises(VerificationFailure) as slow:
            reference(spec, table)
        assert str(packed.value) == str(slow.value)
        assert str(packed.value).startswith("inversion produced a non-rational mass at")


def test_negative_mass_raises_the_same_value_error():
    els = oracles.element_list(Z9xZ5)
    mu1 = from_pmf(Z9xZ5, {els[0]: Fraction(1, 2), els[4]: Fraction(1, 2)})
    mu2 = degenerate(Z9xZ5, els[7])
    t1, t2 = char_fn_table(mu1), char_fn_table(mu2)
    table = dual_function(Z9xZ5, {y: t1(y) * 2 - t2(y) for y in els})  # inverts to 2 mu1 - mu2
    with pytest.raises(ValueError) as packed:
        invert_char_table(Z9xZ5, table)
    with pytest.raises(ValueError) as slow:
        reference(Z9xZ5, table)
    assert str(packed.value) == str(slow.value) == "masses must be strictly positive"


def test_entries_more_negative_than_positive():
    # slots are biased by the largest |coefficient|, not the largest coefficient
    for spec in (Z9, Z9xZ5):
        n = spec.exponent
        table = char_fn_table(haar(oracles.full_subgroup(spec)))
        table = table.with_value(oracles.element_list(spec)[1], from_rational(n, -7))
        with pytest.raises(VerificationFailure) as packed:
            invert_char_table(spec, table)
        with pytest.raises(VerificationFailure) as slow:
            reference(spec, table)
        assert str(packed.value) == str(slow.value)
        # rational and constant on unit orbits, so every mass is rational
        # and the table fails only Distribution's checks
        table = dual_function(
            spec, {y: from_rational(n, -7 if spec.pair_exponent(y, y) else 15) for y in spec.elements()}
        )
        with pytest.raises(ValueError) as packed:
            invert_char_table(spec, table)
        with pytest.raises(ValueError) as slow:
            reference(spec, table)
        assert str(packed.value) == str(slow.value)


@pytest.mark.parametrize("spec", [Z25, Z27], ids=["Z25", "Z27"])
def test_axis_wise_inversion_on_one_axis(spec):
    els = oracles.element_list(spec)
    rng = random.Random(spec.exponent)
    margins = [
        haar(oracles.full_subgroup(spec)),
        from_pmf(spec, {els[1]: Fraction(2, 3), els[-1]: Fraction(1, 3)}),
        from_pmf(spec, {x: Fraction(w, 15) for x, w in zip(rng.sample(els, 5), (1, 2, 3, 4, 5))}),
    ]
    for mu in margins:
        table = char_fn_table(mu)
        assert invert_char_table(spec, table) == reference(spec, table) == mu


def test_axis_wise_inversion_round_trip_on_three_axes():
    # also the growth guard of the inversion: N = 945, a 4-point margin
    spec = Z27xZ5xZ7
    els = oracles.element_list(spec)
    rng = random.Random(945)
    weights = [rng.randint(1, 9) for _ in range(4)]
    mu = from_pmf(spec, {x: Fraction(w, sum(weights)) for x, w in zip(rng.sample(els, 4), weights)})
    with time_limit(2):
        assert invert_char_table(spec, char_fn_table(mu)) == mu


def test_radix_inversion_round_trip_on_z729():
    # the growth guard of the radix stages: six radix-3 stages on one
    # axis, N = 729, a 4-point margin, table included
    spec = Z729
    els = oracles.element_list(spec)
    rng = random.Random(729)
    weights = [rng.randint(1, 9) for _ in range(4)]
    mu = from_pmf(spec, {x: Fraction(w, sum(weights)) for x, w in zip(rng.sample(els, 4), weights)})
    with time_limit(1):
        assert invert_char_table(spec, char_fn_table(mu)) == mu


def inversion_outcome(invert, spec, table):
    """What invert returns, or the type and message of what it raises."""
    try:
        return invert(spec, table)
    except (ValueError, VerificationFailure) as exc:
        return type(exc), str(exc)


def unit_orbit(spec, y):
    """The dual elements y' with gcd(crt(y'), N) = gcd(crt(y), N)."""
    n = spec.exponent
    g = math.gcd(spec.crt(y), n)
    return [z for z in oracles.element_list(spec) if math.gcd(spec.crt(z), n) == g]


@pytest.mark.parametrize(
    "spec",
    [Z9, Z25, Z27, Z81, Z9xZ5, Z27xZ5, Z9xZ25, Z9xZ5xZ7],
    ids=["Z9", "Z25", "Z27", "Z81", "Z9xZ5", "Z27xZ5", "Z9xZ25", "Z9xZ5xZ7"],
)
def test_fold_verdicts_match_the_reference(spec):
    # Tables of random margins, changed at one random y by a term
    # c * zeta**e, which leaves a non-rational mass at every x with
    # pair_exponent(x, y) != e, or by a rational constant on one whole unit
    # orbit, which keeps every mass rational.  Both routes must return the
    # same distribution or raise the same error with the same message.
    # Every other margin is half uniform and its constant is below
    # 1 / (2N), so those masses stay positive; the orbits y' != 0 keep the
    # total at 1.
    n = spec.exponent
    els = oracles.element_list(spec)
    rng = random.Random(n * 13)
    kinds, firsts = set(), set()
    for i in range(4 if n > 100 else 8):
        size = rng.randint(1, 4)
        weights = [rng.randint(1, 9) for _ in range(size)]
        pmf = {x: Fraction(w, sum(weights)) for x, w in zip(rng.sample(els, size), weights)}
        if i % 2:
            pmf = {x: (pmf.get(x, 0) + Fraction(1, n)) / 2 for x in els}
            c = Fraction(rng.choice([-1, 1]), 2 * n + rng.randint(1, 9))
        else:
            c = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 5))
        mu = from_pmf(spec, pmf)
        table = char_fn_table(mu)
        y = rng.choice(els[1:])
        e = rng.randrange(n) if i % 2 else 0  # e = 0: the first failure is past x = 0
        change = from_terms(n, [(e, rng.choice([-3, -1, 1, 2]))], rng.randint(1, 4))
        bad = table.with_value(y, table(y) + change)
        found = inversion_outcome(invert_char_table, spec, bad)
        assert found == inversion_outcome(reference, spec, bad)
        assert found[0] is VerificationFailure
        firsts.add(found[1])
        shifted = table
        for z in unit_orbit(spec, rng.choice(els[1:])):
            shifted = shifted.with_value(z, table(z) + c)
        found = inversion_outcome(invert_char_table, spec, shifted)
        assert found == inversion_outcome(reference, spec, shifted)
        kinds.add(found[0] if isinstance(found, tuple) else "distribution")
    assert kinds == {ValueError, "distribution"}
    assert len(firsts) > 1


@pytest.mark.parametrize("spec", [Z81, Z125, Z27xZ5, Z9xZ25], ids=["Z81", "Z125", "Z27xZ5", "Z9xZ25"])
def test_radix_stages_match_the_reference(spec):
    # Every prime-power axis here runs two to four radix-p stages.  Round
    # trips of random margins must give the margin, as the reference does.
    # Their tables changed at one entry must give the reference's error and
    # message: by c * zeta**e at a random y, which leaves a non-rational
    # mass at every x with pair_exponent(x, y) != e (e = 0 every other
    # time, so the first failure falls past x = 0), or by a rational
    # constant at 0, which moves every mass by the same amount and breaks
    # the total or the sign of a mass.
    n = spec.exponent
    els = oracles.element_list(spec)
    zero = oracles.zero(spec)
    rng = random.Random(n * 7)
    kinds, firsts = set(), set()
    for i in range(6):
        size = rng.randint(1, 4)
        weights = [rng.randint(1, 9) for _ in range(size)]
        mu = from_pmf(spec, {x: Fraction(w, sum(weights)) for x, w in zip(rng.sample(els, size), weights)})
        table = char_fn_table(mu)
        assert invert_char_table(spec, table) == reference(spec, table) == mu
        y = rng.choice(els[1:])
        e = rng.randrange(n) if i % 2 else 0
        change = from_terms(n, [(e, rng.choice([-3, -1, 1, 2]))], rng.randint(1, 4))
        constant = Fraction(rng.choice([-1, 1]), rng.randint(1, 3) * n)
        for bad in (table.with_value(y, table(y) + change), table.with_value(zero, table(zero) + constant)):
            found = inversion_outcome(invert_char_table, spec, bad)
            assert found == inversion_outcome(reference, spec, bad)
            kinds.add(found[0])
            if found[0] is VerificationFailure:
                firsts.add(found[1])
    assert kinds == {VerificationFailure, ValueError}
    assert len(firsts) > 1


def test_inversion_builds_no_cyclotomic_value(monkeypatch):
    # the fold reads every mass from the packed words; the table's own
    # values are read by their coordinates, nothing is reduced, and the
    # result is built on codes, not through an element-keyed pmf
    spec = Z9xZ5xZ7
    els = oracles.element_list(spec)
    mu = from_pmf(spec, {els[3]: Fraction(1, 7), els[100]: Fraction(2, 7), els[301]: Fraction(4, 7)})
    table = char_fn_table(mu)
    bad = table.with_value(els[5], table(els[5]) + from_terms(spec.exponent, [(4, 1)]))

    def refuse(*args, **kwargs):
        raise AssertionError("inversion reduced a cyclotomic value or built a pmf")

    monkeypatch.setattr(cyclotomic, "from_terms", refuse)
    monkeypatch.setattr(cyclotomic.CycloElement, "_make", refuse)
    monkeypatch.setattr(distributions, "from_pmf", refuse)
    assert invert_char_table(spec, table) == mu
    with pytest.raises(VerificationFailure):
        invert_char_table(spec, bad)


def test_slot_width_at_each_byte_boundary():
    # mu = (1 - 1/D) delta_0 + (1/D) uniform has table 1 at 0 and (D - 1)/D
    # elsewhere, so the largest coefficient over D is B = D.  The slot width
    # is 8 * (bit_length(2N(B + 1)) // 8 + 1) bits, one byte more each time
    # 2N(B + 1) reaches 2**(8j - 1); D is taken just below and at each such
    # point, which covers every slot size from 1 to 11 bytes.
    for spec in (Z9, Z9xZ5):
        n = spec.exponent
        uniform = {x: Fraction(1, n) for x in oracles.element_list(spec)}
        for j in range(1, 11):
            edge = 2 ** (8 * j - 1)
            below = (edge - 1) // (2 * n) - 1  # 2N(D + 1) < edge
            for den in (below, below + 1):
                if den < 2:
                    continue
                assert (2 * n * (den + 1) >= edge) == (den > below)
                pmf = {x: m / den for x, m in uniform.items()}
                pmf[oracles.zero(spec)] += 1 - Fraction(1, den)
                mu = from_pmf(spec, pmf)
                table = char_fn_table(mu)
                assert math.lcm(*(v.den for v in table.values)) == den
                assert max(abs(c) * (den // v.den) for v in table.values for _, c in v.terms()) == den
                assert invert_char_table(spec, table) == mu


def test_fold_width_at_each_byte_boundary():
    # The fold widens each slot to wide = bit_length(N * B * 2**(h + 1)) // 8 + 1
    # bytes for h primes, one byte more each time N * B * 2**(h + 1)
    # reaches 2**(8j - 1).  mu = (1 - 1/D) delta_0 + (1/D) uniform has
    # B = D, and at x = 0 a mass of N * D - N + 1 over N * D, which after
    # the fold puts 2**h * N * D + N * D - N + 1 in slot 0: more than the
    # packing width holds when 2N(D + 1) is just below its own boundary.
    # D is taken just below and at each boundary of both widths.
    for spec in (Z9xZ5, Z9xZ5xZ7):
        n = spec.exponent
        h = len(spec.components)
        uniform = {x: Fraction(1, n) for x in oracles.element_list(spec)}
        dens = set()
        for j in range(1, 11):
            edge = 2 ** (8 * j - 1)
            fold_below = (edge - 1) // (n << h + 1)  # N * D * 2**(h + 1) < edge
            pack_below = (edge - 1) // (2 * n) - 1  # 2N(D + 1) < edge
            assert n * fold_below << h + 1 < edge <= n * (fold_below + 1) << h + 1
            dens.update({fold_below, fold_below + 1, pack_below, pack_below + 1})
        for den in sorted(d for d in dens if d >= 2):
            pmf = {x: m / den for x, m in uniform.items()}
            pmf[oracles.zero(spec)] += 1 - Fraction(1, den)
            mu = from_pmf(spec, pmf)
            assert invert_char_table(spec, char_fn_table(mu)) == mu


def test_slot_packing_round_trips_at_every_width():
    # read at every slot width from 1 to 11 bytes, then widened to every
    # width from that one to 12 bytes, as inversion widens before its fold.
    # Values over 1 are scaled by the common denominator 3, coordinates
    # reach -bias and bias, so slots reach 0 and 2 * bias, and on Z(15) the
    # coordinates sit at exponents out of coordinate order.
    n = 15
    degree = len(from_rational(n, 1).num)
    rng = random.Random(8)
    for nbytes in range(1, 12):
        bias = (256**nbytes - 1) // 2
        values = []
        for y in range(n):
            den = 3 if y % 2 else 1
            top = bias // (3 // den)
            num = [rng.randint(-top, top) for _ in range(degree)]
            if y < 2:
                num[:4] = [-top, top, 0, 1 - top]
            values.append(CycloElement(n, tuple(num), den))
        slots = []
        for value in values:
            row = [bias] * n
            for e, c in value.terms():
                row[e] += c * (3 // value.den)
            slots.append(row)
        assert {0, 2 * bias} <= {c for row in slots for c in row}
        words = _biased_words(values, 3, bias, nbytes)
        assert words == [sum(c << (8 * nbytes * k) for k, c in enumerate(row)) for row in slots]
        for wide in range(nbytes, 13):
            assert _widen_words(words, n, nbytes, wide) == [
                sum(c << (8 * wide * k) for k, c in enumerate(row)) for row in slots
            ]


def test_non_rational_table_fails_at_the_reference_point_on_three_axes():
    # The table of delta_0 with one entry changed: every mass with
    # pair_exponent(x, y0) != 0 is then non-rational, and the first such x
    # in element order comes after the 35 elements with x[0] == 0.
    spec = Z9xZ5xZ7
    n = spec.exponent
    table = dual_function(spec, {y: from_rational(n, 2 if y == (1, 0, 0) else 1) for y in oracles.element_list(spec)})
    with pytest.raises(VerificationFailure) as packed:
        invert_char_table(spec, table)
    with pytest.raises(VerificationFailure) as slow:
        reference(spec, table)
    assert str(packed.value) == str(slow.value) == "inversion produced a non-rational mass at (1, 0, 0)"


def test_dual_function_refuses_a_mapping_that_does_not_cover_the_dual():
    mapping = dict(zip(oracles.element_list(Z9), char_fn_table(degenerate(Z9, (0,))).values))
    with pytest.raises(ValueError, match="^table must cover every dual element$"):
        dual_function(Z9, {(0,): from_rational(9, 1)})
    unreduced = dict(mapping)
    unreduced[(9,)] = unreduced.pop((0,))
    with pytest.raises(ValueError, match="^table must cover every dual element$"):
        dual_function(Z9, unreduced)
    extra = dict(mapping)
    extra[(9,)] = mapping[(0,)]
    with pytest.raises(ValueError, match="^table must cover every dual element$"):
        dual_function(Z9, extra)
    assert invert_char_table(Z9, dual_function(Z9, mapping)) == degenerate(Z9, (0,))


def test_inversion_refuses_a_table_that_is_not_a_dual_function_on_spec():
    table = char_fn_table(degenerate(Z9, (0,)))
    with pytest.raises(ValueError, match="^table must be a DualFunction on "):
        invert_char_table(Z9, dict(zip(oracles.element_list(Z9), table.values)))
    # N = 45 in each, so each table has the right length: Z(5) x Z(9)
    # orders its coordinates the other way, and a p-adic Z(9) is another
    # group for the corollaries
    for other in (validate_spec([(5, 1), (3, 2)]), validate_spec([(3, 2, "padic"), (5, 1)])):
        table = char_fn_table(degenerate(other, oracles.zero(other)))
        assert len(table.values) == Z9xZ5.exponent
        with pytest.raises(ValueError, match=r"^table must be a DualFunction on Z\(3\^2\) x Z\(5\)$"):
            invert_char_table(Z9xZ5, table)


def test_inversion_refuses_values_of_another_field():
    # a Q(zeta_27) value, whose exponents reach past N = 9, and a zeta_3,
    # which must not be read as zeta_9
    table = char_fn_table(degenerate(Z9, (0,)))
    for value in (from_terms(27, [(1, 1)]), from_terms(3, [(1, 1)]), from_rational(3, 1), Fraction(1)):
        with pytest.raises(ValueError, match="^table values must be CycloElements of order 9$"):
            invert_char_table(Z9, table.with_value((1,), value))


# -- powerful basis ---------------------------------------------------------------------


def test_sparse_rows_match_dense_reduction_for_every_odd_order():
    # The powerful basis, read back through terms(), against reduction
    # modulo Phi_n with dense rows: from_terms, the product and conj.
    rng = random.Random(945)
    for n in range(1, 946, 2):
        phi = oracles.cyclotomic_polynomial(n)
        degree = len(phi) - 1
        dense = oracles.dense_reduction_rows(n, phi)

        def reduce(terms):
            vec = [0] * n
            for e, c in terms:
                vec[e % n] += c
            return oracles.dense_reduce(n, dense, degree, vec)

        terms = [(rng.randrange(-n, 2 * n), rng.randint(-50, 50)) for _ in range(12)]
        a = from_terms(n, terms)
        assert len(a.num) == degree
        assert reduce(a.terms()) == reduce(terms)
        assert reduce(a.conj().terms()) == reduce((-e, c) for e, c in terms)
        b = from_terms(n, [(rng.randrange(n), rng.randint(-9, 9)) for _ in range(6)])
        c = from_terms(n, [(rng.randrange(n), rng.randint(-9, 9)) for _ in range(6)])
        expected = oracles.dense_mul(n, dense, degree, reduce(b.terms()), reduce(c.terms()))
        assert reduce((b * c).terms()) == expected
