"""The lemma-checks fast paths against their references.

The triple-difference scan of verify_difference_lemma runs on CRT codes
with interned values and memoized products, invert_char_table sums packed
integers, and the cyclotomic reduction rows are sparse.  Each is compared
here with a plain implementation in oracles.py: the brute triple scan on
tuples, the per-x inversion with dense rows, and dense reduction.
"""

import random
from fractions import Fraction

import pytest

from heyde import (
    PAdicUnit,
    char_fn_table,
    degenerate,
    from_pmf,
    from_rational,
    full_subgroup,
    haar,
    invert_char_table,
    make_endo,
    reduce_quasicyclic,
    squared_modulus_table,
    validate_spec,
    verify_difference_lemma,
)
from heyde import lemmas
from heyde.cyclotomic import _ring, cyclotomic_polynomial, from_terms, zeta
from heyde.errors import VerificationFailure
from heyde.lemmas import _first_triple_violation, dual_function
from heyde.morphisms import identity

import acceptance_corpus as corpus
import oracles

Z5 = validate_spec([(5, 1)])
Z9 = validate_spec([(3, 2)])
Z3xZ5 = validate_spec([(3, 1), (5, 1)])
Z9xZ5 = validate_spec([(3, 2), (5, 1)])
Z9xZ5xZ7 = validate_spec([(3, 2), (5, 1), (7, 1)])


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
    return dual_function(spec, {y: zeta(n, spec.pair_exponent(y, y)) for y in spec.elements()})


def random_table(spec, seed, values):
    rng = random.Random(seed)
    n = spec.exponent
    return dual_function(spec, {y: from_rational(n, rng.choice(values)) for y in spec.elements()})


def scan_cases():
    for spec, mult in ((Z5, 2), (Z9, 2), (Z9, 5), (Z9, 1), (Z9, 4), (Z3xZ5, (1, 4))):
        beta = make_endo(spec, list(mult) if isinstance(mult, tuple) else [mult])
        n = spec.exponent
        smooth = quadratic_table(spec)
        last = spec.element_list[-1]
        yield spec, beta, smooth
        yield spec, beta, smooth.with_value(last, from_rational(n, Fraction(1, 2)))
        yield spec, beta, smooth.with_value(spec.element_list[n // 2], zeta(n, 1))
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
        sizes = [len({e.apply(k) for k in Z9xZ5.element_list}) for e in endos]
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
    g = positive.with_value(spec.element_list[1], from_rational(n, Fraction(1, 3)))
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
    f = squared_modulus_table(fixture.instance.mu1)
    g = squared_modulus_table(fixture.instance.mu2)
    distinct = set(f.values) | set(g.values)
    assert verify_difference_lemma(f, g, fixture.instance.alpha.adjoint()).ok
    assert len(calls) == len(distinct) < 2 * f.spec.size
    calls.clear()
    lemmas.verify_fixed_point_lemma(f, g, fixture.instance.alpha.adjoint())
    assert len(calls) <= 2 * len(distinct)
    # a bad value in the second table only is still seen
    last = g.spec.element_list[-1]
    beta = fixture.instance.alpha.adjoint()
    assert not verify_difference_lemma(f, g.with_value(last, from_rational(9, -1)), beta).positive_ok
    assert not lemmas.verify_fixed_point_lemma(f, g.with_value(last, from_rational(9, 2)), beta).bounds_ok


# -- Fourier inversion -------------------------------------------------------------


def reference(spec, table):
    return oracles.reference_invert_char_table(spec, table, cyclotomic_polynomial(spec.exponent))


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
    els = spec.element_list
    rng = random.Random(315)
    weights = [rng.randint(1, 9) for _ in range(5)]
    margins = [
        degenerate(spec, els[200]),
        haar(full_subgroup(spec)),
        from_pmf(spec, {els[3]: Fraction(1, 7), els[100]: Fraction(2, 7), els[301]: Fraction(4, 7)}),
        from_pmf(spec, {x: Fraction(w, sum(weights)) for x, w in zip(rng.sample(els, 5), weights)}),
    ]
    for mu in margins:
        table = char_fn_table(mu)
        assert invert_char_table(spec, table) == reference(spec, table) == mu


def test_wide_slots_for_large_denominators():
    big = 2**40
    for spec in (Z9, Z9xZ5):
        els = spec.element_list
        for num, den in ((1, big), (big - 1, big), (12345, big + 15), (7, (big + 1) * (big + 3))):
            mu = from_pmf(spec, {els[1]: Fraction(num, den), els[-2]: 1 - Fraction(num, den)})
            table = char_fn_table(mu)
            assert invert_char_table(spec, table) == reference(spec, table) == mu


def test_non_equivariant_table_fails_at_the_same_point():
    for spec in (Z9, Z9xZ5):
        els = spec.element_list
        mu = from_pmf(spec, {els[1]: Fraction(1, 3), els[4]: Fraction(2, 3)})
        table = char_fn_table(mu)
        y = els[2]
        table[y] = table[y] + zeta(spec.exponent, 1)
        with pytest.raises(VerificationFailure) as packed:
            invert_char_table(spec, table)
        with pytest.raises(VerificationFailure) as slow:
            reference(spec, table)
        assert str(packed.value) == str(slow.value)
        assert str(packed.value).startswith("inversion produced a non-rational mass at")


def test_negative_mass_raises_the_same_value_error():
    els = Z9xZ5.element_list
    mu1 = from_pmf(Z9xZ5, {els[0]: Fraction(1, 2), els[4]: Fraction(1, 2)})
    mu2 = degenerate(Z9xZ5, els[7])
    t1, t2 = char_fn_table(mu1), char_fn_table(mu2)
    table = {y: t1[y] * 2 - t2[y] for y in t1}  # inverts to 2 mu1 - mu2
    with pytest.raises(ValueError) as packed:
        invert_char_table(Z9xZ5, table)
    with pytest.raises(ValueError) as slow:
        reference(Z9xZ5, table)
    assert str(packed.value) == str(slow.value) == "masses must be strictly positive"


def test_entries_more_negative_than_positive():
    # slots are biased by the largest |coefficient|, not the largest coefficient
    for spec in (Z9, Z9xZ5):
        n = spec.exponent
        table = char_fn_table(haar(full_subgroup(spec)))
        table[spec.element_list[1]] = from_rational(n, -7)
        with pytest.raises(VerificationFailure) as packed:
            invert_char_table(spec, table)
        with pytest.raises(VerificationFailure) as slow:
            reference(spec, table)
        assert str(packed.value) == str(slow.value)
        # rational and constant on unit orbits, so every mass is rational
        # and the table fails only from_pmf's checks
        table = {y: from_rational(n, -7 if spec.pair_exponent(y, y) else 15) for y in spec.elements()}
        with pytest.raises(ValueError) as packed:
            invert_char_table(spec, table)
        with pytest.raises(ValueError) as slow:
            reference(spec, table)
        assert str(packed.value) == str(slow.value)


# -- sparse reduction rows -----------------------------------------------------------


def test_sparse_rows_match_dense_reduction_for_every_odd_order():
    rng = random.Random(945)
    for n in range(1, 946, 2):
        phi = cyclotomic_polynomial(n)
        degree = len(phi) - 1
        dense = oracles.dense_reduction_rows(n, phi)
        ring = _ring(n)
        assert ring.rows == tuple(tuple((t, c) for t, c in enumerate(row) if c) for row in dense[: n - degree])
        terms = [(rng.randrange(2 * n), rng.randint(-50, 50)) for _ in range(12)]
        vec = [0] * (2 * n)
        for e, c in terms:
            vec[e] += c
        assert list(from_terms(n, terms).num) == oracles.dense_reduce(n, dense, degree, vec)
        a = from_terms(n, [(rng.randrange(n), rng.randint(-9, 9)) for _ in range(6)])
        b = from_terms(n, [(rng.randrange(n), rng.randint(-9, 9)) for _ in range(6)])
        assert list((a * b).num) == oracles.dense_mul(n, dense, degree, list(a.num), list(b.num))
