"""The integer routes of verify-lemmas against their references.

CycloElement.real_sign sums integer brackets of 2**B cos(2 pi e / N) from
a per-process cosine table; oracles.reference_real_sign is the per-term
mpmath interval sum it replaced.  A table that char_fn_table built carries
its distribution, and the verifiers decide its identities on residues; the
same values rebuilt through dual_function carry none and go by the
interned route, the reference, so the two must give equal reports.
"""

from fractions import Fraction

import pytest
from mpmath import iv

from heyde import (
    DeterministicStream,
    construct_instance,
    convolve,
    from_pmf,
    from_rational,
    from_terms,
    haar,
    identity,
    make_endo,
    minus_identity,
    random_distribution,
    reflect,
    squared_modulus_table,
    validate_spec,
    verify_difference_lemma,
    verify_fixed_point_lemma,
)
from heyde import cyclotomic, lemmas
from heyde.distributions import Distribution, dual_function

import oracles
from limits import time_limit

Z9 = validate_spec([(3, 2)])
Z27 = validate_spec([(3, 3)])
Z9xZ5 = validate_spec([(3, 2), (5, 1)])
Z27xZ5 = validate_spec([(3, 3), (5, 1)])
GROUPS = [Z9, Z27, Z9xZ5, Z27xZ5]


def _describe(spec):
    return "x".join(f"Z{q}" for q in spec.orders)


def _dominant(spec, stream):
    """Mass 3/4 at 0 and 1/4 spread by a random margin: |char|**2 >= 1/4."""
    bulk = random_distribution(spec, 8, stream)
    pmf = {x: m / 4 for x, m in bulk.masses}
    pmf[oracles.zero(spec)] = pmf.get(oracles.zero(spec), Fraction(0)) + Fraction(3, 4)
    return from_pmf(spec, pmf)


def lemma_cases(spec):
    """(label, mu1, mu2, beta), the tables being the squared moduli of mu1, mu2.

    - positive: a symmetric pair under alpha = -I whose tables are strictly
      positive, so both lemmas are evaluated and hold;
    - positive, perturbed: its second margin replaced by another dominant
      margin, so the tables differ and the hypothesis (at beta = -I, f = g)
      fails, at the first v;
    - zeros: a symmetric pair under alpha = 2, whose Haar factor on
      (I + alpha)G makes the tables vanish off a subgroup; the fixed-point
      lemma is evaluated (I - beta = -1) and holds, the difference lemma is
      not (the tables are not positive);
    - zeros, perturbed: masses (2/3, 1/3) and (3/4, 1/4) on 0 and the last
      element x, each convolved with Haar on H = <3 e1> (e1 the first
      nonzero element, x not in H), at beta = -I; the tables vanish off
      Ann(H), which misses e1, the first v, so the hypothesis holds there,
      and they differ on Ann(H), so it fails at a later v.
    """
    stream = DeterministicStream(spec.exponent, label="lemma routes")
    minus = minus_identity(spec)
    x2 = oracles.element_list(spec)[2]
    pair = construct_instance(oracles.full_subgroup(spec), minus, _dominant(spec, stream.derive("rho")), x2).instance
    yield "positive", pair.mu1, pair.mu2, minus
    yield "positive, perturbed", pair.mu1, _dominant(spec, stream.derive("other")), minus
    two = make_endo(spec, [2] * len(spec.orders))
    rho = random_distribution(spec, 8, stream.derive("zeros"))
    pair = construct_instance(oracles.full_subgroup(spec), two, rho, x2).instance
    yield "zeros", pair.mu1, pair.mu2, two
    e1 = oracles.element_list(spec)[1]
    h = haar(oracles.subgroup_generated(spec, [spec.add(e1, spec.add(e1, e1))]))
    x = oracles.element_list(spec)[-1]
    first = convolve(from_pmf(spec, {oracles.zero(spec): Fraction(2, 3), x: Fraction(1, 3)}), h)
    second = convolve(from_pmf(spec, {oracles.zero(spec): Fraction(3, 4), x: Fraction(1, 4)}), h)
    yield "zeros, perturbed", first, second, minus


def _rebuilt(table):
    """The same values through dual_function: a table with no distribution."""
    return dual_function(table.spec, zip(map(table.spec.element, range(table.spec.exponent)), table.values))


# -- real_sign --------------------------------------------------------------------


@pytest.mark.parametrize("spec", GROUPS, ids=_describe)
def test_real_sign_matches_the_interval_reference_on_lemma_values(spec):
    values = set()
    for _, mu1, mu2, _ in lemma_cases(spec):
        for mu in (mu1, mu2):
            values.update(squared_modulus_table(mu).values)
    values |= {1 - value for value in values}
    # |char|**2 lies in [0, 1], so both kinds of value are nonnegative
    assert {value.real_sign() for value in values} == {0, 1}
    for value in values:
        assert value.real_sign() == oracles.reference_real_sign(value)


def test_real_sign_doubles_its_scale_on_a_value_near_zero(monkeypatch):
    # 2 cos(2 pi / 945) sits strictly between p / 2**160 and (p + 1) / 2**160,
    # so zeta + zeta**-1 minus either is within 2**-160 of zero: a sign that
    # the brackets at B = 64 and B = 128 cannot decide.
    n = 945
    monkeypatch.setattr(cyclotomic, "_cosine_cache", {})
    saved = iv.prec
    try:
        iv.prec = 400
        low, high = (2 * iv.cos(2 * iv.pi / n) * 2**160)._mpi_
    finally:
        iv.prec = saved
    p = cyclotomic._scaled_floor(low, 0)
    assert cyclotomic._scaled_floor(high, 0) == p
    pair = from_terms(n, [(1, 1), (-1, 1)])
    below, above = pair - Fraction(p, 2**160), pair - Fraction(p + 1, 2**160)
    assert below.real_sign() == oracles.reference_real_sign(below) == 1
    assert above.real_sign() == oracles.reference_real_sign(above) == -1
    tables = cyclotomic._cosine_cache
    assert {bits for order, bits in tables} >= {64, 128, 256}
    asked = {e for e, _ in below.terms()} | {e for e, _ in above.terms()}
    for (order, bits), table in tables.items():
        assert order == n and set(table) == asked


def test_an_ordinary_sign_fills_one_table_of_sound_brackets(monkeypatch):
    # decided at the first scale, so one table, holding the value's exponents alone
    monkeypatch.setattr(cyclotomic, "_cosine_cache", {})
    value = from_terms(315, [(4, 1), (-4, 1)]) - from_terms(315, [(100, 2), (-100, 2)])
    assert value.real_sign() == oracles.reference_real_sign(value)
    assert list(cyclotomic._cosine_cache) == [(315, cyclotomic._SIGN_BITS)]
    assert set(cyclotomic._cosine_cache[315, cyclotomic._SIGN_BITS]) == {e for e, _ in value.terms()}
    # each bracket meets a far narrower interval around 2**64 cos(2 pi e / 315)
    saved = iv.prec
    try:
        iv.prec = 300
        for e, (lo, hi) in cyclotomic._cosine_cache[315, 64].items():
            low, high = (iv.cos(2 * iv.pi * e / 315) * 2**64)._mpi_
            ceiling = -cyclotomic._scaled_floor((1 - high[0], *high[1:]), 0)
            assert 0 <= hi - lo <= 2
            assert cyclotomic._scaled_floor(low, 0) <= hi and lo <= ceiling
    finally:
        iv.prec = saved


# -- the residue route of the lemma verifiers ---------------------------------------


def test_a_character_table_carries_its_distribution_and_compares_by_its_values():
    mu = _dominant(Z9xZ5, DeterministicStream(5, label="carry"))
    table = squared_modulus_table(mu)
    assert table.distribution == convolve(mu, reflect(mu))
    plain = _rebuilt(table)
    assert plain.distribution is None
    assert plain == table and hash(plain) == hash(table) and repr(plain) == repr(table)
    assert table.with_value(oracles.element_list(Z9xZ5)[3], table.values[0]).distribution is None


@pytest.mark.parametrize("spec", GROUPS, ids=_describe)
def test_both_routes_give_equal_reports(spec, monkeypatch):
    outcomes = {}
    for label, mu1, mu2, beta in lemma_cases(spec):
        f, g = squared_modulus_table(mu1), squared_modulus_table(mu2)
        plain_f, plain_g = _rebuilt(f), _rebuilt(g)
        for verify in (verify_difference_lemma, verify_fixed_point_lemma):
            fast = verify(f, g, beta)
            reference = verify(plain_f, plain_g, beta)
            assert fast == reference, (label, verify.__name__)
            outcomes[label, verify.__name__] = fast
    difference, fixed_point = "verify_difference_lemma", "verify_fixed_point_lemma"
    assert outcomes["positive", difference].ok and outcomes["positive", fixed_point].ok
    assert outcomes["zeros", fixed_point].ok and not outcomes["zeros", difference].positive_ok
    for label in ("positive, perturbed", "zeros, perturbed"):
        report = outcomes[label, fixed_point]
        assert report.bounds_ok and not report.hypothesis_equation_ok
        assert "equation fails at (u, v) = " in report.first_violation
    assert not outcomes["positive, perturbed", difference].hypothesis_ok
    # the perturbed pair with zeros holds at the first v and fails later
    later = outcomes["zeros, perturbed", fixed_point].first_violation
    assert not later.endswith(f", {oracles.element_list(spec)[1]})")


@pytest.mark.parametrize("spec", GROUPS, ids=_describe)
def test_passing_pairs_never_reach_the_interned_route(spec, monkeypatch):
    # Both tables carry their distribution, so the hypothesis, the
    # fixed-point identities and the generator triples are all decided on
    # residues, and no CycloElement product is formed.
    def refuse(*args):
        raise AssertionError("the interned route ran on a passing pair")

    monkeypatch.setattr(lemmas, "_equation_violation", refuse)
    monkeypatch.setattr(lemmas, "_interned", refuse)
    monkeypatch.setattr(cyclotomic.CycloElement, "__mul__", refuse)
    for label, mu1, mu2, beta in lemma_cases(spec):
        if "perturbed" in label:
            continue
        f, g = squared_modulus_table(mu1), squared_modulus_table(mu2)
        assert verify_fixed_point_lemma(f, g, beta).ok
        report = verify_difference_lemma(f, g, beta)
        assert report.ok or not report.positive_ok


def test_an_edited_character_table_goes_by_the_reference_route():
    spec = Z9xZ5
    _, mu1, mu2, beta = next(lemma_cases(spec))
    f, g = squared_modulus_table(mu1), squared_modulus_table(mu2)
    point = oracles.element_list(spec)[7]
    edited = f.with_value(point, from_rational(spec.exponent, Fraction(1, 2)))
    assert f.distribution is not None and edited.distribution is None
    first = oracles.brute_equation_violation(spec.orders, edited, g, beta.multipliers)
    assert first is not None
    difference = verify_difference_lemma(edited, g, beta)
    assert not difference.evaluated and difference.first_violation.endswith(f"at (u, v) = {first}")
    fixed_point = verify_fixed_point_lemma(edited, g, beta)
    assert not fixed_point.evaluated
    assert fixed_point.first_violation.endswith(f"equation fails at (u, v) = {first}")


def test_a_residue_that_is_not_a_unit_sends_the_triples_to_the_interned_route(monkeypatch):
    # The subgroup argument needs every residue invertible mod M; a table
    # whose residues include a non-unit is decided on interned ids.
    spec = Z9
    _, mu1, mu2, beta = next(lemma_cases(spec))
    f, g = squared_modulus_table(mu1), squared_modulus_table(mu2)
    field = lemmas._residue_field(f, g)
    residues = lemmas.char_residue_table(f.distribution, field)
    real = lemmas.char_residue_table
    monkeypatch.setattr(lemmas, "char_residue_table", lambda nu, fld: [0] + real(nu, fld)[1:])
    interned = []
    real_interned = lemmas._interned
    monkeypatch.setattr(lemmas, "_interned", lambda fn: interned.append(fn) or real_interned(fn))
    one = identity(spec)
    steps = (one.add(beta), one.add(one), one.add(beta.neg()))
    on_ids = lemmas._generator_triple_violation(f, steps, None)
    assert lemmas._generator_triple_violation(f, steps, field) == on_ids
    assert interned == [f, f]
    assert residues[0] != 0


def test_the_n315_lemma_case_within_its_budget():
    # The 3:2:1 margin on codes 0, 1 and 2 of Z(9) x Z(5) x Z(7), beta = -I:
    # about 4 s on the interned route, well under a second on residues.
    spec = validate_spec([(3, 2), (5, 1), (7, 1)])
    points = tuple(sorted([(0, 3), (1, 2), (2, 1)], key=lambda point: spec.crt_rank[point[0]]))
    mu = Distribution(spec, 6, points)
    beta = minus_identity(spec)
    with time_limit(1.5):
        f = squared_modulus_table(mu)
        assert verify_difference_lemma(f, f, beta).ok
        assert verify_fixed_point_lemma(f, f, beta).ok
