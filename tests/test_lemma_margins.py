"""Squared-modulus tables decided from their margins.

squared_modulus_table records the margin mu whose |char_fn(mu)|**2 the
table is, and builds its values only when they are read.  When both
tables carry a margin, the verifiers take the [0, 1] bounds by
construction and positivity from the margins' zero classes, so a report
that states no value reads none.  The same values rebuilt through
dual_function carry no margin and go by the sign table, the reference, so
the two must give equal reports.
"""

import json
from fractions import Fraction

import pytest

from heyde import (
    DeterministicStream,
    construct_instance,
    convolve,
    degenerate,
    from_pmf,
    haar,
    make_endo,
    random_distribution,
    reflect,
    serialize,
    squared_modulus_table,
    validate_spec,
    verify_difference_lemma,
    verify_fixed_point_lemma,
)
from heyde import cyclotomic, distributions
from heyde.cli import main

import acceptance_corpus as corpus
import oracles
from limits import time_limit


def _counting(monkeypatch, module, name):
    """Patch module.name with a wrapper that records its first argument."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda first, *rest: calls.append(first) or real(first, *rest))
    return calls


def _built_cyclo_elements(monkeypatch):
    """The orders of every CycloElement built from here on, and the calls of
    cyclotomic.from_terms."""
    built = []
    real_init = cyclotomic.CycloElement.__init__

    def init(self, order, *rest):
        built.append(order)
        real_init(self, order, *rest)

    monkeypatch.setattr(cyclotomic.CycloElement, "__init__", init)
    return built, _counting(monkeypatch, cyclotomic, "from_terms")


def _dominant(spec, stream):
    """Mass 3/4 at 0 and 1/4 spread by a random margin: |char|**2 >= 1/4."""
    bulk = random_distribution(spec, 8, stream)
    pmf = {x: m / 4 for x, m in bulk.masses}
    pmf[oracles.zero(spec)] = pmf.get(oracles.zero(spec), Fraction(0)) + Fraction(3, 4)
    return from_pmf(spec, pmf)


def _reports(f, g, beta):
    return verify_difference_lemma(f, g, beta, tolerance=1e-9), verify_fixed_point_lemma(f, g, beta)


def test_a_table_builds_its_values_once_on_first_read(monkeypatch):
    mu = corpus.nonvanishing_difference_fixtures(1)[0].instance.mu1
    built = _counting(monkeypatch, distributions, "char_fn_table")
    table = squared_modulus_table(mu)
    assert table.margin is mu and table.distribution == convolve(mu, reflect(mu))
    assert built == [] and "values" not in vars(table)
    assert table.values == distributions.char_fn_table(table.distribution).values
    assert table(mu.spec.element(1)) is table.values[1]
    assert len(built) == 2  # the table's own build, and the one above
    assert oracles.plain_table(table).margin is None
    assert table.with_value(mu.spec.element(1), table.values[0]).margin is None


def test_a_fixed_point_pair_builds_no_cyclo_element(tmp_path, capsys, monkeypatch):
    # The Z(27) fixed-point pairs carry a Haar factor, so the difference
    # lemma is not evaluated, and the fixed-point lemma holds on residues.
    fixture = corpus.fixed_point_fixtures()[-1]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(serialize.instance_to_obj(fixture.instance)), encoding="utf-8")
    built, from_terms = _built_cyclo_elements(monkeypatch)
    assert main(["verify-lemmas", "--input", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fixed_point_lemma"]["evaluated"] and not report["difference_lemma"]["evaluated"]
    assert fixture.instance.spec.exponent == 27
    assert built == [] and from_terms == []


def test_the_log_residual_builds_each_table_once(monkeypatch):
    fixture = corpus.nonvanishing_difference_fixtures(1)[0]
    spec = fixture.instance.spec
    f = squared_modulus_table(fixture.instance.mu1)
    g = squared_modulus_table(fixture.instance.mu2)
    beta = fixture.instance.alpha.adjoint()
    tables = _counting(monkeypatch, distributions, "char_fn_table")
    built, from_terms = _built_cyclo_elements(monkeypatch)
    difference, fixed_point = _reports(f, g, beta)
    assert difference.ok and difference.max_log_residual <= 1e-9 and fixed_point.ok
    assert tables == [f.distribution, g.distribution]
    assert len(from_terms) == 2 * spec.exponent
    built.clear()
    assert _reports(f, g, beta) == (difference, fixed_point)
    assert len(tables) == 2 and built == []


def test_marked_and_plain_tables_give_equal_reports_on_the_corpus():
    fixtures = corpus.fixed_point_fixtures() + corpus.nonvanishing_difference_fixtures(50)
    evaluated = set()
    for fixture in fixtures:
        inst = fixture.instance
        beta = inst.alpha.adjoint()
        f, g = squared_modulus_table(inst.mu1), squared_modulus_table(inst.mu2)
        plain = _reports(oracles.plain_table(f), oracles.plain_table(g), beta)
        marked = _reports(squared_modulus_table(inst.mu1), squared_modulus_table(inst.mu2), beta)
        assert marked == plain
        evaluated.add((marked[0].evaluated, marked[1].evaluated))
    assert evaluated == {(False, True), (True, True)}


@pytest.mark.parametrize("orders", [[(3, 2)], [(3, 3)], [(3, 2), (5, 1)]], ids=["Z9", "Z27", "Z9xZ5"])
def test_positivity_needs_every_class_of_both_margins_nonzero(orders):
    # A margin with a Haar factor has some zero classes, never all (the
    # class of 0 is 1), and a dominant atom has none; a zero class of either
    # margin alone must make the tables not positive.
    spec = validate_spec(orders)
    stream = DeterministicStream(spec.exponent, label="margin positivity")
    index3 = oracles.subgroup_generated(spec, [spec.element(3)])
    zeros = convolve(random_distribution(spec, 8, stream.derive("zeros")), haar(index3))
    positive = _dominant(spec, stream.derive("dominant"))
    classes = distributions.char_fn_zero_classes(zeros)
    assert any(classes.values()) and not all(classes.values())
    assert not any(distributions.char_fn_zero_classes(positive).values())
    beta = make_endo(spec, [2] * len(orders))
    for mu1, mu2, expected in ((positive, positive, True), (positive, zeros, False), (zeros, positive, False)):
        f, g = squared_modulus_table(mu1), squared_modulus_table(mu2)
        report = verify_difference_lemma(f, g, beta)
        assert report.positive_ok is expected
        assert report == verify_difference_lemma(oracles.plain_table(f), oracles.plain_table(g), beta)


def test_verify_lemmas_on_the_n3465_alpha2_pair_within_its_budget(monkeypatch):
    # About 4.5 s end to end when both tables were built; the margins decide
    # the difference lemma's positivity and the residues the rest.
    # G is the whole group and rho the point mass at 0, so the margins are
    # shifts of Haar on 3Z(N): N / 3 points each.
    spec = validate_spec([(3, 2), (5, 1), (7, 1), (11, 1)])
    two = make_endo(spec, [2] * 4)
    inst = construct_instance(oracles.full_subgroup(spec), two, degenerate(spec, (0,) * 4), spec.element(5)).instance
    assert spec.exponent == 3465 and len(inst.mu1.points) == 1155
    built, from_terms = _built_cyclo_elements(monkeypatch)
    beta = inst.alpha.adjoint()
    with time_limit(2.0):
        f, g = squared_modulus_table(inst.mu1), squared_modulus_table(inst.mu2)
        difference = verify_difference_lemma(f, g, beta, tolerance=1e-9)
        fixed_point = verify_fixed_point_lemma(f, g, beta)
    assert not difference.positive_ok and fixed_point.ok
    assert built == [] and from_terms == []
