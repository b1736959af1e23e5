"""The sparse dual-equation loop and the residue transform against the
dense references kept in oracles.py.

engine.first_equation_violation visits, at every v, only the u at which
one side can be nonzero;
distributions._residue_table fills a residue table from the pushforward
to the translation stabilizer's quotient, by one pass per CRT axis.  Each
must agree exactly with its reference: the same (u, v) or None from the
loop, the same residue at every code from the transform.
satisfies_heyde_equation runs the loop on the quotient by the
unit-modulus set from its first pair on, so that each v visits at most one
u per coset; there the loop reports only a verdict, which must be the
dense loop's.
"""

import collections
import gc
import operator
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from heyde import (
    DeterministicStream,
    HeydeInstance,
    char_fn,
    construct_instance,
    convolve,
    degenerate,
    enumerate_automorphisms,
    enumerate_subgroups,
    from_pmf,
    haar,
    is_conditionally_symmetric,
    make_endo,
    minus_identity,
    random_distribution,
    random_instance,
    satisfies_heyde_equation,
    shift,
    squared_modulus_table,
    validate_spec,
)
from heyde import SweepConfig, distributions, engine, lemmas, run_sweep, sweep
from heyde.cyclotomic import _ModField, _prime_below, from_rational, from_terms, modular_field
from heyde.distributions import _residue_table, char_residues, char_residues_at
from heyde.engine import _equation_quotient, first_equation_violation
from heyde.fixtures import construction_admissible
from heyde.groups import subgroup_of_index
from limits import time_limit

import oracles

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
Z9xZ5 = LADDER[1]
Z27xZ5 = LADDER[2]


def _describe(spec):
    return spec.describe()


def _fields(n):
    """A one-prime and a two-prime field for Z(n), built apart from the
    module's field cache so that no other test sees a grown modulus."""
    one = _ModField(n, (_prime_below(n, 1 << 62),))
    two = _ModField(n, one.primes + (_prime_below(n, one.primes[0]),))
    return one, two


def _margins(spec, label):
    stream = DeterministicStream(29, label=label)
    subs = enumerate_subgroups(spec)
    margins = [
        degenerate(spec, oracles.element_list(spec)[-1]),
        haar(oracles.full_subgroup(spec)),
        haar(subs[len(subs) // 2]),
    ]
    for i, d in enumerate((2, 5, 9)):
        margins.append(random_distribution(spec, d, stream.derive(str(i))))
        sub = subs[i % len(subs)]
        margins.append(random_distribution(spec, d, stream.derive(f"on{i}"), support=sub))
    return margins


# -- residue tables -----------------------------------------------------------------


@pytest.mark.parametrize("spec", LADDER, ids=_describe)
def test_transform_tables_equal_per_code_tables(spec):
    n = spec.exponent
    fields = _fields(n)
    assert [len(field.primes) for field in fields] == [1, 2]
    for field in fields:
        for mu in _margins(spec, spec.describe()):
            expected = oracles.per_code_residues(mu, field)
            assert _residue_table(mu, field) == expected
            # read from the top code down: lazy at first, then the transform
            residue = char_residues(mu, field)
            assert [residue(y) for y in reversed(range(n))] == expected[::-1]


def test_residues_switch_to_the_transform_after_sum_of_orders_codes(monkeypatch):
    spec = Z27xZ5
    n = spec.exponent
    lazy = sum(spec.orders)
    filled = []
    transform = distributions._residue_table
    monkeypatch.setattr(
        distributions, "_residue_table", lambda mu, field: filled.append(mu) or transform(mu, field)
    )
    mu = random_distribution(spec, 6, DeterministicStream(5, label="switch"))
    field = _fields(n)[0]
    expected = oracles.per_code_residues(mu, field)
    residue = char_residues(mu, field)
    codes = list(range(0, n, 2)) + list(range(1, n, 2))
    for y in codes[:lazy]:
        assert residue(y) == expected[y]
    for y in codes[:lazy]:
        assert residue(y) == expected[y]
    assert filled == []
    assert [residue(y) for y in codes] == [expected[y] for y in codes]
    assert filled == [mu]


def test_a_window_of_every_code_becomes_the_memos_list(monkeypatch):
    # Z(3^5) has one CRT axis, so sum(q_j) = N, and three adjacent points
    # have d = N, whose table costs more than reading every code: the
    # window is all N codes.  Once each is read the memo keeps them as one
    # list, with no transform, and char_residues returns its getter.
    def refuse(*args):
        raise AssertionError("a residue table was transformed")

    monkeypatch.setattr(distributions, "_residue_table", refuse)
    spec = validate_spec([(3, 5)])
    n = spec.exponent
    mu = from_pmf(spec, {(0,): Fraction(1, 3), (1,): Fraction(1, 3), (2,): Fraction(1, 3)})
    field = _fields(n)[0]
    expected = oracles.per_code_residues(mu, field)
    residue = char_residues(mu, field)
    assert [residue(y) for y in reversed(range(n))] == expected[::-1]
    assert char_residues(mu, field).__self__ == expected
    assert [residue(y) for y in range(n)] == expected


def test_the_lazy_window_ends_once_its_codes_cost_as_much_as_the_table(monkeypatch):
    # Z(27) x Z(5): sum(q_j) = 32.  The memo computes d when it is made.
    # Haar on the subgroup of index 5 has 27 points and d = 5, so 2 codes
    # at 27 terms cost about its table (27 + 5 * (1 + 5)): the third code
    # read fills the table.  27 points at random have d = N and keep the
    # window of 32 codes, as does a margin of 8 points, whose size is
    # prime to N.
    spec = Z27xZ5
    n = spec.exponent
    window = sum(spec.orders)
    field = _fields(n)[0]
    filled = []
    transform = distributions._residue_table
    monkeypatch.setattr(
        distributions, "_residue_table", lambda mu, field: filled.append(mu) or transform(mu, field)
    )
    blocks = haar(subgroup_of_index(spec, 5))
    assert len(blocks.points) == 27 and oracles.brute_stabilizer_index(blocks) == 5
    stream = DeterministicStream(53, label="window")
    scattered = _canonical_margin(spec, [stream.randint(0, n - 1) for _ in range(40)], 27)
    for mu, stays in ((blocks, 2), (scattered, window)):
        expected = oracles.per_code_residues(mu, field)
        residue = char_residues(mu, field)
        assert vars(mu)["_stabilizer"] == oracles.brute_stabilizer_index(mu)
        assert [residue(y) for y in range(stays)] == expected[:stays]
        assert not filled
        assert residue(stays) == expected[stays]
        assert filled == [mu]
        assert [residue(y) for y in range(n)] == expected
        filled.clear()

    for i in range(20):
        mu = random_distribution(spec, 8, stream.derive(str(i)))
        expected = oracles.per_code_residues(mu, field)
        residue = char_residues(mu, field)
        assert [residue(y) for y in range(window)] == expected[:window]
        assert not filled
        assert residue(window) == expected[window]
        assert filled == [mu]
        filled.clear()


def test_a_one_code_window_fills_the_table_at_the_first_read(monkeypatch):
    # Haar on the subgroup of index 3 of Z(27) x Z(5): 45 points and d = 3,
    # so its table costs 45 + 3 * (3 + 1) = 57 terms, less than two codes
    # at 45 terms.  Every reader asks for two codes, so the memo keeps no
    # window and its first read fills the table.
    spec = Z27xZ5
    n = spec.exponent
    field = _fields(n)[0]
    mu = haar(subgroup_of_index(spec, 3))
    assert len(mu.points) == 45 and oracles.brute_stabilizer_index(mu) == 3
    assert distributions._lazy_window(spec.orders, 45, 3) == 0
    filled = []
    transform = distributions._residue_table
    monkeypatch.setattr(
        distributions, "_residue_table", lambda mu, field: filled.append(mu) or transform(mu, field)
    )
    expected = oracles.per_code_residues(mu, field)
    residue = char_residues(mu, field)
    assert residue(1) == expected[1]
    assert filled == [mu]
    assert [residue(y) for y in range(n)] == expected
    assert filled == [mu]


def _canonical_margin(spec, codes, size):
    """Mass 1 at each of the first size distinct codes."""
    chosen = list(dict.fromkeys(codes))[:size]
    assert len(chosen) == size
    return from_pmf(spec, {spec.element(c): Fraction(1, size) for c in chosen})


def test_the_residue_memo_holds_only_the_values_it_has_read():
    # Each memo refers to its margin, which refers to the memo, so a dropped
    # margin lives until the cyclic collector runs.  Read at two codes, it
    # must hold those two residues, not a list of N entries.
    spec = validate_spec([(3, 9)])
    n = spec.exponent
    field = _fields(n)[0]
    stream = DeterministicStream(47, label="memo")
    margins = [random_distribution(spec, 8, stream.derive(str(i))) for i in range(6)]
    char_residues(margins.pop(), field)(1)  # the field's powers and the spec's tables
    gc.disable()
    tracemalloc.start()
    try:
        for mu in margins:
            residue = char_residues(mu, field)
            residue(1)
            residue(2)
        del margins, mu, residue
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 8 * n


def test_a_table_whose_window_covers_every_code_is_read_through_the_memo(monkeypatch):
    # Four points on Z(9) have d = 9, where the transform costs more than
    # reading every code: the window is all N codes, so the table is the
    # memo's own list and no transform runs.  Three points of a coset of
    # 3Z(9) have d = 3, a window of 4 codes, and keep the transform.
    spec = validate_spec([(3, 2)])
    n = spec.exponent
    field = _fields(n)[0]
    four = from_pmf(spec, {(x,): Fraction(m, 10) for x, m in ((0, 1), (2, 2), (3, 3), (7, 4))})
    coset = haar(subgroup_of_index(spec, 3))
    for mu, covers in ((four, True), (coset, False)):
        d = oracles.brute_stabilizer_index(mu)
        assert (distributions._lazy_window(spec.orders, len(mu.points), d) >= n) == covers
    expected = [_residue_table(mu, field) for mu in (four, coset)]
    assert expected == [oracles.per_code_residues(mu, field) for mu in (four, coset)]

    def refuse(*args):
        raise AssertionError("a residue table was transformed")

    monkeypatch.setattr(distributions, "_residue_table", refuse)
    fresh = distributions.Distribution(spec, four.den, four.points)
    assert distributions.char_residue_table(fresh, field) == expected[0]
    assert char_residues(fresh, field).__self__ is distributions.char_residue_table(fresh, field)
    with pytest.raises(AssertionError, match="transformed"):
        distributions.char_residue_table(distributions.Distribution(spec, 3, coset.points), field)


@pytest.mark.parametrize("spec", LADDER, ids=_describe)
def test_first_v_residues_are_the_memos_with_or_without_one(spec, monkeypatch):
    # char_residues_at reads the two residues of a margin at +-v (as a
    # first margin) or +-beta v (as a second) from its memo when it has
    # one, and otherwise from its points without building one; a random
    # sweep's margin tuples hold exactly those residues
    n = spec.exponent
    stream = DeterministicStream(71, label=f"first v {spec.describe()}")
    margins = _margins(spec, f"first v {spec.describe()}")
    margins += [random_distribution(spec, 32, stream.derive(str(i))) for i in range(6)]
    alphas = enumerate_automorphisms(spec)
    top = max(m.den for m in margins)
    field = modular_field(n, 2 * top * top)
    v = next(engine._equation_vs(spec))
    for i, mu in enumerate(margins):
        bv = alphas[i * 7 % len(alphas)].code * v % n
        fresh = distributions.Distribution(spec, mu.den, mu.points)
        direct = [*char_residues_at(fresh, field, v), *char_residues_at(fresh, field, bv)]
        assert fresh._residues is None
        residue = char_residues(fresh, field)
        assert direct == [residue(y) for y in (v, n - v, bv, n - bv)]
        assert fresh._residues is not None
        assert [*char_residues_at(fresh, field, v), *char_residues_at(fresh, field, bv)] == direct

    drawn, read = [], []
    draw, at = sweep.random_instance, sweep.char_residues_at
    monkeypatch.setattr(
        sweep, "random_instance", lambda *args: drawn.append(draw(*args)) or drawn[-1]
    )
    monkeypatch.setattr(
        sweep, "char_residues_at", lambda *args: read.append((*args, at(*args))) or read[-1][3]
    )
    run_sweep(SweepConfig((spec,), mode="random", budget=12, max_denominator=32, seed=71))
    field = modular_field(n, 2 * 32 * 32)
    assert [(mu, f, y) for mu, f, y, _ in read] == [
        entry
        for inst in drawn
        for entry in ((inst.mu1, field, v), (inst.mu2, field, inst.alpha.code * v % n))
    ]
    assert len(drawn) == 12
    for mu, _, y, pair in read:
        residue = char_residues(mu, field)
        assert pair == (residue(y), residue(n - y))


@pytest.mark.parametrize("spec", LADDER[:4], ids=_describe)
def test_zero_classes_are_memoized_and_match_char_fn(spec):
    n = spec.exponent
    for mu in _margins(spec, f"zero {spec.describe()}")[:5]:
        zero = distributions.char_fn_zero_classes(mu)
        assert distributions.char_fn_zero_classes(mu) is zero
        for y in range(0, n, max(1, n // 45)):
            assert char_fn(mu, spec.element(y)).is_zero() == zero[gcd(y, n)]


# -- the equation loop --------------------------------------------------------------


def _nonzero_codes(fn, n, is_zero):
    return sum(1 for y in range(n) if not is_zero(fn(y)))


def _same_as_dense(spec, f, g, beta, modulus=None):
    """The loop's answer, after checking it against the dense reference."""
    mul = operator.mul if modulus is None else lambda a, b: a * b % modulus
    found = first_equation_violation(spec, f, g, beta, mul)
    assert found == oracles.dense_equation_violation(spec, f, g, beta, modulus)
    return found


def _on_residues(inst):
    n = inst.spec.exponent
    field = modular_field(n, 2 * inst.mu1.den * inst.mu2.den)
    f, g = char_residues(inst.mu1, field), char_residues(inst.mu2, field)
    found = _same_as_dense(inst.spec, f, g, inst.alpha.adjoint(), field.modulus)
    nonzero = min(_nonzero_codes(fn, n, lambda value: value == 0) for fn in (f, g))
    return found, 2 * nonzero < n


@pytest.mark.parametrize("spec", LADDER[1:4], ids=_describe)
def test_constructed_symmetric_pairs_hold_on_the_sparse_loop(spec):
    stream = DeterministicStream(31, label=f"constructed {spec.describe()}")
    alphas = enumerate_automorphisms(spec)
    sparse = 0
    for i, sub in enumerate(enumerate_subgroups(spec)):
        s = stream.derive(str(i))
        admissible = [a for a in alphas if construction_admissible(sub, a)]
        if not admissible:
            continue
        alpha = admissible[s.randint(0, len(admissible) - 1)]
        rho = random_distribution(spec, 3, s.derive("rho"), support=sub)
        x2 = oracles.element_list(spec)[s.randint(0, spec.exponent - 1)]
        inst = construct_instance(sub, alpha, rho, x2).instance
        found, on_sparse = _on_residues(inst)
        assert found is None
        sparse += on_sparse
    assert sparse


def test_point_mass_pairs_keep_the_dense_loop():
    spec = Z9xZ5
    alphas = enumerate_automorphisms(spec)
    found = []
    pairs = [((0, 0), (0, 0)), ((1, 0), (4, 3)), ((2, 1), (8, 4)), ((0, 3), (0, 0))]
    for i, (x1, x2) in enumerate(pairs):
        inst = HeydeInstance(spec, degenerate(spec, x1), degenerate(spec, x2), alphas[5 * i])
        violation, sparse = _on_residues(inst)
        assert not sparse  # a point mass has no zero character value
        found.append(violation)
    assert None in found and any(found)


def test_seeded_asymmetric_pairs_with_haar_factors():
    # Margins with Haar factors vanish off a subgroup, so the first v often
    # holds at every u and the violation comes at a later v.  Others fail
    # at the first v, which visits only the candidate u as well.
    spec = Z9xZ5
    n = spec.exponent
    first_v = oracles.element_list(spec)[1]
    stream = DeterministicStream(7, label="asymmetric")
    subs = enumerate_subgroups(spec)
    alphas = enumerate_automorphisms(spec)
    first = later = 0
    for i in range(30):
        s = stream.derive(str(i))
        sub = subs[s.randint(0, len(subs) - 1)]
        mus = [
            shift(
                convolve(random_distribution(spec, 4, s.derive(f"rho{j}")), haar(sub)),
                oracles.element_list(spec)[s.randint(0, n - 1)],
            )
            for j in range(2)
        ]
        inst = HeydeInstance(spec, mus[0], mus[1], alphas[s.randint(0, len(alphas) - 1)])
        found, sparse = _on_residues(inst)
        first += found is not None and found[1] == first_v and sparse
        later += found is not None and found[1] != first_v and sparse
    assert first >= 5 and later >= 5


def test_violation_past_the_first_v_is_pinned():
    # uniform margins on 3Z(9) x 0 shifted apart: the first fifteen v hold
    spec = Z9xZ5
    sub = next(s for s in enumerate_subgroups(spec) if set(oracles.subgroup_elements(s)) == {(0, 0), (3, 0), (6, 0)})
    mu1 = haar(sub)
    mu2 = shift(mu1, (1, 0))
    inst = HeydeInstance(spec, mu1, mu2, make_endo(spec, (2, 3)))
    assert _on_residues(inst) == (((0, 0), (3, 0)), True)


def _cyclo_tables(mu):
    return squared_modulus_table(mu).values.__getitem__


def test_cyclotomic_tables_with_zeros():
    # Raw cyclotomic values are always truthy, so the loop stays dense here;
    # the lemma route, which interns them and makes zero falsy, is tested
    # below.
    spec = Z9xZ5
    n = spec.exponent
    subs = enumerate_subgroups(spec)
    stream = DeterministicStream(13, label="cyclo")
    betas = [minus_identity(spec)] + enumerate_automorphisms(spec)[::7]
    outcomes = []
    for i, sub in enumerate(subs[1:-1]):
        s = stream.derive(str(i))
        lam = convolve(random_distribution(spec, 3, s.derive("rho")), haar(sub))
        other = shift(lam, oracles.element_list(spec)[s.randint(0, n - 1)]) if i % 2 else lam
        f, g = _cyclo_tables(lam), _cyclo_tables(other)
        assert 2 * _nonzero_codes(f, n, lambda value: value.is_zero()) < n
        for beta in betas:
            outcomes.append(_same_as_dense(spec, f, g, beta))
        table = squared_modulus_table(lam)
        y = next(y for y in oracles.element_list(spec)[2:] if not table(y).is_zero())
        broken = table.with_value(y, table(y) * 2).values.__getitem__
        outcomes.append(_same_as_dense(spec, broken, g, betas[0]))
    assert None in outcomes and any(outcomes)


def _sparse_table(n, size, stream, cyclotomic):
    """A table with `size` nonzero codes at random positions, which unlike
    the nonzero codes of a character table need not be closed under
    negation, and zero elsewhere."""
    nonzero = set()
    while len(nonzero) < size:
        nonzero.add(stream.randint(0, n - 1))
    table = []
    for y in range(n):
        c = stream.randint(1, 3) if y in nonzero else 0
        if cyclotomic:
            table.append(from_terms(n, [(stream.randint(0, n - 1), c)]) if c else from_rational(n, 0))
        else:
            table.append(c)
    return table.__getitem__


@pytest.mark.parametrize("cyclotomic", [False, True], ids=["ints", "cyclotomic"])
def test_arbitrary_sparse_tables_and_endomorphisms(cyclotomic):
    # The loop takes the smaller support, here g's, and steps it by beta v,
    # at the first v as at every later one: with 2 |S| < N throughout, some
    # pairs fail at the first v and some past it.  The tables are not
    # Galois-equivariant, as the lemma verifiers allow.
    spec = Z9xZ5
    n = spec.exponent
    first_v = oracles.element_list(spec)[1]
    betas = enumerate_automorphisms(spec)[::3] + [make_endo(spec, (3, 0)), make_endo(spec, (0, 2))]
    stream = DeterministicStream(17, label=f"tables {cyclotomic}")
    first = later = 0
    for i, beta in enumerate(betas * 3):
        s = stream.derive(str(i))
        f = _sparse_table(n, 4 + i % 2, s.derive("f"), cyclotomic)
        g = _sparse_table(n, 2 + i % 2, s.derive("g"), cyclotomic)
        for modulus in (None,) if cyclotomic else (None, 7):
            found = _same_as_dense(spec, f, g, beta, modulus)
            first += found is not None and found[1] == first_v
            later += found is not None and found[1] != first_v
    assert first >= 5 and later >= 5


# -- the quotient by the unit-modulus set ------------------------------------------

QUOTIENT_GROUPS = [
    validate_spec(components)
    for components in (
        [(3, 2)],
        [(5, 1)],
        [(7, 1)],
        [(3, 2), (5, 1)],
        [(3, 3), (5, 1)],
        [(3, 1), (5, 2)],
        [(3, 2), (5, 1), (7, 1)],
    )
]


def _quotient_pairs(spec, stream):
    """Point masses, every other pair symmetric (x1 = -alpha x2); random
    margins of up to 4 points; Haar measures on a subgroup against a shift
    of themselves; constructed symmetric pairs, each also with one margin
    shifted."""
    n = spec.exponent
    alphas = enumerate_automorphisms(spec)
    subs = enumerate_subgroups(spec)
    constructible = [(sub, a) for sub in subs for a in alphas if construction_admissible(sub, a)]

    def point(s):
        return spec.element(s.randint(0, n - 1))

    pairs = []
    for i in range(15):
        s = stream.derive(f"point {i}")
        alpha, x2 = s.choice(alphas), point(s)
        x1 = spec.element(-alpha.code * spec.crt(x2) % n) if i % 2 else point(s)
        pairs.append(HeydeInstance(spec, degenerate(spec, x1), degenerate(spec, x2), alpha))
    for i in range(15):
        s = stream.derive(f"random {i}")
        mu1, mu2 = (random_distribution(spec, 4, s.derive(label)) for label in ("mu1", "mu2"))
        pairs.append(HeydeInstance(spec, mu1, mu2, s.choice(alphas)))
    for i in range(11):
        s = stream.derive(f"haar {i}")
        mu = haar(s.choice(subs))
        pairs.append(HeydeInstance(spec, mu, shift(mu, point(s)), s.choice(alphas)))
    for i in range(7):
        s = stream.derive(f"constructed {i}")
        sub, alpha = s.choice(constructible)
        rho = random_distribution(spec, 4, s.derive("rho"), support=sub)
        inst = construct_instance(sub, alpha, rho, point(s)).instance
        pairs.append(inst)
        pairs.append(HeydeInstance(spec, inst.mu1, shift(inst.mu2, point(s)), alpha))
    return pairs


@pytest.mark.parametrize("spec", QUOTIENT_GROUPS, ids=_describe)
def test_quotient_verdicts_match_the_dense_reference(spec):
    # The dense reference reads per-code residues, so neither the quotient
    # nor the pushforward tables are on its route.
    n = spec.exponent
    seen = collections.Counter()
    for inst in _quotient_pairs(spec, DeterministicStream(37, label=f"quotient {spec.describe()}")):
        field = modular_field(n, 2 * inst.mu1.den * inst.mu2.den)
        f, g = (oracles.per_code_residues(mu, field).__getitem__ for mu in (inst.mu1, inst.mu2))
        holds = oracles.dense_equation_violation(spec, f, g, inst.alpha.adjoint(), field.modulus) is None
        assert satisfies_heyde_equation(inst) == holds
        e, e_v = _equation_quotient(inst.mu1, inst.mu2, inst.alpha)
        assert e_v % e == 0 and n % e_v == 0
        seen["holds" if holds else "fails"] += 1
        seen["K' != K"] += e_v != e
        seen["e' = 1"] += e_v == 1
    assert all(seen[key] for key in ("holds", "fails", "K' != K", "e' = 1")), seen


def test_shifted_haar_pair_fails_only_off_the_unit_modulus_set():
    # Haar on 3Z(9) against its shift by 1, alpha = 2: K = 3Z(9) (e = 3), but
    # x1 + alpha x2 = 2 has order 9, so K' = 0 (e' = 9).  The first v = 1
    # holds at every u, and the first failure is at v = 3, in K.
    spec = QUOTIENT_GROUPS[0]
    mu = haar(subgroup_of_index(spec, 3))
    inst = HeydeInstance(spec, mu, shift(mu, (1,)), make_endo(spec, (2,)))
    assert _equation_quotient(inst.mu1, inst.mu2, inst.alpha) == (3, 9)
    field = modular_field(9, 2 * mu.den * mu.den)
    f, g = (char_residues(m, field) for m in (inst.mu1, inst.mu2))
    assert _same_as_dense(spec, f, g, inst.alpha, field.modulus) == ((0,), (3,))
    assert not satisfies_heyde_equation(inst)


def test_a_pair_refuted_at_its_first_v_computes_no_quotient(monkeypatch):
    # Random pairs, as a sweep draws them, are refuted within the first few
    # u of their first v: before either residue table is filled.  Their
    # quotient comes first, by design, at O(|supp|) gcds, and so do their
    # stabilizers, N at once for 8 points on these odd N.
    def refuse(*args):
        raise AssertionError("a residue table was filled before the first v held")

    monkeypatch.setattr(distributions, "_residue_table", refuse)
    refuted = 0
    for spec in (Z9xZ5, LADDER[3]):
        n = spec.exponent
        first_v = oracles.element_list(spec)[1]
        alphas = enumerate_automorphisms(spec)
        stream = DeterministicStream(41, label=f"lazy {spec.describe()}")
        for i in range(60):
            inst = random_instance(spec, 8, stream.derive(str(i)), alphas[i % len(alphas)])
            field = modular_field(n, 2 * inst.mu1.den * inst.mu2.den)
            f, g = (oracles.per_code_residues(mu, field).__getitem__ for mu in (inst.mu1, inst.mu2))
            found = oracles.dense_equation_violation(spec, f, g, inst.alpha, field.modulus)
            if found is not None and found[1] == first_v:
                assert not satisfies_heyde_equation(inst)
                refuted += 1
    assert refuted >= 100
    # two point masses: K = Z(N), and e' is the order of x1 + beta x2
    spec = Z9xZ5
    n = spec.exponent
    alpha = make_endo(spec, (2, 2))
    for x1, x2, symmetric in (((7, 3), (1, 1), True), ((1, 0), (1, 1), False)):
        inst = HeydeInstance(spec, degenerate(spec, x1), degenerate(spec, x2), alpha)
        c = spec.crt(x1) + alpha.code * spec.crt(x2)
        assert _equation_quotient(inst.mu1, inst.mu2, alpha) == (1, n // gcd(c, n))
        assert satisfies_heyde_equation(inst) == symmetric


def _visit_rule(mu1, mu2, beta):
    """The u of range(e) that engine._residue_equation_holds must visit at
    each v of its quotient, by brute force over the two congruence systems:
    a side of the identity can be nonzero only where u + v (or u - v) is a
    multiple of L1 = N / d1 and u + b v (or u - b v) one of L2 = N / d2.
    A v with no such u is left out."""
    n = mu1.spec.exponent
    b = beta.code
    l1, l2 = (n // oracles.brute_stabilizer_index(mu) for mu in (mu1, mu2))
    e, e_v = _equation_quotient(mu1, mu2, beta)
    rule = {}
    for v in range(1, (e_v + 1) // 2):
        us = {
            u
            for u in range(e)
            if any((u + sign * v) % l1 == 0 and (u + sign * b * v) % l2 == 0 for sign in (1, -1))
        }
        if us:
            rule[v] = us
    return rule


def _visits(monkeypatch):
    """Patch engine._first_violation to record the (v, us) of every call."""
    calls = []
    real = engine._first_violation

    def spy(f, g, us, v, *rest):
        us = list(us)
        calls.append((v, us))
        return real(f, g, us, v, *rest)

    monkeypatch.setattr(engine, "_first_violation", spy)
    return calls


@pytest.mark.parametrize("spec", LADDER[:4], ids=_describe)
def test_each_v_on_the_quotient_visits_two_classes_mod_l(spec, monkeypatch):
    # At each v the loop visits exactly the u = u0 and u = -u0 (mod l) of
    # range(e), l = lcm(L1, L2): the u at which a side can be nonzero.  A v
    # with no such u, one with (b - 1) v not a multiple of c = gcd(L1, L2),
    # is not visited at all.  A failing pair stops at its violation, so its
    # last v may visit a prefix of its codes only.
    n = spec.exponent
    calls = _visits(monkeypatch)
    seen = collections.Counter()
    for inst in _route_cases(spec, random.Random(f"visits {spec.describe()}"), ROUTE_COUNTS[n] // 2):
        mu1, mu2, beta = inst.mu1, inst.mu2, inst.alpha.adjoint()
        field = modular_field(n, 2 * mu1.den * mu2.den)
        rule = _visit_rule(mu1, mu2, beta)
        calls.clear()
        holds = engine._residue_equation_holds(mu1, mu2, beta, field)
        visited = collections.defaultdict(set)
        for v, us in calls:
            assert len(us) == len(set(us)) and not visited[v] & set(us), (inst, v)
            visited[v].update(us)
        e, e_v = _equation_quotient(mu1, mu2, beta)
        seen["skipped v"] += len(rule) < (e_v - 1) // 2
        seen["fewer than e"] += any(len(us) < e for us in rule.values())
        if not holds:
            last = calls[-1][0]
            assert visited.pop(last) <= rule.pop(last), inst
            rule = {v: us for v, us in rule.items() if v < last}
        assert visited == rule, inst
    assert seen["skipped v"] and seen["fewer than e"], seen


@pytest.mark.parametrize(
    "components", [[(3, 2), (5, 1), (7, 1), (11, 1)], [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1)]]
)
def test_symmetric_point_masses_within_a_second(components):
    # delta_a, delta_b with a + 2 b = 0: K = K' = Z(N), so no pair is left
    # to visit, and no residue is read.
    spec = validate_spec(components)
    n = spec.exponent
    alpha = make_endo(spec, (2,) * len(components))
    b = spec.element(n // 3 + 1)
    a = spec.element(-2 * (n // 3 + 1) % n)
    inst = HeydeInstance(spec, degenerate(spec, a), degenerate(spec, b), alpha)
    assert _equation_quotient(inst.mu1, inst.mu2, inst.alpha) == (1, 1)
    with time_limit(1):
        assert satisfies_heyde_equation(inst)


def test_point_mass_pairs_fill_no_residue_table(monkeypatch):
    # K = Z(N) for two point masses, so the loop starts on the quotient:
    # u = 0 alone, and the residues at the codes of the visited v alone
    spec = validate_spec([(3, 1), (5, 1), (7, 1), (11, 1), (13, 1)])
    n = spec.exponent
    alpha = make_endo(spec, (2,) * 5)
    b = spec.element(n // 3 + 1)
    a = spec.element(-2 * (n // 3 + 1) % n)
    moved = spec.element((1 - 2 * (n // 3 + 1)) % n)

    def refuse(*args):
        raise AssertionError("a full residue table was built")

    monkeypatch.setattr(distributions, "_residue_table", refuse)
    reads = collections.Counter()
    real = engine.char_residues

    def counted(mu, field):
        residue = real(mu, field)
        return lambda y: reads.update((y,)) or residue(y)

    monkeypatch.setattr(engine, "char_residues", counted)
    symmetric = HeydeInstance(spec, degenerate(spec, a), degenerate(spec, b), alpha)
    assert _equation_quotient(symmetric.mu1, symmetric.mu2, alpha) == (1, 1)
    assert satisfies_heyde_equation(symmetric)
    assert not reads
    asymmetric = HeydeInstance(spec, degenerate(spec, moved), degenerate(spec, b), alpha)
    assert _equation_quotient(asymmetric.mu1, asymmetric.mu2, alpha) == (1, n)
    assert not satisfies_heyde_equation(asymmetric)
    assert sum(reads.values()) == 4  # f and g at v = 1 and -1, beta v and -beta v


def test_a_quotient_with_no_later_v_reads_only_its_first_v(monkeypatch):
    # Z(3^12), alpha = 2, mu1 = mu2 uniform on the subgroup of order 3:
    # (e, e') = (3, 3), so v = 1 is the only v of the quotient.  With
    # L1 = L2 = c = 3 and b - 1 = 1, c does not divide (b - 1) * 1, so
    # neither side is nonzero at any u of v = 1, and no residue is read.
    spec = validate_spec([(3, 12)])
    mu = haar(subgroup_of_index(spec, spec.exponent // 3))
    inst = HeydeInstance(spec, mu, mu, make_endo(spec, (2,)))
    assert _equation_quotient(mu, mu, inst.alpha.adjoint()) == (3, 3)
    reads = collections.Counter()
    real = engine.char_residues

    def counted(mu, field):
        residue = real(mu, field)
        return lambda y: reads.update((y,)) or residue(y)

    monkeypatch.setattr(engine, "char_residues", counted)
    assert satisfies_heyde_equation(inst)
    assert sum(reads.values()) == 0


# -- the visit rule of the residue equation -----------------------------------------


def _coset_blocks(spec, rng):
    """Numerator 1 or 2 on each of one to three cosets of some dZ(N) of order
    at most 45, and sometimes one unit more at a random code: margins whose
    tables vanish off the multiples of N / d, or nearly."""
    n = spec.exponent
    index = rng.choice([d for d in range(1, n + 1) if n % d == 0 and n // d <= 45])
    points: dict[int, int] = {}
    for r in rng.sample(range(index), min(index, rng.randint(1, 3))):
        weight = rng.randint(1, 2)
        for c in range(r, n, index):
            points[c] = weight
    if rng.random() < 0.3:
        c = rng.randrange(n)
        points[c] = points.get(c, 0) + 1
    return distributions._canonical(spec, sum(points.values()), points.items())


def _route_cases(spec, rng, count):
    """count pairs under random automorphisms, in turn: a constructed
    symmetric pair, the same with its second margin shifted, a pair of coset
    blocks, a coset block against its own shift, and a random pair."""
    n = spec.exponent
    alphas = enumerate_automorphisms(spec)
    subs = enumerate_subgroups(spec)
    cases = []
    while len(cases) < count:
        alpha = rng.choice(alphas)
        admissible = [sub for sub in subs if sub.order <= 45 and construction_admissible(sub, alpha)]
        if not admissible:
            continue
        sub = rng.choice(admissible)
        rho = random_distribution(spec, 3, DeterministicStream(rng.randrange(1 << 30)), support=sub)
        inst = construct_instance(sub, alpha, rho, spec.element(rng.randrange(n))).instance
        block = _coset_blocks(spec, rng)
        cases += [
            inst,
            HeydeInstance(spec, inst.mu1, shift(inst.mu2, spec.element(rng.randrange(n))), alpha),
            HeydeInstance(spec, block, _coset_blocks(spec, rng), alpha),
            HeydeInstance(spec, block, shift(block, spec.element(rng.randrange(n))), alpha),
            random_instance(spec, 6, DeterministicStream(rng.randrange(1 << 30)), alpha),
        ]
    return cases[:count]


ROUTE_COUNTS = {9: 250, 45: 250, 135: 100, 315: 40, 945: 30}


def _steps(mu1, mu2, beta):
    """(vs, l, L1) of the visit rule of engine._residue_equation_holds, from
    the brute-force stabilizer indices."""
    n = mu1.spec.exponent
    l1, l2 = (n // oracles.brute_stabilizer_index(mu) for mu in (mu1, mu2))
    c = gcd(l1, l2)
    return c // gcd(beta.code - 1, c), l1 * l2 // c, l1


@pytest.mark.parametrize("spec", LADDER, ids=_describe)
def test_each_equation_route_matches_the_dense_reference(spec):
    # engine._residue_equation_holds, alone and through
    # satisfies_heyde_equation, against the dense loop on per-code
    # residues, which shares neither the quotient nor the visit rule.  The
    # cases must step v by vs > 1 on both verdicts, and step u by
    # l > L1 on a failing pair (a symmetric pair has d1 = d2, so l = L1).
    n = spec.exponent
    seen = collections.Counter()
    for inst in _route_cases(spec, random.Random(f"routes {spec.describe()}"), ROUTE_COUNTS[n]):
        mu1, mu2, beta = inst.mu1, inst.mu2, inst.alpha.adjoint()
        field = modular_field(n, 2 * mu1.den * mu2.den)
        modulus = field.modulus
        f, g = (oracles.per_code_residues(mu, field).__getitem__ for mu in (mu1, mu2))
        holds = oracles.dense_equation_violation(spec, f, g, beta, modulus) is None
        assert engine._residue_equation_holds(mu1, mu2, beta, field) == holds
        assert satisfies_heyde_equation(inst) == holds
        verdict = "holds" if holds else "fails"
        v_step, step, l1 = _steps(mu1, mu2, beta)
        seen[verdict] += 1
        seen[(verdict, "vs > 1")] += v_step > 1
        seen[(verdict, "l > L1")] += step > l1
    assert seen["holds"] and seen["fails"], seen
    assert seen[("holds", "vs > 1")] and seen[("fails", "vs > 1")], seen
    assert seen[("fails", "l > L1")], seen


@pytest.mark.parametrize("spec", LADDER, ids=_describe)
def test_the_loop_skips_only_pairs_with_both_products_zero(spec, monkeypatch):
    # Every (u, v) of the quotient that engine._residue_equation_holds does
    # not visit, the v it skips whole included, must have
    # R1(u + v) R2(u + b v) = R1(u - v) R2(u - b v) = 0 (mod M), read from
    # the per-code reference, so that the identity holds there.  The v at
    # which a pair fails is left out: the loop stops at its violation, and
    # the codes after it are not skips.
    n = spec.exponent
    calls = _visits(monkeypatch)
    seen = collections.Counter()
    for inst in _route_cases(spec, random.Random(f"routes {spec.describe()}"), ROUTE_COUNTS[n]):
        mu1, mu2, beta = inst.mu1, inst.mu2, inst.alpha.adjoint()
        b = beta.code
        field = modular_field(n, 2 * mu1.den * mu2.den)
        modulus = field.modulus
        f, g = (oracles.per_code_residues(mu, field) for mu in (mu1, mu2))
        found = oracles.dense_equation_violation(spec, f.__getitem__, g.__getitem__, beta, modulus)
        holds = found is None
        e, e_v = _equation_quotient(mu1, mu2, beta)
        calls.clear()
        assert engine._residue_equation_holds(mu1, mu2, beta, field) == holds
        vs = range(1, (e_v + 1) // 2)
        if not holds:  # the failing v stops early
            vs = range(1, calls[-1][0])
        visited = collections.defaultdict(set)
        for v, us in calls:
            visited[v].update(us)
        for v in vs:
            bv = b * v
            for u in set(range(e)) - visited[v]:
                assert f[(u + v) % n] * g[(u + bv) % n] % modulus == 0, (inst, u, v)
                assert f[(u - v) % n] * g[(u - bv) % n] % modulus == 0, (inst, u, v)
            seen["holds" if holds else "fails later"] += len(visited[v]) < e
            seen["whole v"] += not visited[v]
    assert seen["holds"] and seen["fails later"] and seen["whole v"], seen


def test_check_on_the_alpha_2_pair_at_45045_within_a_second():
    # Z(9) x Z(5) x Z(7) x Z(11) x Z(13), every subgroup exponent 0,
    # alpha = 2 and rho = delta_0: margins of N / 3 = 15015 points on one
    # stabilizer coset each, so both tables are nonzero on 3 codes.  The
    # margins are fresh objects, as the CLI reads them, with no memo filled.
    spec = validate_spec([(3, 2), (5, 1), (7, 1), (11, 1), (13, 1)])
    alpha = make_endo(spec, (2,) * 5)
    rho = degenerate(spec, oracles.zero(spec))
    built = construct_instance(oracles.full_subgroup(spec), alpha, rho, (1, 2, 3, 4, 5)).instance
    mu1, mu2 = (distributions.Distribution(spec, mu.den, mu.points) for mu in (built.mu1, built.mu2))
    inst = HeydeInstance(spec, mu1, mu2, alpha)
    assert len(mu1.points) == 15015
    with time_limit(1):
        assert is_conditionally_symmetric(inst) and satisfies_heyde_equation(inst)


def test_check_on_the_shifted_alpha_2_pair_at_45045_within_a_second():
    # The pair above with mu2 shifted by one code: the refuted side of the
    # same margins, as fresh objects.  Its stabilizers are those of the
    # symmetric pair, so the loop visits the same few codes per v.
    spec = validate_spec([(3, 2), (5, 1), (7, 1), (11, 1), (13, 1)])
    alpha = make_endo(spec, (2,) * 5)
    rho = degenerate(spec, oracles.zero(spec))
    built = construct_instance(oracles.full_subgroup(spec), alpha, rho, (1, 2, 3, 4, 5)).instance
    moved = shift(built.mu2, spec.element(1))
    mu1, mu2 = (distributions.Distribution(spec, mu.den, mu.points) for mu in (built.mu1, moved))
    inst = HeydeInstance(spec, mu1, mu2, alpha)
    with time_limit(1):
        assert not satisfies_heyde_equation(inst)


def test_the_order_3_pair_on_3_to_the_12_within_half_a_second():
    # the pair of test_a_quotient_with_no_later_v_reads_only_its_first_v,
    # with its field built first: the verdict needs 12 residues of 3 terms
    spec = validate_spec([(3, 12)])
    mu = haar(subgroup_of_index(spec, spec.exponent // 3))
    inst = HeydeInstance(spec, mu, mu, make_endo(spec, (2,)))
    modular_field(spec.exponent, 2 * mu.den * mu.den)
    with time_limit(0.5):
        assert satisfies_heyde_equation(inst)


def test_the_9_point_pair_on_3_to_the_12_fills_no_table_within_half_a_second(monkeypatch):
    # Z(3^12), G of order 27, alpha = 2, rho = delta_0: 9-point margins
    # with (e, e') = (9, 9), so the loop has later v.  They visit the
    # u = +-v (mod N / d1) alone and read the lazy residues, so no residue
    # table is filled.  The field is built first.
    spec = validate_spec([(3, 12)])
    alpha = make_endo(spec, (2,))
    sub = subgroup_of_index(spec, spec.exponent // 27)
    inst = construct_instance(sub, alpha, degenerate(spec, (0,)), (5,)).instance
    mu1, mu2, beta = inst.mu1, inst.mu2, alpha.adjoint()
    assert len(mu1.points) == 9 and _equation_quotient(mu1, mu2, beta) == (9, 9)
    modular_field(spec.exponent, 2 * mu1.den * mu2.den)

    def refuse(*args):
        raise AssertionError("a residue table was filled")

    monkeypatch.setattr(distributions, "_residue_table", refuse)
    with time_limit(0.5):
        assert satisfies_heyde_equation(inst)


def test_the_index_243_pair_on_3_to_the_10_within_half_a_second():
    # Z(3^10), G of index 243, alpha = 2, rho = delta_0: 81-point margins
    # with (e, e') = (81, 81), on the loop route.  The field is built first.
    spec = validate_spec([(3, 10)])
    alpha = make_endo(spec, (2,))
    sub = subgroup_of_index(spec, 243)
    inst = construct_instance(sub, alpha, degenerate(spec, (0,)), (5,)).instance
    mu1, mu2, beta = inst.mu1, inst.mu2, alpha.adjoint()
    assert len(mu1.points) == 81 and _equation_quotient(mu1, mu2, beta) == (81, 81)
    modular_field(spec.exponent, 2 * mu1.den * mu2.den)
    with time_limit(0.5):
        assert satisfies_heyde_equation(inst)


# -- the interned lemma route -------------------------------------------------------


def _lemma_route(f, g, beta, monkeypatch):
    """lemmas._equation_violation on two DualFunctions, after checking it
    against the dense reference on the raw tables, and whether the loop saw
    an id table with zeros, on which it can take the sparse visits.  The ids
    it is given must be falsy exactly at the zero values."""
    seen = []

    def spy(spec, f_ids, g_ids, *rest):
        n = spec.exponent
        for ids, fn in ((f_ids, f), (g_ids, g)):
            assert [not ids(y) for y in range(n)] == [value.is_zero() for value in fn.values]
        seen.append(any(not f_ids(y) for y in range(n)) or any(not g_ids(y) for y in range(n)))
        return first_equation_violation(spec, f_ids, g_ids, *rest)

    monkeypatch.setattr(lemmas, "first_equation_violation", spy)
    lemmas._equation_violation.cache_clear()
    found = lemmas._equation_violation(f, g, beta)
    assert seen, "the route did not reach the loop"
    assert found == oracles.dense_equation_violation(
        f.spec, f.values.__getitem__, g.values.__getitem__, beta
    )
    return found, seen[0]


def test_lemma_route_on_fixed_point_tables_with_zeros(monkeypatch):
    # |char|**2 of a margin with a Haar factor lies in [0, 1] and vanishes
    # off a subgroup, as the fixed-point lemma's tables may.
    spec = Z9xZ5
    first_v = oracles.element_list(spec)[1]
    subs = enumerate_subgroups(spec)
    stream = DeterministicStream(19, label="lemma zeros")
    betas = [minus_identity(spec)] + enumerate_automorphisms(spec)[::7]
    outcomes, later = [], 0
    for i, sub in enumerate(subs[1:-1]):
        s = stream.derive(str(i))
        lam = convolve(random_distribution(spec, 3, s.derive("rho")), haar(sub))
        other = convolve(random_distribution(spec, 3, s.derive("other")), haar(sub))
        f, g = squared_modulus_table(lam), squared_modulus_table(other)
        for beta in betas:
            found, zeros = _lemma_route(f, g, beta, monkeypatch)
            assert zeros
            outcomes.append(found)
            later += found is not None and found[1] != first_v
    assert None in outcomes and any(outcomes)
    assert later


def test_lemma_route_on_strictly_positive_tables(monkeypatch):
    # One mass of 3/4 keeps every |char|**2 at least 1/4, so no id is zero
    # and every v stays dense.
    spec = Z9xZ5
    n = spec.exponent
    stream = DeterministicStream(23, label="lemma positive")
    betas = [minus_identity(spec)] + enumerate_automorphisms(spec)[::9]
    outcomes = []
    for i in range(4):
        s = stream.derive(str(i))
        points = [oracles.element_list(spec)[s.randint(0, n - 1)] for _ in range(3)]
        if len(set(points)) < 3:
            continue
        mu = from_pmf(spec, dict(zip(points, (Fraction(3, 4), Fraction(1, 8), Fraction(1, 8)))))
        f = squared_modulus_table(mu)
        assert not any(value.is_zero() for value in f.values)
        for beta in betas:
            found, zeros = _lemma_route(f, f, beta, monkeypatch)
            assert not zeros
            outcomes.append(found)
    assert None in outcomes and any(outcomes)


def test_lemma_route_violation_placed_after_the_first_v(monkeypatch):
    # g is the indicator of H = 3Z(9) x Z(5) (|char|**2 of Haar on its
    # annihilator), and f is g with the value 1/2 added at c = (1, 0), off
    # H.  With beta = -I the sides at (u, v) are f(u + v) g(u - v) and
    # f(u - v) g(u + v).  Every v in H holds, the first v = (0, 1) among
    # them.  The first v off H, (1, 0), fails at u = c + v = (2, 0): there
    # u + v is in H and u - v is not, so the left side is 0 and the right
    # side is f(c) g(u + v) = 1/2.
    spec = Z9xZ5
    sub = next(s for s in enumerate_subgroups(spec) if set(oracles.subgroup_elements(s)) == {(0, 0), (3, 0), (6, 0)})
    g = squared_modulus_table(haar(sub))
    assert sum(not value.is_zero() for value in g.values) == 15
    f = g.with_value((1, 0), from_rational(spec.exponent, Fraction(1, 2)))
    found, zeros = _lemma_route(f, g, minus_identity(spec), monkeypatch)
    assert zeros
    assert found == ((2, 0), (1, 0))
