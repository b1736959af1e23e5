import math
import random
from fractions import Fraction

import pytest

from heyde import DeterministicStream, from_rational, from_terms

import oracles
from limits import time_limit


def test_cyclotomic_polynomials():
    # the reference Phi_n of the dense oracles; the library never forms one
    assert oracles.cyclotomic_polynomial(1) == (-1, 1)
    assert oracles.cyclotomic_polynomial(3) == (1, 1, 1)
    assert oracles.cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)  # x^6 + x^3 + 1
    assert len(oracles.cyclotomic_polynomial(15)) - 1 == 8  # phi(15)
    assert len(oracles.cyclotomic_polynomial(45)) - 1 == 24  # phi(45)


def test_zeta_basics():
    assert from_terms(9, [(0, 1)]).is_one()
    assert (from_terms(3, [(1, 1)]) * from_terms(3, [(2, 1)])).is_one()
    # the three cube roots of unity
    total = from_terms(9, [(3, 1)]) + from_terms(9, [(6, 1)]) + from_terms(9, [(0, 1)])
    assert total.is_zero()
    assert abs(total.to_complex()) < 1e-12


def test_conjugation_negates_exponent():
    assert from_terms(9, [(1, 1)]).conj() == from_terms(9, [(8, 1)])
    assert from_terms(9, [(0, 1)]).conj() == from_terms(9, [(0, 1)])


def test_additive_identity():
    a = from_terms(9, [(1, 1), (4, 2)], 3)
    assert a + 0 == a
    assert a - a == from_rational(9, 0)


def test_squared_modulus_expansion():
    # a = (1 + zeta_9)/2; |a|^2 = (2 + zeta + zeta^8)/4 expanded symbolically
    a = (from_terms(9, [(0, 1)]) + from_terms(9, [(1, 1)])) * Fraction(1, 2)
    expected = from_terms(9, [(0, 2), (1, 1), (8, 1)], 4)
    product = a * a.conj()
    assert product == expected
    assert abs(product.to_complex() - abs(a.to_complex()) ** 2) < 1e-12
    assert not product.is_unit_modulus()
    assert not a.is_unit_modulus()


def test_zero_and_one_predicates():
    assert (from_terms(3, [(0, 1)]) + from_terms(3, [(1, 1)]) + from_terms(3, [(2, 1)])).is_zero()
    assert from_terms(9, [(0, 1)]).is_one()
    assert from_terms(9, [(5, 1)]).is_unit_modulus()
    assert (from_terms(9, [(5, 1)]) * Fraction(1, 2)).is_unit_modulus() is False


def test_to_complex_and_odd_order_only():
    value = from_terms(5, [(0, 1)]).to_complex()
    assert abs(value - 1) < 1e-12
    with pytest.raises(ValueError, match="odd"):
        from_terms(4, [(1, 1)])


def test_rational_detection():
    assert not oracles.is_rational(from_terms(9, [(1, 1)]))
    # zeta_3 expressed inside Q(zeta_9) has a rational trace with conj
    b = from_terms(9, [(3, 1)]) + from_terms(9, [(6, 1)])
    assert oracles.is_rational(b) and oracles.rational_value(b) == -1


def test_ring_identities_random():
    # one prime power (the power basis) and one, two and three further axes
    for n, rounds in ((9, 2000), (45, 300), (315, 60), (1155, 15)):
        stream = DeterministicStream(2024, label=f"ring {n}")

        def random_element():
            terms = [(stream.randint(0, n - 1), stream.randint(-4, 4)) for _ in range(3)]
            return from_terms(n, terms, stream.randint(1, 6))

        for _ in range(rounds):
            a, b, c = random_element(), random_element(), random_element()
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert (a * b).conj() == a.conj() * b.conj()
            assert a.conj().conj() == a


def test_float_agrees_with_exact_predicates():
    stream = DeterministicStream(7, label="float")
    for _ in range(1000):
        terms = [(stream.randint(0, 8), stream.randint(0, 3)) for _ in range(4)]
        den = sum(c for _, c in terms)
        if den == 0:
            continue
        a = from_terms(9, terms, den)  # a convex combination of roots of unity
        value = abs(a.to_complex())
        if a.is_zero():
            assert value < 1e-9
        if a.is_unit_modulus():
            assert abs(value - 1) < 1e-9
        else:
            assert abs(value - 1) > 1e-9


def test_real_sign():
    positive = from_terms(9, [(1, 1)]) + from_terms(9, [(8, 1)])  # 2 cos(2 pi / 9) > 0
    negative = from_terms(9, [(4, 1)]) + from_terms(9, [(5, 1)])  # 2 cos(8 pi / 9) < 0
    assert positive.real_sign() == 1
    assert negative.real_sign() == -1
    assert from_rational(9, 0).real_sign() == 0
    with pytest.raises(ValueError, match="not real"):
        from_terms(9, [(1, 1)]).real_sign()


def test_real_sign_at_composite_orders():
    # 2 cos(2 pi t / n), never 0 at odd n, and real parts of random
    # elements, against their floats
    rng = random.Random(315)
    for n in (15, 45, 315, 1155):
        for t in rng.sample(range(n), min(n, 60)):
            value = from_terms(n, [(t, 1), (-t, 1)])
            expected = 2 * math.cos(2 * math.pi * t / n)
            assert value.real_sign() == (1 if expected > 0 else -1)
        for _ in range(20):
            a = from_terms(n, [(rng.randrange(n), rng.randint(-5, 5)) for _ in range(6)], 3)
            real = a + a.conj()
            exact = real.real_sign()
            value = real.to_complex().real
            assert exact == 0 if real.is_zero() else exact * value > 1e-9
    cancelling = from_terms(15, [(5, 1), (10, 1)]) + 1  # 1 + zeta_3 + zeta_3**2
    assert cancelling.is_zero() and cancelling.real_sign() == 0
    assert (from_terms(45, [(9, 1), (36, 1)]) - from_terms(45, [(18, 1), (27, 1)])).real_sign() == 1


def test_large_order_is_linear_in_the_order():
    # N = 15015 = 3 * 5 * 7 * 11 * 13: no Phi_N and no N x phi(N) table
    n = 15015
    rng = random.Random(15015)
    with time_limit(5):
        big = from_terms(n, [(3 * k, rng.randint(-3, 3) or 1) for k in range(5005)])
        a = from_terms(n, [(rng.randrange(n), 1) for _ in range(40)])
        b = from_terms(n, [(rng.randrange(n), 1) for _ in range(40)])
        product = a * b
        conj = big.conj()
    assert not big.is_zero() and conj.conj() == big
    assert product == b * a
    assert abs(product.to_complex() - a.to_complex() * b.to_complex()) < 1e-6
    assert abs(conj.to_complex() - big.to_complex().conjugate()) < 1e-6


def test_is_zero_implies_tiny_float():
    a = from_terms(45, [(0, 1)])
    for t in (9, 18, 27, 36):
        a = a + from_terms(45, [(t, 1)])
    assert a.is_zero()  # the five fifth roots of unity
    assert abs(a.to_complex()) < 1e-9


def test_order_mismatch_rejected():
    with pytest.raises(ValueError, match="order mismatch"):
        from_terms(9, [(1, 1)]) * from_terms(3, [(1, 1)])
