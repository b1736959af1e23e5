"""The buffered draw kernel of rng.DeterministicStream against the stream it
replaced (oracles.ReferenceStream): the same words, draws and margins in
the same order, so every seeded stream, golden and report stays as it was."""

import random

import pytest

from heyde import DeterministicStream, enumerate_subgroups, random_distribution, validate_spec

import oracles

SPANS = [
    1, 2, 3, 7, 100, 2**32, 2**32 + 1, 2**63, 2**63 + 1, 3 * 2**62, 2**64 - 1, 2**64,
    2**64 + 1, 10**20, 2**65 + 3, 2**128, 2**128 + 1, 3**100,
]


def _pair(seed, label=""):
    return DeterministicStream(seed, label), oracles.ReferenceStream(seed, label)


def test_words_match_the_reference():
    for seed, label in ((0, ""), (1, "x"), (2024, "pin"), (-7, "sweep:3")):
        fast, ref = _pair(seed, label)
        assert [fast.next_u64() for _ in range(41)] == [ref.next_u64() for _ in range(41)]
        child, ref_child = fast.derive("mu1"), ref.derive("mu1")
        assert [child.next_u64() for _ in range(9)] == [ref_child.next_u64() for _ in range(9)]
        assert fast.next_u64() == ref.next_u64()  # the parent did not move


@pytest.mark.parametrize("span", SPANS)
def test_randint_matches_the_reference_over_spans(span):
    for lo in (0, 1, -(span // 2), 10**30):
        fast, ref = _pair(span, f"lo {lo}")
        hi = lo + span - 1
        assert [fast.randint(lo, hi) for _ in range(30)] == [ref.randint(lo, hi) for _ in range(30)]
        assert fast.next_u64() == ref.next_u64()  # and left the same words behind


def test_randint_rejects_what_the_reference_rejects():
    # a span just above 2**63 rejects about half of the words
    fast, ref = _pair(3, "reject")
    lo, hi = 0, 2**63
    assert [fast.randint(lo, hi) for _ in range(200)] == [ref.randint(lo, hi) for _ in range(200)]
    for stream in _pair(3):
        with pytest.raises(ValueError, match=r"empty range \[5, 4\]"):
            stream.randint(5, 4)


@pytest.mark.parametrize(
    "n, k",
    [(0, 0), (5, 0), (1, 0), (1, 1), (5, 5), (64, 64), (100, 7), (2**64, 3), (2**64 + 1, 3),
     (2**63 + 1, 40), (10**20, 5), (2**128, 2)],
)
def test_distinct_matches_the_reference(n, k):
    fast, ref = _pair(n * 31 + k, "distinct")
    assert fast.distinct(n, k) == ref.distinct(n, k)
    assert fast.next_u64() == ref.next_u64()


def test_distinct_rejects_what_the_reference_rejects():
    for stream in _pair(4):
        for n, k in ((3, 4), (0, 1), (5, -1)):
            with pytest.raises(ValueError, match=f"cannot draw {k} distinct values from {n}"):
                stream.distinct(n, k)


def test_interleaved_calls_match_the_reference():
    script = random.Random("interleave")
    fast, ref = _pair(99, "interleave")
    seq = list(range(11))
    for step in range(3000):
        op = script.randrange(5)
        if op == 0:
            assert fast.next_u64() == ref.next_u64()
        elif op == 1:
            span = script.choice(SPANS)
            lo = script.randrange(-50, 50)
            assert fast.randint(lo, lo + span - 1) == ref.randint(lo, lo + span - 1)
        elif op == 2:
            n = script.choice([1, 2, 9, 45, 315, 2**64, 10**20])
            k = script.randint(0, min(n, 12))
            assert fast.distinct(n, k) == ref.distinct(n, k)
        elif op == 3:
            assert fast.choice(seq) == ref.choice(seq)
        else:
            label = str(step)
            fast_child, ref_child = fast.derive(label), ref.derive(label)
            assert fast_child.randint(0, 99) == ref_child.randint(0, 99)


@pytest.mark.parametrize("max_denominator", [1, 32, 10**20])
def test_random_distribution_matches_the_reference(max_denominator):
    for comps in ([(3, 2)], [(3, 2), (5, 1)], [(3, 3), (5, 1)], [(3, 2), (5, 1), (7, 1)]):
        spec = validate_spec(comps)
        subgroups = enumerate_subgroups(spec)
        for seed in range(40):
            fast, ref = _pair(seed, f"rd {comps}")
            for support in (None, subgroups[seed % len(subgroups)]):
                expected = oracles.reference_random_distribution(spec, max_denominator, ref, support)
                assert random_distribution(spec, max_denominator, fast, support) == expected
            assert fast.next_u64() == ref.next_u64()
