"""Shared, seed-pinned instance families for the acceptance suite.

The Fourier-infrastructure criterion re-checks identities on the same
distributions the earlier criteria consumed, so every family is generated
here from fixed seeds and re-created identically on each call.
"""

import itertools
from fractions import Fraction

from heyde import (
    DeterministicStream,
    HeydeInstance,
    PAdicUnit,
    construct_instance,
    construction_admissible,
    degenerate,
    enumerate_automorphisms,
    enumerate_distributions,
    enumerate_subgroups,
    from_pmf,
    make_endo,
    random_distribution,
    random_instance,
    validate_spec,
)
from heyde.groups import Subgroup

import oracles

Z3 = validate_spec([(3, 1)])
Z9 = validate_spec([(3, 2)])
Z25 = validate_spec([(5, 2)])
Z27 = validate_spec([(3, 3)])
Z27_PADIC = validate_spec([(3, 3, "padic")])
Z9xZ5 = validate_spec([(3, 2), (5, 1)])

EQUIVALENCE_SEED = 20240
CONSTRUCTION_SEED = 777
HAAR_SEED = 555
UNIT_DIGIT_SEED = 901
FIXED_POINT_SEED = 404
DIFFERENCE_SEED = 606
PREDICATE_SEED = 11001


def exhaustive_equivalence_instances():
    """Denominator-2 pmfs on Z(3) crossed with both automorphisms."""
    pmfs = list(enumerate_distributions(Z3, 2))
    for alpha in enumerate_automorphisms(Z3):
        for mu1 in pmfs:
            for mu2 in pmfs:
                yield HeydeInstance(Z3, mu1, mu2, alpha)


def random_equivalence_instances(count=500):
    """Seeded random instances on Z(9) x Z(5), cycling all 24 automorphisms."""
    alphas = enumerate_automorphisms(Z9xZ5)
    stream = DeterministicStream(EQUIVALENCE_SEED, label="equivalence")
    for i in range(count):
        yield random_instance(Z9xZ5, 16, stream.derive(str(i)), alphas[i % len(alphas)])


def constructed_fixtures(count=200):
    """Constructed instances over all admissible (G, alpha) on Z(27), Z(9)xZ(5)."""
    sources = [
        oracles.iter_admissible_constructions(Z27, seed=CONSTRUCTION_SEED, variants=2),
        oracles.iter_admissible_constructions(Z9xZ5, seed=CONSTRUCTION_SEED + 1, variants=2),
    ]
    produced = 0
    for fixture in itertools.chain.from_iterable(itertools.zip_longest(*sources)):
        if fixture is None:
            continue
        yield fixture
        produced += 1
        if produced >= count:
            return


def quasicyclic_denominator4_pmfs():
    """Every pmf on the first quasicyclic layer with masses in quarters."""
    out = []
    for mu in enumerate_distributions(Z3, 4):
        out.append({Fraction(x[0], 3): m for x, m in mu.masses})
    return out


def haar_case_fixtures():
    """Constructions on Z(25) with alpha = 2, where I + alpha is injective."""
    alpha = make_endo(Z25, [2])
    stream = DeterministicStream(HAAR_SEED, label="haar-case")
    fixtures = []
    for sub in enumerate_subgroups(Z25):
        assert construction_admissible(sub, alpha)
        for i in range(5):
            rho = random_distribution(Z25, 8, stream.derive(f"{sub.exponents}:{i}"), support=sub)
            x2 = stream.derive(f"x2:{sub.exponents}:{i}").choice(oracles.element_list(Z25))
            fixtures.append(construct_instance(sub, alpha, rho, x2))
    return fixtures


def unit_digit_one_alphas():
    """All truncated units with leading digit one, as endomorphisms."""
    return [
        oracles.truncated_unit_endo(PAdicUnit(3, (1, c1, c2)), Z27_PADIC)
        for c1 in range(3)
        for c2 in range(3)
    ]


def unit_digit_one_population():
    """Instances with a leading-digit-one action: constructed, matched, random.

    Constructed instances exist only for the trivial subgroup, the matched
    degenerate family satisfies x1 + alpha x2 = 0 by choice, and the random
    block supplies asymmetric ballast (the criterion is conditional on
    symmetry).
    """
    instances = []
    stream = DeterministicStream(UNIT_DIGIT_SEED, label="unit-digit")
    for alpha in unit_digit_one_alphas():
        for sub in enumerate_subgroups(Z27_PADIC):
            if not construction_admissible(sub, alpha):
                continue
            rho = random_distribution(
                Z27_PADIC, 8, stream.derive(f"rho:{alpha.multipliers}:{sub.exponents}"), support=sub
            )
            x2 = stream.derive(f"x2:{alpha.multipliers}").choice(oracles.element_list(Z27_PADIC))
            instances.append(construct_instance(sub, alpha, rho, x2).instance)
        for b in ((1,), (5,), (20,)):
            x1 = Z27_PADIC.neg(alpha.apply(b))
            instances.append(
                HeydeInstance(
                    Z27_PADIC,
                    degenerate(Z27_PADIC, x1),
                    degenerate(Z27_PADIC, b),
                    alpha,
                )
            )
    alphas = unit_digit_one_alphas()
    for i in range(150):
        instances.append(
            random_instance(Z27_PADIC, 8, stream.derive(f"rand:{i}"), alphas[i % len(alphas)])
        )
    return instances


def fixed_point_fixtures():
    """100 symmetric instances with I - alpha invertible, on Z(9) and Z(27)."""
    plans = [
        (Z9, [2, 5, 8], 50),
        (Z27, [2, 5, 8, 11, 14, 17, 20, 23, 26], 50),
    ]
    stream = DeterministicStream(FIXED_POINT_SEED, label="fixed-point")
    fixtures = []
    for spec, multipliers, count in plans:
        for i in range(count):
            alpha = make_endo(spec, [multipliers[i % len(multipliers)]])
            rho = random_distribution(spec, 8, stream.derive(f"{spec.exponent}:{i}"))
            x2 = stream.derive(f"x2:{spec.exponent}:{i}").choice(oracles.element_list(spec))
            fixtures.append(construct_instance(oracles.full_subgroup(spec), alpha, rho, x2))
    return fixtures


def nonvanishing_difference_fixtures(count=50):
    """Symmetric pairs on Z(9) with strictly positive squared-modulus tables.

    The common distribution lives on 3Z(9) with a dominant atom at zero, so
    its character sums stay away from zero, while alpha = 2 or 5 keeps both
    I + alpha and I - alpha nontrivial (nonvacuous difference steps).
    """
    sub = Subgroup(Z9, (1,))
    stream = DeterministicStream(DIFFERENCE_SEED, label="difference")
    fixtures = []
    for i in range(count):
        alpha = make_endo(Z9, [2 if i % 2 == 0 else 5])
        bulk = random_distribution(Z9, 8, stream.derive(f"bulk:{i}"), support=sub)
        pmf = {x: m / 4 for x, m in bulk.masses}
        pmf[oracles.zero(Z9)] = pmf.get(oracles.zero(Z9), Fraction(0)) + Fraction(3, 4)
        rho = from_pmf(Z9, pmf)
        x2 = stream.derive(f"x2:{i}").choice(oracles.element_list(Z9))
        fixtures.append(construct_instance(sub, alpha, rho, x2))
    return fixtures


def random_character_values(count=10_000):
    """Character-sum values from seeded distributions, zeros included."""
    from heyde import char_fn, haar, shift

    stream = DeterministicStream(PREDICATE_SEED, label="predicates")
    subgroups = enumerate_subgroups(Z9xZ5)
    values = []
    i = 0
    while len(values) < count:
        if i % 10 == 0:
            sub = subgroups[stream.randint(0, len(subgroups) - 1)]
            mu = shift(haar(sub), stream.choice(oracles.element_list(Z9xZ5)))
        else:
            mu = random_distribution(Z9xZ5, 8, stream.derive(f"mu:{i}"))
        for _ in range(5):
            y = stream.choice(oracles.element_list(Z9xZ5))
            values.append(char_fn(mu, y))
            if len(values) >= count:
                break
        i += 1
    return values
