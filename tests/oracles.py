"""Independent brute-force oracles used to freeze and cross-check expectations.

Everything here works from raw component orders with plain modular
arithmetic and floating point, deliberately bypassing the library's own
subgroup/annihilator/character machinery.
"""

import cmath
import functools
import hashlib
import itertools
import math
from fractions import Fraction
from math import gcd, lcm

from mpmath import iv

from heyde import (
    DeterministicStream,
    Endomorphism,
    GroupSpec,
    HeydeInstance,
    Subgroup,
    construct_instance,
    construction_admissible,
    engine,
    enumerate_automorphisms,
    enumerate_distributions,
    enumerate_subgroups,
    from_pmf,
    make_endo,
    random_distribution,
    sweep,
)
from heyde.cyclotomic import modular_field
from heyde.distributions import Distribution, _canonical, dual_function
from heyde.errors import VerificationFailure
from heyde.fixtures import random_instance
from heyde.groups import generated_by_codes


def all_elements(orders):
    return list(itertools.product(*(range(q) for q in orders)))


def raw_add(orders, x, y):
    return tuple((a + b) % q for a, b, q in zip(x, y, orders))


def raw_neg(orders, x):
    return tuple((-a) % q for a, q in zip(x, orders))


def raw_pair_exponent(orders, x, y):
    n = 1
    for q in orders:
        n *= q
    t = 0
    for a, b, q in zip(x, y, orders):
        t += a * b * (n // q)
    return t % n


def brute_closure(orders, xs):
    """Closure of xs under addition and negation, by breadth-first search."""
    zero = (0,) * len(orders)
    seen = {zero}
    frontier = [zero]
    gens = [tuple(x) for x in xs] + [raw_neg(orders, x) for x in xs]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = raw_add(orders, cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def brute_annihilator(orders, members):
    """All dual elements pairing trivially with every member."""
    return {
        y
        for y in all_elements(orders)
        if all(raw_pair_exponent(orders, x, y) == 0 for x in members)
    }


def char_value_complex(orders, pmf, y):
    """Floating-point characteristic value of a pmf dict at y."""
    n = 1
    for q in orders:
        n *= q
    total = 0j
    for x, mass in pmf.items():
        t = raw_pair_exponent(orders, x, y)
        total += float(mass) * cmath.exp(2j * cmath.pi * t / n)
    return total


def brute_joint(orders, pmf1, pmf2, multipliers):
    """Joint pmf of (x1 + x2, x1 + alpha(x2)) as a plain dict."""
    joint = {}
    for x1, m1 in pmf1.items():
        for x2, m2 in pmf2.items():
            ax2 = tuple((m * c) % q for m, c, q in zip(multipliers, x2, orders))
            key = (raw_add(orders, x1, x2), raw_add(orders, x1, ax2))
            joint[key] = joint.get(key, Fraction(0)) + m1 * m2
    return joint


def brute_symmetric(orders, pmf1, pmf2, multipliers):
    """Symmetry of the conditional distribution, from two full joints."""
    plus = brute_joint(orders, pmf1, pmf2, multipliers)
    minus = {
        (l1, raw_neg(orders, l2)): mass for (l1, l2), mass in plus.items()
    }
    return plus == minus


def brute_exhaustive_sweep(orders, denominator):
    """(instances, symmetric) of an exhaustive sweep over every automorphism.

    Margins are the multisets of denominator points, each point carrying
    mass 1/denominator; automorphisms are the multiplier vectors of units
    mod each component order.  Symmetry is brute_symmetric on every pair.
    """
    pmfs = []
    for points in itertools.combinations_with_replacement(all_elements(orders), denominator):
        pmf = {}
        for x in points:
            pmf[x] = pmf.get(x, Fraction(0)) + Fraction(1, denominator)
        pmfs.append(pmf)
    units = [[m for m in range(q) if gcd(m, q) == 1] for q in orders]
    instances = symmetric = 0
    for multipliers in itertools.product(*units):
        for pmf1 in pmfs:
            for pmf2 in pmfs:
                instances += 1
                symmetric += brute_symmetric(orders, pmf1, pmf2, multipliers)
    return instances, symmetric


def compositions(total, parts):
    """All tuples of nonnegative integers of the given length summing to
    total, in lex order, by recursion on the first part."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def composition_distributions(spec, denominator):
    """fixtures.enumerate_distributions as it was before stars and bars: one
    margin per composition of denominator over crt_codes, in lex order."""
    return [
        _canonical(spec, denominator, ((r, c) for r, c in zip(spec.crt_codes, parts) if c))
        for parts in compositions(denominator, spec.exponent)
    ]


def component_unit_automorphisms(spec):
    """fixtures.enumerate_automorphisms as it was before it read crt_codes:
    the product of the unit lists of the components, one make_endo per
    multiplier vector."""
    units = [[m for m in range(1, c.order) if m % c.p] for c in spec.components]
    return [make_endo(spec, vec) for vec in itertools.product(*units)]


def per_instance_sweep(config):
    """run_sweep's exhaustive mode as it was before automorphism rows: one
    HeydeInstance and one check_instance per (alpha, mu1, mu2), in the
    same order, so every report field matches."""
    report = sweep.SweepReport(seed=config.seed)
    for spec in config.specs:
        pmfs = list(enumerate_distributions(spec, config.denominator))
        for alpha in sweep._alphas_for(spec, config):
            for mu1 in pmfs:
                for mu2 in pmfs:
                    sweep.check_instance(HeydeInstance(spec, mu1, mu2, alpha), report)
    return report


def per_instance_random_sweep(config):
    """run_sweep's random mode as it was before automorphism rows: one
    random_instance and one check_instance per draw, in the same order,
    so every report field matches."""
    report = sweep.SweepReport(seed=config.seed)
    for spec_index, spec in enumerate(config.specs):
        alphas = list(sweep._alphas_for(spec, config))
        stream = DeterministicStream(config.seed, label=f"sweep:{spec_index}")
        for i in range(config.budget):
            inst = random_instance(
                spec, config.max_denominator, stream.derive(str(i)), alphas[i % len(alphas)]
            )
            sweep.check_instance(inst, report)
    return report


_U64 = 1 << 64


class ReferenceStream:
    """rng.DeterministicStream as it was before the buffered draw kernel:
    one int.from_bytes per word, and every randint and distinct draw through
    the general multi-word loop."""

    def __init__(self, seed, label=""):
        material = f"heyde:{label}:{int(seed)}".encode()
        self._key = hashlib.sha256(material).digest()
        self._counter = 0
        self._buffer = []

    def derive(self, label):
        child = object.__new__(ReferenceStream)
        child._key = hashlib.sha256(self._key + b"/" + label.encode()).digest()
        child._counter = 0
        child._buffer = []
        return child

    def next_u64(self):
        if not self._buffer:
            block = hashlib.sha256(self._key + self._counter.to_bytes(8, "big")).digest()
            self._counter += 1
            self._buffer = [int.from_bytes(block[i : i + 8], "big") for i in (24, 16, 8, 0)]
        return self._buffer.pop()

    def randint(self, lo, hi):
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        space, extra = _U64, 0
        while space < span:
            space, extra = space << 64, extra + 1
        limit = space - (space % span)
        while True:
            u = self.next_u64()
            if extra:
                for _ in range(extra):
                    u = (u << 64) | self.next_u64()
            if u < limit:
                return lo + (u % span)

    def choice(self, seq):
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def distinct(self, n, k):
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct values from {n}")
        picked = set()
        while len(picked) < k:
            picked.add(self.randint(0, n - 1))
        return sorted(picked)


def reference_random_distribution(spec, max_denominator, stream, support=None):
    """fixtures.random_distribution drawing from a ReferenceStream."""
    codes = support.codes if support is not None else spec.crt_codes
    d = stream.randint(1, max_denominator)
    size = stream.randint(1, min(len(codes), d))
    chosen = [codes[i] for i in stream.distinct(len(codes), size)]
    if size == 1:
        masses = [d]
    else:
        cuts = stream.distinct(d - 1, size - 1)
        bounds = [0] + [c + 1 for c in cuts] + [d]
        masses = [b - a for a, b in zip(bounds, bounds[1:])]
    return _canonical(spec, d, zip(chosen, masses))


def brute_unit_modulus_points(orders, pmf):
    """Dual points where the pairing is constant on the support (|char| = 1)."""
    support = list(pmf)
    base = support[0]
    out = set()
    for y in all_elements(orders):
        t0 = raw_pair_exponent(orders, base, y)
        if all(raw_pair_exponent(orders, x, y) == t0 for x in support):
            out.add(y)
    return out


def raw_apply(orders, multipliers, x):
    return tuple((m * c) % q for m, c, q in zip(multipliers, x, orders))


# An endomorphism as one multiplier per component, each reduced mod its
# component order, with its arithmetic done component by component: the
# reference for heyde's single multiplier on CRT codes.


def vector_endo(orders, multipliers):
    return tuple(m % q for m, q in zip(multipliers, orders))


def vector_compose(orders, a, b):
    return tuple((x * y) % q for x, y, q in zip(a, b, orders))


def vector_add(orders, a, b):
    return tuple((x + y) % q for x, y, q in zip(a, b, orders))


def vector_neg(orders, a):
    return tuple((-x) % q for x, q in zip(a, orders))


def vector_invert(orders, a):
    """The inverse multipliers, or None when some multiplier is not a unit."""
    if any(gcd(x, q) != 1 for x, q in zip(a, orders)):
        return None
    return tuple(pow(x, -1, q) for x, q in zip(a, orders))


def vector_kappa(orders, b):
    """-4 * b * (1 - b)**-2 component by component, or None if 1 - b is not a unit."""
    inv = vector_invert(orders, vector_add(orders, (1,) * len(orders), vector_neg(orders, b)))
    if inv is None:
        return None
    return vector_compose(orders, vector_compose(orders, vector_endo(orders, [-4] * len(orders)), b),
                          vector_compose(orders, inv, inv))


def brute_equation_violation(orders, f, g, multipliers):
    """First (u, v) with f(u+v) g(u+beta v) != f(u-v) g(u-beta v), or None.

    A plain double loop over lexicographic tuples, v outer and u inner;
    v = 0 and every v with -v < v are skipped, since (u, -v) states the
    same identity as (u, v).  Products are memoized by value pair only.
    """
    elements = all_elements(orders)
    products = {}

    def product(a, b):
        if (a, b) not in products:
            products[(a, b)] = a * b
        return products[(a, b)]

    for v in elements:
        nv = raw_neg(orders, v)
        if nv <= v:
            continue
        bv = raw_apply(orders, multipliers, v)
        nbv = raw_neg(orders, bv)
        for u in elements:
            lhs = product(f(raw_add(orders, u, v)), g(raw_add(orders, u, bv)))
            rhs = product(f(raw_add(orders, u, nv)), g(raw_add(orders, u, nbv)))
            if lhs != rhs:
                return (u, v)
    return None


def dict_convolve(orders, pmf1, pmf2):
    """Convolution of two element -> mass dicts."""
    out = {}
    for x, a in pmf1.items():
        for y, b in pmf2.items():
            z = raw_add(orders, x, y)
            out[z] = out.get(z, 0) + a * b
    return out


def double_loop_convolve(mu, nu):
    """mu * nu by the double loop over the two supports, on codes: the
    numerator at z is the sum of a * b over (x, a), (y, b) with x + y = z."""
    n = mu.spec.exponent
    acc = {}
    for x, a in mu.points:
        for y, b in nu.points:
            z = (x + y) % n
            acc[z] = acc.get(z, 0) + a * b
    return _canonical(mu.spec, mu.den * nu.den, acc)


def plain_table(table):
    """The values of a table rebuilt through dual_function: a table with no
    distribution and no margin."""
    spec = table.spec
    return dual_function(spec, zip(map(spec.element, range(spec.exponent)), table.values))


def dict_shift(orders, pmf, s):
    return {raw_add(orders, x, s): m for x, m in pmf.items()}


def dict_reflect(orders, pmf):
    return {raw_neg(orders, x): m for x, m in pmf.items()}


def dict_uniform(members):
    """Uniform element -> mass dict on a set of elements."""
    return {x: Fraction(1, len(members)) for x in members}


def brute_canonical_shift(orders, pmf, members):
    """Smallest (sorted shifted mass list, x) over every x whose shift of pmf
    by -x lands inside members, or None when no x does."""
    best = None
    for x in all_elements(orders):
        nx = raw_neg(orders, x)
        shifted = sorted((raw_add(orders, s, nx), m) for s, m in pmf.items())
        if all(y in members for y, _ in shifted):
            key = (shifted, x)
            if best is None or key < best:
                best = key
    return best


def _poly_div_exact(num, den):
    """Quotient of two integer coefficient lists (low to high) by a monic divisor that divides exactly."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            out[i - dn] = c
            for t in range(dn + 1):
                num[i - dn + t] -= c * den[t]
    assert not any(num), "inexact polynomial division"
    return out


_phi_cache = {}


def cyclotomic_polynomial(n):
    """Integer coefficients of the n-th cyclotomic polynomial, low to high:
    x**n - 1 divided by Phi_d for every proper divisor d of n."""
    if n not in _phi_cache:
        acc = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                acc = _poly_div_exact(acc, cyclotomic_polynomial(d))
        _phi_cache[n] = tuple(acc)
    return _phi_cache[n]


def dense_reduction_rows(n, phi):
    """Coefficient lists of zeta**e reduced modulo the monic phi, for
    deg(phi) <= e < n, every entry kept, zeros included."""
    degree = len(phi) - 1
    base = [-c for c in phi[:degree]]
    rows = [base]
    for _ in range(degree + 1, n):
        cur = rows[-1]
        nxt = [0] + cur[:-1]
        rows.append([a + cur[-1] * b for a, b in zip(nxt, base)])
    return rows


def dense_reduce(n, rows, degree, vec):
    """Reduce a coefficient list indexed by exponent (mod n) with dense rows."""
    out = [0] * degree
    for e, c in enumerate(vec):
        if not c:
            continue
        e %= n
        if e < degree:
            out[e] += c
        else:
            for t, r in enumerate(rows[e - degree]):
                out[t] += c * r
    return out


def dense_mul(n, rows, degree, a, b):
    """Reduced product of two reduced coefficient lists."""
    conv = [0] * (2 * degree - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                conv[i + j] += x * y
    return dense_reduce(n, rows, degree, conv)


def reference_real_sign(value):
    """Sign of a real CycloElement by per-term interval sums in mpmath:
    each term's cosine at 30 digits, then at twice the digits until the
    interval of the sum excludes 0 (CycloElement.real_sign as it was before
    it summed integer cosine brackets)."""
    if not value.is_real():
        raise ValueError("value is not real")
    if value.is_zero():
        return 0
    terms = value.terms()
    saved = iv.dps
    try:
        iv.dps = 30
        while True:
            two_pi = 2 * iv.pi
            total = iv.mpf(0)
            for e, c in terms:
                total += c * iv.cos(two_pi * e / value.order)
            if total.a > 0:
                return 1
            if total.b < 0:
                return -1
            iv.dps *= 2
    finally:
        iv.dps = saved


def reference_invert_char_table(spec, table):
    """Per-x Fourier inversion: for each x, every table entry's terms are
    moved by the pairing exponent into one length-N vector, which is
    reduced once with dense rows modulo Phi_N; the result must be rational.

    The table is read through table(y) at each dual element y.  Raises
    VerificationFailure for a non-rational mass and returns the pmf
    through from_pmf, so its errors are the library's."""
    n = spec.exponent
    phi = cyclotomic_polynomial(n)
    degree = len(phi) - 1
    rows = dense_reduction_rows(n, phi)
    values = [(y, table(y)) for y in spec.elements()]
    den = 1
    for _, value in values:
        den = den * value.den // gcd(den, value.den)
    entries = [
        (y, [(e, c * (den // value.den)) for e, c in value.terms()])
        for y, value in values
    ]
    pmf = {}
    for x in spec.elements():
        vec = [0] * n
        for y, terms in entries:
            t = raw_pair_exponent(spec.orders, x, y)
            for e, c in terms:
                vec[(e - t) % n] += c
        reduced = dense_reduce(n, rows, degree, vec)
        if any(reduced[1:]):
            raise VerificationFailure(f"inversion produced a non-rational mass at {x}")
        q = Fraction(reduced[0], den) / n
        if q:
            pmf[x] = q
    return from_pmf(spec, pmf)


def brute_triple_violation(orders, f, step_multipliers):
    """Checks made and the first (a, b, c, y) at which
    f(y+a+b+c) f(y+a) f(y+b) f(y+c) != f(y+a+b) f(y+a+c) f(y+b+c) f(y),
    or None.  a, b, c run over the sorted images of the three multiplier
    vectors and y over all elements, lexicographically; both sides are
    multiplied left to right with no memo."""
    elements = all_elements(orders)
    steps = [sorted({raw_apply(orders, m, k) for k in elements}) for m in step_multipliers]

    def at(*xs):
        total = xs[0]
        for x in xs[1:]:
            total = raw_add(orders, total, x)
        return f(total)

    checks = 0
    for a in steps[0]:
        for b in steps[1]:
            for c in steps[2]:
                for y in elements:
                    checks += 1
                    lhs = at(y, a, b, c) * at(y, a) * at(y, b) * at(y, c)
                    rhs = at(y, a, b) * at(y, a, c) * at(y, b, c) * at(y)
                    if lhs != rhs:
                        return checks, (a, b, c, y)
    return checks, None


def log_residual(f1, f2, beta):
    """lemmas._log_residual as the pair-by-pair loop it replaced: the worst
    |log f1(u + v) + log f2(u + beta v) - log f1(u - v) - log f2(u - beta v)|
    over every (u, v), summed left to right."""
    n = f1.spec.exponent
    b = beta.code
    logs1 = [math.log(abs(v.to_complex())) for v in f1.values]
    logs2 = [math.log(abs(v.to_complex())) for v in f2.values]
    worst = 0.0
    for u in range(n):
        for v in range(n):
            bv = b * v
            residual = abs(
                logs1[(u + v) % n]
                + logs2[(u + bv) % n]
                - logs1[(u - v) % n]
                - logs2[(u - bv) % n]
            )
            worst = max(worst, residual)
    return worst


# -- subgroups as exponent vectors -------------------------------------------
# The per-component p-adic valuation arithmetic that decided subgroups
# before they were read as dZ(N) on CRT codes.  comps is a list of (p, k);
# a subgroup is its exponent vector (component j is p_j**a_j Z(p_j**k_j))
# and an endomorphism its multiplier vector.


def valuation(n, p, cap):
    """p-adic valuation of n, capped at cap; the zero residue gets the cap."""
    n = n % p**cap
    if n == 0:
        return cap
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation_kernel(comps, multipliers):
    return tuple(k - valuation(m, p, k) for (p, k), m in zip(comps, multipliers))


def valuation_image(comps, multipliers):
    return tuple(valuation(m, p, k) for (p, k), m in zip(comps, multipliers))


def valuation_image_of(comps, multipliers, exps):
    return tuple(min(k, a + valuation(m, p, k)) for (p, k), m, a in zip(comps, multipliers, exps))


def valuation_generated(comps, xs):
    return tuple(min([k] + [valuation(x[j], p, k) for x in xs]) for j, (p, k) in enumerate(comps))


def valuation_annihilator(comps, exps):
    return tuple(k - a for (p, k), a in zip(comps, exps))


def valuation_intersect(exps1, exps2):
    return tuple(max(a, b) for a, b in zip(exps1, exps2))


def valuation_elements(comps, exps):
    """The members, lexicographic in the coordinate tuples."""
    return itertools.product(*(range(0, p**k, p**a) for (p, k), a in zip(comps, exps)))


# -- the dual-equation loop and residues before their fast paths ------------------


def dense_equation_violation(spec, f, g, beta, modulus=None):
    """engine.first_equation_violation as it was before it skipped pairs:
    every u for every v, f and g read lazily on CRT codes, values and
    products interned to ids."""
    n = spec.exponent
    rank = spec.crt_rank
    b = beta.code
    value_ids, values, product_ids, products = {}, [], {}, {}
    f_ids, g_ids = [-1] * n, [-1] * n
    width = 2 * n

    def read(ids, fn, i):
        if ids[i] < 0:
            value = fn(i)
            vid = value_ids.get(value)
            if vid is None:
                vid = value_ids[value] = len(values)
                values.append(value)
            ids[i] = vid
        return ids[i]

    def product(a_id, b_id):
        key = a_id * width + b_id
        if key not in products:
            value = values[a_id] * values[b_id]
            if modulus is not None:
                value %= modulus
            products[key] = product_ids.setdefault(value, len(product_ids))
        return products[key]

    codes = spec.crt_codes
    for v_rank, v in enumerate(codes):
        if v == 0 or rank[n - v] < v_rank:
            continue
        bv = b * v % n
        for u in codes:
            f1, g1 = read(f_ids, f, (u + v) % n), read(g_ids, g, (u + bv) % n)
            f2, g2 = read(f_ids, f, (u - v) % n), read(g_ids, g, (u - bv) % n)
            if (f1, g1) != (f2, g2) and product(f1, g1) != product(f2, g2):
                return spec.element(u), spec.element(v)
    return None


def per_code_residues(mu, field):
    """Every D * char_fn(mu, y) at field.root mod field.modulus, one code y
    at a time: the sum of a_x * omega**(s * x * y mod N) over the support."""
    spec = mu.spec
    n = spec.exponent
    s = spec.crt_pair_unit
    return [
        sum(a * field.powers[s * x * y % n] for x, a in mu.points) % field.modulus
        for y in range(n)
    ]


def residue_zero_classes(mu):
    """char_fn_zero_classes by the certified residue route it replaced.

    D * char_fn(mu, y) has coefficient weight D, so with the field for
    that weight it is zero exactly when its residue is
    (cyclotomic._ModField), and the class of g = gcd(y, N) is zero exactly
    when every residue in it is.
    """
    n = mu.spec.exponent
    residues = per_code_residues(mu, modular_field(n, mu.den))
    zero = {}
    for y in range(n):
        g = gcd(y, n)
        zero[g] = zero.get(g, True) and not residues[y]
    return zero


def brute_stabilizer_index(mu):
    """The index of the translation stabilizer of mu, from every shift h
    that maps its (code, numerator) pairs onto themselves."""
    n = mu.spec.exponent
    held = set(mu.points)
    return gcd(n, *(h for h in range(n) if {((r + h) % n, a) for r, a in mu.points} == held))


def _reference_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def reference_distribution_from_obj(spec, obj):
    """The mass-list reader as it was before the fused encode, refusing
    what no writer emits (keys other than x, num, den; a point out of
    element order or repeated; a num / den not in lowest terms) at the
    same step of its loop: each point read by three passes (list of ints,
    reduced element, CRT code), each num / den put over the lcm of the
    dens, points sorted by element rank through a per-point lambda and
    reduced by their common gcd."""
    if not isinstance(obj, list):
        raise ValueError("distribution must be a list of mass entries")
    masses = {}
    last = None
    for entry in obj:
        if not isinstance(entry, dict) or set(entry) != {"x", "num", "den"}:
            raise ValueError(f"mass entry {entry!r} must have exactly the keys x, num, den")
        x = entry["x"]
        if not isinstance(x, list) or not all(_reference_int(c) for c in x):
            raise ValueError(f"element must be a list of integers, got {x!r}")
        code = spec.crt(spec.require_element(tuple(x)))
        if last is not None and spec.crt_rank[code] <= spec.crt_rank[last]:
            order = "duplicates the point before it" if code == last else "is out of element order"
            raise ValueError(f"mass entry {entry!r} {order}")
        last = code
        num, den = entry["num"], entry["den"]
        if not _reference_int(num) or not _reference_int(den) or den <= 0:
            raise ValueError(f"mass entry {entry!r} must use integer num/den with den > 0")
        if num <= 0:
            raise ValueError("masses must be strictly positive")
        if gcd(num, den) > 1:
            raise ValueError(f"mass entry {entry!r} is not in lowest terms")
        masses[code] = (num, den)
    total = lcm(*(den for _, den in masses.values()))
    points = sorted(((r, num * (total // den)) for r, (num, den) in masses.items()),
                    key=lambda p: spec.crt_rank[p[0]])
    common = gcd(total, *(a for _, a in points))
    if common > 1:
        total //= common
        points = [(r, a // common) for r, a in points]
    return Distribution(spec, total, tuple(points))


def reference_distribution_to_obj(mu):
    """The mass-list writer through the Fraction masses view."""
    return [{"x": list(x), "num": m.numerator, "den": m.denominator} for x, m in mu.masses]


# -- helpers the package does not export ---------------------------------------
# Identities, whole and trivial subgroups and subgroup members are read off
# the file forms (multiplier and exponent vectors), and elements are built as
# coordinate tuples, apart from the code arithmetic that the tests check with
# them.


@functools.cache
def element_list(spec):
    """Every element of spec as a coordinate tuple, lexicographic, built once
    per spec."""
    return tuple(itertools.product(*(range(q) for q in spec.orders)))


def zero(spec):
    return (0,) * len(spec.components)


def contains(sub, x):
    """Whether the subgroup dZ(N) holds x: its code is a multiple of d."""
    return sub.spec.crt(x) % sub.index == 0


def subgroup_elements(sub):
    """The members, lexicographic: the x with x_j a multiple of p_j**a_j,
    read off the exponent vector and not off sub.codes."""
    steps = [c.p**a for c, a in zip(sub.spec.components, sub.exponents)]
    return [
        x for x in itertools.product(*(range(q) for q in sub.spec.orders))
        if all(c % step == 0 for c, step in zip(x, steps))
    ]


def is_identity(endo):
    return all(m == 1 for m in endo.multipliers)


def is_minus_identity(endo):
    return all(m == q - 1 for m, q in zip(endo.multipliers, endo.spec.orders))


def truncated_unit_endo(unit, spec):
    """Multiplication by a truncated p-adic unit on a one-component group,
    by the multiplier the quasicyclic reductions take."""
    (comp,) = spec.components
    return Endomorphism(spec, engine._truncated_unit(unit, comp.p, comp.k))


def full_subgroup(spec):
    return Subgroup(spec, (0,) * len(spec.components))


def trivial_subgroup(spec):
    return Subgroup(spec, tuple(c.k for c in spec.components))


def is_full(sub):
    return not any(sub.exponents)


def subgroup_generated(spec, xs):
    """Smallest subgroup containing every element of xs."""
    return generated_by_codes(spec, [spec.crt(x) for x in xs])


def is_rational(value):
    """Whether a CycloElement has no coordinate but the constant one."""
    return not any(value.num[1:])


def rational_value(value):
    """The rational number a CycloElement with no irrational coordinate is."""
    assert is_rational(value)
    return Fraction(value.num[0], value.den)


def iter_admissible_constructions(
    spec: GroupSpec,
    seed: int,
    variants: int = 1,
    max_denominator: int = 8,
):
    """Constructed fixtures over all (subgroup, automorphism) pairs that admit one.

    Deterministic under the seed: the seed distribution and the free shift for
    each combination are drawn from substreams keyed by the combination.
    """
    stream = DeterministicStream(seed, label="constructions")
    for sub in enumerate_subgroups(spec):
        for alpha in enumerate_automorphisms(spec):
            if not construction_admissible(sub, alpha):
                continue
            for i in range(variants):
                label = f"{sub.exponents}|{alpha.multipliers}|{i}"
                sub_stream = stream.derive(label)
                rho = random_distribution(
                    spec, max_denominator, sub_stream.derive("rho"), support=sub
                )
                x2 = sub_stream.choice(element_list(spec))
                yield construct_instance(sub, alpha, rho, x2)
