"""The integer HRR pairing and the top-degree Gamma pairing against the
Fraction pairings they replaced.

The oracle HRR pairing is u^T X v by `rational.bilinear` over the Euler form
X[a][b] = int (e_a^dual e_b Td(X)) taken as a triple product of classes,
all in Fraction.  The oracle Gamma pairing integrates the full product
b_1 alpha_2, both factors rebuilt for every pair.  Both oracles multiply
through the tuple-keyed product of `product_oracle`, never through
`Cls.product`."""
import itertools
import math
import random
from fractions import Fraction

import pytest

import product_oracle
from product_oracle import mul
from toriclg import ktheory
from toriclg.fans import StackyFan
from toriclg.ktheory import (BlowupData, Cls, GammaData, KClass, bl_line_p4,
                             bl_line_p4_initial_collection, bl_point_p2,
                             build_cohomology_ring, euler_pairing_hrr,
                             gram_matrix, p1xp1, projective_space)
from toriclg.mutation import KBackend, MarkedReflectionSystem
from toriclg.rational import bilinear
from toriclg.secondary import wall_between


def oracle_euler_form(ring):
    units = []
    for d in range(ring.n + 1):
        for i in range(len(ring.basis[d])):
            z = ring.zero()
            z.coeffs[d][i] = Fraction(1)
            units.append(z)
    td = product_oracle.todd_class(ring)
    return [[mul(mul(a.dual(), b), td).integrate() for b in units]
            for a in units]


def oracle_hrr(X, ring, u, v):
    """u^T X v for classes or flattened vectors, in Fraction."""
    return bilinear(ring.flatten(u) if isinstance(u, Cls) else u, X,
                    ring.flatten(v) if isinstance(v, Cls) else v)


def oracle_gamma(ring):
    """[alpha_1, alpha_2) as the integral of the full product b_1 alpha_2,
    both factors rebuilt for each pair."""
    n = ring.n
    gamma_num = product_oracle.numeric(product_oracle.gamma_class(ring))
    exp_c1 = product_oracle.exp(ring.c1().numeric().scaled(-1j * math.pi))

    def alpha(V):
        twopii = 2j * math.pi
        chnum = V.ch.numeric()
        return mul(gamma_num, Cls(ring, {d: [x * twopii ** d for x in v]
                                         for d, v in chnum.coeffs.items()}))

    def pairing(V1, V2):
        b1 = mul(exp_c1, alpha(V1))
        b1 = Cls(ring, {d: [x * ktheory._cis(math.pi * (d - n / 2 * 1))
                            for x in v] for d, v in b1.coeffs.items()})
        return mul(b1, alpha(V2)).integrate() / (2 * math.pi) ** n
    return pairing


VARIETIES = {
    "p2": lambda: projective_space(2),
    "p4": lambda: projective_space(4),
    "p1xp1": p1xp1,
    "bl_point_p2": bl_point_p2,
    "bl_line_p4": bl_line_p4,
}


def seeded_line_bundles(ring, seed, count=9):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        c1 = ring.zero()
        for i in range(ring.m):
            c1 = c1 + ring.divisor(i).scaled(Fraction(rng.randint(-2, 2)))
        out.append(KClass.line_bundle(ring, c1, "L"))
    return out


@pytest.mark.parametrize("name", sorted(VARIETIES))
def test_hrr_and_gram_equal_the_fraction_oracle(name):
    ring = build_cohomology_ring(VARIETIES[name]())
    X = oracle_euler_form(ring)
    D, E = ring.euler_form
    assert [[Fraction(x, D) for x in row] for row in E] == X
    classes = seeded_line_bundles(ring, sorted(VARIETIES).index(name))
    want = [[oracle_hrr(X, ring, a.ch, b.ch) for b in classes]
            for a in classes]
    assert all(x.denominator == 1 for row in want for x in row)
    got = [[euler_pairing_hrr(a, b) for b in classes] for a in classes]
    assert got == want and all(type(x) is int for row in got for x in row)
    assert gram_matrix(classes) == want
    back = KBackend(ring)
    pairs = [[back.pair(back.flatten(a.ch), back.flatten(b.ch))
              for b in classes] for a in classes]
    assert pairs == want
    assert all(type(x) is Fraction for row in pairs for x in row)


@pytest.mark.parametrize("name", sorted(VARIETIES))
def test_gamma_pairing_equals_the_full_product_bit_for_bit(name):
    ring = build_cohomology_ring(VARIETIES[name]())
    gd = GammaData(ring)
    classes = seeded_line_bundles(ring, 10 + sorted(VARIETIES).index(name))
    oracle = oracle_gamma(ring)
    for a, b in itertools.product(classes, repeat=2):
        assert repr(gd.pairing(a, b)) == repr(oracle(a, b))


def test_gamma_pairing_caches_one_entry_per_class():
    ring = build_cohomology_ring(projective_space(2))
    gd = GammaData(ring)
    classes = seeded_line_bundles(ring, 5, 3)
    for a, b in itertools.product(classes, repeat=2):
        gd.pairing(a, b)
    assert len(gd._factors) == 3


def orlov_classes():
    fan_plus = bl_line_p4()
    fan_minus = StackyFan(fan_plus.vector_set,
                          itertools.combinations(range(5), 4))
    bd = BlowupData(wall_between(fan_plus, fan_minus), 3)
    return bd.orlov_basis(1)[0]


def test_orlov_gram_equals_the_fraction_oracle():
    classes = orlov_classes()
    assert len(classes) == 9
    ring = classes[0].ring
    X = oracle_euler_form(ring)
    assert gram_matrix(classes) == \
        [[oracle_hrr(X, ring, a.ch, b.ch) for b in classes] for a in classes]


def test_kbackend_after_one_mutation_equals_the_fraction_oracle():
    ring = build_cohomology_ring(bl_line_p4())
    back = KBackend(ring)
    X = oracle_euler_form(ring)
    initial = bl_line_p4_initial_collection(ring)
    mrs = MarkedReflectionSystem(back, [back.flatten(c.ch) for c in initial],
                                 [complex(0, 9 - k) for k in range(9)])
    moved = 0
    for pos in range(len(mrs) - 1):
        mutated = mrs.mutate(pos, "right")
        moved += mutated.vectors != mrs.vectors
        for u, v in itertools.product(mutated.vectors, repeat=2):
            got = back.pair(u, v)
            assert type(got) is Fraction
            assert got == oracle_hrr(X, ring, u, v)
    assert moved
