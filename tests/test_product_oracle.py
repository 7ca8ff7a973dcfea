"""The ring product on per-ring index tables against the tuple-keyed loop
it replaced (`product_oracle`), bit for bit, and the work the tables
save: after a ring's first pairing, a Gamma Gram reads no basis monomial
and no `reduce_map` entry.  The element sum and scale, which skip exact
zeros, against the loops that did not, and the Gamma class from one
series per dimension against the per-ray log and `exp` route.  The Todd
and Gamma classes from the divisor power sums, and the Euler form from
the top-degree tables, against the routes they replaced.  The exp of a
divisor read from its monomials against the ring `exp`, and the HRR
Gram with the Euler form applied once per class against the Fraction
pairing of `test_pairing_oracle`.  The Gamma class, built as complex
numbers, against the symbolic classes of `product_oracle` evaluated there,
bit for bit."""
import gc
import itertools
import math
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

import product_oracle
from test_pairing_oracle import oracle_euler_form, oracle_hrr
from test_ring_oracle import FANS
from toriclg import ktheory
from toriclg.fans import StackyFan
from toriclg.ktheory import (Cls, CohomologyRing, GammaData, KClass,
                             bl_line_p4, gamma_class, gram_matrix,
                             projective_space)
from toriclg.mutation import KBackend
from toriclg.secondary import wall_between


def canon(x):
    """A scalar as a comparable key that tells apart what `==` merges: the
    type of a Fraction and the bits of each complex part (-0.0 and nan
    too)."""
    if isinstance(x, complex):
        return "complex", x.real.hex(), x.imag.hex()
    return type(x), x


def canon_cls(c):
    return {d: [canon(x) for x in v] for d, v in c.coeffs.items()}


def random_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def random_complex(rng):
    r = rng.random()
    if r < 0.05:
        return complex(math.nan, rng.uniform(-2, 2))
    if r < 0.15:
        return complex(-0.0, rng.choice((-0.0, 0.0, rng.uniform(-2, 2))))
    return complex(rng.uniform(-2, 2), rng.choice((-0.0, rng.uniform(-2, 2))))


def random_class(ring, rng, kind):
    draw = {"fraction": random_fraction, "complex": random_complex}[kind]
    coeffs = {}
    for d in range(ring.n + 1):
        coeffs[d] = [Fraction(0) if rng.random() < 0.3 else draw(rng)
                     for _ in ring.basis[d]]
    if rng.random() < 0.2:      # a whole degree of zeros
        d = rng.randint(0, ring.n)
        zero = complex(-0.0, 0.0) if kind == "complex" else Fraction(0)
        coeffs[d] = [zero] * len(coeffs[d])
    return Cls(ring, coeffs)


KINDS = [("fraction", "fraction"), ("complex", "complex"),
         ("complex", "fraction")]


@pytest.mark.parametrize("name", sorted(FANS))
def test_product_equals_the_tuple_oracle_bit_for_bit(name):
    ring = CohomologyRing(FANS[name]())
    rng = random.Random(sorted(FANS).index(name))
    for lowest in range(ring.n + 1):
        for k1, k2 in KINDS:
            for _ in range(2):
                a = random_class(ring, rng, k1)
                b = random_class(ring, rng, k2)
                want = product_oracle.product(a, b, lowest)
                got = a.product(b, lowest)
                assert canon_cls(got) == canon_cls(want), (lowest, k1, k2)
                if lowest == 0:
                    assert canon_cls(a * b) == canon_cls(want)


def test_complex_nan_and_signed_zeros_are_kept():
    ring = CohomologyRing(FANS["p2"]())
    a, b = ring.zero(), ring.zero()
    a.coeffs[0][0] = complex(math.nan, 1.0)
    a.coeffs[1][0] = complex(-0.0, -0.0)        # a zero: skipped
    b.coeffs[0][0] = complex(-0.0, 2.0)
    b.coeffs[1][0] = complex(1.0, -0.0)
    got = a * b
    want = product_oracle.product(a, b, 0)
    assert canon_cls(got) == canon_cls(want)
    assert math.isnan(got.coeffs[0][0].real)


class CountingDict(dict):
    def __init__(self, data, hits):
        super().__init__(data)
        self.hits = hits

    def __getitem__(self, key):
        self.hits["reduce_map"] += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.hits["reduce_map"] += 1
        return super().get(key, default)


class CountingList(list):
    def __init__(self, data, hits):
        super().__init__(data)
        self.hits = hits

    def __getitem__(self, i):
        self.hits["basis"] += 1
        return super().__getitem__(i)

    def __iter__(self):
        self.hits["basis"] += len(self)
        return super().__iter__()


class TableLog(dict):
    def __init__(self, built):
        super().__init__()
        self.built = built

    def __setitem__(self, key, value):
        self.built[key] += 1
        super().__setitem__(key, value)


def test_gamma_gram_reads_only_the_index_tables():
    ring = CohomologyRing(bl_line_p4())
    rng = random.Random(11)
    hits, built = Counter(), Counter()
    ring.basis = {d: CountingList(b, hits) for d, b in ring.basis.items()}
    ring.reduce_map = {d: CountingDict(r, hits)
                       for d, r in ring.reduce_map.items()}
    ring._tables = TableLog(built)
    gd = GammaData(ring)
    classes = []
    for _ in range(6):
        c1 = ring.zero()
        for i in range(ring.m):
            c1 = c1 + ring.divisor(i).scaled(Fraction(rng.randint(-2, 2)))
        classes.append(KClass.line_bundle(ring, c1, "L"))
    gd.pairing(classes[0], classes[1])
    assert built and all(k == 1 for k in built.values())
    assert all(d1 + d2 <= ring.n for d1, d2 in built)
    before = Counter(built)
    hits.clear()
    gram = [[gd.pairing(a, b) for b in classes] for a in classes]
    assert hits == Counter(), hits
    assert built == before
    assert len(gram) == 6 and all(len(row) == 6 for row in gram)


# the twelve oracle rings, the five varieties of the `ktheory` benchmark
# among them, and P^1, the CLI's one-dimensional variety
RINGS = dict(FANS, p1=lambda: projective_space(1))


@pytest.mark.parametrize("name", sorted(RINGS))
def test_gamma_class_equals_the_log_exp_oracle_bit_for_bit(name):
    # the complex class against the symbolic per-ray class evaluated on
    # the oracle side, in the bits of both parts of every entry
    ring = CohomologyRing(RINGS[name]())
    got = gamma_class(ring)
    want = product_oracle.numeric(product_oracle.gamma_class(ring))
    assert all(type(x) is complex for v in got.coeffs.values() for x in v)
    assert canon_cls(got) == canon_cls(want)


def test_gamma_class_takes_no_exp_and_one_series_per_dimension(monkeypatch):
    calls = Counter()
    real_exp = Cls.exp

    def exp(self):
        calls["exp"] += 1
        return real_exp(self)
    monkeypatch.setattr(Cls, "exp", exp)
    ring = CohomologyRing(bl_line_p4())
    gamma_class(ring)
    assert calls["exp"] == 0
    ktheory._gamma_series.cache_clear()
    GammaData(ring)
    GammaData(CohomologyRing(bl_line_p4()))
    # each GammaData reads the series once, for the class
    info = ktheory._gamma_series.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_gamma_class_equals_the_series_route_typed(name):
    # from the power sums, each entry sums its terms in the order that
    # the per-ray series product gave them, so it keeps the bits of that
    # symbolic class evaluated; and that class, of the program's exact
    # series, is the per-ray log and exp class exactly
    ring = CohomologyRing(RINGS[name]())
    got = gamma_class(ring)
    want = product_oracle.series_product(
        ring, product_oracle.gamma_series(ring.n))
    assert canon_cls(got) == canon_cls(product_oracle.numeric(want))
    assert want == product_oracle.gamma_class(ring)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_todd_class_equals_the_series_route_typed(name):
    ring = CohomologyRing(RINGS[name]())
    got = ring.todd_class()
    assert canon_cls(got) == canon_cls(
        product_oracle.series_product(ring, ktheory._todd_series(ring.n)))
    assert all(type(x) is Fraction for v in got.coeffs.values() for x in v)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_euler_form_equals_one_top_degree_product_per_entry(name):
    ring = CohomologyRing(RINGS[name]())
    assert ring.euler_form == product_oracle.euler_form(ring)


def test_power_sums_take_no_product_and_gamma_no_two_term_products(
        monkeypatch):
    # P_k = sum_b D_b^k is read from the monomial reductions, with no
    # product (the m (n - 1) products D_b^k give the same class); the Gamma
    # class takes one product P^{e'} P_k per term e of the series, of
    # exact classes alone: no symbolic or complex coefficient enters the
    # ring
    products = []
    real_product = Cls.product

    def product(self, other, lowest):
        products.append(lowest)
        assert all(type(x) is Fraction for c in (self, other)
                   for v in c.coeffs.values() for x in v)
        return real_product(self, other, lowest)
    for name in sorted(RINGS):
        ring = CohomologyRing(RINGS[name]())
        n = ring.n
        monkeypatch.setattr(Cls, "product", product)
        products.clear()
        sums = [ring.power_sum(k) for k in range(1, n + 1)]
        assert products == []
        gamma_class(ring)
        series = ktheory._gamma_series(n)
        assert sorted(products) == sorted(
            d for d in range(1, n + 1) for _ in series[d])
        monkeypatch.undo()
        for k, P in enumerate(sums, 1):
            want = ring.zero()
            for b in range(ring.m):
                pw = ring.one()
                for _ in range(k):
                    pw = pw * ring.divisor(b)
                want = want + pw
            assert P == want


def test_a_ring_is_freed_by_refcount_after_its_pairings():
    # no reference cycle holds a ring once its Euler form, Gamma data and
    # both pairings have been used: with the cyclic collector off, the
    # last reference frees it
    fan = bl_line_p4()
    gc.collect()
    gc.disable()
    try:
        ring = CohomologyRing(fan)
        assert ring.euler_form[0] > 0
        gd = GammaData(ring)
        V = KClass.line_bundle(ring, ring.divisor(0), "L")
        W = KClass.structure_sheaf(ring)
        assert ktheory.euler_pairing_hrr(V, W) == \
            round(ktheory.euler_pairing_gamma(gd, V, W).real)
        # a mixed divisor's line bundle, paired in both orders, so that
        # both classes hold their Euler image, and through the backend
        mixed = ring.divisor(1).scaled(Fraction(2)) - ring.divisor(5)
        L = KClass.line_bundle(ring, mixed, "L'")
        back = KBackend(ring)
        assert back.pair(ring.flatten(L.ch), ring.flatten(V.ch)) == \
            ktheory.euler_pairing_hrr(L, V)
        assert ktheory.euler_pairing_hrr(V, L) == \
            back.pair(ring.flatten(V.ch), ring.flatten(L.ch))
        assert "euler_image" in vars(L) and "euler_image" in vars(V)
        ref = weakref.ref(ring)
        del ring, gd, V, W, L, back, mixed
        assert ref() is None
    finally:
        gc.enable()


def test_rings_and_pairings_leave_no_garbage_for_the_collector():
    # a ring build (the memoized top-degree integrals), its Euler form,
    # line bundles and both pairings, and an Orlov basis with its checks
    # make no reference cycle, so the cyclic collector finds nothing
    fan = bl_line_p4()
    p4 = StackyFan(fan.vector_set,
                   itertools.combinations(range(5), 4))
    wall = wall_between(fan, p4)
    gc.collect()
    gc.disable()
    try:
        ring = CohomologyRing(fan)
        gd = GammaData(ring)
        classes = [KClass.line_bundle(ring, D, "L")
                   for D in integral_divisors(ring, random.Random(5))]
        gram_matrix(classes)
        [[gd.pairing(a, b) for b in classes] for a in classes]
        bd = ktheory.BlowupData(wall, 3)
        ktheory.verify_sod(*bd.orlov_basis(1))
        bd.verify_k_relations()
        del ring, gd, classes, bd
        assert gc.collect() == 0
    finally:
        gc.enable()


def add_and_scale_cases(ring, rng):
    """(kind, class) pairs: random classes of each scalar kind, the unit
    classes, and for every `lowest` a product that keeps only degrees
    lowest..n, so its lower degrees are exact zeros."""
    kinds = ("fraction", "complex")
    cases = [(k, random_class(ring, rng, k)) for k in kinds for _ in range(3)]
    cases += [("fraction", ring.zero()), ("fraction", ring.one()),
              ("fraction", ring.divisor(0))]
    for lowest in range(ring.n + 1):
        k = kinds[lowest % 2]
        a, b = random_class(ring, rng, k), random_class(ring, rng, k)
        cases.append((k, a.product(b, lowest)))
    return cases


# the scales a class can take: an int, Fractions (zero included), complex
# numbers with signed zeros
SCALES = [-1, Fraction(-3, 2), Fraction(0), complex(-0.0, 1.5),
          complex(0.0, -0.0)]


@pytest.mark.parametrize("name", sorted(FANS))
def test_add_and_scaled_equal_the_old_loops(name):
    ring = CohomologyRing(FANS[name]())
    rng = random.Random(100 + sorted(FANS).index(name))
    cases = add_and_scale_cases(ring, rng)
    for ka, a in cases:
        for c in SCALES:
            assert canon_cls(a.scaled(c)) == \
                canon_cls(product_oracle.scaled(a, c)), (ka, c)
        for kb, b in cases:
            want = product_oracle.add(a, b)
            assert canon_cls(a + b) == canon_cls(want), (ka, kb)
            assert canon_cls(a - b) == canon_cls(
                product_oracle.add(a, product_oracle.scaled(b, -1)))


def test_add_keeps_complex_signed_zeros_and_nan():
    ring = CohomologyRing(FANS["p2"]())
    a = ring.zero()
    a.coeffs[0][0] = complex(-0.0, -0.0)
    a.coeffs[1][0] = complex(math.nan, -0.0)
    for got, want in [(a + ring.zero(), product_oracle.add(a, ring.zero())),
                      (ring.zero() + a, product_oracle.add(ring.zero(), a)),
                      (a.scaled(Fraction(2)),
                       product_oracle.scaled(a, Fraction(2)))]:
        assert canon_cls(got) == canon_cls(want)
    # an exact zero added to -0.0 gives +0.0: the addition is not skipped
    assert (a + ring.zero()).coeffs[0][0].real.hex() == "0x0.0p+0"
    assert math.isnan((a + ring.zero()).coeffs[1][0].real)


def integral_divisors(ring, rng):
    """The zero divisor and integer combinations of the ray divisors."""
    out = [ring.zero()]
    for _ in range(4):
        D = ring.zero()
        for i in range(ring.m):
            D = D + ring.divisor(i).scaled(Fraction(rng.randint(-3, 3)))
        out.append(D)
    return out


def random_divisors(ring, rng):
    """`integral_divisors` and classes with Fraction entries drawn on the
    basis of degree 1, one entry zeroed so the support varies."""
    out = integral_divisors(ring, rng)
    for _ in range(3):
        D = ring.zero()
        D.coeffs[1] = [random_fraction(rng) for _ in ring.basis[1]]
        D.coeffs[1][rng.randrange(len(D.coeffs[1]))] = Fraction(0)
        out.append(D)
    return out


@pytest.mark.parametrize("name", sorted(RINGS))
def test_divisor_exp_equals_the_ring_exp_typed(name):
    ring = CohomologyRing(RINGS[name]())
    rng = random.Random(200 + sorted(RINGS).index(name))
    for D in random_divisors(ring, rng):
        want = product_oracle.exp(D)
        got = ring.divisor_exp(D)
        assert canon_cls(got) == canon_cls(want)
        assert canon_cls(got) == canon_cls(D.exp())
    assert canon_cls(ring.divisor_exp(ring.zero())) == canon_cls(ring.one())


def test_line_bundles_take_no_ring_product_or_exp(monkeypatch):
    calls = Counter()
    real_product, real_exp = Cls.product, Cls.exp

    def product(self, other, lowest):
        calls["product"] += 1
        return real_product(self, other, lowest)

    def exp(self):
        calls["exp"] += 1
        return real_exp(self)
    monkeypatch.setattr(Cls, "product", product)
    monkeypatch.setattr(Cls, "exp", exp)
    for name in sorted(RINGS):
        ring = CohomologyRing(RINGS[name]())
        rng = random.Random(300 + sorted(RINGS).index(name))
        for D in random_divisors(ring, rng):
            KClass.line_bundle(ring, D, "L")
    assert calls == Counter()


def test_exp_rejects_a_degree_zero_part():
    ring = CohomologyRing(FANS["p2"]())
    for c0 in (Fraction(1, 2), 1j):
        a = ring.divisor(0)
        a.coeffs[0][0] = c0
        with pytest.raises(ValueError, match="degree-0 coefficient"):
            a.exp()


def test_divisor_exp_rejects_parts_outside_degree_one():
    ring = CohomologyRing(FANS["p2"]())
    for d in (0, 2):
        D = ring.divisor(0)
        D.coeffs[d][0] = Fraction(1)
        with pytest.raises(ValueError, match=f"degree-{d} part"):
            ring.divisor_exp(D)


@pytest.mark.parametrize("name", sorted(FANS))
def test_reduction_factors_are_int_where_integral(name):
    ring = CohomologyRing(FANS[name]())
    for d1 in range(ring.n + 1):
        for d2 in range(ring.n + 1 - d1):
            ring.product_ids(d1, d2)
    xs = [x for _, red in ring.reductions for _, x in red]
    assert xs and all(type(x) is int if Fraction(x).denominator == 1
                      else type(x) is Fraction for x in xs)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_hrr_gram_with_one_euler_image_per_class(name, monkeypatch):
    # the Gram of line bundles, and of their pairs by the backend, equals
    # the Fraction pairing, and the Euler form is applied once per class
    ring = CohomologyRing(RINGS[name]())
    rng = random.Random(400 + sorted(RINGS).index(name))
    classes = [KClass.line_bundle(ring, D, "L")
               for D in integral_divisors(ring, rng)]
    images = []
    real_image = CohomologyRing.euler_image

    def euler_image(self, v):
        images.append(v)
        return real_image(self, v)
    monkeypatch.setattr(CohomologyRing, "euler_image", euler_image)
    got = gram_matrix(classes)
    assert len(images) == len(classes)
    assert gram_matrix(classes) == got
    assert len(images) == len(classes)
    X = oracle_euler_form(ring)
    want = [[oracle_hrr(X, ring, a.ch, b.ch) for b in classes]
            for a in classes]
    assert got == want and all(type(x) is int for row in got for x in row)
    back = KBackend(ring)
    assert [[back.pair(ring.flatten(a.ch), ring.flatten(b.ch))
             for b in classes] for a in classes] == want
