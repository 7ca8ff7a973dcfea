import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from product_oracle import GammaPoly
from toriclg import errors, ktheory
from toriclg.fans import StackyFan
from toriclg.ktheory import (BlowupData, Cls, CohomologyRing, GammaData,
                             KClass, bl_line_p4, bl_point_p2,
                             build_cohomology_ring, euler_pairing_gamma,
                             euler_pairing_hrr, gram_matrix, p1xp1,
                             projective_space, verify_sod)
from toriclg.lattice import AbelianLattice, VectorSet
from toriclg.mutation import KBackend, MarkedReflectionSystem, MatrixBackend
from toriclg.secondary import wall_between


def line_bundle(ring, coeffs):
    """O(sum coeffs[i] * D_i) over local ray indices."""
    c1 = ring.zero()
    for i, a in coeffs.items():
        c1 = c1 + ring.divisor(i).scaled(Fraction(a))
    return KClass.line_bundle(ring, c1, f"O({coeffs})")


def test_ring_p4():
    ring = build_cohomology_ring(projective_space(4))
    assert ring.total_dim() == 5
    assert [len(ring.basis[d]) for d in range(5)] == [1, 1, 1, 1, 1]
    H = ring.divisor(0)
    top = H * H * H * H
    assert top.integrate() == 1


def test_ring_p1xp1():
    ring = build_cohomology_ring(p1xp1())
    assert ring.total_dim() == 4
    h1 = ring.divisor(0)
    h2 = ring.divisor(2)
    assert (h1 * h2).integrate() == 1
    assert (h1 * h1).is_zero() and (h2 * h2).is_zero()


def test_ring_bl_line_p4():
    ring = build_cohomology_ring(bl_line_p4())
    assert ring.total_dim() == 9
    assert [len(ring.basis[d]) for d in range(5)] == [1, 2, 3, 2, 1]


def test_ring_rejects_noncomplete():
    vs = VectorSet(AbelianLattice(2), [(1, 0), (0, 1)])
    fan = StackyFan(vs, [{0, 1}])
    with pytest.raises(errors.NotComplete):
        build_cohomology_ring(fan)


def test_ring_rejects_nonsmooth():
    vs = VectorSet(AbelianLattice(2), [(0, 1), (3, -1), (1, 0), (-1, 0), (0, -1)])
    fan = StackyFan(vs, [{0, 1}, {1, 4}, {4, 3}, {3, 0}])
    with pytest.raises(errors.NotSmooth):
        build_cohomology_ring(fan)


def test_hrr_p4_binomials():
    ring = build_cohomology_ring(projective_space(4))
    O = KClass.structure_sheaf(ring)
    for k in range(-6, 7):
        Ok = line_bundle(ring, {0: k})
        val = euler_pairing_hrr(O, Ok)
        expect = math.comb(k + 4, 4) if k >= -4 else math.comb(-k - 1, 4)
        if k >= 0:
            assert val == math.comb(k + 4, 4)
        else:
            # chi(O(k)) = (k+1)(k+2)(k+3)(k+4)/24
            assert val == (k + 1) * (k + 2) * (k + 3) * (k + 4) // 24
    assert euler_pairing_hrr(O, line_bundle(ring, {0: 1})) == 5
    assert euler_pairing_hrr(O, O) == 1


def test_hrr_p1_riemann_roch():
    ring = build_cohomology_ring(projective_space(1))
    for a in range(-3, 4):
        for b in range(-3, 4):
            Oa = line_bundle(ring, {0: a})
            Ob = line_bundle(ring, {0: b})
            assert euler_pairing_hrr(Oa, Ob) == b - a + 1


def test_ch_multiplicativity_random():
    ring = build_cohomology_ring(bl_line_p4())
    rng = random.Random(2)
    for _ in range(10):
        c1 = {i: rng.randint(-2, 2) for i in range(ring.m)}
        c2 = {i: rng.randint(-2, 2) for i in range(ring.m)}
        L1 = line_bundle(ring, c1)
        L2 = line_bundle(ring, c2)
        L12 = line_bundle(ring, {i: c1[i] + c2[i] for i in c1})
        assert (L1.ch * L2.ch) == L12.ch


def test_serre_symmetry_random():
    ring = build_cohomology_ring(projective_space(2))
    KX = KClass.line_bundle(ring, ring.c1().scaled(Fraction(-1)), "K_X")
    rng = random.Random(3)
    for _ in range(8):
        a = line_bundle(ring, {0: rng.randint(-3, 3)})
        b = line_bundle(ring, {1: rng.randint(-3, 3)})
        lhs = euler_pairing_hrr(a, b)
        rhs = euler_pairing_hrr(b, KClass(ring, a.ch * KX.ch, "a*K_X"))
        assert lhs == (-1) ** ring.n * rhs


def test_kbackend_pairs_like_hrr():
    rng = random.Random(12)
    for fan in (bl_line_p4(), p1xp1()):
        ring = build_cohomology_ring(fan)
        back = KBackend(ring)
        td = ring.todd_class()
        for _ in range(6):
            V = line_bundle(ring, {i: rng.randint(-2, 2) for i in range(ring.m)})
            W = line_bundle(ring, {i: rng.randint(-2, 2) for i in range(ring.m)})
            val = euler_pairing_hrr(V, W)
            assert back.pair(back.flatten(V.ch), back.flatten(W.ch)) == val
            # reference: the HRR integral taken directly in the ring
            assert (V.ch.dual() * W.ch * td).integrate() == val


def test_hrr_gram_builds_todd_once_per_ring(monkeypatch):
    calls = []
    todd = CohomologyRing.todd_class

    def counting(ring):
        calls.append(ring)
        return todd(ring)
    monkeypatch.setattr(CohomologyRing, "todd_class", counting)
    rng = random.Random(3)
    rings = [build_cohomology_ring(f) for f in (projective_space(2), p1xp1())]
    for ring in rings:
        classes = [line_bundle(ring, {i: rng.randint(-2, 2)
                                      for i in range(ring.m)})
                   for _ in range(6)]
        assert len(gram_matrix(classes)) == 6
    assert calls == rings


def test_gammapoly_scalar_operands():
    nz = 2
    g = GammaPoly.symbol("gamma", nz) + GammaPoly.symbol("zeta2", nz)
    assert 0 + g == g and Fraction(0) + g == g
    assert Fraction(2, 3) * g == g * Fraction(2, 3)
    assert g / 3 == g * Fraction(1, 3) and (g / 3) * 3 == g
    assert GammaPoly.const(0, nz) == 0 and g != 0
    assert GammaPoly.const(5, nz) == 5 and Fraction(5) == GammaPoly.const(5, nz)


def test_import_keeps_mpmath_precision():
    # the child sees src on PYTHONPATH, as pytest's own pythonpath setting
    # does not reach it
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import mpmath, toriclg.ktheory; print(mpmath.mp.dps)"],
        env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "15"


def test_gamma_class_p1():
    ring = build_cohomology_ring(projective_space(1))
    gd = GammaData(ring)
    gnum = gd.gamma.numeric()
    # Gamma-hat(P^1) = 1 - 2 gamma H
    import mpmath
    assert abs(gnum.coeffs[0][0] - 1) < 1e-25
    assert abs(gnum.coeffs[1][0] - (-2 * float(mpmath.euler))) < 1e-15


def test_gamma_class_p2_two_routes():
    ring = build_cohomology_ring(projective_space(2))
    gd = GammaData(ring)
    gnum = gd.gamma.numeric()
    import mpmath
    g = float(mpmath.euler)
    z2 = float(mpmath.zeta(2))
    # Gamma(1+x)^3 with x^3 = 0: 1 - 3g x + (9g^2/2 + 3 z2/2) x^2
    assert abs(gnum.coeffs[1][0] - (-3 * g)) < 1e-14
    assert abs(gnum.coeffs[2][0] - (4.5 * g * g + 1.5 * z2)) < 1e-13


@pytest.mark.parametrize("k", range(1, 81))
def test_constants_equal_mpmath_bit_for_bit(k):
    # the decimal gamma and Borwein's exact zeta(k), each rounded once,
    # against mpmath at 30 digits
    import mpmath
    with mpmath.workdps(30):
        want = complex(mpmath.euler if k == 1 else mpmath.zeta(k))
    got = ktheory._constant(k)
    assert type(got) is complex
    assert (got.real.hex(), got.imag.hex()) == \
        (want.real.hex(), want.imag.hex())


def test_todd_series_is_the_bernoulli_series():
    # t_k = B_k / k! with B_1 = +1/2, against the table the ring used up
    # to degree 8
    table = [Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0),
             Fraction(-1, 720), Fraction(0), Fraction(1, 30240), Fraction(0),
             Fraction(-1, 1209600)]
    t = ktheory._todd_series(12)
    assert list(t[:9]) == table
    assert all(type(x) is Fraction for x in t)
    assert t[10] == Fraction(5, 66) / math.factorial(10)
    assert t[12] == Fraction(-691, 2730) / math.factorial(12)
    assert t[9] == t[11] == 0


def test_hrr_on_p9_needs_todd_past_degree_8():
    # chi(O, O(j)) = (j + 1)(j + 2)...(j + 9) / 9! on P^9, whose Todd class
    # reaches degree 9
    ring = build_cohomology_ring(projective_space(9))
    O = KClass.structure_sheaf(ring)
    for j in range(-10, 4):
        want = math.prod(range(j + 1, j + 10)) // math.factorial(9)
        assert euler_pairing_hrr(O, line_bundle(ring, {0: j})) == want


def test_gamma_pairing_matches_hrr():
    rng = random.Random(4)
    for fan in (projective_space(2), projective_space(4), p1xp1(), bl_line_p4()):
        ring = build_cohomology_ring(fan)
        gd = GammaData(ring)
        for _ in range(6):
            c1 = {i: rng.randint(-2, 2) for i in range(ring.m)}
            c2 = {i: rng.randint(-2, 2) for i in range(ring.m)}
            V = line_bundle(ring, c1)
            W = line_bundle(ring, c2)
            val = euler_pairing_gamma(gd, V, W, check=False)
            assert abs(val - euler_pairing_hrr(V, W)) < 1e-6


def test_gamma_pairing_computes_alpha_once_per_class(monkeypatch):
    ring = build_cohomology_ring(p1xp1())
    gd = GammaData(ring)
    rng = random.Random(5)
    classes = [line_bundle(ring, {i: rng.randint(-2, 2)
                                  for i in range(ring.m)})
               for _ in range(4)]
    calls = []
    numeric = Cls.numeric

    def counting(cls):
        calls.append(cls)
        return numeric(cls)
    monkeypatch.setattr(Cls, "numeric", counting)
    gram = [[gd.pairing(a, b) for b in classes] for a in classes]
    assert len(calls) == len(classes)
    for a, row in zip(classes, gram):
        for b, val in zip(classes, row):
            assert abs(val - euler_pairing_hrr(a, b)) < 1e-6


def test_gamma_pairing_o_o_p1():
    ring = build_cohomology_ring(projective_space(1))
    gd = GammaData(ring)
    O = KClass.structure_sheaf(ring)
    assert abs(euler_pairing_gamma(gd, O, O, check=False) - 1) < 1e-9


def bl_line_wall():
    fan_plus = bl_line_p4()
    vs = fan_plus.vector_set
    import itertools
    minus_cones = [set(c) for c in itertools.combinations(range(5), 4)]
    fan_minus = StackyFan(vs, minus_cones)
    return wall_between(fan_plus, fan_minus)


def test_orlov_basis_bl_line_p4():
    w = bl_line_wall()
    assert w.kind == "contract_divisor" and w.J == 2
    bd = BlowupData(w)
    assert bd.rank_center == 2 and bd.rank_minus == 5 and bd.rank_plus == 9
    classes, blocks = bd.orlov_basis(h=1)
    assert blocks == [2, 5, 2]
    ok, G = verify_sod(classes, blocks)
    assert ok
    bd.verify_k_relations()


def test_orlov_basis_bl_point_p2():
    fan_plus = bl_point_p2()
    vs = fan_plus.vector_set
    fan_minus = StackyFan(vs, [{0, 1}, {1, 2}, {2, 0}])
    w = wall_between(fan_plus, fan_minus)
    assert w.kind == "contract_divisor" and w.J == 1
    bd = BlowupData(w)
    assert bd.rank_center == 1
    classes, blocks = bd.orlov_basis(h=0)
    assert blocks == [3, 1]
    ok, G = verify_sod(classes, blocks)
    assert ok


def test_verify_sod_single_class():
    ring = build_cohomology_ring(projective_space(2))
    ok, G = verify_sod([KClass.structure_sheaf(ring)], [1])
    assert ok and G == [[1]]


def test_verify_sod_blocks_must_partition_the_classes():
    # O, O(1) on P^2 is exceptional in order (Gram [[1, 3], [0, 1]]), so
    # only the blocks can fail: blocks covering too few or too many classes
    # give ok False and never an IndexError
    ring = build_cohomology_ring(projective_space(2))
    O = KClass.structure_sheaf(ring)
    classes = [O, KClass.line_bundle(ring, ring.divisor(0), "O(1)")]
    assert verify_sod(classes, [2]) == (True, [[1, 3], [0, 1]])
    assert verify_sod(classes, [1, 1])[0]
    for blocks in ([1], [1, 1, 1], [3], []):
        ok, G = verify_sod(classes, blocks)
        assert not ok and G == [[1, 3], [0, 1]]


def old_sod_rule(G, blocks):
    """verify_sod's rule before it dropped its determinant: the block checks
    and |det G| = 1."""
    from toriclg.rational import det
    blk_of = [bi for bi, b in enumerate(blocks) for _ in range(b)]
    n = len(G)
    ok = all(G[i][j] == 0 for i in range(n) for j in range(n)
             if blk_of[i] > blk_of[j] or (blk_of[i] == blk_of[j] and i > j))
    ok = ok and all(G[i][i] == 1 for i in range(n))
    return ok and abs(det([[Fraction(x) for x in row] for row in G])) == 1


@pytest.mark.parametrize("stray", [False, True])
def test_verify_sod_agrees_with_the_determinant_rule(monkeypatch, stray):
    # once the block checks pass the Gram is upper unitriangular, so its
    # determinant is 1 and cannot change the verdict
    rng = random.Random(17 + stray)
    verdicts = set()
    for _ in range(200):
        blocks = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        n = sum(blocks)
        G = [[rng.randint(-3, 3) if j > i else int(i == j) for j in range(n)]
             for i in range(n)]
        if stray and n > 1:
            i = rng.randrange(n)
            j = rng.randrange(i + 1) if rng.random() < 0.8 else i
            G[i][j] = rng.choice([-2, -1, 2]) if i == j \
                else rng.choice([-1, 1, 5])
        monkeypatch.setattr(ktheory, "gram_matrix", lambda classes, G=G: G)
        ok, got = verify_sod([None] * n, blocks)
        assert got is G
        assert ok == old_sod_rule(G, blocks)
        verdicts.add(ok)
    assert verdicts == ({True, False} if stray else {True})


def test_k_relations_structure():
    w = bl_line_wall()
    bd = BlowupData(w)
    ring = bd.ring_plus
    # (1 - L_b) over M_+ is p1^3 = 0 since the three divisors share class p1
    p1 = ring.divisor_by_s_index(w.M_plus[0])
    assert (p1 * p1 * p1).is_zero()


def mutate_past_the_last_position():
    mrs = MarkedReflectionSystem(MatrixBackend([[1, 0], [0, 1]]),
                                 [(1, 0), (0, 1)], [1j, -1j])
    return mrs.mutate(len(mrs.vectors) - 1, "right")


def orlov_basis_past_J():
    bd = BlowupData(bl_line_wall())
    return bd.orlov_basis(bd.J + 1)


def hrr_pairing_with_half_a_divisor():
    ring = build_cohomology_ring(projective_space(2))
    half = KClass(ring, ring.divisor(0).scaled(Fraction(1, 2)), "H/2")
    return euler_pairing_hrr(KClass.structure_sheaf(ring), half)


ERROR_CASES = [
    # (error class, call that raises it, text of the message)
    (errors.IndexOutOfRange, mutate_past_the_last_position,
     "position 1 has no neighbour"),
    (errors.RankMismatch, orlov_basis_past_J, "h = 3 outside 0..J = 2"),
    (errors.NonIntegral, hrr_pairing_with_half_a_divisor,
     "HRR pairing not an integer: 3/4"),
]


@pytest.mark.parametrize("cls,call,message", ERROR_CASES,
                         ids=[c[0].__name__ for c in ERROR_CASES])
def test_error_class_is_raised(cls, call, message):
    with pytest.raises(cls) as exc:
        call()
    assert str(exc.value) == message


# Internal verifications that no valid input fails: each is reached by
# corrupting the quantity it checks.
def fan_volume_off_by_one(monkeypatch):
    fan = projective_space(2)
    volume = StackyFan.fan_polytope_volume
    monkeypatch.setattr(StackyFan, "fan_polytope_volume",
                        lambda self: volume(self) + 1)
    return fan.dim_orbifold_cohomology()


def gamma_pairing_against_shifted_hrr(monkeypatch):
    ring = build_cohomology_ring(projective_space(2))
    gd = GammaData(ring)
    O = KClass.structure_sheaf(ring)
    hrr = ktheory.euler_pairing_hrr
    monkeypatch.setattr(ktheory, "euler_pairing_hrr",
                        lambda a, b: hrr(a, b) + 1)
    return euler_pairing_gamma(gd, O, O)


def k_relations_with_shifted_pullback(monkeypatch):
    bd = BlowupData(bl_line_wall())
    pullback = BlowupData.pullback_divisor
    monkeypatch.setattr(BlowupData, "pullback_divisor",
                        lambda self, b: pullback(self, b) + self.E)
    return bd.verify_k_relations()


FAULT_CASES = [
    # (error class, fault injection and the call that checks it, message text)
    (errors.VolumeBoxMismatch, fan_volume_off_by_one,
     "box-sector count 3 != volume count 4"),
    (errors.MismatchWithHRR, gamma_pairing_against_shifted_hrr, "vs HRR 2"),
    (errors.RelationFails, k_relations_with_shifted_pullback,
     "(L^{k_b} - phi^*L_b^-) != 0"),
]


@pytest.mark.parametrize("cls,call,message", FAULT_CASES,
                         ids=[c[0].__name__ for c in FAULT_CASES])
def test_verification_fault_is_raised(monkeypatch, cls, call, message):
    with pytest.raises(cls) as exc:
        call(monkeypatch)
    assert message in str(exc.value)


def test_gamma_series_degree_2_is_minus_gamma():
    # the Gamma class's degree-2 part is -gamma c1: g_1 is -gamma alone,
    # and the class it multiplies, P_1, is c1 (`CohomologyRing.c1`)
    for n in range(1, 10):
        gamma = (1,) + (0,) * max(n - 1, 1)
        assert ktheory._gamma_series(n)[1] == {gamma: Fraction(-1)}
