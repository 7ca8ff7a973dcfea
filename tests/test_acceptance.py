"""Acceptance suite: every criterion at its stated tolerance, one printed
pass line per criterion (run with -s to see them)."""
import math
import time
from fractions import Fraction

import numpy as np

from critical_value_oracle import bl_line_p4_oracle_values
from residue_oracle import (grothendieck_residue_oracle,
                            steepest_descent_quadrature_p1)
from toriclg.families import bl_line_p4_family_lambda, pn_mirror
from toriclg.fans import StackyFan
from toriclg.gkz import generic_rank_check, gkz_relation
from toriclg.ktheory import (BlowupData, GammaData, KClass, bl_line_p4,
                             bl_line_p4_collection,
                             bl_line_p4_initial_collection,
                             build_cohomology_ring, euler_pairing_gamma,
                             euler_pairing_hrr, p1xp1, projective_space,
                             verify_sod)
from toriclg.lattice import AbelianLattice, VectorSet
from toriclg.lg import (conifold_point, critical_points,
                        curve_critical_values, track_critical_values)
from toriclg.mutation import (KBackend, MarkedReflectionSystem, MatrixBackend,
                              evolve)
from toriclg.rational import det, primitive
from toriclg.residues import asym_expansion, higher_residue_pairing
from toriclg.secondary import wall_between


def report(num, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def sort_vals(vals):
    return sorted(vals, key=lambda v: (-v.imag, v.real))


# -- 1 -----------------------------------------------------------------------

def test_criterion_1_example_716_critical_values():
    start = time.monotonic()
    fam = bl_line_p4_family_lambda()
    rng = np.random.default_rng(42)
    worst = 0.0
    for lam in (0.0009, 12.5):
        pts = critical_points(fam(lam), rng=rng)
        vals = sort_vals([p.value for p in pts])
        oracle = bl_line_p4_oracle_values(lam)
        assert len(vals) == 9
        for a, b in zip(vals, oracle):
            worst = max(worst, abs(a - b) / abs(b))
    lam = 0.0009
    t = lam ** (2 / 3) + lam ** (2 / 5)
    q = lam / t ** 2.5
    endpoint_err = max(abs(t - 0.0698), abs(q - 0.698))
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and endpoint_err < 1e-3 and elapsed < 10
    report(1, ok, f"nine values match the x^5(x^2+1)^2 oracle to "
                  f"{worst:.2e} rel, endpoint (t,q)=({t:.4f},{q:.4f}), "
                  f"{elapsed:.1f}s")


# -- 2 -----------------------------------------------------------------------

def test_criterion_2_discriminant_collision():
    start = time.monotonic()
    fam = bl_line_p4_family_lambda()

    def family(s):
        return fam(1j * s)
    # resultant-root oracle: double roots of x^5(x^2+1)^2 - lam occur at the
    # critical points of the left side; coefficients by increasing degree
    dp = np.polynomial.polynomial.polyder([0, 0, 0, 0, 0, 1, 0, 2, 0, 1])
    roots = np.roots(dp[::-1])
    cands = [x ** 5 * (x ** 2 + 1) ** 2 for x in roots]
    s_oracle = max(c.imag for c in cands if abs(c.real) < 1e-9 and c.imag > 0)
    grid = list(np.linspace(0.02, 0.08, 61))
    traj = track_critical_values(family, grid, rng=np.random.default_rng(1))
    coll = [e for e in traj.events
            if e["kind"] == "collision_near_discriminant"]
    err = abs(complex(coll[0]["param"]).real - s_oracle) if coll else float("inf")
    elapsed = time.monotonic() - start
    sstar_paper = 400 * math.sqrt(5) / 3 ** 9
    ok = (len(coll) == 1 and err < 1e-6
          and abs(s_oracle - sstar_paper) < 1e-12 and elapsed < 10)
    report(2, ok, f"one collision flagged at s = {coll[0]['param']:.9f} "
                  f"(oracle {s_oracle:.9f}, err {err:.2e}), {elapsed:.1f}s")


# -- 3 -----------------------------------------------------------------------

def test_criterion_3_mutation_reproduction():
    start = time.monotonic()
    fam = bl_line_p4_family_lambda()
    lams = list(np.exp(np.linspace(math.log(12.5), math.log(0.0009), 201)))
    traj = track_critical_values(fam, lams, rng=np.random.default_rng(2))
    ring = build_cohomology_ring(bl_line_p4())
    back = KBackend(ring)
    initial = bl_line_p4_initial_collection(ring)
    order0 = sorted(range(9), key=lambda b: -traj.branches[b][0].value.imag)
    vectors = [None] * 9
    labels = [None] * 9
    for pos, b in enumerate(order0):
        vectors[b] = back.flatten(initial[pos].ch)
        labels[b] = initial[pos].label
    mrs = MarkedReflectionSystem(back, vectors,
                                 [br[0].value for br in traj.branches],
                                 phase=0.0, labels=labels)
    final, events = evolve(mrs, traj)
    # the O(-H1) vs O(-H2) Picard-Lefschetz event is logged
    OmH1 = back.flatten(initial[2].ch)       # O(-H1)
    OmH2 = back.flatten(initial[0].ch)       # O(-H2)
    pl_events = [e for e in events
                 if mrs.vectors[e.moving] == OmH1
                 and mrs.vectors[e.pivot] == OmH2 and e.coefficient != 0]
    # final collection matches up to per-vector sign, conifold pinned to +O
    expected = bl_line_p4_collection(ring)
    order1 = sorted(range(9), key=lambda b: -traj.branches[b][-1].value.imag)
    got = [final.vectors[b] for b in order1]
    want = [back.flatten(c.ch) for c in expected]
    signs = []
    match = True
    for g, w in zip(got, want):
        if g == w:
            signs.append(1)
        elif tuple(-x for x in g) == w:
            signs.append(-1)
        else:
            match = False
            signs.append(0)
    conifold_pos = min(range(9),
                       key=lambda pos: abs(traj.branches[order1[pos]][-1]
                                           .value.imag))
    pinned = match and signs[conifold_pos] == 1
    G = [[back.pair(got[a], got[b]) for b in range(9)] for a in range(9)]
    unipotent = (all(G[a][a] == 1 for a in range(9))
                 and all(G[a][b] == 0 for a in range(9) for b in range(a)))
    elapsed = time.monotonic() - start
    ok = bool(pl_events) and match and pinned and unipotent and elapsed < 60
    report(3, ok, f"O(-H1) vs O(-H2) event at lambda = "
                  f"{complex(pl_events[0].at).real:.5f}, nine-term collection "
                  f"reproduced (signs {signs}), Gram unipotent, {elapsed:.1f}s")


# -- 4 -----------------------------------------------------------------------

def test_criterion_4_gamma_hrr_agreement():
    rng = np.random.default_rng(3)
    worst = 0.0
    for fan in (projective_space(2), projective_space(4), p1xp1(),
                bl_line_p4()):
        ring = build_cohomology_ring(fan)
        gd = GammaData(ring)
        bundles = []
        for _ in range(20):
            c1 = ring.zero()
            for i in range(ring.m):
                c1 = c1 + ring.divisor(i).scaled(
                    Fraction(int(rng.integers(-3, 4))))
            bundles.append(KClass.line_bundle(ring, c1, "L"))
        for a in bundles:
            for b in bundles:
                exact = euler_pairing_hrr(a, b)
                approx = euler_pairing_gamma(gd, a, b, check=False)
                worst = max(worst, abs(approx - exact))
    ok = worst < 1e-6
    report(4, ok, f"20x20 random line-bundle Grams on P2, P4, P1xP1, "
                  f"Bl_line P4: max |gamma - HRR| = {worst:.2e}")


# -- 5 -----------------------------------------------------------------------

def test_criterion_5_orlov_decomposition():
    import itertools
    fan_plus = bl_line_p4()
    fan_minus = StackyFan(fan_plus.vector_set,
                          [set(c) for c in itertools.combinations(range(5), 4)])
    wall = wall_between(fan_plus, fan_minus)
    bd = BlowupData(wall, center_twist_ray=3)
    assert (bd.J, 1) == (2, 1)
    classes, blocks = bd.orlov_basis(h=1)
    ok_sod, G = verify_sod(classes, blocks)
    bd.verify_k_relations()
    ok = blocks == [2, 5, 2] and len(classes) == 9 and ok_sod
    report(5, ok, f"Orlov basis blocks {blocks}, Gram block-upper-triangular "
                  f"and Z-unimodular, both K-relations vanish exactly")


# -- 6 -----------------------------------------------------------------------

def test_criterion_6_curve_value_law():
    rng = np.random.default_rng(4)
    worst = 0.0
    # A1 (crepant): no nonzero branch, no torus critical points
    vsa = VectorSet(AbelianLattice(2), [(-1, 1), (1, 1), (0, 1)])
    orb_a1 = StackyFan(vsa, [{0, 1}])
    from toriclg.lg import LGPotential
    Fa = LGPotential([(-1, 1), (1, 1), (0, 1)], [1.0, 1.0, 0.81])
    pts = critical_points(Fa, expected=None, rng=rng, budget_factor=50)
    a1_ok = len(pts) == 0
    # blowup of C^2 and cyclic d: closed form vs direct solver
    from toriclg.families import (blowup_c2_potential,
                                  cyclic_resolution_potential)
    vsb = VectorSet(AbelianLattice(2), [(1, 0), (0, 1), (1, 1)])
    wall_b = wall_between(StackyFan(vsb, [{0, 2}, {2, 1}]),
                          StackyFan(vsb, [{0, 1}]))
    positive_ok = True
    for t in (0.5, 1.0, 2.5):
        vals = curve_critical_values(wall_b, t)
        nz = [v for v, m in vals if v != 0]
        F = blowup_c2_potential(t)
        direct = critical_points(F, expected=1, rng=rng)
        worst = max(worst, abs(nz[0] - direct[0].value))
        for v in nz:
            if abs(v.imag) < 1e-12 and v.real > 0:
                positive_ok = False
    for d in (3, 4, 5):
        vsc = VectorSet(AbelianLattice(2), [(0, 1), (d, -1), (1, 0)])
        wall_c = wall_between(StackyFan(vsc, [{0, 1}]),
                              StackyFan(vsc, [{0, 2}, {2, 1}]))
        for tau in (0.7, 1.3):
            vals = curve_critical_values(wall_c, tau)
            assert vals[0][1] == 2          # 0-branch multiplicity
            nz = sort_vals([v for v, m in vals[1:]])
            for v in nz:
                if abs(v.imag) < 1e-12 and v.real > 0:
                    positive_ok = False
            # invert the parameter normalization to drive the actual chart
            kplus = wall_c.k[wall_c.M_plus[0]]
            sign = -((-1) ** (wall_c.J + kplus))
            qval = tau / sign
            F = cyclic_resolution_potential(d, qval)
            direct = sort_vals([p.value for p in
                                critical_points(F, expected=d - 2, rng=rng)])
            for a, b in zip(nz, direct):
                worst = max(worst, abs(a - b))
    ok = a1_ok and positive_ok and worst < 1e-8
    report(6, ok, f"curve-chart law holds for A1, cyclic 3..5, blowup of "
                  f"C^2; max |closed form - solver| = {worst:.2e}; no value "
                  f"on R_>0 for real t > 0")


# -- 7 -----------------------------------------------------------------------

def test_criterion_7_rank_equals_volume():
    rng = np.random.default_rng(5)
    vs1 = VectorSet(AbelianLattice(1), [(1,), (-1,)])
    checks = [
        (StackyFan(vs1, [{0}, {1}]), 2),
        (projective_space(2), 3),
    ]
    for d in (3, 4, 5):
        vsc = VectorSet(AbelianLattice(2), [(0, 1), (d, -1), (1, 0)])
        checks.append((StackyFan(vsc, [{0, 1}]), d))
    checks.append((bl_line_p4(), 9))
    results = []
    for fan, expected in checks:
        rep = generic_rank_check(fan, rng=rng)
        results.append(rep["expected"] == expected)
    ok = all(results)
    report(7, ok, "critical counts equal |N_tor| vol(Delta) for P1, P2, "
                  "cyclic d<=5 and Bl_line P4 (9 = 9)")


# -- 8 -----------------------------------------------------------------------

def test_criterion_8_duality_and_golden_combinatorics():
    vs = VectorSet(AbelianLattice(2), [(-1, 1), (1, 1), (0, 1)])
    s1 = StackyFan(vs, [{0, 1}])
    s2 = StackyFan(vs, [{0, 2}, {2, 1}])
    # kernel map is Z(-1,-1,2) up to sign
    L = s1.kernel_basis()
    kernel_ok = primitive(L[0]) in ((-1, -1, 2), (1, 1, -2))
    sgn = 1 if primitive(L[0]) == (-1, -1, 2) else -1
    # duality CPL_+^v = OE^ generator-by-generator (raises on failure)
    from toriclg.secondary import cpl_cone
    d1 = cpl_cone(s1)
    d2 = cpl_cone(s2)
    dual_ok = (set(d1.cpl_plus.dual().extreme_rays())
               == set(s1.open_mori_cone().extreme_rays()))
    # daleth = 2Z>=0 on cpl(Sigma_1) and Z<=0 on cpl(Sigma_2)
    daleth_ok = (d1.daleth_membership((2 * sgn,))
                 and not d1.daleth_membership((sgn,))
                 and d2.daleth_membership((-sgn,))
                 and abs(d1.plq_lattice[0][0]) == 2
                 and abs(d2.plq_lattice[0][0]) == 1)
    # O(Sigma_1)_+ generators
    om = set(s1.open_monoid_generators())
    om_ok = om == {(1, 0, 0), (0, 1, 0),
                   (Fraction(1, 2), Fraction(1, 2), 0),
                   (Fraction(-1, 2), Fraction(-1, 2), 1)}
    # base P(1,2) gluing q = t^-2: e_plus = 2, e_minus = 1 across the
    # cyclic d=2 wall viewed from the A1 data; crepant walls carry no
    # curve chart, so check the chart denominators through Lambda directly
    lam1 = s1.big_lambda_lattice()
    lam2 = s2.big_lambda_lattice()
    glue_ok = (abs(Fraction(lam1[0][0])) == Fraction(1, 2)
               and abs(Fraction(lam2[0][0])) == 1)
    ok = kernel_ok and dual_ok and daleth_ok and om_ok and glue_ok
    report(8, ok, "A1 golden data: L = Z(-1,-1,2), daleth = 2Z>=0 u Z<=0, "
                  "O(Sigma_1)_+ generators reproduced, P(1,2) gluing "
                  "q = t^-2 (Lambda(Sigma_1) = Z/2, Lambda(Sigma_2) = Z)")


# -- 9 -----------------------------------------------------------------------

def test_criterion_9_property_suites():
    import random
    # mutation involution and determinant preservation, 1000 random Grams
    rng = random.Random(9)
    inv_ok = True
    for _ in range(1000):
        n = rng.randint(2, 4)
        G = [[1 if i == j else (rng.randint(-3, 3) if j > i else 0)
              for j in range(n)] for i in range(n)]
        back = MatrixBackend(G)
        vectors = [tuple(1 if k == i else 0 for k in range(n))
                   for i in range(n)]
        markings = [complex(0, n - i) for i in range(n)]
        mrs = MarkedReflectionSystem(back, vectors, markings, phase=0.0)
        pos = rng.randint(0, n - 2)
        m2 = mrs.mutate(pos, "right").mutate(pos, "left")
        if m2.vectors != mrs.vectors:
            inv_ok = False
        d0 = det([[Fraction(x) for x in row] for row in mrs.gram()])
        d1 = det([[Fraction(x) for x in row]
                  for row in mrs.mutate(pos, "right").gram()])
        if abs(d0) != abs(d1):
            inv_ok = False
    # higher residue order 0 = Grothendieck residue on P1/P2 mirrors
    nrng = np.random.default_rng(10)
    res_ok = True
    for F in (pn_mirror(1, 1.0), pn_mirror(2, 1.1 - 0.3j)):
        pts = critical_points(F, rng=nrng)
        phi1 = ([tuple(F.B_int[0])], [1.0])
        P = higher_residue_pairing(F, phi1, None, order=0, points=pts)
        oracle = grothendieck_residue_oracle(F, phi1, None, points=pts)
        if abs(P[0] - oracle) > 1e-8:
            res_ok = False
    # Asym order 1 vs quadrature on the P1 mirror
    Fq = pn_mirror(1, 1.0)
    p = conifold_point(Fq)
    a = asym_expansion(Fq, p, None, 1)
    zs = [-0.0125, -0.00625]
    ints = steepest_descent_quadrature_p1(1.0, zs)
    resid = []
    for z, val in zip(zs, ints):
        lead = math.exp(2 / z) * math.sqrt(-2 * math.pi * z)
        resid.append((val / lead - a[0].real) / z)
    quad_ok = abs(2 * resid[-1] - resid[-2] - a[1].real) < 1e-6
    # GKZ formal annihilation, 50 random (v, lambda)
    gkz_count = 0
    gkz_ok = True
    grng = random.Random(11)
    fans = [projective_space(2)]
    vsc = VectorSet(AbelianLattice(2), [(0, 1), (3, -1), (1, 0)])
    fans.append(StackyFan(vsc, [{0, 1}]))
    fans.append(StackyFan(vsc, [{0, 2}, {2, 1}]))
    for fan in fans:
        L = fan.kernel_basis()
        ne = fan.extended_mori_cone()
        rays = ne.extreme_rays()
        while gkz_count < 50 * (fans.index(fan) + 1) / len(fans):
            coeff = [grng.randint(0, 2) for _ in rays]
            lam_k = [sum(c * r[j] for c, r in zip(coeff, rays))
                     for j in range(len(L))]
            lam = [sum(int(lam_k[j]) * L[j][b] for j in range(len(L)))
                   for b in range(len(fan.S))]
            c0 = sorted(fan.max_cones[0])
            v_free = [0] * fan.n
            for i in c0:
                w = grng.randint(0, 2)
                for k in range(fan.n):
                    v_free[k] += w * fan.S[i].free[k]
            op = gkz_relation(fan, tuple(v_free), lam)
            if not op.annihilates():
                gkz_ok = False
            gkz_count += 1
    ok = inv_ok and res_ok and quad_ok and gkz_ok and gkz_count >= 50
    report(9, ok, f"mutation involution/determinant x1000, residue order-0 "
                  f"vs Grothendieck to 1e-8, Asym order-1 vs quadrature to "
                  f"1e-6, GKZ annihilation x{gkz_count}")
