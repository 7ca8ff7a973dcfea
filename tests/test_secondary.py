import itertools
import random
from fractions import Fraction

import pytest

from toriclg import errors, secondary
from toriclg.fans import StackyFan
from toriclg.lattice import AbelianLattice, VectorSet
from toriclg.rational import dot, primitive, vec
from toriclg.secondary import (CurveChart, cpl_cone, enumerate_adapted_fans,
                               wall_between)

from convexity_oracle import convexity_certificate
from test_cones import CHAMBER_WALK_SETS, WALK_IDS


def a1_vs():
    return VectorSet(AbelianLattice(2), [(-1, 1), (1, 1), (0, 1)])


def blowup_vs():
    return VectorSet(AbelianLattice(2), [(1, 0), (0, 1), (1, 1)])


def cyclic_vs(d):
    return VectorSet(AbelianLattice(2), [(0, 1), (d, -1), (1, 0)])


def orient(fan, target=(-1, -1, 2)):
    L = fan.kernel_basis()
    return 1 if primitive(L[0]) == target else -1


def test_cpl_a1():
    vs = a1_vs()
    s1 = StackyFan(vs, [{0, 1}])
    s2 = StackyFan(vs, [{0, 2}, {2, 1}])
    d1 = cpl_cone(s1)
    # CPL_+(Sigma_1) = {c >= 0, 2c3 >= c1+c2}: check H-rep by sampling
    assert d1.cpl_plus.contains((1, 1, 1))
    assert d1.cpl_plus.contains((0, 0, 1))
    assert not d1.cpl_plus.contains((1, 1, Fraction(1, 2)))
    d2 = cpl_cone(s2)
    assert d2.cpl_plus.contains((1, 1, 1))
    assert d2.cpl_plus.contains((1, 1, 0))
    assert not d2.cpl_plus.contains((0, 0, 1))
    # cpl cones: opposite rays of L^*_R = R
    r1 = d1.cpl.extreme_rays()
    r2 = d2.cpl.extreme_rays()
    assert len(r1) == len(r2) == 1 and r1[0] == tuple(-x for x in r2[0])
    # integral structure: pl_Z(Sigma_1) = 2Z, pl_Z(Sigma_2) = Z
    assert abs(d1.plq_lattice[0][0]) == 2
    assert abs(d2.plq_lattice[0][0]) == 1
    # daleth on chambers: 2Z>=0 on cpl(Sigma_1), Z<=0 on cpl(Sigma_2)
    s = orient(s1)
    assert d1.daleth_membership((2 * s,))
    assert not d1.daleth_membership((1 * s,))
    assert d2.daleth_membership((-1 * s,))
    assert not d2.daleth_membership((1 * s,))


def test_daleth_tilde_up_to_height():
    vs = a1_vs()
    s1 = StackyFan(vs, [{0, 1}])
    d1 = cpl_cone(s1)
    # (c1,c2,c3) = (1,1,1): eta on (0,1) is (c1+c2)/2 = 1, integral
    assert d1.daleth_tilde_membership_up_to_height((1, 1, 1), 3)
    # (1,2,2): eta(0,1) = 3/2 not integral
    assert not d1.daleth_tilde_membership_up_to_height((1, 2, 2), 3)


def test_enumerate_a1():
    fans, walls = enumerate_adapted_fans(a1_vs())
    assert len(fans) == 2
    assert len(walls) == 1
    sizes = sorted(len(f.max_cones) for f in fans)
    assert sizes == [1, 2]


def test_enumerate_blowup_c2():
    fans, walls = enumerate_adapted_fans(blowup_vs())
    assert len(fans) == 2 and len(walls) == 1


def test_enumerate_cyclic():
    for d in (3, 5):
        fans, walls = enumerate_adapted_fans(cyclic_vs(d))
        assert len(fans) == 2 and len(walls) == 1


def test_enumerate_single_chamber():
    vs = VectorSet(AbelianLattice(2), [(1, 0), (0, 1)])
    fans, walls = enumerate_adapted_fans(vs)
    assert len(fans) == 1 and not walls


def test_wall_blowup_c2():
    vs = blowup_vs()
    sigma1 = StackyFan(vs, [{0, 1}])            # C^2
    sigma2 = StackyFan(vs, [{0, 2}, {2, 1}])    # Bl_0 C^2
    w = wall_between(sigma2, sigma1)
    assert w.kind == "contract_divisor"
    assert w.discrepancy == 1
    assert sorted(w.M_plus) == [0, 1]
    assert w.M_minus == [2]
    assert w.J == 1 and w.K == 1
    assert tuple(w.hat_b.free) == (1, 1)
    # orientation: plus side is the blowup
    assert w.plus_fan.rays == [0, 1, 2]
    # w as element of L = Z(1,1,-1): D_b . w = (1,1,-1)
    assert w.k == [1, 1, -1]


def test_wall_cyclic():
    for d in (3, 4):
        vs = cyclic_vs(d)
        orb = StackyFan(vs, [{0, 1}])
        res = StackyFan(vs, [{0, 2}, {2, 1}])
        w = wall_between(orb, res)
        assert w.kind == "extract_divisor"
        assert w.discrepancy == d - 2
        assert w.M_plus == [2] and sorted(w.M_minus) == [0, 1]
        assert w.plus_fan is orb
        assert w.k == [-1, -1, d]
        assert w.J == d - 2 and w.K == d ** d
        assert tuple(w.hat_b.free) == (d, 0)


def test_wall_a1_crepant():
    vs = a1_vs()
    s1 = StackyFan(vs, [{0, 1}])
    s2 = StackyFan(vs, [{0, 2}, {2, 1}])
    w = wall_between(s1, s2)
    assert w.kind == "crepant" and w.discrepancy == 0


# the wall patterns under the swap of the two chambers (k -> -k)
MIRRORED = {"contract_divisor": "extract_divisor",
            "extract_divisor": "contract_divisor"}


def count_wall_builds(monkeypatch):
    builds = []
    real = secondary.WallCrossing.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        real(self, *args, **kwargs)
    monkeypatch.setattr(secondary.WallCrossing, "__init__", counting)
    return builds


@pytest.mark.parametrize("S", CHAMBER_WALK_SETS, ids=WALK_IDS)
def test_wall_between_builds_one_crossing(S, monkeypatch):
    # the orientation is read from sum_b D_b . w before the one build; the
    # crossing the other way round has the opposite discrepancy and the
    # mirrored pattern, so a second build could never raise alone
    fans, walls = enumerate_adapted_fans(VectorSet(AbelianLattice(len(S[0])),
                                                   S))
    builds = count_wall_builds(monkeypatch)
    for a, b, _ in walls:
        plus_fans = set()
        for one, other in ((fans[a], fans[b]), (fans[b], fans[a])):
            builds.clear()
            wc = wall_between(one, other)
            assert len(builds) == 1 and wc.discrepancy >= 0
            assert wc.swapped == (wc.plus_fan is other)
            plus_fans.add(id(wc.plus_fan))
            back = secondary.WallCrossing(wc.minus_fan, wc.plus_fan,
                                          tuple(-x for x in wc.w))
            assert back.discrepancy == -wc.discrepancy
            assert back.kind == MIRRORED.get(wc.kind, wc.kind)
        assert len(plus_fans) == 1 or wc.kind == "crepant"


def test_wall_weight_above_the_budget_raises_in_either_order(monkeypatch):
    # C^2/Z_d and its resolution: the wall has weights (-1, -1, d), and
    # above the budget both argument orders raise from their one build,
    # naming the same normal
    d = secondary.MAX_WALL_WEIGHT + 1
    vs = cyclic_vs(d)
    orb, res = StackyFan(vs, [{0, 1}]), StackyFan(vs, [{0, 2}, {2, 1}])
    builds = count_wall_builds(monkeypatch)
    messages = set()
    for one, other in ((orb, res), (res, orb)):
        with pytest.raises(errors.TooLarge, match=f"weight {d} exceeds the "
                                                  f"budget {d - 1}") as err:
            wall_between(one, other)
        messages.add(str(err.value))
    assert len(builds) == 2 and len(messages) == 1


def test_wall_not_adjacent():
    vs = VectorSet(AbelianLattice(2), [(1, 0), (0, 1)])
    fan = StackyFan(vs, [{0, 1}])
    with pytest.raises(errors.NotAdjacent):
        wall_between(fan, fan)


def test_curve_chart_gluing():
    # A1 is crepant: excluded.  Blowup of C^2: t = q^{-1}, e=1.
    vs = blowup_vs()
    sigma1 = StackyFan(vs, [{0, 1}])
    sigma2 = StackyFan(vs, [{0, 2}, {2, 1}])
    w = wall_between(sigma2, sigma1)
    ch = CurveChart(w)
    assert ch.e_plus == 1 and ch.e_minus == 1
    # cyclic d: q = t^{-d}: e_plus = d on the orbifold side
    for d in (3, 5):
        vsc = cyclic_vs(d)
        orb = StackyFan(vsc, [{0, 1}])
        res = StackyFan(vsc, [{0, 2}, {2, 1}])
        wc = wall_between(orb, res)
        chc = CurveChart(wc)
        assert chc.e_plus == d and chc.e_minus == 1


def test_curve_chart_a1_via_discrepant_neighbour():
    # gluing rule on the cyclic chart: w_v^- = q^{Psi^- - Psi^+} w_v^+
    vs = cyclic_vs(3)
    orb = StackyFan(vs, [{0, 1}])
    res = StackyFan(vs, [{0, 2}, {2, 1}])
    w = wall_between(orb, res)
    ch = CurveChart(w)
    # v = (1,0) is the subdividing ray: u3 = t*v gluing with t = q^{w/3}
    c = ch.glue_exponent((1, 0))
    assert abs(c) == Fraction(1, 3)
    # orbifold chart: u1 u2 = v^3 exactly (no t power)
    assert ch.product_exponent((0, 1), (3, -1), side="plus") == 0
    # resolution chart: u1~ u2~ = q u3~^3, one power of the chart coordinate
    assert abs(ch.product_exponent((0, 1), (3, -1), side="minus")) == 1
    # and w_{(3,0)} = v^3 exactly in the plus chart
    assert ch.product_exponent((1, 0), (2, 0), side="plus") == 0


def test_a_neighbour_that_fails_validation_names_the_chamber_and_facet(
        monkeypatch):
    # the start chamber validates; the chamber across its facet does not
    real = secondary.StackyFan
    built = []

    def start_only(*args, **kwargs):
        built.append(args)
        if len(built) > 1:
            raise errors.NonSimplicial("rejected")
        return real(*args, **kwargs)
    monkeypatch.setattr(secondary, "StackyFan", start_only)
    with pytest.raises(errors.VerificationFailed,
                       match=r"chamber 0: the chamber across its facet "
                             r"g = \[-?1\] is no valid fan"):
        enumerate_adapted_fans(blowup_vs())


def test_fan_structure_of_secondary_fan_random():
    rng = random.Random(9)
    trials = 0
    for _ in range(30):
        if trials >= 4:
            break
        n = 2
        m = rng.randint(3, 6)
        vecs = set()
        while len(vecs) < m:
            v = (rng.randint(-2, 2), rng.randint(-2, 2))
            if v != (0, 0):
                vecs.add(v)
        try:
            vs = VectorSet(AbelianLattice(n), sorted(vecs))
        except ValueError:
            continue
        if not vs.generates:
            continue
        fans, walls = enumerate_adapted_fans(vs)
        trials += 1
        # chambers have disjoint interiors: every two cpl cones meet in
        # dimension < r; and they cover: every facet of a chamber is either
        # on the boundary of the support or shared with a neighbour
        from toriclg.secondary import PLConeData
        L, D = vs.sequences()
        r = len(L)
        if r == 0:
            continue
        cpls = [PLConeData(fan).cpl for fan in fans]
        for one, other in itertools.combinations(cpls, 2):
            assert one.intersection(other).dim() < r
        for fi, cpl in enumerate(cpls):
            for g in cpl.inequalities:
                on_boundary = all(dot(g, vec(D[b])) >= 0 for b in range(m))
                assert on_boundary or _has_neighbour(fi, g, cpl, fans, walls)
    assert trials >= 3


def _has_neighbour(fi, g, cpl, fans, walls):
    from toriclg.secondary import PLConeData
    face_rays = [rr for rr in cpl.rays if dot(g, rr) == 0]
    for a, b, wn in walls:
        if fi not in (a, b):
            continue
        other = b if a == fi else a
        ocpl = PLConeData(fans[other]).cpl
        if all(ocpl.contains(rr) for rr in face_rays):
            return True
    return False


@pytest.mark.parametrize("vecs", [
    # blowup of P^4 along a line (rank 4)
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
     (-1, -1, -1, -1), (1, 1, 1, 0)],
    # six chambers in rank 2
    [(0, -1), (0, 1), (1, -2), (0, 2), (2, 2)],
])
def test_chamber_search_certifies_by_heights_and_builds_cone_data_once(
        vecs, monkeypatch):
    from toriclg import fans as fans_mod
    from toriclg import secondary

    lp_calls = []
    built_for = []
    real_feasible, real_data = fans_mod.feasible_strict, secondary.PLConeData

    def counting_feasible(*args, **kwargs):
        lp_calls.append(1)
        return real_feasible(*args, **kwargs)

    def counting_data(fan):
        built_for.append(fan)
        return real_data(fan)

    monkeypatch.setattr(fans_mod, "feasible_strict", counting_feasible)
    monkeypatch.setattr(secondary, "PLConeData", counting_data)
    vs = VectorSet(AbelianLattice(len(vecs[0])), vecs)
    fans, walls = enumerate_adapted_fans(vs)
    assert lp_calls == []
    assert len({id(f) for f in built_for}) == len(built_for)
    assert len({f.key() for f in fans}) == len(fans)
    del built_for[:]
    for a, b, _ in walls:
        wall_between(fans[a], fans[b])
    assert built_for == []
    # the exact LP stays the reference certificate
    monkeypatch.undo()
    assert all(convexity_certificate(fan)[0] for fan in fans)


def chamber_sets():
    from test_convexity import CHAMBER_SETS
    return [CHAMBER_SETS[name] for name in ("bl_line_p4", "rank2",
                                            "rank2-torsion")]


@pytest.mark.parametrize("lattice,vecs", chamber_sets(),
                         ids=["bl_line_p4", "rank2", "rank2-torsion"])
def test_direct_cpl_matches_projected_cpl_plus(lattice, vecs):
    from toriclg.cones import Cone
    from toriclg.rational import matvec
    from toriclg.secondary import pl_cone_data

    fans, _ = enumerate_adapted_fans(VectorSet(lattice, vecs))
    assert len(fans) >= 2
    for fan in fans:
        data = pl_cone_data(fan)
        L = [vec(row) for row in fan.kernel_basis()]
        gens = [matvec(L, g) for g in data.cpl_plus.rays]
        oracle = Cone.from_rays([g for g in gens if any(g)], data.rank)
        assert data.cpl.ray_set() == oracle.ray_set()
        # rebuilt from its rays, so no redundant facet is probed as a wall
        assert len(data.cpl.inequalities) == len(oracle.inequalities)


@pytest.mark.parametrize("lattice,vecs", chamber_sets(),
                         ids=["bl_line_p4", "rank2", "rank2-torsion"])
def test_chamber_path_runs_no_m_dimensional_dual_description(
        lattice, vecs, monkeypatch):
    from toriclg import cones, secondary

    dims = []
    real = cones.dual_description

    def counting(ineqs, eqs, dim):
        dims.append(dim)
        return real(ineqs, eqs, dim)
    for mod in (cones, secondary):
        monkeypatch.setattr(mod, "dual_description", counting)
    m = len(vecs)
    fans, walls = enumerate_adapted_fans(VectorSet(lattice, vecs))
    for a, b, _ in walls:
        wall_between(fans[a], fans[b])
    assert dims and m not in dims
    # the CPL_+ oracle still runs in m dimensions, through the same wrapper
    secondary.pl_cone_data(fans[0]).cpl_plus.rays
    assert dims[-1] == m


def fraction_selection(D, m, n, omega):
    """Reference for the stability probe: (maximal cones, heights) from the
    Fraction inverse of each complement matrix and Fraction dot products."""
    from elimination_oracle import mat_inverse
    max_cones, heights = [], None
    for I in itertools.combinations(range(m), n):
        rest = [b for b in range(m) if b not in I]
        try:
            inv, _ = mat_inverse([[D[b][j] for b in rest]
                                  for j in range(len(D[0]))])
        except ValueError:
            continue
        if all(dot(row, omega) > 0 for row in inv):
            max_cones.append(frozenset(I))
            if heights is None:
                heights = [Fraction(0)] * m
                for b, row in zip(rest, inv):
                    heights[b] = dot(row, omega)
    return max_cones, heights


@pytest.mark.parametrize("lattice,vecs", chamber_sets(),
                         ids=["bl_line_p4", "rank2", "rank2-torsion"])
def test_chambers_never_compute_generates(lattice, vecs, monkeypatch):
    # the chamber walk, its Box counts and its walls read the vector set's
    # sequences, charts and complements, never whether S generates N
    reads = []
    monkeypatch.setattr(VectorSet, "generates",
                        property(lambda vs: reads.append(vs) or True))
    fans, walls = enumerate_adapted_fans(VectorSet(lattice, vecs))
    for fan in fans:
        fan.dim_orbifold_cohomology()
    for a, b, _ in walls:
        wall_between(fans[a], fans[b])
    assert len(fans) >= 2 and reads == []


@pytest.mark.parametrize("S", CHAMBER_WALK_SETS, ids=WALK_IDS)
def test_integer_stability_probe_matches_fraction_reference(S, monkeypatch):
    vs = VectorSet(AbelianLattice(len(S[0])), S)
    _, D = vs.sequences()
    m, n, r = len(S), len(S[0]), len(D[0])
    # (ray sum p, normal g) of every facet of every chamber
    facets = []
    for fan in enumerate_adapted_fans(vs)[0]:
        cpl = secondary.pl_cone_data(fan).cpl
        for g in cpl.inequalities:
            face = [rr for rr in cpl.rays if dot(g, rr) == 0]
            facets.append((tuple(map(sum, zip((0,) * r, *face))), g))
    # the selection and heights handed to the fan, not the fan itself
    monkeypatch.setattr(secondary, "StackyFan",
                        lambda vs, max_cones, heights: (max_cones, heights))
    rng = random.Random(len(S) + n)
    selected = non_integral = 0
    for k in range(150):
        if k % 2:
            # inside the support: a positive combination of the D_b
            coeff = [Fraction(rng.randint(1, 40), rng.randint(1, 9))
                     for _ in range(m)]
            omega = tuple(sum(c * D[b][j] for b, c in enumerate(coeff))
                          for j in range(r))
        else:
            omega = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                          for _ in range(r))
        want = fraction_selection(D, m, n, omega)
        got = secondary._fan_from_stability(vs, omega, (0,) * r, {})
        if not want[0]:
            assert got is None
            continue
        # the same cones, and `int` heights that are a positive multiple of
        # the Fraction ones
        assert got[0] == want[0]
        assert all(type(h) is int for h in got[1])
        assert primitive(got[1]) == primitive(want[1])
        selected += 1
        non_integral += any(x.denominator != 1 for x in omega)
    assert selected > 75 and non_integral > 50
    # p - eps g selects the cones the Fraction reference selects at a tiny
    # eps, with heights that certify them: positive off each cone
    from elimination_oracle import mat_inverse
    for p, g in facets:
        want = fraction_selection(D, m, n, tuple(
            a - Fraction(b, 10 ** 30) for a, b in zip(p, g)))
        got = secondary._fan_from_stability(vs, p, g, {})
        if not want[0]:
            assert got is None
            continue
        assert got[0] == want[0]
        lift = tuple(sum(h * D[b][j] for b, h in enumerate(got[1]))
                     for j in range(r))
        for cone in got[0]:
            rest = [b for b in range(m) if b not in cone]
            inv, _ = mat_inverse([[D[b][j] for b in rest] for j in range(r)])
            assert all(dot(row, lift) > 0 for row in inv)
