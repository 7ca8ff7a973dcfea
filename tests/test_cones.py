import random
import time
from fractions import Fraction

import pytest

from dual_description_oracle import fraction_dual_description
from hilbert_oracle import zonotope_hilbert_basis
from lp_oracle import lp_maximize
from toriclg import cones, errors, rational, secondary
from toriclg.cones import (Cone, dual_description, hilbert_basis,
                           normalized_volume, polytope_facets,
                           polytope_proper_faces)
from toriclg.lattice import extended_sequences
from toriclg.lattice import AbelianLattice, VectorSet
from toriclg.lp import feasible_strict
from toriclg.rational import dual_lattice, vec
from toriclg.secondary import (enumerate_adapted_fans, pl_cone_data,
                               wall_between)


def test_lp_basic():
    # max x+y st x<=2, y<=3, x+y<=4
    status, val, x = lp_maximize([1, 1], A_ub=[(1, 0), (0, 1), (1, 1)], b_ub=[2, 3, 4])
    assert status == "optimal" and val == 4


def test_lp_infeasible_and_unbounded():
    status, _, _ = lp_maximize([1], A_ub=[(1,), (-1,)], b_ub=[0, -1])
    assert status == "infeasible"
    status, _, _ = lp_maximize([1], A_ub=[(-1,)], b_ub=[0])
    assert status == "unbounded"


def test_feasible_strict():
    ok, w = feasible_strict([(1, 0), (0, 1)])
    assert ok and w[0] > 0 and w[1] > 0
    ok, _ = feasible_strict([(1, 0), (-1, 0)])
    assert not ok


def test_cone_duality_roundtrip():
    rng = random.Random(11)
    for _ in range(25):
        d = rng.randint(2, 4)
        rays = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        rays = [r for r in rays if any(r)]
        if not rays:
            continue
        c = Cone.from_rays(rays, d)
        cdd = c.dual().dual()
        assert cdd == c


def test_quadrant_h_description():
    c = Cone.from_rays([(1, 0), (0, 1)])
    ineqs = sorted(tuple(int(x) for x in a) for a in c.inequalities)
    assert ineqs == [(0, 1), (1, 0)]
    assert c.contains((2, 3)) and not c.contains((-1, 0))
    assert c.relint_contains((1, 1)) and not c.relint_contains((1, 0))


def test_halfspace_has_lineality():
    c = Cone.from_inequalities([(1, 0)], ambient_dim=2)
    assert len(c.lineality) == 1
    assert tuple(abs(x) for x in c.lineality[0]) == (0, 1)


def assert_matches_oracle(ineqs, eqs, dim):
    """The integer double description returns the Fraction oracle's rays in
    the same order and its lineality with the same signs, as the primitive
    `int` tuples it computes."""
    got = dual_description(ineqs, eqs, dim)
    assert got == fraction_dual_description(ineqs, eqs, dim)
    assert all(type(x) is int for part in got for v in part for x in v)
    return got


def first_pivot(ineqs, eqs):
    """The value of the first lineality pivot: the first nonzero entry of
    the first nonzero constraint (equalities come first)."""
    for row in list(eqs) + list(ineqs):
        if any(row):
            return next(x for x in row if x)
    return None


def random_rows(rng, count, dim, scaled):
    rows = [tuple(rng.randint(-3, 3) for _ in range(dim))
            for _ in range(count)]
    if scaled:
        # positive rational multiples: not primitive, maybe not integral
        rows = [tuple(k * x for x in row) for row, k in zip(rows, [
            Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in rows])]
    return rows


@pytest.mark.parametrize("scaled", [False, True], ids=["integer", "rational"])
def test_dual_description_matches_fraction_oracle(scaled):
    rng = random.Random(16 + scaled)
    seen = {"eqs": 0, "lineality": 0, "negative_pivot": 0, "pointed": 0}
    for _ in range(250):
        dim = rng.randint(1, 5)
        ineqs = random_rows(rng, rng.randint(0, 7), dim, scaled)
        eqs = random_rows(rng, rng.choice((0, 0, 1, 2)), dim, scaled)
        rays, lin = assert_matches_oracle(ineqs, eqs, dim)
        seen["eqs"] += bool(eqs)
        seen["lineality"] += bool(lin)
        seen["pointed"] += bool(rays) and not lin
        seen["negative_pivot"] += (first_pivot(ineqs, eqs) or 0) < 0
    assert min(seen.values()) > 30, seen


def checked_against_oracle(monkeypatch, module):
    """Send `module`'s dual_description calls through assert_matches_oracle;
    returns the list their results go to."""
    results = []

    def checked(ineqs, eqs, dim):
        results.append(assert_matches_oracle(ineqs, eqs, dim))
        return results[-1]
    monkeypatch.setattr(module, "dual_description", checked)
    return results


def test_dual_description_of_polytope_homogenizations(monkeypatch):
    results = checked_against_oracle(monkeypatch, cones)
    rng = random.Random(5)
    for _ in range(60):
        d = rng.randint(2, 4)
        pts = {tuple(rng.randint(-2, 2) for _ in range(d))
               for _ in range(rng.randint(3, 8))}
        if rng.random() < 0.3:
            # points on a hyperplane: the cone over them has lineality
            pts = {p[:-1] + (p[0] - p[1],) for p in pts}
        polytope_facets(sorted(pts))
    assert len(results) == 60
    assert sum(bool(lin) for _, lin in results) > 5


# The five rank-2 sets of the `chambers` benchmark and bl_line_p4.
CHAMBER_WALK_SETS = [
    [(-2, 1), (3, -3), (-1, -3), (3, 3)],
    [(1, -3), (3, -2), (-1, 2), (2, 0)],
    [(0, -1), (0, 1), (1, -2), (0, 2), (2, 2)],
    [(-2, 1), (0, -2), (3, -3), (0, -1), (2, -2)],
    [(-2, 0), (-3, -3), (-3, -2), (-2, -2), (-1, -2)],
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
     (-1, -1, -1, -1), (1, 1, 1, 0)],
]
WALK_IDS = ["set0", "set1", "set2", "set3", "set4", "bl_line_p4"]


@pytest.mark.parametrize("S", CHAMBER_WALK_SETS, ids=WALK_IDS)
def test_dual_descriptions_of_the_chamber_walk_match_oracle(S, monkeypatch):
    # every double description of the walk: the PLConeData normals (through
    # `secondary`) and the cone conversions they lead to (through `cones`)
    normals = checked_against_oracle(monkeypatch, secondary)
    conversions = checked_against_oracle(monkeypatch, cones)
    fans, walls = enumerate_adapted_fans(VectorSet(AbelianLattice(len(S[0])),
                                                   S))
    assert len(fans) >= 2 and walls
    assert len(normals) >= len(fans) and conversions


def is_int_vector(v):
    return all(type(x) is int for x in v)


def fraction_verdicts(cone, x):
    """(contains, relint_contains) of x read from Fraction dot products."""
    x = vec(x)
    on = all(rational.dot(e, x) == 0 for e in cone.equalities)
    vals = [rational.dot(a, x) for a in cone.inequalities]
    return on and all(v >= 0 for v in vals), on and all(v > 0 for v in vals)


@pytest.mark.parametrize("S", CHAMBER_WALK_SETS, ids=WALK_IDS)
def test_chamber_walk_stays_integral(S, monkeypatch):
    # the walk and its walls take no Fraction dot product in `cones` or
    # `secondary` (patched where the module has `dot`)
    dots = []
    real = rational.dot

    def counting(u, v):
        dots.append((u, v))
        return real(u, v)
    for mod in (cones, secondary):
        if getattr(mod, "dot", None) is real:
            monkeypatch.setattr(mod, "dot", counting)
    vs = VectorSet(AbelianLattice(len(S[0])), S)
    fans, walls = enumerate_adapted_fans(vs)
    crossings = [wall_between(fans[a], fans[b]) for a, b, _ in walls]
    assert dots == []
    monkeypatch.undo()

    # everything the walk computes on integral data is `int`
    _, D = extended_sequences(vs)
    assert all(map(is_int_vector, D))
    chambers = [pl_cone_data(fan).cpl for fan in fans]
    for cpl in chambers:
        assert all(map(is_int_vector, cpl.rays + cpl.lineality))
        assert all(map(is_int_vector, cpl.inequalities + cpl.equalities))
        assert is_int_vector(cpl.relint_point())
    for wc in crossings:
        assert is_int_vector(wc.w) and is_int_vector(wc.k)
    for a, a0, _ in polytope_facets(S + [(0,) * len(S[0])]):
        assert is_int_vector(a + (a0,))

    # membership agrees with Fraction dot products on int and Fraction
    # points: rays, relative interior points, lattice points and their
    # non-integral multiples
    rng = random.Random(len(S))
    r = len(D[0])
    support = Cone.from_rays(D, r)
    for cone in chambers + [support]:
        points = cone.rays + [cone.relint_point()] + [
            tuple(rng.randint(-4, 4) for _ in range(r)) for _ in range(40)]
        for x in points:
            for y in (x, vec(x), tuple(Fraction(k, 3) for k in x)):
                assert (cone.contains(y), cone.relint_contains(y)) \
                    == fraction_verdicts(cone, y)


def test_polytope_facets_square():
    sq = [(0, 0), (1, 0), (0, 1), (1, 1)]
    facets = polytope_facets(sq)
    assert len(facets) == 4
    assert normalized_volume(sq) == 2  # unit square = two unit simplices


def test_volume_simplex_and_p4_polytope():
    simplex = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert normalized_volume(simplex) == 1
    # fan polytope of P^4
    pts = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)]
    assert normalized_volume(pts) == 5


def test_proper_faces_of_triangle():
    tri = [(0, 0), (1, 0), (0, 1)]
    faces = polytope_proper_faces(tri)
    sizes = sorted(len(f) for f in faces)
    assert sizes == [1, 1, 1, 2, 2, 2]


def test_hilbert_basis_a1_open_monoid():
    # O(Sigma_1)_+ for the A_1 singularity: cone OE^ in Q^3 with the lattice
    # Z^3 + Z(1/2,1/2,0); generators e1, e2, (e1+e2)/2, (-1/2,-1/2,1)
    rays = [(1, 0, 0), (0, 1, 0), (Fraction(1, 2), Fraction(1, 2), 0),
            (Fraction(-1, 2), Fraction(-1, 2), 1)]
    cone = Cone.from_rays(rays, 3)
    lattice = [(1, 0, 0), (0, 0, 1), (Fraction(1, 2), Fraction(1, 2), 0)]
    hb = hilbert_basis(cone, lattice)
    expected = sorted([
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
        (Fraction(-1, 2), Fraction(-1, 2), Fraction(1)),
    ])
    assert hb == expected


def monoid_cases(vector_set, kinds=("open", "mori")):
    """(name, cone, lattice) of OE^ over O-bar and of NE^ over Lambda, for
    every chamber fan of the vector set."""
    fans, _ = enumerate_adapted_fans(vector_set)
    out = []
    for fan in fans:
        name = str([sorted(c) for c in fan.max_cones])
        if "open" in kinds:
            obar = dual_lattice([vec(r) for r in fan.pl_lattice()])
            out.append((f"{name}-open", fan.open_mori_cone(), obar))
        if "mori" in kinds:
            out.append((f"{name}-mori", fan.extended_mori_cone(),
                        fan.big_lambda_lattice()))
    return out


ORACLE_SETS = [
    ("a1-1d", [(1,), (2,)], ("open", "mori")),
    ("a1-2d", [(-1, 1), (1, 1), (0, 1)], ("open", "mori")),
    ("bl-pt-p2", [(1, 0), (0, 1), (-1, -1), (1, 1)], ("open", "mori")),
    ("p123", [(1, 0), (0, 1), (-2, -3)], ("open", "mori")),
    # the open cones of this one take the oracle minutes
    ("p123-extra", [(1, 0), (0, 1), (-2, -3), (-1, -1)], ("mori",)),
]


@pytest.mark.parametrize("name,S,kinds", ORACLE_SETS,
                         ids=[c[0] for c in ORACLE_SETS])
def test_hilbert_basis_matches_zonotope_oracle(name, S, kinds):
    vs = VectorSet(AbelianLattice(len(S[0])), S)
    for case, cone, lattice in monoid_cases(vs, kinds):
        assert hilbert_basis(cone, lattice) == \
            zonotope_hilbert_basis(cone, lattice), case


def test_hilbert_basis_of_a_lower_dimensional_cone():
    # the span lattice step: over Z^3 the plane cone of (1,0,0), (1,2,0)
    # has the middle generator (1,1,0), a point of the rays' parallelepiped
    # only once the cone is taken in a basis of span(cone) ∩ Z^3
    cone = Cone.from_rays([(1, 0, 0), (1, 2, 0)], 3)
    Z3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    hb = hilbert_basis(cone, Z3)
    assert hb == [vec(v) for v in [(1, 0, 0), (1, 1, 0), (1, 2, 0)]]
    assert hb == zonotope_hilbert_basis(cone, Z3)
    # the same in a coarser lattice, where the span lattice is not Z^2 x 0
    coarse = [(2, 0, 0), (1, 1, 0), (0, 0, 1)]
    assert hilbert_basis(cone, coarse) == zonotope_hilbert_basis(cone, coarse)


def test_hilbert_basis_walks_no_parallelepiped_above_the_budget(
        monkeypatch):
    # the cone of (1, 0), (1, k) has index k: at the budget its walk runs,
    # one above it raises before the walk, naming the index and the budget
    monkeypatch.setattr(cones, "MAX_BOX_INDEX", 50)
    Z2 = [(1, 0), (0, 1)]
    assert len(hilbert_basis(Cone.from_rays([(1, 0), (1, 50)], 2), Z2)) == 51
    with pytest.raises(errors.TooLarge, match="index 51 exceeds the Box "
                                              "budget 50"):
        hilbert_basis(Cone.from_rays([(1, 0), (1, 51)], 2), Z2)


def test_hilbert_basis_filters_no_more_candidates_than_the_budget():
    # the cone of (1, 0), (1, k) has k + 1 candidates, all irreducible, so
    # its filter is quadratic: at the real budget it runs, and one above
    # it, or at the Box budget (whose walk is allowed), raises before it
    Z2 = [(1, 0), (0, 1)]
    budget = cones.MAX_HILBERT_CANDIDATES
    cone = Cone.from_rays([(1, 0), (1, budget - 1)], 2)
    assert len(hilbert_basis(cone, Z2)) == budget
    for k in (budget, cones.MAX_BOX_INDEX):
        with pytest.raises(errors.TooLarge, match=(
                f"{k + 1} candidates exceed the Hilbert basis filter budget "
                f"{budget}")):
            hilbert_basis(Cone.from_rays([(1, 0), (1, k)], 2), Z2)


def rows(*vs):
    return [tuple(Fraction(x) for x in v.split()) for v in vs]


# Monoid generators of the chamber fans of S = ([-1,-1],0), ([0,-1],1),
# ([1,1],1), ([2,-1],1) in Z^2 x Z/3: (fan, OE^ generators, NE^ generators),
# the same as the zonotope oracle's, which takes up to 80 s per cone on a
# 2-core machine.
TWISTED_MONOIDS = [
    ([[0, 3], [2, 3]],
     rows("-2/3 1 0 -1/3", "0 0 0 1", "0 0 1/3 1/3", "0 0 1 0",
          "1/3 0 0 2/3", "1/3 0 1/3 0", "2/3 0 0 1/3", "1 0 0 0"),
     rows("-2/3 5/9", "1/3 -2/9")),
    ([[0, 1], [1, 3], [2, 3]],
     rows("0 0 0 1", "0 0 1/3 1/3", "0 0 1 0", "0 1/2 0 1/2",
          "0 1/2 1/3 -1/6", "0 1 0 0", "1 -3/2 0 1/2", "1 0 0 0"),
     rows("0 1/18", "1 -5/6")),
    ([[0, 1], [1, 2]],
     rows("0 -3 -2 1", "0 0 1 0", "0 1 0 0", "1 0 0 0"),
     rows("0 -1/3", "1 -2/3")),
]


def test_twisted_monoid_generators_pinned():
    vs = VectorSet(AbelianLattice(2, (3,)),
                   [((-1, -1), (0,)), ((0, -1), (1,)), ((1, 1), (1,)),
                    ((2, -1), (1,))])
    fans, _ = enumerate_adapted_fans(vs)
    got = []
    for fan in fans:
        t0 = time.process_time()
        om = fan.open_monoid_generators()
        # no LP per lattice point: well under a second, not minutes
        assert time.process_time() - t0 < 1.0
        got.append(([sorted(c) for c in fan.max_cones], om,
                    fan.mori_monoid_generators()))
    assert got == TWISTED_MONOIDS
