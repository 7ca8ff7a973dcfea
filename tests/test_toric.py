import itertools
import random
from fractions import Fraction

import pytest

from toriclg import errors
from toriclg.fans import StackyFan
from toriclg.lattice import (AbelianLattice, NElt, VectorSet,
                             extended_sequences)
from toriclg.rational import det, matvec, primitive, vec

from convexity_oracle import convexity_certificate
from elimination_oracle import mat_inverse


def a1_vector_set():
    N = AbelianLattice(2)
    return VectorSet(N, [(-1, 1), (1, 1), (0, 1)])


def cyclic_vector_set(d):
    N = AbelianLattice(2)
    return VectorSet(N, [(0, 1), (d, -1), (1, 0)])


def blowup_c2_vector_set():
    N = AbelianLattice(2)
    return VectorSet(N, [(1, 0), (0, 1), (1, 1)])


def p4_vector_set():
    N = AbelianLattice(4)
    return VectorSet(N, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                         (-1, -1, -1, -1)])


def p4_fan():
    vs = p4_vector_set()
    cones = [c for c in itertools.combinations(range(5), 4)]
    return StackyFan(vs, cones)


def test_validate_a1_fans():
    vs = a1_vector_set()
    s1 = StackyFan(vs, [{0, 1}])
    assert s1.rays == [0, 1]
    s2 = StackyFan(vs, [{0, 2}, {2, 1}])
    assert s2.rays == [0, 1, 2]


def test_validate_rejects_gap():
    N = AbelianLattice(2)
    vs = VectorSet(N, [(1, 0), (0, 1)])
    with pytest.raises(errors.SupportMismatch):
        StackyFan(vs, [{0}, {1}])


def test_validate_rejects_nonsimplicial():
    N = AbelianLattice(2)
    vs = VectorSet(N, [(1, 0), (0, 1), (1, 1)])
    with pytest.raises(errors.NonSimplicial):
        StackyFan(vs, [{0, 1, 2}])


def test_simplicial_check_keeps_its_class_and_order():
    # a full-size cone on coplanar rays is non-simplicial by its chart (no
    # inverse), a cone with more than n rays and a lower-dimensional one by
    # their rank; the cones are checked in the order given, one check after
    # the other, so a non-simplicial cone listed before a lower-dimensional
    # cone raises NonSimplicial and one listed after it SupportMismatch
    vs = VectorSet(AbelianLattice(3), [(1, 0, 0), (0, 1, 0), (1, 1, 0),
                                       (0, 0, 1), (0, 0, -1)])
    assert vs.chart({0, 1, 2}) is None
    for cones, error in (([{0, 1, 2}], errors.NonSimplicial),
                         ([{0, 1, 2}, {3}], errors.NonSimplicial),
                         ([{0, 1, 2, 3}, {4}], errors.NonSimplicial),
                         ([{4}, {0, 1, 2}], errors.SupportMismatch),
                         ([{0, 1, 3}, {4}], errors.SupportMismatch)):
        with pytest.raises(error, match="not simplicial|dimension 1 < 3"):
            StackyFan(vs, cones)


def test_validate_rejects_overlap():
    N = AbelianLattice(2)
    vs = VectorSet(N, [(1, 0), (0, 1), (1, 1)])
    with pytest.raises(errors.SupportMismatch):
        StackyFan(vs, [{0, 1}, {0, 2}])


def test_validate_rejects_bad_ray_index():
    vs = a1_vector_set()
    with pytest.raises(errors.RayNotInS):
        StackyFan(vs, [{0, 7}])


def test_key_ignores_cone_order():
    # frozensets sort by inclusion, a partial order, so sorting the cones
    # alone does not make the key canonical
    vs = VectorSet(AbelianLattice(2), [(1, 0), (0, 1), (1, 1)])
    a = StackyFan(vs, [{0, 2}, {2, 1}])
    b = StackyFan(vs, [{2, 1}, {0, 2}])
    assert a.key() == b.key() == (((0, 2), (1, 2)), (0, 1, 2))


def test_non_regular_fan_has_no_convex_support_function():
    # a complete simplicial fan over the "mother of all examples": it passes
    # the face and cover checks but is not regular, so convexity is what fails
    vs = VectorSet(AbelianLattice(3), [(4, 0, 0), (0, 4, 0), (0, 0, 4),
                                       (2, 1, 1), (1, 2, 1), (1, 1, 2)])
    cones = [{0, 1, 4}, {0, 3, 4}, {1, 2, 5}, {1, 4, 5}, {0, 2, 3},
             {2, 3, 5}, {3, 4, 5}]
    with pytest.raises(errors.NoConvexSupportFunction):
        StackyFan(vs, cones)
    # a height vector that certifies nothing does not let the fan through
    with pytest.raises(errors.NoConvexSupportFunction):
        StackyFan(vs, cones, heights=[0] * 6)


def test_heights_certify_a1_resolution():
    vs = a1_vector_set()
    # c = (0, 0, -1): the middle ray sits below the line through the others
    fan = StackyFan(vs, [{0, 2}, {2, 1}], heights=[0, 0, -1])
    assert convexity_certificate(fan)[0]
    with pytest.raises(errors.NoConvexSupportFunction):
        StackyFan(vs, [{0, 2}, {2, 1}], heights=[0, 0, 1])


def test_extended_sequences_a1():
    vs = a1_vector_set()
    L, D = extended_sequences(vs)
    assert vs.generates
    assert len(L) == 1
    assert primitive(L[0]) in ((-1, -1, 2), (1, 1, -2))
    # divisor images in the rank-1 dual coordinate
    sign = 1 if primitive(L[0]) == (-1, -1, 2) else -1
    assert [int(x[0]) * sign for x in D] == [-1, -1, 2]


def test_extended_sequences_blowup_c2():
    vs = blowup_c2_vector_set()
    L, D = extended_sequences(vs)
    assert vs.generates and len(L) == 1
    assert primitive(L[0]) in ((1, 1, -1), (-1, -1, 1))


def test_extended_sequences_basis_case():
    N = AbelianLattice(2)
    vs = VectorSet(N, [(1, 0), (0, 1)])
    L, D = extended_sequences(vs)
    assert vs.generates and L == []


def test_box_elements_a1():
    vs = a1_vector_set()
    s1 = StackyFan(vs, [{0, 1}])
    box = s1.box_elements()
    data = sorted((tuple(b.element.free), b.age) for b in box)
    assert data == [((0, 0), 0), ((0, 1), 1)]


def test_corrupted_chart_fails_the_box_checks(monkeypatch):
    # both checks of the shared box walk raise VolumeBoxMismatch from the
    # count and from the elements: a chart claiming index 2 for a smooth
    # cone, (2A, 2), walks one point, and a halved inverse, (A, 2), walks a
    # non-lattice point
    fan = StackyFan(blowup_c2_vector_set(), [{0, 2}, {1, 2}])
    (cs, A, vol), rest = fan._charts()[0], fan._charts()[1:]
    assert vol == 1
    double = [tuple(2 * x for x in row) for row in A]
    for chart, message in (((cs, double, 2), "1 box points, determinant "
                                             "predicts 2"),
                           ((cs, A, 2), "non-integral box point")):
        monkeypatch.setattr(fan, "_chart_table", [chart] + rest)
        for call in (fan.dim_orbifold_cohomology, fan.box_elements):
            with pytest.raises(errors.VolumeBoxMismatch, match=message):
                call()


def test_box_elements_cyclic_scan_oracle():
    for d in (3, 4, 5):
        vs = cyclic_vector_set(d)
        s1 = StackyFan(vs, [{0, 1}])
        box = s1.box_elements()
        assert len(box) == d
        # independent oracle: brute-force scan of the closed bounding box
        rays = [vec(vs.vectors[0].free), vec(vs.vectors[1].free)]
        pts = set()
        for x in range(-d, d + 1):
            for y in range(-d, d + 1):
                sol = [Fraction(0), Fraction(0)]
                den = rays[0][0] * rays[1][1] - rays[0][1] * rays[1][0]
                c0 = Fraction(x * rays[1][1] - y * rays[1][0], den)
                c1 = Fraction(y * rays[0][0] - x * rays[0][1], den)
                if 0 <= c0 < 1 and 0 <= c1 < 1:
                    pts.add((x, y))
        assert pts == {tuple(b.element.free) for b in box}
    # random 3-d simplicial cones, stacky (non-primitive) rays allowed:
    # scan the integer points of the half-open parallelepiped's bounding box
    rng = random.Random(5)
    cones = 0
    while cones < 12:
        rays = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)]
        B = [[r[j] for r in rays] for j in range(3)]
        if det(B) == 0:
            continue
        cones += 1
        Binv, _ = mat_inverse(B)
        box = StackyFan(VectorSet(AbelianLattice(3), rays), [{0, 1, 2}]) \
            .box_elements()
        assert len(box) == abs(det(B))
        scan = set()
        ranges = [range(sum(min(x, 0) for x in row),
                        sum(max(x, 0) for x in row) + 1) for row in B]
        for pt in itertools.product(*ranges):
            c = matvec(Binv, pt)
            if all(0 <= t < 1 for t in c):
                scan.add((pt, sum(c)))
        assert scan == {(tuple(b.element.free), b.age) for b in box}


def test_box_smooth_fan_trivial():
    fan = p4_fan()
    box = fan.box_elements()
    assert len(box) == 1 and box[0].age == 0


def test_dim_orbifold_cohomology():
    for d in (3, 4, 5):
        vs = cyclic_vector_set(d)
        assert StackyFan(vs, [{0, 1}]).dim_orbifold_cohomology() == d
        assert StackyFan(vs, [{0, 2}, {2, 1}]).dim_orbifold_cohomology() == 2
    assert p4_fan().dim_orbifold_cohomology() == 5
    # point-like fan: single full cone on a basis
    N = AbelianLattice(1)
    vs = VectorSet(N, [(1,)])
    assert StackyFan(vs, [{0}]).dim_orbifold_cohomology() == 1


def test_volume_additivity_a1_pair():
    vs = a1_vector_set()
    assert StackyFan(vs, [{0, 1}]).dim_orbifold_cohomology() == 2
    assert StackyFan(vs, [{0, 2}, {2, 1}]).dim_orbifold_cohomology() == 2


def test_psi_map():
    vs = a1_vector_set()
    s1 = StackyFan(vs, [{0, 1}])
    # ray case
    assert s1.psi(vs.vectors[0]) == (1, 0, 0)
    # interior: (0,1) = (b0+b1)/2
    assert s1.psi((0, 1)) == (Fraction(1, 2), Fraction(1, 2), 0)
    with pytest.raises(errors.OutsideSupport):
        s1.psi((1, -5))
    # blowup of C^2: v=(1,1) inside cone {(1,0),(0,1)}
    vsb = blowup_c2_vector_set()
    sb = StackyFan(vsb, [{0, 1}])
    assert sb.psi((1, 1)) == (1, 1, 0)


def test_psi_is_section_randomized():
    rng = random.Random(5)
    vs = a1_vector_set()
    s2 = StackyFan(vs, [{0, 2}, {2, 1}])
    for _ in range(1000):
        a, b = rng.randint(0, 8), rng.randint(0, 8)
        v = (a * (-1) + b, a + b)  # a*b0 + b*b1 stays in Pi
        psi = s2.psi(v)
        img = [sum(psi[i] * vs.vectors[i].free[j] for i in range(3))
               for j in range(2)]
        assert tuple(img) == (Fraction(v[0]), Fraction(v[1]))


def test_mori_monoids_a1():
    vs = a1_vector_set()
    s1 = StackyFan(vs, [{0, 1}])
    s2 = StackyFan(vs, [{0, 2}, {2, 1}])
    # orient the kernel basis as w0 = (-1,-1,2)
    L = s1.kernel_basis()
    sign = 1 if primitive(L[0]) == (-1, -1, 2) else -1
    lam1 = s1.mori_monoid_generators()
    assert [tuple(sign * x for x in g) for g in lam1] == [(Fraction(1, 2),)]
    lam2 = s2.mori_monoid_generators()
    assert [tuple(sign * x for x in g) for g in lam2] == [(-1,)]
    om1 = s1.open_monoid_generators()
    expected = {(1, 0, 0), (0, 1, 0),
                (Fraction(1, 2), Fraction(1, 2), 0),
                (Fraction(-1, 2), Fraction(-1, 2), 1)}
    assert set(om1) == expected
    om2 = s2.open_monoid_generators()
    assert set(om2) == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -2)}


def test_open_mori_duality_with_cpl():
    # Lemma-level duality is exercised against the secondary-fan module in
    # test_secondary; here check OE^ of A1 Sigma_1 directly.
    vs = a1_vector_set()
    s1 = StackyFan(vs, [{0, 1}])
    oe = s1.open_mori_cone()
    assert set(oe.extreme_rays()) == {(1, 0, 0), (0, 1, 0), (-1, -1, 2)}


def test_element_checks_the_torsion_length():
    # a torsion part of the wrong length is refused before it is reduced,
    # not truncated to the lattice's invariants
    z2 = AbelianLattice(2, (2,))
    assert z2.element((1, 0), (5,)) == NElt((1, 0), (1,))
    for lat, tor in ((z2, (1, 5)), (z2, ()), (AbelianLattice(2), (3,))):
        with pytest.raises(ValueError, match="wrong torsion part"):
            lat.element((1, 0), tor)


def test_torsion_lattice_box():
    # Z^1 x Z/2 with S = {(1;0), (-1;1)}: fake weighted point-like data
    N = AbelianLattice(1, (2,))
    vs = VectorSet(N, [((1,), (0,)), ((-1,), (1,))])
    fan = StackyFan(vs, [{0}, {1}])
    box = fan.box_elements()
    # each cone is unimodular in Nbar but there are |N_tor| = 2 lifts of 0
    assert len(box) == 2
    assert fan.dim_orbifold_cohomology() == 4
