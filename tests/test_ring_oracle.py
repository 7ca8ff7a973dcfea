"""The Chow ring built from intersection numbers against two oracles: the
presentation Q[D_b] / (linear relations + Stanley-Reisner ideal),
eliminated by one exact RREF per degree, and the greedy `Fraction` echelon
the build used before it read `rational.rref` (`ring_build_oracle`)."""
import itertools
from fractions import Fraction
from math import comb

import pytest

import ring_build_oracle
from toriclg import ktheory, rational
from toriclg.fans import StackyFan
from toriclg.ktheory import (CohomologyRing, bl_line_p4, bl_point_p2, p1xp1,
                             projective_space)
from toriclg.lattice import AbelianLattice, VectorSet
from toriclg.secondary import wall_between


def sr_nonfaces(ring):
    """Minimal non-faces of the fan, as sets of local ray indices."""
    faces = set()
    for c in ring.fan.max_cones:
        local = sorted(ring.ray_indices.index(i) for i in c)
        for r in range(len(local) + 1):
            for s in itertools.combinations(local, r):
                faces.add(frozenset(s))
    nonfaces = []
    for r in range(1, ring.m + 1):
        for s in itertools.combinations(range(ring.m), r):
            fs = frozenset(s)
            if fs in faces:
                continue
            if any(nf <= fs for nf in nonfaces):
                continue
            nonfaces.append(fs)
    return nonfaces


def relations(ring, d):
    """The degree-d part of the ideal as polynomials {monomial: coeff}: every
    linear relation times a degree-(d-1) monomial, and every
    Stanley-Reisner monomial times a monomial of the remaining degree."""
    fan = ring.fan
    lin = [[Fraction(fan.S[b].free[i]) for b in ring.ray_indices]
           for i in range(ring.n)]
    rels = []
    for mo in ring._monomials(d - 1):
        for l in lin:
            poly = {}
            for b in range(ring.m):
                if l[b] == 0:
                    continue
                mo2 = list(mo)
                mo2[b] += 1
                poly[tuple(mo2)] = poly.get(tuple(mo2), 0) + l[b]
            rels.append(poly)
    for nf in sr_nonfaces(ring):
        k = len(nf)
        if k > d:
            continue
        for mo in ring._monomials(d - k):
            mo2 = tuple(mo[i] + (i in nf) for i in range(ring.m))
            rels.append({mo2: Fraction(1)})
    return rels


def rref_ring(ring):
    """(basis, reduce_map, top_scale) from one RREF of the relations per
    degree: the non-pivot monomials form the basis and each pivot row
    expresses its monomial over the later non-pivot ones."""
    basis = {0: [(0,) * ring.m]}
    reduce_map = {0: {(0,) * ring.m: [Fraction(1)]}}
    for d in range(1, ring.n + 1):
        monos = ring._monomials(d)
        idx = {mo: i for i, mo in enumerate(monos)}
        rows = []
        for poly in relations(ring, d):
            row = [Fraction(0)] * len(monos)
            for mo, c in poly.items():
                row[idx[mo]] += c
            rows.append(row)
        red, piv = rational.rref(rows, len(monos))
        basis[d] = [monos[j] for j in range(len(monos)) if j not in piv]
        bidx = {mo: i for i, mo in enumerate(basis[d])}
        rmap = {}
        for j, mo in enumerate(monos):
            v = [Fraction(0)] * len(basis[d])
            if j in piv:
                r = red[piv[j]]
                for j2 in range(j + 1, len(monos)):
                    if r[j2] != 0:
                        v[bidx[monos[j2]]] -= r[j2]
            else:
                v[bidx[mo]] = Fraction(1)
            rmap[mo] = v
        reduce_map[d] = rmap
    # the distinct-ray monomial of every maximal cone has one coordinate,
    # the same for every cone
    scales = {reduce_map[ring.n][cone_monomial(ring, c)][0]
              for c in ring.fan.max_cones}
    assert len(scales) == 1
    return basis, reduce_map, scales.pop()


def cone_monomial(ring, cone):
    mo = [0] * ring.m
    for b in cone:
        mo[ring.ray_indices.index(b)] += 1
    return tuple(mo)


def bl_line_wall_fans():
    fan_plus = bl_line_p4()
    minus_cones = [set(c) for c in itertools.combinations(range(5), 4)]
    fan_minus = StackyFan(fan_plus.vector_set, minus_cones)
    wall = wall_between(fan_plus, fan_minus)
    return wall.plus_fan, wall.minus_fan


def fan_of(vecs, cones):
    return StackyFan(VectorSet(AbelianLattice(len(vecs[0])), vecs), cones)


def hexagon():
    """The toric del Pezzo surface of degree 6 (m = 6, n = 2)."""
    vecs = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    return fan_of(vecs, [{i, (i + 1) % 6} for i in range(6)])


def hirzebruch(a):
    return fan_of([(1, 0), (0, 1), (-1, a), (0, -1)],
                  [{0, 1}, {1, 2}, {2, 3}, {3, 0}])


def p2xp1():
    vecs = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
    return fan_of(vecs, [set(c) | {t}
                         for c in itertools.combinations(range(3), 2)
                         for t in (3, 4)])


FANS = {
    "p2": lambda: projective_space(2),
    "p3": lambda: projective_space(3),
    "p4": lambda: projective_space(4),
    "p1xp1": p1xp1,
    "bl_point_p2": bl_point_p2,
    "bl_line_p4": bl_line_p4,
    "wall_plus": lambda: bl_line_wall_fans()[0],
    "wall_minus": lambda: bl_line_wall_fans()[1],
    "hexagon": hexagon,
    "f2": lambda: hirzebruch(2),
    "f3": lambda: hirzebruch(3),
    "p2xp1": p2xp1,
}


def typed(x):
    return (type(x), x)


def typed_maps(reduce_map):
    """Each degree's reduce map as its (monomial, typed coordinates) list,
    so key order counts too."""
    return {d: [(mo, [typed(x) for x in v]) for mo, v in rm.items()]
            for d, rm in reduce_map.items()}


@pytest.mark.parametrize("name", sorted(FANS))
def test_ring_matches_greedy_echelon_oracle(name):
    ring = CohomologyRing(FANS[name]())
    basis, reduce_map, top_scale = ring_build_oracle.build(ring)
    assert ring.basis == basis
    assert typed_maps(ring.reduce_map) == typed_maps(reduce_map)
    assert typed(ring.top_scale) == typed(top_scale)


@pytest.mark.parametrize("name", sorted(FANS))
def test_ring_matches_rref_oracle(name):
    ring = CohomologyRing(FANS[name]())
    basis, reduce_map, top_scale = rref_ring(ring)
    assert ring.basis == basis
    assert typed_maps(ring.reduce_map) == typed_maps(reduce_map)
    assert typed(ring.top_scale) == typed(top_scale)


@pytest.mark.parametrize("name", sorted(FANS))
def test_ring_kills_relations_and_integrates_cones_to_one(name):
    ring = CohomologyRing(FANS[name]())
    for d in range(1, ring.n + 1):
        for poly in relations(ring, d):
            assert ring.from_poly(poly).is_zero()
    for c in ring.fan.max_cones:
        top = ring.from_poly({cone_monomial(ring, c): Fraction(1)})
        assert top.integrate() == 1


def test_ring_build_passes_rref_no_more_rows_than_monomials(monkeypatch):
    rows_seen = []
    eliminations = []
    rref, eliminate = ktheory.rref, rational._eliminate

    def counting(rows, ncols=None):
        rows = list(rows)
        rows_seen.append(len(rows))
        return rref(rows, ncols)

    def counting_eliminate(*args, **kwargs):
        eliminations.append(args[1])
        return eliminate(*args, **kwargs)
    fan = bl_line_p4()      # its cone charts are inverted while it is built
    monkeypatch.setattr(ktheory, "rref", counting)
    monkeypatch.setattr(rational, "_eliminate", counting_eliminate)
    ring = CohomologyRing(fan)
    # the fewest monomials of any positive degree are the m of degree 1;
    # the RREF build passes 216 rows for the 126 monomials of degree 4
    fewest = min(comb(ring.m + d - 1, d) for d in range(1, ring.n + 1))
    assert fewest == ring.m == 6
    assert all(r <= fewest for r in rows_seen), rows_seen
    # one rref per degree, and no elimination besides those
    assert len(rows_seen) == ring.n + 1
    assert len(eliminations) == len(rows_seen), eliminations
