"""Exact rational polyhedral cones and polytopes.

Conversion between generator and halfspace descriptions uses the double
description method with the combinatorial adjacency test; everything is
Fraction arithmetic.  Intended for the small ambient dimensions that occur
at desk scale.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .lp import lp_maximize
from .rational import (dot, frac, is_zero, matvec, primitive, rank, rref,
                       solve, vec, vsub)


def dual_description(ineqs, eqs, dim):
    """Extreme rays and lineality of {x : a.x >= 0 for a in ineqs,
    e.x = 0 for e in eqs}."""
    constraints = []
    for e in eqs:
        constraints.append(vec(e))
        constraints.append(vec(tuple(-x for x in e)))
    constraints.extend(vec(a) for a in ineqs)
    lineality = [tuple(Fraction(1) if i == j else Fraction(0) for j in range(dim))
                 for i in range(dim)]
    rays = []        # list of (vector, zeroset frozenset)
    for idx, a in enumerate(constraints):
        lvals = [dot(a, l) for l in lineality]
        j0 = next((j for j in range(len(lineality)) if lvals[j] != 0), None)
        if j0 is not None:
            l0 = lineality[j0]
            s = lvals[j0]
            l0 = tuple(x / s for x in l0)
            lineality = [vsub(l, tuple(dot(a, l) * y for y in l0))
                         for j, l in enumerate(lineality) if j != j0]
            # every projected ray now vanishes on the new constraint
            rays = [(vsub(r, tuple(dot(a, r) * y for y in l0)), z | {idx})
                    for r, z in rays]
            rays.append((l0, frozenset(range(idx))))
            continue
        pos = [(r, z) for r, z in rays if dot(a, r) > 0]
        neg = [(r, z) for r, z in rays if dot(a, r) < 0]
        zer = [(r, z | {idx}) for r, z in rays if dot(a, r) == 0]
        new = [(r, z) for r, z in pos] + zer
        for (rp, zp), (rn, zn) in itertools.product(pos, neg):
            common = zp & zn
            # adjacency: no third ray's zero set contains the common zeros
            adjacent = True
            for r3, z3 in rays:
                if r3 is rp or r3 is rn:
                    continue
                if common <= z3:
                    adjacent = False
                    break
            if not adjacent:
                continue
            vp, vn = dot(a, rp), dot(a, rn)
            w = tuple(vp * x - vn * y for x, y in zip(rn, rp))
            if is_zero(w):
                continue
            new.append((tuple(frac(x) for x in primitive(w)), common | {idx}))
        # dedupe
        seen = {}
        for r, z in new:
            key = primitive(r)
            if key in seen:
                seen[key] = (seen[key][0], seen[key][1] | z)
            else:
                seen[key] = (r, z)
        rays = list(seen.values())
    ray_vecs = [vec(primitive(r)) for r, _ in rays]
    lin_vecs = [vec(primitive(l)) for l in lineality if not is_zero(l)]
    return ray_vecs, lin_vecs


class Cone:
    """Rational polyhedral cone with cached V- and H-descriptions."""

    def __init__(self, ambient_dim, rays=None, lineality=None,
                 inequalities=None, equalities=None):
        self.ambient = ambient_dim
        self._gen_rays = [vec(r) for r in rays] if rays is not None else None
        self._gen_lin = [vec(l) for l in (lineality or [])] if rays is not None else None
        self._rays = None       # canonical extreme rays
        self._lin = None        # canonical lineality basis
        self._ineqs = [vec(a) for a in inequalities] if inequalities is not None else None
        self._eqs = [vec(e) for e in (equalities or [])] if inequalities is not None else None
        if self._gen_rays is None and self._ineqs is None:
            raise ValueError("need rays or inequalities")

    @classmethod
    def from_rays(cls, rays, ambient_dim=None):
        rays = [vec(r) for r in rays]
        if ambient_dim is None:
            ambient_dim = len(rays[0])
        return cls(ambient_dim, rays=rays)

    @classmethod
    def from_inequalities(cls, ineqs, eqs=(), ambient_dim=None):
        ineqs = [vec(a) for a in ineqs]
        eqs = [vec(e) for e in eqs]
        if ambient_dim is None:
            src = ineqs or eqs
            ambient_dim = len(src[0])
        return cls(ambient_dim, inequalities=ineqs, equalities=eqs)

    # -- conversions ------------------------------------------------------
    def _compute_h(self):
        # dual cone of cone(rays)+span(lin): {y : y.r >= 0, y.l = 0}
        drays, dlin = dual_description(self._gen_rays, self._gen_lin or [],
                                       self.ambient)
        self._ineqs = drays
        self._eqs = dlin

    def _compute_v(self):
        if self._ineqs is None:
            self._compute_h()
        rays, lin = dual_description(self._ineqs, self._eqs or [], self.ambient)
        self._rays = rays
        self._lin = lin

    @property
    def rays(self):
        """Canonical extreme rays (primitive integer vectors)."""
        if self._rays is None:
            self._compute_v()
        return self._rays

    @property
    def lineality(self):
        if self._lin is None:
            self._compute_v()
        return self._lin

    @property
    def inequalities(self):
        """Irredundant facet normals (valid within the cone's span)."""
        if self._ineqs is None:
            self._compute_h()
        return self._ineqs

    @property
    def equalities(self):
        if self._ineqs is None:
            self._compute_h()
        return self._eqs

    def dim(self):
        gens = list(self.rays) + list(self.lineality)
        if not gens:
            return 0
        return rank(gens)

    def dual(self):
        ineqs = [tuple(r) for r in self.rays]
        eqs = [tuple(l) for l in self.lineality]
        return Cone.from_inequalities(ineqs, eqs, self.ambient)

    def intersection(self, other):
        ineqs = list(self.inequalities) + list(other.inequalities)
        eqs = list(self.equalities) + list(other.equalities)
        return Cone.from_inequalities(ineqs, eqs, self.ambient)

    def contains(self, x) -> bool:
        x = vec(x)
        return (all(dot(a, x) >= 0 for a in self.inequalities)
                and all(dot(e, x) == 0 for e in self.equalities))

    def relint_contains(self, x) -> bool:
        x = vec(x)
        if not all(dot(e, x) == 0 for e in self.equalities):
            return False
        return all(dot(a, x) > 0 for a in self.inequalities)

    def relint_point(self):
        pts = [vec(r) for r in self.rays] + [vec(l) for l in self.lineality]
        if not pts:
            return tuple(Fraction(0) for _ in range(self.ambient))
        acc = pts[0]
        for p in pts[1:]:
            acc = tuple(a + b for a, b in zip(acc, p))
        return acc

    def extreme_rays(self):
        """Canonical extreme rays as sorted primitive integer tuples."""
        return sorted(primitive(r) for r in self.rays)

    def ray_set(self):
        return frozenset(self.extreme_rays())

    def __eq__(self, other):
        return (isinstance(other, Cone) and self.ambient == other.ambient
                and self.ray_set() == other.ray_set()
                and frozenset(map(primitive, self.lineality))
                == frozenset(map(primitive, other.lineality)))

    def __hash__(self):
        return hash((self.ambient, self.ray_set()))


# ---------------------------------------------------------------------------
# polytopes


def polytope_facets(points):
    """Facets of conv(points) as (normal a, offset a0, active index tuple)
    with the polytope in {x : a.x <= a0}."""
    pts = [vec(p) for p in points]
    hom = [tuple(p) + (Fraction(1),) for p in pts]
    dim = len(pts[0]) + 1
    drays, dlin = dual_description(hom, [], dim)
    facets = []
    normals = list(drays)
    for l in dlin:
        normals.append(l)
        normals.append(tuple(-x for x in l))
    for y in normals:
        a = tuple(-x for x in y[:-1])
        a0 = y[-1]
        if is_zero(a):
            continue
        active = tuple(i for i, p in enumerate(pts) if dot(a, p) == a0)
        facets.append((a, a0, active))
    return facets


def polytope_proper_faces(points, facets=None):
    """All proper nonempty faces of conv(points) as active point-index sets;
    `facets` as in `triangulate_polytope`."""
    if facets is None:
        facets = polytope_facets(points)
    faces = set()
    frontier = {tuple(sorted(f[2])) for f in facets}
    faces |= frontier
    while frontier:
        nxt = set()
        for f in frontier:
            for a, a0, act in facets:
                inter = tuple(sorted(set(f) & set(act)))
                if inter and inter != f and inter not in faces:
                    nxt.add(inter)
        faces |= nxt
        frontier = nxt
    return sorted(faces, key=lambda f: (len(f), f))


def triangulate_polytope(points, facets=None):
    """Triangulation of conv(points); simplices as tuples of point indices.

    The apex of the pyramid decomposition is points[0]; facets through it
    contribute nothing.  `facets`, when given, are `polytope_facets(points)`
    already computed by the caller.
    """
    pts = [vec(p) for p in points]
    if len(pts) <= 1:
        return []
    d = rank([vsub(p, pts[0]) for p in pts[1:]])
    if d == 0:
        return []
    if d == 1:
        j = next(k for k in range(len(pts[0]))
                 if any(vsub(p, pts[0])[k] != 0 for p in pts))
        order = sorted(range(len(pts)), key=lambda i: pts[i][j])
        return [(order[0], order[-1])]
    if facets is None:
        facets = polytope_facets(pts)
    apex = 0
    simplices = []
    for a, a0, act in facets:
        if dot(a, pts[apex]) == a0:
            continue
        sub = triangulate_affine([pts[i] for i in act])
        for s in sub:
            simplices.append(tuple([apex] + [act[j] for j in s]))
    return simplices


def triangulate_affine(points):
    """Triangulation of conv(points) inside its affine hull; simplices as
    index tuples into `points`."""
    pts = [vec(p) for p in points]
    if len(pts) == 1:
        return [(0,)]
    diffs = [vsub(p, pts[0]) for p in pts[1:]]
    d = rank(diffs)
    if d == 0:
        return [(0,)]
    # coordinates in the affine hull
    red, _ = rref(diffs, len(pts[0]))
    coords = []
    mat = [tuple(b[i] for b in red) for i in range(len(pts[0]))]
    for p in pts:
        coords.append(solve(mat, vsub(p, pts[0])))
    if d == 1:
        order = sorted(range(len(pts)), key=lambda i: coords[i][0])
        return [(order[0], order[-1])]
    facets = polytope_facets(coords)
    apex = 0
    simplices = []
    for a, a0, act in facets:
        if dot(a, coords[apex]) == a0:
            continue
        sub = triangulate_affine([coords[i] for i in act])
        for s in sub:
            simplices.append(tuple([apex] + [act[j] for j in s]))
    return simplices


def normalized_volume(points, facets=None):
    """Lattice-normalized volume of conv(points) (unit simplex has volume 1);
    `facets` as in `triangulate_polytope`."""
    pts = [vec(p) for p in points]
    n = len(pts[0])
    simps = triangulate_polytope(pts, facets)
    total = Fraction(0)
    from .rational import det
    for s in simps:
        if len(s) != n + 1:
            continue
        rows = [vsub(pts[i], pts[s[0]]) for i in s[1:]]
        total += abs(det(rows))
    return total


# ---------------------------------------------------------------------------
# Hilbert bases (small pointed cones only)


def hilbert_basis(cone: Cone, lattice_basis):
    """Monoid generators of cone ∩ lattice for a pointed cone.

    lattice_basis: rows spanning a full-rank lattice in the ambient space.
    Candidates are lattice points of the zonotope spanned by the primitive
    ray generators; minimal elements under the cone order are returned.
    """
    if cone.lineality:
        raise ValueError("hilbert_basis requires a pointed cone")
    amb = cone.ambient
    from .rational import mat_inverse, transpose
    Binv_t = transpose(mat_inverse(lattice_basis))
    rays = []
    for r in cone.rays:
        coeff = matvec(Binv_t, r)
        den = math.lcm(*(x.denominator for x in coeff))
        rays.append(tuple(x * den for x in coeff))  # primitive in lattice coords
    if not rays:
        return []
    k = len(rays)
    dimL = len(rays[0])
    lo = [sum(min(Fraction(0), r[i]) for r in rays) for i in range(dimL)]
    hi = [sum(max(Fraction(0), r[i]) for r in rays) for i in range(dimL)]
    # enumerate integer points of the box, keep those in the zonotope
    ranges = [range(int(lo[i]), int(hi[i]) + 1) for i in range(dimL)]
    cand = []
    for z in itertools.product(*ranges):
        if all(x == 0 for x in z):
            continue
        # z in zonotope: exists t in [0,1]^k with sum t_i rays_i = z
        A_eq = [[rays[j][i] for j in range(k)] for i in range(dimL)]
        status, _, _ = lp_maximize([0] * k,
                                   A_ub=[[1 if j == jj else 0 for jj in range(k)] for j in range(k)]
                                        + [[-1 if j == jj else 0 for jj in range(k)] for j in range(k)],
                                   b_ub=[1] * k + [0] * k,
                                   A_eq=A_eq, b_eq=list(z))
        if status == "optimal":
            cand.append(z)
    # map back to ambient coords
    def to_amb(z):
        out = [Fraction(0)] * amb
        for c, row in zip(z, lattice_basis):
            for i in range(amb):
                out[i] += c * frac(row[i])
        return tuple(out)
    cand_amb = [(z, to_amb(z)) for z in cand]
    cand_amb = [(z, v) for z, v in cand_amb if cone.contains(v)]
    basis = []
    for z, v in cand_amb:
        minimal = True
        for z2, v2 in cand_amb:
            if z2 == z:
                continue
            d = vsub(v, v2)
            if is_zero(d):
                continue
            if cone.contains(d):
                # v = v2 + d with both in the monoid
                if any(x != 0 for x in d):
                    minimal = False
                    break
        if minimal:
            basis.append(v)
    basis.sort()
    return basis
