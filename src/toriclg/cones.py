"""Exact rational polyhedral cones and polytopes.

Conversion between generator and halfspace descriptions uses the double
description method with the combinatorial adjacency test, run on primitive
`int` vectors.  Everything a cone computes (rays, lineality, inequalities,
equalities, relative interior points) and the facets of a polytope are
`int` tuples; a cone keeps the generators or inequalities it is given as
they are, and its membership tests take `int` or Fraction points alike.
Intended for the small ambient dimensions that occur at desk scale.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from . import errors
from .rational import (MAX_BOX_INDEX, det, dot, dual_lattice, idot,
                       integer_kernel, is_zero, matvec, parallelepiped_units,
                       primitive, rank, rref, scaled_inverse, solve,
                       transpose, vsub)


def _reduced(v):
    """An integer vector divided by the gcd of its entries (0 stays 0)."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else v


def _project(x, v, s, l0):
    """|s| x - (a.x) l0 reduced, for v = a.x and s = a.l0 > 0."""
    return _reduced(tuple(s * y - v * z for y, z in zip(x, l0)))


def dual_description(ineqs, eqs, dim):
    """Extreme rays and lineality of {x : a.x >= 0 for a in ineqs,
    e.x = 0 for e in eqs}, as primitive `int` tuples.

    The double description method (Motzkin et al. 1953; Fukuda and Prodon
    1996) with the combinatorial adjacency test, run on primitive `int`
    vectors: every constraint passes through `primitive`, which changes no
    sign.  A lineality vector l0 with value s = a.l0 != 0 is oriented by the
    sign of s, and each other vector x is projected as |s| x - (a.x) l0 and
    divided by its gcd.  That is a positive multiple of x - (a.x) l0 / s, so
    every stored vector is the primitive multiple of the one exact division
    would give: the rays, their order and the lineality signs do not depend
    on the scaling.
    """
    constraints = []
    for e in eqs:
        e = primitive(e)
        constraints.append(e)
        constraints.append(tuple(-x for x in e))
    constraints.extend(primitive(a) for a in ineqs)
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays = []        # list of (primitive vector, zeroset frozenset)
    for idx, a in enumerate(constraints):
        lvals = [idot(a, l) for l in lineality]
        j0 = next((j for j, v in enumerate(lvals) if v), None)
        if j0 is not None:
            s = lvals[j0]
            l0 = lineality[j0] if s > 0 else tuple(-x for x in lineality[j0])
            s = abs(s)
            lineality = [_project(l, v, s, l0) for j, (l, v)
                         in enumerate(zip(lineality, lvals)) if j != j0]
            # every projected ray now vanishes on the new constraint
            rays = [(_project(r, idot(a, r), s, l0), z | {idx})
                    for r, z in rays]
            rays.append((l0, frozenset(range(idx))))
            continue
        vals = [idot(a, r) for r, _ in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        new = [rays[i] for i in pos]
        new += [(r, z | {idx}) for (r, z), v in zip(rays, vals) if v == 0]
        for p, q in itertools.product(pos, neg):
            (rp, zp), (rn, zn) = rays[p], rays[q]
            common = zp & zn
            # adjacency: no third ray's zero set contains the common zeros
            if any(common <= z3 for k, (_, z3) in enumerate(rays)
                   if k != p and k != q):
                continue
            vp, vn = vals[p], vals[q]
            w = tuple(vp * x - vn * y for x, y in zip(rn, rp))
            if any(w):
                new.append((_reduced(w), common | {idx}))
        # dedupe: stored vectors are primitive, so equal directions are equal
        seen = {}
        for r, z in new:
            seen[r] = seen[r] | z if r in seen else z
        rays = list(seen.items())
    return [r for r, _ in rays], [l for l in lineality if any(l)]


class Cone:
    """Rational polyhedral cone with cached V- and H-descriptions; the
    computed ones are primitive `int` tuples."""

    def __init__(self, ambient_dim, rays=None, inequalities=None,
                 equalities=None):
        self.ambient = ambient_dim
        self._gen_rays = [tuple(r) for r in rays] if rays is not None else None
        self._rays = None       # canonical extreme rays
        self._lin = None        # canonical lineality basis
        self._ineqs = [tuple(a) for a in inequalities] if inequalities is not None else None
        self._eqs = [tuple(e) for e in (equalities or [])] if inequalities is not None else None
        if self._gen_rays is None and self._ineqs is None:
            raise ValueError("need rays or inequalities")

    @classmethod
    def from_rays(cls, rays, ambient_dim=None):
        if ambient_dim is None:
            ambient_dim = len(rays[0])
        return cls(ambient_dim, rays=rays)

    @classmethod
    def from_inequalities(cls, ineqs, eqs=(), ambient_dim=None):
        if ambient_dim is None:
            src = ineqs or eqs
            ambient_dim = len(src[0])
        return cls(ambient_dim, inequalities=ineqs, equalities=eqs)

    # -- conversions ------------------------------------------------------
    def _compute_h(self):
        # dual cone of cone(rays): {y : y.r >= 0}
        drays, dlin = dual_description(self._gen_rays, [], self.ambient)
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
        return Cone.from_inequalities(self.rays, self.lineality, self.ambient)

    def intersection(self, other):
        ineqs = list(self.inequalities) + list(other.inequalities)
        eqs = list(self.equalities) + list(other.equalities)
        return Cone.from_inequalities(ineqs, eqs, self.ambient)

    def contains(self, x) -> bool:
        return (all(idot(a, x) >= 0 for a in self.inequalities)
                and all(idot(e, x) == 0 for e in self.equalities))

    def relint_contains(self, x) -> bool:
        if not all(idot(e, x) == 0 for e in self.equalities):
            return False
        return all(idot(a, x) > 0 for a in self.inequalities)

    def relint_point(self):
        acc = (0,) * self.ambient
        for p in self.rays + self.lineality:
            acc = tuple(a + b for a, b in zip(acc, p))
        return acc

    def extreme_rays(self):
        """Canonical extreme rays as sorted primitive integer tuples."""
        return sorted(self.rays)

    def ray_set(self):
        return frozenset(self.rays)

    def __eq__(self, other):
        return (isinstance(other, Cone) and self.ambient == other.ambient
                and self.ray_set() == other.ray_set()
                and frozenset(self.lineality) == frozenset(other.lineality))

    def __hash__(self):
        return hash((self.ambient, self.ray_set()))


# ---------------------------------------------------------------------------
# polytopes


def polytope_facets(points):
    """Facets of conv(points) as (normal a, offset a0, active index tuple)
    with the polytope in {x : a.x <= a0}; a and a0 are `int`."""
    hom = [tuple(p) + (1,) for p in points]
    drays, dlin = dual_description(hom, [], len(hom[0]))
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
        active = tuple(i for i, p in enumerate(points) if idot(a, p) == a0)
        facets.append((a, a0, active))
    return facets


def polytope_proper_faces(points, facets=None):
    """All proper nonempty faces of conv(points) as active point-index sets;
    `facets` as in `triangulate_affine`."""
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


def triangulate_affine(points, facets=None):
    """Triangulation of conv(points) inside its affine hull; simplices as
    index tuples into `points`.

    The pyramid decomposition with apex points[0]: one cone from the apex
    over a triangulation of each facet not through it.  Points that do not
    span their ambient space are first taken in coordinates on their affine
    hull.  `facets`, when given, are `polytope_facets(points)` of
    full-dimensional points, already computed by the caller."""
    pts = list(points)
    diffs = [vsub(p, pts[0]) for p in pts[1:]]
    d = rank(diffs)
    if d == 0:
        return [(0,)]
    if d == 1:
        j = next(k for k in range(len(pts[0]))
                 if any(x[k] != 0 for x in diffs))
        order = sorted(range(len(pts)), key=lambda i: pts[i][j])
        return [(order[0], order[-1])]
    if d < len(pts[0]):
        # coordinates on the affine hull, where a caller's facets do not apply
        red, _ = rref(diffs)
        mat = transpose(red)
        pts = [solve(mat, vsub(p, pts[0])) for p in pts]
        facets = None
    if facets is None:
        facets = polytope_facets(pts)
    simplices = []
    for a, a0, act in facets:
        if idot(a, pts[0]) == a0:
            continue
        for s in triangulate_affine([pts[i] for i in act]):
            simplices.append((0,) + tuple(act[j] for j in s))
    return simplices


def normalized_volume(points, facets=None):
    """Lattice-normalized volume of conv(points) (unit simplex has volume 1);
    `facets` as in `triangulate_affine`."""
    pts = list(points)
    n = len(pts[0])
    total = Fraction(0)
    for s in triangulate_affine(pts, facets):
        if len(s) != n + 1:
            continue
        rows = [vsub(pts[i], pts[s[0]]) for i in s[1:]]
        total += abs(det(rows))
    return total


# ---------------------------------------------------------------------------
# Hilbert bases (small pointed cones only)

# the kept-generator filter compares each candidate with every kept one, so
# its cost is quadratic in the candidates: 500 on a plane cone take about
# 0.2 s, 2000 about 5 s; tier-1's largest cone has 17
MAX_HILBERT_CANDIDATES = 500


def hilbert_basis(cone: Cone, lattice_basis):
    """Monoid generators of cone ∩ Λ for a pointed cone, sorted; Λ is the
    full-rank lattice spanned by the rows of lattice_basis.

    The cone is first taken in coordinates over a basis of the saturated
    lattice span(cone) ∩ Λ, the integer kernel of its equalities in lattice
    coordinates, where it is full-dimensional.  Then, as in Normaliz
    (Bruns and Ichim 2010, J. Algebra 324):
    - triangulate conv(0, rays) with apex 0, so the cones over its
      simplices cover the cone;
    - the candidates are the primitive rays and the nonzero lattice points
      of each simplicial cone's half-open parallelepiped
      (`parallelepiped_units`; TooLarge before the walk when its index
      exceeds MAX_BOX_INDEX);
    - TooLarge before the filter when there are more than
      MAX_HILBERT_CANDIDATES candidates;
    - in order of increasing degree, the sum of the cone's facet normals
      (positive on the pointed cone minus 0), a candidate v is kept iff no
      kept h has v - h in the cone.

    The candidates hold every irreducible x: x lies in some simplicial cone
    as sum lambda_i r_i, and if some lambda_i >= 1 then x - r_i is in the
    monoid, so x is reducible unless x = r_i; otherwise x is a
    parallelepiped point.  The filter keeps exactly the irreducibles: a
    reducible v is h + w with h irreducible and w nonzero in the monoid, so
    h is a candidate of smaller degree, kept before v; an irreducible v has
    no such h.
    """
    if cone.lineality:
        raise ValueError("hilbert_basis requires a pointed cone")
    if not cone.rays:
        return []
    # the equalities of the cone in lattice coordinates, then a basis of
    # span(cone) ∩ Λ in ambient ones; the zero row keeps all of Λ when
    # there are no equalities; the lattice coordinates of r are its
    # products with the dual basis
    dual = dual_lattice(lattice_basis)
    eqs = integer_kernel([primitive(matvec(dual, r)) for r in cone.rays])
    span = [matvec(transpose(lattice_basis), k)
            for k in integer_kernel([(0,) * len(dual)] + eqs)]
    span_t = transpose(span)
    rays = [primitive(solve(span_t, r)) for r in cone.rays]
    d = len(span)
    cands = set(rays)
    for s in triangulate_affine([(0,) * d] + rays):
        R = [[rays[i - 1][j] for i in s if i] for j in range(d)]
        A, vol = scaled_inverse(R)
        if vol > MAX_BOX_INDEX:
            raise errors.TooLarge(f"simplex {s} of the cone on rays "
                                  f"{cone.rays}: index {vol} exceeds the Box "
                                  f"budget {MAX_BOX_INDEX}")
        for u in parallelepiped_units(A, vol)[1:]:
            cands.add(tuple(sum(x * k for x, k in zip(row, u)) // vol
                            for row in R))
    if len(cands) > MAX_HILBERT_CANDIDATES:
        raise errors.TooLarge(f"cone on rays {cone.rays}: {len(cands)} "
                              f"candidates exceed the Hilbert basis filter "
                              f"budget {MAX_HILBERT_CANDIDATES}")
    # facet values of each candidate: v - h is in the cone iff v's values
    # dominate h's, since v - h lies in the span
    normals = [matvec(span, a) for a in cone.inequalities]
    values = {w: tuple(dot(a, w) for a in normals) for w in cands}
    kept = []
    for w in sorted(cands, key=lambda w: (sum(values[w]), w)):
        if not any(all(x >= y for x, y in zip(values[w], values[h]))
                   for h in kept):
            kept.append(w)
    return sorted(matvec(span_t, w) for w in kept)
