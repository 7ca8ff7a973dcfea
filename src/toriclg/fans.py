"""Stacky fans adapted to a vector set: validation, Box elements and ages,
orbifold-cohomology dimension, extended fan/divisor sequences, extended Mori
cones and their monoids.

Everything here is exact. Fans are stored through their maximal cones,
given as index sets into S; the ray set R is the union of those index sets.
"""
from __future__ import annotations

from fractions import Fraction

from . import errors
from .cones import Cone, hilbert_basis
from .lattice import NElt, VectorSet, as_element
from .lp import feasible_strict
from .rational import (MAX_BOX_INDEX, dual_lattice, idot,
                       lattice_from_generators, parallelepiped_units,
                       preimage_lattice, primitive, rank, solve)


class BoxElement:
    def __init__(self, element: NElt, age: Fraction):
        self.element = element
        self.age = age

    def __repr__(self):
        return f"Box({self.element}, age={self.age})"


def cones_key(max_cones):
    """Key of the fan with these maximal cones (index sets into S): sorted
    index tuples plus the rays, so it does not depend on the cones' order."""
    cones = tuple(sorted(tuple(sorted(int(i) for i in c)) for c in max_cones))
    return cones, tuple(sorted(set().union(*cones)))


class StackyFan:
    """A validated stacky fan adapted to S.

    Strict convexity has one certificate, a height vector c in Q^S checked
    by `_heights_certify`.  `heights`, when given, is that vector; otherwise
    the wall-local LP of `_wall_heights` finds one.

    Every per-cone coordinate is read from one chart per maximal cone,
    `_charts`, whose program reader is `locate`; the charts, the kernel
    basis and the divisor images are the vector set's, computed once per S
    and shared by every fan adapted to it.
    `circuits`, also built once per fan, holds the circuit rows that the
    convexity certificate, the wall LP, the open Mori cone, CPL_+ and the
    Chow ring's intersection numbers read.
    """

    def __init__(self, vector_set: VectorSet, max_cones, validate=True,
                 heights=None):
        self.vector_set = vector_set
        self.S = vector_set.vectors
        self.lattice = vector_set.lattice
        self.max_cones = sorted(frozenset(int(i) for i in c) for c in max_cones)
        self.rays = sorted(set().union(*self.max_cones)) if self.max_cones else []
        self._plz = None
        self._chart_table = None
        self._circuit_table = None
        self._pl_cone_data = None    # secondary.pl_cone_data memoizes here
        if validate:
            self._validate(heights)

    # -- basic data --------------------------------------------------------
    @property
    def n(self):
        return self.lattice.rank

    def ray_free(self, i):
        return self.S[i].free

    def kernel_basis(self):
        return self.vector_set.sequences()[0]

    def divisor_images(self):
        """D_b in L^* coordinates (dual basis of kernel_basis)."""
        return self.vector_set.sequences()[1]

    # -- charts of the maximal cones ----------------------------------------
    def _charts(self):
        """Per maximal cone, in `max_cones` order: its chart (cs, A, vol)
        from `VectorSet.chart`, cs the sorted ray indices and (A, vol) =
        (|det B| B^-1, |det B|) for B the matrix whose columns are v_i,
        i in cs."""
        if self._chart_table is None:
            self._chart_table = [self.vector_set.chart(c)
                                 for c in self.max_cones]
        return self._chart_table

    def locate(self, x):
        """(cs, coords) for the first maximal cone on whose rays x has only
        nonnegative coordinates, or None when x is outside the support."""
        for cs, A, vol in self._charts():
            scaled = [idot(row, x) for row in A]
            if all(t >= 0 for t in scaled):
                return cs, tuple(Fraction(t, vol) for t in scaled)
        return None

    def circuits(self):
        """Per maximal cone, in `max_cones` order: {b: row} for each b in S
        outside the cone, row the `int` vector vol e_b - sum_k (A v_b)_k
        e_{cs[k]} in Z^S of its chart (cs, A, vol).  For heights c in Q^S,
        row . c = vol (c_b - m_sigma(b)), m_sigma the linear function that
        agrees with c on the cone's rays."""
        if self._circuit_table is None:
            self._circuit_table = []
            for cs, A, vol in self._charts():
                rows = {}
                for b in range(len(self.S)):
                    if b in cs:
                        continue
                    row = [0] * len(self.S)
                    row[b] = vol
                    for i, a in zip(cs, A):
                        row[i] = -idot(a, self.ray_free(b))
                    rows[b] = tuple(row)
                self._circuit_table.append(rows)
        return self._circuit_table

    # -- validation --------------------------------------------------------
    def _validate(self, heights=None):
        """Structural checks, the cover check, then strict convexity.

        Convexity is certified by heights (the caller's, or the wall LP's)
        that pass the global `_heights_certify`.  On a genuine fan with
        convex support, heights convex across every interior wall are convex
        globally, so the wall LP finds a certificate whenever one exists.
        A passing certificate also makes every two maximal cones meet in
        their common face, so the pairwise face check runs only when
        certification fails, to tell a non-fan (SupportMismatch) from a fan
        without a strictly convex support function."""
        n = self.n
        for c in self.max_cones:
            for i in c:
                if i < 0 or i >= len(self.S):
                    raise errors.RayNotInS(f"ray index {i} outside S")
        if not self.max_cones:
            raise errors.SupportMismatch("no maximal cones")
        dirs = {}
        for i in self.rays:
            d = primitive(self.ray_free(i))
            if d in dirs:
                raise errors.NonSimplicial(
                    f"rays {dirs[d]} and {i} span the same 1-cone")
            dirs[d] = i
        for c in self.max_cones:
            # a full-size cone is simplicial iff its chart's elimination
            # finds a pivot in every column
            if len(c) == n:
                simplicial = self.vector_set.chart(c) is not None
            else:
                simplicial = rank([self.ray_free(i) for i in c]) == len(c)
            if not simplicial:
                raise errors.NonSimplicial(f"cone {sorted(c)} is not simplicial")
            if len(c) != n:
                # Pi is full-dimensional, so lower-dimensional maximal cones
                # can never cover it
                raise errors.SupportMismatch(
                    f"maximal cone {sorted(c)} has dimension {len(c)} < {n}")
        walls = self._check_cover()
        if heights is None:
            heights = self._wall_heights(walls)
        if heights is None or not self._heights_certify(heights):
            self._check_pairwise_faces()
            raise errors.NoConvexSupportFunction(
                "no strictly convex piecewise linear support function")

    def _check_pairwise_faces(self):
        geom = [Cone.from_rays([self.ray_free(i) for i in c], self.n)
                for c in self.max_cones]
        for a in range(len(self.max_cones)):
            for b in range(a + 1, len(self.max_cones)):
                common = self.max_cones[a] & self.max_cones[b]
                inter = geom[a].intersection(geom[b])
                if common:
                    expect = Cone.from_rays([self.ray_free(i) for i in common],
                                            self.n)
                    if inter != expect:
                        raise errors.SupportMismatch(
                            f"cones {sorted(self.max_cones[a])} and "
                            f"{sorted(self.max_cones[b])} do not meet in a face")
                elif inter.dim() != 0:
                    raise errors.SupportMismatch(
                        f"cones {sorted(self.max_cones[a])} and "
                        f"{sorted(self.max_cones[b])} overlap")

    def _check_cover(self):
        """Check that the facets close up over the support, and return the
        interior walls as pairs (cone index, ray of the neighbouring cone
        outside it)."""
        facets = {}
        for ci, (cs, A, _) in enumerate(self._charts()):
            for drop in self.max_cones[ci]:
                h = primitive(A[cs.index(drop)])
                key = self.max_cones[ci] - {drop}
                facets.setdefault(key, []).append((ci, drop, h))
        walls = []
        for key, occ in facets.items():
            if len(occ) == 1:
                _, _, h = occ[0]
                if not all(idot(h, b.free) >= 0 for b in self.S):
                    raise errors.SupportMismatch(
                        "boundary facet not supporting Pi: union of cones "
                        "does not equal the support")
            elif len(occ) == 2:
                (c1, _, h1), (c2, q, h2) = occ
                if h1 != tuple(-x for x in h2):
                    raise errors.SupportMismatch(
                        f"cones {c1} and {c2} lie on the same side of a wall")
                walls.append((c1, q))
            else:
                raise errors.SupportMismatch("facet shared by more than two cones")
        return walls

    def _wall_heights(self, walls):
        """`int` heights in Z^S strictly convex across every interior wall,
        from an exact LP in the ray heights, or None if there are none.  The
        wall between sigma and its neighbour through ray q gives one circuit
        row of `circuits`, a positive multiple of c_q - sum_{i in sigma}
        mu_i c_i > 0, where v_q = sum mu_i v_i."""
        c = [0] * len(self.S)
        if not walls:
            return c        # a single cone
        circuits = self.circuits()
        rows = [[circuits[si][q][b] for b in self.rays] for si, q in walls]
        ok, x = feasible_strict(rows)
        if not ok:
            return None
        for b, xb in zip(self.rays, x):
            c[b] = xb
        return c

    def _heights_certify(self, heights):
        """Whether c = `heights` in Q^S is strictly convex on the fan: for
        each maximal cone sigma, c_b - m_sigma(b) > 0 for every ray b outside
        sigma, where m_sigma is the linear function agreeing with c on sigma.
        This is the only convexity certificate; entries of c off the rays
        are ignored.  Each test reads the sign of a circuit row on c, a
        positive multiple of c_b - m_sigma(b), in the entries' own type."""
        if len(heights) != len(self.S):
            raise ValueError(f"{len(heights)} heights for {len(self.S)} "
                             f"vectors")
        return all(idot(circuits[b], heights) > 0
                   for circuits in self.circuits()
                   for b in self.rays if b in circuits)

    # -- Box and dimensions -------------------------------------------------
    def _box_points(self, cone_idx):
        """(pt, u) per lattice point of one maximal cone's half-open
        parallelepiped, walked by `parallelepiped_units` from the chart
        inverse: pt the point in `int`, u its ray coordinates in units of
        1/vol.  VolumeBoxMismatch unless every point is integral and there
        are vol of them; TooLarge, before the walk, when the cone's index
        (vol times the torsion order, the Box's size) exceeds MAX_BOX_INDEX."""
        c, A, vol = self._charts()[cone_idx]
        index = vol * self.lattice.torsion_order
        if index > MAX_BOX_INDEX:
            raise errors.TooLarge(f"cone {c}: index {index} exceeds the Box "
                                  f"budget {MAX_BOX_INDEX}")
        B = [[self.S[i].free[j] for i in c] for j in range(self.n)]   # columns = rays
        pts = []
        for u in parallelepiped_units(A, vol):
            pt = [sum(b * k for b, k in zip(row, u)) for row in B]
            if any(x % vol for x in pt):
                raise errors.VolumeBoxMismatch("non-integral box point")
            pts.append((tuple(x // vol for x in pt), u))
        if len(pts) != vol:
            t = self.lattice.torsion_order
            raise errors.VolumeBoxMismatch(f"cone {c}: {t * len(pts)} box "
                                           f"points, determinant predicts {t * vol}")
        return pts

    def box_elements(self):
        """Deduplicated Box(Sigma) with ages; includes v = 0 with age 0.
        Box(sigma) is the group B^-1 Z^n / Z^n, read in ray coordinates in
        [0,1)^n: the points of `_box_points`, each with every torsion lift."""
        seen = {}
        for ci, (_, _, vol) in enumerate(self._charts()):
            for pt, u in self._box_points(ci):
                age = Fraction(sum(u), vol)
                for torp in self.lattice.torsion_elements():
                    key = self.lattice.element(pt, torp)
                    if key not in seen:
                        seen[key] = BoxElement(key, age)
                    elif seen[key].age != age:
                        raise errors.VolumeBoxMismatch(
                            f"age mismatch for {key}: {seen[key].age} vs {age}")
        return [seen[k] for k in sorted(seen)]

    def dim_orbifold_cohomology(self) -> int:
        """|N_tor| x sum of normalized cone volumes, cross-checked against the
        per-sector Box count.  A cone's count depends on S and the cone
        alone, so its walk and checks (`_box_points`) run once per vector
        set, which keeps the count (`VectorSet.box_counts`)."""
        total = self.lattice.torsion_order * self.fan_polytope_volume()
        counts = self.vector_set.box_counts
        for ci, c in enumerate(self.max_cones):
            if c not in counts:
                counts[c] = len(self._box_points(ci))
        sector = self.lattice.torsion_order * sum(
            counts[c] for c in self.max_cones)
        if sector != total:
            raise errors.VolumeBoxMismatch(
                f"box-sector count {sector} != volume count {total}")
        return total

    # -- Psi ----------------------------------------------------------------
    def psi(self, v):
        """Psi^Sigma(v) in Q^S for v with free image inside the support."""
        v = as_element(self.lattice, v)
        found = self.locate(v.free)
        if found is None:
            raise errors.OutsideSupport(
                f"{v} is not in the support of the fan")
        out = [Fraction(0)] * len(self.S)
        for i, x in zip(*found):
            out[i] = x
        return tuple(out)

    # -- PL lattices and Mori cones ------------------------------------------
    def pl_lattice(self):
        """Basis of PL_Z(Sigma) inside (Z^S)*.

        The rows span PL_Z(Sigma), but they are the raw integer kernel of
        the integrality conditions, not a normal form: a reader that needs
        one canonical basis passes them through `lattice_from_generators`."""
        if self._plz is not None:
            return self._plz
        m = len(self.S)
        conds = []
        for cs, A, vol in self._charts():
            # m_sigma(c) = B^-T c|_cs = A^T c|_cs / vol; integrality of all
            # n coordinates
            for i in range(self.n):
                row = [0] * m
                for k, b in enumerate(cs):
                    row[b] = A[k][i]
                conds.append((row, vol))
        self._plz = preimage_lattice(conds)
        return self._plz

    def plq_lattice(self):
        """Basis of pl_Z(Sigma) = PL_Z/M inside L^* (kernel-dual coords)."""
        L = self.kernel_basis()
        if not L:
            return []
        plz = self.pl_lattice()
        imgs = []
        for c in plz:
            img = tuple(idot(row, c) for row in L)
            if any(img):
                imgs.append(img)
        return lattice_from_generators(imgs)

    def big_lambda_lattice(self):
        """Basis of Lambda(Sigma) = pl_Z(Sigma)^* in L_Q (kernel-basis coords)."""
        plq = self.plq_lattice()
        if not plq:
            return []
        return dual_lattice(plq)

    def open_mori_cone(self):
        """OE^(X_Sigma) as a cone in Q^S (sum of the per-cone preimages)."""
        m = len(self.S)
        gens = []
        for c, circuits in zip(self.max_cones, self.circuits()):
            gens.extend(tuple(int(i == b) for i in range(m)) for b in c)
            # e_b minus the (possibly signed) expansion of b over the cone
            # basis, up to the positive factor vol
            gens.extend(circuits.values())
        return Cone.from_rays(gens, m)

    def extended_mori_cone(self):
        """NE^(X_Sigma) in L_R, in kernel-basis coordinates."""
        oe = self.open_mori_cone()
        m = len(self.S)
        Bbar = [tuple(self.S[b].free[i] for b in range(m)) for i in range(self.n)]
        sub = Cone.from_inequalities(list(oe.inequalities),
                                     list(oe.equalities) + Bbar,
                                     m)
        # express rays in kernel-basis coordinates
        L = self.kernel_basis()
        Lt = [tuple(row[j] for row in L) for j in range(m)]
        out = []
        for r in sub.rays:
            coeff = solve(Lt, r)
            out.append(tuple(coeff))
        return Cone.from_rays(out, len(L))

    def mori_monoid_generators(self):
        """Hilbert-basis generators of Lambda(Sigma)_+ (kernel coords)."""
        ne = self.extended_mori_cone()
        lam = self.big_lambda_lattice()
        if not ne.rays:
            return []
        return hilbert_basis(ne, lam)

    def open_monoid_generators(self):
        """Hilbert-basis generators of the torsion-free part of O(Sigma)_+
        as vectors in Q^S."""
        oe = self.open_mori_cone()
        plz = self.pl_lattice()
        obar = dual_lattice(plz)
        return hilbert_basis(oe, obar)

    # -- misc ---------------------------------------------------------------
    def is_smooth(self) -> bool:
        if self.lattice.torsion:
            return False
        return all(vol == 1 for _, _, vol in self._charts())

    def is_complete(self) -> bool:
        sup = self.vector_set.support_cone
        return len(sup.lineality) == self.n

    def fan_polytope_volume(self):
        return sum(vol for _, _, vol in self._charts())

    def key(self):
        return cones_key(self.max_cones)

    def __repr__(self):
        cones = [sorted(c) for c in self.max_cones]
        return f"StackyFan(rays={self.rays}, cones={cones})"

