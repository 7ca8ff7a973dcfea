"""Secondary (GKZ) fan machinery: chamber enumeration of stacky fans adapted
to S, CPL/cpl cone data with integral structures, wall detection and
classification, and the toric-curve chart attached to a wall."""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import errors
from .cones import Cone, dual_description
from .fans import StackyFan, cones_key
from .lattice import VectorSet
from .rational import idot, in_lattice, primitive, solve, transpose, vec

MAX_S_FOR_ENUMERATION = 12
# a wall's weights k_b = D_b . w enter K as k_b^k_b and J as their sum
MAX_WALL_WEIGHT = 10 ** 3


class PLConeData:
    """The chamber cpl(Sigma) in L^*_Q, and the CPL_+(Sigma) and pl_Z(Sigma)
    data of the fan, each built on first read.

    cpl(Sigma) is the intersection over maximal cones sigma of
    cone(D_b : b not in sigma) (Gelfand-Kapranov-Zelevinsky 1994, ch. 7;
    Billera-Filliman-Sturmfels 1990).  Each of those cones is simplicial in
    rank dimensions, with the rows of its complement inverse in
    `VectorSet.complements` as its facet normals, so cpl takes one
    rank-dimensional double description.  It is rebuilt from its sorted
    rays: `inequalities` are then irredundant, and their order depends only
    on the chamber.  `cpl_plus` is the
    m-dimensional cone of nonnegative convex heights whose image under
    c -> sum_b c_b D_b is cpl; it is the oracle of the direct construction.
    """

    def __init__(self, fan: StackyFan):
        self.fan = fan
        self.rank = len(fan.kernel_basis())
        self.cpl = None
        self._cpl_plus = None
        self._plq_lattice = None
        if self.rank:
            table = fan.vector_set.complements()
            normals = {}
            for c in fan.max_cones:
                for row in table[c][1]:
                    normals.setdefault(primitive(row))
            rays, _ = dual_description(list(normals), [], self.rank)
            if rays:
                self.cpl = Cone.from_rays(sorted(rays), self.rank)

    @property
    def cpl_plus(self):
        """CPL_+(Sigma) in Q^S: c >= 0 and, for each maximal cone sigma and
        b outside it, c_b >= m_sigma(c)(b)."""
        if self._cpl_plus is None:
            m = len(self.fan.S)
            ineqs = [tuple(int(i == b) for i in range(m)) for b in range(m)]
            # c_b - m_sigma(c)(b) >= 0, up to the positive factor vol
            for circuits in self.fan.circuits():
                ineqs.extend(circuits.values())
            self._cpl_plus = Cone.from_inequalities(ineqs, ambient_dim=m)
        return self._cpl_plus

    @property
    def plq_lattice(self):
        """Basis of pl_Z(Sigma) in L^* (kernel-dual coordinates)."""
        if self._plq_lattice is None:
            self._plq_lattice = self.fan.plq_lattice()
        return self._plq_lattice

    def daleth_membership(self, xi) -> bool:
        """xi in cpl(Sigma) cap daleth (chamber-restricted integral structure)."""
        if self.cpl is None:
            return all(x == 0 for x in xi)
        return self.cpl.contains(xi) and in_lattice(xi, self.plq_lattice)

    def daleth_tilde_membership_up_to_height(self, c, height: int) -> bool:
        """Test c in daleth~ by checking eta_c integrality on lattice points of
        Pi up to the given sup-norm height (certified-up-to-bound check)."""
        c = vec(c)
        if any(x < 0 or x.denominator != 1 for x in c):
            return False
        fan = self.fan
        pts = _lattice_points_in_support(fan, height)
        for v in pts:
            val = _eta_value(fan, c, v)
            if val is None or val.denominator != 1:
                return False
        return True


def _lattice_points_in_support(fan: StackyFan, height: int):
    n = fan.n
    sup = fan.vector_set.support_cone
    out = []
    for pt in itertools.product(range(-height, height + 1), repeat=n):
        if sup.contains(pt):
            out.append(pt)
    return out


def _eta_value(fan: StackyFan, c, v):
    """eta_c(v) for v in the support: value of the slope of the containing cone."""
    found = fan.locate(v)
    if found is None:
        return None
    cs, coeff = found
    return sum((coeff[k] * c[cs[k]] for k in range(len(cs))), Fraction(0))


def pl_cone_data(fan: StackyFan) -> PLConeData:
    """The fan's PLConeData, built on first use and kept on the fan."""
    if fan._pl_cone_data is None:
        fan._pl_cone_data = PLConeData(fan)
    return fan._pl_cone_data


def cpl_cone(fan: StackyFan) -> PLConeData:
    data = pl_cone_data(fan)
    # duality checks against the extended Mori cones (exact, generator level)
    oe = fan.open_mori_cone()
    if data.cpl_plus.dual() != oe:
        raise errors.SupportMismatch("CPL_+^v != OE^: duality violated")
    if data.cpl is not None:
        ne = fan.extended_mori_cone()
        if data.cpl.dual() != ne:
            raise errors.SupportMismatch("cpl^v != NE^: duality violated")
    return data


# ---------------------------------------------------------------------------
# chamber enumeration


def _fan_from_stability(vector_set: VectorSet, omega, built):
    """Stacky fan selected by a generic GIT stability parameter omega in L^*_Q.

    Maximal cones are the n-subsets I whose complement {D_b : b not in I} is
    a basis of L^*_Q with omega = sum_b lam_b D_b, every lam_b > 0 (omega in
    the interior of their cone); `VectorSet.complements` holds adj =
    |det M_I| M_I^-1, so lam = M_I^-1 omega.  The first such lam, extended
    by 0 on I, is a height vector c lifting omega; for any other selected
    sigma, c - lam^sigma is linear, so c_b - m_sigma(b) = lam^sigma_b > 0
    off sigma, and c certifies strict convexity without an LP.

    The signs are tested in `int`: with den the common denominator of omega
    and w = den omega, adj w = |det M_I| den lam, so lam > 0 iff adj w > 0.
    The heights are the `int` entries (adj w)_b, the positive multiple
    |det M_I| den of lam, which certifies convexity as well.

    `built` maps `cones_key` to the fans already validated (None when
    rejected); a known selection is returned from it without rebuilding.
    Returns None when omega is not generic enough to select a valid
    simplicial fan.
    """
    den = math.lcm(*(x.denominator for x in omega))
    w = [x.numerator * (den // x.denominator) for x in omega]
    max_cones = []
    heights = None
    for I, (rest, adj) in vector_set.complements().items():
        if all(idot(row, w) > 0 for row in adj):
            max_cones.append(I)
            if heights is None:
                heights = [0] * len(vector_set.vectors)
                for b, row in zip(rest, adj):
                    heights[b] = idot(row, w)
    if not max_cones:
        return None
    key = cones_key(max_cones)
    if key not in built:
        try:
            built[key] = StackyFan(vector_set, max_cones, heights=heights)
        except errors.ToricLGError:
            built[key] = None
    return built[key]


def enumerate_adapted_fans(vector_set: VectorSet):
    """All stacky fans adapted to S, via breadth-first chamber traversal of
    the secondary fan.  Returns (fans, walls) with walls a list of
    (fan_index_plus_side, fan_index_other, primitive normal in L coords)."""
    S = vector_set.vectors
    if len(S) > MAX_S_FOR_ENUMERATION:
        raise errors.TooLarge(f"|S| = {len(S)} exceeds enumeration bound "
                              f"{MAX_S_FOR_ENUMERATION}")
    L, D = vector_set.sequences()
    r = len(L)
    if r == 0:
        # L = 0 forces S to be a basis of N_Q: a single chamber
        return [StackyFan(vector_set, [frozenset(range(len(S)))])], []
    support = Cone.from_rays(D, r)
    import random
    rng = random.Random(20200422)
    built = {}
    start = None
    for _ in range(200):
        omega = tuple(sum(rng.randint(1, 97) * D[b][j] for b in range(len(S)))
                      for j in range(r))
        fan = _fan_from_stability(vector_set, omega, built)
        if fan is not None:
            data = pl_cone_data(fan)
            if data.cpl is not None and data.cpl.relint_contains(omega):
                start = fan
                break
    if start is None:
        raise errors.TooLarge("failed to locate an initial chamber")
    fans = [start]
    seen = {start.key(): 0}
    walls = []
    queue = [0]
    while queue:
        fi = queue.pop(0)
        cpl = pl_cone_data(fans[fi]).cpl
        for g in cpl.inequalities:
            # facet relint point (the origin when the facet is {0})
            face_rays = [rr for rr in cpl.rays if idot(g, rr) == 0]
            p = (0,) * r
            for rr in face_rays:
                p = tuple(a + b for a, b in zip(p, rr))
            # boundary facet of the support: no neighbour
            if all(idot(g, d) >= 0 for d in D):
                continue
            neighbour = None
            for k in range(1, 64):
                omega = tuple(2 ** k * a - b for a, b in zip(p, g))
                if not support.contains(omega):
                    continue
                cand = _fan_from_stability(vector_set, omega, built)
                if cand is None:
                    continue
                cdata = pl_cone_data(cand)
                if (cdata.cpl is not None and cdata.cpl.relint_contains(omega)
                        and all(cdata.cpl.contains(rr) for rr in face_rays)):
                    # genuine facet neighbour: shares the whole wall face
                    neighbour = cand
                    break
            if neighbour is None:
                raise errors.TooLarge("chamber probe failed near a wall")
            key = neighbour.key()
            if key not in seen:
                seen[key] = len(fans)
                fans.append(neighbour)
                queue.append(seen[key])
            wi = seen[key]
            pair = (min(fi, wi), max(fi, wi))
            if not any((a, b) == pair for a, b, _ in walls):
                walls.append((pair[0], pair[1], g))
    return fans, walls


# ---------------------------------------------------------------------------
# wall crossings


WALL_KINDS = ("flip", "contract_divisor", "extract_divisor", "root", "crepant")


class WallCrossing:
    """A codimension-one wall between two chambers, oriented so that the
    discrepancy sum is nonnegative on the plus side."""

    def __init__(self, plus_fan: StackyFan, minus_fan: StackyFan, w,
                 swapped=False):
        self.plus_fan = plus_fan
        self.minus_fan = minus_fan
        self.w = w
        self.swapped = swapped
        S = plus_fan.S
        lat = plus_fan.lattice
        self.k = [idot(d, w) for d in plus_fan.divisor_images()]
        weight = max(map(abs, self.k))
        if weight > MAX_WALL_WEIGHT:
            raise errors.TooLarge(f"wall normal {list(w)}: weight {weight} "
                                  f"exceeds the budget {MAX_WALL_WEIGHT}")
        self.M_plus = [b for b in range(len(S)) if self.k[b] > 0]
        self.M_minus = [b for b in range(len(S)) if self.k[b] < 0]
        self.discrepancy = sum(self.k)
        # circuit relation sum_b (D_b.w) b = 0, including torsion
        acc = lat.zero()
        for b in range(len(S)):
            if self.k[b]:
                acc = acc.add(S[b].scale(self.k[b], lat), lat)
        if any(acc.free) or any(acc.tor):
            raise errors.NotAdjacent("circuit relation fails for the wall normal")
        self.kind = self._classify()
        self.hat_b = None
        self.J = None
        self.K = None
        if self.kind in ("contract_divisor", "root"):
            acc = lat.zero()
            for b in self.M_plus:
                acc = acc.add(S[b].scale(self.k[b], lat), lat)
            self.hat_b = acc
            self.J = sum(self.k[b] for b in self.M_plus) - 1
            self.K = 1
            for b in self.M_plus:
                self.K *= self.k[b] ** self.k[b]
        elif self.kind == "extract_divisor":
            self.J = self.discrepancy
            b_plus = self.M_plus[0]
            self.hat_b = S[b_plus].scale(self.k[b_plus], lat)
            self.K = self.k[b_plus] ** self.k[b_plus]

    def _classify(self):
        if self.discrepancy == 0:
            return "crepant"
        Rp = set(self.plus_fan.rays)
        Rm = set(self.minus_fan.rays)
        Mp, Mm = set(self.M_plus), set(self.M_minus)
        if Rp == Rm and len(Mp) >= 2 and len(Mm) >= 2:
            return "flip"
        if Rp == Rm | Mm and len(Mm) == 1 and len(Mp) >= 2 and Rm & Mm == set():
            return "contract_divisor"      # type II-i
        if Rm == Rp | Mp and len(Mp) == 1 and len(Mm) >= 2 and Rp & Mp == set():
            return "extract_divisor"       # type II-ii
        if Rp - Rm == Mm and Rm - Rp == Mp and len(Mp) == len(Mm) == 1:
            return "root"                  # type III
        raise errors.NotAdjacent("wall does not match any circuit pattern")


def wall_between(fan_plus: StackyFan, fan_minus: StackyFan) -> WallCrossing:
    """Wall data for two chambers sharing a codimension-one face; the result
    is oriented so that the discrepancy sum_b D_b . w is >= 0 (swapping if
    needed).  The orientation is read before the one `WallCrossing` is
    built: the five wall patterns are closed under the swap, so that build
    raises exactly when the crossing of either orientation would."""
    d1 = pl_cone_data(fan_plus)
    d2 = pl_cone_data(fan_minus)
    if d1.cpl is None or d2.cpl is None:
        raise errors.NotAdjacent("trivial secondary fan has no walls")
    r = d1.rank
    inter = d1.cpl.intersection(d2.cpl)
    if inter.dim() != r - 1:
        raise errors.NotAdjacent("chambers do not share a codimension-one face")
    # primitive normal of the wall hyperplane, nonnegative on cpl(plus)
    from .rational import nullspace
    normals = nullspace([tuple(rr) for rr in inter.rays], r)
    if len(normals) != 1:
        raise errors.NotAdjacent("wall face does not span a hyperplane")
    w = primitive(normals[0])
    if not all(idot(w, rr) >= 0 for rr in d1.cpl.rays):
        w = tuple(-x for x in w)
    if sum(idot(d, w) for d in fan_plus.divisor_images()) < 0:
        return WallCrossing(fan_minus, fan_plus, tuple(-x for x in w),
                            swapped=True)
    return WallCrossing(fan_plus, fan_minus, w)


# ---------------------------------------------------------------------------
# the curve chart of a wall


class CurveChart:
    """Chart data of the toric curve joining the two large radius limit
    points of a wall.

    The two chart coordinates are t_plus = q^(w/e_plus) and
    t_minus = q^(-w/e_minus); they satisfy t_minus^e_minus = t_plus^(-e_plus).
    Products in the restricted algebras A_pm are returned as exponents of
    the corresponding chart coordinate.
    """

    def __init__(self, wall: WallCrossing):
        if wall.kind == "crepant":
            raise errors.NotAdjacent("curve chart requires nonzero discrepancy")
        self.wall = wall
        self.e_plus = self._common_denominator(wall.plus_fan)
        self.e_minus = self._common_denominator(wall.minus_fan)
        self._sigma0_cones = None

    def _common_denominator(self, fan: StackyFan) -> int:
        """Smallest common denominator of {c in Q : c*w in Lambda(fan)}."""
        lam = fan.big_lambda_lattice()
        coeff = solve(transpose(lam), self.wall.w)
        if coeff is None:
            raise errors.NotAdjacent("w not in Lambda_Q")
        # minimal t > 0 with t*coeff integral: t = lcm(denoms)/gcd(numers)
        t = Fraction(math.lcm(*(a.denominator for a in coeff)),
                     math.gcd(*(a.numerator for a in coeff)))
        return t.denominator

    def product_exponent(self, v1, v2, side="plus"):
        """Exponent a with w_{v1} w_{v2} = t_side^a w_{v1+v2}, or None when
        the product vanishes (v1, v2 not in a common cone of Sigma_0)."""
        fan = self.wall.plus_fan if side == "plus" else self.wall.minus_fan
        lat = fan.lattice
        from .lattice import as_element
        v1 = as_element(lat, v1)
        v2 = as_element(lat, v2)
        v12 = v1.add(v2, lat)
        try:
            p1, p2, p12 = fan.psi(v1), fan.psi(v2), fan.psi(v12)
        except errors.OutsideSupport:
            return None
        if self._sigma0_cones is None:
            self._sigma0_cones = sigma0_max_cones(self.wall)
        if not any(cone.contains(v1.free) and cone.contains(v2.free)
                   for _, cone in self._sigma0_cones):
            return None
        diff = tuple(a + b - c for a, b, c in zip(p1, p2, p12))
        return self._as_t_exponent(diff, side)

    def glue_exponent(self, v):
        """Exponent a with w_v^- = q^a_w w_v^+, as a multiple of w."""
        fan_p, fan_m = self.wall.plus_fan, self.wall.minus_fan
        from .lattice import as_element
        v = as_element(fan_p.lattice, v)
        diff = tuple(a - b for a, b in zip(fan_m.psi(v), fan_p.psi(v)))
        return self._as_w_multiple(diff)

    def _as_w_multiple(self, diff):
        L = self.wall.plus_fan.kernel_basis()
        Lt = [tuple(row[j] for row in L) for j in range(len(diff))]
        coeff = solve(Lt, vec(diff))
        if coeff is None:
            raise errors.NotAdjacent("difference not in L_Q")
        wv = self.wall.w
        # coeff = c * w in kernel coordinates
        idx = next(i for i in range(len(wv)) if wv[i] != 0)
        c = coeff[idx] / wv[idx]
        if tuple(c * x for x in wv) != tuple(coeff):
            raise errors.NotAdjacent("difference not proportional to w")
        return c

    def _as_t_exponent(self, diff, side):
        c = self._as_w_multiple(diff)
        if side == "plus":
            return c * self.e_plus
        return -c * self.e_minus


def sigma0_max_cones(wall: WallCrossing):
    """Maximal cones of the possibly-degenerate common coarsening Sigma_0,
    as Cone objects (with their generating index sets).

    I belongs to the index family when the angle spanned by {D_b : b not in
    I} contains the relative interior of the shared wall face; the maximal
    members give the cones of Sigma_0.
    """
    fan = wall.plus_fan
    m = len(fan.S)
    D = fan.divisor_images()
    d1 = pl_cone_data(wall.plus_fan)
    d2 = pl_cone_data(wall.minus_fan)
    face = d1.cpl.intersection(d2.cpl)
    p0 = face.relint_point()
    members = []
    for size in range(m + 1):
        for I in itertools.combinations(range(m), size):
            rest = [D[b] for b in range(m) if b not in I]
            if not rest:
                if all(x == 0 for x in p0):
                    members.append(frozenset(I))
                continue
            cone = Cone.from_rays(rest, d1.rank)
            if cone.relint_contains(p0):
                members.append(frozenset(I))
    maximal = [I for I in members
               if not any(I < J for J in members)]
    out = []
    for I in maximal:
        out.append((I, Cone.from_rays([fan.ray_free(i) for i in sorted(I)],
                                      fan.n)))
    return out
