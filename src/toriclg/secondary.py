"""Secondary (GKZ) fan machinery: chamber enumeration of stacky fans adapted
to S, CPL/cpl cone data with integral structures, wall detection and
classification, and the toric-curve chart attached to a wall with the
closed-form critical values over it."""
from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

from . import errors
from .cones import Cone, dual_description
from .fans import StackyFan, cones_key
from .lattice import VectorSet
from .rational import (dot, idot, in_lattice, primitive, solve, transpose,
                       vec)

MAX_S_FOR_ENUMERATION = 12
# chambers x complement-table rows a walk may reach: each chamber scans the
# table once per facet, so this product, not the chamber count alone, tracks
# the walk's time across ranks
MAX_CHAMBER_ROWS = 5 * 10 ** 5
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


def _fan_from_stability(vector_set: VectorSet, p, g, built):
    """Stacky fan of the chamber that holds p - eps g for every small
    eps > 0 (for g = 0, the chamber of a generic GIT parameter p in L^*_Q).

    Maximal cones are the n-subsets I whose complement {D_b : b not in I} is
    a basis of L^*_Q with p - eps g = sum_b lam_b D_b, every lam_b > 0;
    `VectorSet.complements` holds adj = |det M_I| M_I^-1, so lam is a
    positive multiple of adj (p - eps g): every row needs row.p > 0, or
    row.p = 0 and row.g < 0.  On the selected rows, w = N p - g has those
    signs once N > row.g / row.p wherever row.p > 0.  The first selected
    lam = adj w, extended by 0 on I, is a height vector c lifting w; for
    any other selected sigma, c - lam^sigma is linear, so c_b - m_sigma(b)
    = lam^sigma_b > 0 off sigma, and c certifies strict convexity without
    an LP.

    The signs are tested in `int`: p and g are scaled by the common
    denominator of their entries, which changes no sign, and the heights
    are the `int` entries of adj w.

    `built` maps `cones_key` to the fans already validated (None when
    rejected); a known selection is returned from it without rebuilding.
    Returns None when p - eps g does not select a valid simplicial fan.
    """
    den = math.lcm(*(x.denominator for x in (*p, *g)))
    p, g = ([x.numerator * (den // x.denominator) for x in v] for v in (p, g))
    selected = [(I, rest, adj)
                for I, (rest, adj) in vector_set.complements().items()
                if all((v := idot(row, p)) > 0 or v == 0 and idot(row, g) < 0
                       for row in adj)]
    if not selected:
        return None
    key = cones_key(I for I, _, _ in selected)
    if key not in built:
        N = 1 + max([0] + [idot(row, g) // v for _, _, adj in selected
                           for row in adj if (v := idot(row, p)) > 0])
        w = [N * a - b for a, b in zip(p, g)]
        _, rest, adj = selected[0]
        heights = [0] * len(vector_set.vectors)
        for b, row in zip(rest, adj):
            heights[b] = idot(row, w)
        try:
            built[key] = StackyFan(vector_set, [I for I, _, _ in selected],
                                   heights=heights)
        except errors.ToricLGError:
            built[key] = None
    return built[key]


def enumerate_adapted_fans(vector_set: VectorSet):
    """All stacky fans adapted to S, via breadth-first chamber traversal of
    the secondary fan.  Returns (fans, walls), walls a list of (a, b, g)
    with fan indices a < b and g the primitive facet normal of cpl(fans[a])
    on their shared facet, in L^* coordinates: g >= 0 on cpl(fans[a]) and
    g <= 0 on cpl(fans[b]).

    The neighbour across a facet with normal g and ray sum p is the
    chamber holding p - eps g for every small eps > 0, which
    `_fan_from_stability` reads off the complement table exactly.  Each
    chamber scans that table once per facet, so the walk stops with
    `TooLarge` once chambers x complement rows pass `MAX_CHAMBER_ROWS`.
    """
    S = vector_set.vectors
    if len(S) > MAX_S_FOR_ENUMERATION:
        raise errors.TooLarge(f"|S| = {len(S)} exceeds enumeration bound "
                              f"{MAX_S_FOR_ENUMERATION}")
    L, D = vector_set.sequences()
    r = len(L)
    if r == 0:
        # L = 0 forces S to be a basis of N_Q: a single chamber
        return [StackyFan(vector_set, [frozenset(range(len(S)))])], []
    import random
    rng = random.Random(20200422)
    built = {}
    for _ in range(200):
        omega = tuple(sum(rng.randint(1, 97) * D[b][j] for b in range(len(S)))
                      for j in range(r))
        start = _fan_from_stability(vector_set, omega, (0,) * r, built)
        if start is not None:
            break
    else:
        raise errors.TooLarge("failed to locate an initial chamber")
    rows = sum(len(adj) for _, adj in vector_set.complements().values())
    fans = [start]
    seen = {start.key(): 0}
    walls = []
    wall_pairs = set()
    # `fans` grows as the walk finds chambers: the loop is the BFS queue
    for fi, fan in enumerate(fans):
        cpl = pl_cone_data(fan).cpl
        for g in cpl.inequalities:
            # boundary facet of the support: no neighbour
            if all(idot(g, d) >= 0 for d in D):
                continue
            # ray sum of the facet (the origin when the facet is {0})
            face = [rr for rr in cpl.rays if idot(g, rr) == 0]
            p = tuple(map(sum, zip((0,) * r, *face)))
            neighbour = _fan_from_stability(vector_set, p, g, built)
            if neighbour is None:
                raise errors.VerificationFailed(
                    f"chamber {fi}: the chamber across its facet g = "
                    f"{list(g)} is no valid fan")
            key = neighbour.key()
            if key not in seen:
                if (len(fans) + 1) * rows > MAX_CHAMBER_ROWS:
                    raise errors.TooLarge(
                        f"|S| = {len(S)}: {len(fans) + 1} chambers reached "
                        f"x {rows} complement rows exceeds the chamber "
                        f"budget {MAX_CHAMBER_ROWS}")
                seen[key] = len(fans)
                fans.append(neighbour)
            pair = tuple(sorted((fi, seen[key])))
            if pair not in wall_pairs:
                wall_pairs.add(pair)
                walls.append((*pair, g))
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
        coeff = solve(self.wall.plus_fan.divisor_images(), vec(diff))
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


def curve_critical_values(wall, t):
    """Critical values over the wall curve at the normalized curve parameter
    t: the 0-branch with the orbifold-cohomology multiplicity of the minus
    side, plus the J nonzero values J*gamma with gamma^J = -1/(K t).

    For contraction (II-i) and root (III) walls t is the chart coordinate
    q^{-w} of the minus side.  For extraction (II-ii) walls t is the
    rescaled coordinate -(-1)^(J+k) q^{-w} / prod_{b in M-} k_b^{k_b} with k
    the weight of the single plus ray; crepant walls are rejected.
    """
    if wall.kind == "crepant":
        raise errors.NotAdjacent("curve values require nonzero discrepancy")
    if wall.kind == "flip":
        raise errors.NotAdjacent("flip walls carry no morphism data")
    J = wall.discrepancy
    K = wall.K
    mult0 = wall.minus_fan.dim_orbifold_cohomology()
    out = [(0j, mult0)]
    if t == 0:
        return out
    base = -1.0 / (K * complex(t))
    r = abs(base) ** (1.0 / J)
    theta = cmath.phase(base)
    for m in range(J):
        gamma = r * cmath.exp(1j * (theta + 2 * math.pi * m) / J)
        out.append((J * gamma, 1))
    return out


def extraction_parameter(wall, q_minus_chart_value):
    """Normalized curve parameter for an extraction (II-ii) wall, from the
    minus-chart coordinate value q^{-w}."""
    if wall.kind != "extract_divisor":
        raise errors.NotAdjacent("only extraction walls need rescaling")
    kplus = wall.k[wall.M_plus[0]]
    prod = 1
    for b in wall.M_minus:
        kb = -wall.k[b]
        prod *= kb ** kb
    sign = -((-1) ** (wall.J + kplus))
    return sign * complex(q_minus_chart_value) / prod


def sigma0_max_cones(wall: WallCrossing):
    """Maximal cones of the possibly-degenerate common coarsening Sigma_0,
    as (index set, Cone) pairs.

    Its cells are the maximal I whose angle cone(D_b : b not in I) holds a
    relative interior point p0 of the shared wall face in its relative
    interior.  With heights c lifting p0 (sum_b c_b D_b = p0), a maximal
    cone sigma of the plus fan has circuit rows row . c = vol lam_b, lam the
    coefficients of p0 on {D_b : b not in sigma}; so its cell is sigma with
    every b whose circuit row vanishes on c (Gelfand-Kapranov-Zelevinsky
    1994, ch. 7).
    """
    fan = wall.plus_fan
    face = pl_cone_data(fan).cpl.intersection(pl_cone_data(wall.minus_fan).cpl)
    p0 = face.relint_point()
    D = fan.divisor_images()
    c = solve([[d[j] for d in D] for j in range(len(p0))], p0)
    cells = {}
    for sigma, circuits in zip(fan.max_cones, fan.circuits()):
        cells.setdefault(sigma | {b for b, row in circuits.items()
                                  if dot(row, c) == 0})
    return [(I, Cone.from_rays([fan.ray_free(i) for i in sorted(I)], fan.n))
            for I in cells]
