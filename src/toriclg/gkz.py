"""GKZ-type relations annihilating the chart module generators: operator
construction as factor lists, exact action on the monomial module, principal
symbols, the constructive characteristic-variety check at the large radius
limit, and the rank-equals-volume cross-check against the critical-point
solver."""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import errors
from .cones import normalized_volume, polytope_facets
from .fans import StackyFan
from .lattice import NElt, as_element
from .rational import dot, idot, nullspace, rank, solve, transpose


class GKZOperator:
    """P_{v, lambda}: a product of first-order factors minus q^lambda times
    another product.

    Factors are stored as (b, kappa) meaning z D_b q d/dq + chi(b) - kappa z;
    the splitting e_b^* = D_b-hat + chi(b) is recorded for printing only (the
    module action never needs it)."""

    def __init__(self, fan: StackyFan, v, lam, pos_factors, neg_factors,
                 splitting):
        self.fan = fan
        self.v = v
        self.lam = tuple(int(x) for x in lam)
        self.pos_factors = pos_factors
        self.neg_factors = neg_factors
        self.splitting = splitting

    def pretty(self):
        def chi_term(chi):
            bits = []
            for i, c in enumerate(chi):
                if c == 0:
                    continue
                if c == 1:
                    bits.append(f"+chi{i + 1}")
                elif c == -1:
                    bits.append(f"-chi{i + 1}")
                else:
                    bits.append(f"{'+' if c > 0 else '-'}{abs(c)}*chi{i + 1}")
            return "".join(bits)

        def side(factors):
            if not factors:
                return "1"
            parts = []
            for b, kappa in factors:
                s = f"z*D{b}qdq" + chi_term(self.splitting[b])
                if kappa:
                    s += f"-{kappa}*z" if kappa > 0 else f"+{-kappa}*z"
                parts.append(f"({s})")
            return "".join(parts)
        lam_str = ",".join(str(x) for x in self.lam)
        return f"{side(self.pos_factors)} - q^({lam_str})*{side(self.neg_factors)}"

    # -- module action -------------------------------------------------------
    def _apply_factor(self, state, b, kappa):
        """Apply z D_b q d/dq + chi(b) - kappa z to a module element
        {(v, mu): poly-in-z} where mu in Q^S tracks the q-monomial."""
        fan = self.fan
        lat = fan.lattice
        out = {}

        def add(key, zpoly):
            cur = out.setdefault(key, {})
            for d, c in zpoly.items():
                cur[d] = cur.get(d, Fraction(0)) + c
                if cur[d] == 0:
                    del cur[d]
            if not cur:
                del out[key]
        for (vv, mu), zpoly in state.items():
            v_elt = NElt(*vv)
            psi_v = fan.psi(v_elt)
            # diagonal part: z * (mu_b + Psi_b(v) - kappa)
            coef = mu[b] + psi_v[b] - kappa
            if coef != 0:
                add((vv, mu), {d + 1: c * coef for d, c in zpoly.items()})
            # shift part: u_b w_v = q^{Psi(v)+e_b-Psi(v+b)} w_{v+b}
            vb = v_elt.add(fan.S[b], lat)
            psi_vb = fan.psi(vb)
            mu2 = list(mu)
            for i in range(len(mu2)):
                mu2[i] += psi_v[i] - psi_vb[i]
            mu2[b] += 1
            add(((vb.free, vb.tor), tuple(mu2)), dict(zpoly))
        return out

    def apply_to_generator(self):
        """P . w_v as a module element; zero iff the relation annihilates."""
        fan = self.fan
        v = self.v

        def base():
            return {((v.free, v.tor), tuple(Fraction(0) for _ in fan.S)):
                    {0: Fraction(1)}}
        left = base()
        for b, kappa in self.pos_factors:
            left = self._apply_factor(left, b, kappa)
        right = base()
        for b, kappa in self.neg_factors:
            right = self._apply_factor(right, b, kappa)
        # multiply right by q^lambda and subtract
        out = {k: dict(z) for k, z in left.items()}
        for (vv, mu), zpoly in right.items():
            key = (vv, tuple(m + l for m, l in zip(mu, self.lam)))
            cur = out.setdefault(key, {})
            for d, c in list(zpoly.items()):
                cur[d] = cur.get(d, Fraction(0)) - c
                if cur[d] == 0:
                    del cur[d]
            if not cur:
                del out[key]
        return out

    def annihilates(self) -> bool:
        return not self.apply_to_generator()

    # -- principal symbol ----------------------------------------------------
    def principal_symbol(self):
        """The three-case symbol as a polynomial in xi (coordinates dual to
        the kernel basis of L).  Returns (case, poly) with poly a dict
        {xi exponent tuple: coefficient}; in the balanced case the
        coefficient of the q^lambda side carries a 'q' flag via sign
        bookkeeping: poly = pos_product - q^lam * neg_product is returned as
        (pos_poly, neg_poly)."""
        fan = self.fan
        D = fan.divisor_images()
        r = len(fan.kernel_basis())
        total = sum(self.lam)

        def product(factors):
            poly = {(0,) * r: Fraction(1)}
            for b, _ in factors:
                lf = D[b]
                new = {}
                for e, c in poly.items():
                    for i in range(r):
                        if lf[i] == 0:
                            continue
                        e2 = list(e)
                        e2[i] += 1
                        k = tuple(e2)
                        new[k] = new.get(k, Fraction(0)) + c * lf[i]
                poly = new
            return poly
        if total > 0:
            return "positive", (product(self.pos_factors), {})
        if total < 0:
            return "negative", ({}, product(self.neg_factors))
        return "balanced", (product(self.pos_factors),
                            product(self.neg_factors))


def _default_splitting(fan: StackyFan):
    """chi(b) in M_Q from a fixed section of the divisor sequence: D-hat
    maps into the span of the first column subset on which D is invertible,
    and chi(b) = e_b^* - D-hat(D_b) lands in ker(D) = M."""
    m = len(fan.S)
    r = len(fan.kernel_basis())
    srows = [b.free for b in fan.S]
    cols = fan.divisor_images()
    J = next(combo for combo in itertools.combinations(range(m), r)
             if rank([cols[b] for b in combo]) == r)
    out = {}
    for b in range(m):
        coeff = solve(transpose([cols[j] for j in J]), cols[b])
        row = [Fraction(0)] * m
        row[b] = Fraction(1)
        for cj, j in zip(coeff, J):
            row[j] -= cj
        # express the functional on N through its values on the images of S
        out[b] = solve(srows, row)
    return out


def gkz_relation(fan: StackyFan, v, lam) -> GKZOperator:
    """The relation P_{v,lambda} for lambda in L cap NE^(X); factor counts
    per ray follow the positive/negative parts of lambda."""
    lat = fan.lattice
    v = as_element(lat, v)
    lam = [int(x) for x in lam]
    L = fan.kernel_basis()
    # membership: lam in L and in NE^
    if L:
        coeff = solve(fan.divisor_images(), lam)
        if coeff is None or any(x.denominator != 1 for x in coeff):
            raise errors.NotInMoriCone("lambda is not in L")
        ne = fan.extended_mori_cone()
        if not ne.contains(coeff):
            raise errors.NotInMoriCone("lambda is not in the extended Mori cone")
    elif any(lam):
        raise errors.NotInMoriCone("L = 0 admits only lambda = 0")
    psi_v = fan.psi(v)
    pos, neg = [], []
    for b, lb in enumerate(lam):
        for c in range(abs(lb)):
            (pos if lb > 0 else neg).append((b, psi_v[b] + c))
    return GKZOperator(fan, v, lam, pos, neg, _default_splitting(fan))


def char_variety_at_limit(fan: StackyFan):
    """Constructive check that the principal symbols force xi = 0 at the
    large radius limit; returns (ok, witness) where a witness is a nonzero
    xi surviving all symbols."""
    if not weak_fano(fan):
        raise errors.NotWeakFano("chart is not weak Fano (S not inside Delta)")
    D = fan.divisor_images()
    m = len(fan.S)
    r = len(fan.kernel_basis())
    if r == 0:
        return True, None
    for size in range(1, m + 1):
        for T in itertools.combinations(range(m), size):
            # V_T = {xi : D_b(xi) = 0 for b off T}
            rows = [D[b] for b in range(m) if b not in T]
            ker = nullspace(rows, r)
            if not ker:
                continue
            # T realizable as an exact support: no b in T with D_b
            # identically zero on V_T
            if any(all(dot(D[b], k) == 0 for k in ker) for b in T):
                continue
            # relation from centroid(T) = sum f_b b over its cone's rays
            target = [Fraction(0)] * fan.n
            for b in T:
                for i in range(fan.n):
                    target[i] += Fraction(fan.S[b].free[i], len(T))
            lam = _relation_lambda(fan, T, tuple(target))
            if lam is not None and any(lam):
                continue    # the symbol of P_lambda kills this stratum
            # lam = 0 forces T = R cap sigma; since V_T != 0 the
            # complementary divisor classes fail to span: genuine witness
            witness = _generic_kernel_vector(ker, [D[b] for b in T])
            return False, witness
    return True, None


def _generic_kernel_vector(ker, forms):
    """A vector in span(ker) on which every form is nonzero."""
    for wgt in itertools.product(range(1, len(ker) + 2), repeat=len(ker)):
        cand = [Fraction(0)] * len(ker[0])
        for w, k in zip(wgt, ker):
            for i in range(len(cand)):
                cand[i] += w * k[i]
        if all(dot(f, cand) != 0 for f in forms):
            return tuple(cand)
    return tuple(ker[0])


def _relation_lambda(fan: StackyFan, T, target):
    """lambda in L cap NE^ built from centroid(T) = sum f_b b over the rays
    of the containing cone; returns integer vector or None."""
    found = fan.locate(target)
    if found is None:
        return None
    lam = [Fraction(0)] * len(fan.S)
    for b in T:
        lam[b] += Fraction(1, len(T))
    for i, x in zip(*found):
        lam[i] -= x
    den = math.lcm(*(x.denominator for x in lam))
    return tuple(int(x * den) for x in lam)


def weak_fano(fan: StackyFan) -> bool:
    """S inside the fan polytope and the fan polytope convex (the cone
    simplices tile their convex hull)."""
    hull_pts = [fan.S[i].free for i in fan.rays] + [(0,) * fan.n]
    facets = polytope_facets(hull_pts)
    if normalized_volume(hull_pts, facets) != fan.fan_polytope_volume():
        return False
    return all(idot(a, b.free) <= a0 for b in fan.S for a, a0, _ in facets)


def generic_rank_check(fan: StackyFan, rng=None):
    """Critical count at a generic chart parameter against
    |N_tor| x vol(Delta); raises RankMismatch on disagreement."""
    from .lg import LGPotential, critical_points
    if not weak_fano(fan):
        raise errors.NotWeakFano("rank law requires a weak Fano chart")
    if rng is None:
        import numpy as np
        rng = np.random.default_rng(123)
    expected = fan.lattice.torsion_order * fan.fan_polytope_volume()
    m = len(fan.S)
    compact = fan.is_complete()
    coeffs = [_random_coeff(rng) for _ in range(m)]
    chi = None
    if not compact:
        chi = [complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
               for _ in range(fan.n)]
    F = LGPotential([tuple(b.free) for b in fan.S], coeffs, chi=chi,
                    torsion_parts=[tuple(b.tor) for b in fan.S],
                    torsion_invariants=fan.lattice.torsion)
    try:
        pts = critical_points(F, expected=expected, rng=rng)
    except errors.IncompleteCount as exc:
        raise errors.RankMismatch(str(exc))
    if len(pts) != expected:
        raise errors.RankMismatch(
            f"{len(pts)} critical points vs |N_tor| vol(Delta) = {expected}")
    return {"expected": expected, "found": expected}


def _random_coeff(rng):
    import cmath
    return cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * rng.uniform(0.6, 1.6)
