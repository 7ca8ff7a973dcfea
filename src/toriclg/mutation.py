"""Marked reflection systems: admissible phases, Stokes/Gram matrices,
left and right mutations, and evolution along critical-value trajectories
with ray-crossing detection."""
from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np

from . import errors
from .rational import bilinear, cleared


class MatrixBackend:
    """Abstract pairing: vectors are integer coordinate tuples, the pairing
    is u^T G v for a fixed integer matrix on the initial basis."""

    def __init__(self, gram):
        self.G = [list(map(Fraction, row)) for row in gram]

    def pair(self, u, v):
        return bilinear(u, self.G, v)


class KBackend:
    """Exact Euler pairing on Chern-character vectors flattened over the
    ring basis: u^T X v as a Fraction, read by CohomologyRing.chi, the
    pairing euler_pairing_hrr reads; u and v are cleared to int and the
    Euler form is applied to v (CohomologyRing.euler_image) on each call."""

    def __init__(self, ring):
        self.ring = ring

    def flatten(self, cls):
        return self.ring.flatten(cls)

    def pair(self, u, v):
        ring = self.ring
        return Fraction(*ring.chi(cleared(u), ring.euler_image(cleared(v))))


def admissible(phi, markings) -> bool:
    """Whether e^{i phi} is parallel to no nonzero difference of markings."""
    d = cmath.exp(1j * phi)
    for i in range(len(markings)):
        for j in range(len(markings)):
            if i == j:
                continue
            diff = complex(markings[i]) - complex(markings[j])
            if abs(diff) < 1e-9:
                continue
            cross = (diff / d).imag
            if abs(cross) < 1e-9 * abs(diff):
                return False
    return True


class MarkedReflectionSystem:
    """Ordered basis with a semiorthogonal pairing, complex markings and a
    phase.  The order is by decreasing Im(e^{-i phi} u) with ties broken by
    the original index."""

    def __init__(self, backend, vectors, markings, phase=0.0, labels=None):
        self.backend = backend
        self.vectors = [tuple(v) for v in vectors]
        self.markings = [complex(u) for u in markings]
        self.phase = float(phase)
        self.labels = list(labels) if labels else [f"v{i}" for i in
                                                   range(len(vectors))]
        if len(self.vectors) != len(self.markings):
            raise ValueError("vectors and markings must align")

    def copy(self):
        return MarkedReflectionSystem(self.backend, self.vectors,
                                      self.markings, self.phase, self.labels)

    def order(self):
        d = cmath.exp(-1j * self.phase)
        keys = [(-(d * u).imag, i) for i, u in enumerate(self.markings)]
        return [i for _, i in sorted(zip(keys, range(len(self.markings))))]

    def pair(self, i, j):
        return self.backend.pair(self.vectors[i], self.vectors[j])

    def gram(self, order=None):
        order = order if order is not None else self.order()
        return [[self.pair(i, j) for j in order] for i in order]

    def stokes_matrix(self):
        """Gram matrix in the admissibility order; raises when the pairing
        violates the semiorthogonality condition."""
        if not admissible(self.phase, self.markings):
            raise errors.NonAdmissibleEndpoint(
                "phase not admissible for the markings")
        order = self.order()
        G = self.gram(order)
        d = cmath.exp(-1j * self.phase)
        for a in range(len(G)):
            if G[a][a] != 1:
                raise errors.NotSemiorthogonal(
                    f"[v,v) = {G[a][a]} != 1 at position {a}")
            for b in range(a):
                ia, ib = order[a], order[b]
                ua = (d * self.markings[ia]).imag
                ub = (d * self.markings[ib]).imag
                if abs(ua - ub) < 1e-12:
                    continue  # equal-height markings never interact
                if G[a][b] != 0:
                    raise errors.NotSemiorthogonal(
                        f"[{self.labels[ia]}, {self.labels[ib]}) = "
                        f"{G[a][b]} below the diagonal")
        return G

    def reflect(self, i, j, c):
        """The one step of every mutation, in place: v_i <- v_i - c v_j."""
        self.vectors[i] = tuple(x - c * y for x, y in
                                zip(self.vectors[i], self.vectors[j]))

    def mutate(self, pos, direction):
        """Mutation of the adjacent pair at positions (pos, pos+1) in the
        current order; 'right' moves the earlier vector past the later one,
        'left' is the inverse."""
        order = self.order()
        if pos < 0 or pos + 1 >= len(order):
            raise errors.IndexOutOfRange(f"position {pos} has no neighbour")
        ia, ib = order[pos], order[pos + 1]
        moving = {"right": (ia, ib), "left": (ib, ia)}.get(direction)
        if moving is None:
            raise ValueError("direction must be 'right' or 'left'")
        out = self.copy()
        out.reflect(*moving, self.pair(ia, ib))
        # markings swap heights per the crossing convention
        out.markings[ia], out.markings[ib] = (self.markings[ib],
                                              self.markings[ia])
        return out

    def __len__(self):
        return len(self.vectors)


class MutationEvent:
    def __init__(self, step, moving, pivot, direction, coefficient, at):
        self.step = step
        self.moving = moving          # branch index of the mutated vector
        self.pivot = pivot
        self.direction = direction    # 'up' or 'down' crossing
        self.coefficient = coefficient
        self.at = at                  # refined path parameter

    def as_dict(self):
        return {"step": self.step, "moving": self.moving, "pivot": self.pivot,
                "direction": self.direction,
                "coefficient": str(self.coefficient),
                "param": repr(self.at)}

    def __repr__(self):
        return (f"MutationEvent(moving={self.moving}, pivot={self.pivot}, "
                f"{self.direction}, coeff={self.coefficient})")


# a crossing partner closer in front than COLLIDE_EPS is a collision, not a
# crossing; bisection stops refining a crossing time at REFINE_TOL
COLLIDE_EPS = 1e-9
REFINE_TOL = 1e-10


def _crossings(values, phase):
    """Ray crossings along a trajectory's marking snapshots, values[k] the
    markings at node k (a (nodes, n) complex array, or its rows): for each
    step k, the list of (i, j, direction, s) with i behind, j in front,
    direction the sign change of the alignment Im(e^{-i phi}(u_j - u_i)),
    and s in (0,1] the interpolated crossing time in the step, in the order
    of the pairs (i, j).

    A pair carries its last nonzero alignment across nodes where it is
    exactly 0: opposite signs on the two sides make one crossing, placed at
    the first node on the ray (s = 1 in the step ending there), and a touch
    that returns to its side makes none.

    The alignments of all nodes and ordered pairs are one real array,
    d.real (Im u_j - Im u_i) + d.imag (Re u_j - Re u_i) with d = e^{-i phi},
    the bits of Python's complex product (d (u_j - u_i)).imag
    (tests/test_numpy_identities.py), and the sign changes between
    consecutive nonzero nodes of each pair are found on it at once; each
    crossing found then takes s, u_i, u_j and the COLLIDE_EPS test in
    Python complex arithmetic."""
    d = cmath.exp(-1j * phase)
    V = np.asarray(values, dtype=complex)
    nodes, n = V.shape
    out = [[] for _ in range(nodes - 1)]
    pi, pj = (~np.eye(n, dtype=bool)).nonzero()  # the pairs (i, j), in order
    A = (d.real * (V.imag[:, pj] - V.imag[:, pi])
         + d.imag * (V.real[:, pj] - V.real[:, pi])).T
    # the nonzero alignments of each pair in node order, pair by pair (a
    # nan is nonzero and on the side a <= 0, as in a comparison)
    p, k = (A != 0).nonzero()
    up = A[p, k] > 0
    c = ((p[1:] == p[:-1]) & (up[1:] != up[:-1])).nonzero()[0]
    # by the node left behind, then by pair: the order a pair-by-pair walk
    # appends them in
    c = c[np.argsort(k[c], kind="stable")]
    pi, pj = pi.tolist(), pj.tolist()
    for q, k0, k1 in zip(*(x.tolist() for x in (p[c], k[c], k[c + 1]))):
        i, j = pi[q], pj[q]
        a0, a1 = A[q, k0].item(), A[q, k1].item()
        u0, u1 = V[k0].tolist(), V[k1].tolist()
        if k0 == k1 - 1:
            s = a0 / (a0 - a1)
            ui = u0[i] + (u1[i] - u0[i]) * s
            uj = u0[j] + (u1[j] - u0[j]) * s
        else:
            s = 1.0
            ui, uj = V[k0 + 1, i].item(), V[k0 + 1, j].item()
        # j must be in front: otherwise a collision or behind
        if (d * (uj - ui)).real > COLLIDE_EPS:
            out[k0].append((i, j, "up" if a1 > a0 else "down", s))
    return out


def _refine(trajectory, found, phase):
    """Bisection of the crossing times `found`, (k, i, j, s) each with s
    the interpolated time in step k, all crossings in lockstep.  Every level
    is one `Trajectory.resolve` call: the first solves branches i and j of
    each crossing at both ends of its step, each later one at the midpoint
    of each crossing still bisected, all seeded from step k.  Returns one
    entry per crossing: its refined time, or the LostBranch of its first
    failed solve (by level, then end, then i before j), which ends that
    crossing's bisection."""
    d = cmath.exp(-1j * phase)
    params = trajectory.params

    def align(points):
        # the alignment of each crossing c at time s, or its LostBranch
        rows = []
        for c, s in points:
            k, i, j, _ = found[c]
            p = params[k] + (params[k + 1] - params[k]) * s
            rows += [(p, k, i), (p, k, j)]
        vals = trajectory.resolve(rows)
        out = []
        for (p, _, i), (_, _, j), ui, uj in zip(rows[::2], rows[1::2],
                                                vals[::2], vals[1::2]):
            if ui is None or uj is None:
                out.append(errors.LostBranch(
                    f"refinement lost branch {i if ui is None else j} at "
                    f"parameter {p}"))
            else:
                out.append((d * (uj - ui)).imag)
        return out

    out = [None] * len(found)
    ends = align([(c, s) for c in range(len(found)) for s in (0.0, 1.0)])
    live = []           # (crossing, a, b, alignment at a) while bisected
    for c, (fa, fb) in enumerate(zip(ends[::2], ends[1::2])):
        lost = [f for f in (fa, fb) if isinstance(f, errors.LostBranch)]
        if lost:
            out[c] = lost[0]
        elif fa == 0:
            out[c] = 0.0
        elif (fa > 0) == (fb > 0):
            out[c] = found[c][3]
        else:
            live.append((c, 0.0, 1.0, fa))
    while live:         # b - a halves exactly, so at most 34 levels
        bisected = []
        for (c, a, b, fa), fm in zip(live, align(
                [(c, 0.5 * (a + b)) for c, a, b, _ in live])):
            m = 0.5 * (a + b)
            if isinstance(fm, errors.LostBranch):
                out[c] = fm
                continue
            if fm == 0:
                out[c] = m
                continue
            if (fa > 0) == (fm > 0):
                a, fa = m, fm
            else:
                b = m
            if b - a < REFINE_TOL:
                out[c] = 0.5 * (a + b)
            else:
                bisected.append((c, a, b, fa))
        live = bisected
    return out


def evolve(mrs: MarkedReflectionSystem, trajectory):
    """Evolve the system along a trajectory: markings follow the branch
    values; each time a marking crosses the positive ray of another one the
    corresponding vector mutates.  Rays point in the direction of the
    system's phase throughout.

    Returns (final system, events).  Vectors in `mrs` are aligned with
    trajectory branches by index.  The crossings of every step are found
    first, from the stored branch values alone (`_crossings`).  When the
    trajectory carries its family, every crossing time is then refined by
    one lockstep bisection (`_refine`) on the two crossing branches of each,
    re-solved at each midpoint; otherwise the in-step linear interpolant
    gives it.  The steps are then taken in order.  At each, a crossing
    that lost a branch raises its LostBranch (the step's first such
    crossing), and then two overlapping events sharing a mutated vector
    raise SimultaneousCrossing; a later step's error is never reached.
    """
    if len(mrs) != trajectory.nbranches:
        raise ValueError("system and trajectory sizes differ")
    cur = mrs.copy()
    events = []
    params = trajectory.params
    phase = mrs.phase
    steps = _crossings(trajectory.values, phase)
    found = [(k, i, j, s) for k, step in enumerate(steps)
             for i, j, _, s in step]
    times = iter(_refine(trajectory, found, phase)
                 if trajectory.family is not None and found
                 else [s for *_, s in found])
    for k, step in enumerate(steps):
        refined = []
        for (i, j, direction, _), s_ref in zip(step, times):
            if isinstance(s_ref, errors.LostBranch):
                raise s_ref
            refined.append((s_ref, i, j, direction))
        refined.sort(key=lambda t: t[0])
        for a in range(len(refined)):
            for b in range(a + 1, len(refined)):
                sa, ia, ja, _ = refined[a]
                sb, ib, jb, _ = refined[b]
                if abs(sa - sb) < 10 * REFINE_TOL:
                    if ia == ib or ia == jb or ja == ib:
                        raise errors.SimultaneousCrossing(
                            f"entangled crossings ({ia},{ja}) and ({ib},{jb})"
                            f" within refinement tolerance at step {k}")
        for (s_ref, i, j, direction) in refined:
            c = cur.pair(i, j) if direction == "up" else cur.pair(j, i)
            cur.reflect(i, j, c)
            at = params[k] + (params[k + 1] - params[k]) * s_ref
            events.append(MutationEvent(k, i, j, direction, c, at))
        cur.markings = trajectory.values_at_step(k + 1)
    if not admissible(phase, cur.markings):
        raise errors.NonAdmissibleEndpoint(
            "endpoint phase is not admissible for the final markings")
    return cur, events
