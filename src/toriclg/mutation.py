"""Marked reflection systems: admissible phases, Stokes/Gram matrices,
left and right mutations, and evolution along critical-value trajectories
with ray-crossing detection."""
from __future__ import annotations

import cmath
from fractions import Fraction

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
    ring basis: u^T X v as a Fraction, with X the ring's integer Euler form
    (CohomologyRing.euler_form, read by CohomologyRing.chi), the same form
    euler_pairing_hrr uses; u and v are cleared to int on each call."""

    def __init__(self, ring):
        self.ring = ring

    def flatten(self, cls):
        return self.ring.flatten(cls)

    def pair(self, u, v):
        return Fraction(*self.ring.chi(cleared(u), cleared(v)))


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

    def mutate(self, pos, direction):
        """Mutation of the adjacent pair at positions (pos, pos+1) in the
        current order; 'right' moves the earlier vector past the later one,
        'left' is the inverse."""
        order = self.order()
        if pos < 0 or pos + 1 >= len(order):
            raise errors.IndexOutOfRange(f"position {pos} has no neighbour")
        ia, ib = order[pos], order[pos + 1]
        out = self.copy()
        if direction == "right":
            c = self.pair(ia, ib)
            out.vectors[ia] = tuple(x - c * y for x, y in
                                    zip(self.vectors[ia], self.vectors[ib]))
        elif direction == "left":
            c = self.pair(ia, ib)
            out.vectors[ib] = tuple(x - c * y for x, y in
                                    zip(self.vectors[ib], self.vectors[ia]))
        else:
            raise ValueError("direction must be 'right' or 'left'")
        # markings swap heights per the crossing convention
        out.markings[ia], out.markings[ib] = (self.markings[ib],
                                              self.markings[ia])
        return out

    def __len__(self):
        return len(self.vectors)


class MutationEvent:
    def __init__(self, step, moving, pivot, direction, coefficient, at,
                 u_moving, u_pivot):
        self.step = step
        self.moving = moving          # branch index of the mutated vector
        self.pivot = pivot
        self.direction = direction    # 'up' or 'down' crossing
        self.coefficient = coefficient
        self.at = at                  # refined path parameter
        self.u_moving = u_moving
        self.u_pivot = u_pivot

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


def _crossing_in_step(u0, u1, phase):
    """Ray crossings between two consecutive marking snapshots: returns
    (i, j, direction, s) with i behind, j in front, direction the sign
    change of Im(e^{-i phi}(u_j - u_i)), and s in (0,1] the interpolated
    crossing time."""
    d = cmath.exp(-1j * phase)
    n = len(u0)
    out = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a0 = (d * (u0[j] - u0[i])).imag
            a1 = (d * (u1[j] - u1[i])).imag
            if a0 == 0 or (a0 > 0) == (a1 > 0):
                continue
            s = a0 / (a0 - a1)
            ui = u0[i] + (u1[i] - u0[i]) * s
            uj = u0[j] + (u1[j] - u0[j]) * s
            re = (d * (uj - ui)).real
            if re <= COLLIDE_EPS:
                continue          # j not in front: collision or behind
            out.append((i, j, "up" if a1 > a0 else "down", s))
    return out


def evolve(mrs: MarkedReflectionSystem, trajectory):
    """Evolve the system along a trajectory: markings follow the branch
    values; each time a marking crosses the positive ray of another one the
    corresponding vector mutates.  Rays point in the direction of the
    system's phase throughout.

    Returns (final system, events).  Vectors in `mrs` are aligned with
    trajectory branches by index.  When the trajectory carries its family,
    each crossing time is refined by bisection on the two crossing branches
    alone, re-solved at each midpoint (LostBranch if either is lost);
    otherwise the in-step linear interpolant gives it.  Two overlapping
    events sharing a mutated vector raise SimultaneousCrossing.
    """
    if len(mrs) != trajectory.nbranches:
        raise ValueError("system and trajectory sizes differ")
    cur = mrs.copy()
    events = []
    params = trajectory.params
    phase = mrs.phase
    for k in range(len(params) - 1):
        u0 = [br[k].value for br in trajectory.branches]
        u1 = [br[k + 1].value for br in trajectory.branches]
        found = _crossing_in_step(u0, u1, phase)
        if not found:
            cur.markings = list(u1)
            continue
        refined = []
        for (i, j, direction, s) in found:
            s_ref = s
            if trajectory.family is not None:
                s_ref = _refine_crossing(trajectory, k, i, j, phase, s)
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
            if direction == "up":
                c = cur.backend.pair(cur.vectors[i], cur.vectors[j])
            else:
                c = cur.backend.pair(cur.vectors[j], cur.vectors[i])
            cur.vectors[i] = tuple(x - c * y for x, y in
                                   zip(cur.vectors[i], cur.vectors[j]))
            at = params[k] + (params[k + 1] - params[k]) * s_ref
            events.append(MutationEvent(k, i, j, direction, c, at,
                                        u0[i], u0[j]))
        cur.markings = list(u1)
    if not admissible(phase, cur.markings):
        raise errors.NonAdmissibleEndpoint(
            "endpoint phase is not admissible for the final markings")
    return cur, events


def _refine_crossing(trajectory, k, i, j, phase, s_guess):
    """Bisection refinement of the crossing time of branches i and j within
    [params[k], params[k+1]]; each midpoint re-solves only those two
    branches, seeded from step k."""
    d = cmath.exp(-1j * phase)
    params = trajectory.params

    def align(s):
        p = params[k] + (params[k + 1] - params[k]) * s
        ui, uj = trajectory.resolve(p, k, (i, j))
        return (d * (uj - ui)).imag
    a, b = 0.0, 1.0
    fa = align(a)
    fb = align(b)
    if fa == 0:
        return 0.0
    if (fa > 0) == (fb > 0):
        return s_guess
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = align(m)
        if fm == 0:
            return m
        if (fa > 0) == (fm > 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
        if b - a < REFINE_TOL:
            break
    return 0.5 * (a + b)
