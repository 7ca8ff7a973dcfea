"""The Gauss-Newton face search that `lg.newton_nondegenerate` ran before
each face became one lockstep `_newton_solve` of x^-b0 f_Delta, kept as the
oracle of `tests/test_face_search_oracle.py`.

Each start is searched alone for a torus zero of x d f_Delta, the gradient
of the face polynomial, restricted to the orthogonal complement of the
active facet normals (an SVD slice, steps by `lstsq`), and judged by its
residual relative to the term scale.  The new test must give the same
verdict on every face.
"""
from __future__ import annotations

import math

import numpy as np

from toriclg.cones import polytope_proper_faces
from toriclg.lg import FACE_STARTS, TOL_FACE, LGPotential, _term_scale
from toriclg.rational import vec


def face_search(sub, normals, l0):
    """Gauss-Newton search for a torus critical point of a face polynomial,
    restricted to the orthogonal complement of the face's scaling directions
    (the active facet normals), so the iteration cannot trade residual decay
    against drift to toric infinity."""
    n = sub.n
    A = np.asarray([[float(x) for x in a] for a in normals], dtype=float)
    if A.size:
        _, sv, Vt = np.linalg.svd(A)
        nkeep = int(np.sum(sv > 1e-10))
        V = Vt[nkeep:].T            # complement directions, n x k
    else:
        V = np.eye(n)
    if V.shape[1] == 0:
        return None
    s = V.T @ np.asarray(l0, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(120):
            l = V @ s
            terms = sub.terms(l)
            g = sub.grad(l, terms=terms)
            sc = _term_scale(sub, terms)
            if not np.isfinite(sc) or sc == 0:
                return None
            rel = np.linalg.norm(g) / sc
            if rel < TOL_FACE:
                return l
            J = sub.hess(l, terms=terms) @ V
            ds, *_ = np.linalg.lstsq(J, -g, rcond=None)
            if not np.all(np.isfinite(ds)):
                return None
            t = 1.0
            improved = False
            for _ in range(40):
                l2 = V @ (s + t * ds)
                terms2 = sub.terms(l2)
                g2 = sub.grad(l2, terms=terms2)
                sc2 = _term_scale(sub, terms2)
                rel2 = (np.linalg.norm(g2) / sc2
                        if np.isfinite(sc2) and sc2 else math.inf)
                if rel2 < rel * (1 - 0.2 * t) or rel2 < TOL_FACE:
                    improved = True
                    break
                t *= 0.5
            if not improved:
                return None
            s = s + t * ds
        l = V @ s
        terms = sub.terms(l)
        return (l if np.linalg.norm(sub.grad(l, terms=terms))
                / _term_scale(sub, terms) < TOL_FACE else None)


def newton_nondegenerate(F, rng=None):
    """`lg.newton_nondegenerate` searching one start at a time, stopping at
    a face's first hit."""
    if rng is None:
        rng = np.random.default_rng(1)
    if not F.count_bound()[1]:
        raise ValueError("Newton polytope must contain 0 in its interior")
    pts = [vec(p) for p in F.B_int]
    facets = F._bound[0][2]
    report = []
    ok = True
    for face in polytope_proper_faces(pts, facets):
        idx = list(face)
        if len(idx) == 1:
            report.append({"face": idx, "degenerate": False, "budget": 0})
            continue
        sub = LGPotential([F.B_int[i] for i in idx], F.c[idx])
        normals = [a for a, a0, act in facets if set(idx) <= set(act)]
        hit = None
        for _ in range(FACE_STARTS):
            l0 = (rng.uniform(-2.0, 2.0, F.n)
                  + 1j * rng.uniform(-math.pi, math.pi, F.n))
            l = face_search(sub, normals, l0)
            if l is not None:
                hit = l
                break
        report.append({"face": idx, "degenerate": hit is not None,
                       "budget": FACE_STARTS})
        if hit is not None:
            ok = False
    return ok, report
