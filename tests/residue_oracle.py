"""Independent oracles for the residue pairing: the order-0 Grothendieck
residue sum over critical points, and a quadrature of the P^1 mirror's
oscillatory integral at the conifold point."""
import math

import numpy as np

from toriclg.lg import LGPotential


def grothendieck_residue_oracle(F: LGPotential, phi1=None, phi2=None, *,
                                points):
    """Independent order-0 oracle: sum over the critical points `points` of
    phi1 phi2 / (|N_tor|^2 det h)."""

    def ev(phi, p):
        if phi is None:
            return 1.0 + 0j
        pB, pc = phi
        return complex(np.sum(np.asarray(pc, dtype=complex)
                              * np.exp(np.asarray(pB, dtype=float) @ p.log_point)))
    total = 0j
    for p in points:
        total += ev(phi1, p) * ev(phi2, p) / (F.torsion_order ** 2
                                              * p.det_hessian)
    return total


def steepest_descent_quadrature_p1(q, z_values):
    """Numerical oracle for the P^1 mirror x + q/x at the conifold point:
    evaluates int_0^infty e^{F/z} dx/x for z < 0 by trapezoid in t = log x
    (doubly exponential decay makes the plain trapezoid spectrally accurate).
    Returns the list of integral values."""
    out = []
    sq = math.sqrt(q)
    for z in z_values:
        assert z < 0
        T = 14.0
        npts = 4001
        ts = np.linspace(-T, T, npts)
        # x = sq * e^t: F = sq(e^t + e^-t) = 2 sq cosh t
        vals = np.exp(2 * sq * np.cosh(ts) / z)
        out.append(float(np.trapezoid(vals, ts)))
    return out
