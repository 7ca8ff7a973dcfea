"""Orlov-block check of an evolved marked reflection system: the endpoint
markings split into a convergent cluster and J divergent angular clusters,
with the ranks of K(X_-) and K(Z), and in K-class mode the convergent
vectors lie in phi^* K(X_-) over Z."""
import cmath
import math

from toriclg import errors
from toriclg.mutation import MarkedReflectionSystem
from toriclg.rational import solve, transpose, vec


class BlockMismatch(errors.ToricLGError):
    """The endpoint markings do not split into the expected Orlov blocks."""


def verify_orlov_evolution(mrs: MarkedReflectionSystem, blowup=None,
                           rank_minus=None, rank_center=None, J=None):
    """Split the endpoint markings into the convergent cluster and J
    divergent satellite clusters, then verify the block structure.

    In K-class mode (blowup given) the convergent vectors must span
    phi^* K(X_-) over Z and each divergent cluster must have the rank of
    K(Z); in abstract mode only the cluster ranks are checked.
    Returns a report dict."""
    if blowup is not None:
        rank_minus = blowup.rank_minus
        rank_center = blowup.rank_center
        J = blowup.J
    n = len(mrs)
    if rank_minus is None or J is None:
        raise ValueError("need rank data")
    mags = sorted(range(n), key=lambda i: abs(mrs.markings[i]))
    conv_idx = mags[:rank_minus]
    div_idx = mags[rank_minus:]
    if rank_center is not None and len(div_idx) != J * rank_center:
        raise BlockMismatch(
            f"{len(div_idx)} divergent markings, expected {J * rank_center}")
    # cluster divergent markings by angle: cut the circle at the J largest
    # angular gaps
    clusters = {}
    if div_idx:
        m = len(div_idx)
        by_angle = sorted(div_idx,
                          key=lambda i: cmath.phase(mrs.markings[i]))
        angs = [cmath.phase(mrs.markings[i]) for i in by_angle]
        gaps = [(((angs[(t + 1) % m] - angs[t]) % (2 * math.pi)), t)
                for t in range(m)]
        cut_after = {t for _, t in sorted(gaps, reverse=True)[:min(J, m)]}
        start = (max(cut_after) + 1) % m
        cur = []
        label = 0
        for step in range(m):
            idx = (start + step) % m
            cur.append(by_angle[idx])
            if idx in cut_after:
                clusters[label] = cur
                label += 1
                cur = []
        if cur:
            clusters[label] = cur
    if len(div_idx) and len(clusters) != J:
        raise BlockMismatch(
            f"divergent markings fall into {len(clusters)} angular clusters,"
            f" expected {J}")
    report = {"convergent": conv_idx, "clusters": clusters}
    if rank_center is not None:
        for key, idxs in clusters.items():
            if len(idxs) != rank_center:
                raise BlockMismatch(
                    f"cluster {key} has {len(idxs)} markings, expected "
                    f"{rank_center}")
    if blowup is not None:
        backend = mrs.backend
        # phi^* K(X_-) span over Z
        pull = []
        for j, _ in blowup.minus_line_bundle_basis():
            kc = blowup.pullback_line_bundle({blowup.center_twist_ray: j})
            pull.append(backend.flatten(kc.ch))
        for i in conv_idx:
            coeff = solve(transpose([vec(r) for r in pull]),
                          vec(mrs.vectors[i]))
            if coeff is None or any(x.denominator != 1 for x in coeff):
                raise BlockMismatch(
                    f"convergent vector {mrs.labels[i]} is not an integral "
                    "combination of pulled-back classes")
        report["convergent_in_pullback"] = True
    return report
