"""Finitely generated abelian lattices N = Z^n x N_tor, vector sets S and
the data that depends on S alone: the extended fan and divisor sequences,
the chart of each n-subset of S and the complement inverses of the divisor
images, each built once per vector set and read by every fan adapted to S."""
from __future__ import annotations

import itertools

from .cones import Cone
from .rational import (det, integer_kernel, lattice_from_generators,
                       preimage_lattice, rank, scaled_inverse)


class AbelianLattice:
    """Z^rank plus torsion given by invariant factors (each >= 2, dividing
    successively)."""

    def __init__(self, rank: int, torsion=()):
        torsion = tuple(int(d) for d in torsion)
        if any(d < 2 for d in torsion):
            raise ValueError("torsion invariant factors must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must divide successively")
        self.rank = int(rank)
        self.torsion = torsion

    @property
    def torsion_order(self) -> int:
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def element(self, free, tor=None):
        free = tuple(int(x) for x in free)
        if len(free) != self.rank:
            raise ValueError("wrong rank")
        if tor is None:
            tor = (0,) * len(self.torsion)
        if len(tor) != len(self.torsion):
            raise ValueError("wrong torsion part")
        return NElt(free, (int(t) % d for t, d in zip(tor, self.torsion)))

    def zero(self):
        return self.element((0,) * self.rank)

    def torsion_elements(self):
        """All elements of N_tor as residue tuples."""
        out = [()]
        for d in self.torsion:
            out = [t + (r,) for t in out for r in range(d)]
        return out

    def __repr__(self):
        return f"AbelianLattice(rank={self.rank}, torsion={list(self.torsion)})"

    def __eq__(self, other):
        return (isinstance(other, AbelianLattice)
                and self.rank == other.rank and self.torsion == other.torsion)


class NElt(tuple):
    """Element of N: free part in Z^n plus residue tuple."""

    def __new__(cls, free, tor=()):
        return super().__new__(cls, (tuple(int(x) for x in free),
                                     tuple(int(t) for t in tor)))

    @property
    def free(self):
        return self[0]

    @property
    def tor(self):
        return self[1]

    def add(self, other, lattice: AbelianLattice):
        free = tuple(a + b for a, b in zip(self.free, other.free))
        tor = tuple((a + b) % d for a, b, d in zip(self.tor, other.tor, lattice.torsion))
        return NElt(free, tor)

    def scale(self, k: int, lattice: AbelianLattice):
        free = tuple(k * a for a in self.free)
        tor = tuple((k * a) % d for a, d in zip(self.tor, lattice.torsion))
        return NElt(free, tor)

    def __repr__(self):
        if self.tor:
            return f"{list(self.free)}+{list(self.tor)}"
        return repr(list(self.free))


def as_element(lattice: AbelianLattice, b):
    if isinstance(b, NElt):
        return b
    if lattice.torsion and len(b) == 2 and isinstance(b[0], (tuple, list)):
        return lattice.element(b[0], b[1])
    return lattice.element(b)


def extended_sequences(vector_set: VectorSet):
    """Kernel basis of beta and the divisor images D_b.

    Returns (L_basis, D) where L_basis rows span
    L = ker(beta: Z^S -> N) and D[b] are the coordinates of D_b in the dual
    basis of L_basis, as `int` tuples.  `VectorSet.sequences` keeps them.
    """
    S = vector_set.vectors
    lat = vector_set.lattice
    n, tor = lat.rank, lat.torsion
    Bbar = [tuple(b.free[i] for b in S) for i in range(n)]
    ker_free = integer_kernel(Bbar) if S else []
    if tor:
        # refine by the torsion congruences sum_b lam_b zeta_b = 0 in N_tor
        T = [tuple(b.tor[i] for b in S) for i in range(len(tor))]
        coeffs = []
        for lam in ker_free:
            coeffs.append(tuple(sum(T[i][j] * lam[j] for j in range(len(S)))
                                for i in range(len(tor))))
        # sub-lattice of coefficient space where T*K*x = 0 mod d_i
        rows = [([c[i] for c in coeffs], d) for i, d in enumerate(tor)]
        sub = preimage_lattice(rows) if rows else \
            [tuple(1 if i == j else 0 for j in range(len(ker_free)))
             for i in range(len(ker_free))]
        L_basis = []
        for coeff in sub:
            v = [0] * len(S)
            for c, lam in zip(coeff, ker_free):
                for j in range(len(S)):
                    v[j] += c * lam[j]
            L_basis.append(tuple(v))
        L_basis = lattice_from_generators(L_basis)
    else:
        L_basis = lattice_from_generators(ker_free) if ker_free else []
    D = [tuple(row[j] for row in L_basis) for j in range(len(S))]
    return L_basis, D


class VectorSet:
    """The fixed finite set S spanning the support cone Pi.

    Every fan adapted to S, each chamber of the secondary fan among them,
    reads the data below from its vector set, so it is computed once per S:
    `sequences`, `chart` per n-subset and `complements`, each built on
    first read, and `box_counts`, {n-subset: its checked Box count} as
    `StackyFan.dim_orbifold_cohomology` counts them."""

    def __init__(self, lattice: AbelianLattice, vectors):
        self.lattice = lattice
        self.vectors = [as_element(lattice, b) for b in vectors]
        if not self.vectors:
            raise ValueError("S must be nonempty")
        frees = [b.free for b in self.vectors]
        self.support_cone = Cone.from_rays(frees, lattice.rank)
        if rank(frees) != lattice.rank:
            raise ValueError("support cone Pi is not full-dimensional")
        self._sequences = None
        self._charts = {}
        self._complements = None
        self.box_counts = {}

    @property
    def generates(self) -> bool:
        """Whether S generates N as a group, so that beta: Z^S -> N is onto
        and the extended fan sequence 0 -> L -> Z^S -> N -> 0 is exact: the
        free parts span Z^n and the torsion residues cover, by the Hermite
        form of the combined presentation.  Computed on each read."""
        n = self.lattice.rank
        tor = self.lattice.torsion
        k = len(tor)
        gens = []
        for b in self.vectors:
            gens.append(tuple(b.free) + tuple(b.tor))
        for i, d in enumerate(tor):
            gens.append((0,) * n + tuple(d if j == i else 0 for j in range(k)))
        L = lattice_from_generators(gens)
        return len(L) == n + k and abs(det(L)) == 1

    def sequences(self):
        """(L_basis, D) of `extended_sequences`."""
        if self._sequences is None:
            self._sequences = extended_sequences(self)
        return self._sequences

    def chart(self, subset):
        """(cs, A, vol) in `int` for an n-subset of S, or None when its free
        parts are linearly dependent: cs the sorted indices, B the matrix
        whose columns are v_i, i in cs, and (A, vol) = (|det B| B^-1,
        |det B|) from `scaled_inverse`.  Row k of A reads vol times the
        coordinate over ray cs[k]; it vanishes on the other rays, so it is
        also an inner normal of the facet opposite cs[k]."""
        key = frozenset(subset)
        if key not in self._charts:
            cs = sorted(key)
            B = [[self.vectors[i].free[j] for i in cs]
                 for j in range(self.lattice.rank)]
            try:
                self._charts[key] = (cs,) + scaled_inverse(B)
            except ValueError:
                self._charts[key] = None
        return self._charts[key]

    def complements(self):
        """{I: (rest, adj)} in `combinations` order, for each n-subset I of
        S whose complement {D_b : b in rest} is a basis of L^*_Q (by Gale
        duality, exactly the I with independent free parts).  adj is
        |det M_I| M_I^-1 in `int`, M_I the matrix whose columns are D_b,
        b in rest: row k reads |det M_I| times the coefficient of
        D_{rest[k]}, so the rows are the inner facet normals of
        cone(D_b : b in rest)."""
        if self._complements is None:
            D = self.sequences()[1]
            m = len(self.vectors)
            self._complements = {}
            for I in itertools.combinations(range(m), self.lattice.rank):
                rest = [b for b in range(m) if b not in I]
                try:
                    adj = scaled_inverse([[D[b][j] for b in rest]
                                          for j in range(len(D[0]))])[0]
                except ValueError:
                    continue    # D_rest is not a basis: rank S_I < n
                self._complements[frozenset(I)] = rest, adj
        return self._complements

    def __len__(self):
        return len(self.vectors)
