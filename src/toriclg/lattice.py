"""Finitely generated abelian lattices N = Z^n x N_tor and vector sets."""
from __future__ import annotations

from .cones import Cone
from .rational import rank


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
        tor = tuple(int(t) % d for t, d in zip(tor, self.torsion))
        if len(tor) != len(self.torsion):
            raise ValueError("wrong torsion part")
        return NElt(free, tor)

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


class VectorSet:
    """The fixed finite set S spanning the support cone Pi."""

    def __init__(self, lattice: AbelianLattice, vectors):
        self.lattice = lattice
        self.vectors = [as_element(lattice, b) for b in vectors]
        if not self.vectors:
            raise ValueError("S must be nonempty")
        frees = [b.free for b in self.vectors]
        self.support_cone = Cone.from_rays(frees, lattice.rank)
        if rank(frees) != lattice.rank:
            raise ValueError("support cone Pi is not full-dimensional")
        self.generates = self._generates()

    def _generates(self) -> bool:
        # S generates N as a group: free part spans Z^n and torsion residues
        # cover, via the Hermite form of the combined presentation
        from .rational import det, lattice_from_generators
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

    def __len__(self):
        return len(self.vectors)
