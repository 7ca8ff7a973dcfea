"""Toric wall-crossing toolkit: secondary-fan combinatorics, mirror
Landau-Ginzburg critical-point analytics, Gamma-class Euler pairings and
mutation bookkeeping for marked reflection systems.

The names below are imported from their modules on first access, so
importing one exact module (`toriclg.secondary`, say) does not load the
numerical ones and numpy with them."""

import importlib

from . import errors

_HOMES = {
    "StackyFan": "fans",
    "AbelianLattice": "lattice", "VectorSet": "lattice",
    "extended_sequences": "lattice",
    "LGPotential": "lg", "chart_family": "lg", "conifold_point": "lg",
    "critical_points": "lg", "curve_critical_values": "lg",
    "newton_nondegenerate": "lg", "track_critical_values": "lg",
    "MarkedReflectionSystem": "mutation", "admissible": "mutation",
    "evolve": "mutation",
    "CurveChart": "secondary", "PLConeData": "secondary",
    "WallCrossing": "secondary", "cpl_cone": "secondary",
    "enumerate_adapted_fans": "secondary", "wall_between": "secondary",
}

__all__ = [
    "AbelianLattice", "VectorSet", "StackyFan", "extended_sequences",
    "enumerate_adapted_fans", "wall_between",
    "cpl_cone", "PLConeData", "WallCrossing", "CurveChart",
    "LGPotential", "chart_family", "critical_points", "conifold_point",
    "curve_critical_values", "newton_nondegenerate", "track_critical_values",
    "MarkedReflectionSystem", "admissible", "evolve", "errors",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
