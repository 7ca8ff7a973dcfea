"""Toric wall-crossing toolkit: secondary-fan combinatorics, mirror
Landau-Ginzburg critical-point analytics, Gamma-class Euler pairings and
mutation bookkeeping for marked reflection systems."""

from . import errors
from .fans import StackyFan, extended_sequences, validate_stacky_fan
from .lattice import AbelianLattice, VectorSet
from .lg import (LGPotential, chart_family, conifold_point, critical_points,
                 curve_critical_values, newton_nondegenerate,
                 track_critical_values)
from .mutation import MarkedReflectionSystem, admissible, evolve
from .secondary import (CurveChart, PLConeData, WallCrossing, cpl_cone,
                        enumerate_adapted_fans, wall_between)

__all__ = [
    "AbelianLattice", "VectorSet", "StackyFan", "validate_stacky_fan",
    "extended_sequences", "enumerate_adapted_fans", "wall_between",
    "cpl_cone", "PLConeData", "WallCrossing", "CurveChart",
    "LGPotential", "chart_family", "critical_points", "conifold_point",
    "curve_critical_values", "newton_nondegenerate", "track_critical_values",
    "MarkedReflectionSystem", "admissible", "evolve", "errors",
]

__version__ = "0.1.0"
