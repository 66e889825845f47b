"""Subdiffusion solver toolkit.

Solves the time-fractional diffusion problem D_t^alpha u - c Lap u = f on the
square (-1,1)^2 with zero boundary values: P1 finite elements in space,
backward Euler convolution quadrature in time, and per-step linear systems
solved either exactly or by a scheduled number of multigrid V-cycles.
"""

from .cq import TimeGrid, WeightTable, gen_weights
from .errors import ConfigurationError, NumericsError
from .fem import (FemSystem, Mesh2D, assemble, build_mesh, l2_norm, l2_project,
                  load_vector)
from .multigrid import (DampedJacobi, GaussSeidelForward, MgHierarchy,
                        build_hierarchy, smooth, vcycle)
from .stepping import (ExactSchedule, L2Projected, LogSchedule, ProblemSpec,
                       SeparableSource, TheoryNonsmoothData, TheorySmoothData,
                       Trajectory, ZeroInit, error_report, run_exact, run_iis,
                       schedule_iters)

__version__ = "0.1.0"

__all__ = [
    "TimeGrid", "WeightTable", "gen_weights",
    "ConfigurationError", "NumericsError",
    "Mesh2D", "FemSystem", "build_mesh", "assemble", "load_vector",
    "l2_project", "l2_norm",
    "DampedJacobi", "GaussSeidelForward", "MgHierarchy",
    "build_hierarchy", "vcycle", "smooth",
    "ProblemSpec", "ZeroInit", "L2Projected",
    "SeparableSource",
    "ExactSchedule", "LogSchedule",
    "TheorySmoothData", "TheoryNonsmoothData",
    "Trajectory", "schedule_iters",
    "run_exact", "run_iis", "error_report",
]
