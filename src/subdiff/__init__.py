"""Subdiffusion solver toolkit.

Solves the time-fractional diffusion problem D_t^alpha u - c Lap u = f on the
square (-1,1)^2 with zero boundary values: P1 finite elements in space,
backward Euler convolution quadrature in time, and per-step linear systems
solved either exactly or by a scheduled number of multigrid V-cycles.
"""
