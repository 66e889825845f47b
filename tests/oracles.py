"""Reference functions that only the tests use; the program never calls them.

- ``frac_apply``, the discrete fractional operator on a whole sequence,
  drawn through ``cq.History``.  ``test_cq.py`` uses it for composition to a
  backward difference, zero and constant sequences, linearity and input
  checks, and in ``test_lag_blocked_history_matches_plain_gemv`` and
  ``test_streamed_history_refuses_orders_outside_the_fit``.
- ``rl_integral_oracle``, the closed-form fractional integral of s^beta:
  the limit of the scalar CQ runs in ``test_cq.py``
  (``test_scalar_cq_consistency_first_order``), ``test_stepping.py``
  (``test_scalar_fractional_integral_first_order``,
  ``test_scalar_nonzero_start_shifts_limit``) and acceptance C3.
- ``ritz_project``, the energy projection from a gradient: the identity
  S R_h v = F(c A v) in ``test_fem.py::test_energy_projection_identity`` and
  acceptance C4, and ``test_fem.py``'s zero, hat-function and non-finite
  gradient cases.
- ``l2_error_vs_function``, the L2 distance of a P1 function to a closed
  form: ``test_fem.py::test_steady_solve_second_order_in_h``.
"""

import math

import numpy as np

from subdiff.cq import History, WeightTable
from subdiff.errors import NumericsError
from subdiff.fem import (Factor, FemSystem, _QUAD_BARY, _QUAD_W,
                         _scatter_to_interior)


def frac_apply(table: WeightTable, tau: float, seq: np.ndarray) -> np.ndarray:
    """Apply the discrete fractional operator of the table's order to a sequence.

    ``seq`` holds phi^0..phi^n along axis 0 (scalars or vectors); the result
    has the same shape, entry n being tau^(-gamma) sum_j b_j phi^(n-j), that
    is tau^(-gamma) (phi^n + the history sum of :class:`History`), since
    b_0 = 1.  The input is not modified.
    """
    if not tau > 0.0:
        raise ValueError(f"time step must be positive, got {tau}")
    phi = np.asarray(seq, dtype=float)
    if phi.ndim not in (1, 2):
        raise ValueError(f"sequence must be 1- or 2-dimensional, got shape {phi.shape}")
    nsteps = phi.shape[0]
    if len(table) < nsteps:
        raise ValueError(
            f"weight table of length {len(table)} too short for {nsteps} entries")
    rows = phi if phi.ndim == 2 else phi[:, None]
    out = rows.copy()
    history = History(table, max(nsteps - 1, 0), rows.shape[1])
    for n in range(1, nsteps):
        out[n] += history.next(rows[n - 1])
    out *= tau ** (-table.gamma)
    return out.reshape(phi.shape)


def rl_integral_oracle(alpha: float, beta: float, t: float) -> float:
    """Fractional integral of order alpha of s^beta, evaluated at t.

    Closed form Gamma(beta+1)/Gamma(beta+1+alpha) * t^(beta+alpha); serves as
    the independent reference for the scalar consistency checks.
    """
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if beta < 0.0:
        raise ValueError(f"exponent beta must be nonnegative, got {beta}")
    if not alpha > 0.0:
        raise ValueError(f"order alpha must be positive, got {alpha}")
    if t == 0.0:
        return 0.0
    return math.gamma(beta + 1.0) / math.gamma(beta + 1.0 + alpha) * t ** (beta + alpha)


def ritz_project(sys: FemSystem, grad) -> np.ndarray:
    """Energy projection of v from its gradient: solve S x = c_A (grad v, grad phi).

    ``grad(x, y)`` returns the pair (dv/dx, dv/dy) at equal-shaped point
    arrays.
    """
    mesh = sys.mesh
    Ge = np.zeros((len(mesh.triangles), 3))
    for q, w in enumerate(_QUAD_W):
        gx, gy = (np.asarray(g, dtype=float) for g in grad(*mesh.quad_points[q].T))
        # area * grad(phi_k) = (b_k, c_k)/2 cancels the rule's area factor
        Ge += (w / 2.0) * (gx[:, None] * mesh.b + gy[:, None] * mesh.c)
    if not np.all(np.isfinite(Ge)):
        raise NumericsError("gradient data produced non-finite values")
    return Factor(sys.S).solve(sys.c_A * _scatter_to_interior(mesh, Ge))


def l2_error_vs_function(sys: FemSystem, x: np.ndarray, u) -> float:
    """L2 distance between the P1 function with nodal values x and u(x, y)."""
    mesh = sys.mesh
    full = np.zeros(len(mesh.coords))
    full[mesh.full_of_interior] = x
    nodal = full[mesh.triangles]
    acc = np.zeros(len(mesh.triangles))
    for q, w in enumerate(_QUAD_W):
        uh = nodal @ _QUAD_BARY[q]
        ue = np.asarray(u(*mesh.quad_points[q].T), dtype=float)
        acc += w * (uh - ue) ** 2
    return float(np.sqrt(np.sum(acc * mesh.area)))
