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
- ``factored_l2_project``, the L2 projection by a band factor of M, which
  ``fem.l2_project``'s conjugate gradients replaced:
  ``test_fem.py::test_l2_project_matches_the_factored_oracle``.
- ``quad_points``, ``plain_assemble`` and ``plain_load_vector``: the
  quadrature points as one (6, 2K^2, 2) array, and assembly and loads from
  full (2K^2, 3, 3) element arrays and 64-bit index lists in one pass over
  all triangles.  ``fem.assemble``'s stencils and ``fem.load_vector``'s
  blocks match them bit for bit at power-of-two K, and to 4 ulps at K=6
  (``test_fem.py::test_lean_assembly_and_loads_match_plain_oracles``);
  the two oracles above integrate on these points.
- ``element_geometry`` and ``scatter_to_interior``: each triangle's edge
  differences b, c and area, from its vertices, which the element oracles
  and ``test_fem.py::test_ritz_project_reproduces_mesh_function`` read (the
  mesh keeps only the one area h^2/2), and the triangle-major sum of
  element values into the interior nodes.
"""

import math

import numpy as np
import scipy.sparse as sp

from subdiff.cq import History, WeightTable
from subdiff.errors import NumericsError
from subdiff.fem import (Factor, FemSystem, Mesh2D, _QUAD_BARY, _QUAD_W, _to_dia,
                         load_vector)


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
    b, c, _ = element_geometry(mesh)
    points = quad_points(mesh)
    Ge = np.zeros((len(mesh.triangles), 3))
    for q, w in enumerate(_QUAD_W):
        gx, gy = (np.asarray(g, dtype=float) for g in grad(*points[q].T))
        # area * grad(phi_k) = (b_k, c_k)/2 cancels the rule's area factor
        Ge += (w / 2.0) * (gx[:, None] * b + gy[:, None] * c)
    if not np.all(np.isfinite(Ge)):
        raise NumericsError("gradient data produced non-finite values")
    return Factor(sys.S).solve(sys.c_A * scatter_to_interior(mesh, Ge))


def factored_l2_project(sys: FemSystem, g) -> np.ndarray:
    """L2 projection of g by a band Cholesky factor of M: solve M x = F(g)."""
    return Factor(_to_dia(sys.M)).solve(load_vector(sys.mesh, g))


def l2_error_vs_function(sys: FemSystem, x: np.ndarray, u) -> float:
    """L2 distance between the P1 function with nodal values x and u(x, y)."""
    mesh = sys.mesh
    full = np.zeros(len(mesh.coords))
    full[np.flatnonzero(mesh.interior_of_full >= 0)] = x
    nodal = full[mesh.triangles]
    acc = np.zeros(len(mesh.triangles))
    points = quad_points(mesh)
    for q, w in enumerate(_QUAD_W):
        uh = nodal @ _QUAD_BARY[q]
        ue = np.asarray(u(*points[q].T), dtype=float)
        acc += w * (uh - ue) ** 2
    return float(np.sqrt(np.sum(acc * element_geometry(mesh)[2])))


def quad_points(mesh: Mesh2D) -> np.ndarray:
    """(6, 2K^2, 2) physical points of the 6-point rule, summed in vertex order."""
    p = mesh.coords[mesh.triangles.T]  # p[k]: vertex k of every triangle
    return sum(_QUAD_BARY[:, k, None, None] * p[k] for k in range(3))


def element_geometry(mesh: Mesh2D) -> tuple:
    """(b, c, area) of every triangle: the (2K^2, 3) edge differences with
    grad(phi_k) = (b_k, c_k) / (2 area), and the (2K^2,) areas."""
    p = mesh.coords[mesh.triangles.T]  # p[k]: vertex k of every triangle
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[1] - y[2], y[2] - y[0], y[0] - y[1]], axis=1)
    c = np.stack([x[2] - x[1], x[0] - x[2], x[1] - x[0]], axis=1)
    return b, c, 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])


def scatter_to_interior(mesh: Mesh2D, Fe: np.ndarray) -> np.ndarray:
    """Sum (2K^2, 3) element values into the interior nodes, triangle-major."""
    F = np.zeros(mesh.n_interior)
    idx = mesh.interior_of_full[mesh.triangles]
    keep = idx >= 0
    np.add.at(F, idx[keep], Fe[keep])
    return F


def plain_assemble(mesh: Mesh2D, c_A: float) -> tuple:
    """(S, M) from full element arrays: stiffness c_A (b b' + c c') / (4 area),
    mass area/12 (1 + I), entries listed triangle-major and summed by tocsr()."""
    b, c, area = element_geometry(mesh)
    Ke = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    Ke = c_A * Ke / (4.0 * area)[:, None, None]
    Me = area[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0)[None, :, :]
    idx = mesh.interior_of_full[mesh.triangles]
    rows = np.repeat(idx, 3, axis=1).ravel()
    cols = np.tile(idx, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    n = mesh.n_interior
    return tuple(sp.coo_matrix((E.ravel()[keep], (rows[keep], cols[keep])),
                               shape=(n, n)).tocsr() for E in (Ke, Me))


def plain_load_vector(mesh: Mesh2D, g) -> np.ndarray:
    """Interior load vector by the 6-point rule on ``quad_points``, with each
    triangle's own area, in one pass over all triangles."""
    area = element_geometry(mesh)[2]
    Fe = np.zeros((len(mesh.triangles), 3))
    for q, x in enumerate(quad_points(mesh)):
        gv = np.broadcast_to(np.asarray(g(*x.T), dtype=float), (len(mesh.triangles),))
        Fe += (_QUAD_W[q] * area * gv)[:, None] * _QUAD_BARY[q][None, :]
    return scatter_to_interior(mesh, Fe)
