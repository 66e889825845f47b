"""Backward Euler convolution quadrature weights and discrete fractional operators.

The discrete fractional derivative of order gamma acting on a sequence
phi^0..phi^n on a uniform grid with step tau is

    (D^gamma phi)^n = tau^(-gamma) * sum_{j=0..n} b_j phi^(n-j),

where the b_j are the power-series coefficients of (1 - xi)^gamma.  For the
subdiffusion model gamma is the Caputo order alpha in (0,1); orders up to 2
are supported so that composed operators (e.g. order 1-alpha after order
alpha) can be formed and tested.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError

__all__ = [
    "TimeGrid",
    "WeightTable",
    "gen_weights",
    "lag_block",
    "history_sums",
    "frac_apply",
    "rl_integral_oracle",
]

# Guard against absurd table sizes before allocating (about 1 GB of floats).
_MAX_TABLE_LEN = 2**27

# Steps per lag block.  A block reads the stored sequence once, as one GEMM,
# instead of once per step, while its own 128 vectors stay in cache at desk
# scale.  The K=64, N=5120 reference took 7.1-7.9 s for blocks of 64 to 256
# and 7.8 s at 32, 8.2 s at 512 (2-core Xeon, one BLAS thread).
HISTORY_BLOCK = 128


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N steps, t_n = n * tau."""

    T: float
    N: int

    def __post_init__(self):
        if not self.T > 0.0:
            raise ConfigurationError(f"final time must be positive, got {self.T}")
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 1):
            raise ConfigurationError(f"step count must be an integer >= 1, got {self.N}")

    @property
    def tau(self) -> float:
        return self.T / self.N

    def times(self) -> np.ndarray:
        return self.tau * np.arange(self.N + 1)


@dataclass(frozen=True)
class WeightTable:
    """Coefficients b_0..b_n of (1 - xi)^gamma, immutable after construction.

    ``partial_sums[n]`` is s_n = sum_{j<=n} b_j (the coefficients of
    (1 - xi)^(gamma-1)); ``reversed_weights`` is a contiguous reversed copy
    whose window views are the Toeplitz slices of :func:`lag_block`.
    """

    gamma: float
    weights: np.ndarray
    partial_sums: np.ndarray = field(repr=False, default=None)
    reversed_weights: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if self.partial_sums is None:
            ps = np.cumsum(w)
            ps.setflags(write=False)
            object.__setattr__(self, "partial_sums", ps)
        if self.reversed_weights is None:
            rw = w[::-1].copy()
            rw.setflags(write=False)
            object.__setattr__(self, "reversed_weights", rw)

    def __len__(self) -> int:
        return len(self.weights)

    def bound(self) -> np.ndarray:
        """Upper envelope e^(2 gamma) (j+1)^(-gamma-1) valid for gamma in (0,1)."""
        j = np.arange(len(self.weights))
        return math.exp(2.0 * self.gamma) * (j + 1.0) ** (-self.gamma - 1.0)


def gen_weights(gamma: float, n_max: int) -> WeightTable:
    """Generate b_0..b_{n_max} for the symbol (1 - xi)^gamma.

    Uses the multiplicative recurrence b_0 = 1, b_j = b_{j-1} (j-1-gamma)/j,
    which is exact at j = 0 and numerically stable for all admissible gamma.
    """
    if not 0.0 < gamma < 2.0:
        raise ValueError(f"order gamma must lie in (0, 2), got {gamma}")
    if not (isinstance(n_max, (int, np.integer)) and n_max >= 0):
        raise ValueError(f"n_max must be an integer >= 0, got {n_max}")
    if n_max + 1 > _MAX_TABLE_LEN:
        raise ConfigurationError(
            f"weight table of length {n_max + 1} exceeds limit {_MAX_TABLE_LEN}")
    j = np.arange(1, n_max + 1, dtype=float)
    w = np.empty(n_max + 1)
    w[0] = 1.0
    if n_max >= 1:
        np.cumprod((j - 1.0 - gamma) / j, out=w[1:])
    return WeightTable(gamma=float(gamma), weights=w)


def lag_block(table: WeightTable, past: np.ndarray, n_first: int,
              count: int, out: np.ndarray | None = None) -> np.ndarray:
    """Rows n = n_first..n_first+count-1 of sum_{i < len(past)} b_{n-i} past[i].

    The one history kernel: a single product against the Toeplitz slice
    W[r, i] = b_{n_first+r-i}, taken as a window view of ``reversed_weights``
    (no gathered copy).  Needs len(past) <= n_first + 1 and
    n_first + count <= len(table).  With count = 1 it is the plain GEMV
    ``reversed_weights[L-1-n_first:L-1] @ past``, bit for bit.  ``out``
    receives the rows when given.
    """
    L, n0 = len(table), len(past)
    # window k starts at b_{n_first+count-1-k}: the rows in reverse order
    win = sliding_window_view(
        table.reversed_weights[L - n_first - count:L - 1 - n_first + n0], n0)
    return np.matmul(win[::-1], past, out=out)


def history_sums(table: WeightTable, U: np.ndarray, N: int):
    """Yield the CQ history sum_{j=1..n} b_j U^{n-j} for n = 1..N in order.

    ``U`` may be filled as the steps go: the n-th value reads only U^0..U^{n-1}.
    Steps come in lag blocks of ``HISTORY_BLOCK``.  At the first step of the
    block that starts after step n0, the lags reaching below U^{n0} are summed
    for the whole block by one product over U^0..U^{n0-1}; each step then adds
    a product over the block's own vectors U^{n0}..U^{n-1}.  In the first
    block that is the whole sum.
    """
    # one buffer holds the far rows of every block; a fresh array per block
    # raised the K=64, N=5120 peak RSS by 19 MB over per-step GEMVs, this one
    # by 6 MB
    buf = np.empty((min(HISTORY_BLOCK, N),) + U.shape[1:])
    for n0 in range(0, N, HISTORY_BLOCK):
        nb = min(HISTORY_BLOCK, N - n0)
        far = lag_block(table, U[:n0], n0 + 1, nb, out=buf[:nb]) if n0 else None
        for n in range(n0 + 1, n0 + nb + 1):
            # the weights depend on the lag only, so the block's own vectors
            # form a sequence of their own
            hist = lag_block(table, U[n0:n], n - n0, 1)[0]
            if far is not None:
                hist += far[n - n0 - 1]
            yield hist


def frac_apply(table: WeightTable, tau: float, seq: np.ndarray) -> np.ndarray:
    """Apply the discrete fractional operator of the table's order to a sequence.

    ``seq`` holds phi^0..phi^n along axis 0 (scalars or vectors); the result
    has the same shape, entry n being tau^(-gamma) sum_j b_j phi^(n-j).
    The input is not modified.  Entries are formed a lag block at a time:
    one product for the lags reaching before the block, and one against the
    lower-triangular Toeplitz matrix of b_0..b_{B-1} for the block's own.
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
    B = min(HISTORY_BLOCK, max(nsteps, 1))
    tri = scipy.linalg.toeplitz(table.weights[:B], np.zeros(B))
    out = np.empty_like(phi)
    for n0 in range(0, nsteps, B):
        nb = min(B, nsteps - n0)
        out[n0:n0 + nb] = tri[:nb, :nb] @ phi[n0:n0 + nb]
        if n0:
            out[n0:n0 + nb] += lag_block(table, phi[:n0], n0, nb)
    out *= tau ** (-table.gamma)
    return out


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
