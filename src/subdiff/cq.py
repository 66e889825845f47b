"""Backward Euler convolution quadrature weights and discrete fractional operators.

The discrete fractional derivative of order gamma acting on a sequence
phi^0..phi^n on a uniform grid with step tau is

    (D^gamma phi)^n = tau^(-gamma) * sum_{j=0..n} b_j phi^(n-j),

where the b_j are the power-series coefficients of (1 - xi)^gamma.  For the
subdiffusion model gamma is the Caputo order alpha in (0,1).  Weights of
orders up to 2 can be generated, so that composed tables (e.g. order 1-alpha
after order alpha) can be formed and tested.  The history sum applies them to
sequences of up to HISTORY_BLOCK + 1 entries; longer ones need the far-lag
fit of :func:`soe_fit`, which takes orders in (0,1) only.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.special import roots_jacobi, roots_legendre

from .errors import ConfigurationError, is_int

__all__ = [
    "TimeGrid",
    "WeightTable",
    "gen_weights",
    "History",
    "frac_apply",
    "rl_integral_oracle",
]

# Guard against absurd table sizes before allocating (about 1 GB of floats).
_MAX_TABLE_LEN = 2**27

# Steps per lag block: a block sums its far lags once, as one GEMM, while its
# own vectors stay in cache.  History.next over N=5120 steps at K=64 took
# 326/311/341/658 ms for blocks of 32/48/64/128, and over N=320 at K=128
# 71/80/94/142 ms (2-core Xeon, 1 BLAS thread); at 48 the block buffer is
# 1.5 MB at K=64 and 6.3 MB at K=128.  Runs of N <= 48, such as the K=16
# golden tables' N=40 cells, use no far-lag fit.
HISTORY_BLOCK = 48

# N times the end of the first far-lag quadrature panel [0, lo]: there the
# factor (1-u)^(j-1) of every lag j <= N falls at most to exp(-0.512), smooth
# enough for the 12-node rule.  A 100x smaller lo adds 48 modes and gains
# little: a worst relative weight error of 2.70e-12 against 2.95e-12.
SOE_LO_N = 0.512


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N steps, t_n = n * tau."""

    T: float
    N: int

    def __post_init__(self):
        if not 0.0 < self.T < math.inf:
            raise ConfigurationError(f"final time must be positive and finite, got {self.T}")
        if not (is_int(self.N) and self.N >= 1):
            raise ConfigurationError(f"step count must be an integer >= 1, got {self.N}")

    @property
    def tau(self) -> float:
        return self.T / self.N


@dataclass(frozen=True)
class WeightTable:
    """Coefficients b_0..b_n of (1 - xi)^gamma, immutable after construction.

    ``partial_sums[n]`` is s_n = sum_{j<=n} b_j (the coefficients of
    (1 - xi)^(gamma-1)); ``reversed_weights`` is a contiguous reversed copy,
    whose slices are the history GEMV's weight rows.
    """

    gamma: float
    weights: np.ndarray
    partial_sums: np.ndarray = field(init=False, repr=False)
    reversed_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        for name, arr in (("weights", w), ("partial_sums", np.cumsum(w)),
                          ("reversed_weights", w[::-1].copy())):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
    if not (is_int(n_max) and n_max >= 0):
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


def soe_fit(gamma: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s_k and weights w_k with b_j ~= sum_k w_k s_k^(j-1) for 1 <= j <= N.

    With u = 1 - s, b_j = -(sin(pi gamma)/pi) int_0^1 (1-u)^(j-1-gamma) u^gamma du.
    Quadrature: 12-node Gauss-Jacobi with weight u^gamma on [0, lo], where
    lo = SOE_LO_N / N; 8-node Gauss-Legendre on the dyadic panels from lo up
    to 0.5; 12-node Gauss-Jacobi with weight (1-u)^(-gamma) on [0.5, 1].
    That is 72 modes at N = 49, 96 at N = 320 and 128 at N = 5120.  The
    worst relative weight error is 3.25e-12 (N = 66, gamma = 0.95) over N
    from 49, the smallest N that uses the fit, to 128 and gamma from 0.05 to
    0.95, and below 2.95e-12 for N from 129 to 20480.  For gamma >= 1 the
    integral of b_1 diverges.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"the far-lag fit needs an order in (0, 1), got {gamma}")
    lo = SOE_LO_N / N
    x, q = roots_jacobi(12, 0.0, gamma)
    u = [lo * (1.0 + x) / 2.0]
    w = [(lo / 2.0) ** (gamma + 1.0) * q * (1.0 - u[0]) ** -gamma]
    edges = np.minimum(lo * 2.0 ** np.arange(math.ceil(math.log2(0.5 / lo)) + 1), 0.5)
    x, q = roots_legendre(8)
    h = np.diff(edges)[:, None] / 2.0
    u.append((edges[:-1, None] + h * (1.0 + x)).ravel())
    w.append((h * q).ravel() * u[1] ** gamma * (1.0 - u[1]) ** -gamma)
    x, q = roots_jacobi(12, -gamma, 0.0)
    u.append(0.75 + 0.25 * x)
    w.append(0.25 ** (1.0 - gamma) * q * u[2] ** gamma)
    c = -math.sin(math.pi * gamma) / math.pi
    return 1.0 - np.concatenate(u), c * np.concatenate(w)


class History:
    """The CQ history sum_{j=1..n} b_j U^{n-j}, streamed for n = 1..N.

    ``next(U^{n-1})`` records U^{n-1} and returns the sum of step n.  Steps
    come in lag blocks of ``HISTORY_BLOCK``.  In the block of steps
    n0+1..n0+nb, lags within the block's own vectors U^{n0}..U^{n-1} take the
    exact weights in one GEMV, so runs of N <= HISTORY_BLOCK are unchanged
    bit for bit.  Lags reaching below U^{n0} take the fit of :func:`soe_fit`
    through the modes G_k = sum_{i<n0} s_k^(n0-i) U^i: the block's far rows
    are one product F @ G, with F[r, k] = w_k s_k^r, and at the next block
    G <- s^nb G + E @ U^{n0..n0+nb-1}, with E[k, i] = s_k^(nb-i).  Only G and
    one (nb+1)-row buffer are kept, whatever N is.  G is allocated as zeros
    by the first far-lag block (step HISTORY_BLOCK + 1), not before, so a
    run's startup factor can be freed before it exists; with N <=
    HISTORY_BLOCK it is never made and ``modes`` stays None.
    """

    def __init__(self, table: WeightTable, N: int, dim: int):
        self.table, self.N, self.n = table, N, 0
        # rows 0..r hold the block's vectors U^{n0}..U^{n0+r}; the block's far
        # row r sits at row r+1 until U^{n0+r+1} replaces it
        self.buf = np.empty((min(HISTORY_BLOCK, N) + 1, dim))
        if N > HISTORY_BLOCK:
            s, w = soe_fit(table.gamma, N)
            r = np.arange(HISTORY_BLOCK)
            self.far_w = w * s ** r[:, None]
            self.push_w = s[:, None] ** (HISTORY_BLOCK - r)  # column 0 is s^nb
        self.modes = None  # G, allocated by the first far-lag block

    def next(self, u: np.ndarray) -> np.ndarray:
        """Record U^{n-1} = u and return the history sum of step n."""
        B, buf, L = HISTORY_BLOCK, self.buf, len(self.table)
        r, n0 = self.n % B, self.n - self.n % B
        if n0 and not r:
            if n0 == B:
                self.modes = np.zeros((len(self.push_w), buf.shape[1]))
            # G in place: a temporary of its size raised the iis peak RSS
            self.modes *= self.push_w[:, :1]
            dgemm(1.0, buf[:B].T, self.push_w.T, beta=1.0, c=self.modes.T,
                  overwrite_c=True)
            nb = min(B, self.N - n0)
            np.matmul(self.far_w[:nb], self.modes, out=buf[1:nb + 1])
        buf[r] = u
        self.n += 1
        hist = self.table.reversed_weights[L - 2 - r:L - 1] @ buf[:r + 1]
        if n0:
            hist += buf[r + 1]
        return hist


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
