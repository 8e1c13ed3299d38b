"""Closed-form partition functions via the transfer matrix A N^-beta.

Writing M for the matrix with entries M(x, y) = A(x, y) N(y)^-beta, the
fixed-source-and-target series Z_xy(beta) equals N(x)^-beta times the
(x, y) entry of the Neumann sum of M, so a single linear solve against
I - M evaluates every partition function at once.  The solve is only
meaningful when the spectral radius of M is below 1; divergence is decided
by the spectral radius (computed here, by power iteration), never by
whether the solve happens to succeed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NoConvergenceError
from .model import SystemModel, ColumnSpace, column_space

__all__ = [
    "TransferMatrix",
    "PartitionReport",
    "transfer_matrix",
    "matrix_spectral_radius",
    "spectral_radius",
    "evaluate",
    "z_gamma",
    "restricted_fixed_target",
    "restricted_fixed_pairs",
    "geometric_bound",
    "CONVERGENCE_MARGIN_DEFAULT",
]

CONVERGENCE_MARGIN_DEFAULT = 1e-9
POWER_TOL_DEFAULT = 1e-12
POWER_MAXITER_DEFAULT = 100_000


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    beta: float
    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)


@dataclass(frozen=True, eq=False)
class PartitionReport:
    """Evaluated partition functions at one inverse temperature.

    When ``convergent`` is False the arrays are None and ``z_total`` is
    +inf.  ``near_critical`` flags values computed inside the convergence
    margin band, where conditioning degrades.
    """

    beta: float
    spectral_radius: float
    convergent: bool
    z_total: float
    z_y: np.ndarray | None          # indexed by final letter
    z_xy: np.ndarray | None         # [x, y]: words from x to y
    near_critical: bool
    condition_estimate: float | None

    def __post_init__(self):
        if self.z_y is not None:
            self.z_y.setflags(write=False)
        if self.z_xy is not None:
            self.z_xy.setflags(write=False)


def transfer_matrix(model: SystemModel, beta: float) -> TransferMatrix:
    """M(x, y) = A(x, y) N(y)^-beta; beta = +inf gives the zero matrix."""
    return TransferMatrix(beta=float(beta), entries=model.matrix * model.weights(beta))


def _power_radius(entries: np.ndarray, tol: float, maxiter: int) -> float:
    """Spectral radius by power iteration from the all-ones vector.

    Raises NoConvergenceError when the Rayleigh drift stalls (imprimitive
    matrices make the iterates oscillate) or the iteration budget is spent.
    The stall check compares drift across windows so oscillating inputs
    fail fast instead of burning the full budget.
    """
    m = entries.shape[0]
    v = np.ones(m)
    lam = 0.0
    window = 100
    prev_window_drift = math.inf
    window_drift = math.inf
    for it in range(1, maxiter + 1):
        w = entries @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        w /= norm
        drift = abs(norm - lam)
        lam = norm
        v = w
        window_drift = min(window_drift, drift)
        if drift <= tol * max(1.0, lam):
            return lam
        if it % window == 0:
            if it >= 2 * window and window_drift > 0.5 * prev_window_drift:
                raise NoConvergenceError("power iteration stalled")
            prev_window_drift = window_drift
            window_drift = math.inf
    raise NoConvergenceError("power iteration did not converge")


def matrix_spectral_radius(
    entries: np.ndarray,
    tol: float = POWER_TOL_DEFAULT,
    maxiter: int = POWER_MAXITER_DEFAULT,
) -> float:
    """Spectral radius of a raw nonnegative matrix.

    Power iteration first; on stall (e.g. a 2-cycle, where the iteration
    oscillates) fall back to the full eigenvalue computation.
    """
    if not entries.any():
        return 0.0
    try:
        return _power_radius(entries, tol, maxiter)
    except NoConvergenceError:
        return float(np.abs(np.linalg.eigvals(entries)).max())


def spectral_radius(
    model: SystemModel,
    beta: float,
    tol: float = POWER_TOL_DEFAULT,
    maxiter: int = POWER_MAXITER_DEFAULT,
) -> float:
    """Dominant-eigenvalue modulus of the transfer matrix at beta."""
    return matrix_spectral_radius(transfer_matrix(model, beta).entries, tol, maxiter)


def evaluate(
    model: SystemModel,
    beta: float,
    margin: float = CONVERGENCE_MARGIN_DEFAULT,
) -> PartitionReport:
    """Evaluate Z, Z_y and Z_xy at beta, or flag them divergent.

    Convergent when the spectral radius r of the transfer matrix satisfies
    r < 1 - margin; values with 1 - margin <= r < 1 are still computed but
    flagged ``near_critical``.
    """
    if not (beta > 0):
        raise ValueError("partition functions are defined for beta > 0 or beta = +inf")
    if math.isinf(beta):
        m = model.m
        return PartitionReport(
            beta=beta, spectral_radius=0.0, convergent=True, z_total=1.0,
            z_y=np.zeros(m), z_xy=np.zeros((m, m)),
            near_critical=False, condition_estimate=1.0,
        )
    nw = model.weights(beta)
    tm = model.matrix * nw               # the transfer matrix, from the same weights
    r = matrix_spectral_radius(tm)
    if r >= 1.0:
        return PartitionReport(
            beta=beta, spectral_radius=r, convergent=False, z_total=math.inf,
            z_y=None, z_xy=None, near_critical=False, condition_estimate=None,
        )

    lhs = np.eye(model.m) - tm
    resolvent = np.linalg.solve(lhs, np.eye(model.m))
    z_xy = nw[:, None] * resolvent
    z_y = z_xy.sum(axis=0)
    z_total = 1.0 + float(z_y.sum())

    # Every single-letter word y is admissible, so Z_y >= N(y)^-beta > 0.
    if not (z_y >= nw - 1e-12).all():
        raise AssertionError("fixed-target partition values fell below the single-letter floor")

    return PartitionReport(
        beta=beta,
        spectral_radius=r,
        convergent=True,
        z_total=z_total,
        z_y=z_y,
        z_xy=z_xy,
        near_critical=bool(r >= 1.0 - margin),
        condition_estimate=float(np.linalg.cond(lhs)),
    )


def _ancestors(matrix: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Indices with a directed path into ``targets`` (targets included)."""
    reach = np.zeros(matrix.shape[0], dtype=bool)
    reach[targets] = True
    while True:
        grown = reach | matrix[:, reach].any(axis=1)
        if (grown == reach).all():
            return np.flatnonzero(reach)
        reach = grown


@lru_cache(maxsize=1)
def _restricted_resolvent(model: SystemModel, beta: float, u_key: bytes) -> np.ndarray | None:
    """Z_xy(beta) on the ancestor set U (rows and columns in U), or None if it diverges.

    One entry, keyed by model identity (models compare by identity), beta
    and U: the d extreme states of one temperature share one U whenever
    their targets share ancestors, so each column point costs a slice, not
    a solve.  The spectral radius still decides convergence once per key.
    """
    u = np.frombuffer(u_key, dtype=np.intp)
    sub = transfer_matrix(model, beta).entries[np.ix_(u, u)]
    if matrix_spectral_radius(sub) >= 1.0:
        return None
    resolvent = np.linalg.solve(np.eye(len(u)) - sub, np.eye(len(u)))
    z_xy_sub = model.weights(beta)[u, None] * resolvent
    z_xy_sub.setflags(write=False)
    return z_xy_sub


def restricted_fixed_pairs(
    model: SystemModel, beta: float, targets
) -> tuple[np.ndarray, np.ndarray] | None:
    """Fixed-pair values Z_ax(beta) into the given targets, or None if any diverges.

    Words ending in x only use letters with a path into x, so the series
    for the targets converge exactly when the transfer matrix restricted
    to the union of their ancestor sets has spectral radius below 1; the
    restricted linear solve then evaluates them even when the full matrix
    is supercritical (relevant for reducible matrices).  Returns the
    ancestor set and the (m, len(targets)) array of Z_ax values; rows
    outside the ancestor set are zero, since no word from there reaches a
    target.  The restricted resolvent is solved once per (model, beta,
    ancestor set) and reused by consecutive calls that share it.
    """
    targets = np.asarray(targets, dtype=int)
    u = _ancestors(model.matrix, targets)
    z_xy_sub = _restricted_resolvent(model, beta, u.tobytes())
    if z_xy_sub is None:
        return None
    pos = {int(g): i for i, g in enumerate(u)}
    out = np.zeros((model.m, len(targets)))
    cols = [pos[int(t)] for t in targets]
    out[u[:, None], np.arange(len(targets))[None, :]] = z_xy_sub[:, cols]
    return u, out


def restricted_fixed_target(model: SystemModel, beta: float, targets) -> np.ndarray | None:
    """Fixed-target values Z_x(beta) for the given targets, or None if any diverges."""
    pairs = restricted_fixed_pairs(model, beta, targets)
    if pairs is None:
        return None
    _, z_ax = pairs
    return z_ax.sum(axis=0)


def z_gamma(
    model: SystemModel,
    beta: float,
    weights,
    space: ColumnSpace | None = None,
) -> float:
    """Normalizer Z(beta, gamma) for a root measure gamma over column points.

    Equals gamma's total mass plus sum_x Z_x(beta) gamma(points containing x).
    Only the fixed-target series actually carrying mass matter: +inf is
    returned exactly when one of those diverges, so a measure supported on
    a subcritical block of a reducible matrix keeps a finite normalizer.
    A zero measure gives 0; ``beta = +inf`` reduces to the total mass.
    """
    space = space or column_space(model)
    w = np.asarray(weights, dtype=float)
    if w.shape != (space.d,):
        raise ValueError(f"weights must have one entry per column point ({space.d})")
    if (w < 0).any():
        raise ValueError("root-measure weights must be nonnegative")
    total = float(w.sum())
    if total == 0.0:
        return 0.0
    if math.isinf(beta) and beta > 0:
        return total
    bits = space.bit_matrix()            # (d, m)
    mass_per_generator = bits.T @ w      # gamma(points containing x), per x
    needed = np.flatnonzero(mass_per_generator > 0)
    if needed.size == 0:
        return total
    z_needed = restricted_fixed_target(model, beta, needed)
    if z_needed is None:
        return math.inf
    return total + float(z_needed @ mass_per_generator[needed])


def geometric_bound(model: SystemModel, beta: float) -> float | None:
    """Bound Z(beta) <= 1 / (1 - s) with s = sum_x N(x)^-beta, when s < 1.

    Returns None when the bound does not apply (s >= 1).
    """
    if not (0 < beta < math.inf):
        raise ValueError("geometric bound is defined for finite positive beta")
    s = float(model.weights(beta).sum())
    if s < 1.0:
        return 1.0 / (1.0 - s)
    return None
