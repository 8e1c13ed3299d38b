"""Critical inverse temperatures from the spectral radius of A N^-beta.

For a finite matrix all three Dirichlet abscissas (unrestricted, fixed
target, fixed source and target) coincide, and for irreducible A the
common critical value beta_c is the unique root of r(beta) = 1, where
r is the spectral radius of the transfer matrix (from :mod:`partition`).
r is continuous and strictly decreasing in beta (every energy exceeds 1
and A carries a cycle), so bisection is exact and derivative-free.  One
uncapped bracket, :func:`_bisect`, reads every critical temperature:
beta_c, the quotient temperatures of ``classify.oa_beta_scan`` and the
shell-ratio root of :func:`abscissa_estimate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import words
from .errors import NoConvergenceError, NotIrreducibleError, DegenerateShellsError
from .model import SystemModel, properties
from .partition import matrix_spectral_radius, spectral_radius, transfer_matrix

__all__ = [
    "CriticalReport",
    "AbscissaEstimate",
    "spectral_radius",
    "matrix_spectral_radius",
    "beta_c",
    "abscissa_estimate",
    "perron_vector",
    "BISECT_TOL_DEFAULT",
]

BISECT_TOL_DEFAULT = 1e-10


@dataclass(frozen=True, eq=False)
class CriticalReport:
    """Critical temperature data for a finite system.

    ``coincide`` records that the three abscissas agree (always true for a
    finite generator set).  ``permutation_like`` marks systems whose
    spectral radius already sits at 1 for beta = 0, so the critical regime
    is unreachable inside (0, inf) and every positive beta is supercritical.
    """

    beta_c: float
    interval_open_at_left: bool
    coincide: bool
    perron_at_critical: np.ndarray | None
    permutation_like: bool
    bracket_width: float

    def __post_init__(self):
        if self.perron_at_critical is not None:
            self.perron_at_critical.setflags(write=False)

    def regime(self, beta: float) -> str:
        """"critical" within max(bracket_width, 1e-12) of beta_c, else "below" or "above"."""
        if not self.permutation_like and abs(beta - self.beta_c) <= max(self.bracket_width, 1e-12):
            return "critical"
        return "below" if beta < self.beta_c else "above"


class AbscissaEstimate(NamedTuple):
    estimate: float
    residual: float


def _bisect(above, tol: float) -> tuple[float, float]:
    """Bracket [lo, hi] of the beta where a decreasing predicate turns false.

    ``above`` holds at 0 (the caller checks).  hi doubles from 1 while
    ``above(hi)``, raising NoConvergenceError only if it overflows; then
    the bracket is halved while wider than ``tol`` and while its midpoint
    still splits it (far out, one ulp of beta can exceed ``tol``).
    """
    hi = 1.0
    while above(hi):
        hi *= 2.0
        if math.isinf(hi):
            raise NoConvergenceError("failed to bracket the root")
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if above(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def beta_c(
    model: SystemModel,
    tol: float = BISECT_TOL_DEFAULT,
) -> CriticalReport:
    """Locate the critical inverse temperature by bisection on r(beta) = 1.

    r(0) >= 1 always (row sums of A are at least 1) and r decreases to 0,
    so a bracket always exists.  When r(0) is already ~1 the system is
    permutation-like: beta_c is clamped to 0 and flagged.
    """
    r0 = spectral_radius(model, 0.0)
    if r0 <= 1.0 + tol:
        return CriticalReport(
            beta_c=0.0, interval_open_at_left=True, coincide=True,
            perron_at_critical=None, permutation_like=True, bracket_width=0.0,
        )
    lo, hi = _bisect(lambda b: spectral_radius(model, b) >= 1.0, tol)
    bc = 0.5 * (lo + hi)

    perron = None
    if properties(model).irreducible:
        perron = perron_vector(model, bc)
    return CriticalReport(
        beta_c=bc, interval_open_at_left=True, coincide=True,
        perron_at_critical=perron, permutation_like=False, bracket_width=hi - lo,
    )


def abscissa_estimate(
    model: SystemModel,
    L: int,
    cap: int = words.WORD_CAP_DEFAULT,
) -> AbscissaEstimate:
    """Empirical critical temperature from the shell-sum growth rate.

    Estimates the abscissa as the root in beta of
    shell_sum(beta, L) / shell_sum(beta, L-1) = 1: below the abscissa the
    shells grow, above they shrink.  Purely enumerative, so it serves as an
    independent cross-check of :func:`beta_c`.  The words of lengths up to L
    are enumerated once; each beta replays them, and both shell sums equal
    :func:`words.shell_sum` bit for bit.
    """
    if L < 2:
        raise ValueError("need at least two shells")
    tree = words._word_tree(model, L, cap=cap)
    if words._shell_sums(model, tree, 0.0, first=L)[0] == 0.0:
        raise DegenerateShellsError("empty shell at beta = 0")

    def g(b: float) -> float:
        shorter, longer = words._shell_sums(model, tree, b, first=L - 1)
        return longer / shorter - 1.0

    if g(0.0) <= 0.0:
        return AbscissaEstimate(estimate=0.0, residual=g(0.0))
    lo, hi = _bisect(lambda b: g(b) > 0.0, BISECT_TOL_DEFAULT)
    est = 0.5 * (lo + hi)
    return AbscissaEstimate(estimate=est, residual=g(est))


def perron_vector(model: SystemModel, beta: float) -> np.ndarray:
    """Strictly positive dominant eigenvector of the transfer matrix.

    Normalized so that sum_x N(x)^-beta v_x = 1 (the normalization carried
    by critical KMS states); requires an irreducible matrix, which makes the
    vector unique and strictly positive.
    """
    if not properties(model).irreducible:
        raise NotIrreducibleError("the Perron vector needs an irreducible matrix")
    entries = transfer_matrix(model, beta).entries
    vals, vecs = np.linalg.eig(entries)
    r = float(np.abs(vals).max())
    # The dominant eigenvalue of an irreducible nonnegative matrix is real
    # and simple; pick it among the peripheral eigenvalues.
    candidates = [
        i for i in range(len(vals))
        if abs(abs(vals[i]) - r) <= 1e-9 * max(r, 1.0) and abs(vals[i].imag) <= 1e-9 * max(r, 1.0)
    ]
    if not candidates:
        raise NoConvergenceError("no real peripheral eigenvalue found")
    i = candidates[int(np.argmax([vals[i].real for i in candidates]))]
    v = vecs[:, i].real
    if v.sum() < 0:
        v = -v
    if v.min() < -1e-9 * abs(v).max():
        raise NoConvergenceError("dominant eigenvector is not sign-definite")
    v = np.clip(v, 0.0, None)
    scale = float(model.weights(beta) @ v)
    if scale <= 0:
        raise NoConvergenceError("degenerate eigenvector normalization")
    v = v / scale
    residual = np.abs(entries @ v - r * v).max() / max(abs(v).max(), 1.0)
    if residual > 1e-8:
        raise NoConvergenceError(f"eigenvector residual {residual} too large")
    return v
