"""Critical inverse temperatures from the spectral radius of A N^-beta.

For a finite matrix all three Dirichlet abscissas (unrestricted, fixed
target, fixed source and target) coincide, and for irreducible A the
common critical value beta_c is the unique root of r(beta) = 1, where
r is the spectral radius of the transfer matrix (from :mod:`partition`).
For reducible A, r is the largest radius of a strong class, so beta_c is
the largest of the class roots.

Each class root is found once per model by Newton on
f(beta) = log r_C(beta) (:func:`partition.class_roots`).  Every entry of
the transfer matrix is log-linear in beta, so f is convex (Kingman, "A
convexity property of positive matrices", 1961): Newton started at
beta = 0, whose first step reaches at least the certified left end
log r(A_CC) / log N_max, climbs monotonically and converges
quadratically, in about five radius evaluations.  The Collatz-Wielandt
bounds min(Mv/v) <= r <= max(Mv/v) at the last iterate (Seneta,
*Non-negative Matrices and Markov Chains*, ch. 1), with r scaling by at
most N_min^-t when beta moves by t, enclose the root in a certified
[lo, hi]; ``bracket_width`` reports hi - lo, and Newton stops once it is
below ``BISECT_TOL_DEFAULT`` (the name kept from the bisection it
replaced) or at the rounding floor of the radius.

:func:`_bisect` remains only for the shell-ratio root of
:func:`abscissa_estimate`, whose function is enumerative and has no
derivative at hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import words
from .errors import NoConvergenceError, NotIrreducibleError, DegenerateShellsError
from .model import SystemModel, properties
from .partition import (
    BISECT_TOL_DEFAULT,
    PerronPair,
    class_roots,
    matrix_spectral_radius,
    perron_pair,
    spectral_radius,
    transfer_matrix,
)

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


# Relative width of the Collatz-Wielandt bounds a Perron vector may carry.
PERRON_VECTOR_TOL = 1e-8


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
    ``above(hi)``, raising NoConvergenceError only if it overflows; the
    last doubling found ``above(hi / 2)``, so bisection starts from
    [hi / 2, hi] and halves it while wider than ``tol`` and while its
    midpoint still splits it (far out, one ulp of beta can exceed ``tol``).
    """
    hi = 1.0
    while above(hi):
        hi *= 2.0
        if math.isinf(hi):
            raise NoConvergenceError("failed to bracket the root")
    lo = 0.5 * hi if hi > 1.0 else 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if above(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def beta_c(model: SystemModel) -> CriticalReport:
    """The critical inverse temperature: the largest certified class root.

    r(0) >= 1 always (row sums of A are at least 1) and r decreases to 0,
    so a root exists unless r(0) = 1.  That happens exactly when no class
    has a root (every class a single cycle or a single letter, see
    :class:`partition.ClassRoot`); the system is then permutation-like:
    beta_c is clamped to 0 and flagged.  The reported bracket is
    [max lo, max hi] over the classes.
    """
    roots = [c for c in class_roots(model) if c.beta is not None]
    if not roots:
        return CriticalReport(
            beta_c=0.0, interval_open_at_left=True, coincide=True,
            perron_at_critical=None, permutation_like=True, bracket_width=0.0,
        )
    top = max(roots, key=lambda c: c.beta)
    lo = max(c.lo for c in roots)
    hi = max(c.hi for c in roots)

    perron = None
    if properties(model).irreducible:
        perron = perron_vector(model, top.beta)
    return CriticalReport(
        beta_c=top.beta, interval_open_at_left=True, coincide=True,
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
    vector unique and strictly positive.  The vector comes from
    :func:`partition.perron_pair`; NoConvergenceError is raised when its
    Collatz-Wielandt bounds are more than ``PERRON_VECTOR_TOL`` apart
    relative to r, since then Mv = rv holds no better than that.
    """
    if not properties(model).irreducible:
        raise NotIrreducibleError("the Perron vector needs an irreducible matrix")
    v = _certified_vector(perron_pair(transfer_matrix(model, beta).entries))
    return v / float(model.weights(beta) @ v)


def _certified_vector(pair: PerronPair) -> np.ndarray:
    """The right vector of ``pair``, or NoConvergenceError when its
    Collatz-Wielandt bounds are more than ``PERRON_VECTOR_TOL`` apart
    relative to r."""
    if pair.upper - pair.lower > PERRON_VECTOR_TOL * pair.upper:
        raise NoConvergenceError(
            f"Perron vector bounds [{pair.lower!r}, {pair.upper!r}] did not meet")
    return pair.v
