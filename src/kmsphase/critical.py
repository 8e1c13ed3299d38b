"""Critical inverse temperatures from the spectral radius of A N^-beta.

For a finite matrix all three Dirichlet abscissas (unrestricted, fixed
target, fixed source and target) coincide, and for irreducible A the
common critical value beta_c is the unique root of r(beta) = 1, where
r is the spectral radius of the transfer matrix.  For reducible A, r is
the largest radius of a strong class, so beta_c is the largest of the
class roots.  :func:`matrix_spectral_radius` computes r so for every
matrix, class by class, and :func:`partition.perron_pair` the Perron
pairs, both on the ladder :mod:`partition` describes: a power iteration,
then a certified dense rung where it gives up.

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

The shell-ratio root of :func:`abscissa_estimate` is enumerative and has
no derivative at hand; :func:`_itp` brackets it by an ITP search
(Oliveira and Takahashi, *ACM TOMS* 2020) with the published defaults,
which never takes more steps than bisection plus one.  Each probe replays
the word tree once and takes its sign, that of S_L - S_{L-1}, from
certified brackets of the plain numpy shell sums; its interpolation is
steered by log(R_L / R_{L-1}) of those plain sums.  A probe whose brackets
overlap first asks its neighbours at -+ tol / 2, and only where they do
not decide does it take the exactly rounded sums.  So every sign is the
one the exact sums give, and on models of about 10^4 words a search
takes 11 to 15 replays and the exact sums only at the estimate, for the
printed residual.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import words
from .errors import NoConvergenceError, NotIrreducibleError, DegenerateShellsError
from .model import SystemModel, check_beta
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


def _itp(probe, tol: float, steer_at_zero: float | None = None) -> tuple[float, float]:
    """Bracket [lo, hi] of a sign change of a predicate that holds at 0.

    ``probe(b)`` returns ``(above, steer, exact)``: the predicate at b as a
    cheap test decides it (None where that test cannot tell), a value of
    the sign of that decision that steers the interpolation (None for
    none), and a callable whose value is positive exactly where the
    predicate holds; ``exact`` is called only where ``above`` is None, and
    its value then steers.  ``steer_at_zero`` is the steer at 0.

    hi doubles from 1 while the predicate holds at hi, raising
    NoConvergenceError only if it overflows; the last doubling found it
    holding at hi / 2, so the search starts from [hi / 2, hi] (from [0, 1]
    when it fails at 1).  Each step probes the ITP point (Oliveira and
    Takahashi, *ACM TOMS* 47(1), 2020) with kappa1 = 0.2 / (b - a),
    kappa2 = 2 and n0 = 1: the regula falsi point of the steers at lo and
    hi, moved toward the midpoint by kappa1 w^2 and projected into the
    ball around the midpoint that keeps the bracket within its budget, so
    no more steps are taken than by bisection plus one.  The search stops
    once hi - lo <= ``tol`` or no float lies strictly between lo and hi
    (far out, one ulp of beta can exceed ``tol``).

    A probe x that the cheap test cannot decide is replaced by its
    neighbours at x -+ tol / 2, clamped into [lo, hi] and at least an ulp
    from x: when they decide a sign change, their interval is the final
    bracket.  Only when they do not is ``exact`` called at x; the cheap
    test then cannot tell over more than tol around the root, so later
    probes it cannot decide call ``exact`` at once.
    """
    def settle(above, steer, exact):
        if above is None:
            steer = exact()
            return steer > 0.0, steer
        return above, steer

    hi = 1.0
    above, steer = settle(*probe(hi))
    f_lo = steer_at_zero
    while above:
        f_lo = steer
        hi *= 2.0
        if math.isinf(hi):
            raise NoConvergenceError("failed to bracket the root")
        above, steer = settle(*probe(hi))
    lo, f_hi = (0.5 * hi if hi > 1.0 else 0.0), steer

    width = hi - lo
    # Each rounded midpoint may widen the bracket by half an ulp of hi, so
    # the budget aims 2 ulps inside tol; where that leaves nothing, every
    # step is the midpoint.
    spare = tol - 2.0 * math.ulp(hi)
    budget = 1  # the bisection's steps, then n0 = 1 more
    while spare > 0.0 and math.ldexp(spare, budget - 1) < width:
        budget += 1
    try_neighbours = True
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        w = hi - lo
        x_f = mid
        if f_lo is not None and f_hi is not None and f_lo != f_hi:
            x_f = lo + w * (f_lo / (f_lo - f_hi))  # regula falsi
        delta = 0.2 * w * (w / width)
        x_t = x_f + math.copysign(delta, mid - x_f) if delta <= abs(mid - x_f) else mid
        # the projection: both parts of the split bracket within this step's
        # budget, checked in the arithmetic of the stopping test
        budget -= 1
        cap = math.ldexp(spare, budget)
        x = min(max(x_t, hi - cap), lo + cap)
        if not (lo < x < hi and x - lo <= cap and hi - x <= cap):
            x = mid
        above, steer, exact = probe(x)
        if above is None and try_neighbours:
            try_neighbours = False
            left = max(lo, min(x - 0.5 * tol, math.nextafter(x, -math.inf)))
            right = min(hi, max(x + 0.5 * tol, math.nextafter(x, math.inf)))
            if ((left == lo or probe(left)[0] is True)
                    and (right == hi or probe(right)[0] is False)):
                return left, right
        above, steer = settle(above, steer, exact)
        if above:
            lo, f_lo = x, steer
        else:
            hi, f_hi = x, steer
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
    if model.strong_components[0] == 1:
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
    are enumerated once, and each beta replays them once and reads the last
    two levels.  beta = 0 and each probe of the ITP search (:func:`_itp`)
    decide on certified brackets of the plain sums of those levels; a probe
    whose brackets overlap asks its neighbours at -+ BISECT_TOL_DEFAULT / 2
    and, where they do not decide, takes the exact sums of its own levels.
    So each decision is the one the exact sums give, and the estimate, the
    midpoint of the final bracket of width at most BISECT_TOL_DEFAULT, is
    a sign change of the exact ratio.  The exact sums at beta = 0 (taken
    only when its brackets overlap or the estimate is 0) and at the
    estimate equal :func:`words.shell_sum` bit for bit; the residual is the
    exact g at the estimate.  Raises DegenerateShellsError when both shells
    underflow to 0 where their ratio is needed.
    """
    if L < 2:
        raise ValueError("need at least two shells")
    _, tree = words._word_tree(model, L, cap=cap)

    def last_two(b: float) -> deque:
        return deque(words._replay(model, tree, b), maxlen=2)

    def g(shells: deque) -> float:
        shorter, longer = (words._exact(level, w) for level, w in shells)
        if shorter == 0.0:
            raise DegenerateShellsError("both shells underflow to 0")
        return longer / shorter - 1.0

    def probe(b: float):
        # For positive finite floats, longer / shorter - 1.0 > 0 exactly when
        # longer > shorter: longer is then at least shorter plus one of its
        # ulps, so the quotient exceeds 1 + 2^-53 and rounds above 1.  So
        # disjoint brackets of the exact shells (words._enclosure) decide; a
        # zero or non-finite plain sum gets [0, inf], and the exact g then
        # runs as it always did, errors included.  Disjoint brackets also
        # steer, by log(R_L / R_{L-1}) of the plain sums read off their upper
        # ends (whose factors 1 + rel differ by less than 1e-9), which has
        # the sign of their decision; where they overlap, g steers once the
        # search asks for it (it agrees with that log to within g^2).
        shells = last_two(b)
        (lo_s, hi_s), (lo_l, hi_l) = (words._enclosure(w) for _, w in shells)
        if lo_l > hi_s or hi_l < lo_s:
            return lo_l > hi_s, math.log(hi_l) - math.log(hi_s), lambda: g(shells)
        return None, None, lambda: g(shells)

    above, steer, exact = probe(0.0)
    if above is not True:
        # g(0) decides where the brackets overlap, and it is the residual
        # of an estimate of 0
        steer = exact()
        if steer <= 0.0:
            return AbscissaEstimate(estimate=0.0, residual=steer)
    lo, hi = _itp(probe, BISECT_TOL_DEFAULT, steer)
    est = 0.5 * (lo + hi)
    return AbscissaEstimate(estimate=est, residual=g(last_two(est)))


def perron_vector(model: SystemModel, beta: float) -> np.ndarray:
    """Strictly positive dominant eigenvector of the transfer matrix.

    Normalized so that sum_x N(x)^-beta v_x = 1 (the normalization carried
    by critical KMS states); requires an irreducible matrix, which makes the
    vector unique and strictly positive.  The vector comes from
    :func:`partition.perron_pair`, started from the Perron pair that the
    model's one class root (:func:`partition.class_roots`) kept at its
    last Newton iterate, so at beta_c it takes about one check;
    NoConvergenceError is raised when its Collatz-Wielandt bounds are more
    than ``PERRON_VECTOR_TOL`` apart relative to r, since then Mv = rv
    holds no better than that.  Raises ValueError for a beta that is not
    finite: at +inf the transfer matrix is zero and no vector can be normalized.
    """
    check_beta(beta, "(-inf, inf)")
    if model.strong_components[0] != 1:
        raise NotIrreducibleError("the Perron vector needs an irreducible matrix")
    start = class_roots(model)[0].pair
    v = _certified_vector(perron_pair(transfer_matrix(model, beta).entries, start))
    return v / float(model.weights(beta) @ v)


def _certified_vector(pair: PerronPair) -> np.ndarray:
    """The right vector of ``pair``, or NoConvergenceError when its
    Collatz-Wielandt bounds are more than ``PERRON_VECTOR_TOL`` apart
    relative to r."""
    if pair.upper - pair.lower > PERRON_VECTOR_TOL * pair.upper:
        raise NoConvergenceError(
            f"Perron vector bounds [{pair.lower!r}, {pair.upper!r}] did not meet")
    return pair.v
