"""Closed-form partition functions via the transfer matrix A N^-beta.

Writing M for the matrix with entries M(x, y) = A(x, y) N(y)^-beta, the
fixed-source-and-target series Z_xy(beta) equals N(x)^-beta times the
(x, y) entry of the Neumann sum of M, so a single linear solve against
I - M evaluates every partition function at once.  The solve is only
meaningful when the spectral radius of M is below 1; divergence is decided
by the spectral radius (computed here, by power iteration), never by
whether the solve happens to succeed.

M is block-triangular in the strong classes C of A, so r(beta) is the
largest class radius r_C(beta) = r(M_CC); :func:`spectral_radius` and
:func:`evaluate` compute it so.  :func:`class_roots` keeps, per
model, each class's root of r_C(beta) = 1 with a certified enclosure
[lo, hi] (Newton on log r_C, see :func:`_class_root`).  A series
restricted to an ancestor set is convergent when beta lies above hi for
every class in the set; inside an enclosure it counts as divergent.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NoConvergenceError
from .model import SystemModel, ColumnSpace, column_space

__all__ = [
    "TransferMatrix",
    "PartitionReport",
    "PerronPair",
    "ClassRoot",
    "transfer_matrix",
    "matrix_spectral_radius",
    "spectral_radius",
    "perron_pair",
    "class_roots",
    "evaluate",
    "z_gamma",
    "restricted_fixed_target",
    "restricted_fixed_pairs",
    "geometric_bound",
    "CONVERGENCE_MARGIN_DEFAULT",
    "BISECT_TOL_DEFAULT",
]

CONVERGENCE_MARGIN_DEFAULT = 1e-9
POWER_TOL_DEFAULT = 1e-12
POWER_MAXITER_DEFAULT = 100_000
# Newton stops once its certified enclosure of a root is narrower than this;
# the name is kept from the bisection it replaced (printed as
# ``settings.bisect_tol``).
BISECT_TOL_DEFAULT = 1e-10
# The power iteration takes the Collatz-Wielandt bounds every CHECK_STEPS
# steps at first, stretches that interval, up to MAX_BLOCK, to the
# contraction it has seen, and takes the gap to be rounding once
# STAGNATION_CHECKS checks in a row have not shrunk it.
CHECK_STEPS = 4
STAGNATION_CHECKS = 3
MAX_BLOCK = 32
# Newton on log r computes the Perron pair to a relative gap of
# INEXACT_FACTOR * f^2, f being the previous iterate's log r, until that
# falls below POWER_TOL_DEFAULT (see :func:`_class_root`).
INEXACT_FACTOR = 1e-1
# Power steps a restricted series spends looking for a Collatz-Wielandt bound
# below 1 before it reads the class roots (see :func:`_certified_below_one`).
QUICK_STEPS = 16
_EPS = float(np.finfo(float).eps)


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


def _power_iteration(
    entries: np.ndarray, v: np.ndarray, u: np.ndarray | None, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, float, float]:
    """Power iteration on I + M for the right vector v and, unless u is None, the left u.

    I + M is primitive whenever M is irreducible, so the iterates converge
    whatever the period of M.  Returns (v, Mv, u, lower, upper), with the
    Collatz-Wielandt bounds lower = min(Mv/v) <= r <= max(Mv/v) = upper,
    valid for every positive v (up to the rounding of one product).  In
    exact arithmetic they tighten monotonically under the iteration.  At
    each check it stops if the right gap (and the left one) is within
    ``tol`` of upper, or if the larger gap has not shrunk for
    ``STAGNATION_CHECKS`` checks: what is left then is rounding, or for a
    reducible M a lower bound held below r by a class of smaller radius.
    Otherwise it runs as many steps as the contraction since the last
    check says the gap needs to reach ``tol`` (``CHECK_STEPS`` at first and
    after a check that did not shrink it, at most ``MAX_BLOCK``).  Raises
    NoConvergenceError once ``POWER_MAXITER_DEFAULT`` steps are spent.
    """
    best, stale, block, steps = math.inf, 0, CHECK_STEPS, 0
    while steps < POWER_MAXITER_DEFAULT:
        mv = entries @ v
        ratios = mv / v
        lower, upper = float(ratios.min()), float(ratios.max())
        gap = upper - lower
        if u is not None:
            um = u @ entries
            left = um / u
            gap = max(gap, float(left.max() - left.min()))
        if gap <= tol * upper:
            return v, mv, u, lower, upper
        gap /= upper
        if gap < best:
            if best < math.inf:
                # as many steps as the last block's contraction needs to reach
                # tol (or one ulp: no gap below that is reached anyway)
                needed = block * math.log(max(tol, _EPS) / gap) / math.log(gap / best)
                block = min(MAX_BLOCK, max(1, math.ceil(needed)))
            best, stale = gap, 0
        else:
            stale, block = stale + 1, CHECK_STEPS
            if stale >= STAGNATION_CHECKS:
                return v, mv, u, lower, upper
        v = mv + v
        for _ in range(block - 1):
            v += entries @ v
        v /= v.max()
        if u is not None:
            u = um + u
            for _ in range(block - 1):
                u += u @ entries
            u /= u.max()
        steps += block
    raise NoConvergenceError("power iteration did not converge")


def matrix_spectral_radius(entries: np.ndarray) -> float:
    """Spectral radius of a raw nonnegative matrix.

    The Collatz-Wielandt upper bound max(Mv/v) of the power iteration on
    I + M (see :func:`_power_iteration`), within ``POWER_TOL_DEFAULT`` of r
    for an irreducible M.  For a reducible M the upper bound still
    decreases to r and is returned once the bounds stop tightening; two
    classes of the same radius, one reaching the other, slow that to a
    crawl, and when the step budget runs out the eigenvalues decide.
    :func:`spectral_radius` avoids that by taking a model's strong classes
    one at a time.
    """
    if not entries.any():
        return 0.0
    try:
        return _power_iteration(entries, np.ones(entries.shape[0]), None, POWER_TOL_DEFAULT)[4]
    except NoConvergenceError:
        return float(np.abs(np.linalg.eigvals(entries)).max())


class PerronPair(NamedTuple):
    """Perron root of an irreducible nonnegative matrix M with its certificate.

    ``v`` and ``u`` are the right and left Perron vectors, strictly positive
    with largest entry 1.  ``lower`` and ``upper`` are the Collatz-Wielandt
    bounds min(Mv/v) <= r <= max(Mv/v), valid for every positive v (up to
    the rounding of one product); ``r`` is the two-sided Rayleigh quotient
    u'Mv / u'v clipped into them.  The iteration may stop at rounding with
    [lower, upper] wider than asked, so callers that need the vector to a
    given accuracy check the width.
    """

    r: float
    v: np.ndarray
    u: np.ndarray
    lower: float
    upper: float


def perron_pair(
    entries: np.ndarray,
    start: PerronPair | None = None,
    tol: float = POWER_TOL_DEFAULT,
) -> PerronPair:
    """Perron root and vectors of an irreducible nonnegative matrix M.

    Power iteration on I + M (:func:`_power_iteration`), which needs no
    stall detector and no eigenvalue fallback; both vectors start from
    ``start`` (all ones by default).
    """
    m = entries.shape[0]
    v = np.ones(m) if start is None else start.v
    u = np.ones(m) if start is None else start.u
    v, mv, u, lower, upper = _power_iteration(entries, v, u, tol)
    r = float(u @ mv) / float(u @ v)
    return PerronPair(min(max(r, lower), upper), v, u, lower, upper)


def spectral_radius(model: SystemModel, beta: float) -> float:
    """Dominant-eigenvalue modulus of the transfer matrix at beta."""
    return _class_radius(model, transfer_matrix(model, beta).entries)


def _class_radius(model: SystemModel, entries: np.ndarray) -> float:
    """r(M) as the largest r(M_CC) over the strong classes C of the model.

    M is block-triangular in the classes, and on each irreducible block
    the power iteration closes its Collatz-Wielandt gap, so no two classes
    of equal radius can stall it.  A class of one letter is its diagonal entry.
    """
    ncomp, labels = model.strong_components
    if ncomp == 1:
        return matrix_spectral_radius(entries)
    sizes = np.bincount(labels)
    r = float(entries.diagonal()[sizes[labels] == 1].max(initial=0.0))
    for c in np.flatnonzero(sizes > 1):
        idx = np.flatnonzero(labels == c)
        r = max(r, matrix_spectral_radius(entries[np.ix_(idx, idx)]))
    return r


# class_roots' tables, keyed by model identity (models compare by identity)
_CLASS_ROOTS: "weakref.WeakKeyDictionary[SystemModel, tuple[ClassRoot, ...]]" = (
    weakref.WeakKeyDictionary())


@dataclass(frozen=True, eq=False)
class ClassRoot:
    """The root of r_C(beta) = 1 for one strong class C, with its enclosure.

    ``beta`` is None when the Collatz-Wielandt bound of the all-ones vector
    shows r(A_CC) <= 1 + ``BISECT_TOL_DEFAULT`` (a single cycle or a single
    letter, where that bound is exact): then r_C(beta) < 1 for every
    beta > hi, hi being ~0.
    Otherwise the root lies in [lo, hi] and r_C(beta) < 1 for every
    beta > hi.
    """

    generators: np.ndarray
    beta: float | None
    lo: float
    hi: float


def _class_root(model: SystemModel, idx: np.ndarray) -> ClassRoot:
    """Newton on f(beta) = log r_C(beta) for the class on generators ``idx``.

    Every entry of M_CC is log-linear in beta, so f is convex (Kingman,
    "A convexity property of positive matrices", 1961) and Newton started
    left of the root climbs to it monotonically.  It starts at beta = 0;
    the slope there is at least -log N_max, so the first step already
    reaches the certified left end log r(A_CC) / log N_max.  The slope is
    f' = -u'(M diag log N)v / (r u'v) from the Perron pair.  Far from the
    root the pair is computed only as accurately as the step needs
    (inexact Newton, ``INEXACT_FACTOR``).  Newton stops, on a pair of full
    accuracy, once the enclosure below is narrower than
    ``BISECT_TOL_DEFAULT`` (so the step, which stays inside it, is too) or
    than twice the spread of the radius's own certificate (energies near 1
    make log r flat, so its rounding moves beta by more than that).

    The enclosure comes from the Collatz-Wielandt bounds lower <= r <=
    upper at the last iterate beta: M_CC(beta + t) <= M_CC(beta) N_min^-t
    entrywise, so r_C(beta + t) <= upper N_min^-t, and likewise from below,
    which gives lo = beta - max(0, -log lower) / log N_min and
    hi = beta + max(0, log upper) / log N_min, padded for the rounding of
    the products behind the bounds.
    """
    sub = model.matrix[np.ix_(idx, idx)].astype(float)
    if not sub.any():
        return ClassRoot(idx, None, 0.0, 0.0)
    log_n = np.log(model.energies[idx])
    log_min = float(log_n.min())
    pad = (len(idx) + 3) * _EPS
    beta, pair, f = 0.0, None, math.inf
    while True:
        entries = sub * model.weights(beta)[idx]
        pair_tol = max(POWER_TOL_DEFAULT, min(INEXACT_FACTOR, INEXACT_FACTOR * f * f))
        pair = perron_pair(entries, pair, pair_tol)
        # the lower bound is 0 only when weights underflow far out
        low = math.log(pair.lower * (1.0 - pad)) if pair.lower > 0.0 else -math.inf
        high = math.log(pair.upper * (1.0 + pad))
        if beta == 0.0 and pair.upper <= 1.0 + BISECT_TOL_DEFAULT:
            return ClassRoot(idx, None, 0.0, float(np.nextafter(max(0.0, high) / log_min, math.inf)))
        f = math.log(pair.r)
        slope = -float(pair.u @ (entries @ (log_n * pair.v))) / (pair.r * float(pair.u @ pair.v))
        step = -f / slope
        lo = float(np.nextafter(beta - max(0.0, -low) / log_min, -math.inf))
        hi = float(np.nextafter(beta + max(0.0, high) / log_min, math.inf))
        width = max(BISECT_TOL_DEFAULT, 2.0 * (high - low) / log_min)
        if pair_tol == POWER_TOL_DEFAULT and hi - lo <= width:
            return ClassRoot(idx, min(max(beta + step, lo), hi), lo, hi)
        beta += step


def class_roots(model: SystemModel) -> tuple[ClassRoot, ...]:
    """Certified roots of r_C(beta) = 1, one per strong class, indexed by class label.

    Computed once per model, and dropped with the model.
    """
    table = _CLASS_ROOTS.get(model)
    if table is None:
        ncomp, labels = model.strong_components
        table = _CLASS_ROOTS[model] = tuple(
            _class_root(model, np.flatnonzero(labels == c)) for c in range(ncomp))
    return table


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
    r = _class_radius(model, tm)
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


def _certified_below_one(entries: np.ndarray) -> bool:
    """Whether a Collatz-Wielandt bound shows r(M) < 1 within ``QUICK_STEPS`` steps.

    max(Mv/v) >= r for every positive v, also for reducible M, so one bound
    below 1 (padded for rounding) settles convergence; power steps on
    I + M tighten it.  False only means no bound was found.
    """
    pad = (entries.shape[0] + 3) * _EPS
    v = np.ones(entries.shape[0])
    for _ in range(QUICK_STEPS):
        mv = entries @ v
        if float((mv / v).max()) * (1.0 + pad) < 1.0:
            return True
        v = mv + v
    return False


@lru_cache(maxsize=1)
def _restricted_resolvent(model: SystemModel, beta: float, u_key: bytes) -> np.ndarray | None:
    """Z_xy(beta) on the ancestor set U (rows and columns in U), or None if it diverges.

    One entry, keyed by model identity (models compare by identity), beta
    and U: the d extreme states of one temperature share one U whenever
    their targets share ancestors, so each column point costs a slice, not
    a solve.  The series converge when r(M_UU) < 1.  Well above every root
    a Collatz-Wielandt bound at beta certifies that within a step or two,
    and the class roots are not needed (this keeps a state checked once on
    a fresh model from paying for the table).  Otherwise U, a union of
    strong classes, converges when beta lies above the certified
    enclosure of every class root in it (:func:`class_roots`), so at a
    root itself the series diverge.
    """
    u = np.frombuffer(u_key, dtype=np.intp)
    sub = transfer_matrix(model, beta).entries[np.ix_(u, u)]
    if not _certified_below_one(sub):
        _, labels = model.strong_components
        roots = class_roots(model)
        if any(beta <= roots[c].hi for c in np.unique(labels[u])):
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
    to the union of their ancestor sets has spectral radius below 1 (read
    off the certified class roots); the restricted linear solve then
    evaluates them even when the full matrix is supercritical (relevant
    for reducible matrices).  Returns the
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
