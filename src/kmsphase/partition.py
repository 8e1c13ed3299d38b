"""Closed-form partition functions via the transfer matrix A N^-beta.

Writing M for the matrix with entries M(x, y) = A(x, y) N(y)^-beta, the
fixed-source-and-target series Z_xy(beta) equals N(x)^-beta times the
(x, y) entry of the Neumann sum of M, so a single linear solve against
I - M evaluates every partition function at once.  The solve is only
meaningful when the spectral radius of M is below 1, and its success alone
decides nothing: the full series is decided by the spectral radius
(computed here, by power iteration), a restricted series by a certificate
read off its own solve (below).

M is block-triangular in the strong classes C of A, so r(beta) is the
largest class radius r_C(beta) = r(M_CC).  One loop over the classes,
:func:`matrix_spectral_radius`, computes it for every matrix: a class of
one letter is its diagonal entry, any other block climbs the Perron ladder
of :func:`perron_pair`: power iteration, then, where that gives up, the
vectors of ``np.linalg.eig`` that their bounds certify (else max |lambda|).
:func:`spectral_radius` and :func:`evaluate` hand it the model's classes;
a raw matrix gets those of its support.  :func:`class_roots` keeps, per
model, each class's root of r_C(beta) = 1 with a certified enclosure
[lo, hi] (Newton on log r_C, see :func:`_class_root`), and the Perron
pair of the last Newton iterate: a warm start for later pairs of the
class, and certified bounds on r_C at any beta
(:meth:`ClassRoot.radius_bounds`).  A series restricted to an ancestor
set U needs no table: its own solve of I - M_UU gives a Collatz-Wielandt
vector, and so a certificate that r(M_UU) < 1 (see
:func:`_restricted_resolvent`).

:func:`evaluate` takes one beta or a 1-D grid of them.  A grid is
evaluated in chunks of at most ``STACK_BYTES`` of transfer matrices: the
radii of a chunk come from one :func:`matrix_spectral_radius` call on
its (k, m, m) stack, which runs one power-iteration loop per class over
all k blocks (each on its own schedule, :class:`_Schedule`), and its
convergent points share one stacked solve.  Each report has the bits of
a call at its own beta.  The condition estimate is
kappa_1 = ||I - M||_1 ||Z||_1, read off the inverse at hand.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .errors import IllConditionedSolveError, NoConvergenceError
from .model import SystemModel, ColumnSpace, _strong_components, check_beta, column_space

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
# evaluate stacks at most this many bytes of transfer matrices at a time
STACK_BYTES = 2 ** 19
# Newton on log r computes the Perron pair to a relative gap of
# INEXACT_FACTOR * f^2, f being the previous iterate's log r, until that
# falls below POWER_TOL_DEFAULT (see :func:`_class_root`).
INEXACT_FACTOR = 1e-1
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
    margin band, where conditioning degrades.  ``condition_estimate`` is
    kappa_1 = ||I - M||_1 ||Z||_1 of the solve, Z the computed inverse of
    I - M (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 15): within a factor m of the 2-norm condition number, and 1 at
    beta = +inf; None when the series diverge.
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


class _Schedule:
    """The check-and-step schedule of one power iteration (see :func:`_power_iteration`).

    One per iterated matrix: the single-matrix loop and the stacked loop
    of :func:`_power_iteration_stack` both consult it at every check, so
    each matrix checks, steps and gives up as it would alone.
    """

    __slots__ = ("best", "stale", "late", "block", "steps")

    def __init__(self):
        self.best, self.stale, self.late, self.block, self.steps = math.inf, 0, 0, CHECK_STEPS, 0

    def stops(self, gap: float, upper: float, tol: float) -> bool:
        """Whether the iteration stops at a check with this gap and upper bound (the
        gap meets tol, stalls, or the schedule :meth:`gives_up`); if not,
        ``block`` is the number of steps to run before the next check."""
        if gap <= tol * upper:
            return True
        gap /= upper
        if gap < self.best:
            if self.best < math.inf:
                # as many steps as the last block's contraction needs to reach
                # tol (or one ulp: no gap below that is reached anyway)
                needed = self.block * math.log(max(tol, _EPS) / gap) / math.log(gap / self.best)
                self.block = min(MAX_BLOCK, max(1, math.ceil(needed)))
                self.late = self.late + 1 if self.steps + needed > POWER_MAXITER_DEFAULT else 0
            self.best, self.stale = gap, 0
        else:
            self.stale, self.block, self.late = self.stale + 1, CHECK_STEPS, 0
        self.steps += self.block
        return self.stale >= STAGNATION_CHECKS or self.gives_up()

    def gives_up(self) -> bool:
        """Whether the steps reach ``POWER_MAXITER_DEFAULT`` or the last ``STAGNATION_CHECKS``
        checks in a row each shrank the gap and predicted they would."""
        return self.steps >= POWER_MAXITER_DEFAULT or self.late >= STAGNATION_CHECKS


def _bounds(entries: np.ndarray, v: np.ndarray, u: np.ndarray | None):
    """(Mv, uM, lower, upper, gap): the Collatz-Wielandt bounds of v, gap the
    larger of upper - lower and the spread of uM/u."""
    mv, um = entries @ v, None if u is None else u @ entries
    ratios = mv / v
    lower, upper = float(ratios.min()), float(ratios.max())
    left = None if u is None else um / u
    gap = upper - lower if left is None else max(upper - lower, float(left.max() - left.min()))
    return mv, um, lower, upper, gap


_Found = tuple[np.ndarray, np.ndarray | None, np.ndarray | None, float, float]


def _dense(entries: np.ndarray, left: bool, tol: float) -> _Found | None:
    """The dense rung: (v, Mv, u, lower, upper) from the ``np.linalg.eig`` vectors of M (and
    M' for u) at its eigenvalue of largest real part, if positive with bounds meeting ``tol``;
    else None for a pair, and (v, None, None, rho, rho) for a radius, rho the largest |lambda|."""
    found = []
    for a in (entries, entries.T)[:1 + left]:
        w, vectors = np.linalg.eig(a)
        x = vectors[:, w.real.argmax()].real
        found.append(x / x[np.abs(x).argmax()])
    v, u = found[0], found[1] if left else None
    with np.errstate(all="ignore"):
        mv, _, lower, upper, gap = _bounds(entries, v, u)
    if all((x > 0.0).all() for x in found) and gap <= tol * upper < math.inf:
        return v, mv, u, lower, upper
    rho = float(np.abs(w).max())
    return None if left else (v, None, None, rho, rho)


def _power_iteration(
    entries: np.ndarray, v: np.ndarray, u: np.ndarray | None, tol: float
) -> _Found | None:
    """Power iteration on I + M for the right vector v and, unless u is None, the left u.

    I + M is primitive whenever M is irreducible, so the iterates converge
    whatever the period of M.  After a check whose upper bound is below 1
    it iterates on I + M / upper instead, which has the same vectors: the
    contraction (1 + |lambda_2|) / (1 + r) of I + M tends to 1 as r falls,
    that of the scaled matrix does not.  Returns (v, Mv, u, lower, upper),
    with the Collatz-Wielandt bounds lower = min(Mv/v) <= r <= max(Mv/v) = upper,
    valid for every positive v (up to the rounding of one product).  In
    exact arithmetic they tighten monotonically under the iteration.  At
    each check it stops if the right gap (and the left one) is within
    ``tol`` of upper, or if the larger gap has not shrunk for
    ``STAGNATION_CHECKS`` checks: what is left then is rounding, or for a
    reducible M a lower bound held below r by a class of smaller radius.
    Otherwise it runs as many steps as the contraction since the last
    check says the gap needs to reach ``tol`` (``CHECK_STEPS`` at first and
    after a check that did not shrink it, at most ``MAX_BLOCK``); the
    bookkeeping is :class:`_Schedule`'s.  An unmet radius, or a pair that gives up,
    takes :func:`_dense`; a pair it cannot certify iterates on (None out of steps).
    """
    schedule, tried = _Schedule(), False
    while True:
        mv, um, lower, upper, gap = _bounds(entries, v, u)
        if schedule.stops(gap, upper, tol):
            if gap <= tol * upper or u is not None and not schedule.gives_up():
                return v, mv, u, lower, upper
            found = None if tried else _dense(entries, u is not None, tol)
            if found is not None or schedule.steps >= POWER_MAXITER_DEFAULT:
                return found
            tried = True   # the rung cannot certify this pair: iterate on without it
        step = entries
        if upper < 1.0:
            step = entries / upper
            mv = mv / upper
            if u is not None:
                um = um / upper
        v = mv + v
        for _ in range(schedule.block - 1):
            v += step @ v
        v /= v.max()
        if u is not None:
            u = um + u
            for _ in range(schedule.block - 1):
                u += u @ step
            u /= u.max()


def _power_iteration_stack(entries: np.ndarray, tol: float) -> list[tuple[float, float]]:
    """:func:`_power_iteration` from v = 1, with no left vector, on every slice of a
    (k, n, n) stack at once.

    Each slice keeps its own :class:`_Schedule`, and so the bits it would
    get alone: one ``np.matmul`` per step runs over the stack (it gives
    every slice the bits of its own matrix-vector product), a slice scaled
    below r = 1 is divided by its own upper bound, a slice whose block is
    shorter than the round's longest adds an exact 0.0 for the steps it
    sits out, and a slice that stops (or takes the dense rung) leaves the
    stack.  A stack of one runs the single-matrix loop, which costs less
    per step.  Returns the (lower, upper) bounds per slice.
    """
    if len(entries) == 1:
        return [_power_iteration(entries[0], np.ones(entries.shape[1]), None, tol)[-2:]]
    out: list[tuple[float, float]] = [(0.0, 0.0)] * len(entries)
    live = list(range(len(entries)))
    schedules = [_Schedule() for _ in live]
    v = np.ones(entries.shape[:2])
    while True:
        mv = np.matmul(entries, v[..., None])[..., 0]
        ratios = mv / v
        lowers, uppers = ratios.min(axis=1).tolist(), ratios.max(axis=1).tolist()
        going = []
        for i, j in enumerate(live):
            gap = uppers[i] - lowers[i]
            if not schedules[j].stops(gap, uppers[i], tol):
                going.append(i)
            elif gap <= tol * uppers[i]:
                out[j] = (lowers[i], uppers[i])
            else:
                out[j] = _dense(entries[i], False, tol)[-2:]
        if not going:
            return out
        if len(going) < len(live):
            entries, v, mv = entries[going], v[going], mv[going]
            live, uppers = [live[i] for i in going], [uppers[i] for i in going]
        scale = np.array([upper if upper < 1.0 else 1.0 for upper in uppers])
        step = entries / scale[:, None, None]
        v = mv / scale[:, None] + v
        blocks = np.array([schedules[j].block for j in live])
        for s in range(1, int(blocks.max())):
            w = np.matmul(step, v[..., None])[..., 0]
            w[blocks <= s] = 0.0
            v += w
        v /= v.max(axis=1, keepdims=True)


def matrix_spectral_radius(
    entries: np.ndarray, components: tuple[int, np.ndarray] | None = None
) -> float | np.ndarray:
    """Spectral radius of a nonnegative matrix M, the largest over its strong classes.

    ``entries`` is one (m, m) matrix, which gives a float, or a (k, m, m)
    stack of matrices on one support, which gives the k radii as an array;
    each radius has the bits that its matrix gives alone.  M is
    block-triangular in the strong classes C of its support, so r(M) is
    the largest r(M_CC).  A class of one letter is its diagonal entry;
    any other block is irreducible, and its radius is the upper bound that
    the power iteration on I + M_CC or its dense rung returns (see
    :func:`_power_iteration`; the largest eigenvalue modulus where no vector
    is certified).  A stack iterates the blocks of one class together
    (:func:`_power_iteration_stack`).  No two classes of equal radius can
    stall it.  ``components`` is the (count, label per index) pair of the
    classes, as :attr:`SystemModel.strong_components` holds it for a model's
    matrix; None computes it from the support of ``entries`` (of its first
    slice, for a stack).
    """
    stack = entries if entries.ndim == 3 else entries[None]
    ncomp, labels = _strong_components(stack[0]) if components is None else components
    sizes = np.bincount(labels)
    r = stack.diagonal(axis1=1, axis2=2)[:, sizes[labels] == 1].max(axis=1, initial=0.0)
    for c in np.flatnonzero(sizes > 1):
        idx = np.flatnonzero(labels == c)
        # an irreducible M is its own block; a copy would cost about as
        # much as its iteration
        block = stack if ncomp == 1 else np.ascontiguousarray(stack[:, idx[:, None], idx])
        for i, (_, upper) in enumerate(_power_iteration_stack(block, POWER_TOL_DEFAULT)):
            r[i] = max(r[i], upper)
    return r if entries.ndim == 3 else float(r[0])


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

    Power iteration on I + M, or its dense rung (:func:`_power_iteration`),
    from ``start`` (all ones by default).  The one place that raises
    NoConvergenceError for them: when neither certifies a pair in time.
    """
    m = entries.shape[0]
    v = np.ones(m) if start is None else start.v
    u = np.ones(m) if start is None else start.u
    if (found := _power_iteration(entries, v, u, tol)) is None:
        raise NoConvergenceError("power iteration did not converge")
    v, mv, u, lower, upper = found
    r = float(u @ mv) / float(u @ v)
    return PerronPair(min(max(r, lower), upper), v, u, lower, upper)


def spectral_radius(model: SystemModel, beta: float) -> float:
    """Dominant-eigenvalue modulus of the transfer matrix at beta."""
    return matrix_spectral_radius(transfer_matrix(model, beta).entries, model.strong_components)


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

    ``pair`` is the Perron pair of M_CC at ``at``, the last beta the
    search evaluated (0.0 when there is no root).  Its Collatz-Wielandt
    bounds bound r_C anywhere, since r_C(at + t) lies between lower and
    upper times N^-t for the smallest and largest energy N of the class,
    and its vectors are a warm start near ``beta``.  A letter alone with
    no loop (r_C = 0) has no pair.
    """

    generators: np.ndarray
    beta: float | None
    lo: float
    hi: float
    at: float = 0.0
    pair: PerronPair | None = None

    def radius_bounds(self, model: SystemModel, beta: float) -> tuple[float, float]:
        """Certified bounds lower <= r_C(beta) <= upper, read off ``pair``; no power step.

        With t = beta - at, M_CC(beta) = M_CC(at) N^-t columnwise, so
        r_C(beta) lies in [lower N_max^-t, upper N_min^-t] for t >= 0 and in
        [lower N_min^-t, upper N_max^-t] for t < 0.  Both ends are padded as
        :func:`_class_root` pads its enclosure, and further for the rounding
        of t, of log N, of exp and of the two entries of M_CC it compares.
        """
        if self.pair is None:
            return 0.0, 0.0
        energies = model.energies[self.generators]
        t = beta - self.at
        slow, fast = math.log(energies.max()), math.log(energies.min())
        if t < 0.0:
            slow, fast = fast, slow
        pad = (len(self.generators) + 3) * _EPS
        lower = self.pair.lower * (1.0 - pad) * _padded_exp(-t * slow, -1.0)
        upper = self.pair.upper * (1.0 + pad) * _padded_exp(-t * fast, 1.0)
        return lower, upper


def _padded_exp(x: float, side: float) -> float:
    """exp(x) moved outward (side -1 down, +1 up) past the rounding of an x
    computed from two rounded factors, of exp itself and of the products it
    enters; +inf past overflow."""
    if x > 709.0:
        return math.inf
    return math.exp(x) * (1.0 + side * 8.0 * (1.0 + abs(x)) * _EPS)


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
            _freeze(pair)
            return ClassRoot(idx, None, 0.0, float(np.nextafter(max(0.0, high) / log_min, math.inf)),
                             0.0, pair)
        f = math.log(pair.r)
        slope = -float(pair.u @ (entries @ (log_n * pair.v))) / (pair.r * float(pair.u @ pair.v))
        step = -f / slope
        lo = float(np.nextafter(beta - max(0.0, -low) / log_min, -math.inf))
        hi = float(np.nextafter(beta + max(0.0, high) / log_min, math.inf))
        width = max(BISECT_TOL_DEFAULT, 2.0 * (high - low) / log_min)
        if pair_tol == POWER_TOL_DEFAULT and hi - lo <= width:
            _freeze(pair)
            return ClassRoot(idx, min(max(beta + step, lo), hi), lo, hi, beta, pair)
        beta += step


def _freeze(pair: PerronPair) -> None:
    """Make the vectors of a table's pair read-only: warm starts hand them out."""
    pair.v.setflags(write=False)
    pair.u.setflags(write=False)


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
    beta: float | np.ndarray,
    margin: float = CONVERGENCE_MARGIN_DEFAULT,
) -> PartitionReport | Iterator[PartitionReport]:
    """Evaluate Z, Z_y and Z_xy at beta, or flag them divergent.

    Convergent when the spectral radius r of the transfer matrix satisfies
    r < 1 - margin; values with 1 - margin <= r < 1 are still computed but
    flagged ``near_critical``.

    ``beta`` is one inverse temperature, which gives its
    :class:`PartitionReport`, or a 1-D array of them, which gives an
    iterator over their reports in grid order.  The grid is evaluated in
    chunks of at most ``STACK_BYTES`` of transfer matrices: one
    :func:`matrix_spectral_radius` call over the chunk's stack, and one
    stacked solve for its convergent points.  Every report has the bits a
    call at its own beta gives.  A chunk's reports are made only once the
    iterator reaches it, so a long grid on a large model never holds every
    Z_xy at once.  Every beta is checked before anything is evaluated; a
    solve that fails the single-letter floor raises as its report is reached,
    and an I - M singular at working precision raises for its whole chunk.
    """
    betas = np.asarray(beta, dtype=float)
    for b in betas.ravel().tolist():
        check_beta(b, "(0, inf]")
    if betas.ndim == 0:
        return next(_evaluate_chunk(model, [float(betas)], margin))
    per_chunk = max(1, STACK_BYTES // (8 * model.m * model.m))
    return (report for start in range(0, len(betas), per_chunk)
            for report in _evaluate_chunk(model, betas[start:start + per_chunk].tolist(), margin))


def _evaluate_chunk(
    model: SystemModel, betas: list[float], margin: float
) -> Iterator[PartitionReport]:
    """The reports of :func:`evaluate` at each beta, from one stack of transfer matrices."""
    nw = np.stack([model.weights(b) for b in betas])
    tm = model.matrix * nw[:, None, :]   # the transfer matrices, from the same weights
    radii = matrix_spectral_radius(tm, model.strong_components).tolist()
    convergent = [i for i, r in enumerate(radii) if not r >= 1.0]
    eye = np.eye(model.m)
    solved = iter(())
    if convergent:
        stack = eye - tm[convergent]
        try:
            solved = zip(stack, np.linalg.solve(stack, np.broadcast_to(eye, stack.shape)))
        except np.linalg.LinAlgError:   # r < 1, but I - M is singular in floating point
            raise IllConditionedSolveError("I - M is singular at working precision") from None
    for b, w, r in zip(betas, nw, radii):
        if r >= 1.0:
            yield PartitionReport(
                beta=b, spectral_radius=r, convergent=False, z_total=math.inf,
                z_y=None, z_xy=None, near_critical=False, condition_estimate=None,
            )
            continue
        lhs, resolvent = next(solved)
        z_xy = w[:, None] * resolvent
        z_y = z_xy.sum(axis=0)
        z_total = 1.0 + float(z_y.sum())

        # Every single-letter word y is admissible, so Z_y >= N(y)^-beta > 0.
        if not (z_y >= w - 1e-12).all():
            raise IllConditionedSolveError(
                "fixed-target partition values fell below the single-letter floor")

        yield PartitionReport(
            beta=b,
            spectral_radius=r,
            convergent=True,
            z_total=z_total,
            z_y=z_y,
            z_xy=z_xy,
            near_critical=bool(r >= 1.0 - margin),
            # kappa_1 of I - M, from the inverse at hand
            condition_estimate=float(np.linalg.norm(lhs, 1) * np.linalg.norm(resolvent, 1)),
        )


@lru_cache(maxsize=1)
def _restricted_resolvent(model: SystemModel, beta: float, u_key: bytes) -> np.ndarray | None:
    """Z_xy(beta) on the ancestor set U (rows and columns in U), or None if it diverges.

    One entry, keyed by model identity (models compare by identity), beta
    and U: the d extreme states of one temperature share one U whenever
    their targets share ancestors, so each column point costs a slice, not
    a solve.  The series converge when r(M_UU) < 1, and the solve proves
    it: v = (I - M_UU)^-1 1, the row sums of the resolvent, solves
    Mv = v - 1, so a positive v has max(Mv/v) < 1 whenever the series
    converge, and max(Mv/v) >= r for every positive v (Collatz-Wielandt).
    The resolvent is kept when v is finite and positive and that bound,
    padded for the rounding of Mv, is below 1; a failed test or a singular
    I - M_UU (possible only when r >= 1) gives None.
    """
    u = np.frombuffer(u_key, dtype=np.intp)
    sub = transfer_matrix(model, beta).entries[np.ix_(u, u)]
    try:
        resolvent = np.linalg.solve(np.eye(len(u)) - sub, np.eye(len(u)))
    except np.linalg.LinAlgError:
        return None
    # a solve gone wrong fails the test below instead of warning
    with np.errstate(all="ignore"):
        v = resolvent.sum(axis=1)
        bound = float(((sub @ v) / v).max())
    if not (np.isfinite(v).all() and (v > 0.0).all()
            and bound * (1.0 + (len(u) + 3) * _EPS) < 1.0):
        return None
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
    restricted linear solve evaluates them, even when the full matrix is
    supercritical (relevant for reducible matrices), and certifies that
    radius (:func:`_restricted_resolvent`).  Returns the
    ancestor set (read off :attr:`SystemModel.class_ancestors`) and the
    C-ordered (m, len(targets)) array of Z_ax values; rows outside the
    ancestor set are zero, since no word from there reaches a target.  The
    restricted resolvent is solved once per (model, beta, ancestor set) and
    reused by consecutive calls that share it.
    """
    targets = np.asarray(targets, dtype=np.intp)
    u = model.ancestors(targets)
    z_xy_sub = _restricted_resolvent(model, beta, u.tobytes())
    if z_xy_sub is None:
        return None
    # take, not z_xy_sub[:, cols]: that gather is F-ordered, and the callers'
    # products and column sums would then add in another order
    gathered = z_xy_sub.take(np.searchsorted(u, targets), axis=1)
    if u.size == model.m:
        return u, gathered
    out = np.zeros((model.m, len(targets)))
    out[u] = gathered
    return u, out


def _finite_part(
    model: SystemModel, space: ColumnSpace, beta: float, weights
) -> tuple[np.ndarray, float] | None:
    """(atoms, stems) of the finite-type part of a root measure gamma, unnormalized.

    Stems of positive length put their weight at the column of their first
    letter: atoms[c] = gamma[c] + sum_{a with column c} W_a, where
    W_a = sum_x Z_ax(beta) gamma(points containing x), and stems =
    sum_x Z_x(beta) gamma(points containing x), so Z(beta, gamma) is
    gamma's total plus stems.  None exactly when a series carrying mass
    diverges.  At beta = +inf every weight is 0, and so are the stems.
    """
    atoms = np.array(weights, dtype=float)
    mass = space.bit_matrix().T @ atoms         # gamma(points containing x), per x
    needed = np.flatnonzero(mass > 0)
    if needed.size == 0:
        return atoms, 0.0
    pairs = restricted_fixed_pairs(model, beta, needed)
    if pairs is None:
        return None
    _, z_ax = pairs
    mass = mass[needed]
    # W_a, indexed by first letter, added in generator order
    np.add.at(atoms, space._column_of, z_ax @ mass)
    return atoms, float(z_ax.sum(axis=0) @ mass)


def z_gamma(
    model: SystemModel,
    beta: float,
    weights,
    space: ColumnSpace | None = None,
) -> float:
    """Normalizer Z(beta, gamma) for a root measure gamma over column points.

    Equals gamma's total mass plus sum_x Z_x(beta) gamma(points containing x)
    (see :func:`_finite_part`).  +inf is returned exactly when a
    fixed-target series carrying mass diverges, so a measure supported on
    a subcritical block of a reducible matrix keeps a finite normalizer.
    A zero measure gives 0; ``beta = +inf`` gives the total mass.
    """
    from .states import RootMeasure     # states imports this module
    check_beta(beta, "(0, inf]")
    space = space or column_space(model)
    w = np.asarray(weights, dtype=float)
    if w.shape != (space.d,):
        raise ValueError(f"weights must have one entry per column point ({space.d})")
    RootMeasure(tuple(w.tolist()))
    total = float(w.sum())
    if total == 0.0:
        return 0.0
    part = _finite_part(model, space, beta, w)
    return math.inf if part is None else total + part[1]


def geometric_bound(model: SystemModel, beta: float) -> float | None:
    """Bound Z(beta) <= 1 / (1 - s) with s = sum_x N(x)^-beta, when s < 1.

    Returns None when the bound does not apply (s >= 1).
    """
    check_beta(beta, "(0, inf)")
    s = float(model.weights(beta).sum())
    if s < 1.0:
        return 1.0 / (1.0 - s)
    return None
