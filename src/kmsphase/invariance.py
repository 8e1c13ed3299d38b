"""Subinvariance and invariance certificates for states on the column space.

A state rho with generator values q is beta-subinvariant when, for every
pair of finite generator sets (X, Y),

    sum_z A(X, Y, z) N(z)^-beta q_z  <=  rho(q(X, Y)),

with equality characterizing invariance.  Over a finite generator set each
singleton column point is itself a set of the form V(X, Y), so the pair
inequalities aggregate from per-atom defects; the exhaustive mode checks
every pair directly and must agree with the atom check.  A pair with
X and Y intersecting selects no column point, so its gap is exactly 0 and
it can neither violate subinvariance nor break invariance; the exhaustive
mode therefore checks the 3^m disjoint pairs, all at once in numpy.

A pair's gap depends only on which of the d column points it selects, its
d-bit signature.  The signatures of all pairs come from one concatenation
per generator, the AND of the point masks P1_i (points with bit i set) for
i in X and P0_i (the others) for i in Y.  Two tables of 2^d entries hold the
inflow and atom sums of every signature, each filled column by column in
column order, so a pair's gap is the same sequence of additions as a loop
over its points.  The check costs O(3^m + 2^d) instead of the O(d 3^m) of
one pass over the pairs per column point, and d <= m <= 12 keeps a table
at 4096 entries.

Invariant states biject with nonnegative, normalized fixed points of the
transfer matrix via rho -> (q_x)_x; both directions apply the one invariance
rule (every gap within ``GAP_TOL_DEFAULT``) and ``FIXED_POINT_TOL``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NegativeEntryError,
    NotFixedPointError,
    NotInvariantError,
    NotNormalizedError,
    TooLargeForExhaustiveError,
)
from .model import ColumnSpace, SystemModel, check_beta, column_space
from .states import GAP_TOL_DEFAULT, INFINITE, QState, qstate_from_atoms
from .states import _fixed_point_residual, _gaps

__all__ = [
    "InvarianceVerdict",
    "is_subinvariant",
    "invariant_state_from_fixed_point",
    "fixed_point_from_state",
    "GAP_TOL_DEFAULT",
    "EXHAUSTIVE_MAX_M",
]

EXHAUSTIVE_MAX_M = 12
# The one fixed-point threshold, on max |(A N^-beta) v - v|, in both directions.
FIXED_POINT_TOL = 1e-8


@dataclass(frozen=True)
class InvarianceVerdict:
    """Outcome of a subinvariance check.

    ``atom_gaps[c]`` is rho({c}) minus the inflow at column point c; all
    gaps >= -tol certifies subinvariance, all |gaps| <= tol certifies
    invariance.  ``worst_violation`` names the most violated pair when one
    exists.
    """

    subinvariant: bool
    invariant: bool
    atom_gaps: tuple[float, ...]
    worst_violation: tuple[tuple[int, ...], tuple[int, ...], float] | None


def is_subinvariant(
    model: SystemModel,
    beta: float,
    state: QState,
    exhaustive: bool = False,
    tol: float = GAP_TOL_DEFAULT,
) -> InvarianceVerdict:
    """Certify beta-(sub)invariance of a state.

    At beta = +inf everything is subinvariant by convention, and nothing is
    invariant (the equality would force the unit to vanish).  Exhaustive
    mode checks every pair (X, Y) of disjoint generator sets, 3^m of them,
    and cross-checks the atom-level aggregation; the other pairs select no
    column point and have gap exactly 0.  Each pair's gap is read from a
    2^d table indexed by the signature of the points it selects, in
    O(3^m + 2^d) rather than one pass over the pairs per column point.  It
    is capped at m <= 12 and needs tol >= 0.  ``worst_violation`` is the
    atom witness unless a pair is strictly worse, and then the first such
    pair in (X, Y) mask order.
    """
    space = column_space(model)
    if beta == math.inf:
        gaps = tuple(float(v) for v in state.atoms)
        return InvarianceVerdict(
            subinvariant=True, invariant=False, atom_gaps=gaps, worst_violation=None
        )

    inflow, gaps = _gaps(model, space, beta, state)
    sub = bool((gaps >= -tol).all())
    inv = bool((np.abs(gaps) <= tol).all())

    worst = None
    if not inv:
        c = int(np.argmin(gaps)) if not sub else int(np.argmax(np.abs(gaps)))
        point = space.points[c]
        x_set = tuple(i for i, b in enumerate(point) if b)
        y_set = tuple(i for i, b in enumerate(point) if not b)
        worst = (x_set, y_set, float(gaps[c]))

    if exhaustive:
        if model.m > EXHAUSTIVE_MAX_M:
            raise TooLargeForExhaustiveError(f"exhaustive check capped at m <= {EXHAUSTIVE_MAX_M}")
        if tol < 0:
            raise ValueError("the exhaustive check needs tol >= 0")
        pair_gaps = _pair_gaps(model.m, space, inflow, state.atoms)
        violated = pair_gaps < -tol
        sub_ex = not violated.any()
        inv_ex = not (np.abs(pair_gaps) > tol).any()
        if not sub_ex:
            # The first most violated pair in (X, Y) order; the atom witness wins ties.
            k = int(np.argmin(np.where(violated, pair_gaps, np.inf)))
            x_masks, y_masks = _disjoint_pairs(model.m)
            if worst is None or pair_gaps[k] < worst[2]:
                worst = (_members(x_masks[k]), _members(y_masks[k]), float(pair_gaps[k]))
        if sub_ex != sub or inv_ex != inv:
            raise AssertionError("atom-level and exhaustive pair checks disagree")

    return InvarianceVerdict(
        subinvariant=sub,
        invariant=inv,
        atom_gaps=tuple(float(v) for v in gaps),
        worst_violation=worst,
    )


def _disjoint_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Bit masks (X, Y) of the 3^m pairs of disjoint subsets of m generators.

    Sorted by X mask, then Y mask: the order of a double loop over masks.
    Built once per m and shared, so the arrays are read-only.
    """
    x, y, _ = _pair_table(m)
    return x, y


@functools.cache
def _pair_table(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted masks of :func:`_disjoint_pairs` and the order that sorts them.

    Generator i enters by one concatenation (neither, in X, in Y), so
    ``order[k]`` is the index, in that concatenation order, of the k-th pair
    in (X, Y) order.
    """
    x = np.zeros(1, dtype=np.int64)
    y = np.zeros(1, dtype=np.int64)
    for i in range(m):
        x = np.concatenate((x, x | 1 << i, x))
        y = np.concatenate((y, y, y | 1 << i))
    order = np.argsort(x << m | y)
    table = x[order], y[order], order
    for a in table:
        a.setflags(write=False)
    return table


def _pair_gaps(m: int, space: ColumnSpace, inflow: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """rho(q(X, Y)) minus the inflow of every disjoint pair, in (X, Y) order.

    Column point c is bit c of a pair's signature.  The tables ``lt`` and
    ``rt`` hold the inflow and atom sums of every signature, built by
    doubling over the columns in column order: each entry is summed from
    0.0 in the order of a loop over its points, so every gap is bitwise
    that loop's.
    """
    bits = np.array(space.points, dtype=np.int64)      # (d, m)
    p1 = (bits << np.arange(space.d)[:, None]).sum(axis=0)  # points with bit i set
    p0 = ((1 << space.d) - 1) ^ p1
    sig = np.full(1, (1 << space.d) - 1)
    for i in range(m):
        sig = np.concatenate((sig, sig & p1[i], sig & p0[i]))
    lt = np.zeros(1)
    rt = np.zeros(1)
    for c in range(space.d):
        lt = np.concatenate((lt, lt + inflow[c]))
        rt = np.concatenate((rt, rt + atoms[c]))
    _, _, order = _pair_table(m)
    return (rt - lt)[sig[order]]


def _members(mask) -> tuple[int, ...]:
    mask = int(mask)
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def invariant_state_from_fixed_point(model: SystemModel, beta: float, v) -> QState:
    """The invariant state of a fixed point v >= 0 with sum_x N(x)^-beta v_x = 1.

    Its atoms place N(z)^-beta v_z at the column of each generator z.  It must
    pass the invariance rule of :func:`is_subinvariant`, and its generator
    values, (A N^-beta) v, must lie within ``FIXED_POINT_TOL`` of v.
    """
    check_beta(beta, "(0, inf)")
    v = np.asarray(v, dtype=float)
    if v.shape != (model.m,):
        raise ValueError(f"fixed point must have length {model.m}")
    if (v < 0).any():
        raise NegativeEntryError("fixed point must be nonnegative")
    nw = model.weights(beta)
    norm = float(nw @ v)
    if abs(norm - 1.0) > 1e-9:
        raise NotNormalizedError(f"sum N(x)^-beta v_x = {norm}, expected 1")

    space = column_space(model)
    state = qstate_from_atoms(space, beta, space.push(nw * v), INFINITE)
    if not (np.abs(_gaps(model, space, beta, state)[1]) <= GAP_TOL_DEFAULT).all():
        raise NotFixedPointError("the state breaks invariance: a gap exceeds GAP_TOL_DEFAULT")
    if np.abs(state.q - v).max() > FIXED_POINT_TOL:
        raise NotFixedPointError("derived generator values drifted from the fixed point")
    return state


def fixed_point_from_state(model: SystemModel, beta: float, state: QState) -> np.ndarray:
    """The fixed point q of a state that passes the invariance rule of
    :func:`is_subinvariant`, with transfer-matrix residual at most ``FIXED_POINT_TOL``."""
    verdict = is_subinvariant(model, beta, state)
    if not verdict.invariant:
        raise NotInvariantError(
            f"state is not invariant at beta={beta}; worst gap {verdict.worst_violation}"
        )
    residual = _fixed_point_residual(model, beta, state.q)
    if residual > FIXED_POINT_TOL:
        raise NotFixedPointError(f"transfer-matrix residual {residual}")
    return state.q
