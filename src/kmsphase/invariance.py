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

Invariant states biject with nonnegative, normalized fixed points of the
transfer matrix via rho -> (q_x)_x.
"""

from __future__ import annotations

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
from .model import SystemModel, column_space
from .partition import transfer_matrix
from .states import INFINITE, QState, qstate_from_atoms

__all__ = [
    "InvarianceVerdict",
    "is_subinvariant",
    "invariant_state_from_fixed_point",
    "fixed_point_from_state",
    "GAP_TOL_DEFAULT",
    "EXHAUSTIVE_MAX_M",
]

GAP_TOL_DEFAULT = 1e-10
EXHAUSTIVE_MAX_M = 12
# Relative transfer-matrix residual a fixed point may carry.
FIXED_POINT_RTOL = 1e-9


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
    column point and have gap exactly 0.  It is capped at m <= 12 and needs
    tol >= 0.  ``worst_violation`` is the atom witness unless a pair is
    strictly worse, and then the first such pair in (X, Y) mask order.
    """
    space = column_space(model)
    if math.isinf(beta) and beta > 0:
        gaps = tuple(float(v) for v in state.atoms)
        return InvarianceVerdict(
            subinvariant=True, invariant=False, atom_gaps=gaps, worst_violation=None
        )

    inflow = space.push(model.weights(beta) * state.q)
    gaps = state.atoms - inflow
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
        x_masks, y_masks = _disjoint_pairs(model.m)
        atoms = state.atoms
        lhs = np.zeros(x_masks.size)
        rhs = np.zeros(x_masks.size)
        # Column by column, in column order: the same additions as a loop over
        # the points of each pair, so every pair's gap is bitwise reproducible.
        for c, point in enumerate(space.points):
            mask = sum(1 << i for i, b in enumerate(point) if b)
            sel = ((x_masks & mask) == x_masks) & ((y_masks & mask) == 0)
            lhs[sel] += inflow[c]
            rhs[sel] += atoms[c]
        pair_gaps = rhs - lhs
        violated = pair_gaps < -tol
        sub_ex = not violated.any()
        inv_ex = not (np.abs(pair_gaps) > tol).any()
        if not sub_ex:
            # The first most violated pair in (X, Y) order; the atom witness wins ties.
            k = int(np.argmin(np.where(violated, pair_gaps, np.inf)))
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
    """
    x = np.zeros(1, dtype=np.int64)
    y = np.zeros(1, dtype=np.int64)
    for i in range(m):
        x = np.concatenate((x, x | 1 << i, x))
        y = np.concatenate((y, y, y | 1 << i))
    order = np.argsort(x << m | y)
    return x[order], y[order]


def _members(mask) -> tuple[int, ...]:
    mask = int(mask)
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def invariant_state_from_fixed_point(model: SystemModel, beta: float, v) -> QState:
    """The invariant state whose generator values are the fixed point v.

    Requires v >= 0, (A N^-beta) v = v within ``FIXED_POINT_RTOL``, and the
    normalization sum_x N(x)^-beta v_x = 1.  The atoms place N(z)^-beta v_z
    at the column of each generator z.
    """
    if not (0 < beta < math.inf):
        raise ValueError("invariant states need finite positive beta")
    v = np.asarray(v, dtype=float)
    if v.shape != (model.m,):
        raise ValueError(f"fixed point must have length {model.m}")
    if (v < 0).any():
        raise NegativeEntryError("fixed point must be nonnegative")
    nw = model.weights(beta)
    norm = float(nw @ v)
    if abs(norm - 1.0) > 1e-9:
        raise NotNormalizedError(f"sum N(x)^-beta v_x = {norm}, expected 1")
    entries = transfer_matrix(model, beta).entries
    residual = float(np.abs(entries @ v - v).max())
    if residual > FIXED_POINT_RTOL * max(1.0, float(np.abs(v).max())):
        raise NotFixedPointError(f"transfer-matrix residual {residual}")

    space = column_space(model)
    atoms = space.push(nw * v)
    state = qstate_from_atoms(space, beta, atoms, INFINITE)
    # By construction q_values[x] = sum_z A(x,z) N(z)^-beta v_z = v_x.
    if np.abs(state.q - v).max() > 1e-8:
        raise NotFixedPointError("derived generator values drifted from the fixed point")
    return state


def fixed_point_from_state(model: SystemModel, beta: float, state: QState) -> np.ndarray:
    """Extract the fixed point (the generator values) of an invariant state."""
    verdict = is_subinvariant(model, beta, state)
    if not verdict.invariant:
        raise NotInvariantError(
            f"state is not invariant at beta={beta}; worst gap {verdict.worst_violation}"
        )
    v = state.q.copy()
    entries = transfer_matrix(model, beta).entries
    residual = float(np.abs(entries @ v - v).max())
    if residual > 1e-8:
        raise NotFixedPointError(f"transfer-matrix residual {residual}")
    return v
