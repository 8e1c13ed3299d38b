"""Phase diagram of the Toeplitz system and the KMS simplex of its quotient.

For an irreducible finite system the picture at inverse temperature beta
is a trichotomy around beta_c: no KMS states below, a unique infinite-type
state at beta_c (the Perron fixed point), and a simplex of dimension
d(A) - 1 of finite-type states above, whose extreme points come from point
masses on the column space.  Ground states (beta = +inf) form the same
simplex of root measures.

On the Cuntz-Krieger quotient the KMS_beta states exist exactly when the
transfer matrix has a nonnegative fixed vector with eigenvalue 1, and they
form the simplex of such vectors normalized by sum N(x)^-beta v_x = 1;
irreducibility is not required there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .critical import BISECT_TOL_DEFAULT, CriticalReport, beta_c as compute_beta_c
from .errors import NotIrreducibleError, ZeroColumnError
from .invariance import invariant_state_from_fixed_point, is_subinvariant
from .model import SystemModel, column_space, properties
from .partition import class_roots, transfer_matrix
from .states import QState, RootMeasure, finite_type_state, ground_state

__all__ = [
    "PhaseRegime",
    "OaSimplex",
    "ScanReport",
    "classify_ta",
    "kms_oa",
    "oa_beta_scan",
    "factors_through_oa",
    "EIG_ONE_TOL_DEFAULT",
]

EIG_ONE_TOL_DEFAULT = 1e-8
NULLSPACE_RTOL_DEFAULT = 1e-9
MAX_FIXED_MULTIPLICITY = 4
# Grid matrices per batched eigvals call: bounds a class's (batch, k, k)
# stack to 2^20 entries.
GRID_BATCH_ENTRIES = 1 << 20


@dataclass(frozen=True)
class PhaseRegime:
    """Classification of one inverse temperature.

    ``kind`` is one of "below", "critical", "above", "ground".  The
    critical regime carries the unique state; the above/ground regimes
    carry the extreme states of the simplex, one per column point.
    """

    kind: str
    beta: float
    beta_critical: float
    unique_state: QState | None
    extreme_states: tuple[QState, ...]
    simplex_dim: int | None
    permutation_like: bool


@dataclass(frozen=True)
class OaSimplex:
    """Extreme normalized nonnegative fixed vectors at one beta; empty when
    the quotient has no KMS_beta state."""

    beta: float
    extreme_vectors: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class ScanReport:
    simplices: tuple[OaSimplex, ...]
    grid_flags: tuple[float, ...]


def classify_ta(
    model: SystemModel,
    beta: float,
    crit: CriticalReport | None = None,
) -> PhaseRegime:
    """Full KMS classification of the Toeplitz system at beta.

    Requires irreducibility; reducible systems only get the quotient-side
    analysis (:func:`kms_oa`).  The regime comes from :meth:`CriticalReport.regime`;
    for permutation-like systems (beta_c clamped to 0) every finite beta is
    supercritical and the regime is flagged.
    """
    if not properties(model).irreducible:
        raise NotIrreducibleError("phase classification requires an irreducible matrix")
    if not (beta > 0):
        raise ValueError("beta must be positive or +inf")
    crit = crit or compute_beta_c(model)
    space = column_space(model)
    dim = space.d - 1

    if math.isinf(beta):
        extremes = tuple(
            ground_state(model, RootMeasure.delta(space, c)) for c in range(space.d)
        )
        return PhaseRegime(
            kind="ground", beta=beta, beta_critical=crit.beta_c,
            unique_state=None, extreme_states=extremes, simplex_dim=dim,
            permutation_like=crit.permutation_like,
        )

    kind = crit.regime(beta)
    if kind == "critical":
        state = invariant_state_from_fixed_point(
            model, crit.beta_c, crit.perron_at_critical
        )
        return PhaseRegime(
            kind="critical", beta=beta, beta_critical=crit.beta_c,
            unique_state=state, extreme_states=(state,), simplex_dim=0,
            permutation_like=False,
        )

    if kind == "below":
        return PhaseRegime(
            kind="below", beta=beta, beta_critical=crit.beta_c,
            unique_state=None, extreme_states=(), simplex_dim=None,
            permutation_like=crit.permutation_like,
        )

    extremes = tuple(
        finite_type_state(model, beta, RootMeasure.delta(space, c))
        for c in range(space.d)
    )
    return PhaseRegime(
        kind="above", beta=beta, beta_critical=crit.beta_c,
        unique_state=extremes[0] if space.d == 1 else None,
        extreme_states=extremes, simplex_dim=dim,
        permutation_like=crit.permutation_like,
    )


def _nonnegative_fixed_extremes(
    entries: np.ndarray,
    nweights: np.ndarray,
    eig_tol: float,
    null_rtol: float,
) -> list[np.ndarray]:
    """Extreme points of {v >= 0 : Mv = v, nweights . v = 1}.

    The fixed space is parametrized by the near-null singular vectors of
    I - M; its intersection with the nonnegative orthant is a cone whose
    extreme rays are pinned by dim-1 active sign constraints, so vertex
    enumeration over row subsets suffices for the supported multiplicities.
    """
    m = entries.shape[0]
    vals = np.linalg.eigvals(entries)
    if np.abs(vals - 1.0).min() >= eig_tol:
        return []
    mat = np.eye(m) - entries
    _, svals, vh = np.linalg.svd(mat)
    thresh = null_rtol * max(float(np.linalg.norm(entries, 2)), 1.0)
    k = int((svals < thresh).sum())
    if k == 0:
        return []
    if k > MAX_FIXED_MULTIPLICITY:
        raise ValueError(f"fixed-space multiplicity {k} exceeds the supported cap")
    basis = vh[m - k:].T  # (m, k)

    out: list[np.ndarray] = []
    if k == 1:
        v = basis[:, 0]
        pos, neg = float(max(v.max(), 0.0)), float(max(-v.min(), 0.0))
        if min(pos, neg) > 1e-8 * max(pos, neg):
            return []
        if neg > pos:
            v = -v
        v = np.clip(v, 0.0, None)
        scale = float(nweights @ v)
        if scale <= 0:
            return []
        out.append(v / scale)
    else:
        e = basis.T @ nweights  # normalization functional in coefficient space
        seen: set[tuple[float, ...]] = set()
        for rows in combinations(range(m), k - 1):
            sys_mat = np.vstack([basis[list(rows), :], e[None, :]])
            rhs = np.zeros(k)
            rhs[-1] = 1.0
            try:
                coef = np.linalg.solve(sys_mat, rhs)
            except np.linalg.LinAlgError:
                continue
            v = basis @ coef
            if v.min() < -1e-8 * max(abs(v).max(), 1.0):
                continue
            v = np.clip(v, 0.0, None)
            scale = float(nweights @ v)
            if scale <= 0:
                continue
            v = v / scale
            key = tuple(np.round(v, 9))
            if key not in seen:
                seen.add(key)
                out.append(v)
        out.sort(key=lambda u: tuple(np.round(u, 9)))
    return out


def kms_oa(
    model: SystemModel,
    beta: float,
    eig_tol: float = EIG_ONE_TOL_DEFAULT,
    null_rtol: float = NULLSPACE_RTOL_DEFAULT,
) -> OaSimplex:
    """KMS_beta simplex of the quotient algebra, as extreme fixed vectors.

    Requires no identically zero columns; irreducibility is not needed, so
    reducible systems may produce several distinct KMS temperatures.
    """
    if not (0 < beta < math.inf):
        raise ValueError("quotient KMS states are computed for finite positive beta")
    props = properties(model)
    if not props.no_zero_column:
        col = int(np.flatnonzero(~model.matrix.any(axis=0))[0])
        raise ZeroColumnError(col)
    entries = transfer_matrix(model, beta).entries
    nweights = model.weights(beta)
    vectors = _nonnegative_fixed_extremes(entries, nweights, eig_tol, null_rtol)
    return OaSimplex(
        beta=float(beta),
        extreme_vectors=tuple(tuple(float(x) for x in v) for v in vectors),
    )


def oa_beta_scan(
    model: SystemModel,
    bisect_tol: float = BISECT_TOL_DEFAULT,
    grid_points: int = 200,
) -> ScanReport:
    """Locate every beta carrying a KMS state on the quotient.

    Candidates are the roots of r_C(beta) = 1 over the strongly connected
    components C (a nonnegative fixed vector must be supported on a
    component at criticality), read from :func:`partition.class_roots`;
    each candidate is then verified by :func:`kms_oa`.  A residual grid
    scan flags any eigenvalue-1 sighting away from the candidates.  M is
    block-triangular in the components, so its spectrum is the union of
    theirs: the grid takes the eigenvalues of each component's stack of
    grid matrices at once.
    """
    props = properties(model)
    if not props.no_zero_column:
        col = int(np.flatnonzero(~model.matrix.any(axis=0))[0])
        raise ZeroColumnError(col)
    roots = class_roots(model, bisect_tol)

    candidates = sorted(c.beta for c in roots if c.beta is not None)
    deduped: list[float] = []
    for b in candidates:
        if not deduped or abs(b - deduped[-1]) > 1e-9:
            deduped.append(b)

    simplices = tuple(
        s for s in (kms_oa(model, b) for b in deduped) if s.extreme_vectors
    )

    flags: list[float] = []
    if deduped:
        grid = np.linspace(1e-3, 1.25 * max(deduped) + 1.0, grid_points)
        near_one = np.zeros(grid_points, dtype=bool)
        for root in roots:
            idx = root.generators
            sub = model.matrix[np.ix_(idx, idx)]
            if not sub.any():
                continue
            weights = model.energies[idx][None, :] ** -grid[:, None]    # (grid, k)
            batch = max(1, GRID_BATCH_ENTRIES // len(idx) ** 2)
            for start in range(0, grid_points, batch):
                stack = sub[None, :, :] * weights[start:start + batch, None, :]
                vals = np.linalg.eigvals(stack)
                near_one[start:start + batch] |= np.abs(vals - 1.0).min(axis=1) < EIG_ONE_TOL_DEFAULT
        flags = [
            float(b) for b, hit in zip(grid, near_one)
            if hit and all(abs(b - c) > 1e-6 for c in deduped)
        ]
    return ScanReport(simplices=simplices, grid_flags=tuple(flags))


def factors_through_oa(model: SystemModel, beta: float, state: QState) -> bool:
    """Whether the induced KMS state descends to the Cuntz-Krieger quotient.

    Over a finite generator set this is exactly full invariance of the
    restriction.  At beta = +inf the answer is always False: invariance
    there would force the state of the unit to vanish.
    """
    if math.isinf(beta) and beta > 0:
        return False
    return is_subinvariant(model, beta, state).invariant
