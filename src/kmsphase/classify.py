"""Phase diagram of the Toeplitz system and the KMS simplex of its quotient.

For an irreducible finite system the picture at inverse temperature beta
is a trichotomy around beta_c: no KMS states below, a unique infinite-type
state at beta_c (the Perron fixed point), and a simplex of dimension
d(A) - 1 of finite-type states above, whose extreme points come from point
masses on the column space.  Ground states (beta = +inf) form the same
simplex of root measures.

On the Cuntz-Krieger quotient the KMS_beta states exist exactly when the
transfer matrix M has a nonnegative fixed vector, and they form the
simplex of such vectors normalized by sum N(x)^-beta v_x = 1;
irreducibility is not required there.  The extreme vectors are given by
the Frobenius-Victory theorem (Schneider, Linear Algebra Appl. 1986; an
Huef, Laca, Raeburn and Sims, "KMS states on the C*-algebras of reducible
graphs", Ergodic Theory Dynam. Systems 2015): one per strong class C with
r_C(beta) = 1 whose other ancestor classes all have r < 1, namely the
Perron vector of M_CC extended to the ancestors of C by a restricted
solve.  Since every r_C is strictly decreasing in beta, the quotient
temperatures are among the class roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .critical import CriticalReport, _certified_vector, beta_c as compute_beta_c
from .errors import NotIrreducibleError, ZeroColumnError
from .invariance import invariant_state_from_fixed_point, is_subinvariant
from .model import SystemModel, column_space, properties
from .partition import _ancestors, class_roots, perron_pair, transfer_matrix
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
    """The non-empty quotient simplices, in increasing beta.

    ``grid_flags`` is always empty and keeps the shape of the printed
    report: r_C is strictly decreasing, so a nonnegative fixed vector can
    exist only at a class root, and the scan evaluates every class root.
    """

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


def _require_no_zero_column(model: SystemModel) -> None:
    if not properties(model).no_zero_column:
        raise ZeroColumnError(int(np.flatnonzero(~model.matrix.any(axis=0))[0]))


def kms_oa(model: SystemModel, beta: float) -> OaSimplex:
    """KMS_beta simplex of the quotient algebra, as extreme fixed vectors.

    Requires no identically zero columns; irreducibility is not needed, so
    reducible systems may produce several distinct KMS temperatures.  Each
    strong class C is above, critical or below as r_C(beta) is above 1, within
    ``EIG_ONE_TOL_DEFAULT`` of it, or below (a letter alone is its diagonal
    entry, otherwise :func:`partition.perron_pair` of M_CC).  By the
    Frobenius-Victory theorem a critical class whose other ancestor classes
    are all below gives one extreme vector, and nothing else does: the
    Perron vector v_C of M_CC on C, v_U' = (I - M_U'U')^-1 M_U'C v_C on the
    rest U' of the ancestors of C (converging, as every class in U' is
    below), zero elsewhere, normalized by sum_x N(x)^-beta v_x = 1.  A
    critical class's Perron pair raises NoConvergenceError when its
    Collatz-Wielandt bounds did not meet (as :func:`critical.perron_vector`).
    The vectors are sorted by their entries rounded to 9 digits.
    """
    if not (0 < beta < math.inf):
        raise ValueError("quotient KMS states are computed for finite positive beta")
    _require_no_zero_column(model)
    entries = transfer_matrix(model, beta).entries
    ncomp, labels = model.strong_components
    members = [np.flatnonzero(labels == c) for c in range(ncomp)]
    radii = np.empty(ncomp)
    pairs = {}
    for c, idx in enumerate(members):
        if len(idx) == 1:
            radii[c] = entries[idx[0], idx[0]]
        else:
            pairs[c] = perron_pair(entries[np.ix_(idx, idx)])
            radii[c] = pairs[c].r
    below = radii < 1.0 - EIG_ONE_TOL_DEFAULT
    nweights = model.weights(beta)

    vectors = []
    for c in np.flatnonzero(np.abs(radii - 1.0) <= EIG_ONE_TOL_DEFAULT):
        idx = members[c]
        ancestors = _ancestors(model.matrix, idx)
        rest = ancestors[labels[ancestors] != c]
        if not below[labels[rest]].all():
            continue
        v = np.zeros(model.m)
        v[idx] = _certified_vector(pairs[c]) if c in pairs else 1.0
        if rest.size:
            v[rest] = np.linalg.solve(
                np.eye(rest.size) - entries[np.ix_(rest, rest)],
                entries[np.ix_(rest, idx)] @ v[idx],
            )
        vectors.append(v / float(nweights @ v))
    vectors.sort(key=lambda u: tuple(np.round(u, 9)))
    return OaSimplex(
        beta=float(beta),
        extreme_vectors=tuple(tuple(float(x) for x in v) for v in vectors),
    )


def oa_beta_scan(model: SystemModel) -> ScanReport:
    """Locate every beta carrying a KMS state on the quotient.

    A class's r_C(beta) is strictly decreasing, so by the rule of
    :func:`kms_oa` a nonnegative fixed vector can exist only at a root of
    r_C(beta) = 1.  The candidates are those roots, read from
    :func:`partition.class_roots`, sorted, with roots within 1e-9 of the
    previous one merged; each is kept when :func:`kms_oa` finds a vector
    there.
    """
    _require_no_zero_column(model)
    candidates = sorted(c.beta for c in class_roots(model) if c.beta is not None)
    deduped: list[float] = []
    for b in candidates:
        if not deduped or abs(b - deduped[-1]) > 1e-9:
            deduped.append(b)
    simplices = tuple(
        s for s in (kms_oa(model, b) for b in deduped) if s.extreme_vectors
    )
    return ScanReport(simplices=simplices, grid_flags=())


def factors_through_oa(model: SystemModel, beta: float, state: QState) -> bool:
    """Whether the induced KMS state descends to the Cuntz-Krieger quotient.

    Over a finite generator set this is exactly full invariance of the
    restriction.  At beta = +inf the answer is always False: invariance
    there would force the state of the unit to vanish.
    """
    if math.isinf(beta) and beta > 0:
        return False
    return is_subinvariant(model, beta, state).invariant
