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
from .model import SystemModel, check_beta, column_space
from .partition import class_roots, perron_pair, transfer_matrix
from .states import FINITE, QState, RootMeasure, finite_type_state

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
    if model.strong_components[0] != 1:
        raise NotIrreducibleError("phase classification requires an irreducible matrix")
    check_beta(beta, "(0, inf]")
    crit = crit or compute_beta_c(model)

    if math.isinf(beta):
        space = column_space(model)
        # ground_state of the point mass at c: atoms the unit vector e_c, q
        # its bit row (e_c @ bits adds only exact zeros), built all at once
        extremes = tuple(
            QState(math.inf, tuple(atoms), tuple(q), FINITE)
            for atoms, q in zip(np.eye(space.d).tolist(), space.bit_matrix().tolist())
        )
        return PhaseRegime(
            kind="ground", beta=beta, beta_critical=crit.beta_c,
            unique_state=None, extreme_states=extremes, simplex_dim=space.d - 1,
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

    space = column_space(model)
    extremes = tuple(
        finite_type_state(model, beta, RootMeasure.delta(space, c))
        for c in range(space.d)
    )
    return PhaseRegime(
        kind="above", beta=beta, beta_critical=crit.beta_c,
        unique_state=extremes[0] if space.d == 1 else None,
        extreme_states=extremes, simplex_dim=space.d - 1,
        permutation_like=crit.permutation_like,
    )


def _require_no_zero_column(model: SystemModel) -> None:
    zero = np.flatnonzero(~model.matrix.any(axis=0))
    if zero.size:
        raise ZeroColumnError(int(zero[0]))


def kms_oa(model: SystemModel, beta: float) -> OaSimplex:
    """KMS_beta simplex of the quotient algebra, as extreme fixed vectors.

    Requires no identically zero columns; irreducibility is not needed, so
    reducible systems may produce several distinct KMS temperatures.  Each
    strong class C is above, critical or below as r_C(beta) is above 1, within
    ``EIG_ONE_TOL_DEFAULT`` of it, or below.  The class roots
    (:func:`partition.class_roots`, built on the first call for a model)
    decide first: a class whose certified bounds on r_C(beta)
    (:meth:`partition.ClassRoot.radius_bounds`) lie wholly outside
    [1 - ``EIG_ONE_TOL_DEFAULT``, 1 + ``EIG_ONE_TOL_DEFAULT``] is above or
    below with no power step.  Any other class takes r_C as the root of
    :func:`partition.perron_pair` of M_CC, started from its class root's
    pair (exact for a letter alone: its diagonal entry, with vectors
    [1.0]).  By the
    Frobenius-Victory theorem a critical class whose other ancestor classes
    are all below gives one extreme vector, and nothing else does: the
    Perron vector v_C of M_CC on C, v_U' = (I - M_U'U')^-1 M_U'C v_C on the
    rest U' of the ancestors of C (converging, as every class in U' is
    below), zero elsewhere, normalized by sum_x N(x)^-beta v_x = 1.  A
    critical class's Perron pair raises NoConvergenceError when its
    Collatz-Wielandt bounds did not meet (as :func:`critical.perron_vector`).
    The vectors are sorted by their entries rounded to 9 digits.
    """
    check_beta(beta, "(0, inf)")
    _require_no_zero_column(model)
    entries = transfer_matrix(model, beta).entries
    _, labels = model.strong_components
    roots = class_roots(model)
    below = np.zeros(len(roots), dtype=bool)
    critical = []
    for c, root in enumerate(roots):
        lower, upper = root.radius_bounds(model, beta)
        if upper < 1.0 - EIG_ONE_TOL_DEFAULT:
            below[c] = True
        elif not lower > 1.0 + EIG_ONE_TOL_DEFAULT:
            idx = root.generators
            pair = perron_pair(entries[np.ix_(idx, idx)], root.pair)
            below[c] = pair.r < 1.0 - EIG_ONE_TOL_DEFAULT
            if abs(pair.r - 1.0) <= EIG_ONE_TOL_DEFAULT:
                critical.append((c, pair))
    nweights = model.weights(beta)

    vectors = []
    for c, pair in critical:
        idx = roots[c].generators
        ancestors = model.ancestors(idx)
        rest = ancestors[labels[ancestors] != c]
        if not below[labels[rest]].all():
            continue
        v = np.zeros(model.m)
        v[idx] = _certified_vector(pair)
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
    return is_subinvariant(model, beta, state).invariant
