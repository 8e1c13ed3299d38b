"""Construction and decomposition of beta-scaling states.

Every KMS state of the system restricts to a probability measure rho on
the finite column space, and that restriction (atom masses per column
point, plus the generator values rho(q_x)) determines the state.  This
module builds the two constructive families:

* finite-type states, parametrized by a nonnegative root measure gamma on
  the column points and normalized by Z(beta, gamma);
* ground states (beta = +inf), which are root measures themselves.

It also computes the infinite-stem mass diagnostic, splits an arbitrary
subinvariant state into finite and infinite components via per-atom
defects, and transports a state to a lower temperature (cooling), where it
always lands on the finite-type side.  One rule decides subinvariance, here
and in :mod:`.invariance`: each gap of :func:`_gaps` is at least -``GAP_TOL_DEFAULT``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergentNormalizerError,
    NegativeDefectError,
    NotSubinvariantError,
    ZeroMeasureError,
)
from .model import ColumnSpace, SystemModel, check_beta, column_space
from .partition import _finite_part, transfer_matrix

__all__ = [
    "RootMeasure",
    "TypeTag",
    "QState",
    "Decomposition",
    "qstate_from_atoms",
    "finite_type_state",
    "ground_state",
    "omega_infinity_mass",
    "decompose",
    "cooling",
]

# The one subinvariance rule: a gap below -GAP_TOL_DEFAULT breaks it, and a
# defect at most GAP_TOL_DEFAULT counts as invariant.  A finite fraction
# within DEFECT_TOL of 0 or 1 leaves out the finite or the infinite part.
GAP_TOL_DEFAULT = 1e-10
DEFECT_TOL = 1e-9
# Infinite-stem shells checked against their bound after cooling.
COOLING_CHECK_SHELLS = 20


@dataclass(frozen=True)
class RootMeasure:
    """Nonnegative weights over the column-space points: the free parameter
    of finite-type states.  Scaling by a positive constant yields the same
    state."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if not all(map(math.isfinite, self.weights)):
            raise ValueError("root-measure weights must be finite")
        if min(self.weights, default=0.0) < 0:
            raise ValueError("root-measure weights must be nonnegative")

    @property
    def total(self) -> float:
        return float(sum(self.weights))

    def mass_per_generator(self, space: ColumnSpace) -> np.ndarray:
        """gamma(points containing x) for each generator x."""
        return space.bit_matrix().T @ np.asarray(self.weights)

    @classmethod
    def delta(cls, space: ColumnSpace, point: int, mass: float = 1.0) -> "RootMeasure":
        w = [0.0] * space.d
        w[point] = mass
        return cls(weights=tuple(w))

    @classmethod
    def uniform(cls, space: ColumnSpace) -> "RootMeasure":
        return cls(weights=tuple(1.0 for _ in range(space.d)))


@dataclass(frozen=True)
class TypeTag:
    kind: str                              # "finite" | "infinite" | "mixed"
    finite_fraction: float | None = None   # only for "mixed"

    @classmethod
    def mixed(cls, finite_fraction: float) -> "TypeTag":
        return cls(kind="mixed", finite_fraction=finite_fraction)


FINITE = TypeTag(kind="finite")
INFINITE = TypeTag(kind="infinite")


@dataclass(frozen=True)
class QState:
    """Restriction of a state to the column space: its full fingerprint.

    ``atom_masses[i]`` is the mass at column point i (summing to 1) and
    ``q_values[x]`` = sum of atom masses over points containing x.  The
    induced KMS state evaluates the range projections as
    psi(p_x) = N(x)^-beta * q_values[x].
    """

    beta: float
    atom_masses: tuple[float, ...]
    q_values: tuple[float, ...]
    type_tag: TypeTag

    @property
    def atoms(self) -> np.ndarray:
        return np.asarray(self.atom_masses)

    @property
    def q(self) -> np.ndarray:
        return np.asarray(self.q_values)


def qstate_from_atoms(
    space: ColumnSpace,
    beta: float,
    atoms,
    type_tag: TypeTag,
    atol: float = 1e-9,
) -> QState:
    """Build a QState from atom masses, deriving q_values by the bit rule.

    Raises ValueError for a beta outside (0, inf] (:func:`model.check_beta`)
    and for atoms that are not finite, not one per column point, negative
    beyond ``atol`` or off a total of 1 by more than ``atol``.
    """
    beta = float(beta)
    check_beta(beta, "(0, inf]")
    a = np.asarray(atoms, dtype=float)
    if a.shape != (space.d,):
        raise ValueError(f"need one atom mass per column point ({space.d})")
    # a NaN or infinite atom makes the plain sum NaN or infinite
    if not math.isfinite(a.sum()):
        raise ValueError(f"atom masses must be finite and sum to 1, got {float(a.sum())!r}")
    if a.min() < -atol:
        raise ValueError("atom masses must be nonnegative")
    a = np.maximum(a, 0.0)
    if abs(a.sum() - 1.0) > atol:
        raise ValueError(f"atom masses must sum to 1, got {float(a.sum())!r}")
    q = a @ space.bit_matrix()
    return QState(
        beta=beta,
        atom_masses=tuple(a.tolist()),
        q_values=tuple(q.tolist()),
        type_tag=type_tag,
    )


def finite_type_state(model: SystemModel, beta: float, gamma: RootMeasure) -> QState:
    """The finite-type state generated by a root measure at finite beta.

    Its atoms are those of :func:`partition._finite_part` divided by
    Z(beta, gamma).  Scaling gamma leaves the state unchanged.
    """
    check_beta(beta, "(0, inf)")
    if gamma.total == 0.0:
        raise ZeroMeasureError("cannot normalize the zero measure")
    space = column_space(model)
    part = _finite_part(model, space, beta, gamma.weights)
    if part is None:
        raise DivergentNormalizerError(f"Z({beta}, gamma) diverges")
    atoms, stems = part
    return qstate_from_atoms(space, beta, atoms / (gamma.total + stems), FINITE)


def ground_state(model: SystemModel, gamma: RootMeasure) -> QState:
    """The ground state (beta = +inf) of a nonzero root measure: gamma
    normalized, sitting entirely on the column points; all psi(p_x) vanish."""
    if gamma.total == 0.0:
        raise ZeroMeasureError("cannot normalize the zero measure")
    space = column_space(model)
    atoms = np.asarray(gamma.weights) / gamma.total
    return qstate_from_atoms(space, math.inf, atoms, FINITE)


def omega_infinity_mass(model: SystemModel, beta: float, state: QState, L: int) -> list[float]:
    """Mass escaping to infinite stems, bounded shell by shell.

    Returns s_n for n = 1..L with s_n = sum over admissible words mu of
    length n of N(mu)^-beta q_values[last letter of mu], evaluated by
    transfer-matrix powers.  For subinvariant states the sequence is
    nonincreasing in [0, 1] and its limit is the infinite-stem mass.
    """
    check_beta(beta, "(0, inf]")
    if L < 1:
        raise ValueError("need at least one shell")
    entries = transfer_matrix(model, beta).entries
    u = model.weights(beta)
    w = state.q
    out: list[float] = []
    for _ in range(L):
        out.append(float(u @ w))
        w = entries @ w
    return out


@dataclass(frozen=True)
class Decomposition:
    """Split of a subinvariant state into finite and infinite components.

    ``finite_fraction`` is the total mass carried by finite stems; the
    finite part (the state of ``gamma_finite``) is present only when that
    fraction is above 0, the infinite part only when it is below 1, and its
    generator values are a fixed point of the transfer matrix (residual
    reported, not enforced).  Atoms whose defect is at most
    ``GAP_TOL_DEFAULT`` belong wholly to the infinite part, atom by atom.
    """

    gamma_finite: RootMeasure
    finite_fraction: float
    finite_part: QState | None
    infinite_part: QState | None
    reconstruction_residual: float
    fixed_point_residual: float | None
    q_norm_residual: float | None


def _gaps(model: SystemModel, space: ColumnSpace, beta: float, state: QState):
    """Per column point c: the inflow sum_{z with column c} N(z)^-beta q_z, and atoms minus it."""
    check_beta(beta, "(0, inf]")
    inflow = space.push(model.weights(beta) * state.q)
    return inflow, state.atoms - inflow


def _fixed_point_residual(model: SystemModel, beta: float, v: np.ndarray) -> float:
    """max |(A N^-beta) v - v|: how far v is from a transfer-matrix fixed point."""
    return float(np.abs(transfer_matrix(model, beta).entries @ v - v).max())


def _defects(model: SystemModel, space: ColumnSpace, beta: float, state: QState) -> np.ndarray:
    """Per-atom defect: the gap of :func:`_gaps`, under the one subinvariance rule.

    Raises :class:`NegativeDefectError` at the first gap below
    -``GAP_TOL_DEFAULT``, exactly where :func:`invariance.is_subinvariant`
    rejects the state.  Then every defect at most ``GAP_TOL_DEFAULT`` is
    zeroed as invariant, atom by atom: near criticality the normalizer
    blows up like 1/(1 - r), so eigen-gap noise left in any atom would
    otherwise masquerade as (or inflate) a finite component.
    """
    _, d = _gaps(model, space, beta, state)
    bad = np.flatnonzero(d < -GAP_TOL_DEFAULT)
    if bad.size:
        raise NegativeDefectError(int(bad[0]), float(d[bad[0]]))
    d[d <= GAP_TOL_DEFAULT] = 0.0
    return d


def decompose(model: SystemModel, beta: float, state: QState) -> Decomposition:
    """Recover the root measure and type split of a subinvariant state.

    A state that :func:`invariance.is_subinvariant` rejects at beta raises
    :class:`NegativeDefectError` (:func:`_defects`).  The defect vector is
    exactly the restriction of the underlying measure to trivial-stem
    configurations, so it doubles as the root measure of the finite part;
    the finite fraction is its normalizer Z(beta, defect), from the same
    evaluation of the series (:func:`partition._finite_part`).  A state
    mixing finite-type and invariant parts keeps only its real finite
    defects: :func:`_defects` zeroes the eigen-gap noise atom by atom.
    """
    space = column_space(model)
    d = _defects(model, space, beta, state)
    gamma_fin = RootMeasure(weights=tuple(float(v) for v in d))
    part = _finite_part(model, space, beta, d)
    if part is None:
        raise NotSubinvariantError("the defect measure has a divergent normalizer")
    atoms, stems = part
    # numpy's sum of d here, the left-to-right sum of gamma_fin's weights
    # below: they can differ in the last bit, and both are printed
    fraction = float(d.sum()) + stems
    if fraction > 1.0 + 1e-6:
        raise NotSubinvariantError(
            f"finite fraction {fraction} exceeds 1: data is not a state restriction at beta={beta}"
        )
    fraction = min(fraction, 1.0)

    fin_state = None
    if fraction > DEFECT_TOL:
        fin_state = qstate_from_atoms(space, beta, atoms / (gamma_fin.total + stems), FINITE)

    inf_state = fp_residual = qn_residual = None
    if fraction < 1.0 - DEFECT_TOL:
        fin_atoms = fin_state.atoms if fin_state is not None else np.zeros(space.d)
        rem = np.clip((state.atoms - fraction * fin_atoms) / (1.0 - fraction), 0.0, None)
        # Renormalize so the fixed-point normalization sum N^-beta q = 1
        # holds exactly; the bit rule is preserved by scaling atoms too.
        s = float(model.weights(beta) @ (rem @ space.bit_matrix()))
        qn_residual = abs(s - 1.0)
        if s > 0:
            rem = rem / s
        try:  # atom noise, amplified by 1 / (1 - fraction), may leave no state
            inf_state = qstate_from_atoms(space, beta, rem, INFINITE,
                                          atol=max(1e-9, 2 * qn_residual + 1e-12))
        except ValueError as exc:
            raise NotSubinvariantError(f"no infinite part at beta={beta}: {exc}") from None
        fp_residual = _fixed_point_residual(model, beta, inf_state.q)

    # Reconstruction check: fraction * finite + (1 - fraction) * infinite.
    recon = np.zeros(space.d)
    if fin_state is not None:
        recon += fraction * fin_state.atoms
    if inf_state is not None:
        recon += (1.0 - fraction) * inf_state.atoms
    residual = float(np.abs(recon - state.atoms).max())

    return Decomposition(
        gamma_finite=gamma_fin,
        finite_fraction=float(fraction),
        finite_part=fin_state,
        infinite_part=inf_state,
        reconstruction_residual=residual,
        fixed_point_residual=fp_residual,
        q_norm_residual=qn_residual,
    )


def cooling(model: SystemModel, beta: float, state: QState, beta_prime: float) -> QState:
    """Transport a subinvariant state at beta to beta_prime > beta.

    A state that :func:`invariance.is_subinvariant` rejects at beta raises
    :class:`NotSubinvariantError`.  The result is the unique beta_prime-scaling
    state with the same restriction data; lowering the temperature always
    makes it finite type, with infinite-stem shells bounded by R^(-n delta)
    for R = min N(x) and delta = beta_prime - beta, checked on the first
    ``COOLING_CHECK_SHELLS`` shells.  It is the decomposition's finite part.
    """
    if beta_prime < beta:
        raise ValueError("cooling requires beta_prime >= beta")
    space = column_space(model)
    try:
        _defects(model, space, beta, state)
    except NegativeDefectError as exc:
        raise NotSubinvariantError(f"input state is not subinvariant at beta={beta}") from exc
    if beta_prime == beta:
        warnings.warn("cooling with beta_prime == beta is the identity", stacklevel=2)
        return state

    dec = decompose(model, beta_prime, state)
    if abs(dec.finite_fraction - 1.0) > 1e-6:
        raise NotSubinvariantError(
            f"cooled state failed to close up as finite type (fraction {dec.finite_fraction})"
        )
    cooled = dec.finite_part

    delta = beta_prime - beta
    r_min = float(model.energies.min())
    shells = omega_infinity_mass(model, beta_prime, cooled, COOLING_CHECK_SHELLS)
    for n, s in enumerate(shells, start=1):
        bound = r_min ** (-n * delta)
        if s > bound * (1.0 + 1e-9) + 1e-12:
            raise AssertionError(f"cooling bound violated at shell {n}: {s} > {bound}")
    return cooled
