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
always lands on the finite-type side.
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
from .model import ColumnSpace, SystemModel, column_space
from .partition import restricted_fixed_pairs, transfer_matrix, z_gamma

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
    "DEFECT_CLAMP_DEFAULT",
]

DEFECT_CLAMP_DEFAULT = 1e-12
# A defect below -DEFECT_TOL breaks subinvariance; a finite fraction within
# DEFECT_TOL of 0 or 1 leaves out the finite or the infinite part.
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
        if any(w < 0 for w in self.weights):
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
    """Build a QState from atom masses, deriving q_values by the bit rule."""
    a = np.asarray(atoms, dtype=float)
    if a.shape != (space.d,):
        raise ValueError(f"need one atom mass per column point ({space.d})")
    if (a < -atol).any():
        raise ValueError("atom masses must be nonnegative")
    a = np.clip(a, 0.0, None)
    if abs(a.sum() - 1.0) > atol:
        raise ValueError(f"atom masses must sum to 1, got {a.sum()!r}")
    q = a @ space.bit_matrix()
    return QState(
        beta=float(beta),
        atom_masses=tuple(float(v) for v in a),
        q_values=tuple(float(v) for v in q),
        type_tag=type_tag,
    )


def finite_type_state(model: SystemModel, beta: float, gamma: RootMeasure) -> QState:
    """The finite-type state generated by a root measure at finite beta.

    Stems of positive length contribute their weight at the column of the
    first letter, so the atoms close up as

        atoms[c] = ( gamma[c] + sum_{a with column c} W_a ) / Z(beta, gamma),

    where W_a = sum_x Z_ax(beta) gamma(points containing x) collects every
    word starting at a.  Scaling gamma leaves the state unchanged.
    """
    if not (0 < beta < math.inf):
        raise ValueError("finite-type states need finite positive beta; see ground_state")
    if gamma.total == 0.0:
        raise ZeroMeasureError("cannot normalize the zero measure")
    space = column_space(model)
    mass = gamma.mass_per_generator(space)          # gamma(Omega_e^x) per x
    needed = np.flatnonzero(mass > 0)
    w_first = np.zeros(model.m)                     # W_a, indexed by first letter
    z = gamma.total
    if needed.size:
        pairs = restricted_fixed_pairs(model, beta, needed)
        if pairs is None:
            raise DivergentNormalizerError(f"Z({beta}, gamma) diverges")
        _, z_ax = pairs
        w_first = z_ax @ mass[needed]
        z += float(z_ax.sum(axis=0) @ mass[needed])
    atoms = np.asarray(gamma.weights, dtype=float).copy()
    np.add.at(atoms, np.asarray(space.column_of), w_first)   # adds in generator order
    atoms /= z
    return qstate_from_atoms(space, beta, atoms, FINITE)


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
    infinite part is present only when that fraction is below 1, and its
    generator values are a fixed point of the transfer matrix (residual
    reported, not enforced).  Atoms whose defect lies inside the invariance
    gap tolerance belong wholly to the infinite part, judged atom by atom.
    """

    gamma_finite: RootMeasure
    finite_fraction: float
    infinite_part: QState | None
    reconstruction_residual: float
    fixed_point_residual: float | None
    q_norm_residual: float | None


INVARIANT_TOL = 1e-10


def _defects(model: SystemModel, space: ColumnSpace, beta: float, state: QState) -> np.ndarray:
    """Per-atom defect: atom mass minus the inflow sum_{z with column c} N(z)^-beta q_z.

    Nonnegative exactly when the state is subinvariant at beta (up to
    ``DEFECT_TOL``); entries within ``DEFECT_CLAMP_DEFAULT`` of zero are
    flattened to absorb float noise at exact invariance points.  The
    invariance gap tolerance then applies atom by
    atom: every defect inside it counts as an invariant atom and is zeroed,
    whether or not other atoms carry a real defect.  Near criticality the
    normalizer blows up like 1/(1 - r), so eigen-gap noise left in any
    atom would otherwise masquerade as (or inflate) a finite component.
    """
    inflow = space.push(model.weights(beta) * state.q)
    d = state.atoms - inflow
    d[np.abs(d) < DEFECT_CLAMP_DEFAULT] = 0.0
    for c, v in enumerate(d):
        if v < -DEFECT_TOL:
            raise NegativeDefectError(c, float(v))
    d = np.clip(d, 0.0, None)
    d[d <= INVARIANT_TOL] = 0.0
    return d


def decompose(model: SystemModel, beta: float, state: QState) -> Decomposition:
    """Recover the root measure and type split of a subinvariant state.

    The defect vector is exactly the restriction of the underlying measure
    to trivial-stem configurations, so it doubles as the root measure of
    the finite part; the finite fraction is its normalizer Z(beta, defect).
    Each defect inside the invariance gap tolerance (``INVARIANT_TOL``) is
    zeroed on its own, so a state mixing finite-type and invariant parts
    keeps only its real finite defects: eigen-gap noise on the invariant
    atoms, amplified by a near-critical normalizer, would otherwise shift
    the fraction or push it past 1.
    """
    space = column_space(model)
    d = _defects(model, space, beta, state)
    gamma_fin = RootMeasure(weights=tuple(float(v) for v in d))
    fraction = z_gamma(model, beta, d, space=space)
    if math.isinf(fraction):
        raise NotSubinvariantError("the defect measure has a divergent normalizer")
    if fraction > 1.0 + 1e-6:
        raise NotSubinvariantError(
            f"finite fraction {fraction} exceeds 1: data is not a state restriction at beta={beta}"
        )
    fraction = min(fraction, 1.0)

    fin_state = None
    if fraction > DEFECT_TOL:
        if math.isinf(beta):
            fin_state = ground_state(model, gamma_fin)
        else:
            fin_state = finite_type_state(model, beta, gamma_fin)

    inf_state = None
    fp_residual = None
    qn_residual = None
    if fraction < 1.0 - DEFECT_TOL:
        fin_atoms = fin_state.atoms if fin_state is not None else np.zeros(space.d)
        rem = (state.atoms - fraction * fin_atoms) / (1.0 - fraction)
        rem = np.clip(rem, 0.0, None)
        rem_q = rem @ space.bit_matrix()
        # Renormalize so the fixed-point normalization sum N^-beta q = 1
        # holds exactly; the bit rule is preserved by scaling atoms too.
        s = float(model.weights(beta) @ rem_q)
        qn_residual = abs(s - 1.0)
        if s > 0:
            rem = rem / s
        inf_state = qstate_from_atoms(
            space, beta, rem, INFINITE, atol=max(1e-9, 2 * qn_residual + 1e-12)
        )
        entries = transfer_matrix(model, beta).entries
        fp_residual = float(np.abs(entries @ inf_state.q - inf_state.q).max())

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
        infinite_part=inf_state,
        reconstruction_residual=residual,
        fixed_point_residual=fp_residual,
        q_norm_residual=qn_residual,
    )


def cooling(model: SystemModel, beta: float, state: QState, beta_prime: float) -> QState:
    """Transport a subinvariant state at beta to beta_prime > beta.

    The result is the unique beta_prime-scaling state with the same
    restriction data; lowering the temperature always makes it finite
    type, with infinite-stem shells bounded by R^(-n delta) for
    R = min N(x) and delta = beta_prime - beta, checked on the first
    ``COOLING_CHECK_SHELLS`` shells.
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
    cooled = finite_type_state(model, beta_prime, dec.gamma_finite)

    delta = beta_prime - beta
    r_min = float(model.energies.min())
    shells = omega_infinity_mass(model, beta_prime, cooled, COOLING_CHECK_SHELLS)
    for n, s in enumerate(shells, start=1):
        bound = r_min ** (-n * delta)
        if s > bound * (1.0 + 1e-9) + 1e-12:
            raise AssertionError(f"cooling bound violated at shell {n}: {s} > {bound}")
    return cooled
