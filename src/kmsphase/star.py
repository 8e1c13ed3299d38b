"""The star system: an infinite alphabet with infinitely many critical KMS states.

Generators are {0, 1, 2, ...}; row 0 and column 0 of the transition matrix
are all ones except the (0, 0) entry, everything else is zero, so
admissible words strictly alternate between 0 and starred letters.  With
N(0) = 2 and starred energies N_k drawn from a Dirichlet series

    zeta(beta) = sum_k N_k^-beta

that converges at its abscissa beta_bar, and with the head trimmed until

    zeta(beta_bar) < 2^beta_bar            (the normalization condition)

and N_k >= 2 throughout, the full partition function converges *at* the
critical temperature beta_c = beta_bar.  Every root measure on the
two-point column space then yields a distinct critical KMS state, all of
finite type.

Closed forms are certified, not sampled: for the default term rule
N_k = k (log(k+1))^2 the zeta tail is enclosed by the integral bound
int dx / (x log^2 x) = 1 / log x, so every reported value carries an
analytic error bar.  Finite truncations (keeping row/column 0 plus the
first K starred generators) provide the independent oracle.

Convention note: the displayed geometric closed form for Z_0,

    Z_0_displayed(beta) = (1 + 2^-beta) / (1 - 2^-beta zeta(beta)),

counts the empty word once; the fixed-target series over words actually
ending in 0 is Z_0_displayed - 1.  Downstream identities (the Z_k rule and
the total partition function) and the truncated-matrix oracle both live in
the fixed-target convention, and reports carry the convention tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rounding import Enclosure
from .errors import (
    BelowAbscissaError,
    ConditionDaggerFailsError,
    EnergyBelowTwoError,
)
from .model import SystemModel, build_model

__all__ = [
    "StarSystem",
    "StarPartition",
    "StarCriticalState",
    "build_star",
    "zeta_enclosure",
    "zeta_value",
    "star_z0",
    "star_partition",
    "star_kms_at_critical",
    "truncated_model",
    "zeta_tail_after",
    "z0_truncation_bound",
    "Z0_CONVENTION",
]

Z0_CONVENTION = (
    "z0_displayed counts the empty word; fixed-target value = z0_displayed - 1 "
    "matches the truncated-matrix oracle"
)

HEAD_COUNT_DEFAULT = 200_000


def _default_term(j: np.ndarray | float):
    """Raw term rule N_j = j log^2(j+1) before dropping and relabeling."""
    return j * np.log(np.asarray(j, dtype=float) + 1.0) ** 2


@dataclass(frozen=True, eq=False)
class StarSystem:
    """A validated star system.

    ``head`` holds the retained starred energies N_1..N_H (after dropping
    ``drop`` leading terms of the rule); for the default family the
    remaining tail is carried symbolically through the integral bound, for
    user lists the tail is exactly zero and the declared abscissa is echoed
    unverified.
    """

    kind: str                     # "default" | "user"
    drop: int
    beta_bar: float
    head: np.ndarray              # starred energies, relabeled from 1
    n0_energy: float
    first_omitted: int | None     # raw index of the first tail term (default family)
    abscissa_verified: bool
    zeta_at_abscissa_bounds: Enclosure

    def __post_init__(self):
        self.head.setflags(write=False)


def _tail_bounds(beta: float, beta_bar: float, first_omitted: int) -> Enclosure:
    """Certified enclosure of the default-family tail sum_{j >= J} (j log^2(j+1))^-beta.

    The term function is decreasing, so integral comparison sandwiches the
    sum; for beta = beta_bar = 1 both sides are the exact 1/log integral,
    for larger beta the excess power is bounded by its value at the edge.
    """
    j = first_omitted
    a = j - 1
    if a < 2:
        raise ValueError("tail bound needs at least two retained raw terms")
    if beta == beta_bar:
        return Enclosure(1.0 / math.log(j + 1), 1.0 / math.log(a))
    return Enclosure(0.0, (a * math.log(a) ** 2) ** (1.0 - beta) / math.log(a))


def _check_abscissa(sys: StarSystem, beta: float) -> None:
    """Raise BelowAbscissaError unless beta >= beta_bar (NaN included)."""
    if not beta >= sys.beta_bar:
        raise BelowAbscissaError(f"zeta is only evaluated for beta >= {sys.beta_bar}")


def zeta_enclosure(sys: StarSystem, beta: float) -> Enclosure:
    """Certified lower/upper bounds on zeta(beta); requires beta >= beta_bar."""
    _check_abscissa(sys, beta)
    head = float(np.sum(sys.head ** (-beta)))
    if sys.kind == "user":
        return Enclosure(head, head)
    lo, hi = _tail_bounds(beta, sys.beta_bar, sys.first_omitted)
    return Enclosure(head + lo, head + hi)


def zeta_value(sys: StarSystem, beta: float) -> float:
    return zeta_enclosure(sys, beta).mid


def build_star(
    family: str | Sequence[float] = "default",
    drop: int | None = None,
    declared_abscissa: float | None = None,
    head_count: int = HEAD_COUNT_DEFAULT,
) -> StarSystem:
    """Validate a star system from the default term rule or a user list.

    ``drop = None`` selects drop 1, the least with N_1 >= 2 (at drop 0,
    N_1 = log^2 2), and a drop of 0 raises EnergyBelowTwoError.  The
    certified upper bound on zeta(1) is largest at drop 1 with a head of one
    term, where it is 1.857, so the normalization condition holds; it is
    still checked, and a failure raises ConditionDaggerFailsError.  User
    lists carry their declared abscissa unverified and an exactly zero tail.
    """
    if isinstance(family, str):
        if family != "default":
            raise ValueError(f"unknown family {family!r}")
        drop = 1 if drop is None else drop
        head, bounds = _default_head(drop, head_count)
        if not bounds.hi < 2.0:
            raise ConditionDaggerFailsError(None)
        return StarSystem(
            kind="default", drop=drop, beta_bar=1.0, head=head, n0_energy=2.0,
            first_omitted=drop + head_count + 1, abscissa_verified=True,
            zeta_at_abscissa_bounds=bounds,
        )

    terms = np.asarray(list(family), dtype=float)
    if declared_abscissa is None:
        raise ValueError("user term lists must declare their abscissa")
    d = drop or 0
    terms = terms[d:]
    if terms.size == 0:
        raise ValueError("no terms left after dropping")
    for k, v in enumerate(terms, start=1):
        if v < 2.0:
            raise EnergyBelowTwoError(k, float(v))
    bb = float(declared_abscissa)
    z_at = float(np.sum(terms ** (-bb)))
    if not z_at < 2.0 ** bb:
        raise ConditionDaggerFailsError(None)
    return StarSystem(
        kind="user", drop=d, beta_bar=bb, head=terms, n0_energy=2.0,
        first_omitted=None, abscissa_verified=False,
        zeta_at_abscissa_bounds=Enclosure(z_at, z_at),
    )


def _default_head(drop: int, head_count: int) -> tuple[np.ndarray, Enclosure]:
    """The default family's head after ``drop`` terms, with its certified
    bounds on zeta(1).

    Raises EnergyBelowTwoError when N_1 < 2, checked before the head is built.
    """
    first = float(_default_term(float(drop + 1)))
    if first < 2.0:
        raise EnergyBelowTwoError(1, first)
    head = _default_term(np.arange(drop + 1, drop + head_count + 1, dtype=float))
    lo_t, hi_t = _tail_bounds(1.0, 1.0, drop + head_count + 1)
    head_sum = float(np.sum(1.0 / head))
    return head, Enclosure(head_sum + lo_t, head_sum + hi_t)


def star_z0(sys: StarSystem, beta: float) -> float:
    """Displayed closed form for Z_0 (geometric in 2^-beta zeta(beta)).

    Returns +inf when the geometric ratio reaches 1.  See Z0_CONVENTION:
    subtract 1 for the fixed-target series over words ending in 0.
    """
    return _z0_displayed(beta, zeta_enclosure(sys, beta))


def _z0_displayed(beta: float, enclosure: Enclosure) -> float:
    """star_z0 from the enclosure of zeta(beta)."""
    two = 2.0 ** (-beta)
    ratio = two * enclosure.mid
    if ratio >= 1.0:
        return math.inf
    return (1.0 + two) / (1.0 - ratio)


@dataclass(frozen=True)
class StarPartition:
    """Partition values in the fixed-target convention.

    z_k for a starred letter k is N_k^-beta * zk_factor, and the total is
    (1 + z0) (1 + zeta).
    """

    beta: float
    zeta: float
    z0: float            # fixed-target: words ending in 0
    zk_factor: float     # = 1 + z0
    z_total: float
    convention: str = Z0_CONVENTION


def star_partition(sys: StarSystem, beta: float) -> StarPartition:
    return _partition(beta, zeta_enclosure(sys, beta))


def _partition(beta: float, enclosure: Enclosure) -> StarPartition:
    """star_partition from the enclosure of zeta(beta)."""
    z0_disp = _z0_displayed(beta, enclosure)
    zeta = enclosure.mid
    if math.isinf(z0_disp):
        return StarPartition(
            beta=beta, zeta=zeta, z0=math.inf, zk_factor=math.inf, z_total=math.inf
        )
    z0 = z0_disp - 1.0
    return StarPartition(
        beta=beta, zeta=zeta, z0=z0, zk_factor=1.0 + z0, z_total=(1.0 + z0) * (1.0 + zeta)
    )


@dataclass(frozen=True)
class StarCriticalState:
    """A critical KMS state of the star system, by its generator values.

    Symmetry makes rho(q_k) common to every starred letter.  ``t``
    parametrizes the segment between the two extreme root measures (point
    masses on the two column points, each normalized to Z = 1)."""

    t: float
    rho_q0: float
    rho_qk: float
    gamma_masses: tuple[float, float]   # (mass at 1_{G_*}, mass at 1_{{0}})
    z_check: float                      # Z(beta_bar, gamma_t); 1 up to rounding


def star_kms_at_critical(sys: StarSystem, t: float) -> StarCriticalState:
    """The critical finite-type state of the root measure gamma_t.

    gamma_t puts mass t on the column of generator 0 (the all-starred
    point) and 1 - t on the common column of the starred generators (the
    point {0}), each normalized by its own Z; distinct t give distinct
    generator values, certifying a full segment of critical KMS states.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    beta = sys.beta_bar
    zeta = sys.zeta_at_abscissa_bounds.mid  # zeta_value at beta_bar, as validated
    two = 2.0 ** (-beta)
    f = 1.0 / (1.0 - two * zeta)        # geometric factor of alternating loops
    z0 = two * (1.0 + zeta) * f         # fixed-target Z_0
    z_b = 1.0 + z0                      # Z(beta, point mass at {0})
    z_a = 1.0 + (1.0 + z0) * zeta       # Z(beta, point mass at 1_{G_*})
    g_a = t / z_a                       # gamma_t(points containing any starred bit)
    g_b = (1.0 - t) / z_b               # gamma_t(points containing bit 0)

    w0 = two * f * g_b + two * zeta * f * g_a          # words starting at 0
    w_star = zeta * (two * f * g_b + (1.0 + two * zeta * f) * g_a)
    rho_q0 = g_b + w_star
    rho_qk = g_a + w0
    z_check = (g_a + g_b) + z0 * g_b + (1.0 + z0) * zeta * g_a
    return StarCriticalState(
        t=t, rho_q0=rho_q0, rho_qk=rho_qk, gamma_masses=(t, 1.0 - t), z_check=z_check
    )


def truncated_model(sys: StarSystem, K: int) -> SystemModel:
    """Finite star model on generators {0, 1, ..., K}: the oracle matrix."""
    if K < 1:
        raise ValueError("need at least one starred generator")
    if K > sys.head.size:
        raise ValueError(f"only {sys.head.size} head terms are stored")
    m = K + 1
    a = np.zeros((m, m), dtype=int)
    a[0, 1:] = 1
    a[1:, 0] = 1
    energies = np.concatenate([[sys.n0_energy], sys.head[:K]])
    return build_model(a, energies)


def zeta_tail_after(sys: StarSystem, beta: float, K: int) -> float:
    """Certified upper bound on the tail sum_{k > K} N_k^-beta; requires beta >= beta_bar."""
    _check_abscissa(sys, beta)
    if sys.kind == "user":
        return float(np.sum(sys.head[K:] ** (-beta)))
    return _tail_bounds(beta, sys.beta_bar, sys.drop + K + 1).hi


def z0_truncation_bound(sys: StarSystem, beta: float, K: int, z0_truncated: float) -> float:
    """Analytic bound on |closed-form z0 - level-K truncated z0| (fixed target).

    Words lost to truncation split at their first letter above K, giving
    (1 + z0_truncated) * tail * (loop factor); every factor is evaluated at
    its certified upper value.
    """
    return _truncation_bound(sys, beta, K, z0_truncated, zeta_enclosure(sys, beta).hi)


def _truncation_bound(sys: StarSystem, beta: float, K: int, z0_truncated: float,
                      zeta_hi: float) -> float:
    """z0_truncation_bound from the upper end of the enclosure of zeta(beta)."""
    tail_up = zeta_tail_after(sys, beta, K)
    two = 2.0 ** (-beta)
    if two * zeta_hi >= 1.0:
        return math.inf
    loop = two / (1.0 - two * zeta_hi)
    return (1.0 + z0_truncated) * tail_up * loop
