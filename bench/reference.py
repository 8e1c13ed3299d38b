"""Independent reference values for the output checks.

Everything here uses numpy and scipy only, never ``kmsphase``: spectral
radii by a full ``eigvals``, critical temperatures by ``brentq``, the column
space by ``np.unique``, shell counts by exact integer matrix powers and
finite-type states by one dense solve.  The benchmark computes these at
set-up, outside ``setup_s`` and outside every job timing.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.sparse.csgraph import connected_components


def weights(energies: np.ndarray, beta: float) -> np.ndarray:
    """N(x)^-beta, with the beta = +inf case giving zeros."""
    if math.isinf(beta):
        return np.zeros(len(energies))
    return energies ** (-beta)


def transfer(matrix: np.ndarray, energies: np.ndarray, beta: float) -> np.ndarray:
    return matrix * weights(energies, beta)[None, :]


def radius(matrix: np.ndarray, energies: np.ndarray, beta: float) -> float:
    return float(np.abs(np.linalg.eigvals(transfer(matrix, energies, beta))).max())


def beta_c(matrix: np.ndarray, energies: np.ndarray) -> float:
    """Root of r(beta) = 1, bracketed by r(beta) <= r(A) min(N)^-beta."""
    r_a = float(np.abs(np.linalg.eigvals(matrix.astype(float))).max())
    hi = math.log(r_a) / math.log(float(energies.min())) * (1.0 + 1e-6) + 1e-9
    return brentq(lambda b: radius(matrix, energies, b) - 1.0, 0.0, hi, xtol=1e-14)


class ColumnSpace:
    """Distinct columns of A in lexicographic order, as the program indexes them."""

    def __init__(self, matrix: np.ndarray):
        pts, inverse = np.unique(matrix.T, axis=0, return_inverse=True)
        self.points = pts.astype(float)                  # (d, m)
        self.column_of = np.asarray(inverse).reshape(-1)  # (m,)
        self.d = pts.shape[0]
        self.membership = np.zeros((self.d, matrix.shape[0]))
        self.membership[self.column_of, np.arange(matrix.shape[0])] = 1.0


def resolvent(matrix: np.ndarray, energies: np.ndarray, beta: float) -> np.ndarray:
    m = matrix.shape[0]
    return np.linalg.solve(np.eye(m) - transfer(matrix, energies, beta), np.eye(m))


def finite_type_atoms(matrix, energies, beta, space: ColumnSpace, gammas: np.ndarray) -> np.ndarray:
    """Atoms of the finite-type states of the root measures in the columns of
    ``gammas`` (d, k): atoms = (gamma + sum over first letters of W) / Z."""
    nw = weights(energies, beta)
    mass = space.points.T @ gammas                       # (m, k)
    w_first = nw[:, None] * (resolvent(matrix, energies, beta) @ mass)
    z = gammas.sum(axis=0) + w_first.sum(axis=0)
    return (gammas + space.membership @ w_first) / z[None, :]


def perron_state(matrix, energies, beta, space: ColumnSpace) -> tuple[np.ndarray, np.ndarray]:
    """(atoms, q) of the critical state: q is the Perron vector with
    sum N^-beta q = 1, and each atom collects N(z)^-beta q_z by column."""
    vals, vecs = np.linalg.eig(transfer(matrix, energies, beta))
    v = np.abs(vecs[:, int(np.argmax(vals.real))].real)
    nw = weights(energies, beta)
    v = v / float(nw @ v)
    return space.membership @ (nw * v), v


def gaps(matrix, energies, beta, space: ColumnSpace, atoms: np.ndarray) -> np.ndarray:
    """Atom mass minus inflow; all >= 0 exactly when the state is subinvariant."""
    q = atoms @ space.points
    return atoms - space.membership @ (weights(energies, beta) * q)


def shell_counts(matrix: np.ndarray, L: int) -> list[int]:
    """Exact number of admissible words of each length 0..L."""
    a = matrix.astype(object)
    v = np.ones(matrix.shape[0], dtype=object)
    out = [1]
    for _ in range(L):
        out.append(int(v.sum()))
        v = a @ v
    return out


def shell_sums(matrix, energies, beta, L: int) -> list[float]:
    """sum over words of length n of N(mu)^-beta, n = 0..L, by matrix powers."""
    nw = weights(energies, beta)
    t = nw.copy()
    out = [1.0]
    for _ in range(L):
        out.append(math.fsum(t))
        t = nw * (matrix @ t)
    return out


def abscissa(matrix, energies, L: int) -> float:
    """Root in beta of S_L(beta) / S_{L-1}(beta) = 1."""
    def g(b):
        s = shell_sums(matrix, energies, b, L)
        return s[L] / s[L - 1] - 1.0

    hi = 1.0
    while g(hi) > 0.0:
        hi *= 2.0
    return brentq(g, 0.0, hi, xtol=1e-14)


def partition_z(matrix, energies, beta) -> tuple[float, np.ndarray]:
    """(Z, Z_y) from one solve; valid only when r(beta) < 1."""
    nw = weights(energies, beta)
    z_y = nw @ resolvent(matrix, energies, beta)
    return 1.0 + float(z_y.sum()), z_y


def omega_shells(matrix, energies, beta, q: np.ndarray, L: int) -> list[float]:
    nw = weights(energies, beta)
    m_beta = transfer(matrix, energies, beta)
    out = []
    for _ in range(L):
        out.append(float(nw @ q))
        q = m_beta @ q
    return out


def oa_temperatures(matrix: np.ndarray, energies: np.ndarray) -> list[float]:
    """Temperatures carrying a quotient KMS state, by Frobenius-Victory.

    A strong component C gives a nonnegative fixed vector at its own root
    beta_C exactly when every other component with a path into C has a
    smaller root (its radius is then below 1 at beta_C).  Components whose
    radius is at most 1 at beta = 0 carry no positive temperature.
    """
    ncomp, labels = connected_components(matrix, directed=True, connection="strong")
    roots: dict[int, float] = {}
    for c in range(ncomp):
        idx = np.flatnonzero(labels == c)
        sub, en = matrix[np.ix_(idx, idx)], energies[idx]
        if sub.any() and radius(sub, en, 0.0) > 1.0 + 1e-9:
            roots[c] = beta_c(sub, en)
    reach = (np.eye(len(matrix), dtype=int) + matrix) > 0
    for _ in range(int(math.log2(len(matrix))) + 1):
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    out = []
    for c, b in roots.items():
        into_c = reach[:, labels == c].any(axis=1)
        ancestors = {int(lab) for lab in labels[into_c]} - {c}
        if all(roots.get(a, -math.inf) < b for a in ancestors):
            out.append(b)
    return sorted(out)
