"""Seeded model generators owned by the benchmark.

The recipes are copies, not imports, of the test-suite generators, so that
editing the tests cannot shift the benchmark's inputs.  Only numpy and
scipy are used: the program under test never sees a model before the
benchmark hands it over as a JSON file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

ENERGY_RANGE = (1.5, 4.0)

# The default star family: N(0) = 2 and starred energies N_k = j log^2(j + 1)
# with j = STAR_DROP + k.  STAR_DROP is the smallest drop meeting both
# N_k >= 2 and the normalization condition, as `kmsphase star` selects it.
STAR_DROP = 1


@dataclass
class Model:
    """One generated input: a 0-1 matrix with energies, plus its file path."""

    name: str
    matrix: np.ndarray
    energies: np.ndarray
    path: str = ""

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    def write(self, directory: str) -> None:
        self.path = f"{directory}/{self.name}.json"
        with open(self.path, "w") as fh:
            json.dump({"matrix": self.matrix.tolist(), "energies": self.energies.tolist()}, fh)


def rng_for(seed: int, role: int) -> np.random.Generator:
    """Independent stream per model role, so adding a model shifts no other."""
    return np.random.default_rng([seed, role])


def _irreducible(a: np.ndarray) -> bool:
    return connected_components(a, directed=True, connection="strong")[0] == 1


def random_matrix(rng: np.random.Generator, m: int) -> np.ndarray:
    """Random 0-1 matrix with no zero rows (copy of the test recipe)."""
    a = np.zeros((m, m), dtype=int)
    for x in range(m):
        k = rng.integers(1, m + 1)
        cols = rng.choice(m, size=min(k, m), replace=False)
        a[x, cols] = 1
    return a


def random_irreducible(rng: np.random.Generator, m: int, name: str, max_tries: int = 500) -> Model:
    """Irreducible, not permutation-like, energies uniform in ENERGY_RANGE."""
    for _ in range(max_tries):
        a = random_matrix(rng, m)
        energies = rng.uniform(*ENERGY_RANGE, size=m)
        if not _irreducible(a):
            continue
        if np.abs(np.linalg.eigvals(a.astype(float))).max() <= 1.0 + 1e-9:
            continue
        return Model(name, a, energies)
    raise RuntimeError(f"failed to sample an irreducible model of size {m}")


def golden_mean(energy: float = math.e, name: str = "golden") -> Model:
    return Model(name, np.array([[0, 1], [1, 1]]), np.array([energy, energy]))


def full(m: int, energy: float = 2.0) -> Model:
    return Model(f"full{m}", np.ones((m, m), dtype=int), np.full(m, energy))


def star_truncation(K: int) -> Model:
    """Star truncated to generators {0, 1, ..., K}: bipartite, period 2."""
    a = np.zeros((K + 1, K + 1), dtype=int)
    a[0, 1:] = 1
    a[1:, 0] = 1
    j = np.arange(STAR_DROP + 1, STAR_DROP + K + 1, dtype=float)
    return Model(f"star{K}", a, np.concatenate([[2.0], j * np.log(j + 1.0) ** 2]))


def block_triangular(rng: np.random.Generator, sizes: tuple[int, ...], name: str,
                     block_beta_c, min_gap: float = 0.05, max_tries: int = 200) -> Model:
    """Reducible model: irreducible diagonal blocks, links only from earlier to
    later blocks, one strong component per block.

    ``block_beta_c(model)`` gives a block's critical temperature; blocks are
    resampled until the temperatures differ pairwise by ``min_gap``
    relative, so every component has its own quotient KMS temperature.
    """
    m = sum(sizes)
    starts = np.cumsum((0,) + sizes[:-1])
    for _ in range(max_tries):
        blocks = [random_irreducible(rng, s, f"{name}-b{i}") for i, s in enumerate(sizes)]
        betas = sorted(block_beta_c(b) for b in blocks)
        if min(b - a for a, b in zip(betas, betas[1:])) <= min_gap * betas[-1]:
            continue
        a = np.zeros((m, m), dtype=int)
        energies = np.zeros(m)
        for s0, blk in zip(starts, blocks):
            a[s0:s0 + blk.m, s0:s0 + blk.m] = blk.matrix
            energies[s0:s0 + blk.m] = blk.energies
        for i in range(len(sizes) - 1):
            for _ in range(int(rng.integers(1, 4))):
                x = starts[i] + rng.integers(sizes[i])
                j = int(rng.integers(i + 1, len(sizes)))
                a[x, starts[j] + rng.integers(sizes[j])] = 1
        ncomp = connected_components(a, directed=True, connection="strong")[0]
        if ncomp != len(sizes):
            raise RuntimeError("block-triangular model has unexpected components")
        return Model(name, a, energies)
    raise RuntimeError(f"failed to sample distinct block temperatures for {name}")
