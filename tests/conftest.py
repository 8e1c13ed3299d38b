"""Shared fixtures and model generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from kmsphase import build_model, properties
from kmsphase.critical import matrix_spectral_radius

# The same examples on every run, and no example database replayed first: a
# failure is then a fact of the code under test, not of an earlier run.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def golden_mean_model(energy=np.e):
    return build_model([[0, 1], [1, 1]], [energy, energy])


def full_model(m, energy=2.0):
    return build_model(np.ones((m, m), dtype=int), [energy] * m)


def block_model(*blocks):
    """Block-diagonal model with no transitions between blocks.

    Each block is (matrix, energy) with one energy for all its generators.
    Blocks have their own critical temperatures, so at the critical
    temperature of one block the subcritical blocks still carry finite-type
    states while the critical block carries an invariant one.
    """
    sizes = [len(a) for a, _ in blocks]
    m = sum(sizes)
    a = np.zeros((m, m), dtype=int)
    energies = []
    start = 0
    for (block, energy), size in zip(blocks, sizes):
        a[start:start + size, start:start + size] = block
        energies += [energy] * size
        start += size
    return build_model(a, energies)


def coexistence_models():
    """Reducible models whose quotient temperatures carry finite-type states too.

    * golden mean on {0, 1} (N = e) beside the full 2 x 2 on {2, 3}
      (N = e^2): at the global beta_c = ln(phi) the golden block carries the
      invariant state and the full block (r = 2 e^(-2 ln phi) < 1) carries
      finite-type states;
    * the same plus a full 3 x 3 on {4, 5, 6} (N = e): ln(phi) now lies below
      the global beta_c = ln 3, and at ln 3 the golden block is subcritical.
    """
    golden = [[0, 1], [1, 1]]
    return (
        block_model((golden, np.e), (np.ones((2, 2), dtype=int), np.e ** 2)),
        block_model((golden, np.e), (np.ones((2, 2), dtype=int), np.e ** 2),
                    (np.ones((3, 3), dtype=int), np.e)),
    )


def cycle_model(energies=(2.0, 2.0)):
    return build_model([[0, 1], [1, 0]], list(energies))


def random_matrix(rng, m, max_row_ones=None):
    """Random 0-1 matrix with no zero rows."""
    a = np.zeros((m, m), dtype=int)
    for x in range(m):
        k = rng.integers(1, (max_row_ones or m) + 1)
        cols = rng.choice(m, size=min(k, m), replace=False)
        a[x, cols] = 1
    return a


def random_irreducible(rng, m, non_permutation=False, max_row_ones=None,
                       energy_range=None, max_tries=500):
    """Random irreducible model, optionally forced non-permutation-like."""
    for _ in range(max_tries):
        a = random_matrix(rng, m, max_row_ones=max_row_ones)
        if energy_range is None:
            energies = np.full(m, np.e)
        else:
            lo, hi = energy_range
            energies = rng.uniform(lo, hi, size=m)
        try:
            model = build_model(a, energies)
        except Exception:
            continue
        if not properties(model).irreducible:
            continue
        if non_permutation and matrix_spectral_radius(a.astype(float)) <= 1.0 + 1e-9:
            continue
        return model
    raise RuntimeError("failed to sample an irreducible model")


def block_triangular(rng, sizes):
    """Irreducible diagonal blocks, with one to three links from each block to later ones."""
    blocks = [random_irreducible(rng, s, non_permutation=True, energy_range=(1.5, 4.0))
              for s in sizes]
    starts = np.cumsum((0,) + sizes[:-1])
    a = np.zeros((sum(sizes), sum(sizes)), dtype=int)
    for block, start in zip(blocks, starts):
        a[start:start + block.m, start:start + block.m] = block.matrix
    for i in range(len(sizes) - 1):
        for _ in range(int(rng.integers(1, 4))):
            j = int(rng.integers(i + 1, len(sizes)))
            a[starts[i] + rng.integers(sizes[i]), starts[j] + rng.integers(sizes[j])] = 1
    return build_model(a, np.concatenate([b.energies for b in blocks]))


# the block sizes of the reducible models whose quotient temperatures the benchmark scans
SCAN_BLOCKS = ((6, 6), (6, 10), (8, 16), (8, 8, 8), (10, 10, 10), (12, 24), (12, 12, 12),
               (14, 14, 14), (16, 16, 16))


def scan_block_models(seed):
    return [block_triangular(np.random.default_rng((seed, i)), sizes)
            for i, sizes in enumerate(SCAN_BLOCKS)]


def random_duplicate_columns_model(rng, m, k, energy_range=(1.5, 4.0), max_tries=2000):
    """Random irreducible model whose matrix has exactly k distinct columns."""
    from kmsphase import column_space

    for _ in range(max_tries):
        patterns = set()
        while len(patterns) < k:
            bits = tuple(int(b) for b in rng.integers(0, 2, size=m))
            if any(bits):
                patterns.add(bits)
        patterns = list(patterns)
        assign = list(range(k)) + [int(rng.integers(0, k)) for _ in range(m - k)]
        rng.shuffle(assign)
        a = np.zeros((m, m), dtype=int)
        for y, p in enumerate(assign):
            a[:, y] = patterns[p]
        if not a.any(axis=1).all():
            continue
        model_try = build_model(a, rng.uniform(*energy_range, size=m))
        if not properties(model_try).irreducible:
            continue
        if matrix_spectral_radius(a.astype(float)) <= 1.0 + 1e-9:
            continue
        if column_space(model_try).d != k:
            continue
        return model_try
    raise RuntimeError("failed to sample a duplicate-column model")


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
