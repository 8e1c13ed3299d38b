"""Extreme states and quotient vectors pinned bit for bit to a per-state reference.

The reference is the straightforward construction: a breadth-first search
over reversed edges for the ancestor set, one restricted solve, a position
dict over the ancestors, a scatter into a C-ordered (m, k) array of
fixed-pair values and one matrix-vector product per state.  The library
reads its ancestor sets off a table built once per model and gathers the
columns in one step; both must leave every printed bit where it was.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from kmsphase import (
    RootMeasure,
    beta_c,
    classify_ta,
    column_space,
    finite_type_state,
    kms_oa,
    oa_beta_scan,
)
from kmsphase.classify import EIG_ONE_TOL_DEFAULT
from kmsphase.critical import _certified_vector
from kmsphase.errors import DivergentNormalizerError
from kmsphase.partition import class_roots, perron_pair, transfer_matrix

from conftest import block_triangular, coexistence_models, random_irreducible, scan_block_models


def ancestors_bfs(matrix, targets):
    """Indices with a directed path into ``targets``, by search over reversed edges."""
    reach = np.zeros(matrix.shape[0], dtype=bool)
    reach[targets] = True
    frontier = list(np.flatnonzero(reach))
    while frontier:
        y = frontier.pop()
        for x in np.flatnonzero(matrix[:, y]):
            if not reach[x]:
                reach[x] = True
                frontier.append(int(x))
    return np.flatnonzero(reach)


def reference_state(model, beta, weights):
    """(atoms, q) of the state generated by ``weights``, one delta or measure at a time.

    ``beta = inf`` gives the ground state: the weights normalized.
    """
    space = column_space(model)
    bits = space.bit_matrix()
    w = np.asarray(weights)
    total = float(sum(weights))
    if math.isinf(beta):
        atoms = w / total
    else:
        mass = bits.T @ w
        needed = np.flatnonzero(mass > 0)
        w_first = np.zeros(model.m)
        z = total
        if needed.size:
            u = ancestors_bfs(model.matrix, needed)
            sub = transfer_matrix(model, beta).entries[np.ix_(u, u)]
            z_sub = model.weights(beta)[u, None] * np.linalg.solve(np.eye(len(u)) - sub,
                                                                   np.eye(len(u)))
            pos = {int(g): i for i, g in enumerate(u)}
            z_ax = np.zeros((model.m, len(needed)))
            z_ax[u[:, None], np.arange(len(needed))[None, :]] = z_sub[:, [pos[int(t)] for t in needed]]
            w_first = z_ax @ mass[needed]
            z += float(z_ax.sum(axis=0) @ mass[needed])
        atoms = np.asarray(weights, dtype=float).copy()
        np.add.at(atoms, np.asarray(space.column_of), w_first)
        atoms /= z
    atoms = np.clip(atoms, 0.0, None)
    return atoms, atoms @ bits


def assert_same_bits(state, atoms, q):
    assert [x.hex() for x in state.atom_masses] == [float(x).hex() for x in atoms]
    assert [x.hex() for x in state.q_values] == [float(x).hex() for x in q]


REDUCIBLE_SIZES = ((4, 4), (3, 5, 4), (6, 2, 5, 3), (8, 8))


class TestExtremeStates:
    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("m", [8, 32, 64])
    def test_classify_ta_matches_per_state_reference(self, seed, m):
        model = random_irreducible(np.random.default_rng((seed, m)), m, non_permutation=True,
                                   energy_range=(1.5, 4.0))
        crit = beta_c(model)
        space = column_space(model)
        for beta in (1.5 * crit.beta_c, 2.0 * crit.beta_c, math.inf):
            regime = classify_ta(model, beta, crit)
            assert regime.kind == ("ground" if math.isinf(beta) else "above")
            assert len(regime.extreme_states) == space.d
            for c, state in enumerate(regime.extreme_states):
                assert_same_bits(state, *reference_state(model, beta,
                                                         RootMeasure.delta(space, c).weights))

    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("sizes", REDUCIBLE_SIZES)
    def test_finite_type_state_on_reducible_models(self, seed, sizes):
        rng = np.random.default_rng((seed, sum(sizes), len(sizes)))
        model = block_triangular(rng, sizes)
        space = column_space(model)
        roots = sorted(root.hi for root in class_roots(model))
        betas = [roots[-1] + 0.5] + [0.5 * (lo + hi) for lo, hi in zip(roots, roots[1:])
                                     if hi - lo > 1e-6]
        checked = proper = 0
        for beta in betas:
            for _ in range(12):
                support = rng.choice(space.d, size=int(rng.integers(1, 4)), replace=False)
                weights = np.zeros(space.d)
                weights[support] = rng.uniform(0.1, 2.0, size=support.size)
                gamma = RootMeasure(tuple(weights.tolist()))
                try:
                    state = finite_type_state(model, beta, gamma)
                except DivergentNormalizerError:
                    continue
                assert_same_bits(state, *reference_state(model, beta, gamma.weights))
                needed = np.flatnonzero(gamma.mass_per_generator(space) > 0)
                checked += 1
                proper += ancestors_bfs(model.matrix, needed).size < model.m
        assert checked and proper


def reference_kms_oa(model, beta, warm=True):
    """The extreme fixed vectors of :func:`kms_oa`, each ancestor set found by search.

    Every class's pair is computed, started from its class root's pair, or
    from the all-ones vector when ``warm`` is False.
    """
    entries = transfer_matrix(model, beta).entries
    ncomp, labels = model.strong_components
    members = [np.flatnonzero(labels == c) for c in range(ncomp)]
    starts = [root.pair if warm else None for root in class_roots(model)]
    pairs = [perron_pair(entries[np.ix_(idx, idx)], start) for idx, start in zip(members, starts)]
    radii = np.array([pair.r for pair in pairs])
    below = radii < 1.0 - EIG_ONE_TOL_DEFAULT
    vectors = []
    for c in np.flatnonzero(np.abs(radii - 1.0) <= EIG_ONE_TOL_DEFAULT):
        idx = members[c]
        ancestors = ancestors_bfs(model.matrix, idx)
        rest = ancestors[labels[ancestors] != c]
        if not below[labels[rest]].all():
            continue
        v = np.zeros(model.m)
        v[idx] = _certified_vector(pairs[c])
        if rest.size:
            v[rest] = np.linalg.solve(np.eye(rest.size) - entries[np.ix_(rest, rest)],
                                      entries[np.ix_(rest, idx)] @ v[idx])
        vectors.append(v / float(model.weights(beta) @ v))
    vectors.sort(key=lambda u: tuple(np.round(u, 9)))
    return vectors


def hex_vectors(vectors):
    return [[float(x).hex() for x in v] for v in vectors]


class TestKmsOaVectors:
    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("sizes", REDUCIBLE_SIZES)
    def test_block_triangular(self, seed, sizes):
        model = block_triangular(np.random.default_rng((seed, len(sizes), sum(sizes))), sizes)
        found = 0
        for root in class_roots(model):
            if root.beta is None:
                continue
            got = hex_vectors(kms_oa(model, root.beta).extreme_vectors)
            assert got == hex_vectors(reference_kms_oa(model, root.beta))
            found += bool(got)
        assert found

    @pytest.mark.parametrize("index", [0, 1])
    def test_coexistence(self, index):
        model = coexistence_models()[index]
        for root in class_roots(model):
            if root.beta is not None:
                got = hex_vectors(kms_oa(model, root.beta).extreme_vectors)
                assert got == hex_vectors(reference_kms_oa(model, root.beta))

    @pytest.mark.parametrize("seed", [1, 7919])
    def test_warm_starts_agree_with_cold_starts(self, seed):
        # same temperatures, same number of vectors, entries within 1e-11 relative
        for model in scan_block_models(seed):
            scan = oa_beta_scan(model)
            betas = sorted({root.beta for root in class_roots(model) if root.beta is not None})
            assert [s.beta for s in scan.simplices] == \
                [b for b in betas if reference_kms_oa(model, b, warm=False)]
            for simplex in scan.simplices:
                cold = reference_kms_oa(model, simplex.beta, warm=False)
                assert len(simplex.extreme_vectors) == len(cold)
                for got, want in zip(map(np.array, simplex.extreme_vectors), cold):
                    assert (np.abs(got - want) <= 1e-11 * np.abs(want)).all()
