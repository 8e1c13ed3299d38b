from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest
from scipy.linalg import block_diag

from kmsphase import (
    RootMeasure,
    beta_c,
    build_model,
    classify_ta,
    column_space,
    factors_through_oa,
    finite_type_state,
    ground_state,
    kms_oa,
    oa_beta_scan,
)
from kmsphase import classify, critical, partition
from kmsphase.errors import NoConvergenceError, NotIrreducibleError, ZeroColumnError
from kmsphase.partition import class_roots, transfer_matrix

from conftest import (
    block_model as blocks_of,
    block_triangular,
    coexistence_models,
    cycle_model,
    full_model,
    golden_mean_model,
    random_duplicate_columns_model,
    random_irreducible,
    scan_block_models,
)

PHI = (1 + math.sqrt(5)) / 2


def block_model(sizes, energy=math.e):
    blocks = [np.ones((s, s), dtype=int) for s in sizes]
    a = block_diag(*blocks).astype(int)
    return build_model(a, [energy] * a.shape[0])


def fixed_extremes_reference(entries, nweights, eig_tol=1e-8, null_rtol=1e-9):
    """Extreme points of {v >= 0 : Mv = v, nweights . v = 1}, by the former SVD route.

    The fixed space is parametrized by the near-null singular vectors of
    I - M; its intersection with the nonnegative orthant is a cone whose
    extreme rays are pinned by dim-1 active sign constraints, so vertex
    enumeration over row subsets finds them (C(m, k - 1) solves for a
    fixed space of dimension k).
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
    basis = vh[m - k:].T  # (m, k)

    out = []
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
        seen = set()
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


def assert_same_vectors(simplex, want, tol=1e-9):
    got = [np.asarray(v) for v in simplex.extreme_vectors]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= tol


TEMPERATURE_BLOCKS = ((6, 6), (6, 10), (8, 16), (8, 8, 8), (10, 10, 10),
                      (12, 24), (12, 12, 12), (14, 14, 14), (16, 16, 16))


GOLDEN = [[0, 1], [1, 1]]


def linked_golden_blocks():
    """Two golden-mean blocks (N = e) with the link 1 -> 2: tied roots, the
    upstream block critical and an ancestor of the downstream one."""
    a = np.zeros((4, 4), dtype=int)
    a[:2, :2] = a[2:, 2:] = GOLDEN
    a[1, 2] = 1
    return build_model(a, [math.e] * 4)


class TestFrobeniusVictory:
    """kms_oa against the SVD vertex enumeration, at and off every class root."""

    @staticmethod
    def check(model):
        roots = sorted(c.beta for c in class_roots(model) if c.beta is not None)
        assert roots
        for b in roots:
            want = fixed_extremes_reference(transfer_matrix(model, b).entries, model.weights(b))
            assert_same_vectors(kms_oa(model, b), want)
        off = [0.5 * roots[0], roots[-1] + 0.5]
        off += [0.5 * (lo + hi) for lo, hi in zip(roots, roots[1:]) if hi - lo > 1e-6]
        off += [b + t for b in roots for t in (-1e-6, 1e-6)]
        for b in off:
            assert kms_oa(model, b).extreme_vectors == ()
            assert fixed_extremes_reference(transfer_matrix(model, b).entries, model.weights(b)) == []

    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("sizes", TEMPERATURE_BLOCKS)
    def test_block_triangular(self, seed, sizes):
        model = block_triangular(np.random.default_rng((seed, sum(sizes), len(sizes))), sizes)
        assert model.strong_components[0] == len(sizes)
        self.check(model)

    @pytest.mark.parametrize("index", [0, 1])
    def test_coexistence(self, index):
        self.check(coexistence_models()[index])

    def test_disjoint_golden_blocks(self):
        model = blocks_of((GOLDEN, math.e), (GOLDEN, math.e))
        self.check(model)
        assert len(kms_oa(model, math.log(PHI)).extreme_vectors) == 2

    def test_linked_golden_blocks_upstream_only(self):
        model = linked_golden_blocks()
        self.check(model)
        (v,) = kms_oa(model, math.log(PHI)).extreme_vectors
        assert min(v[:2]) > 0 and v[2:] == (0.0, 0.0)

    def test_random_irreducible(self, rng):
        for m in range(3, 13):
            self.check(random_irreducible(rng, m, non_permutation=True, energy_range=(1.5, 4.0)))


class TestClassifyTa:
    @pytest.mark.parametrize("n", [2, 3])
    def test_full_matrix_critical_state_is_constant(self, n):
        m = full_model(n, energy=math.e)
        rep = beta_c(m)
        regime = classify_ta(m, rep.beta_c, crit=rep)
        assert regime.kind == "critical"
        q = np.asarray(regime.unique_state.q_values)
        assert q.max() - q.min() <= 1e-10

    def test_full_two_above_has_single_extreme(self):
        regime = classify_ta(full_model(2), 2.0)
        assert regime.kind == "above"
        assert len(regime.extreme_states) == 1 and regime.simplex_dim == 0

    def test_golden_mean_below(self):
        regime = classify_ta(golden_mean_model(), 0.3)
        assert regime.kind == "below" and not regime.extreme_states

    def test_ground_regime(self):
        m = golden_mean_model()
        regime = classify_ta(m, math.inf)
        assert regime.kind == "ground"
        assert len(regime.extreme_states) == column_space(m).d
        assert regime.simplex_dim == column_space(m).d - 1

    def test_permutation_like_is_always_above(self):
        m = cycle_model()
        for beta in (0.1, 1.0, 5.0):
            regime = classify_ta(m, beta)
            assert regime.kind == "above" and regime.permutation_like

    def test_reducible_refused(self):
        m = build_model([[1, 1], [0, 1]], [2.0, 2.0])
        with pytest.raises(NotIrreducibleError):
            classify_ta(m, 1.0)

    def test_trichotomy_on_random_models(self, rng):
        for _ in range(5):
            m = random_irreducible(rng, 5, non_permutation=True, energy_range=(1.5, 4.0))
            rep = beta_c(m)
            assert classify_ta(m, 0.5 * rep.beta_c, crit=rep).kind == "below"
            assert classify_ta(m, rep.beta_c, crit=rep).kind == "critical"
            assert classify_ta(m, rep.beta_c + 0.4, crit=rep).kind == "above"


class TestKmsOa:
    def test_full_two_at_log_two(self):
        simplex = kms_oa(full_model(2), 1.0)
        assert len(simplex.extreme_vectors) == 1
        assert simplex.extreme_vectors[0] == pytest.approx((1.0, 1.0), rel=1e-9)

    def test_full_two_supercritical_empty(self):
        assert kms_oa(full_model(2), 2.0).extreme_vectors == ()

    def test_block_diagonal_per_block_temperatures(self):
        m = block_model([2, 3])
        at2 = kms_oa(m, math.log(2.0))
        at3 = kms_oa(m, math.log(3.0))
        assert len(at2.extreme_vectors) == 1 and len(at3.extreme_vectors) == 1
        v2 = np.asarray(at2.extreme_vectors[0])
        v3 = np.asarray(at3.extreme_vectors[0])
        assert v2[:2].min() > 0 and v2[2:].max() <= 1e-9
        assert v3[2:].min() > 0 and v3[:2].max() <= 1e-9

    def test_zero_column_rejected(self):
        m = build_model([[1, 0], [1, 0]], [2.0, 2.0])
        with pytest.raises(ZeroColumnError):
            kms_oa(m, 1.0)

    def test_degenerate_temperature_has_simplex_edge(self):
        # two identical blocks critical at the same beta: multiplicity 2,
        # extreme points are the per-block Perron vectors
        m = block_model([2, 2])
        simplex = kms_oa(m, math.log(2.0))
        assert len(simplex.extreme_vectors) == 2
        for v in map(np.asarray, simplex.extreme_vectors):
            nw = m.energies ** (-simplex.beta)
            assert float(nw @ v) == pytest.approx(1.0, abs=1e-10)
            entries = m.matrix * nw[None, :]
            assert np.abs(entries @ v - v).max() <= 1e-8
        supports = {tuple(np.asarray(v) > 1e-9) for v in simplex.extreme_vectors}
        assert supports == {(True, True, False, False), (False, False, True, True)}

    def test_five_equal_blocks_give_five_vectors(self):
        # multiplicity 5: one Perron vector per block, no cap on the dimension
        m = block_model([2, 2, 2, 2, 2])
        simplex = kms_oa(m, math.log(2.0))
        assert len(simplex.extreme_vectors) == 5
        supports = set()
        for v in map(np.asarray, simplex.extreme_vectors):
            (block,) = {int(x) // 2 for x in np.flatnonzero(v)}
            supports.add(block)
            assert v[2 * block:2 * block + 2] == pytest.approx((1.0, 1.0), rel=1e-12)
        assert supports == set(range(5))
        want = fixed_extremes_reference(transfer_matrix(m, simplex.beta).entries, m.weights(simplex.beta))
        assert_same_vectors(simplex, want)

    def test_acceptance_window_is_eig_one_tol(self):
        # |r - 1| <= EIG_ONE_TOL_DEFAULT decides; the SVD threshold of the
        # reference is tighter and already refuses ln 3 + 1e-9
        m = full_model(3, energy=math.e)
        near, far = math.log(3.0) + 1e-9, math.log(3.0) + 1e-7
        assert len(kms_oa(m, near).extreme_vectors) == 1
        assert fixed_extremes_reference(transfer_matrix(m, near).entries, m.weights(near)) == []
        assert kms_oa(m, far).extreme_vectors == ()
        assert fixed_extremes_reference(transfer_matrix(m, far).entries, m.weights(far)) == []

    def test_rejects_perron_bounds_that_did_not_meet(self, rng, monkeypatch):
        # a critical class's pair stopped early must not pass as its Perron vector
        m = random_irreducible(rng, 6, non_permutation=True, energy_range=(1.5, 4.0))
        bc = beta_c(m).beta_c
        real_pair = partition.perron_pair
        loose = real_pair(transfer_matrix(m, bc).entries, tol=1e-4)
        assert loose.upper - loose.lower > critical.PERRON_VECTOR_TOL * loose.upper
        assert abs(loose.r - 1.0) <= classify.EIG_ONE_TOL_DEFAULT
        # a cold start: the warm start from the class root is converged already
        monkeypatch.setattr(classify, "perron_pair",
                            lambda entries, start=None: real_pair(entries, tol=1e-4))
        with pytest.raises(NoConvergenceError):
            kms_oa(m, bc)

    def test_vectors_are_normalized_fixed_points(self, rng):
        for _ in range(5):
            m = random_irreducible(rng, 5, non_permutation=True, energy_range=(1.5, 4.0))
            bc = beta_c(m).beta_c
            simplex = kms_oa(m, bc)
            assert len(simplex.extreme_vectors) == 1
            v = np.asarray(simplex.extreme_vectors[0])
            nw = m.energies ** (-bc)
            entries = m.matrix * nw[None, :]
            assert float(nw @ v) == pytest.approx(1.0, abs=1e-10)
            assert np.abs(entries @ v - v).max() <= 1e-7


class TestOaBetaScan:
    def test_irreducible_single_candidate(self, rng):
        m = random_irreducible(rng, 4, non_permutation=True, energy_range=(1.5, 4.0))
        report = oa_beta_scan(m)
        assert len(report.simplices) == 1
        assert report.simplices[0].beta == pytest.approx(beta_c(m).beta_c, abs=1e-9)
        assert not report.grid_flags

    def test_block_diagonal_two_candidates(self):
        report = oa_beta_scan(block_model([2, 3]))
        betas = [s.beta for s in report.simplices]
        assert betas == pytest.approx([math.log(2.0), math.log(3.0)], abs=1e-9)

    def test_permutation_has_no_candidates(self):
        assert oa_beta_scan(cycle_model()).simplices == ()

    def test_matches_critical_state_for_irreducible(self, rng):
        m = random_irreducible(rng, 5, non_permutation=True, energy_range=(1.5, 4.0))
        rep = beta_c(m)
        simplex = kms_oa(m, rep.beta_c)
        v = np.asarray(simplex.extreme_vectors[0])
        assert v == pytest.approx(rep.perron_at_critical, abs=1e-8)


class TestWarmStartedScan:
    """kms_oa reads the class-root table: certified radius bounds decide the
    classes far from 1, and the rest start from their class root's pair."""

    @pytest.mark.parametrize("seed", [1, 7919])
    def test_pairs_only_for_critical_classes(self, seed, monkeypatch):
        real_pair = partition.perron_pair
        calls = []
        monkeypatch.setattr(classify, "perron_pair",
                            lambda *args: calls.append(1) or real_pair(*args))
        pairs = candidates = critical_classes = 0
        for model in scan_block_models(seed):
            calls.clear()
            oa_beta_scan(model)
            pairs += len(calls)
            betas = sorted({root.beta for root in class_roots(model) if root.beta is not None})
            candidates += len(betas)
            ncomp, labels = model.strong_components
            for beta in betas:
                entries = transfer_matrix(model, beta).entries
                for c in range(ncomp):
                    idx = np.flatnonzero(labels == c)
                    r = real_pair(entries[np.ix_(idx, idx)]).r
                    critical_classes += abs(r - 1.0) <= classify.EIG_ONE_TOL_DEFAULT
        # one pair per class root on these models: 23, where a pair for
        # every class at every candidate took 61
        assert pairs <= critical_classes
        assert (pairs, candidates) == (23, 23)

    def test_same_bits_on_a_fresh_model(self):
        # the table is a function of the model alone, so kms_oa prints the
        # same bits whether or not a scan came first
        for model in scan_block_models(1)[:4] + list(coexistence_models()):
            for simplex in oa_beta_scan(model).simplices:
                fresh = kms_oa(build_model(model.matrix, model.energies), simplex.beta)
                assert [[x.hex() for x in v] for v in fresh.extreme_vectors] == \
                    [[x.hex() for x in v] for v in simplex.extreme_vectors]

    def test_radius_bounds_enclose_the_radius(self):
        for model in scan_block_models(7919)[:5] + list(coexistence_models()):
            for root in class_roots(model):
                idx = root.generators
                for beta in (0.01, 0.5 * root.at, root.at, root.hi, 1.5 * root.hi + 0.3):
                    if beta <= 0:
                        continue
                    lower, upper = root.radius_bounds(model, beta)
                    pair = partition.perron_pair(transfer_matrix(model, beta).entries[np.ix_(idx, idx)])
                    # both certify r_C(beta), so they meet
                    assert lower <= pair.upper and pair.lower <= upper
                    assert lower <= upper
                assert root.radius_bounds(model, 40.0)[1] < 1.0 - classify.EIG_ONE_TOL_DEFAULT

    def test_far_above_every_root_takes_no_pair(self, monkeypatch):
        # at beta = 40 the weights span about 17 decades, and a cold pair
        # there spends its whole step budget; the bounds alone say below
        model = scan_block_models(7919)[0]
        class_roots(model)
        monkeypatch.setattr(classify, "perron_pair", None)
        assert kms_oa(model, 40.0).extreme_vectors == ()


class TestFactorsThroughOa:
    def test_critical_passes(self, rng):
        m = random_irreducible(rng, 4, non_permutation=True, energy_range=(1.5, 3.0))
        rep = beta_c(m)
        regime = classify_ta(m, rep.beta_c, crit=rep)
        assert factors_through_oa(m, rep.beta_c, regime.unique_state)

    def test_finite_type_fails(self):
        m = full_model(2)
        space = column_space(m)
        st = finite_type_state(m, 2.0, RootMeasure.delta(space, 0))
        assert not factors_through_oa(m, 2.0, st)

    def test_ground_state_fails(self):
        m = golden_mean_model()
        space = column_space(m)
        st = ground_state(m, RootMeasure.uniform(space))
        assert not factors_through_oa(m, math.inf, st)


class TestSimplexDimension:
    @pytest.mark.parametrize("k,m", [(1, 4), (2, 5), (3, 6)])
    def test_affine_rank_matches_duplicate_groups(self, k, m, rng):
        if k == 1:
            model = full_model(m, energy=2.0)
        else:
            model = random_duplicate_columns_model(rng, m, k)
        d = column_space(model).d
        assert d == k
        beta = beta_c(model).beta_c + 0.75
        regime = classify_ta(model, beta)
        assert regime.kind == "above" and len(regime.extreme_states) == k
        vectors = np.array([s.atom_masses for s in regime.extreme_states])
        diffs = vectors[1:] - vectors[0]
        rank = np.linalg.matrix_rank(diffs, tol=1e-8) if len(diffs) else 0
        assert rank + 1 == k
