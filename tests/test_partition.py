from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmsphase import (
    PartitionReport,
    RootMeasure,
    build_model,
    build_star,
    column_space,
    cooling,
    decompose,
    evaluate,
    finite_type_state,
    geometric_bound,
    partial_series,
    transfer_matrix,
    truncated_model,
    z_gamma,
)
from kmsphase import cli, partition
from kmsphase.critical import beta_c
from kmsphase.errors import (
    DivergentNormalizerError,
    IllConditionedSolveError,
)
from kmsphase.partition import _restricted_resolvent, class_roots, restricted_fixed_pairs

from conftest import (
    block_model,
    block_triangular,
    coexistence_models,
    full_model,
    golden_mean_model,
    random_irreducible,
    random_matrix,
)
from test_critical import _SPLIT_MODEL


GROUND_SIZES = (1, 2, 3, 5, 8, 17, 64, 150, 400)


def ground_model(m):
    """A random model with at most 3 successors per letter: reducible, with
    one-letter classes, once m is past a few letters."""
    rng = np.random.default_rng(m)
    return build_model(random_matrix(rng, m, max_row_ones=3), rng.uniform(1.5, 4.0, m))


class TestTransferMatrix:
    def test_full_uniform_entries(self):
        tm = transfer_matrix(full_model(2), 2.0)
        assert np.allclose(tm.entries, 0.25)

    def test_beta_zero_recovers_matrix(self):
        m = golden_mean_model()
        assert np.array_equal(transfer_matrix(m, 0.0).entries, m.matrix.astype(float))

    def test_beta_infinity_is_zero(self):
        assert not transfer_matrix(full_model(3), math.inf).entries.any()

    def test_zero_pattern_matches_matrix(self, rng):
        m = random_irreducible(rng, 4)
        tm = transfer_matrix(m, 1.3).entries
        assert ((tm > 0) == (m.matrix == 1)).all()


class TestEvaluate:
    def test_worked_fixed_pair_value(self):
        rep = evaluate(full_model(2), 2.0)
        assert rep.z_xy[0, 0] == pytest.approx(3.0 / 8.0, abs=1e-15)

    def test_full_uniform_total(self):
        rep = evaluate(full_model(2), 2.0)
        assert rep.z_total == pytest.approx(2.0, rel=1e-14)

    def test_singular_below_one_raises(self, capsys):
        # at beta these rank-one weights sum to 1 - 2^-54: r < 1, but I - M
        # rounds to a singular matrix, and no report can be computed
        model = {"matrix": [[1, 1, 1]] * 3,
                 "energies": [2.6157946842739705, 1.947923364232462, 2.0861069984869447]}
        m, beta = build_model(model["matrix"], model["energies"]), 1.4137896089124542
        assert partition.matrix_spectral_radius(transfer_matrix(m, beta).entries) < 1.0
        with pytest.raises(IllConditionedSolveError):
            evaluate(m, beta)
        assert cli.main(["partition", "--model-json", json.dumps(model), f"--beta={beta!r}"]) == 2
        assert "singular" in capsys.readouterr().err

    def test_ground_temperature(self):
        rep = evaluate(full_model(2), math.inf)
        assert rep.z_total == 1.0
        assert not rep.z_y.any() and not rep.z_xy.any()

    @pytest.mark.parametrize("m", GROUND_SIZES)
    def test_ground_temperature_constants(self, m):
        # the general path gives exactly the constants of beta = +inf:
        # every weight is 0, so the solve is against the identity
        rep = evaluate(ground_model(m), math.inf)
        assert rep.convergent and not rep.near_critical
        assert rep.spectral_radius == 0.0 and not math.copysign(1.0, rep.spectral_radius) < 0
        assert rep.z_total == 1.0 and rep.condition_estimate == 1.0
        assert rep.z_y.shape == (m,) and rep.z_xy.shape == (m, m)
        for z in (rep.z_y, rep.z_xy):
            assert not z.any() and not np.signbit(z).any()

    def test_ground_temperature_models_mix_class_sizes(self):
        sizes = [np.bincount(ground_model(m).strong_components[1]) for m in GROUND_SIZES]
        assert sum((s == 1).any() for s in sizes) >= 5
        assert sum((s > 1).any() for s in sizes) >= 5

    def test_summation_identities(self, rng):
        for _ in range(10):
            m = random_irreducible(rng, 4, energy_range=(1.5, 4.0))
            bc = beta_c(m).beta_c
            rep = evaluate(m, bc + 0.7)
            assert rep.z_y == pytest.approx(rep.z_xy.sum(axis=0), rel=1e-12)
            assert rep.z_total == pytest.approx(1.0 + rep.z_xy.sum(), rel=1e-10)

    def test_divergent_below_critical(self):
        m = golden_mean_model()
        bc = beta_c(m).beta_c
        rep = evaluate(m, 0.5 * bc)
        assert not rep.convergent and math.isinf(rep.z_total)
        assert rep.z_xy is None and rep.z_y is None

    def test_near_critical_flag(self):
        m = golden_mean_model()
        bc = beta_c(m).beta_c
        # sit just inside the margin band (r within 1e-9 of 1 from below)
        rep = evaluate(m, bc + 1e-11, margin=1e-6)
        assert rep.convergent and rep.near_critical

    def test_oracle_truncation_is_monotone_and_bounded(self, rng):
        for _ in range(6):
            m = random_irreducible(rng, 4, max_row_ones=2, energy_range=(1.5, 4.0))
            bc = beta_c(m).beta_c
            for db in (0.5, 1.5):
                beta = bc + db
                rep = evaluate(m, beta)
                prev = 0.0
                for L in range(0, 15, 2):
                    part = partial_series(m, beta, L)
                    assert part >= prev - 1e-15
                    assert part <= rep.z_total + 1e-12
                    prev = part
                assert rep.z_total - prev <= rep.spectral_radius ** 15 * rep.z_total * m.m


# --- the beta grid in stacks ---------------------------------------------------

def evaluate_reference(model, beta, margin=partition.CONVERGENCE_MARGIN_DEFAULT):
    """The per-beta evaluation the stacked grid replaced: a radius, a solve and
    the floor check at one beta.  Its ``condition_estimate`` is kappa_1 of
    its own inverse."""
    nw = model.weights(beta)
    tm = model.matrix * nw
    r = partition.matrix_spectral_radius(tm, model.strong_components)
    if r >= 1.0:
        return PartitionReport(beta, r, False, math.inf, None, None, False, None)
    lhs = np.eye(model.m) - tm
    resolvent = np.linalg.solve(lhs, np.eye(model.m))
    z_xy = nw[:, None] * resolvent
    z_y = z_xy.sum(axis=0)
    if not (z_y >= nw - 1e-12).all():
        raise IllConditionedSolveError(
            "fixed-target partition values fell below the single-letter floor")
    kappa = float(np.linalg.norm(lhs, 1) * np.linalg.norm(resolvent, 1))
    return PartitionReport(beta, r, True, 1.0 + float(z_y.sum()), z_y, z_xy,
                           bool(r >= 1.0 - margin), kappa)


def _assert_same_report(got, want):
    for field in ("beta", "spectral_radius", "z_total"):
        assert getattr(got, field).hex() == getattr(want, field).hex(), field
    assert got.convergent is want.convergent and got.near_critical is want.near_critical
    for field in ("z_y", "z_xy"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None) == (b is None), field
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
    if want.condition_estimate is None:
        assert got.condition_estimate is None
    else:
        assert got.condition_estimate.hex() == want.condition_estimate.hex()


def _assert_grid_is_per_beta(model, grid, margin=partition.CONVERGENCE_MARGIN_DEFAULT):
    """The grid's reports are the per-beta ones and the reference's.  Where
    r < 1 but the reference finds I - M singular, the call at that beta and
    the whole grid raise IllConditionedSolveError, and the other betas are
    compared alone."""
    wants = []
    for beta in grid:
        try:
            wants.append(evaluate_reference(model, float(beta), margin))
        except np.linalg.LinAlgError:
            with pytest.raises(IllConditionedSolveError):
                evaluate(model, float(beta), margin=margin)
            wants.append(None)
    if any(want is None for want in wants):
        with pytest.raises(IllConditionedSolveError):
            list(evaluate(model, np.asarray(grid, dtype=float), margin=margin))
        return [_assert_grid_is_per_beta(model, [beta], margin)[0]
                for beta, want in zip(grid, wants) if want is not None]
    reports = list(evaluate(model, np.asarray(grid, dtype=float), margin=margin))
    assert len(reports) == len(grid)
    for beta, report, want in zip(grid, reports, wants):
        _assert_same_report(report, want)
        _assert_same_report(evaluate(model, float(beta), margin=margin), report)
    return reports


def _crossing_grid(model, n):
    """n points from half to one and a half times beta_c (0.1 to 3 when beta_c = 0)."""
    bc = beta_c(model).beta_c
    return np.linspace(0.5 * bc, 1.5 * bc, n) if bc > 0 else np.linspace(0.1, 3.0, n)


# a 2-letter class, a looped letter, a loopless letter (r_C = 0) and a sink loop
_MIXED_CLASSES = build_model([[1, 1, 0, 0, 0], [1, 0, 1, 0, 0], [0, 0, 1, 1, 0],
                              [0, 0, 0, 0, 1], [0, 0, 0, 0, 1]], [2.0, 3.0, 1.7, 2.5, 4.0])


# the near-one model of the partition-sweep-single-letter-floor CLI case
_NEAR_ONE = {"matrix": [[1, 1, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 1],
                        [0, 0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 0, 0], [0, 0, 0, 1, 1, 0, 0],
                        [0, 0, 0, 1, 1, 1, 0]],
             "energies": [1.0712714029519481, 1.0000000136694553, 1.0000325498964306,
                          7.263366833534863, 1.0000369528901187, 1.0660163943209902,
                          1.000016431444845]}


class TestStackedGrid:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.integers(2, 9),
           st.sampled_from([None, 1, 2, 3]), st.booleans())
    def test_hypothesis_models(self, m_size, seed, n, max_row_ones, cold):
        rng = np.random.default_rng(seed)
        model = build_model(random_matrix(rng, m_size, max_row_ones), rng.uniform(1.5, 4.0, m_size))
        grid = _crossing_grid(model, n)
        _assert_grid_is_per_beta(model, np.append(grid, math.inf) if cold else grid)

    def test_mixed_classes(self):
        sizes = np.bincount(_MIXED_CLASSES.strong_components[1])
        assert sorted(sizes.tolist()) == [1, 1, 1, 2]
        reports = _assert_grid_is_per_beta(_MIXED_CLASSES, _crossing_grid(_MIXED_CLASSES, 12))
        assert {r.convergent for r in reports} == {True, False}

    @pytest.mark.parametrize("m,n", ((64, 40), (150, 7), (400, 3)))
    def test_several_chunks(self, m, n):
        # 2**19 bytes hold 16, 2 and 1 transfer matrices of these sizes
        assert n > partition.STACK_BYTES // (8 * m * m)
        model = ground_model(m)
        _assert_grid_is_per_beta(model, _crossing_grid(model, n))

    def test_chunk_boundaries(self, rng, monkeypatch):
        model = random_irreducible(rng, 6, non_permutation=True, energy_range=(1.5, 4.0))
        grid = _crossing_grid(model, 11)
        for points in (1, 2, 3, 7):
            monkeypatch.setattr(partition, "STACK_BYTES", 8 * 36 * points)
            _assert_grid_is_per_beta(model, grid)

    @pytest.mark.parametrize("K", (8, 32))
    def test_star_truncation(self, K):
        # period 2: the power iteration runs on I + M
        model = truncated_model(build_star("default"), K)
        _assert_grid_is_per_beta(model, _crossing_grid(model, 16))

    def test_split_model_falls_back_slice_by_slice(self, monkeypatch):
        split = json.loads(_SPLIT_MODEL)
        model = build_model(split["matrix"], split["energies"])
        calls = []
        eig = np.linalg.eig

        def counted(a):
            calls.append(a.shape)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counted)
        # the 2-cycle of energies 1e6 and 2 stalls past beta ~ 4, and takes
        # the dense rung
        grid = np.linspace(0.1, 12.0, 30)
        list(evaluate(model, grid))
        assert 0 < len(calls) < len(grid) and set(calls) == {(2, 2)}
        monkeypatch.setattr(np.linalg, "eig", eig)
        _assert_grid_is_per_beta(model, grid)

    def test_reports_come_chunk_by_chunk(self, monkeypatch):
        model = ground_model(64)
        solves = []
        solve = np.linalg.solve

        def counted(a, b):
            solves.append(len(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        reports = evaluate(model, np.linspace(10.0, 20.0, 40))
        assert solves == []
        next(reports)
        assert solves == [16]
        assert len(list(reports)) == 39 and solves == [16, 16, 8]

    def test_every_beta_is_checked_first(self):
        model = full_model(2)
        # the message names the first beta outside (0, inf]
        for grid, first in (([1.0, 2.0, 0.0], "0.0"), ([math.nan, 1.0], "nan"),
                            ([-math.inf], "-inf"), ([3.0, -1.0, 0.0], "-1.0")):
            with pytest.raises(ValueError, match=f"^beta must be positive or \\+inf, got {first}$"):
                evaluate(model, np.array(grid))

    def test_floor_failure_raises_at_its_report(self):
        model = build_model(_NEAR_ONE["matrix"], _NEAR_ONE["energies"])
        reports = evaluate(model, np.array([2.0, 1495.641549517069]))
        assert next(reports).beta == 2.0
        with pytest.raises(IllConditionedSolveError, match="single-letter floor"):
            next(reports)


class TestStackedPowerIteration:
    @staticmethod
    def _stacks(rng):
        for m_size in (2, 3, 5, 8, 13, 32):
            model = random_irreducible(rng, m_size, non_permutation=True, energy_range=(1.5, 4.0))
            root = class_roots(model)[0].beta
            betas = (0.0, 0.5 * root, 0.9 * root, root, 1.1 * root, 2.0 * root, 8.0 * root)
            yield np.stack([transfer_matrix(model, b).entries for b in betas])
        split = json.loads(_SPLIT_MODEL)
        model = build_model(split["matrix"], split["energies"])
        labels = model.strong_components[1]
        idx = np.flatnonzero(labels == np.bincount(labels).argmax())
        yield np.stack([transfer_matrix(model, b).entries[np.ix_(idx, idx)]
                        for b in np.linspace(0.1, 3.0, 12)])

    @staticmethod
    def _alone(entries, tol):
        return partition._power_iteration(entries, np.ones(len(entries)), None, tol)[-2:]

    @pytest.mark.parametrize("tol", (1e-12, 1e-4))
    def test_each_slice_as_alone(self, rng, tol):
        for stack in self._stacks(rng):
            got = partition._power_iteration_stack(stack, tol)
            assert got == [self._alone(entries, tol) for entries in stack]
            assert partition._power_iteration_stack(stack[-1:], tol) == got[-1:]

    def test_spent_budget_per_slice(self, rng, monkeypatch):
        # a slice that spends the budget takes the dense rung, as it would alone
        stacks = list(self._stacks(rng))
        monkeypatch.setattr(partition, "POWER_MAXITER_DEFAULT", 24)
        real_dense, answers = partition._dense, []
        monkeypatch.setattr(partition, "_dense",
                            lambda *args: answers.append(real_dense(*args)) or answers[-1])
        seen = set()
        for stack in stacks:
            answers.clear()
            got = partition._power_iteration_stack(stack, 1e-12)
            dense = [answer[-2:] for answer in answers]
            assert got == [self._alone(entries, 1e-12) for entries in stack]
            assert all(bounds in got for bounds in dense)
            seen |= {bounds in dense for bounds in got}
        assert seen == {True, False}


class TestConditionEstimate:
    """condition_estimate is kappa_1 = ||I - M||_1 ||Z||_1, Z the solve's inverse."""

    def test_within_a_factor_m_of_kappa_2(self, rng):
        for m_size in (2, 3, 5, 8, 13, 32):
            model = random_irreducible(rng, m_size, energy_range=(1.5, 4.0))
            bc = beta_c(model).beta_c
            for factor in (1.001, 1.2, 2.0, 8.0):
                beta = factor * bc
                report = evaluate(model, beta)
                assert report.convergent
                kappa_2 = np.linalg.cond(np.eye(m_size) - transfer_matrix(model, beta).entries)
                assert kappa_2 / m_size * (1 - 1e-9) <= report.condition_estimate
                assert report.condition_estimate <= m_size * kappa_2 * (1 + 1e-9)

    @pytest.mark.parametrize("m", GROUND_SIZES)
    def test_ground_temperature_is_one(self, m):
        for report in (evaluate(ground_model(m), math.inf),
                       *evaluate(ground_model(m), np.array([math.inf, math.inf]))):
            assert report.condition_estimate == 1.0


class TestZGamma:
    def test_zero_measure(self):
        m = full_model(2)
        assert z_gamma(m, 2.0, [0.0]) == 0.0

    def test_unit_mass_worked_value(self):
        m = full_model(2)
        assert z_gamma(m, 2.0, [1.0]) == pytest.approx(2.0, rel=1e-13)

    def test_ground_reduces_to_total_mass(self):
        m = golden_mean_model()
        assert z_gamma(m, math.inf, [0.3, 0.4]) == pytest.approx(0.7)

    def test_divergent_with_positive_mass(self):
        m = golden_mean_model()
        assert math.isinf(z_gamma(m, 0.1, [1.0, 0.0]))

    def test_reducible_block_partial_convergence(self):
        # block diagonal full-2 + full-3, uniform energy e: between ln 2 and
        # ln 3 only the series targeting the small block converge
        a = np.zeros((5, 5), dtype=int)
        a[:2, :2] = 1
        a[2:, 2:] = 1
        m = build_model(a, [math.e] * 5)
        space = column_space(m)
        small = space.points.index((1, 1, 0, 0, 0))
        large = space.points.index((0, 0, 1, 1, 1))
        beta = 0.5 * (math.log(2) + math.log(3))
        w = [0.0, 0.0]
        w[small] = 1.0
        expected = 1.0 / (1.0 - 2.0 * math.exp(-beta))
        assert z_gamma(m, beta, w, space=space) == pytest.approx(expected, rel=1e-12)
        w = [0.0, 0.0]
        w[large] = 1.0
        assert math.isinf(z_gamma(m, beta, w, space=space))

    def test_matches_direct_double_sum(self, rng):
        for _ in range(5):
            m = random_irreducible(rng, 4, max_row_ones=2, energy_range=(1.8, 4.0))
            space = column_space(m)
            w = rng.uniform(0.0, 1.0, space.d)
            bc = beta_c(m).beta_c
            beta = bc + 1.2
            closed = z_gamma(m, beta, w, space=space)
            bits = space.bit_matrix()
            mass_per_gen = bits.T @ w
            L = 16
            # every word of length 1..L, summed by its last letter y
            direct = float(w.sum()) + sum(
                mass_per_gen[y] * partial_series(m, beta, L, target=y) for y in range(m.m))
            tail = (evaluate(m, beta).z_total - partial_series(m, beta, L)) * max(
                mass_per_gen.max(), 0.0
            )
            assert abs(closed - direct) <= tail + 1e-10


def _ancestors_bfs(matrix, targets):
    """Reference: per-node breadth-first search over reversed edges."""
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


def _fresh_pairs(model, beta, targets):
    _restricted_resolvent.cache_clear()
    return restricted_fixed_pairs(model, beta, targets)


def _assert_same_pairs(got, want):
    if want is None:
        assert got is None
        return
    assert np.array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()


class TestRestrictedFixedPairs:
    def test_ancestors_match_bfs(self, rng):
        chain = [[0, 1, 0], [0, 0, 1], [0, 0, 1]]
        models = list(coexistence_models()) + [
            block_model((chain, 2.0), ([[1]], 3.0), ([[0, 1], [1, 0]], 2.5)),
        ]
        # Random reducible matrices: sparse rows, so most have several components.
        models += [build_model(random_matrix(rng, mm, max_row_ones=2), [2.0] * mm)
                   for mm in (1, 2, 5, 12, 30) for _ in range(4)]
        for model in models:
            a = model.matrix
            ncomp, labels = model.strong_components
            table = model.class_ancestors
            assert table.shape == (ncomp, ncomp) and not table.flags.writeable
            for c in range(ncomp):
                want = _ancestors_bfs(a, np.flatnonzero(labels == c))
                assert np.array_equal(np.flatnonzero(table[c][labels]), want), (a.tolist(), c)
            target_sets = [[t] for t in range(model.m)]
            target_sets += [sorted(rng.choice(model.m, size=k, replace=False).tolist())
                            for k in range(1, model.m + 1)]
            for targets in target_sets:
                got = model.ancestors(np.asarray(targets))
                want = _ancestors_bfs(a, np.asarray(targets))
                assert np.array_equal(got, want), (a.tolist(), targets)

    def test_gather_is_c_ordered(self, rng):
        """The callers' products and column sums depend on the memory order."""
        chain = [[0, 1, 0], [0, 0, 1], [0, 0, 1]]
        for model in (random_irreducible(rng, 9, non_permutation=True),
                      block_model((chain, 2.0), ([[1]], 3.0), ([[0, 1], [1, 0]], 2.5))):
            beta = max(root.hi for root in class_roots(model)) + 1.0
            for targets in ([0, 2, 5], [1, 3], [5]):
                _, z_ax = restricted_fixed_pairs(model, beta, targets)
                assert z_ax.shape == (model.m, len(targets)) and z_ax.flags.c_contiguous

    def test_memo_holds_one_entry(self):
        m = golden_mean_model()
        restricted_fixed_pairs(m, 1.5, [0])
        restricted_fixed_pairs(m, 2.5, [1])
        info = _restricted_resolvent.cache_info()
        assert info.maxsize == 1 and info.currsize == 1

    def test_memo_is_keyed_by_model_identity(self):
        a = [[0, 1], [1, 1]]
        first, twin = build_model(a, [math.e] * 2), build_model(a, [math.e] * 2)
        other = build_model(a, [3.0, 5.0])
        calls = [(first, [0]), (other, [0]), (twin, [1]), (first, [1]), (other, [0, 1]),
                 (twin, [0]), (first, [0])]
        want = [_fresh_pairs(model, 1.5, targets) for model, targets in calls]
        for (model, targets), expected in zip(calls, want):
            _assert_same_pairs(restricted_fixed_pairs(model, 1.5, targets), expected)
        assert not np.array_equal(want[0][1], want[1][1])

    def test_memo_does_not_change_convergence(self):
        m = golden_mean_model()
        below, above = 0.3, 1.5    # beta_c = log(golden ratio) = 0.4812...
        fresh_above = _fresh_pairs(m, above, [0, 1])
        assert _fresh_pairs(m, below, [0]) is None
        for beta, targets in [(above, [0, 1]), (below, [0]), (below, [1]), (above, [0, 1]),
                              (above, [0]), (below, [0, 1])]:
            got = restricted_fixed_pairs(m, beta, targets)
            if beta == below:
                assert got is None
            else:
                _assert_same_pairs(got, _fresh_pairs(m, beta, targets))
        _assert_same_pairs(restricted_fixed_pairs(m, above, [0, 1]), fresh_above)

    def test_extreme_states_of_a_temperature_share_one_solve(self, rng):
        m = random_irreducible(rng, 12, non_permutation=True)
        beta = beta_c(m).beta_c + 1.0
        _restricted_resolvent.cache_clear()
        for t in range(m.m):
            restricted_fixed_pairs(m, beta, [t])
        info = _restricted_resolvent.cache_info()
        assert (info.misses, info.hits) == (1, m.m - 1)


def _twin(model):
    """A model equal to ``model`` but a distinct memo and table key."""
    return build_model(model.matrix, model.energies)


class TestRestrictedConvergenceCertificate:
    """The restricted solve certifies its own convergence (Collatz-Wielandt on v = Z 1)."""

    def test_golden_mean_inside_the_root_enclosure(self):
        # ln(phi) = 0.48121182505960347 < beta, so the series converge, but
        # beta lies inside the class root's certified enclosure
        model = build_model([[1, 1], [1, 0]], [math.e, math.e])
        beta = 0.48121182505968185
        root = class_roots(_twin(model))[0]
        assert math.log((1 + math.sqrt(5)) / 2) < beta and root.lo <= beta <= root.hi
        report = evaluate(model, beta)
        assert report.convergent
        space = column_space(model)
        for point in range(space.d):
            weights = np.eye(space.d)[point]
            mass = space.bit_matrix().T @ weights
            needed = np.flatnonzero(mass > 0)
            want = 1.0 + float(report.z_y[needed] @ mass[needed])
            _restricted_resolvent.cache_clear()
            got = z_gamma(model, beta, weights, space)
            assert math.isfinite(got) and got == want

    def test_singular_and_near_singular_sets_diverge_quietly(self):
        # at the quotient temperatures of the first coexistence model: the
        # full 2 x 2 block's I - M_UU is singular, the golden block's nearly so
        model = coexistence_models()[0]
        _, labels = model.strong_components
        roots = class_roots(_twin(model))
        full, golden = np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)
        assert full.tolist() == [2, 3] and golden.tolist() == [0, 1]
        sub = transfer_matrix(model, roots[1].beta).entries[np.ix_(full, full)]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.eye(2) - sub, np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c, letters in ((1, full), (0, golden)):
                assert _fresh_pairs(model, roots[c].beta, letters) is None
                assert _fresh_pairs(model, roots[c].beta, letters[:1]) is None

    def test_series_never_read_the_class_roots(self, rng, monkeypatch):
        # fresh reducible models, at temperatures between their class roots,
        # where some restricted series converge and others diverge
        models = [_twin(m) for m in coexistence_models()]
        models += [block_triangular(rng, sizes) for sizes in ((3, 4), (2, 3, 4), (5, 2, 3))]
        temperatures = []
        for model in models:
            roots = sorted({r.beta for r in class_roots(_twin(model)) if r.beta is not None})
            assert len(roots) > 1
            temperatures.append([0.5 * (a + b) for a, b in zip(roots, roots[1:])])

        def unreachable(*args):
            raise AssertionError("the class-root table was read")

        monkeypatch.setattr(partition, "class_roots", unreachable)
        monkeypatch.setattr(partition, "_class_root", unreachable)
        seen = {"finite": 0, "divergent": 0}
        for model, betas in zip(models, temperatures):
            space = column_space(model)
            for beta in betas:
                for point in range(space.d):
                    gamma = RootMeasure.delta(space, point)
                    z = z_gamma(model, beta, gamma.weights, space)
                    try:
                        state = finite_type_state(model, beta, gamma)
                    except DivergentNormalizerError:
                        assert math.isinf(z)
                        seen["divergent"] += 1
                        continue
                    assert math.isfinite(z)
                    seen["finite"] += 1
                    assert decompose(model, beta, state).finite_fraction == pytest.approx(1.0)
                    cooling(model, beta, state, beta + 0.5)
        assert seen["finite"] > 0 and seen["divergent"] > 0


class TestGeometricBound:
    @pytest.mark.parametrize(
        "energies,beta,expected",
        [((2.0, 2.0), 2.0, 2.0), ((4.0, 4.0, 4.0, 4.0), 2.0, 4.0 / 3.0)],
    )
    def test_worked_values(self, energies, beta, expected):
        m = build_model(np.ones((len(energies), len(energies)), dtype=int), energies)
        assert geometric_bound(m, beta) == pytest.approx(expected, rel=1e-14)

    def test_boundary_not_applicable(self):
        assert geometric_bound(full_model(2), 1.0) is None

    def test_dominates_partition_total(self, rng):
        for _ in range(10):
            m = random_irreducible(rng, 4, energy_range=(1.5, 4.0))
            bc = beta_c(m).beta_c
            beta = bc + 1.0
            bound = geometric_bound(m, beta)
            if bound is None:
                continue
            assert evaluate(m, beta).z_total <= bound + 1e-9
