from __future__ import annotations

import gc
import json
import math
import time
import weakref
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from kmsphase import (
    abscissa_estimate,
    build_star,
    beta_c,
    build_model,
    evaluate,
    kms_oa,
    oa_beta_scan,
    perron_vector,
    spectral_radius,
    transfer_matrix,
    truncated_model,
    words,
)
from kmsphase import cli, critical, partition
from kmsphase._rounding import EPS
from kmsphase.critical import BISECT_TOL_DEFAULT, _itp, matrix_spectral_radius
from kmsphase.partition import class_roots
from kmsphase.errors import NoConvergenceError, NotIrreducibleError

from conftest import (
    coexistence_models,
    cycle_model,
    full_model,
    golden_mean_model,
    random_irreducible,
    random_matrix,
)

PHI = (1 + math.sqrt(5)) / 2


class TestSpectralRadius:
    def test_rank_one_closed_form(self):
        m = full_model(2)
        for beta in (0.0, 1.0, 2.0, 3.5):
            assert spectral_radius(m, beta) == pytest.approx(2.0 ** (1 - beta), rel=1e-10)

    def test_two_cycle_uses_fallback(self):
        # the permutation matrix makes plain power iteration oscillate; the
        # iteration on I + M converges instead
        m = cycle_model()
        assert spectral_radius(m, 1.0) == pytest.approx(0.5, rel=1e-10)

    def test_at_beta_zero_at_least_one(self, rng):
        for _ in range(10):
            m = random_irreducible(rng, 5)
            assert spectral_radius(m, 0.0) >= 1.0 - 1e-12

    def test_zero_at_ground(self):
        assert spectral_radius(golden_mean_model(), math.inf) == 0.0

    def test_one_iteration_per_class(self, monkeypatch):
        # two golden-mean blocks, the first feeding the second, tie at every
        # beta: on the whole matrix the upper bound would creep to r like 1/k;
        # class by class each block converges at once and no dense rung is needed
        tied = build_model(
            [[1, 1, 1, 0], [1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 0]], [2.0, 3.0, 2.0, 3.0])
        calls = {"iterations": 0, "dense": 0}
        real_iteration, real_eigvals, real_eig = (
            partition._power_iteration, np.linalg.eigvals, np.linalg.eig)

        def iteration(*args, **kwargs):
            calls["iterations"] += 1
            return real_iteration(*args, **kwargs)

        def dense(real):
            def call(*args, **kwargs):
                calls["dense"] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(partition, "_power_iteration", iteration)
        monkeypatch.setattr(np.linalg, "eigvals", dense(real_eigvals))
        monkeypatch.setattr(np.linalg, "eig", dense(real_eig))
        for model in [tied, *coexistence_models()]:
            _, labels = model.strong_components
            nontrivial = int((np.bincount(labels) > 1).sum())
            for beta in (0.0, 0.4, 1.3):
                calls["iterations"] = 0
                r = spectral_radius(model, beta)
                assert calls == {"iterations": nontrivial, "dense": 0}
                want = np.abs(real_eigvals(transfer_matrix(model, beta).entries)).max()
                assert r == pytest.approx(want, rel=1e-11)
        # raw matrices take the classes of their support: a tied pair of
        # letters, and the tied golden blocks
        raws = [(np.array([[1.0, 1.0], [0.0, 1.0]]), 0)]
        raws += [(transfer_matrix(tied, beta).entries, 2) for beta in (0.0, 0.4, 1.3)]
        for entries, nontrivial in raws:
            calls["iterations"] = 0
            r = matrix_spectral_radius(entries)
            assert calls == {"iterations": nontrivial, "dense": 0}
            assert r == pytest.approx(np.abs(real_eigvals(entries)).max(), rel=1e-12)

    def test_block_out_of_steps_falls_back_to_eigvals(self, monkeypatch):
        # a letter feeding a golden-mean block: four steps do not close the
        # block's gap, so the dense rung (np.linalg.eig) gives its radius
        entries = np.array([[0.5, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 0.0]])
        calls = []
        real_eig = np.linalg.eig
        monkeypatch.setattr(partition, "POWER_MAXITER_DEFAULT", 4)
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or real_eig(a))
        assert matrix_spectral_radius(entries) == pytest.approx(PHI, rel=1e-12)
        assert calls == [(2, 2)]

    # Nearly split classes, whose power iteration stops at its stagnation
    # exit with bounds far apart, so the dense rung answers: (model, beta, r)
    # with r from 60-digit eigenvalues (mpmath).  LAPACK builds may differ in
    # the last bits of eig, so the printed radius is pinned to 1e-12 relative.
    _UNMET_BOUNDS = [
        ({"matrix": [[0, 1], [1, 0]], "energies": [1e6, 2]}, 5.0, 1.7677669529663688e-16),
        ({"matrix": [[0, 0, 1, 1, 0, 0, 1, 1], [1, 0, 1, 1, 1, 0, 0, 0], [0, 1, 1, 0, 1, 1, 0, 0],
                     [1, 0, 0, 1, 1, 0, 1, 1], [1, 1, 0, 0, 0, 1, 1, 1], [0, 1, 0, 1, 0, 1, 0, 0],
                     [1, 0, 1, 1, 0, 1, 0, 1], [1, 1, 1, 0, 1, 1, 0, 1]],
          "energies": [1.0005157238695448, 1.000000012604163, 1.00008106625618,
                       1.0076212364878119, 1.3451249468662612, 1.000000008401292,
                       1.0000000034779435, 1.003439786195398]},
         710603.3455511095, 0.99404779870563116),
    ]

    @pytest.mark.parametrize("model, beta, want", _UNMET_BOUNDS, ids=["two-cycle", "near-one"])
    def test_unmet_bounds_fall_back_to_eigvals(self, monkeypatch, capsys, model, beta, want):
        calls = []
        real_eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or real_eig(a))
        argv = ["partition", "--model-json", json.dumps(model), f"--beta={beta!r}"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)["partition"]
        assert calls == [(len(model["energies"]),) * 2]
        assert report["spectral_radius"] == pytest.approx(want, rel=1e-12, abs=0.0)
        assert report["convergent"] is True

    def test_strictly_decreasing_in_beta(self, rng):
        for _ in range(5):
            m = random_irreducible(rng, 4, energy_range=(1.5, 4.0))
            grid = np.linspace(0.0, 4.0, 9)
            values = [spectral_radius(m, b) for b in grid]
            assert all(a > b for a, b in zip(values, values[1:]))


class TestBetaC:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_full_matrix_log_n(self, n):
        m = full_model(n, energy=math.e)
        assert beta_c(m).beta_c == pytest.approx(math.log(n), abs=1e-9)

    def test_golden_mean(self):
        rep = beta_c(golden_mean_model())
        assert rep.beta_c == pytest.approx(math.log(PHI), abs=1e-9)
        assert rep.coincide and rep.interval_open_at_left and not rep.permutation_like

    def test_permutation_clamped_to_zero(self):
        two_cycles = build_model([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                                 [2.0, 3.0, 2.5, 4.0])
        for model in (cycle_model(), two_cycles, build_model([[1]], [3.0])):
            rep = beta_c(model)
            assert (rep.beta_c, rep.bracket_width, rep.permutation_like) == (0.0, 0.0, True)

    def test_no_radius_probe(self, rng, monkeypatch):
        # the class roots decide every model; no r(A) is computed beside them
        calls = []
        real = partition.matrix_spectral_radius
        monkeypatch.setattr(partition, "matrix_spectral_radius",
                            lambda entries: calls.append(entries.shape) or real(entries))
        models = [golden_mean_model(), *coexistence_models(),
                  random_irreducible(rng, 6, non_permutation=True, energy_range=(1.5, 4.0))]
        for model in models:
            assert not beta_c(model).permutation_like
        assert calls == []

    def test_radius_one_at_critical(self, rng):
        for _ in range(5):
            m = random_irreducible(rng, 5, non_permutation=True, energy_range=(1.5, 4.0))
            rep = beta_c(m)
            assert spectral_radius(m, rep.beta_c) == pytest.approx(1.0, abs=1e-8)

    def test_convergence_exactly_above_critical(self, rng):
        for _ in range(5):
            m = random_irreducible(rng, 4, non_permutation=True, energy_range=(1.5, 4.0))
            bc = beta_c(m).beta_c
            for db in (0.05, 0.4, 1.0):
                assert evaluate(m, bc + db).convergent
                if bc - db > 0:
                    assert not evaluate(m, bc - db).convergent


class TestAbscissaEstimate:
    def test_full_matrix_ratio_is_exact(self):
        est = abscissa_estimate(full_model(2), 10)
        assert est.estimate == pytest.approx(1.0, abs=1e-9)

    def test_permutation_estimates_zero(self):
        est = abscissa_estimate(cycle_model(), 10)
        assert est.estimate == 0.0

    def test_golden_mean_converges(self):
        est = abscissa_estimate(golden_mean_model(), 20)
        assert est.estimate == pytest.approx(math.log(PHI), abs=1e-2)

    def test_agrees_with_beta_c_on_random_models(self, rng):
        for _ in range(4):
            m = random_irreducible(rng, 4, max_row_ones=2, energy_range=(1.6, 3.5))
            est = abscissa_estimate(m, 20)
            assert abs(est.estimate - beta_c(m).beta_c) <= 5e-2

    @staticmethod
    def _count_exact_sums(monkeypatch, replayed=None):
        """The beta of each exact sum: each replay notes its beta (in
        ``replayed``, if given), each ``words._exact`` call records the last
        one noted."""
        betas = []
        replayed = [] if replayed is None else replayed
        replay, exact = words._replay, words._exact

        def counted_replay(model, tree, beta):
            replayed.append(beta)
            return replay(model, tree, beta)

        def counted_exact(level, w, target=None):
            betas.append(replayed[-1])
            return exact(level, w, target)

        monkeypatch.setattr(words, "_replay", counted_replay)
        monkeypatch.setattr(words, "_exact", counted_exact)
        return betas

    @staticmethod
    def _exact_points(betas):
        # the abscissa takes the exact sums of both shells at each point
        assert betas[::2] == betas[1::2], betas
        return betas[::2]

    def test_exact_tie_defers_to_exact_sums(self, monkeypatch):
        # Every word of full_model(2) weighs 2^-n at beta = 1, so S_n(1) = 1
        # for every n: the brackets of S_L and S_{L-1} overlap and only the
        # exact sums can say that g(1) = 0 is not above.
        model, L = full_model(2), 10
        tree = words._word_tree(model, L)[1]
        (_, shorter), (_, longer) = deque(words._replay(model, tree, 1.0), maxlen=2)
        (lo_s, hi_s), (lo_l, hi_l) = words._enclosure(shorter), words._enclosure(longer)
        assert lo_l <= hi_s and lo_s <= hi_l
        want = abscissa_reference(model, L)
        betas = self._count_exact_sums(monkeypatch)
        est = abscissa_estimate(model, L)
        assert 1.0 in self._exact_points(betas)
        assert_reference_estimate(model, L, est, want)

    def test_few_exact_sums_on_certify_sized_models(self, monkeypatch):
        # The brackets decide beta = 0 and every probe of the search, so
        # the exact sums run once: for the residual at the estimate.
        betas = self._count_exact_sums(monkeypatch)
        for model, L in _certify_sized_models():
            betas.clear()
            est = abscissa_estimate(model, L)
            assert self._exact_points(betas) == [est.estimate], (model.m, L, betas)

    def test_few_replays_on_certify_sized_models(self, monkeypatch):
        # beta = 0, the doublings and the ITP probes, then the estimate:
        # the bisection took one replay per halving, about 38 in all.
        replays = []
        self._count_exact_sums(monkeypatch, replays)
        for model, L in _certify_sized_models():
            replays.clear()
            abscissa_estimate(model, L)
            assert len(replays) <= 16, (model.m, L, replays)

    def test_one_replay_per_step(self, monkeypatch):
        # Each probe brackets the last two levels of one replay and, at
        # beta = 1 on full_model(2), takes their exact sums from the same
        # arrays; the estimate replays once more, for its residual.
        model, L = full_model(2), 10
        replays, enclosures = [], []
        replay, enclosure = words._replay, words._enclosure

        def counted_replay(*args):
            replays.append(args[2])
            return replay(*args)

        def counted_enclosure(w):
            enclosures.append(w)
            return enclosure(w)

        monkeypatch.setattr(words, "_replay", counted_replay)
        monkeypatch.setattr(words, "_enclosure", counted_enclosure)
        est = abscissa_estimate(model, L)
        assert 1.0 in replays and replays[-1] == est.estimate
        assert len(replays) == len(enclosures) // 2 + 1


def _certify_sized_models():
    """(model, L): models the size of the benchmark's certify models, m = 6..9,
    with about 10^4 words in shell L."""
    rng = np.random.default_rng(400)
    for m_size in (6, 6, 7, 7, 8, 9, 9):
        model = random_irreducible(rng, m_size, non_permutation=True, energy_range=(1.5, 4.0))
        counts = words._shell_counts(model, 40, math.inf)
        yield model, min(range(2, 41), key=lambda n: abs(math.log(counts[n] / 1e4)))


class TestPerronVector:
    def test_full_matrix_symmetric(self):
        v = perron_vector(full_model(2), 1.0)
        assert v == pytest.approx([1.0, 1.0], rel=1e-12)
        assert (2.0 ** -1.0) * v.sum() == pytest.approx(1.0, abs=1e-15)

    def test_golden_mean_hand_value(self):
        m = golden_mean_model()
        v = perron_vector(m, math.log(PHI))
        assert v == pytest.approx([1 / PHI, 1.0], rel=1e-9)

    def test_eigen_equation_residual(self, rng):
        for _ in range(6):
            m = random_irreducible(rng, 5, energy_range=(1.5, 4.0))
            beta = float(rng.uniform(0.2, 2.0))
            v = perron_vector(m, beta)
            entries = transfer_matrix(m, beta).entries
            r = spectral_radius(m, beta)
            assert np.abs(entries @ v - r * v).max() <= 1e-10 * max(1.0, np.abs(v).max())
            assert (m.energies ** -beta) @ v == pytest.approx(1.0, abs=1e-12)
            assert v.min() > 0

    def test_requires_irreducible(self):
        m = build_model([[1, 1], [0, 1]], [2.0, 2.0])
        with pytest.raises(NotIrreducibleError):
            perron_vector(m, 1.0)

    def test_rejects_bounds_that_did_not_meet(self, rng, monkeypatch):
        # a pair stopped early, as the stagnation exit may, must not pass as a Perron vector
        m = random_irreducible(rng, 6, non_permutation=True, energy_range=(1.5, 4.0))
        real_pair = partition.perron_pair
        loose = real_pair(transfer_matrix(m, 0.5).entries, tol=1e-4)
        assert loose.upper - loose.lower > critical.PERRON_VECTOR_TOL * loose.upper
        # a cold start: the warm start from the class root is converged already
        monkeypatch.setattr(critical, "perron_pair",
                            lambda entries, start=None: real_pair(entries, tol=1e-4))
        with pytest.raises(NoConvergenceError):
            perron_vector(m, 0.5)

    def test_stagnation_exit_reports_its_own_bounds(self, rng, monkeypatch):
        # tol = 0 is never met, so the iteration ends at the stagnation exit
        m = random_irreducible(rng, 8, non_permutation=True, energy_range=(1.5, 4.0))
        entries = transfer_matrix(m, 0.7).entries
        pair = partition.perron_pair(entries, tol=0.0)
        ratios = (entries @ pair.v) / pair.v
        assert (pair.lower, pair.upper) == (ratios.min(), ratios.max())
        assert pair.lower <= pair.r <= pair.upper
        assert pair.upper - pair.lower <= 1e-13 * pair.upper
        # out of steps, the dense rung answers with the certificate of its own vectors
        monkeypatch.setattr(partition, "POWER_MAXITER_DEFAULT", 8)
        pair = partition.perron_pair(entries)
        ratios, left = (entries @ pair.v) / pair.v, (pair.u @ entries) / pair.u
        assert (pair.lower, pair.upper) == (ratios.min(), ratios.max())
        assert pair.lower <= pair.r <= pair.upper
        assert max(pair.upper - pair.lower, left.max() - left.min()) <= 1e-12 * pair.upper
        # a rung that cannot certify (a vector with a 0) leaves the pair to raise
        real_eig = np.linalg.eig

        def zeroed(a):
            w, vectors = real_eig(a)
            vectors[0, w.real.argmax()] = 0.0
            return w, vectors

        monkeypatch.setattr(np.linalg, "eig", zeroed)
        with pytest.raises(NoConvergenceError, match="power iteration did not converge"):
            partition.perron_pair(entries)
        # a 1x1 block is exact at the first check, whatever tol and budget
        for a in (0.0, 0.37, 1e-300, 1.0 - 1e-10):
            pair = partition.perron_pair(np.array([[a]]), tol=0.0)
            assert (pair.r, pair.lower, pair.upper) == (a, a, a)
            assert pair.v.tolist() == pair.u.tolist() == [1.0]


# --- the power iteration on I + M before scaling -----------------------------
#
# Kept as the reference: a block whose check reads upper >= 1 must take the
# same steps, bit for bit; below 1 the scaled iteration must find the same
# pair in far fewer steps than the reference, which crawls there.

def power_iteration_reference(entries, v, u, tol):
    """The power iteration on I + M at every check, whatever its bounds."""
    best, stale, block, steps = math.inf, 0, partition.CHECK_STEPS, 0
    while steps < partition.POWER_MAXITER_DEFAULT:
        mv = entries @ v
        ratios = mv / v
        lower, upper = float(ratios.min()), float(ratios.max())
        gap = upper - lower
        if u is not None:
            um = u @ entries
            left = um / u
            gap = max(gap, float(left.max() - left.min()))
        if gap <= tol * upper:
            return v, mv, u, lower, upper
        gap /= upper
        if gap < best:
            if best < math.inf:
                needed = block * math.log(max(tol, EPS) / gap) / math.log(gap / best)
                block = min(partition.MAX_BLOCK, max(1, math.ceil(needed)))
            best, stale = gap, 0
        else:
            stale, block = stale + 1, partition.CHECK_STEPS
            if stale >= partition.STAGNATION_CHECKS:
                return v, mv, u, lower, upper
        v = mv + v
        for _ in range(block - 1):
            v += entries @ v
        v /= v.max()
        if u is not None:
            u = um + u
            for _ in range(block - 1):
                u += u @ entries
            u /= u.max()
        steps += block
    raise NoConvergenceError("power iteration did not converge")


class _CountingMatrix(np.ndarray):
    """A matrix that counts its products with vectors (scaled copies count too)."""

    products = 0

    def __matmul__(self, other):
        _CountingMatrix.products += 1
        return np.asarray(self) @ other

    def __rmatmul__(self, other):
        _CountingMatrix.products += 1
        return other @ np.asarray(self)


def _products(iteration, entries, *args):
    _CountingMatrix.products = 0
    out = iteration(entries.view(_CountingMatrix), *args)
    return _CountingMatrix.products, out


# r(M) far below 1: the 6-letter model at beta = 10, and a loop beside a
# 2-cycle of energies 1e6 and 2
_SMALL_RADIUS_MODEL = dict(seed=5, m=6, beta=10.0)
_SPLIT_MODEL = '{"matrix": [[0,0,0,1],[0,1,1,0],[0,0,0,1],[0,0,1,0]], "energies": [1e6,2,1e6,2]}'


class TestScaledPowerIteration:
    @staticmethod
    def _models(rng):
        return [random_irreducible(rng, m, non_permutation=True, energy_range=(1.5, 4.0))
                for m in (2, 3, 5, 8, 13, 32)]

    def test_bits_unchanged_at_and_above_one(self, rng):
        for model in self._models(rng):
            root = class_roots(model)[0].beta
            for beta in (0.0, 0.5 * root, 0.9 * root):
                entries = transfer_matrix(model, beta).entries
                for u, tol in ((None, 1e-12), (np.ones(model.m), 1e-12), (np.ones(model.m), 1e-4)):
                    args = (np.ones(model.m), None if u is None else u.copy(), tol)
                    got = partition._power_iteration(entries, *args)
                    want = power_iteration_reference(entries, *args)
                    assert want[4] >= 1.0
                    for a, b in zip(got, want):
                        if isinstance(a, np.ndarray):
                            assert a.tobytes() == b.tobytes()
                        else:
                            assert a == b

    def test_below_one_agrees_with_reference(self, rng):
        for model in self._models(rng):
            root = class_roots(model)[0].beta
            for beta in (1.5 * root, 2.0 * root):
                entries = transfer_matrix(model, beta).entries
                got = partition.perron_pair(entries)
                v, mv, u, lower, upper = power_iteration_reference(
                    entries, np.ones(model.m), np.ones(model.m), 1e-12)
                assert got.upper < 1.0
                assert got.upper - got.lower <= 1e-12 * got.upper
                assert max(got.lower, lower) <= min(got.upper, upper) * (1.0 + 1e-15)
                assert got.v == pytest.approx(v, rel=1e-9)
                assert got.u == pytest.approx(u, rel=1e-9)

    def test_steps_do_not_grow_as_the_radius_falls(self, rng):
        for model in self._models(rng)[3:5]:
            root = class_roots(model)[0].beta
            counts = {}
            for factor in (0.5, 2.0, 4.0):
                entries = transfer_matrix(model, factor * root).entries
                start = (np.ones(model.m), np.ones(model.m), 1e-12)
                new, _ = _products(partition._power_iteration, entries, *start)
                old, _ = _products(power_iteration_reference, entries, *start)
                counts[factor] = (new, old)
                assert new <= old
            # I + M alone crawls at 4 times the root
            assert counts[4.0][1] > 1000, counts
            assert max(new for new, _ in counts.values()) <= 200, counts

    def test_small_radius_reproducers_answer_fast(self, capsys):
        rng = np.random.default_rng(_SMALL_RADIUS_MODEL["seed"])
        model = random_irreducible(rng, _SMALL_RADIUS_MODEL["m"], non_permutation=True,
                                   energy_range=(1.5, 4.0))
        beta = _SMALL_RADIUS_MODEL["beta"]
        start = time.perf_counter()
        v = perron_vector(model, beta)
        r = spectral_radius(model, beta)
        assert time.perf_counter() - start < 0.05
        entries = transfer_matrix(model, beta).entries
        assert r == pytest.approx(np.abs(np.linalg.eigvals(entries)).max(), rel=1e-11)
        assert np.abs(entries @ v - r * v).max() <= 1e-10 * r * v.max()

        start = time.perf_counter()
        argv = ["partition", "--model-json", _SPLIT_MODEL, "--sweep", "0.1:3:30"]
        assert cli.main(argv) == 0
        assert time.perf_counter() - start < 1.0
        rows = capsys.readouterr().out.splitlines()[1:]
        split = json.loads(_SPLIT_MODEL)
        split = build_model(split["matrix"], split["energies"])
        assert len(rows) == 30
        for row in rows:
            beta, radius = (float(x) for x in row.split(",")[:2])
            entries = transfer_matrix(split, beta).entries
            assert radius == pytest.approx(np.abs(np.linalg.eigvals(entries)).max(), rel=1e-11)


# --- the three bisection loops the shared bracket replaced ------------------
#
# Kept as references.  beta_c and the quotient temperatures now come from
# Newton, which must land inside the bisection's bracket with a certified
# enclosure that overlaps it; the shell-ratio abscissa now comes from an ITP
# search, which must land within the bisection tolerance of the old estimate
# and print the exact g at its own estimate.

def beta_c_reference(model, tol=BISECT_TOL_DEFAULT):
    """(beta_c, bracket_width) by the old doubling-then-bisection loop."""
    if spectral_radius(model, 0.0) <= 1.0 + tol:
        return 0.0, 0.0
    hi = 1.0
    while spectral_radius(model, hi) >= 1.0:
        hi *= 2.0
        if hi > 1e6:
            raise NoConvergenceError("failed to bracket the critical temperature")
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if spectral_radius(model, mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), hi - lo


def oa_betas_reference(model, bisect_tol=1e-10):
    """(beta, bracket_width) of each simplex of `oa_beta_scan` by the old per-component loop."""
    ncomp, labels = connected_components(model.matrix, directed=True, connection="strong")
    candidates = []
    for comp in range(ncomp):
        idx = np.flatnonzero(labels == comp)
        sub = model.matrix[np.ix_(idx, idx)].astype(float)
        energies = model.energies[idx]
        if not sub.any():
            continue

        def r_sub(b):
            return matrix_spectral_radius(sub * energies[None, :] ** (-b))

        if r_sub(0.0) <= 1.0 + bisect_tol:
            continue
        hi = 1.0
        while r_sub(hi) >= 1.0:
            hi *= 2.0
        lo = 0.0
        while hi - lo > bisect_tol:
            mid = 0.5 * (lo + hi)
            if r_sub(mid) >= 1.0:
                lo = mid
            else:
                hi = mid
        candidates.append((0.5 * (lo + hi), hi - lo))
    candidates.sort()
    deduped = []
    for b, width in candidates:
        if not deduped or abs(b - deduped[-1][0]) > 1e-9:
            deduped.append((b, width))
    return [(b, width) for b, width in deduped if kms_oa(model, b).extreme_vectors]


def shell_ratio_reference(model, tree, b):
    """g(b) = S_L(b) / S_{L-1}(b) - 1 from the exact sums of the last two levels of ``tree``."""
    shorter, longer = (words._exact(level, w)
                       for level, w in deque(words._replay(model, tree, b), maxlen=2))
    return longer / shorter - 1.0


def abscissa_reference(model, L, cap=words.WORD_CAP_DEFAULT):
    """(estimate, residual) of `abscissa_estimate` by the old loop."""
    words._shell_counts(model, L, cap)
    tree = words._word_tree(model, L)[1]

    def g(b):
        return shell_ratio_reference(model, tree, b)

    if g(0.0) <= 0.0:
        return 0.0, g(0.0)
    hi = 1.0
    while g(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise NoConvergenceError("failed to bracket the shell-ratio root")
    lo = 0.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    est = 0.5 * (lo + hi)
    return est, g(est)


def assert_reference_estimate(model, L, est, want):
    """``est`` lies within the bisection tolerance of the old loop's estimate
    ``want[0]``, and its residual is the exact g at ``est.estimate``, bit for bit."""
    assert abs(est.estimate - want[0]) <= BISECT_TOL_DEFAULT, (est, want)
    g = shell_ratio_reference(model, words._word_tree(model, L)[1], est.estimate)
    assert _hex(est.residual) == _hex(g)


def bisect_reference(above, tol):
    """Bracket [lo, hi] of the loop the ITP search replaced: hi doubles from 1
    while ``above(hi)``, then bisection from [hi / 2, hi] while wider than
    ``tol`` and while the midpoint splits the bracket."""
    hi = 1.0
    while above(hi):
        hi *= 2.0
        if math.isinf(hi):
            raise NoConvergenceError("failed to bracket the root")
    lo = 0.5 * hi if hi > 1.0 else 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if above(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _reference_models():
    """Named models: random ones for m = 2..32 (irreducible, and reducible
    ones without zero columns), golden mean, full(3), the 2-cycle and the
    coexistence block models."""
    rng = np.random.default_rng(20260811)
    out = [("golden", golden_mean_model()), ("full3", full_model(3)), ("cycle", cycle_model())]
    out += [(f"coexist{i}", m) for i, m in enumerate(coexistence_models())]
    for m in (2, 3, 4, 6, 8, 12, 16, 24, 32):
        out.append((f"irreducible{m}", random_irreducible(
            rng, m, max_row_ones=min(m, 4), energy_range=(1.5, 4.0))))
        while True:
            a = random_matrix(rng, m, max_row_ones=min(m, 3))
            if a.any(axis=0).all():
                break
        out.append((f"random{m}", build_model(a, rng.uniform(1.5, 4.0, size=m))))
    return out


def _abscissa_length(model, max_words=20_000, max_length=10):
    """Longest L <= max_length whose shell holds at most max_words words."""
    counts = words._shell_counts(model, max_length, math.inf)
    return max([2] + [n for n in range(3, max_length + 1) if counts[n] <= max_words])


REFERENCE_MODELS = _reference_models()


def _hex(x):
    return float(x).hex()


def _overlaps(lo, hi, center, width):
    return lo <= center + 0.5 * width and center - 0.5 * width <= hi


class TestSharedBracketMatchesOldLoops:
    # The tests keep the node ids of the bitwise comparisons they replace:
    # beta_c and the quotient temperatures compare enclosures now, and the
    # abscissa its estimate within the tolerance and its residual bitwise.
    @pytest.mark.parametrize("name,model", REFERENCE_MODELS, ids=[n for n, _ in REFERENCE_MODELS])
    def test_beta_c_bitwise(self, name, model):
        rep = beta_c(model)
        want_bc, want_width = beta_c_reference(model)
        if want_width == 0.0:
            assert rep.permutation_like and rep.beta_c == 0.0 and rep.bracket_width == 0.0
            return
        roots = [c for c in class_roots(model) if c.beta is not None]
        lo, hi = max(c.lo for c in roots), max(c.hi for c in roots)
        assert abs(rep.beta_c - want_bc) <= want_width
        assert lo <= rep.beta_c <= hi and rep.bracket_width == hi - lo
        assert _overlaps(lo, hi, want_bc, want_width)

    @pytest.mark.parametrize("name,model", REFERENCE_MODELS, ids=[n for n, _ in REFERENCE_MODELS])
    def test_oa_scan_betas_bitwise(self, name, model):
        got = [s.beta for s in oa_beta_scan(model).simplices]
        want = oa_betas_reference(model)
        assert len(got) == len(want)
        for b, (want_b, want_width) in zip(got, want):
            root = next(c for c in class_roots(model) if c.beta == b)
            assert abs(b - want_b) <= want_width
            assert _overlaps(root.lo, root.hi, want_b, want_width)

    @pytest.mark.parametrize("name,model", REFERENCE_MODELS, ids=[n for n, _ in REFERENCE_MODELS])
    def test_abscissa_bitwise(self, name, model):
        L = _abscissa_length(model)
        est = abscissa_estimate(model, L)
        assert_reference_estimate(model, L, est, abscissa_reference(model, L))


class TestNearOneEnergies:
    """N = 1 + 1e-9 on the golden mean puts beta_c near 4.8e8, where one ulp
    of beta (6e-8) is wider than the bisection tolerance."""

    ENERGY = 1.0 + 1e-9

    def _model(self):
        return golden_mean_model(self.ENERGY)

    def _analytic(self):
        return math.log(PHI) / math.log(self.ENERGY)

    def test_beta_c_matches_log_ratio(self):
        rep = beta_c(self._model())
        assert rep.beta_c == pytest.approx(self._analytic(), rel=1e-8)
        assert rep.perron_at_critical is not None

    def test_oa_scan_one_simplex_at_beta_c(self):
        scan = oa_beta_scan(self._model())
        assert len(scan.simplices) == 1
        assert scan.simplices[0].beta == pytest.approx(self._analytic(), rel=1e-8)

    def test_abscissa_estimate_finite(self):
        est = abscissa_estimate(self._model(), 12)
        assert math.isfinite(est.estimate) and est.estimate > 0
        assert est.estimate == pytest.approx(self._analytic(), rel=1e-2)


def _newton_models():
    """Factories (each call builds a fresh model, so no root table is cached):
    period-2 star truncations, random irreducible models for m = 2..400 and
    the golden mean at N = 1 + 1e-9."""
    star = build_star("default")
    out = {f"star{K}": (lambda K=K: truncated_model(star, K)) for K in (32, 128, 256)}
    rng = np.random.default_rng(20261018)
    for m in (2, 3, 5, 8, 16, 32, 64, 128, 256, 400):
        model = random_irreducible(rng, m, non_permutation=True, energy_range=(1.5, 4.0))
        out[f"random{m}"] = lambda a=model.matrix, n=model.energies: build_model(a, n)
    out["golden-near-one"] = lambda: golden_mean_model(1.0 + 1e-9)
    return out


NEWTON_MODELS = _newton_models()


def _count_calls(monkeypatch) -> dict[str, int]:
    """Count the Perron pairs, ``np.linalg.eigvals`` and ``np.linalg.eig`` calls from now on."""
    counts = {"pairs": 0, "eigvals": 0, "eig": 0}

    def counted(key, real):
        def call(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return call

    pair = counted("pairs", partition.perron_pair)
    monkeypatch.setattr(partition, "perron_pair", pair)
    monkeypatch.setattr(critical, "perron_pair", pair)
    monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(np.linalg, "eig", counted("eig", np.linalg.eig))
    return counts


class TestNewtonRoots:
    @pytest.mark.parametrize("name", list(NEWTON_MODELS))
    def test_few_pair_evaluations_and_no_eigvals(self, name, monkeypatch):
        model = NEWTON_MODELS[name]()
        counts = _count_calls(monkeypatch)
        rep = beta_c(model)
        assert not rep.permutation_like and rep.perron_at_critical is not None
        assert counts["pairs"] <= 10
        assert counts["eigvals"] == counts["eig"] == 0

    @pytest.mark.parametrize("name", list(NEWTON_MODELS))
    def test_dense_eigvals_confirm_enclosure(self, name):
        model = NEWTON_MODELS[name]()
        (root,) = class_roots(model)
        assert root.lo <= root.beta <= root.hi

        def radius(beta):
            return float(np.abs(np.linalg.eigvals(transfer_matrix(model, beta).entries)).max())

        assert radius(root.lo - 1e-9) > 1.0 > radius(root.hi + 1e-9)
        rep = beta_c(model)
        assert (rep.beta_c, rep.bracket_width) == (root.beta, root.hi - root.lo)

    @pytest.mark.parametrize("name", list(NEWTON_MODELS))
    def test_perron_vector_starts_from_the_root_pair(self, name, monkeypatch):
        model = NEWTON_MODELS[name]()
        class_roots(model)
        # the first check runs no step and the next block CHECK_STEPS, so this
        # budget lets the Perron vector after beta_c take two checks, not three
        monkeypatch.setattr(partition, "POWER_MAXITER_DEFAULT", partition.CHECK_STEPS + 1)
        counts = _count_calls(monkeypatch)
        rep = beta_c(model)
        monkeypatch.undo()
        # a cold start would give up and certify its pair on the dense rung
        assert counts["eig"] == 0
        cold = critical._certified_vector(
            partition.perron_pair(transfer_matrix(model, rep.beta_c).entries))
        cold = cold / float(model.weights(rep.beta_c) @ cold)
        assert (np.abs(rep.perron_at_critical - cold) <= 1e-11 * cold).all()

    def test_table_kept_per_model_and_dropped_with_it(self):
        model = NEWTON_MODELS["random8"]()
        table = class_roots(model)
        assert class_roots(model) is table
        assert partition._CLASS_ROOTS[model] is table
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None


# Two golden-mean blocks joined through two letters of energy 1e6: near its
# root the class is nearly split, and its power iteration would need far more
# than POWER_MAXITER_DEFAULT steps, so every command reaches the dense rung.
TIED = {"matrix": [[1, 1, 0, 0, 1, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 1],
                   [0, 0, 1, 1, 0, 0], [0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0]],
        "energies": [2, 2, 2, 2, 1e6, 1e6]}


class TestTiedModel:
    @staticmethod
    def _model():
        return build_model(TIED["matrix"], TIED["energies"])

    @pytest.mark.parametrize("argv", [["critical"], ["analyze"], ["kms", "--beta=0.5"],
                                      ["oa", "--scan"], ["partition", "--sweep", "0.1:2:20"]],
                             ids=["critical", "analyze", "kms", "oa-scan", "sweep"])
    def test_commands_answer(self, capsys, argv):
        assert cli.main([argv[0], "--model-json", json.dumps(TIED), *argv[1:]]) == 0

    def test_beta_c_brackets_the_eigvals_root(self):
        model = self._model()
        (root,) = class_roots(model)

        def radius(beta):
            return float(np.abs(np.linalg.eigvals(transfer_matrix(model, beta).entries)).max())

        assert radius(root.lo - 1e-9) > 1.0 > radius(root.hi + 1e-9)
        assert root.lo <= beta_c(model).beta_c <= root.hi
        assert root.hi - root.lo <= BISECT_TOL_DEFAULT

    def test_fast_in_process(self):
        # best of three fresh models, so that no root table is reused
        def seconds(call):
            start = time.perf_counter()
            call()
            return time.perf_counter() - start

        assert min(seconds(lambda: beta_c(self._model())) for _ in range(3)) < 0.020
        model = self._model()
        assert min(seconds(lambda: spectral_radius(model, 0.7)) for _ in range(3)) < 0.010
        want = float(np.abs(np.linalg.eigvals(transfer_matrix(model, 0.7).entries)).max())
        assert spectral_radius(model, 0.7) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_takes_the_dense_rung(self, monkeypatch):
        counts = _count_calls(monkeypatch)
        rep = beta_c(self._model())
        assert rep.perron_at_critical is not None
        assert counts["eig"] > 0 and counts["eigvals"] == 0

    def test_refused_dense_rung_is_tried_once(self, monkeypatch):
        # a pair the rung cannot certify iterates on until the budget is spent
        monkeypatch.setattr(partition, "POWER_MAXITER_DEFAULT", 2_000)
        real_bounds, real_dense, checks, tries = partition._bounds, partition._dense, [], []
        monkeypatch.setattr(partition, "_bounds",
                            lambda *args: checks.append(None) or real_bounds(*args))

        def refuse_pairs(entries, left, tol):
            tries.append(len(checks))
            return None if left else real_dense(entries, left, tol)

        monkeypatch.setattr(partition, "_dense", refuse_pairs)
        with pytest.raises(NoConvergenceError):
            partition.perron_pair(transfer_matrix(self._model(), 0.7).entries)
        assert len(tries) == 1 and len(checks) > tries[0]


class TestBisect:
    # The ITP search that replaced the bisection keeps the bisection's
    # properties; a predicate with no steer takes the midpoint every step.
    @staticmethod
    def _search(above, tol=1e-10):
        return _itp(lambda b: (above(b), None, None), tol)

    def test_stops_when_the_midpoint_no_longer_splits(self):
        root = 3.0e9
        lo, hi = self._search(lambda b: b < root)
        assert lo < root <= hi and np.nextafter(lo, math.inf) == hi

    def test_starts_from_the_last_doubling(self):
        # hi doubles 1 -> 2 -> 4; above(2) already held, so it is never asked again
        asked = []

        def above(b):
            asked.append(b)
            return b < 3.0

        lo, hi = self._search(above)
        assert lo < 3.0 <= hi and asked[:4] == [1.0, 2.0, 4.0, 3.0]
        assert asked.count(2.0) == 1

    def test_raises_only_on_overflow(self):
        with pytest.raises(NoConvergenceError):
            self._search(lambda b: True)
        lo, hi = self._search(lambda b: b < 1e300)
        assert lo < 1e300 <= hi

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-6, 1e9), st.floats(0.1, 5.0), st.floats(-12.0, 12.0))
    def test_never_more_probes_than_bisection_plus_one(self, root, power, skew):
        # steers |root - b|^power, scaled by 10^skew on the side where the
        # predicate holds: regula falsi alone would crawl from one end
        asked = []

        def probe(b):
            asked.append(b)
            assert len(asked) <= 200, "a crawl the budget does not stop"
            steer = abs(root - b) ** power * (10.0 ** skew if b < root else 1.0)
            return b < root, math.copysign(steer, root - b), None

        lo, hi = _itp(probe, 1e-10, root ** power * 10.0 ** skew)
        bisected = []
        bisect_reference(lambda b: bisected.append(b) or b < root, 1e-10)
        assert lo < root <= hi
        assert hi - lo <= 1e-10 or not lo < 0.5 * (lo + hi) < hi
        assert len(asked) <= len(bisected) + 1

    @staticmethod
    def _undecided_near(root, zone):
        """A probe whose cheap test cannot tell within ``zone`` of ``root``,
        with a linear steer; it records the points probed and those asked
        for the exact decision."""
        asked, exact = [], []

        def probe(b):
            asked.append(b)
            above = None if abs(b - root) < zone else b < root
            return above, root - b, lambda: exact.append(b) or root - b

        return probe, asked, exact

    @pytest.mark.parametrize("root", [0.7, 1.3, 3.1, 17.9])
    def test_undecided_probe_asks_its_neighbours(self, root):
        # The linear steer puts a probe x within 1e-13 of the root; its
        # neighbours at x -+ tol / 2 (one of them may be clamped to an end)
        # decide, and their interval is the bracket.
        probe, asked, exact = self._undecided_near(root, 1e-13)
        lo, hi = _itp(probe, 1e-10, root)
        x = next(b for b in asked if abs(b - root) < 1e-13)
        assert exact == [] and hi == asked[-1] and asked.index(x) >= len(asked) - 3
        assert lo < x < hi and lo < root <= hi and hi - lo <= 1e-10 * (1 + 1e-6)

    @pytest.mark.parametrize("root", [0.7, 1.3, 3.1, 17.9])
    def test_exact_only_where_the_neighbours_do_not_decide(self, root):
        # Within 1e-9 of the root the neighbours cannot tell either, so the
        # exact decision is asked at each such probe and only there.
        probe, asked, exact = self._undecided_near(root, 1e-9)
        lo, hi = _itp(probe, 1e-10, root)
        assert exact and all(abs(b - root) < 1e-9 for b in exact)
        assert set(exact) <= set(asked) and lo <= root <= hi and hi - lo <= 1e-10


class TestRegime:
    def test_regime_rule(self):
        rep = beta_c(golden_mean_model())
        bc = rep.beta_c
        assert rep.regime(bc) == "critical"
        assert rep.regime(bc + 0.5 * rep.bracket_width) == "critical"
        assert rep.regime(bc - 1e-3) == "below"
        assert rep.regime(bc + 1e-3) == "above"

    def test_permutation_like_has_no_critical_regime(self):
        rep = beta_c(cycle_model())
        assert rep.regime(0.0) == "above"
        assert rep.regime(1.0) == "above"
