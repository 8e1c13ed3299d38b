from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest
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
from kmsphase import critical, partition
from kmsphase.critical import BISECT_TOL_DEFAULT, _bisect, matrix_spectral_radius
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
        # class by class each block converges at once and no eigvals is needed
        tied = build_model(
            [[1, 1, 1, 0], [1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 0]], [2.0, 3.0, 2.0, 3.0])
        calls = {"iterations": 0, "eigvals": 0}
        real_iteration, real_eigvals = partition._power_iteration, np.linalg.eigvals

        def iteration(*args, **kwargs):
            calls["iterations"] += 1
            return real_iteration(*args, **kwargs)

        def eigvals(*args, **kwargs):
            calls["eigvals"] += 1
            return real_eigvals(*args, **kwargs)

        monkeypatch.setattr(partition, "_power_iteration", iteration)
        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        for model in [tied, *coexistence_models()]:
            _, labels = model.strong_components
            nontrivial = int((np.bincount(labels) > 1).sum())
            for beta in (0.0, 0.4, 1.3):
                calls["iterations"] = 0
                r = spectral_radius(model, beta)
                assert calls == {"iterations": nontrivial, "eigvals": 0}
                want = np.abs(real_eigvals(transfer_matrix(model, beta).entries)).max()
                assert r == pytest.approx(want, rel=1e-11)

    def test_raw_tied_matrix_falls_back_to_eigvals(self):
        assert matrix_spectral_radius(np.array([[1.0, 1.0], [0.0, 1.0]])) == pytest.approx(1.0, abs=1e-12)

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
        monkeypatch.setattr(critical, "perron_pair", lambda entries: real_pair(entries, tol=1e-4))
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
        monkeypatch.setattr(partition, "POWER_MAXITER_DEFAULT", 8)
        with pytest.raises(NoConvergenceError):
            partition.perron_pair(entries, tol=0.0)


# --- the three bisection loops the shared bracket replaced ------------------
#
# Kept as references.  `_bisect` must reproduce the abscissa loop bit for bit
# wherever it terminated (its 1e6 cap aside); beta_c and the quotient
# temperatures now come from Newton, which must land inside the bisection's
# bracket with a certified enclosure that overlaps it.

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


def abscissa_reference(model, L, cap=words.WORD_CAP_DEFAULT):
    """(estimate, residual) of `abscissa_estimate` by the old loop."""
    tree = words._word_tree(model, L, cap=cap)

    def g(b):
        shorter, longer = words._shell_sums(model, tree, b, first=L - 1)
        return longer / shorter - 1.0

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
    counts = words._shell_counts(model, max_length)
    return max([2] + [n for n in range(3, max_length + 1) if counts[n] <= max_words])


REFERENCE_MODELS = _reference_models()


def _hex(x):
    return float(x).hex()


def _overlaps(lo, hi, center, width):
    return lo <= center + 0.5 * width and center - 0.5 * width <= hi


class TestSharedBracketMatchesOldLoops:
    # The beta_c and quotient-temperature tests keep the node ids of the
    # bitwise comparisons they replace; they compare enclosures now.
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
        want = abscissa_reference(model, L)
        assert (_hex(est.estimate), _hex(est.residual)) == tuple(_hex(v) for v in want)


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


class TestNewtonRoots:
    @pytest.mark.parametrize("name", list(NEWTON_MODELS))
    def test_few_pair_evaluations_and_no_eigvals(self, name, monkeypatch):
        model = NEWTON_MODELS[name]()
        counts = {"pairs": 0, "eigvals": 0}
        real_pair, real_eigvals = partition.perron_pair, np.linalg.eigvals

        def pair(*args, **kwargs):
            counts["pairs"] += 1
            return real_pair(*args, **kwargs)

        def eigvals(*args, **kwargs):
            counts["eigvals"] += 1
            return real_eigvals(*args, **kwargs)

        monkeypatch.setattr(partition, "perron_pair", pair)
        monkeypatch.setattr(critical, "perron_pair", pair)
        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        rep = beta_c(model)
        assert not rep.permutation_like and rep.perron_at_critical is not None
        assert counts["pairs"] <= 10
        assert counts["eigvals"] == 0

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


    def test_table_kept_per_model_and_dropped_with_it(self):
        model = NEWTON_MODELS["random8"]()
        table = class_roots(model)
        assert class_roots(model) is table
        assert partition._CLASS_ROOTS[model] is table
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None


class TestBisect:
    def test_stops_when_the_midpoint_no_longer_splits(self):
        root = 3.0e9
        lo, hi = _bisect(lambda b: b < root, 1e-10)
        assert lo < root <= hi and np.nextafter(lo, math.inf) == hi

    def test_starts_from_the_last_doubling(self):
        # hi doubles 1 -> 2 -> 4; above(2) already held, so it is never asked again
        asked = []

        def above(b):
            asked.append(b)
            return b < 3.0

        lo, hi = _bisect(above, 1e-10)
        assert lo < 3.0 <= hi and asked[:4] == [1.0, 2.0, 4.0, 3.0]
        assert asked.count(2.0) == 1

    def test_raises_only_on_overflow(self):
        with pytest.raises(NoConvergenceError):
            _bisect(lambda b: True, 1e-10)
        lo, hi = _bisect(lambda b: b < 1e300, 1e-10)
        assert lo < 1e300 <= hi


class TestRegime:
    def test_regime_rule(self):
        rep = beta_c(golden_mean_model())
        bc = rep.beta_c
        assert rep.regime(bc) == "critical"
        assert rep.regime(bc + 0.5 * max(rep.bracket_width, 1e-12)) == "critical"
        assert rep.regime(bc - 1e-3) == "below"
        assert rep.regime(bc + 1e-3) == "above"

    def test_permutation_like_has_no_critical_regime(self):
        rep = beta_c(cycle_model())
        assert rep.regime(0.0) == "above"
        assert rep.regime(1.0) == "above"
