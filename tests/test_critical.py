from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from kmsphase import (
    abscissa_estimate,
    beta_c,
    build_model,
    evaluate,
    kms_oa,
    oa_beta_scan,
    perron_vector,
    spectral_radius,
    transfer_matrix,
    words,
)
from kmsphase.critical import BISECT_TOL_DEFAULT, _bisect, matrix_spectral_radius
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
        # the permutation matrix makes plain power iteration oscillate
        m = cycle_model()
        assert spectral_radius(m, 1.0) == pytest.approx(0.5, rel=1e-10)

    def test_at_beta_zero_at_least_one(self, rng):
        for _ in range(10):
            m = random_irreducible(rng, 5)
            assert spectral_radius(m, 0.0) >= 1.0 - 1e-12

    def test_zero_at_ground(self):
        assert spectral_radius(golden_mean_model(), math.inf) == 0.0

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
        rep = beta_c(cycle_model())
        assert rep.beta_c == 0.0 and rep.permutation_like

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


# --- the three bisection loops the shared bracket replaced ------------------
#
# Kept as references: `_bisect` must reproduce each of them bit for bit
# wherever they terminated (their 1e6 caps aside).

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
    """Simplex betas of `oa_beta_scan` by the old per-component loop."""
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
        candidates.append(0.5 * (lo + hi))
    candidates.sort()
    deduped = []
    for b in candidates:
        if not deduped or abs(b - deduped[-1]) > 1e-9:
            deduped.append(b)
    return [b for b in deduped if kms_oa(model, b).extreme_vectors]


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


class TestSharedBracketMatchesOldLoops:
    @pytest.mark.parametrize("name,model", REFERENCE_MODELS, ids=[n for n, _ in REFERENCE_MODELS])
    def test_beta_c_bitwise(self, name, model):
        rep = beta_c(model)
        want_bc, want_width = beta_c_reference(model)
        assert (_hex(rep.beta_c), _hex(rep.bracket_width)) == (_hex(want_bc), _hex(want_width))

    @pytest.mark.parametrize("name,model", REFERENCE_MODELS, ids=[n for n, _ in REFERENCE_MODELS])
    def test_oa_scan_betas_bitwise(self, name, model):
        got = [_hex(s.beta) for s in oa_beta_scan(model).simplices]
        assert got == [_hex(b) for b in oa_betas_reference(model)]

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


class TestBisect:
    def test_stops_when_the_midpoint_no_longer_splits(self):
        root = 3.0e9
        lo, hi = _bisect(lambda b: b < root, 1e-10)
        assert lo < root <= hi and np.nextafter(lo, math.inf) == hi

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
