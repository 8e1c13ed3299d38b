from __future__ import annotations

import math
from math import fsum

import numpy as np
import pytest

from kmsphase import build_model, enumerate_words, partial_series, shell_sum
from kmsphase.critical import abscissa_estimate
from kmsphase.errors import DegenerateShellsError, LengthTooLargeError, NoConvergenceError
from kmsphase.words import _shell_count

from conftest import cycle_model, full_model, golden_mean_model, random_irreducible, random_matrix


class TestEnumerate:
    def test_full_matrix_admits_everything(self):
        out = enumerate_words(full_model(2), 3)
        assert len(out) == 8
        assert out[0].letters == (0, 0, 0)
        assert out == sorted(out, key=lambda w: w.letters)

    def test_two_cycle_forces_alternation(self):
        out = enumerate_words(cycle_model(), 3)
        assert [w.letters for w in out] == [(0, 1, 0), (1, 0, 1)]

    def test_forbidden_pair_excluded(self):
        out = enumerate_words(golden_mean_model(), 2)
        assert [w.letters for w in out] == [(0, 1), (1, 0), (1, 1)]

    def test_empty_word(self):
        out = enumerate_words(full_model(2), 0)
        assert len(out) == 1 and out[0].letters == () and out[0].weight_exponent == 0.0

    def test_weight_exponent_is_log_energy_sum(self):
        m = build_model([[1, 1], [1, 1]], [2.0, 3.0])
        for w in enumerate_words(m, 3):
            assert w.weight_exponent == pytest.approx(
                sum(np.log([2.0, 3.0][i]) for i in w.letters)
            )

    def test_cap_enforced(self):
        with pytest.raises(LengthTooLargeError):
            enumerate_words(full_model(4), 10, cap=1000)

    def test_count_matches_path_count(self, rng):
        for _ in range(10):
            mm = int(rng.integers(2, 5))
            a = random_matrix(rng, mm)
            model = build_model(a, [2.0] * mm)
            for n in range(1, 5):
                count = len(enumerate_words(model, n))
                ones = np.ones(mm, dtype=object)
                expected = int(ones @ np.linalg.matrix_power(a.astype(object), n - 1) @ ones)
                assert count == expected


class TestShellSum:
    def test_full_uniform_shell(self):
        assert shell_sum(full_model(2), 2.0, 2) == pytest.approx(4 * 2.0 ** -4, rel=1e-14)

    def test_empty_shell_is_one(self):
        assert shell_sum(golden_mean_model(), 5.0, 0) == 1.0
        assert shell_sum(golden_mean_model(), 5.0, 0, source=0) == 0.0

    def test_source_and_target_restriction(self):
        assert shell_sum(full_model(2), 2.0, 2, source=0, target=0) == pytest.approx(
            2.0 ** -4, rel=1e-14
        )

    def test_full_uniform_closed_form(self, rng):
        for m, beta, n in [(2, 1.5, 5), (3, 2.0, 4), (4, 3.0, 3)]:
            model = full_model(m, energy=2.0)
            assert shell_sum(model, beta, n) == pytest.approx(
                m ** n * 2.0 ** (-n * beta), rel=1e-12
            )

    def test_source_target_decomposition(self, rng):
        for _ in range(8):
            mm = int(rng.integers(2, 5))
            model = build_model(random_matrix(rng, mm), rng.uniform(1.5, 4.0, mm))
            for n in (1, 2, 4):
                total = shell_sum(model, 1.7, n)
                split = sum(
                    shell_sum(model, 1.7, n, source=s, target=t)
                    for s in range(mm)
                    for t in range(mm)
                )
                assert split == pytest.approx(total, rel=1e-12)

    def test_matches_direct_enumeration(self, rng):
        model = build_model(random_matrix(rng, 4), rng.uniform(1.5, 4.0, 4))
        beta = 2.3
        for n in range(5):
            direct = sum(w.weight(beta) for w in enumerate_words(model, n))
            assert shell_sum(model, beta, n) == pytest.approx(direct, rel=1e-12, abs=1e-300)


class TestPartialSeries:
    def test_geometric_shells(self):
        assert partial_series(full_model(2), 2.0, 3) == pytest.approx(1.875, rel=1e-14)

    def test_l_zero(self):
        assert partial_series(golden_mean_model(), 3.0, 0) == 1.0

    def test_two_cycle_worked_value(self):
        assert partial_series(cycle_model(), 1.0, 4) == pytest.approx(2.875, rel=1e-14)

    def test_constrained_series_starts_at_length_one(self):
        m = full_model(2)
        val = partial_series(m, 2.0, 2, target=0)
        expected = shell_sum(m, 2.0, 1, target=0) + shell_sum(m, 2.0, 2, target=0)
        assert val == pytest.approx(expected, rel=1e-14)

    def test_cap_enforced(self):
        with pytest.raises(LengthTooLargeError):
            partial_series(full_model(5), 2.0, 12, cap=10_000)


@pytest.mark.parametrize("series", [shell_sum, partial_series])
@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("ends", [{"source": 5}, {"source": -1}, {"target": 7}, {"target": 2}])
def test_letters_outside_the_alphabet_rejected(series, n, ends):
    with pytest.raises(ValueError, match="must be a letter in 0..1"):
        series(golden_mean_model(), 1.0, n, **ends)


# --- the word tree against the per-call frontier it replaced ---------------

def _shell_weights_reference(model, beta, n, source):
    """Per-word weights of shell n grouped by last letter, by frontier extension."""
    nw = model.energies ** (-beta)
    if source is None:
        frontier = {x: np.array([nw[x]]) for x in range(model.m)}
    else:
        frontier = {source: np.array([nw[source]])}
    for _ in range(n - 1):
        new = {}
        for x, arr in frontier.items():
            for y in model.successors(x):
                y = int(y)
                new.setdefault(y, []).append(arr * nw[y])
        frontier = {y: np.concatenate(parts) for y, parts in new.items()}
    return frontier


def shell_sum_reference(model, beta, n, source=None, target=None, cap=10_000_000):
    if n == 0:
        return 1.0 if source is None and target is None else 0.0
    count = _shell_count(model, n)
    if count > cap:
        raise LengthTooLargeError(count, cap)
    frontier = _shell_weights_reference(model, beta, n, source)
    return fsum(fsum(frontier[y].tolist()) for y in sorted(frontier) if target in (None, y))


def partial_series_reference(model, beta, L, source=None, target=None, cap=10_000_000):
    shells = [1.0] if source is None and target is None else []
    total_words = 0
    for n in range(1, L + 1):
        total_words += _shell_count(model, n)
        if total_words > cap:
            raise LengthTooLargeError(total_words, cap)
        shells.append(shell_sum_reference(model, beta, n, source=source, target=target, cap=cap))
    return fsum(shells)


def abscissa_reference(model, L, cap=10_000_000):
    """Bisection on the shell ratio, with both shells re-enumerated per beta."""
    if shell_sum_reference(model, 0.0, L, cap=cap) == 0.0:
        raise DegenerateShellsError("empty shell at beta = 0")

    def g(b):
        return shell_sum_reference(model, b, L, cap=cap) / shell_sum_reference(model, b, L - 1, cap=cap) - 1.0

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


def _tree_models():
    rng = np.random.default_rng(77)
    models = [golden_mean_model(), cycle_model((2.0, 3.5)), full_model(3, energy=1.7)]
    for m_size in (3, 4, 4):
        models.append(build_model(random_matrix(rng, m_size, max_row_ones=3),
                                  rng.uniform(1.5, 4.0, m_size)))
    return models


class TestWordTreeBitwise:
    @pytest.mark.parametrize("index", range(6))
    def test_shell_sum(self, index):
        model = _tree_models()[index]
        ends = (None, 0, model.m - 1)
        for beta in (0.0, 0.73, 2.9, math.inf):
            for n in range(8):
                for source in ends:
                    for target in ends:
                        got = shell_sum(model, beta, n, source=source, target=target)
                        want = shell_sum_reference(model, beta, n, source=source, target=target)
                        assert got.hex() == want.hex(), (beta, n, source, target)

    @pytest.mark.parametrize("index", range(6))
    def test_partial_series(self, index):
        model = _tree_models()[index]
        ends = (None, 0, model.m - 1)
        for beta in (0.4, 1.9):
            for L in (0, 1, 4, 7):
                for source in ends:
                    for target in ends:
                        got = partial_series(model, beta, L, source=source, target=target)
                        want = partial_series_reference(model, beta, L, source=source, target=target)
                        assert got.hex() == want.hex(), (beta, L, source, target)

    def test_abscissa_estimate(self):
        rng = np.random.default_rng(5)
        models = _tree_models() + [random_irreducible(rng, 5, non_permutation=True,
                                                      energy_range=(1.5, 4.0))]
        for model in models:
            for L in (2, 6, 9):
                got = abscissa_estimate(model, L)
                want = abscissa_reference(model, L)
                assert (got.estimate.hex(), got.residual.hex()) == (want[0].hex(), want[1].hex())

    def test_small_cap_raises(self):
        model = full_model(4)
        calls = [
            (lambda: shell_sum(model, 1.0, 6, cap=1000), 4 ** 6),
            (lambda: partial_series(model, 1.0, 6, cap=1000), 4 + 16 + 64 + 256 + 1024),
            (lambda: abscissa_estimate(model, 6, cap=1000), 4 ** 6),
        ]
        for call, count in calls:
            with pytest.raises(LengthTooLargeError) as info:
                call()
            assert (info.value.count, info.value.cap) == (count, 1000)
