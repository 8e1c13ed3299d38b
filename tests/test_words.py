from __future__ import annotations

import json
import math
import time
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmsphase import build_model, enumerate_words, partial_series, shell_sum, words
from kmsphase.cli import main
from kmsphase.critical import abscissa_estimate
from kmsphase.errors import DegenerateShellsError, LengthTooLargeError, NoConvergenceError
from kmsphase.words import _enclosure, _exact, _replay, _shell_counts, _word_tree

from conftest import (coexistence_models, cycle_model, full_model, golden_mean_model,
                      random_irreducible, random_matrix)


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

    @pytest.mark.parametrize("n", [0, 2])
    def test_weight_checks_beta_as_the_model_does(self, n):
        # a NaN or -inf beta raises SystemModel.weights' ValueError; finite
        # and +inf betas weigh the word, the empty word 1 at every beta
        model = golden_mean_model()
        for word in enumerate_words(model, n):
            for beta in (math.nan, -math.inf):
                with pytest.raises(ValueError) as want:
                    model.weights(beta)
                with pytest.raises(ValueError) as got:
                    word.weight(beta)
                assert str(got.value) == str(want.value)
            assert word.weight(0.7) == float(np.exp(-0.7 * word.weight_exponent))
            assert word.weight(math.inf) == (0.0 if n else 1.0)

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

    def test_count_stops_at_the_first_total_above_the_cap(self):
        # golden mean shells hold 2, 3, 5, 8, ... words; their running total
        # first passes 10^7 at length 33, and no later shell is counted
        start = time.perf_counter()
        with pytest.raises(LengthTooLargeError) as info:
            partial_series(golden_mean_model(), 1.0, 100_000, cap=10_000_000)
        assert time.perf_counter() - start < 0.1
        fib = [1, 2]
        while sum(fib[1:]) <= 10_000_000:
            fib.append(fib[-1] + fib[-2])
        assert info.value.count == sum(fib[1:]) == 14930349


def test_count_past_the_digit_limit_is_printed_by_size():
    count = 10 ** 5000
    exc = LengthTooLargeError(count, 7)
    assert exc.count == count and exc.cap == 7
    assert str(exc) == "enumeration would visit at least 2^16609 words, above the cap 7"


@pytest.mark.parametrize("series", [shell_sum, partial_series])
@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("ends", [{"source": 5}, {"source": -1}, {"target": 7}, {"target": 2}])
def test_letters_outside_the_alphabet_rejected(series, n, ends):
    with pytest.raises(ValueError, match="must be a letter in 0..1"):
        series(golden_mean_model(), 1.0, n, **ends)


# --- one cap rule: the running total of shells 1..k --------------------------

_ENUMERATORS = {
    "enumerate_words": lambda model, n, cap: enumerate_words(model, n, cap=cap),
    "shell_sum": lambda model, n, cap: shell_sum(model, 1.0, n, cap=cap),
    "partial_series": lambda model, n, cap: partial_series(model, 1.0, n, cap=cap),
    "abscissa_estimate": lambda model, n, cap: abscissa_estimate(model, n, cap=cap),
    "_word_tree": lambda model, n, cap: _word_tree(model, n, cap=cap),
}


@pytest.mark.parametrize("name", _ENUMERATORS)
def test_cap_stops_at_the_first_running_total_above_it(name):
    # the 2-cycle holds 2 words per shell: the total passes 1000 at length
    # 501, and none of the 10^5 shells after it is counted or enumerated
    start = time.perf_counter()
    with pytest.raises(LengthTooLargeError) as info:
        _ENUMERATORS[name](cycle_model(), 100_000, 1000)
    assert time.perf_counter() - start < 0.1
    assert (info.value.count, info.value.cap) == (1002, 1000)


@pytest.mark.parametrize("name", _ENUMERATORS)
def test_one_count_per_call(monkeypatch, name):
    calls = []
    original = words._shell_counts

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(words, "_shell_counts", counted)
    _ENUMERATORS[name](golden_mean_model(), 8, 10_000)
    assert len(calls) == 1


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


def _cap_reference(model, n, cap):
    """The cap rule: the running total of shells 1..k, at the first k above ``cap``."""
    total_words = 0
    for count in _shell_counts(model, n, math.inf)[1:]:
        total_words += count
        if total_words > cap:
            raise LengthTooLargeError(total_words, cap)


def shell_sum_reference(model, beta, n, source=None, target=None, cap=10_000_000):
    if n == 0:
        return 1.0 if source is None and target is None else 0.0
    _cap_reference(model, n, cap)
    frontier = _shell_weights_reference(model, beta, n, source)
    return fsum(fsum(frontier[y].tolist()) for y in sorted(frontier) if target in (None, y))


def partial_series_reference(model, beta, L, source=None, target=None, cap=10_000_000):
    _cap_reference(model, L, cap)
    shells = [1.0] if source is None and target is None else []
    for n in range(1, L + 1):
        shells.append(shell_sum_reference(model, beta, n, source=source, target=target, cap=cap))
    return fsum(shells)


def shell_ratio_reference(model, b, L, cap=10_000_000):
    """g(b) = S_L(b) / S_{L-1}(b) - 1, with both shells re-enumerated."""
    longer, shorter = (shell_sum_reference(model, b, n, cap=cap) for n in (L, L - 1))
    return longer / shorter - 1.0


def abscissa_reference(model, L, cap=10_000_000):
    """Bisection on the shell ratio, with both shells re-enumerated per beta."""
    if shell_sum_reference(model, 0.0, L, cap=cap) == 0.0:
        raise DegenerateShellsError("empty shell at beta = 0")

    def g(b):
        return shell_ratio_reference(model, b, L, cap=cap)

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
                # the ITP search lands within the bisection tolerance of the
                # old estimate and prints the exact g at its own estimate
                got = abscissa_estimate(model, L)
                want = abscissa_reference(model, L)
                assert abs(got.estimate - want[0]) <= 1e-10, (L, got, want)
                assert got.residual.hex() == shell_ratio_reference(model, got.estimate, L).hex()

    def test_small_cap_raises(self):
        model = full_model(4)
        calls = [
            (lambda: shell_sum(model, 1.0, 6, cap=1000), 4 + 16 + 64 + 256 + 1024),
            (lambda: partial_series(model, 1.0, 6, cap=1000), 4 + 16 + 64 + 256 + 1024),
            (lambda: abscissa_estimate(model, 6, cap=1000), 4 + 16 + 64 + 256 + 1024),
        ]
        for call, count in calls:
            with pytest.raises(LengthTooLargeError) as info:
                call()
            assert (info.value.count, info.value.cap) == (count, 1000)


# --- one shell table for the oracle CSV and partial_series -----------------

def _table_models():
    rng = np.random.default_rng(2718)
    random6 = build_model(random_matrix(rng, 6), rng.uniform(1.5, 4.0, 6))
    return [pytest.param(golden_mean_model(), id="golden"),
            pytest.param(coexistence_models()[0], id="reducible"),
            pytest.param(random6, id="random6")]


class TestShellTable:
    @pytest.mark.parametrize("model", _table_models())
    @pytest.mark.parametrize("L", [0, 1, 5])
    def test_printed_rows_are_the_series_and_its_shells(self, capsys, model, L):
        text = json.dumps({"matrix": model.matrix.tolist(), "energies": model.energies.tolist()})
        ends = (None, 0, model.m - 1)
        for source in ends:
            for target in ends:
                argv = ["oracle", "--model-json", text, "--beta", "0.9", "--max-length", str(L)]
                argv += ["--source", str(source)] if source is not None else []
                argv += ["--target", str(target)] if target is not None else []
                assert main(argv) == 0
                lines = capsys.readouterr().out.splitlines()
                assert lines[0] == "n,count,shell_sum" and len(lines) == L + 2
                rows = [line.split(",") for line in lines[1:]]
                assert [int(n) for n, _, _ in rows] == list(range(L + 1))
                assert [int(c) for _, c, _ in rows] == _shell_counts(model, L)
                sums = [float(s) for _, _, s in rows]
                want = partial_series(model, 0.9, L, source=source, target=target)
                assert fsum(sums).hex() == want.hex(), (source, target)
                for n in range(1, L + 1):
                    got = shell_sum(model, 0.9, n, source=source, target=target)
                    assert sums[n].hex() == got.hex(), (n, source, target)

    def test_length_zero_builds_no_level(self):
        assert _word_tree(golden_mean_model(), 0) == ([1], [])


# --- the (parents, counts) level format against the per-letter loop ---------

def word_tree_reference(model, n, source=None):
    """Levels (parents, letters) of lengths 1..n by one pass per letter: for
    each y in ascending order, the words of the level before whose letter
    leads to y."""
    letters = np.arange(model.m) if source is None else np.array([source])
    tree = [(None, letters)]
    into = model.matrix.T.astype(bool)  # into[y, x] = A(x, y)
    for _ in range(n - 1):
        parts = [np.flatnonzero(into[y][letters]) for y in range(model.m)]
        letters = np.repeat(np.arange(model.m), [p.size for p in parts])
        tree.append((np.concatenate(parts), letters))
    return tree


class TestWordTreeLevels:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 10_000))
    def test_levels_match_the_per_letter_loop(self, m_size, seed):
        # random_matrix draws reducible models as well as irreducible ones
        model = build_model(random_matrix(np.random.default_rng(seed), m_size), [2.0] * m_size)
        for source in (None, *range(m_size)):
            for n in range(1, 8):
                if sum(_shell_counts(model, n, math.inf)) > 20_000:
                    break
                tree, want = _word_tree(model, n, source)[1], word_tree_reference(model, n, source)
                assert len(tree) == len(want) == n
                for k, ((parents, counts), (ref_parents, ref_letters)) in enumerate(zip(tree, want)):
                    if ref_parents is None:
                        assert parents is None
                    else:
                        assert np.array_equal(parents, ref_parents), (source, n, k)
                    assert np.array_equal(np.repeat(np.arange(m_size), counts), ref_letters), \
                        (source, n, k)

    @pytest.mark.parametrize("source", [None, 0, 1])
    def test_a_level_is_one_index_per_word_and_one_count_per_letter(self, source):
        model = golden_mean_model()
        tree = _word_tree(model, 6, source)[1]
        sizes = [sum(source in (None, w.letters[0]) for w in enumerate_words(model, n))
                 for n in range(1, 7)]
        for n, level in enumerate(tree, start=1):
            assert len(level) == 2
            parents, counts = level
            assert counts.shape == (model.m,) and counts.dtype.kind == "i"
            assert int(counts.sum()) == sizes[n - 1]
            if n == 1:
                assert parents is None
            else:
                assert parents.shape == (sizes[n - 1],) and parents.dtype.kind == "i"


def exact_reference(level, w, target=None):
    """`words._exact` by its per-letter comprehension: every letter's group
    visited, only ``target``'s kept."""
    _, counts = level
    return fsum(fsum(w[stop - count:stop].tolist())
                for y, (count, stop) in enumerate(zip(counts.tolist(), counts.cumsum().tolist()))
                if count and (target is None or y == target))


class TestExactSums:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 6), st.floats(0.0, 3.0), st.integers(0, 10_000))
    def test_target_group_matches_the_comprehension(self, m_size, L, beta, seed):
        rng = np.random.default_rng(seed)
        model = build_model(random_matrix(rng, m_size), rng.uniform(1.5, 4.0, m_size))
        for level, w in _replay(model, _word_tree(model, L)[1], beta):
            for target in (None, *range(m_size)):
                assert _exact(level, w, target).hex() == exact_reference(level, w, target).hex()


class TestShellEnclosures:
    # The brackets decide the abscissa search: each must hold the exact
    # shell sum, be narrow enough to decide, and decide nothing when the
    # plain sum is zero.  Energies up to e^7 at beta up to 60 underflow
    # whole shells and leave others subnormal.
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 8), st.floats(0.0, 60.0), st.integers(0, 10_000))
    def test_bracket_holds_the_exact_sum(self, m_size, L, beta, seed):
        rng = np.random.default_rng(seed)
        model = build_model(random_matrix(rng, m_size), np.exp(rng.uniform(0.01, 7.0, m_size)))
        while _shell_counts(model, L, math.inf)[-1] > 20_000:
            L -= 1
        levels = list(_replay(model, _word_tree(model, L)[1], beta))
        assert len(levels) == L
        for n, (level, w) in enumerate(levels, start=1):
            value, (lo, hi) = _exact(level, w), _enclosure(w)
            assert lo <= value <= hi, (n, value, lo, hi)
            if value == 0.0:
                assert (lo, hi) == (0.0, math.inf)
            else:
                assert 0.0 < lo and hi - lo <= 1e-10 * hi, (n, value, lo, hi)
