from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from kmsphase import a_xyz, build_model, column_space, properties
from kmsphase.errors import DimensionMismatchError, EnergyNotAboveOneError, ZeroRowError
from kmsphase import model as model_mod
from kmsphase.model import _strong_components, _tarjan, v_xy_points
from kmsphase.partition import transfer_matrix
from kmsphase.star import build_star, truncated_model

from conftest import (
    coexistence_models,
    full_model,
    golden_mean_model,
    random_irreducible,
    random_matrix,
)


class TestBuildModel:
    def test_full_matrix_valid(self):
        m = build_model([[1, 1], [1, 1]], [2.0, 2.0])
        assert m.m == 2
        assert m.energies.tolist() == [2.0, 2.0]

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroRowError) as err:
            build_model([[0, 0], [1, 1]], [2.0, 2.0])
        assert err.value.row == 0
        # Two zero rows: the first is reported, before any energy is checked.
        with pytest.raises(ZeroRowError) as err:
            build_model([[1, 0, 0], [0, 0, 0], [0, 0, 0]], [0.5] * 3)
        assert err.value.row == 1

    def test_energy_boundary_rejected(self):
        with pytest.raises(EnergyNotAboveOneError) as err:
            build_model([[1, 1], [1, 1]], [2.0, 1.0])
        assert err.value.index == 1
        with pytest.raises(EnergyNotAboveOneError, match="finite and strictly greater than 1") as err:
            build_model([[1, 1], [1, 0]], [math.inf, 2.0])
        assert err.value.index == 0
        # Two bad energies: the first is reported.
        with pytest.raises(EnergyNotAboveOneError) as err:
            build_model(np.ones((3, 3), dtype=int), [2.0, math.nan, 0.5])
        assert err.value.index == 1 and math.isnan(err.value.value)
        with pytest.raises(EnergyNotAboveOneError) as err:
            build_model(np.ones((3, 3), dtype=int), [2.0, 1.0, -math.inf])
        assert (err.value.index, err.value.value) == (1, 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            build_model([[1, 1], [1, 1]], [2.0])
        with pytest.raises(DimensionMismatchError):
            build_model([[1, 1, 1], [1, 1, 1]], [2.0, 2.0])

    def test_non_binary_entries_rejected(self):
        with pytest.raises(DimensionMismatchError):
            build_model([[2, 0], [1, 1]], [2.0, 2.0])
        # complex and string arrays are rejected by dtype, even where they equal 0 or 1
        for a in (np.array([[1, 0], [1, 1]], dtype=complex), np.array([["1", "0"], ["1", "1"]])):
            with pytest.raises(DimensionMismatchError, match="must be 0 or 1"):
                build_model(a, [2.0, 2.0])

    def test_object_and_unsigned_entries_accepted(self):
        want = build_model([[1, 0], [1, 1]], [2.0, 2.0]).matrix
        for a in (np.array([[1, 0], [1, 1]], dtype=object), np.array([[1, 0], [1, 1]], np.uint8)):
            got = build_model(a, [2.0, 2.0]).matrix
            assert got.dtype == np.int8 and np.array_equal(got, want)


class TestProperties:
    def test_two_cycle_irreducible(self):
        m = build_model([[0, 1], [1, 0]], [2.0, 2.0])
        assert properties(m).irreducible

    def test_upper_triangular_reducible(self):
        m = build_model([[1, 1], [0, 1]], [2.0, 2.0])
        assert not properties(m).irreducible

    def test_columns_read_off(self):
        m = build_model([[1, 0], [1, 1]], [2.0, 2.0])
        rep = properties(m)
        assert rep.no_zero_column
        space = column_space(m)
        assert set(space.points) == {(1, 1), (0, 1)}

    def test_finite_target_set_covers_every_row(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = build_model(random_matrix(rng, 5), [2.0] * 5)
            fts = properties(m).finite_target_set
            assert all(m.matrix[x, list(fts)].any() for x in range(m.m))

    def test_ta_never_equals_oa_for_finite_alphabet(self):
        assert not properties(full_model(3)).ta_equals_oa

    def test_irreducible_implies_no_zero_column(self):
        rng = np.random.default_rng(23)
        seen = 0
        for _ in range(60):
            mm = int(rng.integers(2, 7))
            m = build_model(random_matrix(rng, mm), [2.0] * mm)
            rep = properties(m)
            if rep.irreducible:
                seen += 1
                assert rep.no_zero_column
        assert seen > 0

    def test_irreducibility_matches_bruteforce_reachability(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            mm = int(rng.integers(1, 9))
            a = random_matrix(rng, mm)
            model = build_model(a, [2.0] * mm)
            # reachability through paths of length < m
            reach = np.eye(mm, dtype=bool)
            step = a.astype(bool)
            acc = step.copy()
            for _ in range(mm - 1):
                reach |= acc
                acc = acc @ step
            brute = bool((reach | np.eye(mm, dtype=bool)).all()) and bool(
                _mutual(a, mm)
            )
            assert properties(model).irreducible == brute

    def test_strong_components_cached_read_only_and_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            mm = int(rng.integers(1, 9))
            a = random_matrix(rng, mm)
            model = build_model(a, [2.0] * mm)
            ncomp, labels = model.strong_components
            assert model.strong_components is model.strong_components
            assert not labels.flags.writeable
            assert properties(model).irreducible == (ncomp == 1)
            adj = a.astype(bool)
            reach = np.eye(mm, dtype=bool) | adj
            for _ in range(mm):
                reach = reach | (reach @ adj)
            assert np.array_equal(labels[:, None] == labels[None, :], reach & reach.T)
            assert len(set(labels.tolist())) == ncomp
            assert set(labels.tolist()) == set(range(ncomp))
            assert _same_partition((ncomp, labels), _scipy_components(a))


def _mutual(a, m):
    """Strong connectivity by explicit path search."""
    adj = a.astype(bool)
    reach = np.eye(m, dtype=bool) | adj
    for _ in range(m):
        reach = reach | (reach @ adj)
    return bool(reach.all())


def _scipy_components(a):
    return connected_components(np.asarray(a), directed=True, connection="strong")


def _same_partition(got, want):
    """Same number of classes and the same partition; the numbering may differ."""
    (n1, l1), (n2, l2) = got, want
    return n1 == n2 and np.array_equal(l1[:, None] == l1[None, :], l2[:, None] == l2[None, :])


def _graphs(rng, m):
    """Random digraphs on m vertices of several shapes; rows may be zero."""
    for p in (0.02, 0.1, 0.3, 0.7):
        yield (rng.random((m, m)) < p).astype(np.int8)     # self-loops included
    perm = rng.permutation(m)
    yield np.triu(rng.random((m, m)) < 0.3, k=1)[np.ix_(perm, perm)].astype(np.int8)   # a DAG
    # Up to five parts: disjoint cycles on a shuffled split, then random
    # diagonal blocks on consecutive ranges, linked only to later blocks.
    cuts = np.sort(rng.choice(np.arange(1, m), size=int(rng.integers(0, min(m, 5))), replace=False))
    cycles = np.zeros((m, m), dtype=np.int8)
    for cyc in np.split(rng.permutation(m), cuts):
        cycles[cyc, np.roll(cyc, 1)] = 1
    yield cycles
    blocks = (rng.random((m, m)) < 0.05).astype(np.int8)
    for lo, hi in zip(np.concatenate([[0], cuts]), np.concatenate([cuts, [m]])):
        blocks[lo:, lo:hi] = 0
        blocks[lo:hi, lo:hi] = random_matrix(rng, hi - lo)
    yield blocks


def _assert_same_as_tarjan(a):
    ncomp, labels = _strong_components(a)
    want_ncomp, want_labels = _tarjan(a)
    assert ncomp == want_ncomp
    assert labels.dtype == want_labels.dtype == np.intp
    assert np.array_equal(labels, want_labels)
    return ncomp


class TestStrongComponents:
    def test_partition_matches_scipy(self):
        rng = np.random.default_rng(2024)
        single = set()
        for m in range(1, 61):
            for a in _graphs(rng, m):
                ncomp, labels = _strong_components(a)
                assert _same_partition((ncomp, labels), _scipy_components(a))
                # Labels count the classes as they close, sinks first, so no
                # edge leads to a class of higher label.
                x, y = np.nonzero(a)
                assert (labels[x] >= labels[y]).all()
                # the reachability sweeps answer exactly what the search answers
                single.add(_assert_same_as_tarjan(a) == 1)
        assert single == {True, False}

    def test_long_cycle_and_chain(self):
        # 3000 steps deep: a recursive search would exceed Python's recursion limit.
        m = 3000
        cycle = build_model(np.roll(np.eye(m, dtype=int), 1, axis=1), [2.0] * m)
        ncomp, labels = cycle.strong_components
        assert ncomp == 1 and not labels.any()
        chain = np.eye(m, k=1, dtype=int)
        chain[-1, -1] = 1
        ncomp, labels = build_model(chain, [2.0] * m).strong_components
        assert ncomp == m
        assert np.array_equal(labels, np.arange(m)[::-1])


class TestReachabilityFastPath:
    """The forward-backward sweeps answer exactly what Tarjan's search answers."""

    def test_random_irreducible_models(self):
        rng = np.random.default_rng(16)
        for m in (2, 5, 17, 64, 150, 400):
            assert _assert_same_as_tarjan(random_irreducible(rng, m).matrix) == 1
            # sparse: about two edges per row, made irreducible by a random
            # cycle through every letter, so the sweeps run deep
            sparse = rng.random((m, m)) < 2 / m
            cycle = rng.permutation(m)
            sparse[cycle, np.roll(cycle, 1)] = True
            assert _assert_same_as_tarjan(sparse.astype(np.int8)) == 1

    def test_star_truncations_and_long_cycle(self):
        star = build_star()
        for K in (32, 128, 256):
            assert _assert_same_as_tarjan(truncated_model(star, K).matrix) == 1
        assert _assert_same_as_tarjan(np.roll(np.eye(3000, dtype=np.int8), 1, axis=1)) == 1

    def test_underflowed_transfer_matrix(self):
        # N(1)^-2 = 1e-600 underflows to 0: column 1 of M vanishes, so its
        # support is reducible although the model is irreducible.
        model = build_model([[1, 1], [1, 1]], [2.0, 1e300])
        entries = transfer_matrix(model, 2.0).entries
        assert entries.dtype == float and not entries[:, 1].any()
        assert model.strong_components[0] == 1
        assert _assert_same_as_tarjan(entries) == 2

    def test_search_runs_only_when_the_sweeps_fail(self, monkeypatch):
        calls = []

        def counting(matrix):
            calls.append(matrix.shape[0])
            return _tarjan(matrix)

        monkeypatch.setattr(model_mod, "_tarjan", counting)
        for a in (np.ones((1, 1)), np.roll(np.eye(50), 1, axis=1),
                  random_irreducible(np.random.default_rng(3), 40).matrix):
            assert _strong_components(a)[0] == 1
        assert calls == []
        # 0 reaches every letter along a chain, and only letter 1 leads back
        # to it: the forward sweep passes, the backward one does not.
        chain = np.eye(6, k=1)
        chain[1, 0] = chain[-1, -1] = 1
        ncomp, labels = _strong_components(chain)
        assert calls == [6]
        assert ncomp == 5 and np.array_equal(labels, _tarjan(chain)[1])


class TestColumnSpace:
    @pytest.mark.parametrize(
        "matrix,d",
        [
            ([[1, 1], [1, 1]], 1),
            ([[0, 1], [1, 1]], 2),
            (np.ones((3, 3), dtype=int), 1),
        ],
    )
    def test_distinct_column_counts(self, matrix, d):
        space = column_space(build_model(matrix, [2.0] * len(matrix)))
        assert space.d == d

    def test_column_of_is_total_and_consistent(self):
        m = golden_mean_model()
        space = column_space(m)
        for z in range(m.m):
            expected = tuple(int(b) for b in m.matrix[:, z])
            assert space.points[space.column_of[z]] == expected

    def test_matches_tuple_construction(self):
        """The reference is the set of column tuples, sorted; zero columns included."""
        rng = np.random.default_rng(31)
        for _ in range(300):
            mm = int(rng.integers(1, 25))
            a = (rng.random((mm, mm)) < rng.uniform(0.05, 0.95)).astype(int)
            a[np.arange(mm), rng.integers(0, mm, size=mm)] = 1         # no zero row
            space = column_space(build_model(a, [2.0] * mm))
            cols = [tuple(int(b) for b in a[:, z]) for z in range(mm)]
            points = tuple(sorted(set(cols)))
            assert space.points == points
            assert space.column_of == tuple(points.index(c) for c in cols)
            assert space.d == len(points)
            assert space.contains_zero == ((0,) * mm in points)
            assert all(type(b) is int for p in space.points for b in p)
            assert all(type(c) is int for c in space.column_of)

    def test_structure_built_once_per_model(self):
        m = golden_mean_model()
        assert column_space(m) is column_space(m)
        assert properties(m) is properties(m)
        # Equal arrays, another model: its own structure.
        twin = golden_mean_model()
        assert column_space(twin) is not column_space(m)
        assert column_space(twin) == column_space(m)

    def test_bit_matrix_shared_and_read_only(self):
        space = column_space(golden_mean_model())
        bits = space.bit_matrix()
        assert bits is space.bit_matrix()
        assert np.array_equal(bits, np.array(space.points, dtype=float))
        assert not bits.flags.writeable
        with pytest.raises(ValueError):
            bits[0, 0] = 1.0

    def test_push_matches_generator_loop_bitwise(self, rng):
        models = list(coexistence_models()) + [
            build_model(random_matrix(rng, mm), rng.uniform(1.5, 4.0, size=mm))
            for mm in (3, 9, 40)
        ]
        # One column shared by many generators: a long sum, where any other
        # summation order would show in the last bits.
        models.append(build_model(np.ones((64, 64), dtype=int), rng.uniform(1.5, 4.0, size=64)))
        for model in models:
            space = column_space(model)
            scales = 10.0 ** rng.uniform(-6.0, 0.0, size=model.m)
            values = model.weights(0.7) * rng.uniform(0.0, 1.0, size=model.m) * scales
            expected = np.zeros(space.d)
            for z, c in enumerate(space.column_of):
                expected[c] += values[z]
            assert space.push(values).tobytes() == expected.tobytes()

    def test_weights(self):
        m = build_model([[0, 1], [1, 1]], [2.0, 3.0])
        assert m.weights(2.0).tolist() == [0.25, 1.0 / 9.0]
        assert m.weights(math.inf).tolist() == [0.0, 0.0]

    def test_bounds_on_d(self, rng):
        for _ in range(20):
            mm = int(rng.integers(1, 7))
            model = build_model(random_matrix(rng, mm), [2.0] * mm)
            space = column_space(model)
            assert 1 <= space.d <= mm


class TestAXYZ:
    def test_singleton_and_empty(self):
        m = golden_mean_model()
        assert a_xyz(m, [0], [], 1) == int(m.matrix[0, 1])
        assert a_xyz(m, [], [], 0) == 1

    def test_worked_product(self):
        m = build_model([[0, 1], [1, 1]], [2.0, 2.0])
        # A(0,0) (1 - A(1,0)) = 0 * 0 = 0
        assert a_xyz(m, [0], [1], 0) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_product_formula_matches_membership(self, m_size, data):
        rng = np.random.default_rng(m_size * 997)
        a = random_matrix(rng, m_size)
        model = build_model(a, [2.0] * m_size)
        space = column_space(model)
        xs = data.draw(st.sets(st.integers(0, m_size - 1), max_size=m_size))
        ys = data.draw(st.sets(st.integers(0, m_size - 1), max_size=m_size))
        z = data.draw(st.integers(0, m_size - 1))
        members = v_xy_points(space, xs, ys)
        assert a_xyz(model, xs, ys, z) == int(space.column_of[z] in members)

    def test_membership_exhaustive_small(self):
        m = golden_mean_model()
        space = column_space(m)
        gens = range(m.m)
        for r in range(m.m + 1):
            for xs in itertools.combinations(gens, r):
                for s in range(m.m + 1):
                    for ys in itertools.combinations(gens, s):
                        members = v_xy_points(space, xs, ys)
                        for z in gens:
                            assert a_xyz(m, xs, ys, z) == int(space.column_of[z] in members)
