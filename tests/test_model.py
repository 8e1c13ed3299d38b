from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmsphase import a_xyz, build_model, column_space, properties
from kmsphase.errors import DimensionMismatchError, EnergyNotAboveOneError, ZeroRowError
from kmsphase.model import v_xy_points

from conftest import coexistence_models, full_model, golden_mean_model, random_matrix


class TestBuildModel:
    def test_full_matrix_valid(self):
        m = build_model([[1, 1], [1, 1]], [2.0, 2.0])
        assert m.m == 2
        assert m.energies.tolist() == [2.0, 2.0]

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroRowError) as err:
            build_model([[0, 0], [1, 1]], [2.0, 2.0])
        assert err.value.row == 0

    def test_energy_boundary_rejected(self):
        with pytest.raises(EnergyNotAboveOneError) as err:
            build_model([[1, 1], [1, 1]], [2.0, 1.0])
        assert err.value.index == 1
        with pytest.raises(EnergyNotAboveOneError, match="finite and strictly greater than 1") as err:
            build_model([[1, 1], [1, 0]], [math.inf, 2.0])
        assert err.value.index == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            build_model([[1, 1], [1, 1]], [2.0])
        with pytest.raises(DimensionMismatchError):
            build_model([[1, 1, 1], [1, 1, 1]], [2.0, 2.0])

    def test_non_binary_entries_rejected(self):
        with pytest.raises(DimensionMismatchError):
            build_model([[2, 0], [1, 1]], [2.0, 2.0])


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


def _mutual(a, m):
    """Strong connectivity by explicit path search."""
    adj = a.astype(bool)
    reach = np.eye(m, dtype=bool) | adj
    for _ in range(m):
        reach = reach | (reach @ adj)
    return bool(reach.all())


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
