from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from kmsphase import (
    QState,
    RootMeasure,
    beta_c,
    build_model,
    classify_ta,
    column_space,
    cooling,
    decompose,
    enumerate_words,
    evaluate,
    finite_type_state,
    ground_state,
    invariant_state_from_fixed_point,
    is_subinvariant,
    oa_beta_scan,
    omega_infinity_mass,
    partial_series,
    qstate_from_atoms,
)
from kmsphase.errors import (
    DivergentNormalizerError,
    NegativeDefectError,
    NotSubinvariantError,
    ZeroMeasureError,
)
from kmsphase import states
from kmsphase.partition import class_roots, restricted_fixed_pairs, z_gamma
from kmsphase.states import FINITE, GAP_TOL_DEFAULT, TypeTag

from conftest import (
    coexistence_models,
    full_model,
    golden_mean_model,
    random_duplicate_columns_model,
    random_irreducible,
)

PHI = (1 + math.sqrt(5)) / 2


def critical_state(model):
    rep = beta_c(model)
    return rep.beta_c, invariant_state_from_fixed_point(
        model, rep.beta_c, rep.perron_at_critical
    )


class TestFiniteTypeState:
    def test_full_matrix_worked_values(self):
        m = full_model(2)
        space = column_space(m)
        st = finite_type_state(m, 2.0, RootMeasure.delta(space, 0))
        assert st.atom_masses == pytest.approx((1.0,))
        assert st.q_values == pytest.approx((1.0, 1.0))
        assert st.type_tag.kind == "finite"

    def test_scale_invariance(self, rng):
        m = random_irreducible(rng, 4, energy_range=(1.5, 3.0))
        space = column_space(m)
        beta = beta_c(m).beta_c + 0.8
        w = rng.uniform(0.1, 1.0, space.d)
        a = finite_type_state(m, beta, RootMeasure(tuple(w)))
        b = finite_type_state(m, beta, RootMeasure(tuple(17.5 * w)))
        assert a.atom_masses == pytest.approx(b.atom_masses, rel=1e-12)

    def test_zero_measure_rejected(self):
        m = full_model(2)
        with pytest.raises(ZeroMeasureError):
            finite_type_state(m, 2.0, RootMeasure((0.0,)))

    def test_divergent_normalizer_rejected(self):
        m = golden_mean_model()
        space = column_space(m)
        with pytest.raises(DivergentNormalizerError):
            finite_type_state(m, 0.2, RootMeasure.delta(space, 0))

    def test_reducible_block_state_in_partial_regime(self):
        # a root measure on the subcritical block of a reducible matrix
        # still generates a valid finite-type state
        a = np.zeros((5, 5), dtype=int)
        a[:2, :2] = 1
        a[2:, 2:] = 1
        from kmsphase import build_model

        m = build_model(a, [math.e] * 5)
        space = column_space(m)
        small = space.points.index((1, 1, 0, 0, 0))
        beta = 0.5 * (math.log(2) + math.log(3))
        st = finite_type_state(m, beta, RootMeasure.delta(space, small))
        assert sum(st.atom_masses) == pytest.approx(1.0, abs=1e-12)
        assert st.atom_masses[space.points.index((0, 0, 1, 1, 1))] == 0.0
        assert is_subinvariant(m, beta, st).subinvariant
        with pytest.raises(DivergentNormalizerError):
            finite_type_state(
                m, beta, RootMeasure.delta(space, space.points.index((0, 0, 1, 1, 1)))
            )

    @pytest.mark.parametrize("m,k", [(5, 2), (6, 3), (8, 3), (9, 5)])
    def test_atoms_bitwise_equal_to_generator_loop(self, m, k, rng):
        # the atoms as once summed: one generator at a time, in index order
        model = random_duplicate_columns_model(rng, m, k)
        space = column_space(model)
        beta = beta_c(model).beta_c + 0.6
        for _ in range(5):
            gamma = RootMeasure(tuple(rng.uniform(0.0, 1.0, space.d)))
            mass = gamma.mass_per_generator(space)
            needed = np.flatnonzero(mass > 0)
            _, z_ax = restricted_fixed_pairs(model, beta, needed)
            w_first = z_ax @ mass[needed]
            atoms = np.asarray(gamma.weights, dtype=float).copy()
            for a, c in enumerate(space.column_of):
                atoms[c] += w_first[a]
            atoms /= gamma.total + float(z_ax.sum(axis=0) @ mass[needed])
            st = finite_type_state(model, beta, gamma)
            assert [x.hex() for x in st.atom_masses] == [float(x).hex() for x in atoms]

    def test_q_values_match_direct_stem_sum(self, rng):
        for _ in range(4):
            m = random_irreducible(rng, 4, max_row_ones=2, energy_range=(1.6, 3.5))
            space = column_space(m)
            beta = beta_c(m).beta_c + 0.9
            w = rng.uniform(0.05, 1.0, space.d)
            gamma = RootMeasure(tuple(w))
            st = finite_type_state(m, beta, gamma)

            bits = space.bit_matrix()
            mass_per_gen = bits.T @ w
            z = float(w.sum())
            L = 14
            direct_q = mass_per_gen.copy()
            for n in range(1, L + 1):
                for word in enumerate_words(m, n):
                    contrib = word.weight(beta) * mass_per_gen[word.letters[-1]]
                    z += contrib
                    for y in range(m.m):
                        if m.matrix[y, word.letters[0]]:
                            direct_q[y] += contrib
            tail = (evaluate(m, beta).z_total - partial_series(m, beta, L)) * max(
                mass_per_gen.max(), 1.0
            )
            for y in range(m.m):
                # normalize with the truncated z too, so both errors are tail-sized
                assert abs(st.q_values[y] - direct_q[y] / z) <= 2 * tail + 1e-10

    def test_mass_identity_via_enumeration(self, rng):
        m = random_irreducible(rng, 3, max_row_ones=2, energy_range=(1.8, 3.5))
        space = column_space(m)
        beta = beta_c(m).beta_c + 1.0
        w = rng.uniform(0.1, 1.0, space.d)
        from kmsphase import z_gamma

        z = z_gamma(m, beta, w, space=space)
        bits = space.bit_matrix()
        mass_per_gen = bits.T @ w
        total = float(w.sum())
        for n in range(1, 18):
            for word in enumerate_words(m, n):
                total += word.weight(beta) * mass_per_gen[word.letters[-1]]
        assert total / z == pytest.approx(1.0, abs=1e-4)
        assert total <= z + 1e-12


class TestNonFiniteInputs:
    @pytest.mark.parametrize("weights", [(math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf)])
    def test_root_measure_rejects_non_finite_weights(self, weights):
        with pytest.raises(ValueError, match="finite"):
            RootMeasure(weights)

    def test_root_measure_still_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RootMeasure((1.0, -0.5))

    @pytest.mark.parametrize("atoms", [[math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf]])
    def test_qstate_rejects_non_finite_atoms(self, atoms):
        with pytest.raises(ValueError, match="finite"):
            qstate_from_atoms(column_space(golden_mean_model()), 1.0, atoms, FINITE)

    def test_qstate_rejects_nan_beta(self):
        # and every other beta that is not positive or +inf
        for beta in (math.nan, 0.0, -0.0, -1.0, -math.inf):
            with pytest.raises(ValueError, match="beta must be positive or \\+inf"):
                qstate_from_atoms(column_space(golden_mean_model()), beta, [0.5, 0.5], FINITE)


class TestGroundState:
    def test_point_mass(self):
        m = golden_mean_model()
        space = column_space(m)
        st = ground_state(m, RootMeasure.delta(space, 1))
        assert st.atom_masses == pytest.approx((0.0, 1.0))
        assert math.isinf(st.beta)

    def test_uniform_bit_averages(self):
        m = golden_mean_model()
        space = column_space(m)
        st = ground_state(m, RootMeasure.uniform(space))
        # points (0,1) and (1,1): generator 0 appears in one, generator 1 in both
        assert st.q_values == pytest.approx((0.5, 1.0))

    def test_normalization(self, rng):
        m = random_irreducible(rng, 5)
        space = column_space(m)
        w = rng.uniform(0.0, 2.0, space.d) + 0.01
        st = ground_state(m, RootMeasure(tuple(w)))
        assert sum(st.atom_masses) == pytest.approx(1.0, abs=1e-12)


class TestOmegaInfinityMass:
    def test_finite_type_state_decays_geometrically(self):
        m = full_model(2)
        space = column_space(m)
        st = finite_type_state(m, 2.0, RootMeasure.delta(space, 0))
        seq = omega_infinity_mass(m, 2.0, st, 12)
        r = evaluate(m, 2.0).spectral_radius
        assert all(s2 <= s1 + 1e-15 for s1, s2 in zip(seq, seq[1:]))
        assert seq[-1] <= r ** 12 * 4

    def test_critical_state_keeps_full_mass(self):
        m = full_model(2)
        bc, st = critical_state(m)
        seq = omega_infinity_mass(m, bc, st, 10)
        assert seq == pytest.approx([1.0] * 10, abs=1e-9)

    def test_ground_state_vanishes(self):
        m = golden_mean_model()
        space = column_space(m)
        st = ground_state(m, RootMeasure.uniform(space))
        assert omega_infinity_mass(m, math.inf, st, 5) == [0.0] * 5


class TestDecompose:
    def test_finite_type_recovers_normalized_root_measure(self):
        m = full_model(2)
        space = column_space(m)
        st = finite_type_state(m, 2.0, RootMeasure.delta(space, 0))
        dec = decompose(m, 2.0, st)
        assert dec.finite_fraction == pytest.approx(1.0, abs=1e-12)
        assert dec.gamma_finite.weights == pytest.approx((0.5,), abs=1e-12)
        assert dec.infinite_part is None
        assert dec.reconstruction_residual <= 1e-12

    def test_critical_state_is_pure_infinite(self):
        m = full_model(2)
        bc, st = critical_state(m)
        dec = decompose(m, bc, st)
        assert dec.finite_fraction == pytest.approx(0.0, abs=1e-9)
        assert dec.infinite_part is not None
        assert dec.infinite_part.q_values == pytest.approx(st.q_values, abs=1e-9)
        assert dec.fixed_point_residual <= 1e-9

    def test_ground_state_defect_is_everything(self):
        m = golden_mean_model()
        space = column_space(m)
        st = ground_state(m, RootMeasure.uniform(space))
        dec = decompose(m, math.inf, st)
        assert dec.finite_fraction == pytest.approx(1.0, abs=1e-12)
        assert dec.gamma_finite.weights == pytest.approx(st.atom_masses)

    def test_round_trip_on_random_finite_states(self, rng):
        for _ in range(6):
            m = random_irreducible(rng, 5, energy_range=(1.5, 4.0))
            space = column_space(m)
            beta = beta_c(m).beta_c + float(rng.uniform(0.3, 1.5))
            w = rng.uniform(0.05, 1.0, space.d)
            st = finite_type_state(m, beta, RootMeasure(tuple(w)))
            dec = decompose(m, beta, st)
            # recovered measure is the input normalized by its Z
            from kmsphase import z_gamma

            z = z_gamma(m, beta, w, space=space)
            assert dec.gamma_finite.weights == pytest.approx(tuple(w / z), rel=1e-8)
            rebuilt = finite_type_state(m, beta, dec.gamma_finite)
            assert rebuilt.atom_masses == pytest.approx(st.atom_masses, abs=1e-9)
            assert dec.reconstruction_residual <= 1e-9

    @pytest.mark.parametrize("model_index", [0, 1])
    def test_mixture_fraction_at_coexistence(self, model_index):
        # At ln(phi) the golden block is critical and the full 2 x 2 block
        # subcritical: the global beta_c for model 0, below it for model 1.
        # Eigen-gap noise on the golden atoms must not enter the finite part:
        # the golden block's normalizer (about 1e11 there) would amplify it.
        m = coexistence_models()[model_index]
        space = column_space(m)
        simplex = next(s for s in oa_beta_scan(m).simplices
                       if abs(s.beta - math.log(PHI)) < 1e-8)
        beta = simplex.beta
        fin = finite_type_state(m, beta, RootMeasure.delta(space, space.column_of[2]))
        inv = invariant_state_from_fixed_point(m, beta, simplex.extreme_vectors[0])
        for t in (0.25, 0.3, 0.5, 0.75):
            mixture = qstate_from_atoms(space, beta, t * fin.atoms + (1 - t) * inv.atoms,
                                        TypeTag.mixed(t))
            dec = decompose(m, beta, mixture)
            assert dec.finite_fraction == pytest.approx(t, abs=1e-8)
            assert dec.infinite_part.atom_masses == pytest.approx(inv.atom_masses, abs=1e-9)
            assert dec.reconstruction_residual <= 1e-9

    def test_rejects_non_subinvariant_input(self):
        m = golden_mean_model()
        bc, st = critical_state(m)
        with pytest.raises(NegativeDefectError):
            decompose(m, 0.6 * bc, st)

    def test_every_constructed_state_is_subinvariant(self, rng):
        m = random_irreducible(rng, 4, energy_range=(1.5, 3.0))
        space = column_space(m)
        bc = beta_c(m).beta_c
        beta = bc + 0.5
        for c in range(space.d):
            st = finite_type_state(m, beta, RootMeasure.delta(space, c))
            verdict = is_subinvariant(m, beta, st)
            assert verdict.subinvariant and not verdict.invariant
        _, crit = critical_state(m)
        v = is_subinvariant(m, bc, crit)
        assert v.subinvariant and v.invariant


class TestCooling:
    def test_full_matrix_cooling_bound(self):
        m = full_model(2)
        bc, st = critical_state(m)          # bc = 1
        cooled = cooling(m, bc, st, 2.0)
        assert cooled.type_tag.kind == "finite"
        seq = omega_infinity_mass(m, 2.0, cooled, 15)
        for n, s in enumerate(seq, start=1):
            assert s <= 2.0 ** (-n) * (1 + 1e-9)

    def test_identity_at_equal_temperature(self):
        m = full_model(2)
        bc, st = critical_state(m)
        with pytest.warns(UserWarning):
            out = cooling(m, bc, st, bc)
        assert out is st

    def test_golden_mean_cooled_state_has_positive_defect(self):
        m = golden_mean_model()
        bc, st = critical_state(m)
        cooled = cooling(m, bc, st, bc + 0.5)
        dec = decompose(m, bc + 0.5, cooled)
        assert dec.finite_fraction == pytest.approx(1.0, abs=1e-9)
        assert max(dec.gamma_finite.weights) > 0

    def test_preserves_restriction_data(self, rng):
        m = random_irreducible(rng, 4, energy_range=(1.5, 3.0))
        bc, st = critical_state(m)
        cooled = cooling(m, bc, st, bc + 0.7)
        assert cooled.atom_masses == pytest.approx(st.atom_masses, abs=1e-9)
        assert cooled.q_values == pytest.approx(st.q_values, abs=1e-9)

    def test_cooling_to_ground_temperature_is_the_ground_state(self):
        m = golden_mean_model()
        bc, st = critical_state(m)
        cooled = cooling(m, bc, st, math.inf)
        assert cooled == ground_state(m, RootMeasure(st.atom_masses))
        # the critical atoms sum to 1 up to one ulp, so normalizing them for the
        # ground state moves each by at most one ulp (bit equality held only for
        # a total of exactly 1.0)
        total = RootMeasure(st.atom_masses).total
        assert math.nextafter(1.0, 0.0) <= total <= math.nextafter(1.0, 2.0)
        np.testing.assert_array_max_ulp(np.array(cooled.atom_masses), np.array(st.atom_masses), 1)

    def test_rejects_non_subinvariant_input(self):
        m = golden_mean_model()
        bc, st = critical_state(m)
        lowered = QState(
            beta=0.3, atom_masses=st.atom_masses, q_values=st.q_values, type_tag=FINITE
        )
        with pytest.raises(NotSubinvariantError):
            cooling(m, 0.3, lowered, bc)

    def test_discarded_infinite_part_is_not_built(self, monkeypatch):
        # the split at beta' has finite fraction 0.9999999984763871: within
        # cooling's 1e-6 of 1, but below 1 - DEFECT_TOL, so decompose also
        # builds the infinite part, and its remainder normalizes to no state
        m = build_model([[1, 1], [1, 1]], [4.2155573671777535, 4.998304982600301])
        bc, beta_prime = 0.4553319722123045, 0.45533201774550175
        st = classify_ta(m, bc).unique_state
        with pytest.raises(NotSubinvariantError, match="no infinite part"):
            decompose(m, beta_prime, st)

        def refuse(*args):
            raise AssertionError("cooling called decompose")

        monkeypatch.setattr(states, "decompose", refuse)
        cooled = cooling(m, bc, st, beta_prime)
        assert cooled.type_tag == FINITE and cooled.beta == beta_prime
        assert cooled.atom_masses == pytest.approx((1.0,), abs=1e-15)


class TestOneSubinvarianceRule:
    """``decompose`` and ``cooling`` accept exactly the states that
    ``is_subinvariant`` accepts: one gap vector, one tolerance."""

    def test_band_state_rejected_everywhere(self):
        # its gap of -5.0e-10 lies between -1e-9 and -GAP_TOL_DEFAULT
        m = build_model([[1, 1], [1, 0]], [2, 3])
        state = qstate_from_atoms(column_space(m), 2.0, [0.7500000005000002, 0.2499999995],
                                  FINITE)
        verdict = is_subinvariant(m, 2.0, state)
        assert not verdict.subinvariant
        assert -1e-9 < min(verdict.atom_gaps) < -GAP_TOL_DEFAULT
        with pytest.raises(NegativeDefectError):
            decompose(m, 2.0, state)
        with pytest.raises(NotSubinvariantError):
            cooling(m, 2.0, state, 2.5)

    def test_noise_remainder_is_no_infinite_part(self):
        # an extreme state above beta_c with its atoms moved by about 1e-9:
        # its gaps pass the rule, but its finite fraction falls below
        # 1 - DEFECT_TOL, and the remainder, that noise over 1 - fraction,
        # normalizes to no state
        m = build_model([[1, 1, 1], [1, 0, 0], [1, 0, 0]],
                        [3.7818889431943044, 3.0165894394179498, 3.323741402459996])
        beta = 1.134974754365027
        state = qstate_from_atoms(column_space(m), beta, [0.779039251911502, 0.22096074685807082],
                                  FINITE, atol=1e-8)
        assert is_subinvariant(m, beta, state).subinvariant
        with pytest.raises(NotSubinvariantError, match="no infinite part"):
            decompose(m, beta, state)

    @settings(max_examples=80, deadline=None)
    @given(hst.integers(2, 5), hst.integers(0, 10_000), hst.booleans(), hst.data())
    def test_verdict_matches_decompose_near_extreme_states(self, m_size, seed, critical, data):
        # an extreme state, critical or above beta_c, with each atom moved by
        # at most 2e-9: its gaps fall on both sides of -GAP_TOL_DEFAULT
        rng = np.random.default_rng(seed)
        m = random_irreducible(rng, m_size, non_permutation=True, energy_range=(1.5, 4.0))
        space = column_space(m)
        if critical:
            beta, base = critical_state(m)
        else:
            beta = beta_c(m).beta_c + float(rng.uniform(0.1, 1.0))
            extremes = classify_ta(m, beta).extreme_states
            base = extremes[data.draw(hst.integers(0, len(extremes) - 1))]
        moves = data.draw(hst.lists(hst.floats(-2e-9, 2e-9), min_size=space.d,
                                    max_size=space.d))
        state = qstate_from_atoms(space, beta, base.atoms + np.array(moves), FINITE, atol=1e-8)
        accepted = is_subinvariant(m, beta, state).subinvariant
        try:
            decompose(m, beta, state)
        except NegativeDefectError:
            assert not accepted
        except NotSubinvariantError:
            # a divergent or too large finite fraction: not the gap rule
            assert accepted
        else:
            assert accepted


class TestQuotientTemperatureNormalizers:
    """At a quotient temperature the critical block's series diverge: the
    reported root lies inside its block's certified enclosure, where no
    restricted series counts as convergent."""

    def test_critical_block_deltas_diverge(self):
        seen = 0
        for model in coexistence_models():
            space = column_space(model)
            _, labels = model.strong_components
            roots = class_roots(model)
            for simplex in oa_beta_scan(model).simplices:
                beta = simplex.beta
                critical = {c for c, root in enumerate(roots)
                            if root.beta is not None and root.lo <= beta <= root.hi}
                assert critical
                for point in range(space.d):
                    z = z_gamma(model, beta, [float(c == point) for c in range(space.d)], space=space)
                    assert z > 0.0
                    members = [x for x, bit in enumerate(space.points[point]) if bit]
                    if {int(labels[x]) for x in members} <= critical:
                        seen += 1
                        assert math.isinf(z)
                        with pytest.raises(DivergentNormalizerError):
                            finite_type_state(model, beta, RootMeasure.delta(space, point))
        assert seen
