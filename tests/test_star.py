from __future__ import annotations

import math

import numpy as np
import pytest

from kmsphase import (
    beta_c,
    build_star,
    column_space,
    evaluate,
    star_kms_at_critical,
    star_partition,
    star_z0,
    truncated_model,
)
from kmsphase.errors import (
    BelowAbscissaError,
    ConditionDaggerFailsError,
    EnergyBelowTwoError,
)
from kmsphase import star as star_mod
from kmsphase.star import StarSystem, z0_truncation_bound, zeta_enclosure, zeta_value


@pytest.fixture(scope="module")
def default_star():
    return build_star("default", head_count=100_000)


class TestBuildStar:
    def test_auto_drop_is_minimal_and_certified(self, default_star):
        s = default_star
        assert s.drop == 1 and s.beta_bar == 1.0
        lo, hi = s.zeta_at_abscissa_bounds
        assert lo <= hi < 2.0 ** s.beta_bar
        assert hi - lo < 1e-6

    def test_auto_drop_builds_the_head_once(self, monkeypatch):
        sizes = []
        real = star_mod._default_term
        monkeypatch.setattr(star_mod, "_default_term",
                            lambda j: sizes.append(np.size(j)) or real(j))
        s = build_star("default", head_count=1000)
        assert s.drop == 1 and sizes.count(1000) == 1

    def test_drop_zero_fails_on_energy(self):
        with pytest.raises(EnergyBelowTwoError) as err:
            build_star("default", drop=0, head_count=1000)
        assert err.value.k == 1

    def test_geometric_user_list_fails_dagger(self):
        with pytest.raises(ConditionDaggerFailsError):
            build_star([4.0, 8.0, 16.0, 32.0], declared_abscissa=0.0)

    def test_user_list_below_two_rejected(self):
        with pytest.raises(EnergyBelowTwoError):
            build_star([4.0, 1.5], declared_abscissa=1.0)

    def test_user_list_echoed_unverified(self):
        s = build_star([8.0, 16.0, 32.0], declared_abscissa=2.0)
        assert s.kind == "user" and not s.abscissa_verified
        assert zeta_enclosure(s, 2.0)[0] == zeta_enclosure(s, 2.0)[1]


class TestZeta:
    def test_enclosure_is_ordered_and_tightens(self, default_star):
        small = build_star("default", head_count=1000)
        lo_s, hi_s = zeta_enclosure(small, 1.0)
        lo_b, hi_b = zeta_enclosure(default_star, 1.0)
        assert lo_s <= hi_s and lo_b <= hi_b
        assert hi_b - lo_b < hi_s - lo_s
        # enclosures for the same quantity must overlap
        assert lo_s <= hi_b and lo_b <= hi_s

    def test_below_abscissa_rejected(self, default_star):
        with pytest.raises(BelowAbscissaError):
            zeta_value(default_star, 0.9)


class TestStarZ0:
    def test_finite_at_abscissa(self, default_star):
        z0 = star_z0(default_star, 1.0)
        assert math.isfinite(z0) and z0 > 1.0

    def test_limit_at_high_beta_is_one(self, default_star):
        assert star_z0(default_star, 60.0) == pytest.approx(1.0, abs=1e-12)

    def test_divergent_branch(self):
        # bypass build validation: geometric ratio above 1 at the declared abscissa
        s = StarSystem(
            kind="user", drop=0, beta_bar=0.5, head=np.array([2.0, 2.0, 2.0]),
            n0_energy=2.0, first_omitted=None, abscissa_verified=False,
            zeta_at_abscissa_bounds=(0.0, 0.0),
        )
        assert math.isinf(star_z0(s, 0.6))

    def test_displayed_equals_fixed_target_plus_one(self, default_star):
        part = star_partition(default_star, 1.3)
        assert star_z0(default_star, 1.3) == pytest.approx(part.z0 + 1.0, rel=1e-14)


class TestStarPartition:
    def test_algebraic_identity(self, default_star):
        for beta in (1.0, 1.2, 2.0):
            part = star_partition(default_star, beta)
            assert part.z_total - 1.0 - part.z0 == pytest.approx(
                (1.0 + part.z0) * part.zeta, rel=1e-12
            )

    def test_truncation_oracle_improves_with_level(self, default_star):
        beta = 1.1
        closed = star_partition(default_star, beta).z0
        errors = []
        for K in (8, 32, 128):
            tm = truncated_model(default_star, K)
            rep = evaluate(tm, beta)
            z0_k = float(rep.z_y[0])
            errors.append(abs(closed - z0_k))
            assert abs(closed - z0_k) <= z0_truncation_bound(default_star, beta, K, z0_k)
        assert errors[0] > errors[1] > errors[2]

    def test_truncated_z_total_within_bound(self, default_star):
        from kmsphase.star import zeta_tail_after

        beta, K = 1.25, 128
        part = star_partition(default_star, beta)
        tm = truncated_model(default_star, K)
        rep = evaluate(tm, beta)
        assert rep.z_total <= part.z_total
        # total = (1 + z0)(1 + zeta): propagate the bound through both factors
        z0_k = float(rep.z_y[0])
        z0_bound = z0_truncation_bound(default_star, beta, K, z0_k)
        tail = zeta_tail_after(default_star, beta, K)
        total_bound = z0_bound * (1.0 + part.zeta) + (1.0 + part.z0) * tail
        assert part.z_total - rep.z_total <= total_bound


class TestTruncations:
    def test_critical_temperatures_increase_from_below(self, default_star):
        found = []
        for K in (8, 32, 128):
            tm = truncated_model(default_star, K)
            found.append(beta_c(tm).beta_c)
        assert found == sorted(found)
        assert all(b < default_star.beta_bar for b in found)

    def test_truncations_have_two_column_points(self, default_star):
        for K in (1, 8, 32):
            assert column_space(truncated_model(default_star, K)).d == 2

    def test_truncation_radius_closed_form(self, default_star):
        # star transfer matrix has r = sqrt(2^-beta zeta_K(beta))
        from kmsphase import spectral_radius

        K, beta = 64, 1.2
        tm = truncated_model(default_star, K)
        zeta_k = float(np.sum(default_star.head[:K] ** (-beta)))
        assert spectral_radius(tm, beta) == pytest.approx(
            math.sqrt(2.0 ** (-beta) * zeta_k), rel=1e-9
        )


class TestCriticalStates:
    def test_normalized_for_every_t(self, default_star):
        for t in (0.0, 0.25, 0.5, 1.0):
            st = star_kms_at_critical(default_star, t)
            assert st.z_check == pytest.approx(1.0, abs=1e-12)

    def test_extremes_are_distinct(self, default_star):
        s0 = star_kms_at_critical(default_star, 0.0)
        s1 = star_kms_at_critical(default_star, 1.0)
        assert abs(s0.rho_q0 - s1.rho_q0) > 1e-3

    def test_affine_in_t(self, default_star):
        s0 = star_kms_at_critical(default_star, 0.0)
        s1 = star_kms_at_critical(default_star, 1.0)
        mid = star_kms_at_critical(default_star, 0.5)
        assert mid.rho_q0 == pytest.approx(0.5 * (s0.rho_q0 + s1.rho_q0), rel=1e-12)
        assert mid.rho_qk == pytest.approx(0.5 * (s0.rho_qk + s1.rho_qk), rel=1e-12)

    def test_finite_type_mass_balance(self, default_star):
        # 2^-beta rho(q_0) + zeta rho(q_k) = 1 - gamma total mass
        beta = default_star.beta_bar
        zeta = zeta_value(default_star, beta)
        part = star_partition(default_star, beta)
        for t in (0.0, 0.4, 1.0):
            st = star_kms_at_critical(default_star, t)
            z_a = 1.0 + (1.0 + part.z0) * zeta
            z_b = 1.0 + part.z0
            gamma_total = t / z_a + (1.0 - t) / z_b
            lhs = 2.0 ** (-beta) * st.rho_q0 + zeta * st.rho_qk
            assert lhs == pytest.approx(1.0 - gamma_total, rel=1e-10)

    def test_t0_has_closed_form_independent_of_zeta(self, default_star):
        # gamma on the point {0} alone: rho(q_0) = 1/(1 + 2^-beta)
        st = star_kms_at_critical(default_star, 0.0)
        assert st.rho_q0 == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert st.rho_qk == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_matches_truncated_finite_type_state(self, default_star):
        # oracle: build the same root measure on the truncated model
        from kmsphase import RootMeasure, finite_type_state

        beta = default_star.beta_bar
        K = 256
        tm = truncated_model(default_star, K)
        space = column_space(tm)
        # points: {0} column (bit 0 only) and the all-starred column
        bit0 = space.points.index(tuple([1] + [0] * K))
        starred = 1 - bit0
        for t, point, expect_attr in ((1.0, starred, "rho_qk"), (0.0, bit0, "rho_qk")):
            st_inf = star_kms_at_critical(default_star, t)
            st_fin = finite_type_state(tm, beta, RootMeasure.delta(space, point))
            # generator values of starred letters agree within the tail error
            assert st_fin.q_values[1] == pytest.approx(getattr(st_inf, expect_attr), abs=5e-2)
