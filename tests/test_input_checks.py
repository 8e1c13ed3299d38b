"""The library's input checks: each bad input raises its own error and message."""

from __future__ import annotations

import math

import pytest

from kmsphase import (
    RootMeasure,
    build_star,
    classify_ta,
    column_space,
    cooling,
    decompose,
    enumerate_words,
    evaluate,
    factors_through_oa,
    finite_type_state,
    fixed_point_from_state,
    geometric_bound,
    ground_state,
    invariant_state_from_fixed_point,
    is_subinvariant,
    kms_oa,
    omega_infinity_mass,
    partial_series,
    perron_vector,
    qstate_from_atoms,
    shell_sum,
    spectral_radius,
    star_kms_at_critical,
    star_partition,
    star_z0,
    truncated_model,
    z_gamma,
)
from kmsphase.errors import BelowAbscissaError, ZeroMeasureError
from kmsphase.star import z0_truncation_bound, zeta_enclosure, zeta_tail_after, zeta_value
from kmsphase.states import FINITE

from conftest import golden_mean_model

# the four domains of model.check_beta, one message each
NO_WEIGHTS = "N^-beta needs a beta above -inf, got {}"
STATES = "beta must be positive or +inf, got {}"
FINITE_STATES = "beta must be positive and finite, got {}"
FINITE_BETA = "beta must be finite, got {}"
BELOW_ABSCISSA = "zeta is only evaluated for beta >= 1.0"


def _state(model, beta=2.0):
    return qstate_from_atoms(column_space(model), beta, [0.5, 0.5], FINITE)


def _star():
    return build_star(head_count=64)


def _case(id, call, message, exc=ValueError):
    return pytest.param(call, exc, message, id=id)


CASES = [
    *[_case(f"evaluate-beta-{b}", lambda m, b=b: evaluate(m, b), STATES.format(b))
      for b in (0.0, -1.0, math.nan, -math.inf)],
    # a grid names its first beta outside the domain
    _case("evaluate-grid", lambda m: evaluate(m, [1.0, -2.0, math.nan]), STATES.format(-2.0)),
    # the convergence margin lies in [0, 1); a grid is not evaluated either
    *[_case(f"evaluate-margin-{margin}", lambda m, margin=margin: evaluate(m, 2.0, margin),
            f"convergence margin must lie in [0, 1), got {margin}")
      for margin in (math.nan, -5.0, -1e-300, 1.0, math.inf)],
    _case("evaluate-grid-margin", lambda m: evaluate(m, [1.0, 2.0], margin=-5.0),
          "convergence margin must lie in [0, 1), got -5.0"),
    *[_case(f"z_gamma-beta-{b}", lambda m, b=b: z_gamma(m, b, [0.5, 0.5]), STATES.format(b))
      for b in (math.nan, 0.0, -1.0, -math.inf)],
    _case("z_gamma-shape", lambda m: z_gamma(m, 2.0, [1.0]),
          "weights must have one entry per column point (2)"),
    _case("z_gamma-sign", lambda m: z_gamma(m, 2.0, [-1.0, 2.0]),
          "root-measure weights must be nonnegative"),
    # RootMeasure's rule: finite, then nonnegative
    *[_case(f"z_gamma-weights-{w}", lambda m, w=w: z_gamma(m, 2.0, [w, 1.0]),
            "root-measure weights must be finite")
      for w in (math.nan, math.inf, -math.inf)],
    *[_case(f"geometric_bound-beta-{b}", lambda m, b=b: geometric_bound(m, b),
            FINITE_STATES.format(b))
      for b in (0.0, math.inf)],
    _case("classify_ta-beta", lambda m: classify_ta(m, 0.0), STATES.format(0.0)),
    *[_case(f"kms_oa-beta-{b}", lambda m, b=b: kms_oa(m, b), FINITE_STATES.format(b))
      for b in (0.0, math.inf)],
    _case("qstate-shape", lambda m: qstate_from_atoms(column_space(m), 2.0, [1.0], FINITE),
          "need one atom mass per column point (2)"),
    _case("qstate-negative",
          lambda m: qstate_from_atoms(column_space(m), 2.0, [-0.5, 1.5], FINITE),
          "atom masses must be nonnegative"),
    _case("qstate-sum", lambda m: qstate_from_atoms(column_space(m), 2.0, [0.9, 0.9], FINITE),
          "atom masses must sum to 1, got 1.8"),
    _case("qstate-nan",
          lambda m: qstate_from_atoms(column_space(m), 2.0, [math.nan, 1.0], FINITE),
          "atom masses must be finite and sum to 1, got nan"),
    *[_case(f"finite_type_state-beta-{b}",
            lambda m, b=b: finite_type_state(m, b, RootMeasure((1.0, 0.0))),
            FINITE_STATES.format(b))
      for b in (0.0, math.inf)],
    *[_case(f"invariant_state-beta-{b}",
            lambda m, b=b: invariant_state_from_fixed_point(m, b, [1.0, 1.0]),
            FINITE_STATES.format(b))
      for b in (0.0, math.inf)],
    _case("invariant_state-length", lambda m: invariant_state_from_fixed_point(m, 1.0, [1.0]),
          "fixed point must have length 2"),
    # the state calculus: every subinvariance check, and the shells
    *[_case(f"{name}-beta-{b}", lambda m, b=b, call=call: call(m, b, _state(m)), STATES.format(b))
      for b in (0.0, -1.0, math.nan)
      for name, call in [("is_subinvariant", is_subinvariant),
                         ("decompose", decompose),
                         ("cooling", lambda m, b, st: cooling(m, b, st, 3.0)),
                         ("omega_infinity_mass", lambda m, b, st: omega_infinity_mass(m, b, st, 3)),
                         ("factors_through_oa", factors_through_oa),
                         ("fixed_point_from_state", fixed_point_from_state)]],
    _case("ground_state-zero", lambda m: ground_state(m, RootMeasure((0.0, 0.0))),
          "cannot normalize the zero measure", ZeroMeasureError),
    _case("omega_infinity_mass-L", lambda m: omega_infinity_mass(m, 2.0, _state(m), 0),
          "need at least one shell"),
    _case("cooling-colder", lambda m: cooling(m, 2.0, _state(m), 1.0),
          "cooling requires beta_prime >= beta"),
    _case("enumerate_words-length", lambda m: enumerate_words(m, -1),
          "word length must be nonnegative"),
    _case("shell_sum-length", lambda m: shell_sum(m, 1.0, -1), "shell index must be nonnegative"),
    _case("partial_series-length", lambda m: partial_series(m, 1.0, -1),
          "truncation length must be nonnegative"),
    # N^-beta is no number at beta = NaN or -inf, whatever the length
    *[_case(f"{name}-beta-{b}", lambda m, b=b, call=call: call(m, b), NO_WEIGHTS.format(b))
      for b in (math.nan, -math.inf)
      for name, call in [("weights", lambda m, b: m.weights(b)),
                         ("spectral_radius", spectral_radius),
                         ("shell_sum-n0", lambda m, b: shell_sum(m, b, 0)),
                         ("shell_sum-n3", lambda m, b: shell_sum(m, b, 3, target=1)),
                         ("partial_series-L0", lambda m, b: partial_series(m, b, 0, source=0)),
                         ("partial_series-L3", lambda m, b: partial_series(m, b, 3))]],
    *[_case(f"perron_vector-beta-{b}", lambda m, b=b: perron_vector(m, b), FINITE_BETA.format(b))
      for b in (math.nan, -math.inf, math.inf)],
    # the star family: zeta and everything built on it need beta >= beta_bar
    *[_case(f"{name}-beta-{b}", lambda m, b=b, call=call: call(_star(), b), BELOW_ABSCISSA,
            BelowAbscissaError)
      for b in (math.nan, 0.5)
      for name, call in [("zeta_enclosure", zeta_enclosure),
                         ("zeta_value", zeta_value),
                         ("star_z0", star_z0),
                         ("star_partition", star_partition),
                         ("z0_truncation_bound", lambda s, b: z0_truncation_bound(s, b, 8, 1.0)),
                         ("zeta_tail_after", lambda s, b: zeta_tail_after(s, b, 8))]],
    _case("build_star-head-count-0", lambda m: build_star(head_count=0),
          "tail bound needs at least two retained raw terms"),
    _case("build_star-family", lambda m: build_star("harmonic"), "unknown family 'harmonic'"),
    _case("build_star-no-abscissa", lambda m: build_star([3.0, 4.0]),
          "user term lists must declare their abscissa"),
    _case("build_star-all-dropped", lambda m: build_star([3.0], drop=1, declared_abscissa=1.0),
          "no terms left after dropping"),
    _case("star_kms_at_critical-t", lambda m: star_kms_at_critical(_star(), 1.5),
          "t must lie in [0, 1]"),
    _case("truncated_model-K", lambda m: truncated_model(_star(), 65),
          "only 64 head terms are stored"),
]


@pytest.mark.parametrize("call,exc,message", CASES)
def test_bad_input_raises(call, exc, message):
    with pytest.raises(exc) as info:
        call(golden_mean_model())
    assert type(info.value) is exc
    assert str(info.value) == message
