"""The library's input checks: each bad input raises its own error and message."""

from __future__ import annotations

import math

import pytest

from kmsphase import (
    RootMeasure,
    classify_ta,
    column_space,
    cooling,
    enumerate_words,
    evaluate,
    finite_type_state,
    geometric_bound,
    ground_state,
    kms_oa,
    omega_infinity_mass,
    partial_series,
    perron_vector,
    qstate_from_atoms,
    shell_sum,
    spectral_radius,
    z_gamma,
)
from kmsphase.errors import ZeroMeasureError
from kmsphase.states import FINITE

from conftest import golden_mean_model

PARTITION_BETA = "partition functions are defined for beta > 0 or beta = +inf"
NO_WEIGHTS = "N^-beta needs a beta above -inf, got {}"


def _state(model, beta=2.0):
    return qstate_from_atoms(column_space(model), beta, [0.5, 0.5], FINITE)


def _case(id, call, message, exc=ValueError):
    return pytest.param(call, exc, message, id=id)


CASES = [
    *[_case(f"evaluate-beta-{b}", lambda m, b=b: evaluate(m, b), PARTITION_BETA)
      for b in (0.0, -1.0, math.nan, -math.inf)],
    *[_case(f"z_gamma-beta-{b}", lambda m, b=b: z_gamma(m, b, [0.5, 0.5]), PARTITION_BETA)
      for b in (math.nan, 0.0, -1.0, -math.inf)],
    _case("z_gamma-shape", lambda m: z_gamma(m, 2.0, [1.0]),
          "weights must have one entry per column point (2)"),
    _case("z_gamma-sign", lambda m: z_gamma(m, 2.0, [-1.0, 2.0]),
          "root-measure weights must be nonnegative"),
    *[_case(f"geometric_bound-beta-{b}", lambda m, b=b: geometric_bound(m, b),
            "geometric bound is defined for finite positive beta")
      for b in (0.0, math.inf)],
    _case("classify_ta-beta", lambda m: classify_ta(m, 0.0), "beta must be positive or +inf"),
    *[_case(f"kms_oa-beta-{b}", lambda m, b=b: kms_oa(m, b),
            "quotient KMS states are computed for finite positive beta")
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
            "finite-type states need finite positive beta; see ground_state")
      for b in (0.0, math.inf)],
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
                         ("perron_vector", perron_vector),
                         ("shell_sum-n0", lambda m, b: shell_sum(m, b, 0)),
                         ("shell_sum-n3", lambda m, b: shell_sum(m, b, 3, target=1)),
                         ("partial_series-L0", lambda m, b: partial_series(m, b, 0, source=0)),
                         ("partial_series-L3", lambda m, b: partial_series(m, b, 3))]],
    _case("perron_vector-beta-inf", lambda m: perron_vector(m, math.inf),
          "the Perron vector needs a finite beta, got inf"),
]


@pytest.mark.parametrize("call,exc,message", CASES)
def test_bad_input_raises(call, exc, message):
    with pytest.raises(exc) as info:
        call(golden_mean_model())
    assert type(info.value) is exc
    assert str(info.value) == message
