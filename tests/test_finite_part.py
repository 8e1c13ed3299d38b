"""The finite part of a state, built once, pinned bit for bit to separate constructions.

``z_gamma``, ``finite_type_state``, ``decompose`` and ``cooling`` share one
evaluation of the series of a root measure (``partition._finite_part``).
The reference below is the construction they replaced: ``z_gamma`` and
``finite_type_state`` each evaluate the series themselves, ``decompose``
calls both (and ``ground_state`` at beta = +inf), and ``cooling`` builds
the finite-type state once more.  Every printed bit must stay where it was,
including the two totals that differ in the last bit for d >= 8: the finite
fraction adds the defects with numpy's sum, the finite part is normalized
by the left-to-right sum of ``RootMeasure.total``.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from kmsphase import (
    RootMeasure,
    beta_c,
    cli,
    column_space,
    cooling,
    decompose,
    finite_type_state,
    ground_state,
    invariant_state_from_fixed_point,
    oa_beta_scan,
    omega_infinity_mass,
    qstate_from_atoms,
    z_gamma,
)
from kmsphase import classify, invariance, partition, states
from kmsphase.errors import (
    DivergentNormalizerError,
    KmsError,
    NegativeDefectError,
    NotSubinvariantError,
    ZeroMeasureError,
)
from kmsphase.partition import restricted_fixed_pairs, transfer_matrix
from kmsphase.states import DEFECT_TOL, FINITE, GAP_TOL_DEFAULT, INFINITE, TypeTag

from conftest import coexistence_models, random_irreducible


# --- the reference: one evaluation of the series per function -------------

def ref_z_gamma(model, beta, weights, space):
    w = np.asarray(weights, dtype=float)
    total = float(w.sum())
    if total == 0.0:
        return 0.0
    if math.isinf(beta) and beta > 0:
        return total
    mass_per_generator = space.bit_matrix().T @ w
    needed = np.flatnonzero(mass_per_generator > 0)
    if needed.size == 0:
        return total
    pairs = restricted_fixed_pairs(model, beta, needed)
    if pairs is None:
        return math.inf
    return total + float(pairs[1].sum(axis=0) @ mass_per_generator[needed])


def ref_finite_type_state(model, beta, gamma):
    if not (0 < beta < math.inf):
        raise ValueError("finite-type states need finite positive beta")
    z = gamma.total
    if z == 0.0:
        raise ZeroMeasureError("cannot normalize the zero measure")
    space = column_space(model)
    mass = gamma.mass_per_generator(space)
    needed = np.flatnonzero(mass > 0)
    atoms = np.array(gamma.weights, dtype=float)
    if needed.size:
        pairs = restricted_fixed_pairs(model, beta, needed)
        if pairs is None:
            raise DivergentNormalizerError(f"Z({beta}, gamma) diverges")
        _, z_ax = pairs
        mass = mass[needed]
        np.add.at(atoms, space._column_of, z_ax @ mass)
        z += float(z_ax.sum(axis=0) @ mass)
    atoms /= z
    return qstate_from_atoms(space, beta, atoms, FINITE)


def ref_defects(model, space, beta, state):
    d = state.atoms - space.push(model.weights(beta) * state.q)
    d[np.abs(d) < 1e-12] = 0.0
    for c, v in enumerate(d):
        if v < -GAP_TOL_DEFAULT:
            raise NegativeDefectError(c, float(v))
    d = np.clip(d, 0.0, None)
    d[d <= GAP_TOL_DEFAULT] = 0.0
    return d


def ref_decompose(model, beta, state):
    space = column_space(model)
    d = ref_defects(model, space, beta, state)
    gamma_fin = RootMeasure(weights=tuple(float(v) for v in d))
    fraction = ref_z_gamma(model, beta, d, space)
    if math.isinf(fraction):
        raise NotSubinvariantError("the defect measure has a divergent normalizer")
    if fraction > 1.0 + 1e-6:
        raise NotSubinvariantError(f"finite fraction {fraction} exceeds 1")
    fraction = min(fraction, 1.0)
    fin_state = None
    if fraction > DEFECT_TOL:
        if math.isinf(beta):
            fin_state = ground_state(model, gamma_fin)
        else:
            fin_state = ref_finite_type_state(model, beta, gamma_fin)
    inf_state = fp_residual = qn_residual = None
    if fraction < 1.0 - DEFECT_TOL:
        fin_atoms = fin_state.atoms if fin_state is not None else np.zeros(space.d)
        rem = np.clip((state.atoms - fraction * fin_atoms) / (1.0 - fraction), 0.0, None)
        s = float(model.weights(beta) @ (rem @ space.bit_matrix()))
        qn_residual = abs(s - 1.0)
        if s > 0:
            rem = rem / s
        inf_state = qstate_from_atoms(space, beta, rem, INFINITE,
                                      atol=max(1e-9, 2 * qn_residual + 1e-12))
        entries = transfer_matrix(model, beta).entries
        fp_residual = float(np.abs(entries @ inf_state.q - inf_state.q).max())
    recon = np.zeros(space.d)
    if fin_state is not None:
        recon += fraction * fin_state.atoms
    if inf_state is not None:
        recon += (1.0 - fraction) * inf_state.atoms
    return SimpleNamespace(
        gamma_finite=gamma_fin, finite_fraction=float(fraction), finite_part=fin_state,
        infinite_part=inf_state,
        reconstruction_residual=float(np.abs(recon - state.atoms).max()),
        fixed_point_residual=fp_residual, q_norm_residual=qn_residual,
    )


def ref_cooling(model, beta, state, beta_prime):
    ref_defects(model, column_space(model), beta, state)
    dec = ref_decompose(model, beta_prime, state)
    if abs(dec.finite_fraction - 1.0) > 1e-6:
        raise NotSubinvariantError("cooled state failed to close up as finite type")
    cooled = ref_finite_type_state(model, beta_prime, dec.gamma_finite)
    delta = beta_prime - beta
    shells = omega_infinity_mass(model, beta_prime, cooled, states.COOLING_CHECK_SHELLS)
    for n, s in enumerate(shells, start=1):
        bound = float(model.energies.min()) ** (-n * delta)
        if s > bound * (1.0 + 1e-9) + 1e-12:
            raise AssertionError(f"cooling bound violated at shell {n}")
    return cooled


# --- comparison by hex ----------------------------------------------------

def _hex(x):
    return None if x is None else float(x).hex()


def state_bits(st):
    if st is None:
        return None
    return (_hex(st.beta), [x.hex() for x in st.atom_masses], [x.hex() for x in st.q_values],
            st.type_tag)


def decomposition_bits(dec):
    return (_hex(dec.finite_fraction), [x.hex() for x in dec.gamma_finite.weights],
            state_bits(dec.finite_part), state_bits(dec.infinite_part),
            _hex(dec.reconstruction_residual), _hex(dec.fixed_point_residual),
            _hex(dec.q_norm_residual))


def outcome(fn, *args, bits=state_bits):
    """The result's bits, or the class of the error it raised."""
    try:
        return bits(fn(*args))
    except (ValueError, KmsError) as exc:
        return type(exc).__name__


def check_state(model, beta, state, beta_prime=None):
    """decompose and cooling of one state agree with the reference."""
    got = outcome(decompose, model, beta, state, bits=decomposition_bits)
    assert got == outcome(ref_decompose, model, beta, state, bits=decomposition_bits)
    if beta_prime is not None:
        assert outcome(cooling, model, beta, state, beta_prime) == outcome(
            ref_cooling, model, beta, state, beta_prime)
    return got


def check_measure(model, beta, weights):
    """z_gamma and the finite-type state of one root measure agree with the reference."""
    space = column_space(model)
    assert _hex(z_gamma(model, beta, weights, space=space)) == _hex(
        ref_z_gamma(model, beta, weights, space))
    gamma = RootMeasure(tuple(weights.tolist()))
    got = outcome(finite_type_state, model, beta, gamma)
    assert got == outcome(ref_finite_type_state, model, beta, gamma)
    return None if isinstance(got, str) else finite_type_state(model, beta, gamma)


def random_weights(rng, d, full):
    w = rng.uniform(0.05, 1.0, d)
    if not full:
        w[rng.random(d) < 0.5] = 0.0
    return w


# --- the pins ---------------------------------------------------------------

class TestAgainstReference:
    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("m", [8, 12, 16])
    def test_irreducible_models_with_many_points(self, seed, m):
        rng = np.random.default_rng((seed, m))
        model = random_irreducible(rng, m, non_permutation=True, energy_range=(1.5, 4.0))
        space = column_space(model)
        assert space.d >= 8
        crit = beta_c(model)
        for beta in (1.25 * crit.beta_c, 2.0 * crit.beta_c):
            for k in range(6):
                state = check_measure(model, beta, random_weights(rng, space.d, k < 4))
                decomposed = check_state(model, beta, state, 1.25 * beta)
                assert float.fromhex(decomposed[0]) == pytest.approx(1.0, abs=1e-9)
        critical = invariant_state_from_fixed_point(model, crit.beta_c, crit.perron_at_critical)
        check_state(model, crit.beta_c, critical, 1.25 * crit.beta_c)

    @pytest.mark.parametrize("index", [0, 1])
    def test_coexistence_models_at_quotient_temperatures(self, index):
        model = coexistence_models()[index]
        space = column_space(model)
        rng = np.random.default_rng(index)
        mixed = 0
        for simplex in oa_beta_scan(model).simplices:
            beta = simplex.beta
            invariant = [invariant_state_from_fixed_point(model, beta, v)
                         for v in simplex.extreme_vectors]
            for k in range(8):
                fin = check_measure(model, beta, random_weights(rng, space.d, k < 2))
                for inv in invariant:
                    check_state(model, beta, inv, 1.25 * beta)
                    if fin is None:
                        continue
                    for t in (0.25, 0.5, 0.75):
                        mixture = qstate_from_atoms(space, beta, t * fin.atoms + (1 - t) * inv.atoms,
                                                    TypeTag.mixed(t))
                        got = check_state(model, beta, mixture, 1.25 * beta)
                        mixed += not isinstance(got, str) and got[3] is not None
        assert mixed

    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("m", [1, 2, 9, 16])
    def test_ground_states(self, seed, m):
        rng = np.random.default_rng((seed, m, 0))
        model = random_irreducible(rng, m, energy_range=(1.5, 4.0))
        space = column_space(model)
        for k in range(6):
            w = random_weights(rng, space.d, k < 3)
            if not w.any():
                w[0] = 1.0
            assert _hex(z_gamma(model, math.inf, w, space=space)) == _hex(
                ref_z_gamma(model, math.inf, w, space))
            state = ground_state(model, RootMeasure(tuple(w.tolist())))
            check_state(model, math.inf, state)


# --- one evaluation per state ----------------------------------------------

def _counter(monkeypatch, module, name):
    """Count the calls of ``module.name`` from every module that binds it."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    for target in (partition, states, invariance, classify, cli):
        if getattr(target, name, None) is original:
            monkeypatch.setattr(target, name, counted)
    return calls


class TestOneEvaluation:
    def _state(self):
        model = random_irreducible(np.random.default_rng(5), 8, non_permutation=True,
                                   energy_range=(1.5, 4.0))
        beta = 1.5 * beta_c(model).beta_c
        space = column_space(model)
        return model, beta, finite_type_state(model, beta, RootMeasure.uniform(space))

    def test_decompose_evaluates_the_series_once(self, monkeypatch):
        model, beta, state = self._state()
        calls = _counter(monkeypatch, partition, "restricted_fixed_pairs")
        dec = decompose(model, beta, state)
        assert len(calls) == 1 and dec.finite_part is not None

    def test_cooling_builds_no_second_finite_type_state(self, monkeypatch):
        model, beta, state = self._state()
        calls = _counter(monkeypatch, states, "finite_type_state")
        pairs = _counter(monkeypatch, partition, "restricted_fixed_pairs")
        cooled = cooling(model, beta, state, 1.25 * beta)
        assert cooled.type_tag == FINITE and calls == [] and len(pairs) == 1

    @pytest.mark.parametrize("extra", [[], ["--exhaustive"]])
    def test_check_state_checks_subinvariance_once(self, monkeypatch, tmp_path, capsys, extra):
        path = tmp_path / "state.json"
        path.write_text('{"beta": 2.0, "atom_masses": [0.6, 0.4]}')
        calls = _counter(monkeypatch, invariance, "is_subinvariant")
        argv = ["check-state", "--model-json", '{"matrix": [[1, 1], [1, 0]], "energies": [2, 2]}',
                "--state", str(path), *extra]
        assert cli.main(argv) == 0
        assert '"factors_through_quotient": false' in capsys.readouterr().out
        assert len(calls) == 1
