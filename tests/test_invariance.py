from __future__ import annotations

import json
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmsphase import (
    RootMeasure,
    beta_c,
    build_model,
    column_space,
    decompose,
    finite_type_state,
    fixed_point_from_state,
    invariant_state_from_fixed_point,
    is_subinvariant,
    qstate_from_atoms,
)
from kmsphase.errors import (
    NegativeEntryError,
    NotFixedPointError,
    NotInvariantError,
    NotNormalizedError,
    TooLargeForExhaustiveError,
)
from kmsphase import cli, invariance
from kmsphase._rounding import gamma
from kmsphase.invariance import GAP_TOL_DEFAULT, InvarianceVerdict, _disjoint_pairs, _pair_gaps
from kmsphase.states import FINITE, INFINITE

from conftest import (
    block_triangular,
    full_model,
    golden_mean_model,
    random_duplicate_columns_model,
    random_irreducible,
)

PHI = (1 + math.sqrt(5)) / 2


class TestIsSubinvariant:
    def test_critical_perron_state_is_invariant(self):
        m = full_model(2)
        state = invariant_state_from_fixed_point(m, 1.0, [1.0, 1.0])
        verdict = is_subinvariant(m, 1.0, state, exhaustive=True)
        assert verdict.subinvariant and verdict.invariant
        assert max(abs(g) for g in verdict.atom_gaps) <= 1e-12

    def test_finite_type_state_has_strict_gap(self):
        m = full_model(2)
        space = column_space(m)
        state = finite_type_state(m, 2.0, RootMeasure.delta(space, 0))
        verdict = is_subinvariant(m, 2.0, state, exhaustive=True)
        assert verdict.subinvariant and not verdict.invariant
        assert verdict.atom_gaps == pytest.approx((0.5,))

    def test_normalization_special_case(self, rng):
        # the empty-pair inequality: sum_z N(z)^-beta q_z <= 1
        m = random_irreducible(rng, 4, energy_range=(1.5, 3.0))
        beta = beta_c(m).beta_c + 0.5
        space = column_space(m)
        state = finite_type_state(m, beta, RootMeasure.uniform(space))
        assert float((m.energies ** -beta) @ state.q) <= 1.0 + 1e-12

    def test_ground_temperature_convention(self):
        m = golden_mean_model()
        space = column_space(m)
        state = qstate_from_atoms(space, math.inf, [0.5, 0.5], FINITE)
        verdict = is_subinvariant(m, math.inf, state)
        assert verdict.subinvariant and not verdict.invariant

    def test_ground_temperature_follows_atom_rule(self):
        # at +inf the inflow vanishes, so the gaps are the atoms and the
        # largest atom is the witness; the exhaustive mode keeps its cap
        m = golden_mean_model()
        space = column_space(m)
        state = qstate_from_atoms(space, math.inf, [0.25, 0.75], FINITE)
        verdict = is_subinvariant(m, math.inf, state)
        assert verdict.atom_gaps == state.atom_masses
        assert verdict.worst_violation == ((0, 1), (), 0.75)
        assert is_subinvariant(m, math.inf, state, exhaustive=True) == verdict
        assert assert_same_verdict(m, math.inf, state) == verdict
        big = full_model(13)
        with pytest.raises(TooLargeForExhaustiveError):
            is_subinvariant(big, math.inf, qstate_from_atoms(column_space(big), math.inf, [1.0],
                                                             FINITE), exhaustive=True)

    def test_exhaustive_cap(self):
        m = full_model(13)
        space = column_space(m)
        state = qstate_from_atoms(space, 2.0, [1.0], FINITE)
        with pytest.raises(TooLargeForExhaustiveError):
            is_subinvariant(m, 2.0, state, exhaustive=True)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10_000))
    def test_atom_and_exhaustive_checks_agree(self, m_size, seed):
        # is_subinvariant raises internally if the two disagree
        rng = np.random.default_rng(seed)
        model = random_irreducible(rng, m_size)
        space = column_space(model)
        atoms = rng.dirichlet(np.ones(space.d))
        beta = float(rng.uniform(0.2, 3.0))
        state = qstate_from_atoms(space, beta, atoms, FINITE)
        is_subinvariant(model, beta, state, exhaustive=True)

    def test_monotone_in_beta(self, rng):
        for _ in range(6):
            m = random_irreducible(rng, 4, energy_range=(1.5, 3.5))
            beta = beta_c(m).beta_c + float(rng.uniform(0.1, 0.8))
            space = column_space(m)
            w = rng.uniform(0.05, 1.0, space.d)
            state = finite_type_state(m, beta, RootMeasure(tuple(w)))
            assert is_subinvariant(m, beta, state).subinvariant
            for db in (0.3, 1.0, 4.0):
                assert is_subinvariant(m, beta + db, state).subinvariant


def _atom_check(model, beta, state, tol):
    """The atom-level part of the check: (space, inflow, gaps, sub, inv, witness)."""
    space = column_space(model)
    inflow = space.push(model.weights(beta) * state.q)
    gaps = state.atoms - inflow
    sub = bool((gaps >= -tol).all())
    inv = bool((np.abs(gaps) <= tol).all())
    worst = None
    if not inv:
        c = int(np.argmin(gaps)) if not sub else int(np.argmax(np.abs(gaps)))
        point = space.points[c]
        x_set = tuple(i for i, b in enumerate(point) if b)
        y_set = tuple(i for i, b in enumerate(point) if not b)
        worst = (x_set, y_set, float(gaps[c]))
    return space, inflow, gaps, sub, inv, worst


def pair_bound(k, lhs, rhs, tol):
    """The bound the atom rule implies for a pair of k points with inflow sum
    lhs and atom sum rhs: k tol, widened by gamma_(k+5) (lhs + rhs) past one point."""
    return k * tol + (gamma(k + 5) * (rhs + lhs) if k > 1 else 0.0)


def subinvariant_reference(model, beta, state, tol=GAP_TOL_DEFAULT):
    """The exhaustive check as a double loop over all 4^m pairs (X, Y).

    Kept as the reference the 3^m disjoint-pair check must reproduce bit
    for bit, raising where it raises.  Each pair is held to :func:`pair_bound`.
    """
    space, inflow, gaps, sub, inv, worst = _atom_check(model, beta, state, tol)
    col_masks = [sum(1 << i for i, b in enumerate(p) if b) for p in space.points]
    atoms = state.atoms
    sub_ex, inv_ex = True, True
    for x_mask, y_mask in product(range(1 << model.m), repeat=2):
        lhs = rhs = 0.0
        k = 0
        for c, mask in enumerate(col_masks):
            if (mask & x_mask) == x_mask and (mask & y_mask) == 0:
                lhs += inflow[c]
                rhs += atoms[c]
                k += 1
        gap = rhs - lhs
        bound = pair_bound(k, lhs, rhs, tol)
        if gap < -bound:
            sub_ex = False
            if worst is None or gap < worst[2]:
                xs = tuple(i for i in range(model.m) if x_mask >> i & 1)
                ys = tuple(i for i in range(model.m) if y_mask >> i & 1)
                worst = (xs, ys, float(gap))
        if abs(gap) > bound:
            inv_ex = False
    if sub_ex != sub or inv_ex != inv:
        raise AssertionError("atom-level and exhaustive pair checks disagree")
    return InvarianceVerdict(
        subinvariant=sub, invariant=inv,
        atom_gaps=tuple(float(v) for v in gaps), worst_violation=worst,
    )


def pair_gaps_reference(model, beta, state):
    """Gap of every pair (x_mask, y_mask), summed in column order."""
    space = column_space(model)
    inflow = space.push(model.weights(beta) * state.q)
    col_masks = [sum(1 << i for i, b in enumerate(p) if b) for p in space.points]
    out = {}
    for x_mask, y_mask in product(range(1 << model.m), repeat=2):
        lhs = rhs = 0.0
        for c, mask in enumerate(col_masks):
            if (mask & x_mask) == x_mask and (mask & y_mask) == 0:
                lhs += inflow[c]
                rhs += state.atoms[c]
        out[x_mask, y_mask] = rhs - lhs
    return out


def _outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except AssertionError as exc:
        return ("AssertionError", str(exc))


def assert_same_verdict(model, beta, state, tol=GAP_TOL_DEFAULT):
    got = _outcome(is_subinvariant, model, beta, state, exhaustive=True, tol=tol)
    want = _outcome(subinvariant_reference, model, beta, state, tol=tol)
    assert got == want
    if isinstance(want, InvarianceVerdict) and want.worst_violation is not None:
        assert got.worst_violation[2].hex() == want.worst_violation[2].hex()
    return got


def _state(model, kind, rng):
    """(beta, state) of the given kind.

    accepted: finite-type at 1.5 beta_c; rejected: the same atoms declared at
    0.8 beta_c; invariant: the Perron state at beta_c; random: Dirichlet
    atoms at a random beta.
    """
    space = column_space(model)
    bc = beta_c(model).beta_c
    if kind == "invariant":
        return bc, invariant_state_from_fixed_point(model, bc, beta_c(model).perron_at_critical)
    gamma = RootMeasure(tuple(rng.uniform(0.05, 1.0, space.d)))
    state = finite_type_state(model, 1.5 * bc, gamma)
    if kind == "accepted":
        return 1.5 * bc, state
    if kind == "rejected":
        return 0.8 * bc, qstate_from_atoms(space, 0.8 * bc, state.atoms, FINITE)
    atoms = rng.dirichlet(np.ones(space.d))
    beta = float(rng.uniform(0.2, 3.0))
    return beta, qstate_from_atoms(space, beta, atoms, FINITE)


class TestExhaustiveMatchesPairLoop:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 10_000),
           st.sampled_from(["accepted", "rejected", "invariant", "random"]),
           st.sampled_from([GAP_TOL_DEFAULT, 0.0]))
    def test_hypothesis_models(self, m_size, seed, kind, tol):
        rng = np.random.default_rng(seed)
        model = random_irreducible(rng, m_size, non_permutation=True, energy_range=(1.5, 4.0))
        beta, state = _state(model, kind, rng)
        assert_same_verdict(model, beta, state, tol=tol)

    def test_seeded_m9_models(self):
        rng = np.random.default_rng(409)
        verdicts = []
        for kind in ("accepted", "rejected", "invariant"):
            model = random_irreducible(rng, 9, non_permutation=True, energy_range=(1.5, 4.0))
            beta, state = _state(model, kind, rng)
            verdicts.append(assert_same_verdict(model, beta, state))
        accepted, rejected, invariant = verdicts
        assert accepted.subinvariant and not accepted.invariant
        assert not rejected.subinvariant and rejected.worst_violation is not None
        assert invariant.invariant

    def _rejected_cases(self, m_size, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            model = random_irreducible(rng, m_size, non_permutation=True, energy_range=(1.5, 4.0))
            beta, state = _state(model, "random", rng)
            verdict = is_subinvariant(model, beta, state)
            if not verdict.subinvariant:
                yield model, beta, state, verdict

    @pytest.mark.parametrize("m_size", [0, 1, 2, 5])
    def test_disjoint_pairs_in_loop_order(self, m_size):
        x_masks, y_masks = _disjoint_pairs(m_size)
        expected = [(x, y) for x, y in product(range(1 << m_size), repeat=2) if x & y == 0]
        assert list(zip(x_masks.tolist(), y_masks.tolist())) == expected
        assert len(expected) == 3 ** m_size

    def test_tie_between_two_minimal_pairs(self):
        # The pair minimum lies strictly below every atom gap, and several
        # pairs select the same column points: the first in (X, Y) order wins.
        for model, beta, state, atom_verdict in self._rejected_cases(4, 11):
            gaps = pair_gaps_reference(model, beta, state)
            low = min(gaps.values())
            tied = sorted(k for k, g in gaps.items() if g == low)
            if low < atom_verdict.worst_violation[2] and len(tied) >= 2:
                break
        else:
            pytest.fail("no pair-level tie found")
        verdict = assert_same_verdict(model, beta, state)
        x_mask, y_mask = tied[0]
        assert verdict.worst_violation == (
            tuple(i for i in range(model.m) if x_mask >> i & 1),
            tuple(i for i in range(model.m) if y_mask >> i & 1),
            low,
        )

    def test_tie_between_atom_witness_and_pair(self):
        # A pair that isolates the worst atom ties with it; the atom witness,
        # found first, keeps its place.
        for model, beta, state, atom_verdict in self._rejected_cases(4, 12):
            gaps = pair_gaps_reference(model, beta, state)
            x_set, y_set, low = atom_verdict.worst_violation
            witness = (sum(1 << i for i in x_set), sum(1 << i for i in y_set))
            others = [k for k, g in gaps.items() if g == low and k != witness]
            if min(gaps.values()) == low and others and min(others) < witness:
                break
        else:
            pytest.fail("no atom-pair tie found")
        verdict = assert_same_verdict(model, beta, state)
        assert verdict.worst_violation == atom_verdict.worst_violation

    def test_zero_tolerance(self, rng):
        for kind in ("accepted", "rejected", "invariant", "random"):
            for _ in range(3):
                model = random_irreducible(rng, 5, non_permutation=True, energy_range=(1.5, 4.0))
                beta, state = _state(model, kind, rng)
                assert_same_verdict(model, beta, state, tol=0.0)

    def test_negative_tolerance_rejected(self):
        m = full_model(2)
        state = invariant_state_from_fixed_point(m, 1.0, [1.0, 1.0])
        with pytest.raises(ValueError):
            is_subinvariant(m, 1.0, state, exhaustive=True, tol=-1e-12)

    def test_nan_tolerance_rejected(self):
        # a NaN tol fails every comparison, so it would pass every pair and no atom
        m = full_model(2)
        state = invariant_state_from_fixed_point(m, 1.0, [1.0, 1.0])
        with pytest.raises(ValueError, match="needs tol >= 0, got nan"):
            is_subinvariant(m, 1.0, state, exhaustive=True, tol=math.nan)

    def test_cap_is_inclusive(self, rng):
        model = random_irreducible(rng, 12, non_permutation=True, energy_range=(1.5, 4.0))
        beta, state = _state(model, "accepted", rng)
        verdict = is_subinvariant(model, beta, state, exhaustive=True)
        assert verdict == is_subinvariant(model, beta, state)
        assert verdict.subinvariant


# One model, two states whose atom gaps all pass the rule while a pair of
# two points sums past tol: above beta_c, gaps (0.31, -0.9e-10, -0.9e-10),
# subinvariant; at beta_c, gaps (0.6, 0.6, -0.93) 1e-10, invariant.
_CYCLE3 = dict(matrix=[[1, 1, 0], [0, 1, 1], [1, 0, 1]], energies=[2, 3, 5])
_NEAR_INVARIANT = [
    (0.9542356819054412, [0.4727377109266961, 0.27212794837256615, 0.2551343407007378], False),
    (0.6361571212702941, [0.26507483425150546, 0.47286889091683015, 0.2620562748316645], True),
]


class TestExhaustiveFollowsAtomRule:
    @pytest.mark.parametrize("beta,atoms,invariant", _NEAR_INVARIANT)
    def test_pair_past_tol_is_within_its_bound(self, beta, atoms, invariant):
        model = build_model(**_CYCLE3)
        space = column_space(model)
        state = qstate_from_atoms(space, beta, atoms, FINITE)
        verdict = is_subinvariant(model, beta, state)
        assert verdict.subinvariant and verdict.invariant == invariant
        inflow = space.push(model.weights(beta) * state.q)
        assert np.abs(_pair_gaps(model.m, space, inflow, state.atoms)).max() > GAP_TOL_DEFAULT
        assert is_subinvariant(model, beta, state, exhaustive=True) == verdict
        assert assert_same_verdict(model, beta, state) == verdict

    @pytest.mark.parametrize("beta,atoms,invariant", _NEAR_INVARIANT)
    def test_check_state_exhaustive(self, tmp_path, capsys, beta, atoms, invariant):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"beta": beta, "atom_masses": atoms}))
        argv = ["check-state", "--model-json", json.dumps(_CYCLE3), "--state", str(path)]
        assert cli.main(argv) == 0
        plain = capsys.readouterr().out
        assert cli.main([*argv, "--exhaustive"]) == 0
        assert capsys.readouterr().out == plain
        report = json.loads(plain)
        assert report["verdict"]["subinvariant"]
        assert report["verdict"]["invariant"] == invariant
        assert report["decomposition"]["finite_fraction"] == (0 if invariant else 1)


def exhaustive_column_loop(model, beta, state, tol=GAP_TOL_DEFAULT):
    """The exhaustive check with one pass over the 3^m pairs per column point.

    Kept as the reference the signature table must reproduce bit for bit
    where the 4^m double loop is too slow: returns the verdict (or the
    AssertionError it raises) and the gap of every pair in (X, Y) order.
    Each pair is held to :func:`pair_bound`.
    """
    space, inflow, gaps, sub, inv, worst = _atom_check(model, beta, state, tol)
    x_masks, y_masks = _disjoint_pairs(model.m)
    lhs = np.zeros(x_masks.size)
    rhs = np.zeros(x_masks.size)
    k = np.zeros(x_masks.size, dtype=np.int64)
    for c, point in enumerate(space.points):
        mask = sum(1 << i for i, b in enumerate(point) if b)
        sel = ((x_masks & mask) == x_masks) & ((y_masks & mask) == 0)
        lhs[sel] += inflow[c]
        rhs[sel] += state.atoms[c]
        k[sel] += 1
    pair_gaps = rhs - lhs
    bound = np.array([pair_bound(n, a, b, tol) for n, a, b in zip(k.tolist(), lhs, rhs)])
    violated = pair_gaps < -bound
    sub_ex = not violated.any()
    inv_ex = not (np.abs(pair_gaps) > bound).any()
    if not sub_ex:
        k = int(np.argmin(np.where(violated, pair_gaps, np.inf)))
        if worst is None or pair_gaps[k] < worst[2]:
            worst = (tuple(i for i in range(model.m) if x_masks[k] >> i & 1),
                     tuple(i for i in range(model.m) if y_masks[k] >> i & 1), float(pair_gaps[k]))
    if sub_ex != sub or inv_ex != inv:
        return ("AssertionError", "atom-level and exhaustive pair checks disagree"), pair_gaps
    verdict = InvarianceVerdict(subinvariant=sub, invariant=inv,
                                atom_gaps=tuple(float(v) for v in gaps), worst_violation=worst)
    return verdict, pair_gaps


def _random_state(model, rng):
    """Dirichlet atoms at a random beta: no beta_c needed, so any model will do."""
    space = column_space(model)
    beta = float(rng.uniform(0.2, 3.0))
    return beta, qstate_from_atoms(space, beta, rng.dirichlet(np.ones(space.d)), FINITE)


def _large_cases():
    """(model, beta, state) on seeded models with m = 8..12."""
    rng = np.random.default_rng(1712)
    for m_size in (8, 9, 10, 11, 12):
        model = random_irreducible(rng, m_size, non_permutation=True, energy_range=(1.5, 4.0))
        for kind in ("accepted", "rejected", "invariant", "random"):
            yield (model, *_state(model, kind, rng))
    for m_size, k in ((8, 3), (9, 5), (10, 4), (12, 7)):   # repeated columns, d < m
        model = random_duplicate_columns_model(rng, m_size, k)
        for kind in ("accepted", "rejected", "random"):
            yield (model, *_state(model, kind, rng))
    for sizes in ((4, 4), (3, 3, 3), (5, 7)):               # reducible
        model = block_triangular(rng, sizes)
        for _ in range(2):
            yield (model, *_random_state(model, rng))


class TestSignatureTableMatchesColumnLoop:
    @pytest.mark.parametrize("tol", [GAP_TOL_DEFAULT, 0.0])
    def test_large_models(self, tol):
        seen = set()
        for model, beta, state in _large_cases():
            space = column_space(model)
            want, loop_gaps = exhaustive_column_loop(model, beta, state, tol=tol)
            inflow = space.push(model.weights(beta) * state.q)
            gaps = _pair_gaps(model.m, space, inflow, state.atoms)
            assert gaps.tobytes() == loop_gaps.tobytes()
            got = _outcome(is_subinvariant, model, beta, state, exhaustive=True, tol=tol)
            assert got == want
            if isinstance(want, InvarianceVerdict) and want.worst_violation is not None:
                assert got.worst_violation[2].hex() == want.worst_violation[2].hex()
                seen.add("violation")
            if isinstance(want, InvarianceVerdict):
                seen.add((want.subinvariant, want.invariant))
            seen.add(("m", model.m))
            seen.add("d < m" if space.d < model.m else "d = m")
            seen.add("irreducible" if model.strong_components[0] == 1 else "reducible")
        covered = {(True, False), (False, False), "violation", "d < m", "d = m",
                   "reducible", "irreducible", ("m", 12)}
        if tol > 0:     # at tol = 0 the Perron state's rounding leaves it short of invariant
            covered.add((True, True))
        assert covered <= seen

    def test_pair_tables_memoised_and_read_only(self):
        for m_size in (0, 3, 9):
            x_masks, y_masks = _disjoint_pairs(m_size)
            again = _disjoint_pairs(m_size)
            assert again[0] is x_masks and again[1] is y_masks
            for a in (x_masks, y_masks):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 1

    def test_no_argsort_after_first_call(self, monkeypatch):
        rng = np.random.default_rng(3)
        model = random_irreducible(rng, 9, non_permutation=True, energy_range=(1.5, 4.0))
        beta, state = _random_state(model, rng)
        first = is_subinvariant(model, beta, state, exhaustive=True)

        def refuse(*args, **kwargs):
            raise AssertionError("argsort called again")

        monkeypatch.setattr(invariance.np, "argsort", refuse)
        assert is_subinvariant(model, beta, state, exhaustive=True) == first


class TestFixedPointBijection:
    def test_golden_mean_atoms(self):
        m = golden_mean_model()
        bc = math.log(PHI)
        state = invariant_state_from_fixed_point(m, bc, [1 / PHI, 1.0])
        assert state.atom_masses == pytest.approx((PHI ** -2, PHI ** -1), rel=1e-9)
        assert state.q_values == pytest.approx((1 / PHI, 1.0), rel=1e-9)
        assert state.type_tag.kind == "infinite"

    def test_round_trip_vector_state_vector(self, rng):
        for _ in range(5):
            m = random_irreducible(rng, 5, non_permutation=True, energy_range=(1.5, 4.0))
            rep = beta_c(m)
            v = rep.perron_at_critical
            state = invariant_state_from_fixed_point(m, rep.beta_c, v)
            back = fixed_point_from_state(m, rep.beta_c, state)
            assert back == pytest.approx(v, rel=1e-10)

    def test_round_trip_state_vector_state(self):
        m = full_model(2)
        state = invariant_state_from_fixed_point(m, 1.0, [1.0, 1.0])
        v = fixed_point_from_state(m, 1.0, state)
        again = invariant_state_from_fixed_point(m, 1.0, v)
        assert again.atom_masses == pytest.approx(state.atom_masses, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(NotNormalizedError):
            invariant_state_from_fixed_point(full_model(2), 1.0, [0.0, 0.0])

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntryError):
            invariant_state_from_fixed_point(full_model(2), 1.0, [3.0, -1.0])

    def test_non_fixed_point_rejected(self):
        m = golden_mean_model()
        v = np.array([1.0, 1.0])
        v = v / float((m.energies ** -1.0) @ v)
        with pytest.raises(NotFixedPointError):
            invariant_state_from_fixed_point(m, 1.0, v)

    def test_vector_whose_state_breaks_invariance_rejected(self):
        # at beta_c its residual is 4.6e-10, but its state's gaps are
        # (-2.35e-10, 1.55e-10): is_subinvariant calls it neither
        # subinvariant nor invariant
        m = build_model([[1, 1], [1, 0]], [2, 3])
        beta, v = 0.6009668516136756, [1.0000000002351581, 0.6593119555920595]
        space = column_space(m)
        state = qstate_from_atoms(space, beta, space.push(m.weights(beta) * v), INFINITE)
        verdict = is_subinvariant(m, beta, state)
        assert not verdict.subinvariant and not verdict.invariant
        with pytest.raises(NotFixedPointError):
            invariant_state_from_fixed_point(m, beta, v)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10_000), st.data())
    def test_builder_accepts_exactly_the_invariant_states(self, m_size, seed, data):
        # the critical Perron vector moved by at most 1e-9 per entry along
        # directions that keep sum N^-beta v = 1
        rng = np.random.default_rng(seed)
        m = random_irreducible(rng, m_size, non_permutation=True, energy_range=(1.5, 4.0))
        rep = beta_c(m)
        beta, nw = rep.beta_c, m.weights(rep.beta_c)
        moves = np.array(data.draw(st.lists(st.floats(-1e-9, 1e-9), min_size=m.m,
                                            max_size=m.m)))
        v = rep.perron_at_critical + moves - (nw @ moves) / (nw @ nw) * nw
        space = column_space(m)
        built = qstate_from_atoms(space, beta, space.push(nw * v), INFINITE)
        invariant = is_subinvariant(m, beta, built).invariant
        try:
            state = invariant_state_from_fixed_point(m, beta, v)
        except NotFixedPointError:
            assert not invariant
        else:
            assert invariant and state == built
            assert decompose(m, beta, state).finite_fraction == 0.0
            assert np.array_equal(fixed_point_from_state(m, beta, state), state.q)

    def test_finite_type_state_is_not_invariant(self):
        m = full_model(2)
        space = column_space(m)
        state = finite_type_state(m, 2.0, RootMeasure.delta(space, 0))
        with pytest.raises(NotInvariantError):
            fixed_point_from_state(m, 2.0, state)
