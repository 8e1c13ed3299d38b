"""The three workloads: seeded models, fixed job lists and output checks.

Each job is one in-process ``kmsphase.cli.main(argv)`` call with stdout
captured, or, for ``states.cooling`` (no CLI subcommand), one library call.
Every job has a check against reference values computed here with numpy
and scipy only.  A check raises `CheckError` on a wrong output.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import models as gen
import reference as ref

# Sizes per workload; the smoke preset keeps every job kind with small models.
SIZES = {
    False: {
        "phase_m": (8, 8, 8, 8, 8, 8, 8, 32, 32, 32, 32, 128), "full_m": 8,
        "star_K": (32, 128, 256), "crit_m": (32, 400), "levels": "8,32,128",
        "blocks": ((6, 6), (6, 10), (8, 16), (8, 8, 8), (10, 10, 10),
                   (12, 24), (12, 12, 12), (14, 14, 14), (16, 16, 16)),
        "cert_m": (6, 6, 7, 7, 9, 9, 9), "oracle_words": 30_000, "abscissa_words": 10_000,
    },
    True: {
        "phase_m": (8, 12, 16), "full_m": 4,
        "star_K": (16, 32), "crit_m": (16, 24), "levels": "8,16",
        "blocks": ((4, 4), (4, 4, 4)),
        "cert_m": (5, 6), "oracle_words": 700, "abscissa_words": 300,
    },
}

NEAR_ONE_ENERGY = 1.0 + 1e-9
ORACLE_BETA = 1.0


class CheckError(Exception):
    """A job's output disagrees with its reference."""


@dataclass
class Job:
    """One user job.  ``argv`` may hold a `BetaFrom` placeholder that takes
    the beta_c printed by an earlier job of the same pass; ``library`` holds
    (model name, beta, atoms, beta') for a `states.cooling` call."""

    label: str
    check: Callable
    argv: list = field(default_factory=list)
    library: tuple | None = None
    spectrum: str = ""  # "primitive", "periodic" or "reducible"


@dataclass(frozen=True)
class BetaFrom:
    label: str


@dataclass
class Spec:
    models: dict
    jobs: list
    probes: list  # jobs run once, outside the timed loop


# --- check helpers --------------------------------------------------------

def _close(what: str, got, want, rtol: float = 0.0, atol: float = 0.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckError(f"{what}: shape {got.shape} != {want.shape}")
    if not np.all(np.abs(got - want) <= atol + rtol * np.abs(want)):
        err = float(np.max(np.abs(got - want)))
        raise CheckError(f"{what}: max error {err:.3g} beyond atol {atol} rtol {rtol}")


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _json(rc, out: str) -> dict:
    _require(rc == 0, f"exit status {rc}")
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from exc


def _beta_tol(beta: float) -> float:
    return 1e-8 * max(1.0, abs(beta))


# --- checks ---------------------------------------------------------------

def check_analyze(model, beta_c, space):
    def check(rc, out):
        rep = _json(rc, out)
        _close("beta_c", rep["critical"]["beta_c"], beta_c, atol=_beta_tol(beta_c))
        _require(rep["column_space"]["d"] == space.d, f"d {rep['column_space']['d']} != {space.d}")
        _require(rep["properties"]["irreducible"] is True, "model reported reducible")
    return check


def check_sweep(model, beta_c, grid):
    rows = []
    for b in grid:
        r = ref.radius(model.matrix, model.energies, b)
        z = ref.partition_z(model.matrix, model.energies, b)[0] if r < 1.0 else math.inf
        rows.append((b, r, z, "below" if b < beta_c else "above"))

    def check(rc, out):
        _require(rc == 0, f"exit status {rc}")
        lines = out.splitlines()
        _require(lines[0] == "beta,spectral_radius,z_total,regime", "bad CSV header")
        _require(len(lines) == len(rows) + 1, f"{len(lines) - 1} rows, expected {len(rows)}")
        for line, (b, r, z, regime) in zip(lines[1:], rows):
            beta_s, r_s, z_s, regime_s = line.split(",")
            _close("beta", float(beta_s), b, rtol=1e-15)
            _close(f"r({b:.6g})", float(r_s), r, rtol=1e-9)
            _require(regime_s == regime, f"regime at {b:.6g}: {regime_s} != {regime}")
            if math.isinf(z):
                _require(z_s == "inf", f"Z({b:.6g}) should diverge")
            else:
                _close(f"Z({b:.6g})", float(z_s), z, rtol=1e-8)
    return check


def _states(regime) -> tuple[np.ndarray, np.ndarray]:
    atoms = np.array([s["atom_masses"] for s in regime["extreme_states"]], dtype=float)
    q = np.array([s["q_values"] for s in regime["extreme_states"]], dtype=float)
    return atoms, q


def check_kms(model, beta, beta_c, space):
    """Regime kind plus every extreme state against the reference formulas."""
    if math.isinf(beta):
        kind = "ground"
        want_atoms = np.eye(space.d)
        want_q = space.points
    elif beta < beta_c:
        kind, want_atoms, want_q = "below", np.zeros((0, space.d)), np.zeros((0, model.m))
    elif beta == beta_c:
        kind = "critical"
        atoms, q = ref.perron_state(model.matrix, model.energies, beta_c, space)
        want_atoms, want_q = atoms[None, :], q[None, :]
    else:
        kind = "above"
        want_atoms = ref.finite_type_atoms(model.matrix, model.energies, beta, space, np.eye(space.d)).T
        want_q = want_atoms @ space.points

    def check(rc, out):
        regime = _json(rc, out)["regime"]
        _require(regime["kind"] == kind, f"regime {regime['kind']} != {kind}")
        if kind != "below":
            _require(regime["simplex_dim"] == (0 if kind == "critical" else space.d - 1),
                     f"simplex_dim {regime['simplex_dim']}")
        _require(len(regime["extreme_states"]) == len(want_atoms),
                 f"{len(regime['extreme_states'])} extreme states, expected {len(want_atoms)}")
        atoms, q = _states(regime)
        tol = 1e-7 if kind == "critical" else 1e-9
        _close("extreme atoms", atoms.reshape(want_atoms.shape), want_atoms, atol=tol)
        _close("extreme q", q.reshape(want_q.shape), want_q, rtol=tol, atol=tol)
    return check


def check_critical(model, beta_c, abscissa=None):
    def check(rc, out):
        rep = _json(rc, out)
        _close("beta_c", rep["critical"]["beta_c"], beta_c, atol=_beta_tol(beta_c))
        _require(rep["critical"]["permutation_like"] is False, "flagged permutation-like")
        if abscissa is not None:
            _close("abscissa estimate", rep["abscissa_estimate"]["estimate"], abscissa,
                   atol=_beta_tol(abscissa))
    return check


def check_oa_scan(model, temperatures):
    def check(rc, out):
        scan = _json(rc, out)["scan"]
        got = [s["beta"] for s in scan["simplices"]]
        _require(len(got) == len(temperatures), f"{len(got)} temperatures, expected {len(temperatures)}")
        _close("quotient temperatures", got, temperatures, atol=_beta_tol(max(temperatures)))
        _require(scan["grid_flags"] == [], f"unexpected grid flags {scan['grid_flags']}")
        for s in scan["simplices"]:
            _require(len(s["extreme_vectors"]) == 1, "expected one extreme fixed vector")
            v = np.asarray(s["extreme_vectors"][0])
            m_beta = ref.transfer(model.matrix, model.energies, s["beta"])
            _require(v.min() >= 0.0, "negative fixed-vector entry")
            _close("fixed-vector residual", m_beta @ v, v, atol=1e-7 * max(1.0, v.max()))
            _close("fixed-vector normalization", ref.weights(model.energies, s["beta"]) @ v, 1.0, atol=1e-9)
    return check


def check_star(levels, beta_cs, z0s):
    def check(rc, out):
        rep = _json(rc, out)
        _require(rep["system"]["beta_bar"] == 1.0, "beta_bar != 1")
        _require(rep["system"]["normalization_condition_certified"] is True, "normalization not certified")
        table = rep["truncations"]
        _require([t["K"] for t in table] == list(levels), "truncation levels differ")
        _close("truncated beta_c", [t["beta_c"] for t in table], beta_cs, atol=1e-8)
        _close("truncated z0", [t["z0_truncated"] for t in table], z0s, rtol=1e-9)
        _close("critical-state normalizers", [s["z_check"] for s in rep["critical_states"]], [1.0, 1.0], atol=1e-9)
    return check


def check_oracle(counts, sums):
    def check(rc, out):
        _require(rc == 0, f"exit status {rc}")
        lines = out.splitlines()
        _require(lines[0] == "n,count,shell_sum", "bad CSV header")
        _require(len(lines) == len(counts) + 1, f"{len(lines) - 1} shells, expected {len(counts)}")
        for n, line in enumerate(lines[1:]):
            n_s, count_s, sum_s = line.split(",")
            _require(int(n_s) == n and int(count_s) == counts[n],
                     f"shell {n}: count {count_s}, expected {counts[n]}")
            _close(f"shell sum {n}", float(sum_s), sums[n], rtol=1e-10)
    return check


def check_state(model, beta, space, atoms, subinvariant):
    gap = ref.gaps(model.matrix, model.energies, beta, space, atoms)
    defect = np.clip(gap, 0.0, None)
    shells = ref.omega_shells(model.matrix, model.energies, beta, atoms @ space.points, 10)

    def check(rc, out):
        rep = _json(rc, out)
        verdict = rep["verdict"]
        _require(verdict["subinvariant"] is subinvariant, f"verdict {verdict['subinvariant']} != {subinvariant}")
        _require(verdict["invariant"] is False, "state reported invariant")
        if not subinvariant:
            _require("decomposition" not in rep and verdict["worst_violation"] is not None,
                     "rejected state without a violation witness")
            return
        dec = rep["decomposition"]
        _close("finite fraction", dec["finite_fraction"], 1.0, atol=1e-9)
        _close("finite root measure", dec["gamma_finite"], defect, atol=1e-9)
        _require(rep["factors_through_quotient"] is False, "finite-type state factors through the quotient")
        _close("infinite-stem shells", rep["infinite_stem_mass"], shells, rtol=1e-9, atol=1e-15)
    return check


def check_cooling(model, beta_prime, space, atoms):
    gamma = np.clip(ref.gaps(model.matrix, model.energies, beta_prime, space, atoms), 0.0, None)
    want = ref.finite_type_atoms(model.matrix, model.energies, beta_prime, space, gamma[:, None])[:, 0]

    def check(rc, state):
        _require(rc == 0, "cooling raised")
        _require(state.beta == beta_prime and state.type_tag.kind == "finite", "cooled state mislabelled")
        _close("cooled atoms", state.atom_masses, want, atol=1e-9)
    return check


# --- job lists ------------------------------------------------------------

def _spectrum(model) -> str:
    """'primitive' when r is the only eigenvalue of maximal modulus."""
    vals = np.abs(np.linalg.eigvals(model.matrix.astype(float)))
    return "primitive" if (vals >= vals.max() * (1 - 1e-9)).sum() == 1 else "periodic"


def _argv(cmd: str, model, *rest) -> list:
    return [cmd, "--model", model.path, *rest]


def _phase_diagram(seed: int, sizes: dict, workdir: str) -> Spec:
    models = [gen.golden_mean(), gen.full(sizes["full_m"])]
    models += [gen.random_irreducible(gen.rng_for(seed, 100 + i), m, f"random{m}-{i}")
               for i, m in enumerate(sizes["phase_m"])]
    jobs = []
    for model in models:
        model.write(workdir)
        spectrum = _spectrum(model)
        if spectrum != "primitive":
            raise RuntimeError(f"{model.name} is not primitive")
        beta_c = ref.beta_c(model.matrix, model.energies)
        space = ref.ColumnSpace(model.matrix)
        analyze = f"analyze {model.name}"
        jobs.append(Job(analyze, check_analyze(model, beta_c, space), _argv("analyze", model), spectrum=spectrum))
        grid = [float(b) for b in np.linspace(0.5 * beta_c, 1.5 * beta_c, 20)]
        jobs.append(Job(f"partition-sweep {model.name}", check_sweep(model, beta_c, grid),
                        _argv("partition", model, "--sweep", f"{grid[0]!r}:{grid[-1]!r}:20"), spectrum=spectrum))
        for factor in (0.5, 1.0, 1.5, 2.0, math.inf):
            beta = beta_c * factor
            if factor == 1.0:
                label, arg = f"kms {model.name} beta_c", BetaFrom(analyze)
            else:
                label, arg = f"kms {model.name} {factor}*beta_c", repr(beta)
            jobs.append(Job(label, check_kms(model, beta, beta_c, space),
                            _argv("kms", model, "--beta", arg), spectrum=spectrum))
    return Spec({m.name: m for m in models}, jobs, [])


def _temperatures(seed: int, sizes: dict, workdir: str) -> Spec:
    models = [gen.star_truncation(K) for K in sizes["star_K"]]
    models += [gen.random_irreducible(gen.rng_for(seed, 200 + m), m, f"random{m}") for m in sizes["crit_m"]]
    jobs = []
    for model in models:
        model.write(workdir)
        beta_c = ref.beta_c(model.matrix, model.energies)
        jobs.append(Job(f"critical {model.name}", check_critical(model, beta_c),
                        _argv("critical", model), spectrum=_spectrum(model)))
    for i, blocks in enumerate(sizes["blocks"]):
        model = gen.block_triangular(gen.rng_for(seed, 300 + i), blocks, f"blocks{i}-{sum(blocks)}",
                                     lambda b: ref.beta_c(b.matrix, b.energies))
        model.write(workdir)
        models.append(model)
        jobs.append(Job(f"oa-scan {model.name}",
                        check_oa_scan(model, ref.oa_temperatures(model.matrix, model.energies)),
                        _argv("oa", model, "--scan"), spectrum="reducible"))
    levels = [int(k) for k in sizes["levels"].split(",")]
    beta_cs, z0s = [], []
    for K in levels:
        trunc = gen.star_truncation(K)
        beta_cs.append(ref.beta_c(trunc.matrix, trunc.energies))
        z0s.append(float(ref.partition_z(trunc.matrix, trunc.energies, 1.0)[1][0]))
    jobs.append(Job(f"star levels {sizes['levels']}", check_star(levels, beta_cs, z0s),
                    ["star", "--levels", sizes["levels"]], spectrum="periodic"))

    # Known defect, kept visible: beta_c = log(phi) / log(1 + 1e-9) ~ 4.8e8 lies
    # beyond the bracket cap of the current root-finder, which exits 2.
    near = gen.golden_mean(NEAR_ONE_ENERGY, name="golden-near-one")
    near.write(workdir)
    models.append(near)
    analytic = math.log((1 + math.sqrt(5)) / 2) / math.log(NEAR_ONE_ENERGY)
    probe = Job("critical golden-near-one", check_critical(near, analytic),
                _argv("critical", near), spectrum="primitive")
    return Spec({m.name: m for m in models}, jobs, [probe])


def _nearest_length(words: list[int], target: int) -> int:
    """The n >= 2 whose words[n] is nearest to target on a log scale."""
    return min(range(2, len(words)), key=lambda n: abs(math.log(words[n] / target)))


def _certify(seed: int, sizes: dict, workdir: str) -> Spec:
    models = [gen.golden_mean(), gen.full(3)]
    models += [gen.random_irreducible(gen.rng_for(seed, 400 + i), m, f"random{m}-{i}")
               for i, m in enumerate(sizes["cert_m"])]
    jobs = []
    for model in models:
        model.write(workdir)
        space = ref.ColumnSpace(model.matrix)
        spectrum = _spectrum(model)
        counts = ref.shell_counts(model.matrix, 40)
        cumulative = list(itertools.accumulate(counts))
        L = _nearest_length(cumulative, sizes["oracle_words"])
        sums = ref.shell_sums(model.matrix, model.energies, ORACLE_BETA, L)
        jobs.append(Job(f"oracle {model.name} L={L}", check_oracle(counts[:L + 1], sums),
                        _argv("oracle", model, "--beta", repr(ORACLE_BETA), "--max-length", str(L)),
                        spectrum=spectrum))
        La = _nearest_length(counts, sizes["abscissa_words"])
        beta_c = ref.beta_c(model.matrix, model.energies)
        jobs.append(Job(f"critical {model.name} abscissa L={La}",
                        check_critical(model, beta_c, ref.abscissa(model.matrix, model.energies, La)),
                        _argv("critical", model, "--abscissa-check", str(La)), spectrum=spectrum))
        for name, beta, atoms, accepted in _certify_states(model, space, beta_c):
            path = f"{workdir}/{model.name}-{name}.state.json"
            with open(path, "w") as fh:
                json.dump({"beta": beta, "atom_masses": atoms.tolist()}, fh)
            jobs.append(Job(f"check-state {model.name} {name}", check_state(model, beta, space, atoms, accepted),
                            _argv("check-state", model, "--state", path, "--exhaustive"), spectrum=spectrum))
            if accepted:
                beta_prime = 1.25 * beta
                jobs.append(Job(f"cooling {model.name} {name}", check_cooling(model, beta_prime, space, atoms),
                                library=(model.name, beta, atoms, beta_prime), spectrum=spectrum))
    return Spec({m.name: m for m in models}, jobs, [])


def _certify_states(model, space, beta_c):
    """Extreme finite-type states (accepted) and perturbed ones (rejected).

    Perturbations: half of an extreme state moved onto another point mass,
    and an extreme state declared at a beta below beta_c.  Only states whose
    reference verdict holds with a wide margin are kept.
    """
    beta = 1.5 * beta_c
    extremes = ref.finite_type_atoms(model.matrix, model.energies, beta, space, np.eye(space.d)).T
    picks = sorted({0, space.d - 1})
    out = [(f"extreme{c}", beta, extremes[c], True) for c in picks]
    if space.d > 1:
        mixes = [0.5 * extremes[0] + 0.5 * np.eye(space.d)[c] for c in range(1, space.d)]
        worst = [ref.gaps(model.matrix, model.energies, beta, space, a).min() for a in mixes]
        c = int(np.argmin(worst))
        out.append((f"mixed0-{c + 1}", beta, mixes[c], False))
    out.append(("extreme0-below", 0.8 * beta_c, extremes[0], False))
    for name, b, atoms, accepted in out:
        worst = ref.gaps(model.matrix, model.energies, b, space, atoms).min()
        if (worst < -1e-12) if accepted else (worst > -1e-6):
            raise RuntimeError(f"{model.name} {name}: reference verdict too close to call ({worst})")
    return out


def build(workload: str, seed: int, smoke: bool, workdir: str) -> Spec:
    builders = {"phase_diagram": _phase_diagram, "temperatures": _temperatures, "certify": _certify}
    return builders[workload](seed, SIZES[smoke], workdir)
