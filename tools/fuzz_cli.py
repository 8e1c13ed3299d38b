"""Seeded search for CLI runs that fail on in-domain models.

    python3 tools/fuzz_cli.py SEED COUNT [--family NAME ...]

Builds COUNT random models from SEED, irreducible and reducible, with
m = 2..8 letters, cycling through the energy families

    uniform    N(x) uniform in [1.5, 5]
    split      N(x) drawn from {2, 10^6}
    near-one   N(x) = 1 + 10^u, u uniform in [-9, 1.1]

(``--family`` keeps only the named ones).  Each model goes through every
subcommand: ``analyze``, ``critical`` (plain and with ``--abscissa-check``),
``partition`` (``--beta`` and ``--sweep``), ``kms``, ``oa`` (``--beta`` and
``--scan``), ``check-state --exhaustive`` on states that ``kms`` printed,
``oracle`` (all words, and from letter 0 to letter m - 1) and ``star``;
``oracle`` and ``critical --abscissa-check`` also run once to length 10^5
under a cap of 1000 words.  The temperatures are read off the model's
class roots: each root, half and twice the largest, and +inf where it is
allowed; ``partition --beta`` also runs at 8 and 32 times the largest
root.

Every run calls ``kmsphase.cli.main`` in this process with RuntimeWarning
turned into an error, as ``python -W error::RuntimeWarning`` would, and
every other warning printed.  A run is reported when its exit status is
neither 0 nor 1, when its stderr holds a warning or a traceback, when it
takes over 1 s, or when it is an ``analyze`` that exits 0 with a column
space other than the brute-force one (the distinct column bit strings
sorted, each letter's index among them, their number and whether the zero
column is one), or a ``partition --beta`` that exits 0 with a
``spectral_radius`` more than 1e-9 of it plus 8 m eps ||M||_1 away from
max |eigvals(M)|, M = A N^-beta (or not finite), or whose ``z_total`` or
some ``Z_y`` lies below ``kmsphase.partial_series`` (the word sum to the
longest length L <= 64 whose shells 1..L hold at most 2 10^4 words) by more
than 8 m eps kappa_1 of the printed value, kappa_1 the printed
``condition_estimate``, or a ``partition --sweep``
that exits 0 with a row whose radius misses the same test or whose z_total
is not inf exactly when that radius is at least 1, or a ``critical`` that
exits 0, on a system that is not permutation-like, with a beta_c whose
bracket does not hold the root of max |eigvals(M)| = 1: with
d = 1e-9 max(1, beta_c), that radius must be above 1 at
beta_c - bracket_width - d and at most 1 at beta_c + bracket_width + d, or
an ``oa --scan`` that exits 0 with a temperature beta at which no strong
class C has a radius, max |eigvals| of its block of M, above 1 at
max(0, beta - d) and at most 1 at beta + d, d = 1e-9 max(1, beta), or
an ``oracle`` that exits 0 with a row that ``kmsphase.enumerate_words``, the
independent depth-first search, does not reproduce: in every shell of at
most 2 10^4 words the count must match exactly and the sum within 1e-12
relative (the search weighs a word
by exp(-beta log N(mu)), not by products), or a ``critical
--abscissa-check L`` that exits 0 with an estimate the same search does
not confirm, where shell L holds at most 2 10^4 words: an estimate of 0
needs shell L to hold no more words than shell L - 1, and any other needs
the shell ratio S_L / S_{L-1} above 1 at max(0, est - d) and below 1 at
est + d, d = 1e-6 max(1, est) (a point where a shell sum underflows to 0
is not judged), or a ``check-state --exhaustive`` that exits 0 on the state
a ``kms`` run printed with a verdict that does not accept it as
subinvariant, or, at a beta above the largest class root, with a
``finite_fraction`` more than 1e-6 away from 1.  After ``kms`` at twice the
largest root, on a model of at least 3 column points, one more
``check-state --exhaustive`` runs on a near-invariant state: the first
extreme state, its atoms moved (total unchanged, by a least-norm numpy
solve on the brute-force column space) until its gaps at points 1 and 2
are -0.9 ``gap_tol`` as printed in the settings, kept when every gap stays
at least -``gap_tol``; that run is reported unless it exits 0 and accepts
the state.  Each report is one line: the
family, the reason, the wall time and the argv.  The model JSON is inline
in the argv (on one line for even model numbers, indented by one space for
odd ones), and a ``check-state`` line shows the state JSON in place of
its file, so the line is its own reproducer.  The last line, on stderr,
counts models, runs and reports; the exit status is 1 when anything was
reported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from kmsphase import build_model, cli, enumerate_words, partial_series, partition  # noqa: E402

FAMILIES = ("uniform", "split", "near-one")
SLOW_S = 1.0
WORD_CAP = 100_000
LONG_LENGTH, SMALL_CAP = 100_000, 1000
ORACLE_WORDS, ORACLE_RTOL = 20_000, 1e-12
FLOOR_LENGTH = 64
ABSCISSA_STEP = 1e-6
CRITICAL_STEP = 1e-9
FRACTION_TOL = 1e-6
EPS = float(np.finfo(float).eps)


def _energies(rng: np.random.Generator, family: str, m: int) -> list[float]:
    if family == "uniform":
        return rng.uniform(1.5, 5.0, size=m).tolist()
    if family == "split":
        return rng.choice([2.0, 1e6], size=m).tolist()
    return (1.0 + 10.0 ** rng.uniform(-9.0, 1.1, size=m)).tolist()


def _reach(a: np.ndarray) -> np.ndarray:
    """Whether a walk leads from letter i to letter j (or i == j)."""
    # (I + A)^(m-1) counts walks of length < m: below 3^8 entries for m <= 8
    return np.linalg.matrix_power(np.eye(len(a), dtype=np.int64) + a, len(a) - 1) > 0


def _strongly_connected(a: np.ndarray) -> bool:
    return bool(_reach(a).all())


def _irreducible_block(rng: np.random.Generator, m: int) -> np.ndarray:
    while True:
        a = (rng.random((m, m)) < rng.uniform(0.2, 0.8)).astype(int)
        if _strongly_connected(a):
            return a


def _matrix(rng: np.random.Generator, m: int, reducible: bool) -> np.ndarray:
    """An irreducible 0-1 matrix, or irreducible diagonal blocks linked only forward."""
    if not reducible:
        return _irreducible_block(rng, m)
    cuts = np.sort(rng.choice(np.arange(1, m), size=int(rng.integers(1, min(m - 1, 2) + 1)),
                              replace=False))
    bounds = list(zip([0, *cuts], [*cuts, m]))
    a = np.zeros((m, m), dtype=int)
    for lo, hi in bounds:
        # a block of one letter may lack its loop (r_C = 0)
        a[lo:hi, lo:hi] = _irreducible_block(rng, hi - lo) if hi - lo > 1 else int(rng.integers(2))
    for lo, hi in bounds[:-1]:
        # a link from each block to a later letter; a one-letter block's only row gets it
        a[rng.integers(lo, hi), rng.integers(hi, m)] = 1
    if not a[-1].any():
        a[-1, -1] = 1
    return a


def _betas(model) -> tuple[list[float], float]:
    """The class roots and the largest of them (1.0 when no class has one)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            roots = sorted({r.beta for r in partition.class_roots(model) if r.beta is not None})
    except Exception:    # the CLI runs report the failure
        roots = []
    roots = [b for b in roots if math.isfinite(b) and b > 0]
    return roots, (roots[-1] if roots else 1.0)


def _run(argv: list[str]) -> tuple[object, str, str, float]:
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = exc.code
            except Exception:
                traceback.print_exc()
                status = 1
    return status, stdout.getvalue(), stderr.getvalue(), time.perf_counter() - start


def _problem(status, err: str, seconds: float) -> str | None:
    if status not in (0, 1):
        return f"exit {status}: {err.strip().splitlines()[-1] if err.strip() else ''}"
    if "Traceback" in err:
        return "traceback: " + err.strip().splitlines()[-1]
    if "Warning" in err:
        return "warning: " + next(line for line in err.splitlines() if "Warning" in line)
    if seconds > SLOW_S:
        return "slow"
    return None


def _column_space_problem(model, out: str) -> str | None:
    """An ``analyze`` column space other than the brute-force one: the
    distinct column bit strings sorted, the index of each letter's column
    among them, their number and whether the zero column is one; else None."""
    cols = ["".join(str(b) for b in column) for column in model.matrix.T.tolist()]
    points = sorted(set(cols))
    want = {"d": len(points), "points": points, "column_of": [points.index(c) for c in cols],
            "contains_zero": "0" * model.m in points}
    got = json.loads(out)["column_space"]
    if got != want:
        return f"column space {got}, brute force gives {want}"
    return None


def _radius_problem(model, argv: list[str], out: str) -> str | None:
    """A ``partition --beta`` radius, or that of a ``--sweep`` row, more than
    1e-9 relative plus 8 m eps ||M||_1 away from max |eigvals(M)|,
    M = A N^-beta, or a sweep row whose z_total is not inf exactly when its
    radius is at least 1; else None."""
    if "--sweep" in argv:
        for row in out.splitlines()[1:]:
            beta, radius, z_total, _ = row.split(",")
            beta, radius = float(beta), float(radius)
            problem = _radius_gap(model, beta, radius)
            if problem is None and (z_total == "inf") != (radius >= 1.0):
                problem = f"radius {radius!r} with z_total {z_total}"
            if problem is not None:
                return f"sweep row {beta!r}: {problem}"
        return None
    beta = float(next(a for a in argv if a.startswith("--beta=")).split("=", 1)[1])
    return _radius_gap(model, beta, json.loads(out)["partition"]["spectral_radius"])


def _floor_problem(model, argv: list[str], out: str) -> str | None:
    """A convergent ``partition --beta`` whose ``z_total`` or some ``Z_y``
    lies below its word sum by more than 8 m eps kappa_1 of the printed
    value, kappa_1 the printed ``condition_estimate``; else None.  The word
    sum is ``partial_series`` to the longest length L, at most
    ``FLOOR_LENGTH``, whose shells 1..L hold at most ``ORACLE_WORDS`` words.
    Each of its words is a term of the series, so the solve's value falls
    short of it only by its own error."""
    report = json.loads(out)["partition"]
    if not report["convergent"]:
        return None
    beta = float(next(a for a in argv if a.startswith("--beta=")).split("=", 1)[1])
    # shell[y]: the words of length L + 1 that end in y
    length, words, shell = 0, 0, np.ones(model.m, dtype=np.int64)
    while length < FLOOR_LENGTH and words + shell.sum() <= ORACLE_WORDS:
        length, words, shell = length + 1, words + shell.sum(), shell @ model.matrix
    slack = 8 * model.m * EPS * float(report["condition_estimate"])
    for name, got, target in [("z_total", report["z_total"], None),
                              *((f"Z_{y}", z, y) for y, z in enumerate(report["z_y"]))]:
        want = partial_series(model, beta, length, target=target, cap=ORACLE_WORDS)
        if not got + slack * got >= want:
            return f"{name} {got!r} below its word sum to length {length}, {want!r}"
    return None


def _eigvals_radius(entries: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(entries)).max())


def _radius_gap(model, beta: float, got) -> str | None:
    # a non-finite radius is printed as the string "inf" or "nan"
    got = float(got)
    entries = model.matrix * model.weights(beta)
    want = _eigvals_radius(entries)
    slack = 1e-9 * want + 8 * model.m * EPS * float(entries.sum(axis=0).max())
    if not math.isfinite(got) or abs(got - want) > slack:
        return f"radius {got!r}, eigenvalues give {want!r}"
    return None


def _critical_problem(model, out: str) -> str | None:
    """A ``critical`` beta_c whose bracket, widened by d = ``CRITICAL_STEP``
    max(1, beta_c), does not hold the root of max |eigvals(M)| = 1: the
    radius must be above 1 at beta_c - bracket_width - d (at 0 where that is
    negative: the radius only grows below it) and at most 1 at
    beta_c + bracket_width + d; else None, and None for a permutation-like
    system."""
    report = json.loads(out)["critical"]
    if report["permutation_like"]:
        return None
    beta, width = float(report["beta_c"]), float(report["bracket_width"])
    d = CRITICAL_STEP * max(1.0, beta)
    below, above = max(0.0, beta - width - d), beta + width + d
    r_below, r_above = (_eigvals_radius(model.matrix * model.weights(b)) for b in (below, above))
    if not (r_below > 1.0 and r_above <= 1.0):
        return (f"beta_c {beta!r} +- {width!r}, but eigenvalues give radii "
                f"{r_below!r} at {below!r} and {r_above!r} at {above!r}")
    return None


def _scan_problem(model, out: str) -> str | None:
    """An ``oa --scan`` temperature beta at which no strong class C has a
    radius r_C, max |eigvals| of its block of M = A N^-beta, above 1 at
    max(0, beta - d) and at most 1 at beta + d, d = ``CRITICAL_STEP``
    max(1, beta); else None."""
    reach = _reach(model.matrix)
    classes = [np.ix_(c, c) for c in map(np.flatnonzero, np.unique(reach & reach.T, axis=0))]
    for simplex in json.loads(out)["scan"]["simplices"]:
        beta = float(simplex["beta"])
        d = CRITICAL_STEP * max(1.0, beta)
        below, above = (model.matrix * model.weights(b) for b in (max(0.0, beta - d), beta + d))
        if not any(_eigvals_radius(below[c]) > 1.0 >= _eigvals_radius(above[c]) for c in classes):
            return f"scan temperature {beta!r}: no class radius from eigenvalues crosses 1 there"
    return None


def _oracle_problem(model, argv: list[str], out: str) -> str | None:
    """The first ``oracle`` row, among the shells of at most ``ORACLE_WORDS``
    words, whose count differs from the depth-first enumeration's or whose
    sum is more than ``ORACLE_RTOL`` relative away from its; else None."""
    beta = float(next(a for a in argv if a.startswith("--beta=")).split("=", 1)[1])
    source, target = (int(argv[argv.index(flag) + 1]) if flag in argv else None
                      for flag in ("--source", "--target"))
    for row in out.splitlines()[1:]:
        n, count, got = row.split(",")
        n, count, got = int(n), int(count), float(got)
        if count > ORACLE_WORDS:
            break
        found = enumerate_words(model, n)
        # the count column counts every word; the sum keeps the ends asked for
        want = math.fsum(w.weight(beta) for w in found if source in (None, *w.letters[:1])
                         and target in (None, *w.letters[-1:]))
        if len(found) != count or abs(got - want) > ORACLE_RTOL * want:
            return f"oracle row {n}: {count}, {got!r}; enumeration gives {len(found)}, {want!r}"
    return None


def _abscissa_problem(model, argv: list[str], out: str) -> str | None:
    """A ``critical --abscissa-check L`` estimate that the depth-first
    enumeration does not confirm, in a shell L of at most ``ORACLE_WORDS``
    words; else None."""
    L = int(argv[argv.index("--abscissa-check") + 1])
    paths = np.ones(model.m, dtype=np.int64)
    for _ in range(L - 1):
        # words of each first letter; with no zero row, shells never shrink
        paths = model.matrix @ paths
        if paths.sum() > ORACLE_WORDS:
            return None
    est = json.loads(out)["abscissa_estimate"]["estimate"]
    longer, shorter = enumerate_words(model, L), enumerate_words(model, L - 1)
    if est == 0.0:
        if len(longer) > len(shorter):
            return (f"abscissa 0, but shell {L} holds {len(longer)} words "
                    f"and shell {L - 1} {len(shorter)}")
        return None
    d = ABSCISSA_STEP * max(1.0, est)
    for beta, grows in ((max(0.0, est - d), True), (est + d, False)):
        s_l, s_s = (math.fsum(w.weight(beta) for w in found) for found in (longer, shorter))
        if s_l > 0.0 and s_s > 0.0 and (s_l > s_s) != grows:
            return f"abscissa {est!r}, but S_{L} / S_{L - 1} = {s_l / s_s!r} at beta = {beta!r}"
    return None


def _state_problem(top: float, out: str) -> str | None:
    """A ``check-state`` verdict that rejects the state a ``kms`` run printed,
    or, above the largest class root ``top``, where every state is of finite
    type, a finite fraction more than ``FRACTION_TOL`` away from 1; else None."""
    report = json.loads(out)
    verdict = report["verdict"]
    if not verdict["subinvariant"]:
        return f"verdict rejects a kms state, worst violation {verdict['worst_violation']}"
    fraction = report["decomposition"]["finite_fraction"]
    if float(report["beta"]) > top and abs(fraction - 1.0) > FRACTION_TOL:
        return f"finite fraction {fraction!r} above the largest class root {top!r}"
    return None


def _state_from_kms(out: str) -> dict | None:
    """The barycentre of the extreme states a `kms` report printed, or None."""
    try:
        regime = json.loads(out)["regime"]
        masses = [s["atom_masses"] for s in regime["extreme_states"]]
    except (ValueError, KeyError, TypeError):
        return None
    if not masses:
        return None
    return {"beta": regime["beta"], "atom_masses": np.mean(masses, axis=0).tolist()}


def _near_invariant_state(model, out: str) -> dict | None:
    """The first extreme state a ``kms`` report printed, its atoms moved, with
    their total unchanged, so that its gaps at column points 1 and 2 are
    -0.9 ``gap_tol`` (read from the printed settings); else None.

    The gaps, atoms minus inflow, come from the brute-force column space, as
    in :func:`_column_space_problem`, and the move is the least-norm solution
    of three linear equations.  Each gap keeps the atom rule, but a pair of
    the two points sums past -``gap_tol``.  None also when the model has
    fewer than 3 column points, or when the moved state has a gap below
    -``gap_tol`` or a negative atom.
    """
    try:
        report = json.loads(out)
        regime = report["regime"]
        atoms = np.array(regime["extreme_states"][0]["atom_masses"], dtype=float)
        beta, tol = float(regime["beta"]), float(report["settings"]["gap_tol"])
    except (ValueError, KeyError, TypeError, IndexError):
        return None
    cols = ["".join(str(b) for b in column) for column in model.matrix.T.tolist()]
    points = sorted(set(cols))
    if len(points) < 3:
        return None
    bits = np.array([[int(b) for b in p] for p in points], dtype=float)    # (d, m)
    inflow_of = np.zeros((len(points), model.m))        # letter z flows into its column
    inflow_of[[points.index(c) for c in cols], np.arange(model.m)] = model.energies ** -beta
    gap_map = np.eye(len(points)) - inflow_of @ bits.T  # atoms -> gaps
    gaps = gap_map @ atoms
    lhs = np.vstack([np.ones(len(points)), gap_map[1:3]])
    rhs = np.array([0.0, -0.9 * tol - gaps[1], -0.9 * tol - gaps[2]])
    moved = atoms + np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    if (gap_map @ moved < -tol).any() or (moved < 0.0).any():
        return None
    return {"beta": regime["beta"], "atom_masses": moved.tolist()}


def _commands(rng: np.random.Generator, m: int, model_json: str, roots: list[float], top: float,
              state_path: str, near_path: str):
    """The argv of every run on one model; ``check-state`` follows a `kms` run that printed states."""
    model = ["--model-json", model_json]
    yield ["analyze", *model]
    yield ["critical", *model]
    yield ["critical", *model, "--abscissa-check", str(int(rng.integers(2, 9))),
           "--cap", str(WORD_CAP)]
    for beta in sorted({*roots, 0.5 * top, 2.0 * top}):
        yield ["partition", *model, f"--beta={beta!r}"]
        yield ["oa", *model, f"--beta={beta!r}"]
    # far above the roots, where a nearly split class can stall the power
    # iteration (no draw from rng, so every other run keeps its arguments)
    for beta in (8.0 * top, 32.0 * top):
        yield ["partition", *model, f"--beta={beta!r}"]
    yield ["partition", *model, "--sweep", f"{0.5 * top!r}:{2.0 * top!r}:6"]
    yield ["oa", *model, "--scan"]
    for beta in (0.5 * top, top, 2.0 * top, math.inf):
        yield ["kms", *model, f"--beta={beta!r}"]
        yield ["check-state", *model, "--state", state_path, "--exhaustive"]
        if beta == 2.0 * top:
            # a state the atom rule just accepts (no draw from rng, so every
            # other run keeps its arguments)
            yield ["check-state", *model, "--state", near_path, "--exhaustive"]
    length = str(int(rng.integers(1, 9)))
    yield ["oracle", *model, f"--beta={top!r}", "--max-length", length, "--cap", str(WORD_CAP)]
    # the words from letter 0 to letter m - 1 (no draw from rng, so every
    # other run keeps its arguments)
    yield ["oracle", *model, f"--beta={top!r}", "--max-length", length, "--cap", str(WORD_CAP),
           "--source", "0", "--target", str(m - 1)]
    # lengths far past a small cap: the cap, not the length, must bound the
    # work (no draw from rng, so every other run keeps its arguments)
    yield ["oracle", *model, f"--beta={top!r}", "--max-length", str(LONG_LENGTH),
           "--cap", str(SMALL_CAP)]
    yield ["critical", *model, "--abscissa-check", str(LONG_LENGTH), "--cap", str(SMALL_CAP)]
    levels = ",".join(str(k) for k in sorted(rng.choice(np.arange(1, 65), size=2, replace=False)))
    yield ["star", "--levels", levels, f"--beta={float(rng.uniform(0.5, 3.0))!r}"]


def fuzz(seed: int, count: int, families: tuple[str, ...]) -> tuple[int, int, float]:
    """Run ``count`` models; print one line per problem run.

    Returns the number of runs, the number reported and the longest wall time.
    """
    runs = problems = 0
    slowest = 0.0
    with tempfile.TemporaryDirectory() as workdir:
        state_path = os.path.join(workdir, "state.json")
        near_path = os.path.join(workdir, "near.json")
        for i in range(count):
            rng = np.random.default_rng([seed, i])
            family = families[i % len(families)]
            m = int(rng.integers(2, 9))
            matrix = _matrix(rng, m, reducible=bool(rng.integers(2)))
            energies = _energies(rng, family, m)
            # every other model indented: load_model's byte decoder meets both layouts
            model_json = json.dumps({"matrix": matrix.tolist(), "energies": energies},
                                    indent=1 if i % 2 else None)
            built = build_model(matrix, energies)
            roots, top = _betas(built)
            state = near = None
            for argv in _commands(rng, m, model_json, roots, top, state_path, near_path):
                files = {state_path: state, near_path: near}
                if argv[0] == "check-state":
                    path = argv[argv.index("--state") + 1]
                    if files[path] is None:
                        continue
                    with open(path, "w") as fh:
                        json.dump(files[path], fh)
                status, stdout, stderr, seconds = _run(argv)
                runs += 1
                slowest = max(slowest, seconds)
                if argv[0] == "kms":
                    state = _state_from_kms(stdout) if status == 0 else None
                    near = _near_invariant_state(built, stdout) if status == 0 else None
                problem = _problem(status, stderr, seconds)
                if problem is None and near_path in argv and status != 0:
                    problem = f"exit {status} on a state the atom rule accepts"
                if problem is None and status == 0 and argv[0] == "analyze":
                    problem = _column_space_problem(built, stdout)
                if problem is None and status == 0 and argv[0] == "partition":
                    problem = _radius_problem(built, argv, stdout)
                if problem is None and status == 0 and argv[0] == "partition" \
                        and "--sweep" not in argv:
                    problem = _floor_problem(built, argv, stdout)
                if problem is None and status == 0 and argv[0] == "oracle":
                    problem = _oracle_problem(built, argv, stdout)
                if problem is None and status == 0 and argv[0] == "critical":
                    problem = _critical_problem(built, stdout)
                if problem is None and status == 0 and "--scan" in argv:
                    problem = _scan_problem(built, stdout)
                if problem is None and status == 0 and "--abscissa-check" in argv:
                    problem = _abscissa_problem(built, argv, stdout)
                if problem is None and status == 0 and argv[0] == "check-state":
                    problem = _state_problem(top, stdout)
                if problem is not None:
                    problems += 1
                    shown = [json.dumps(files[a]) if a in files else a for a in argv]
                    print(f"{family} | {problem} | {seconds:.3f} s | {json.dumps(shown)}")
    return runs, problems, slowest


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("seed", type=int)
    p.add_argument("count", type=int)
    p.add_argument("--family", action="append", choices=FAMILIES,
                   help="keep only this energy family (repeatable; default: all three)")
    args = p.parse_args(argv)
    families = tuple(args.family) if args.family else FAMILIES
    start = time.perf_counter()
    runs, problems, slowest = fuzz(args.seed, args.count, families)
    print(f"{args.count} models, {runs} runs, {problems} reported, slowest run {slowest:.3f} s, "
          f"{time.perf_counter() - start:.1f} s in all", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
