"""One digest line per benchmark job, for byte-comparing two checkouts.

    python3 tools/output_digest.py SEED > digest.txt

Builds the three workloads of ``bench/workloads.py`` at SEED and runs every
job and probe once, in job order, through ``kmsphase.cli.main`` with stdout
and stderr captured, as ``bench/run.py`` does (a ``BetaFrom`` argument takes
the beta_c printed by its earlier job).  A cooling job is the library call
``states.cooling``, and its output is the ``repr`` of the cooled state (or
of the exception it raised).  Each line reads

    <workload> | <label> | <exit code> | <sha256 of stdout> | <sha256 of stderr>

with the temporary directory of the model files replaced by a fixed name.
Running it in two checkouts and diffing the files shows every job whose
printed bytes or exit code moved.  It uses the ``src`` and ``bench``
directories next to it and changes nothing under either.
"""

from __future__ import annotations

import os

# one BLAS thread, as in bench/run.py, so that every solve adds in one order
os.environ.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from kmsphase import build_model, cli, column_space, states  # noqa: E402

WORKLOADS = ("phase_diagram", "temperatures", "certify")
WORKDIR = "<workdir>"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _argv(job, outputs: dict) -> list[str]:
    argv = []
    for arg in job.argv:
        if isinstance(arg, workloads.BetaFrom):
            try:
                arg = repr(float(json.loads(outputs[arg.label])["critical"]["beta_c"]))
            except (KeyError, ValueError, TypeError):
                arg = "nan"
        argv.append(arg)
    return argv


def _cooling(job, models: dict) -> tuple[object, str]:
    name, beta, atoms, beta_prime = job.library
    model = models[name]
    try:
        state = states.qstate_from_atoms(column_space(model), beta, atoms, states.FINITE)
        return 0, repr(states.cooling(model, beta, state, beta_prime))
    except Exception as exc:
        return "raised", repr(exc)


def _cli(job, outputs: dict) -> tuple[object, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(_argv(job, outputs))
    except (Exception, SystemExit) as exc:
        rc = f"raised {exc!r}"
    return rc, stdout.getvalue(), stderr.getvalue()


def digest(workload: str, seed: int, workdir: str) -> list[str]:
    spec = workloads.build(workload, seed, False, workdir)
    models = {}
    for name, m in spec.models.items():
        with open(m.path) as fh:
            raw = json.load(fh)
        models[name] = build_model(raw["matrix"], raw["energies"])
    outputs: dict[str, str] = {}
    lines = []
    for job in spec.jobs + spec.probes:
        if job.library is not None:
            rc, out = _cooling(job, models)
            err = ""
        else:
            rc, out, err = _cli(job, outputs)
            outputs[job.label] = out
        out, err = out.replace(workdir, WORKDIR), err.replace(workdir, WORKDIR)
        lines.append(f"{workload} | {job.label} | {rc} | {_sha(out)} | {_sha(err)}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: output_digest.py SEED", file=sys.stderr)
        return 2
    seed = int(argv[0])
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory() as workdir:
            for line in digest(workload, seed, workdir):
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
