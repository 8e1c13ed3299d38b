"""kmsphase benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload phase_diagram --seed 1 --seconds 25 --trace 0

Generates the workload's models from the seed, computes independent
reference values, then repeats the workload's fixed job list (whole passes)
for at least ``--seconds`` seconds and until enough samples lie beyond the
90th percentile.  Every job output is checked, and every job must print the
same bytes on every pass.  Times are reported at a nominal machine speed
(see `calibrate`).  The last stdout line is the result JSON; the line
before it records the environment, sample counts, raw times and known
defects.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and as many passes traced, and reports per-layer metrics
(counts per pass, self time as a share of job time) plus the traced pass
time and the tracing overhead.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in every set-up probe.
BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / ".out"

WORKLOADS = ("phase_diagram", "temperatures", "certify")
DEFAULT_SEED = 1
HELDOUT_SEED = 7919
SETUP_REPEATS = 5
MIN_SAMPLES = 110    # at least 10 latencies strictly beyond the 90th percentile
MIN_PASSES = 2       # every job runs twice, so stdout determinism is checked
CAL_LOOP = 24_000    # calibration loop length
CAL_REF_S = 1e-3     # nominal speed: the calibration loop takes 1 ms


# --- machine speed ------------------------------------------------------

def calibrate() -> float:
    """Seconds a fixed loop takes right now (best of 3).

    The host's speed drifts by tens of percent within seconds, and the
    program's jobs slow down with it.  Every latency is therefore taken
    between two calibrations and reported at the nominal speed at which the
    loop takes CAL_REF_S; the raw figures are kept in ``info.raw``.  The
    loop mixes a builtin's C loop with interpreted arithmetic and indexing,
    since the jobs spend their time in both.
    """
    table = (0.5, 1.5, 2.5, 3.5)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        sum(range(CAL_LOOP))
        acc = 0.0
        for i in range(CAL_LOOP // 8):
            acc += table[i & 3] * 0.5 if i & 1 else -0.25
        best = min(best, time.perf_counter() - t0)
    return best


def at_nominal_speed(raw_s: float, cal_before: float, cal_after: float) -> float:
    return raw_s * CAL_REF_S / (0.5 * (cal_before + cal_after))


# --- the program's set-up, shared by the probes and the main process -----

def program_setup(manifest: dict) -> tuple[float, dict]:
    """Import kmsphase, build and validate every model, run one warm-up job.

    Returns the elapsed seconds and the built models by name.
    """
    t0 = time.perf_counter()
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import kmsphase
    from kmsphase import cli

    built = {}
    for name, path in manifest["models"].items():
        with open(path) as fh:
            raw = json.load(fh)
        built[name] = kmsphase.build_model(raw["matrix"], raw["energies"])
        kmsphase.properties(built[name])
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(manifest["warmup"])
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"warm-up job {manifest['warmup']} exited {rc}")
    return elapsed, built


def setup_probe(manifest_path: str) -> int:
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    before = calibrate()
    elapsed, _ = program_setup(manifest)
    after = calibrate()
    print(json.dumps({"raw_s": elapsed, "setup_s": at_nominal_speed(elapsed, before, after)}))
    return 0


def measure_setup(manifest_path: str) -> list[dict]:
    """Set-up time of SETUP_REPEATS fresh processes, one after another."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", manifest_path],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# --- the closed loop ------------------------------------------------------

@dataclass
class Sample:
    label: str
    seconds: float      # at nominal machine speed
    raw_s: float        # wall time as measured
    ok: bool


class Runner:
    def __init__(self, spec, built, workloads):
        from kmsphase import cli, model, states

        self.spec = spec
        self.built = built
        self.cli, self.model_mod, self.states = cli, model, states
        self.wl = workloads
        self.first_output: dict[str, object] = {}
        self.errors: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.last_outputs: dict[str, object] = {}

    def _invoke(self, job, outputs):
        """Return a thunk running the job, yielding (rc, output)."""
        if job.library is not None:
            name, beta, atoms, beta_prime = job.library
            model = self.built[name]

            def library_call():
                try:
                    state = self.states.qstate_from_atoms(
                        self.model_mod.column_space(model), beta, atoms, self.states.FINITE)
                    return 0, self.states.cooling(model, beta, state, beta_prime)
                except Exception as exc:  # a raising job is a failed job
                    self.errors.setdefault(job.label, repr(exc))
                    return None, repr(exc)
            return library_call

        argv = [self._resolve(a, outputs) for a in job.argv]

        def cli_call():
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = self.cli.main(argv)
            except (Exception, SystemExit) as exc:
                rc = f"raised {exc!r}"
            if rc != 0:
                self.errors.setdefault(job.label, f"{rc}: {stderr.getvalue().strip()}")
            return rc, stdout.getvalue()
        return cli_call

    def _resolve(self, arg, outputs):
        if isinstance(arg, self.wl.BetaFrom):
            try:
                return repr(float(json.loads(outputs[arg.label])["critical"]["beta_c"]))
            except (KeyError, ValueError, TypeError):
                return "nan"
        return arg

    def run_job(self, job, outputs, tracer=None, job_id=-1) -> Sample:
        call = self._invoke(job, outputs)
        gc.collect()  # the checks' garbage is not the job's to collect
        before = calibrate()
        if tracer is not None:
            tracer.job, tracer.active = job_id, True
        t0 = time.perf_counter()
        try:
            rc, out = call()
        finally:
            raw = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        after = calibrate()
        outputs[job.label] = out
        ok = self.check(job, rc, out)
        self.attempted += 1
        self.failed += not ok
        return Sample(job.label, at_nominal_speed(raw, before, after), raw, ok)

    def check(self, job, rc, out) -> bool:
        try:
            job.check(rc, out)
            key = out.atom_masses if job.library is not None else out
            first = self.first_output.setdefault(job.label, key)
            if key != first:
                raise self.wl.CheckError("output differs from the first run of this job")
        except (self.wl.CheckError, KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            self.errors.setdefault(job.label, f"check: {exc}")
            return False
        return True

    def run_pass(self, tracer=None, pass_index=0) -> list[Sample]:
        outputs: dict[str, object] = {}
        n = len(self.spec.jobs)
        samples = [self.run_job(job, outputs, tracer, pass_index * n + j)
                   for j, job in enumerate(self.spec.jobs)]
        self.last_outputs = outputs
        return samples

    def run_for(self, seconds: float, min_samples: int, min_passes: int) -> list[list[Sample]]:
        """Whole passes after one warm-up pass, which is checked but not timed."""
        self.run_pass()
        passes = []
        t0 = time.perf_counter()
        while (len(passes) < min_passes or time.perf_counter() - t0 < seconds
               or sum(len(p) for p in passes) < min_samples):
            passes.append(self.run_pass())
        return passes

    def run_probes(self) -> list[dict]:
        report = []
        for job in self.spec.probes:
            rc, out = self._invoke(job, {})()
            ok = self.check(job, rc, out)
            report.append({"job": job.label, "exit": rc if isinstance(rc, int) else str(rc),
                           "correct": ok, "detail": self.errors.get(job.label, "")})
        return report


# --- metrics --------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
    }


def _latency_metrics(passes, attr: str) -> dict:
    latencies = [getattr(s, attr) for p in passes for s in p]
    per_pass = [sum(s.ok for s in p) / sum(getattr(s, attr) for s in p) for p in passes]
    return {
        "jobs_per_s": (statistics.median(per_pass), "1/s"),
        "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "job_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
    }


def end_to_end(passes, setup_samples) -> tuple[dict, dict]:
    samples = [s for p in passes for s in p]
    metrics = _latency_metrics(passes, "seconds")
    p90 = metrics["job_p90_ms"][0] / 1e3
    metrics.update({
        "pass_ratio": (sum(s.ok for s in samples) / len(samples), "ratio"),
        "setup_s": (statistics.median(x["setup_s"] for x in setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    })
    raw = {k: v for k, (v, _) in _latency_metrics(passes, "raw_s").items()}
    raw["setup_s"] = statistics.median(x["raw_s"] for x in setup_samples)
    by_job: dict[str, list[float]] = {}
    for s in samples:
        by_job.setdefault(s.label, []).append(s.seconds)
    detail = {
        "passes": len(passes),
        "jobs_per_pass": len(passes[0]),
        "samples": len(samples),
        "beyond_p90": sum(1 for s in samples if s.seconds > p90),
        "raw": raw,
        "setup_samples": setup_samples,
        "job_median_ms": {k: round(statistics.median(v) * 1e3, 3) for k, v in by_job.items()},
    }
    return metrics, detail


def traced(runner, tracing, workload: str, seconds: float, seed: int) -> tuple[dict, dict]:
    untraced = runner.run_for(seconds / 2, 0, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_passes = [runner.run_pass(tracer, i) for i in range(len(untraced))]
    finally:
        tracer.uninstall()
    job_s = sum(s.raw_s for p in traced_passes for s in p)
    metrics, detail = tracer.summary(len(traced_passes), runner.spec.jobs, workload, job_s)

    def pass_time(passes):
        return statistics.median(sum(s.seconds for s in p) for p in passes)

    metrics["trace.pass_s"] = (pass_time(traced_passes), "s")
    metrics["trace_overhead_ratio"] = (pass_time(traced_passes) / pass_time(untraced), "ratio")
    trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    tracer.write(str(trace_path), runner.spec.jobs)
    detail["trace_file"] = str(trace_path.relative_to(BENCH_DIR.parent))
    return metrics, detail


# --- entry point ----------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; {HELDOUT_SEED} is held out for validating claims)")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small models and few samples (self-test)")
    p.add_argument("--setup-probe", metavar="MANIFEST", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if not (SRC_DIR / "kmsphase" / "__init__.py").is_file():
        print(f"error: the kmsphase sources are missing ({SRC_DIR / 'kmsphase'})", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        spec = workloads.build(args.workload, args.seed, args.smoke, str(workdir))
        reference_s = time.perf_counter() - t0

        manifest = {"models": {name: m.path for name, m in spec.models.items()},
                    "warmup": spec.jobs[0].argv}
        manifest_path = workdir / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        setup_samples = [] if args.trace else measure_setup(str(manifest_path))
        main_setup_s, built = program_setup(manifest)

        runner = Runner(spec, built, workloads)
        min_samples = 0 if args.smoke else MIN_SAMPLES
        if args.trace:
            metrics, extra = traced(runner, tracing, args.workload, args.seconds, args.seed)
        else:
            passes = runner.run_for(args.seconds, min_samples, MIN_PASSES)
            metrics, extra = end_to_end(passes, setup_samples)
        probes = runner.run_probes()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "loop": "closed, one client, one process",
        "environment": environment(), "reference_s": reference_s,
        "main_setup_s": main_setup_s,
        "known_defects": probes, "failures": runner.errors, **extra,
    }
    for label, why in runner.errors.items():
        if not any(p["job"] == label for p in probes):
            print(f"FAILED {label}: {why}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
