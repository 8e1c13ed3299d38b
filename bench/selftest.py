"""Self-test of the benchmark, seconds long.

    python3 bench/selftest.py

1. Runs every workload in the smoke configuration (small models, one
   second), untraced and traced, and asserts that the result line carries
   exactly the metrics BENCHMARK.json names, each with its unit.
2. Asserts that every output check accepts the genuine output and rejects
   a corrupted one (a perturbed beta_c, an off-by-one shell count, a
   flipped verdict, ...).
3. Asserts that the tracer's coverage check fails loudly on a run that
   recorded no call, and that the benchmark exits non-zero, printing no
   result, when the program's sources are missing.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported

BENCH = run.BENCH_DIR
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metrics() -> None:
    for workload in run.WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = _run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", trace, "--smoke")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: {sorted(set(got) ^ set(want))}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"ok  metrics {workload} trace={trace}")


def _json_edit(edit):
    def corrupt(out: str) -> str:
        rep = json.loads(out)
        edit(rep)
        return json.dumps(rep)
    return corrupt


def _csv_edit(row: int, col: int, edit):
    def corrupt(out: str) -> str:
        lines = out.splitlines()
        cells = lines[row].split(",")
        cells[col] = edit(cells[col])
        lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return corrupt


def _scale(x, factor=1 + 1e-6):
    return float(x) * factor


def _set(path, fn):
    def edit(rep):
        obj = rep
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = fn(obj[path[-1]])
    return edit


# (workload, job label, what is corrupted, corruption of the output)
CORRUPTIONS = [
    ("phase_diagram", "analyze random8", "perturbed beta_c",
     _json_edit(_set(["critical", "beta_c"], _scale))),
    ("phase_diagram", "analyze random8", "wrong simplex dimension d",
     _json_edit(_set(["column_space", "d"], lambda d: d + 1))),
    ("phase_diagram", "partition-sweep random8", "perturbed Z",
     _csv_edit(-1, 2, lambda z: repr(_scale(z)))),
    ("phase_diagram", "partition-sweep random8", "flipped regime",
     _csv_edit(1, 3, lambda r: "above" if r == "below" else "below")),
    ("phase_diagram", "kms random8-0 1.5*beta_c", "perturbed extreme atom",
     _json_edit(_set(["regime", "extreme_states", 0, "atom_masses", 0], lambda a: a + 1e-6))),
    ("phase_diagram", "kms random8-0 1.5*beta_c", "missing extreme state",
     _json_edit(_set(["regime", "extreme_states"], lambda s: s[:-1]))),
    ("phase_diagram", "kms golden beta_c", "perturbed critical state",
     _json_edit(_set(["regime", "extreme_states", 0, "q_values", 0], lambda q: q * (1 + 1e-5)))),
    ("phase_diagram", "kms golden 0.5*beta_c", "wrong regime",
     _json_edit(_set(["regime", "kind"], lambda k: "critical"))),
    ("phase_diagram", "kms full4 inf*beta_c", "moved ground-state atom",
     _json_edit(_set(["regime", "extreme_states", 0, "q_values", 0], lambda q: q - 1e-6))),
    ("temperatures", "critical star16", "perturbed beta_c",
     _json_edit(_set(["critical", "beta_c"], _scale))),
    ("temperatures", "oa-scan blocks1-12", "perturbed quotient temperature",
     _json_edit(_set(["scan", "simplices", 0, "beta"], _scale))),
    ("temperatures", "oa-scan blocks1-12", "perturbed fixed vector",
     _json_edit(_set(["scan", "simplices", 0, "extreme_vectors", 0, 0], lambda v: v + 1e-5))),
    ("temperatures", "star levels 8,16", "perturbed truncated z0",
     _json_edit(_set(["truncations", 1, "z0_truncated"], _scale))),
    ("certify", "oracle golden", "off-by-one shell count",
     _csv_edit(-1, 1, lambda c: str(int(c) + 1))),
    ("certify", "oracle golden", "perturbed shell sum",
     _csv_edit(-1, 2, lambda s: repr(_scale(s, 1 + 1e-9)))),
    ("certify", "critical random5-0 abscissa", "perturbed abscissa estimate",
     _json_edit(_set(["abscissa_estimate", "estimate"], _scale))),
    ("certify", "check-state random5-0 extreme0", "flipped verdict",
     _json_edit(_set(["verdict", "subinvariant"], lambda v: not v))),
    ("certify", "check-state random5-0 mixed", "flipped verdict",
     _json_edit(_set(["verdict", "subinvariant"], lambda v: not v))),
    ("certify", "check-state random5-0 extreme0", "perturbed finite root measure",
     _json_edit(_set(["decomposition", "gamma_finite", 0], lambda g: g + 1e-6))),
    ("certify", "cooling random5-0 extreme0", "perturbed cooled atom",
     lambda s: dataclasses.replace(s, atom_masses=(s.atom_masses[0] + 1e-6,) + s.atom_masses[1:])),
]


def check_corruptions() -> None:
    import workloads

    for workload in run.WORKLOADS:
        workdir = run.OUT_DIR / f"selftest-{workload}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            spec = workloads.build(workload, 1, True, str(workdir))
            manifest = {"models": {n: m.path for n, m in spec.models.items()}, "warmup": spec.jobs[0].argv}
            _, built = run.program_setup(manifest)
            runner = run.Runner(spec, built, workloads)
            runner.run_pass()
            assert runner.failed == 0, runner.errors
            for wl, prefix, what, corrupt in CORRUPTIONS:
                if wl != workload:
                    continue
                job = next(j for j in spec.jobs if j.label.startswith(prefix))
                genuine = runner.last_outputs[job.label]
                job.check(0, copy.deepcopy(genuine))
                try:
                    job.check(0, corrupt(genuine))
                except workloads.CheckError:
                    print(f"ok  rejects {what}: {job.label}")
                else:
                    raise AssertionError(f"check of {job.label!r} accepted a {what}")
            for probe in spec.probes:
                rc, out = 0, json.dumps({"critical": {"beta_c": 1.0, "permutation_like": False}})
                try:
                    probe.check(rc, out)
                except workloads.CheckError:
                    print(f"ok  rejects a wrong beta_c: {probe.label}")
                else:
                    raise AssertionError(f"probe {probe.label!r} accepted a wrong beta_c")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def check_loud_failures() -> None:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.summary(1, [workloads.Job("none", None)], "phase_diagram", 1.0)
    except RuntimeError as exc:
        assert "trace coverage" in str(exc)
        print("ok  coverage check fails on a run with no recorded calls")
    else:
        raise AssertionError("coverage check passed on an empty trace")
    finally:
        tracer.uninstall()

    bare = run.OUT_DIR / f"selftest-bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run_bench(bare, "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0 and proc.stdout.strip() == "", (proc.returncode, proc.stdout)
        print("ok  exits non-zero without a result when the sources are missing")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_corruptions()
    check_loud_failures()
    check_metrics()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
