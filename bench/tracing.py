"""Spans around the program's layers, recorded from the benchmark's own files.

`Tracer.install` replaces each traced function in every ``kmsphase`` module
that binds it (names imported with ``from .x import f`` included, and the
module attribute that lazy imports read), so no call path escapes.  Spans
hold (name, start, end, parent, job, eigvals count) and stay in memory until
`write`.  Self time is a span's duration minus the time its child spans
cover; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

import numpy as np

TARGETS = (
    "model.column_space",
    "model.properties",
    "partition.evaluate",
    "partition.restricted_fixed_pairs",
    "states.finite_type_state",
    "states.decompose",
    "states.cooling",
    "critical.beta_c",
    "critical.matrix_spectral_radius",
    "critical.perron_vector",
    "critical.abscissa_estimate",
    "classify.classify_ta",
    "classify.oa_beta_scan",
    "classify.kms_oa",
    "words.shell_sum",
    "invariance.is_subinvariant",
    "star.build_star",
    "star.truncated_model",
    "cli.main",
    "cli.dumps",
)

# Functions behind a per-layer metric that predicts a move on this workload.
# A traced run in which one of them records no call fails: a missed binding
# must not read as zero.
REQUIRED = {
    "phase_diagram": (
        "model.column_space", "model.properties", "partition.evaluate",
        "partition.restricted_fixed_pairs", "states.finite_type_state",
        "critical.perron_vector", "classify.classify_ta", "cli.main", "cli.dumps",
    ),
    "temperatures": (
        "critical.beta_c", "critical.matrix_spectral_radius", "classify.oa_beta_scan",
        "classify.kms_oa", "star.build_star", "star.truncated_model",
    ),
    "certify": (
        "states.decompose", "states.cooling", "critical.abscissa_estimate",
        "words.shell_sum", "invariance.is_subinvariant",
    ),
}

# Per-layer metrics reported as a count per traced pass of the job list.
CALLS = (
    "model.column_space", "partition.evaluate", "partition.restricted_fixed_pairs",
    "states.finite_type_state", "critical.beta_c", "critical.matrix_spectral_radius",
    "words.shell_sum", "invariance.is_subinvariant",
)
# Per-layer metrics reported as self time, in percent of the traced job time.
# A share, not seconds: a layer a workload never calls reads 0 on every run,
# and a time must never read the same on every run.
SELF_TIME = (
    "model.column_space", "model.properties", "partition.evaluate",
    "partition.restricted_fixed_pairs", "states.finite_type_state", "states.decompose",
    "states.cooling", "critical.beta_c", "critical.matrix_spectral_radius",
    "critical.perron_vector", "critical.abscissa_estimate", "classify.classify_ta",
    "classify.oa_beta_scan", "classify.kms_oa", "words.shell_sum",
    "invariance.is_subinvariant", "star.build_star", "star.truncated_model",
    "cli.main", "cli.dumps",
)


PACKAGE = "kmsphase"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.shell_args: list[tuple] = []
        self.job = -1
        self.active = False
        self._patches: list[tuple] = []

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for target in TARGETS:
            modname, fname = target.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{modname}"), fname)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        self._patch(np.linalg, "eigvals", self._count_eigvals(np.linalg.eigvals))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        signature = inspect.signature(fn) if name == "words.shell_sum" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self.shell_args.append((bound["model"].matrix, bound["n"], bound.get("source")))
            record = [index, perf_counter(), 0.0, stack[-1] if stack else -1, self.job, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return wrapper

    def _count_eigvals(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active and self.stack:
                self.spans[self.stack[-1]][5] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- analysis ---------------------------------------------------------

    def summary(self, passes: int, jobs, workload: str, job_s: float) -> tuple[dict, dict]:
        """Per-layer metrics (counts per traced pass, self time as a share of
        the ``job_s`` seconds the traced jobs took) and a per-job breakdown of
        the counts that later work cites."""
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        bc = self.names.index("critical.beta_c")
        msr = self.names.index("critical.matrix_spectral_radius")
        cs = self.names.index("model.column_space")
        in_bc = [False] * len(self.spans)
        per_job: dict[int, dict] = {}
        for i, rec in enumerate(self.spans):
            name, parent = rec[0], rec[3]
            calls[name] += 1
            self_s[name] += rec[2] - rec[1] - child[i]
            in_bc[i] = name == bc or (parent >= 0 and in_bc[parent])
            counts = per_job.setdefault(rec[4], {"column_space": 0, "beta_c": 0,
                                                 "radius_evals": 0, "eigvals_fallbacks": 0})
            if name == cs:
                counts["column_space"] += 1
            elif name == bc:
                counts["beta_c"] += 1
            elif name == msr and parent >= 0 and in_bc[parent]:
                counts["radius_evals"] += 1
                counts["eigvals_fallbacks"] += rec[5]
        missing = [t for t in REQUIRED[workload] if calls[self.names.index(t)] == 0]
        if missing:
            raise RuntimeError(f"trace coverage: no call recorded on {workload} for {missing}")

        def by_spectrum(kind: str, key: str) -> float:
            picked = [c for j, c in per_job.items() if jobs[j % len(jobs)].spectrum == kind]
            base = sum(c["beta_c"] for c in picked)
            return sum(c[key] for c in picked) / base if base else 0.0

        metrics: dict[str, tuple[float, str]] = {}
        for t in CALLS:
            metrics[f"{t}.calls"] = (calls[self.names.index(t)] / passes, "count")
        for t in SELF_TIME:
            metrics[f"{t}.self_share"] = (100.0 * self_s[self.names.index(t)] / job_s, "%")
        metrics["model.column_space.calls_per_job"] = (calls[cs] / (passes * len(jobs)), "count")
        bc_calls = calls[bc]
        evals = sum(c["radius_evals"] for c in per_job.values())
        metrics["critical.radius_evals_per_beta_c"] = (evals / bc_calls if bc_calls else 0.0, "count")
        metrics["critical.radius_evals_per_beta_c.primitive"] = (by_spectrum("primitive", "radius_evals"), "count")
        fallbacks = sum(rec[5] for rec in self.spans if rec[0] == msr)
        metrics["critical.eigvals_fallbacks"] = (fallbacks / passes, "count")
        metrics["critical.eigvals_fallbacks_per_radius_eval"] = (
            fallbacks / calls[msr] if calls[msr] else 0.0, "ratio")
        metrics["critical.eigvals_fallbacks_per_beta_c.periodic"] = (
            by_spectrum("periodic", "eigvals_fallbacks"), "count")
        metrics["words.words_enumerated"] = (self._words_enumerated() / passes, "count")

        first_pass = {}
        for j, counts in sorted(per_job.items()):
            if j < len(jobs):
                first_pass[jobs[j].label] = {k: v for k, v in counts.items() if v}
        bases = {
            "traced_passes": passes,
            "jobs_per_pass": len(jobs),
            "critical.beta_c.calls": bc_calls,
            "critical.matrix_spectral_radius.calls": calls[msr],
            "words.shell_sum.calls": calls[self.names.index("words.shell_sum")],
        }
        return metrics, {"bases": bases, "per_job_first_pass": first_pass}

    def _words_enumerated(self) -> int:
        """Exact admissible-word counts of every shell `shell_sum` enumerated."""
        total = 0
        cache: dict[tuple, int] = {}
        for matrix, n, source in self.shell_args:
            if n < 1:
                continue
            key = (matrix.tobytes(), matrix.shape[0], n, source)
            if key not in cache:
                a = matrix.astype(object)
                v = np.ones(matrix.shape[0], dtype=object)
                for _ in range(n - 1):
                    v = a @ v
                cache[key] = int(v.sum() if source is None else v[source])
            total += cache[key]
        return total

    def write(self, path: str, jobs) -> None:
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "jobs": [job.label for job in jobs],
                "columns": ["name", "start", "end", "parent", "job", "eigvals"],
                "spans": self.spans,
            }, fh)
