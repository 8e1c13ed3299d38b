"""The traced benchmark paths stay runnable.

The smoke configurations of the three workloads run every job with
tracing on.  A run fails if a traced layer records no call, so this also
guards the call structure the per-layer metrics read: `classify_ta`
building each extreme state through `finite_type_state`, which goes
through `restricted_fixed_pairs`; on temperatures, `beta_c`, `kms_oa`,
`build_star`, `truncated_model` and `matrix_spectral_radius` (defined in
`partition`, re-exported by `critical`), which the `star` job reaches
through `evaluate` on each truncation; and, on certify, `words.shell_sum`
(reached through row 0 of the `oracle` subcommand, since its other rows
and `abscissa_estimate` replay their own word trees), `is_subinvariant`,
`abscissa_estimate`, `decompose` and `cooling`.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced_smoke(workload: str) -> None:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--smoke",
         "--trace", "1", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result


def test_traced_phase_diagram_smoke():
    _traced_smoke("phase_diagram")


def test_traced_temperatures_smoke():
    _traced_smoke("temperatures")


def test_traced_certify_smoke():
    _traced_smoke("certify")
