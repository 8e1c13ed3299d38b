"""The traced benchmark path stays runnable.

The smoke configuration of the phase-diagram workload runs every job
through the CLI with tracing on.  The run fails if a traced layer records
no call, so this also guards the call structure the per-layer metrics
read: `classify_ta` building each extreme state through
`finite_type_state`, which goes through `restricted_fixed_pairs`.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_phase_diagram_smoke():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "phase_diagram", "--smoke",
         "--trace", "1", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
