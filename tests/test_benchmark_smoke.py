"""The benchmark's measure and kernels roles run briefly against this
checkout and check every output they produced, so a renamed or deleted
public name shows up here before a full benchmark run."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.mark.parametrize("workload", ["qpe-wide", "small-mixed", "classical-large"])
def test_measure_role_checks_every_output(tmp_path, workload):
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--role", "measure"],
        cwd=tmp_path, env=dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["attempted"] > 0
    assert out["failed"] == 0, proc.stderr


def test_kernels_role_times_every_kind_at_every_size(tmp_path):
    # The sheet builds StateVector(n, amps), times one-gate apply calls and
    # checks each state against perfbench's own oracle: 7 kinds at 3 sizes.
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", "qpe-wide", "--seed", "1",
         "--seconds", "0", "--role", "kernels"],
        cwd=tmp_path, env=dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["absent"] == []
    assert out["failed"] == 0, proc.stderr
    assert out["attempted"] == 21
