"""Smoke test of the benchmark harness: every workload at its smallest size with
the correctness gate on and no timing assertions.

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import run_pass  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_passes_its_checks(trace):
    proc = _run("--workload", "all", "--seed", "0", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    names = set(result["metrics"])
    for name in workloads.WORKLOADS:
        if trace == "0":
            assert f"{name}.setup_s" in names and f"{name}.op_p90_ms" in names
        else:
            assert f"{name}.trace.overhead_frac" in names


def test_reference_mismatch_fails_the_operation(tmp_path):
    import infoquad.cli

    workload = workloads.WORKLOADS["cli-weighted16"]
    ops = workloads.build_ops(workload, 0, tmp_path, maps=1)
    refs = workloads.references(workload, 0)
    assert refs is not None, "seed 0 ships reference values"
    assert run_pass(ops, refs, infoquad.cli.main)["failed"] == 0
    bad = [None if r is None else list(r) for r in refs]
    bad[0][1] += 1e-6
    assert run_pass(ops, bad, infoquad.cli.main)["failed"] == 1


def test_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cli-weighted16", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
