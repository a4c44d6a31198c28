"""Every script under scripts/ runs to the end on tiny arguments.

Several reach into package internals (``rng_costs.py`` uses
``RandomStream._run`` and ``_heads``, ``dense_costs.py`` a stream's sampler
and table, ``cli_phases.py`` wraps ``BlockStream.ranges``), so a refactor
that breaks one shows here.  ``report_digest.py`` runs in full: its digest
pins the 152 verify reports.  The benchmark harness under perfbench/ binds
stream names (``open_stream``, ``BlockStream.next_block``, ``blocks_done``,
``length``, ``counter``, ``run`` and ``boundary.parallel_run``); a short
traced run of its two stream workloads checks that they still hold.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
}
REPORT_DIGEST = "e4adb491d15d0c93e4dfaae3aed0344d9445189a0a541894050015053fc020b1"
RUNS = {
    "cli_phases.py": ["--runs", "2", "--blocks", "20"],
    "dense_costs.py": ["--letters", "12", "--blocks", "20"],
    "heap_costs.py": ["--blocks", "20", "--calls", "100", "--repeat", "1"],
    "length_scaling.py": ["--blocks", "20"],
    "parallel_throughput.py": ["--blocks", "20", "--workers", "1,2"],
    "pivot_robustness.py": ["--n", "300"],
    "report_digest.py": ["--expect", REPORT_DIGEST],
    "rng_costs.py": ["--streams", "600", "--run", "64", "--repeat", "1"],
}


def run_script(name, *argv):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv], capture_output=True,
                          text=True, env=CHILD_ENV, cwd=ROOT, timeout=300)


def test_every_script_has_a_run():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(RUNS)


@pytest.mark.parametrize("name", RUNS)
def test_script_runs_on_tiny_arguments(name):
    done = run_script(name, *RUNS[name])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1].strip()


def test_cli_phases_refuses_fewer_than_two_runs():
    # its quartiles need two runs; one used to run the whole measurement
    # and then fail in statistics.quantiles
    done = run_script("cli_phases.py", "--runs", "1")
    assert done.returncode == 2 and done.stdout == ""
    assert "at least 2 runs" in done.stderr


@pytest.mark.parametrize("workload", ["boundary_path16", "cli_stream_2w"])
def test_perfbench_stream_workloads_run_correctly(workload):
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", "0.2", "--trace", "1"], capture_output=True, text=True,
                          env=CHILD_ENV, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
