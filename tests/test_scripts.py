"""Every script under scripts/ runs to the end on tiny arguments.

Several reach into package internals (``rng_costs.py`` uses
``RandomStream._run`` and ``_heads``, ``dense_costs.py`` a stream's sampler
and table, ``cli_phases.py`` wraps ``BlockStream.words``), so a refactor
that breaks one shows here.  ``report_digest.py`` runs in full: its digest
pins the 152 verify reports.
"""

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
REPORT_DIGEST = "75b8b6050f7033440915f2ab6c42377e9e722818501ea3e97b5fa2e263d1e45d"
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
