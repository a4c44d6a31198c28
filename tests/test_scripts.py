"""Every script under scripts/ runs to the end on tiny arguments.

Several reach into package internals (``rng_costs.py`` uses
``RandomStream._run`` and ``_heads``, ``dense_costs.py`` a stream's sampler
and table, ``cli_phases.py`` wraps ``BlockStream.ranges``), so a refactor
that breaks one shows here.  ``report_digest.py`` runs in full: its digest
pins the 152 verify reports.  The benchmark harness under perfbench/ binds
stream names (``open_stream``, ``BlockStream.next_block``, ``blocks_done``,
``length``, ``counter``, ``run`` and ``boundary.parallel_run``); a short
traced run of its two stream workloads checks that they still hold.  The
names only it calls stay in one marked block of ``boundary.py``, and a
parse of ``src/`` checks that nothing else in the package names them.
"""

import ast
import json
import os
import re
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


PERFBENCH_ONLY = re.compile(r"\b(open_stream|parallel_run|next_block|blocks_done)\b")


def names_and_lines(tree):
    """(name, first line, last line) of every identifier and every word of a
    string constant, docstrings included, in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            words = PERFBENCH_ONLY.findall(node.value)
        else:
            words = [getattr(node, field, None) for field in ("id", "attr", "name", "asname", "arg")]
        for word in words:
            if isinstance(word, str) and PERFBENCH_ONLY.fullmatch(word):
                yield word, node.lineno, node.end_lineno


def test_only_the_marked_block_names_the_perfbench_only_api():
    # the block in boundary.py, and the exports of __init__.py, go as one
    # deletion once perfbench reads words, drop and --stats instead
    found = []
    for path in sorted((ROOT / "src" / "tracegen").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        spans = []
        if path.name == "boundary.py":
            lines = source.splitlines()
            start = next(i for i, line in enumerate(lines, 1) if "---- perfbench only" in line)
            stop = next(i for i, line in enumerate(lines, 1)
                        if "---- end of the perfbench-only block" in line)
            spans.append((start, stop))
        if path.name == "__init__.py":
            exports = [node for node in tree.body if isinstance(node, ast.ImportFrom)
                       and node.module == "boundary" or isinstance(node, ast.Assign)
                       and getattr(node.targets[0], "id", None) == "__all__"]
            spans += [(node.lineno, node.end_lineno) for node in exports]
        found += [(path.name, name, first) for name, first, last in names_and_lines(tree)
                  if not any(lo <= first and last <= hi for lo, hi in spans)]
    assert found == []
