#!/usr/bin/env python3
"""Benchmark of the tracegen samplers, end to end or split by layer.

Run from the repository root:

    python3 perfbench/run.py --workload finite_p4 --seed 1 --seconds 15 --trace 0

``--workload all`` runs the four workloads one after another.  With
``--trace 0`` the result carries the end-to-end metrics named in
BENCHMARK.json, with ``--trace 1`` the per-layer ones.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Lines before it are a readable table and the run's provenance.

This process never imports tracegen.  Every measurement runs in a fresh
interpreter (segment.py, or the CLI itself) with a single caller in a
closed loop, so each sees the import, the caches and the memory of a new
process.  The models and seeds are generated here from --seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from pathlib import Path

from calibrate import import_gauge_s, import_scale

HERE = Path(__file__).resolve().parent
WORKLOADS = ("finite_p4", "boundary_path16", "cold_wide28", "cli_stream_2w")
# An untraced in-process run starts fresh processes, each doing this many
# calls after its set-up, until --seconds have passed, and at least
# SEGMENTS of them.  A fixed count gives each process the same work: the
# same share of early table misses on cold_wide28, the same heap size on
# boundary_path16.
CALLS = {"finite_p4": 60_000, "boundary_path16": 3_000, "cold_wide28": 10_000}
SEGMENTS = 3
CLI_BLOCKS = 4000
CLI_WORKERS = 2
# import_s is a median of this many fresh interpreters; segments that do
# nothing but import make up the number.
IMPORT_SAMPLES = 5
SEGMENT_TIMEOUT_S = 150


# -- generated inputs ---------------------------------------------------------

def path_model(n: int) -> dict:
    letters = [f"x{i}" for i in range(n)]
    return {"letters": letters,
            "dependence": [[letters[i], letters[i + 1]] for i in range(n - 1)]}


def p4_model() -> dict:
    """The four-letter path a-b-c-d, as in models/p4.json."""
    return {"letters": ["a", "b", "c", "d"],
            "dependence": [["a", "b"], ["b", "c"], ["c", "d"]]}


def wide_model(rng: random.Random, n: int = 28, chords: int = 6) -> dict:
    """An n-cycle with local chords (span 2 or 3) at random positions.

    Local chords keep the clique count close to the plain cycle's, so the
    clique walk, the root solve and the table misses stay the dominant
    cost; the model still differs from seed to seed.
    """
    letters = [f"x{i}" for i in range(n)]
    edges = {frozenset((i, (i + 1) % n)) for i in range(n)}
    while len(edges) < n + chords:
        i = rng.randrange(n)
        edges.add(frozenset((i, (i + rng.choice((2, 3))) % n)))
    pairs = sorted(tuple(sorted(e)) for e in edges)
    return {"letters": letters, "dependence": [[letters[i], letters[j]] for i, j in pairs]}


def stream_seed(workload: str, seed: int, index: int) -> int:
    return random.Random(f"{workload}/{seed}/{index}").randrange(1 << 32)


# -- processes ----------------------------------------------------------------

class Bench:
    """Paths and environment of one benchmark invocation."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.count = 0

    def write_model(self, name: str, data: dict) -> str:
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def segment(self, **spec) -> dict:
        """Run segment.py in a fresh interpreter and return its result."""
        self.count += 1
        spec_path = self.work / f"segment{self.count}.spec.json"
        out_path = self.work / f"segment{self.count}.json"
        spec.update(src=str(self.root / "src"), output=str(self.work / f"segment{self.count}.out"))
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        before = import_gauge_s()
        proc = subprocess.run(
            [sys.executable, str(HERE / "segment.py"), str(spec_path), str(out_path)],
            cwd=self.root, env=self.env, timeout=SEGMENT_TIMEOUT_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"segment {spec['kind']} failed:\n{proc.stderr}")
        result = json.loads(out_path.read_text(encoding="utf-8"))
        result["import_s"] *= import_scale(before, result["import_gauge_after_s"])
        result["latencies"] = array("q", (self.work / result["latencies_file"]).read_bytes())
        result["output_path"] = spec["output"]
        return result

    def cli_run(self, argv: list[str]) -> dict:
        """One CLI run, seen from outside: time to the header record, wall
        time, peak RSS of the process tree, and its standard output.  The
        times are scaled to reference speed by import gauge runs just
        before and after."""
        before = import_gauge_s()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE)
        watchdog = threading.Timer(SEGMENT_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            header = proc.stdout.readline()
            header_s = time.perf_counter() - start
            rest = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall_s = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        factor = import_scale(before, import_gauge_s())
        return {"header_s": header_s * factor, "wall_s": wall_s * factor,
                "slowdown": 1 / factor, "status": proc.returncode,
                "rss_mb": usage.ru_maxrss / 1024, "output": header + rest}


# -- workloads ----------------------------------------------------------------

def finite_spec(bench: Bench, workload: str, seed: int, index: int) -> dict:
    if workload == "finite_p4":
        return dict(kind="finite", name="p4", model=bench.write_model("p4", p4_model()),
                    p=0.2, p_factor=None, probe=False,
                    stream_seed=stream_seed(workload, seed, index))
    if workload == "boundary_path16":
        return dict(kind="boundary", name="path16",
                    model=bench.write_model("path16", path_model(16)),
                    stream_seed=stream_seed(workload, seed, index))
    rng = random.Random(f"{workload}/{seed}/{index}/model")
    name = f"wide28.{index}"
    return dict(kind="finite", name=name, model=bench.write_model(name, wide_model(rng)),
                p=None, p_factor=0.6, probe=True,
                stream_seed=stream_seed(workload, seed, index))


def cli_spec(bench: Bench, seed: int, blocks: int) -> tuple[dict, list[str]]:
    model = bench.write_model("path16", path_model(16))
    s = stream_seed("cli_stream_2w", seed, 0)
    argv = ["stream", "--model", model, "--workers", str(CLI_WORKERS), "--emit", "final",
            "--blocks", str(blocks), "--seed", str(s)]
    spec = dict(kind="reference", name="path16", model=model, stream_seed=s,
                blocks=blocks, workers=CLI_WORKERS, argv=argv)
    return spec, argv


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def import_times(bench: Bench, segments: list) -> list[float]:
    times = [s["import_s"] for s in segments]
    while len(times) < IMPORT_SAMPLES:
        times.append(bench.segment(kind="import")["import_s"])
    return times


def in_process(bench: Bench, workload: str, seed: int, seconds: float,
               calls: int) -> tuple[dict, list]:
    segments = []
    stop = time.perf_counter() + seconds
    while len(segments) < SEGMENTS or time.perf_counter() < stop:
        spec = finite_spec(bench, workload, seed, len(segments))
        segments.append(bench.segment(**spec, ops=calls))
    latencies = sorted(x for s in segments for x in s["latencies"])
    loop_s = sum(latencies) / 1e9
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in segments),
        "import_s": statistics.median(import_times(bench, segments)),
        "items_per_s": len(latencies) / loop_s,
        "letters_per_s": sum(s["letters"] for s in segments) / loop_s,
        "item_p50_us": percentile(latencies, 0.50) / 1e3,
        "item_p99_us": percentile(latencies, 0.99) / 1e3,
        "peak_rss_mb": max(s["rss_mb"] for s in segments),
    }
    return values, segments


def cli_end_to_end(bench: Bench, seed: int, seconds: float, blocks: int) -> tuple[dict, list]:
    spec, argv = cli_spec(bench, seed, blocks)
    reference = bench.segment(**spec)
    imports = import_times(bench, [reference])
    command = [sys.executable, "-u", "-m", "tracegen.cli", *argv]
    runs = []
    stop = time.perf_counter() + seconds
    while not runs or time.perf_counter() < stop:
        runs.append(bench.cli_run(command))
    failed = 0
    messages = []
    finals = set()
    for run in runs:
        final, problem = cli_final(run, reference)
        finals.add(final)
        if problem:
            failed += blocks
            messages.append(problem)
    walls = sorted(r["wall_s"] for r in runs)
    values = {
        "setup_s": statistics.median(r["header_s"] for r in runs),
        "import_s": statistics.median(imports),
        "items_per_s": blocks * len(runs) / sum(walls),
        "letters_per_s": reference["length"] * len(runs) / sum(walls),
        "item_p50_us": percentile(walls, 0.50) * 1e6,
        "item_p99_us": percentile(walls, 0.99) * 1e6,
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
    }
    summary = dict(reference, slowdown=statistics.median(r["slowdown"] for r in runs),
                   attempted=blocks * len(runs), failed=failed, incorrect=failed,
                   messages=messages, latencies=array("q", (int(w * 1e9) for w in walls)),
                   digest=" ".join(sorted({hashlib.sha256(r["output"]).hexdigest() for r in runs})),
                   cli_final_digests=sorted(finals))
    return values, [summary]


def cli_final(run: dict, reference: dict) -> tuple[str, str | None]:
    """Digest of a CLI run's final trace, and why the run is wrong or None:
    the final trace must be the sequential run's, byte for byte."""
    if run["status"] != 0:
        return "", f"CLI exited with status {run['status']}"
    line = run["output"].rstrip(b"\n").rsplit(b"\n", 1)[-1]
    head, tail = b'"final": ', b', "length": '
    try:
        emitted = line[line.index(head) + len(head):line.rindex(tail)]
    except ValueError:
        return "", "no final record in the CLI output"
    final = hashlib.sha256(emitted).hexdigest()
    if final != reference["final_digest"]:
        return final, "final trace differs from the sequential BlockStream.run"
    return final, None


def traced(bench: Bench, workload: str, seed: int, calls: int, blocks: int) -> tuple[dict, list]:
    """An untraced segment, then a traced one doing the same work; the
    per-layer metrics come from the traced one."""
    if workload == "cli_stream_2w":
        spec, _ = cli_spec(bench, seed, blocks)
        spec["kind"] = "cli"
        plain = bench.segment(**spec)
        spans = bench.segment(**spec, trace=True)
        for segment in (plain, spans):
            segment["attempted"] = blocks
            run = {"status": segment["status"], "output": Path(segment["output_path"]).read_bytes()}
            _, problem = cli_final(run, spans)
            if problem:
                segment.update(failed=blocks, incorrect=blocks)
                segment["messages"].append(problem)
    else:
        spec = finite_spec(bench, workload, seed, 0)
        plain = bench.segment(**spec, ops=calls)
        spans = bench.segment(**spec, ops=calls, trace=True)
    values = dict(spans["per_layer"])
    values["trace.overhead_frac"] = spans["wall_s"] / plain["wall_s"] - 1.0
    return values, [plain, spans]


# -- reporting ----------------------------------------------------------------

def provenance(root: Path, segments: list) -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
        top, sha = git.stdout.split()
        sha = sha if git.returncode == 0 and Path(top).resolve() == root.resolve() else None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        sha = None
    source = hashlib.sha256()
    for path in sorted((root / "src" / "tracegen").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    p_sigma = {}
    for s in segments:
        p_sigma.update(s.get("p_sigma_hex", {}))
    versions = next((s["versions"] for s in segments if "versions" in s), {})
    info = {
        "git_sha": sha or "unknown (not a git checkout)",
        "src_sha256": source.hexdigest(),
        **versions,
        "nproc": os.cpu_count(),
        "p_sigma_hex": p_sigma,
        "output_digests": [s["digest"] for s in segments if s.get("digest")],
        "untraced_spans": sorted({n for s in segments for n in s.get("untraced_spans", [])}),
        "check_messages": [m for s in segments for m in s["messages"]],
    }
    for s in segments:
        if "cli_final_digests" in s:
            info["sequential_final_digest"] = s["final_digest"]
            info["cli_final_digests"] = s["cli_final_digests"]
    return info


def run_workload(root: Path, bench_spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool, calls: dict = CALLS, blocks: int = CLI_BLOCKS
                 ) -> tuple[list[str], dict]:
    """Run one workload; return the readable lines and the result object.
    ``calls`` and ``blocks`` set the work per process (smaller in the
    self-test)."""
    parent = root / ".perfbench_tmp"
    parent.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=parent) as work:
            bench = Bench(root, Path(work))
            if trace:
                values, segments = traced(bench, workload, seed, calls.get(workload), blocks)
            elif workload == "cli_stream_2w":
                values, segments = cli_end_to_end(bench, seed, seconds, blocks)
            else:
                values, segments = in_process(bench, workload, seed, seconds, calls[workload])
            info = provenance(root, segments)
    finally:
        try:
            parent.rmdir()
        except OSError:
            pass
    attempted = sum(s.get("attempted", 0) for s in segments)
    failed = sum(s.get("failed", 0) for s in segments)
    declared = bench_spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": all(s.get("incorrect", 0) == 0 for s in segments),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    item = "samples" if workload in ("finite_p4", "cold_wide28") else "blocks"
    lines = [f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}"]
    for name, m in metrics.items():
        lines.append(f"  {name:30s} {m['value']:>16.6g} {m['unit']}")
    lines.append(f"  {'failed_frac':30s} {failed / attempted:>16.6g} "
                 f"({failed} of {attempted} operations; items are {item})")
    if trace:
        own = sum(v for k, v in values.items() if k.endswith(".self_s"))
        lines.append(f"  layer self times {own:.6g} s + remainder "
                     f"{values['trace.remainder_s']:.6g} s = wall {values['trace.wall_s']:.6g} s")
    else:
        timed = "CLI runs" if workload == "cli_stream_2w" else item
        count = sum(len(s["latencies"]) for s in segments)
        lines.append(f"  latency percentiles over {count} timed {timed}")
    slowdowns = [s["slowdown"] for s in segments if "slowdown" in s]
    lines.append(f"  times are at reference CPU speed; this CPU ran "
                 f"{statistics.median(slowdowns):.3f}x slower (median over the run)")
    lines.append("provenance " + json.dumps(info, sort_keys=True))
    return lines, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "tracegen" / "__init__.py").is_file():
        print(f"error: no tracegen sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    bench_spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        lines, results[workload] = run_workload(
            root, bench_spec, workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
