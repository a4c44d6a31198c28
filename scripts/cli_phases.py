#!/usr/bin/env python3
"""Where the wall time of one ``tracegen stream`` process goes, over
``--runs`` runs, printed as one JSON line.

Each run starts a fresh interpreter on ``stream --workers W --emit final
--blocks N`` (by default perfbench's ``cli_stream_2w`` shape: the 16-letter
path, 2 workers, 4,000 blocks), as ``python -m tracegen.cli`` would run it,
but through this script's ``--child`` mode, which first wraps
``BlockStream.ranges`` to note when ranges of blocks reach the loop that
reads them, ``BlockStream.drop`` for ``--emit final`` (with a pool, each
range as its heap, without its words, or for ``--emit each-block`` as its
words; in one process, one block).  Each phase is the time from the start
of the process, in ms:

- ``header``: this script has read the header line;
- ``first_word``: the loop has been handed its first range;
- ``last_word``: ... its last range;
- ``words_closed``: the ranges are closed, and with them any pool;
- ``main_returned``: the module's ``__main__`` code has finished;
- ``exit``: this script has reaped the process.

The report gives each phase's median and quartiles over the runs, the
median of each gap between consecutive phases, and the sha256 of every
distinct output (one digest when every run printed the same bytes).  The
child times with ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so its marks and this script's agree.

    PYTHONPATH=src python scripts/cli_phases.py --runs 20
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PHASES = ("header", "first_word", "last_word", "words_closed", "main_returned", "exit")


def child(marks_path: str, argv: list[str]) -> None:
    """Run the CLI module as ``__main__`` on argv, with ``BlockStream.ranges``
    wrapped, and write the marks to marks_path once it is done."""
    import runpy

    from tracegen import boundary

    marks = {}
    ranges = boundary.BlockStream.ranges

    def timed_ranges(self, start, stop, workers=1, heaps=False):
        inner = ranges(self, start, stop, workers, heaps)
        try:
            for item in inner:
                marks["last_word"] = time.perf_counter()
                marks.setdefault("first_word", marks["last_word"])
                yield item
        finally:
            inner.close()
            if "first_word" in marks:
                marks["words_closed"] = time.perf_counter()

    boundary.BlockStream.ranges = timed_ranges
    sys.argv = ["tracegen.cli", *argv]
    try:
        runpy.run_module("tracegen.cli", run_name="__main__", alter_sys=True)
    finally:
        marks["main_returned"] = time.perf_counter()
        Path(marks_path).write_text(json.dumps(marks))


def one_run(argv: list[str], marks_path: Path) -> tuple[dict, str]:
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, __file__, "--child", str(marks_path), *argv],
                            stdout=subprocess.PIPE)
    header = proc.stdout.readline()
    header_at = time.perf_counter()
    rest = proc.stdout.read()
    status = proc.wait()
    exit_at = time.perf_counter()
    if status != 0:
        raise SystemExit(f"the CLI exited with status {status}")
    marks = json.loads(marks_path.read_text())
    marks.update(header=header_at, exit=exit_at)
    phases = {name: (marks[name] - start) * 1e3 for name in PHASES}
    return phases, hashlib.sha256(header + rest).hexdigest()


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 2), "median": round(median, 2), "q3": round(q3, 2)}


def _at_least_two(text: str) -> int:
    runs = int(text)
    if runs < 2:
        raise argparse.ArgumentTypeError(f"quartiles need at least 2 runs, got {runs}")
    return runs


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], sys.argv[3:])
        return
    parser = argparse.ArgumentParser(description="Phases of one tracegen stream process")
    parser.add_argument("--runs", type=_at_least_two, default=10,
                        help="at least 2, for the quartiles")
    parser.add_argument("--model", default=None,
                        help="model JSON file (default: the 16-letter path x0 - ... - x15)")
    parser.add_argument("--blocks", type=int, default=4000)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1001)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        model = args.model
        if model is None:
            letters = [f"x{i}" for i in range(16)]
            model = os.path.join(tmp, "path16.json")
            Path(model).write_text(json.dumps(
                {"letters": letters, "dependence": [list(e) for e in zip(letters, letters[1:])]}))
        argv = ["stream", "--model", model, "--workers", str(args.workers), "--emit", "final",
                "--blocks", str(args.blocks), "--seed", str(args.seed)]
        runs = [one_run(argv, Path(tmp) / "marks.json") for _ in range(args.runs)]

    phases = {name: quartiles([r[name] for r, _ in runs]) for name in PHASES}
    gaps = {f"{a}..{b}": round(statistics.median(r[b] - r[a] for r, _ in runs), 2)
            for a, b in zip(PHASES, PHASES[1:])}
    print(json.dumps({
        "python": platform.python_version(), "cpus": os.cpu_count(), "runs": args.runs,
        "blocks": args.blocks, "workers": args.workers, "seed": args.seed,
        "phases_ms": phases, "gap_medians_ms": gaps,
        "output_sha256": sorted({digest for _, digest in runs}),
    }))


if __name__ == "__main__":
    main()
