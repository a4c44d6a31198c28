"""One segment of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/segment.py SPEC.json RESULT.json

run.py writes the spec (the segment kind and the generated inputs) and
reads the result.  tracegen must be importable from the checkout's src/
through PYTHONPATH; the first thing this file does is time that import.
"""

import sys
import time

_import_start = time.perf_counter()
import tracegen  # noqa: E402  (timed: the first import in a fresh interpreter)

IMPORT_S = time.perf_counter() - _import_start

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from calibrate import gauge_ns, import_gauge_s, kernel_ns, scale  # noqa: E402
from tracer import Tracer  # noqa: E402

# run.py ran the import gauge just before starting this process; this run
# closes the bracket around the import (see calibrate.py).
IMPORT_GAUGE_AFTER_S = import_gauge_s()

# Finite samples whose mean length is further than this many standard
# errors from the exact expected length fail the law check.
Z_BOUND = 6.0
# Items hashed into the output digest: a fixed prefix, so the digest does
# not depend on how many items fit in the time window.
DIGEST_ITEMS = 500
# Blocks of the short boundary stream opened on the cold model.
PROBE_BLOCKS = 4
# The CPU speed gauge runs between timed windows of this length.
WINDOW_NS = 50_000_000


class Checks:
    """Operation counts and the failures found by the output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.messages: list[str] = []

    def fail(self, ops: int, message: str, incorrect: bool = True) -> None:
        self.failed += ops
        self.incorrect += ops if incorrect else 0
        self.messages.append(message)


class Digest:
    """sha256 over the normal forms of the first DIGEST_ITEMS items."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._left = DIGEST_ITEMS

    def add(self, trace) -> None:
        if self._left:
            self._left -= 1
            self._hash.update(repr(trace.factors).encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def timed_calls(call, check, ops):
    """Call ``call`` ``ops`` times in a closed loop.  ``check`` sees each
    result outside the timed window.

    Returns the duration of each call in ns, scaled to reference speed by
    gauge runs between windows of WINDOW_NS, and the raw total in ns.
    """
    clock = time.perf_counter_ns
    latencies = array("q")
    window = array("q")
    raw_ns = 0
    before = kernel_ns()

    def close_window():
        nonlocal window, raw_ns, before
        after = kernel_ns()
        factor = scale(before, after)
        latencies.extend(round(ns * factor) for ns in window)
        raw_ns += sum(window)
        window = array("q")
        before = after

    close_at = clock() + WINDOW_NS
    for _ in range(ops):
        start = clock()
        item = call()
        end = clock()
        window.append(end - start)
        check(item)
        if end >= close_at:
            close_window()
            close_at = clock() + WINDOW_NS
    close_window()
    return latencies, raw_ns


class Stopwatch:
    """Times one stretch of work, scaled to reference speed."""

    def __enter__(self):
        self._gauge = gauge_ns()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw_s = time.perf_counter() - self._start
        self.seconds = self.raw_s * scale(self._gauge, gauge_ns())


def load_dict(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_finite(spec, tracer, checks):
    """sample_many in a closed loop; the law check compares the mean length
    with the exact expected length."""
    data = load_dict(spec["model"])
    if tracer:
        tracer.install()
    with Stopwatch() as setup:
        model = tracegen.model_from_dict(data)
        p = spec["p"] or spec["p_factor"] * tracegen.smallest_root(model)
        counter = tracegen.StepCounter()
        params = tracegen.SamplerParams(p=p, seed=spec["stream_seed"])
        samples = tracegen.sample_many(model, params, 1 << 62, counter=counter)
        first = next(samples)

    digest = Digest()
    moments = [0, 0, 0]  # count, sum, sum of squares of the lengths

    def check(x):
        digest.add(x)
        n = x.length
        moments[0] += 1
        moments[1] += n
        moments[2] += n * n

    check(first)
    latencies, raw_ns = timed_calls(samples.__next__, check, spec["ops"])
    if tracer:
        tracer.uninstall()
    rss_mb = peak_rss_mb()

    count, total, squares = moments
    checks.attempted += count
    expected = tracegen.expected_length(model, p)
    mean = total / count
    variance = max(squares / count - mean * mean, 0.0)
    stderr = math.sqrt(variance / count) if count > 1 else 0.0
    if stderr == 0.0 or abs(mean - expected) > Z_BOUND * stderr:
        checks.fail(count, f"mean length {mean!r} vs expected {expected!r} "
                           f"(standard error {stderr!r}, {count} samples)")
    if spec["probe"]:
        probe(model, spec["stream_seed"], checks)
    return {
        "setup": setup, "latencies": latencies, "raw_ns": raw_ns,
        "letters": total - first.length, "steps": counter.steps, "letters_traced": total,
        "rss_mb": rss_mb, "digest": digest.hexdigest(), "models": {spec["name"]: model},
    }


def probe(model, seed, checks):
    """A short boundary stream at p_sigma on the same model; each block
    requested is one operation, and a block not delivered has failed."""
    pivot = model.letters[0]
    done = 0
    checks.attempted += PROBE_BLOCKS
    try:
        stream = tracegen.open_stream(model, pivot, seed)
        while done < PROBE_BLOCKS:
            block = stream.next_block()
            done += 1
            if not tracegen.is_pyramidal(model, block, pivot):
                checks.fail(1, f"probe block {done - 1} is not pyramidal at {pivot}")
    except Exception as exc:  # a program fault, counted and reported
        checks.fail(PROBE_BLOCKS - done,
                    f"probe block {done}: {type(exc).__name__}: {exc}", incorrect=False)


def run_boundary(spec, tracer, checks):
    """open_stream then next_block in a closed loop; every block must be
    pyramidal with apex the pivot."""
    data = load_dict(spec["model"])
    if tracer:
        tracer.install()
    with Stopwatch() as setup:
        model = tracegen.model_from_dict(data)
        pivot = model.letters[0]
        stream = tracegen.open_stream(model, pivot, spec["stream_seed"])
        first = stream.next_block()

    digest = Digest()
    bad = []

    def check(block):
        digest.add(block)
        if not tracegen.is_pyramidal(model, block, pivot):
            bad.append(stream.blocks_done - 1)

    check(first)
    latencies, raw_ns = timed_calls(stream.next_block, check, spec["ops"])
    if tracer:
        tracer.uninstall()
    rss_mb = peak_rss_mb()
    checks.attempted += stream.blocks_done
    if bad:
        checks.fail(len(bad), f"blocks {bad[:5]} are not pyramidal at {pivot}")
    return {
        "setup": setup, "latencies": latencies, "raw_ns": raw_ns,
        "letters": stream.length - first.length, "steps": stream.counter.steps,
        "letters_traced": stream.length, "rss_mb": rss_mb,
        "digest": digest.hexdigest(), "models": {spec["name"]: model},
    }


def run_reference(spec, tracer, checks):
    """The in-process sequential BlockStream.run that the CLI output must
    reproduce."""
    model = tracegen.load_model(spec["model"])
    with Stopwatch() as sequential:
        final = tracegen.open_stream(model, model.letters[0], spec["stream_seed"]).run(
            spec["blocks"])
    lists = json.dumps(tracegen.trace_to_lists(model, final)).encode()
    return {
        "sequential_s": sequential.seconds, "final_digest": hashlib.sha256(lists).hexdigest(),
        "length": final.length, "models": {spec["name"]: model},
    }


def run_cli(spec, tracer, checks):
    """tracegen.cli.main in this process, for the traced split of the CLI
    path.  A StepCounter is passed into parallel_run, which the CLI does
    not do itself.  run.py checks the output against the reference run
    made here after the timed call."""
    import tracegen.boundary
    import tracegen.cli

    counter = tracegen.StepCounter()
    parallel_run = tracegen.boundary.parallel_run

    def counted_parallel_run(*args, **kwargs):
        kwargs.setdefault("counter", counter)
        return parallel_run(*args, **kwargs)

    tracegen.boundary.parallel_run = counted_parallel_run
    if tracer:
        tracer.install()
        # pool workers forked from here run untraced
        os.register_at_fork(after_in_child=tracer.uninstall)
    with open(spec["output"], "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        with Stopwatch() as wall:
            status = tracegen.cli.main(spec["argv"])
    if tracer:
        tracer.uninstall()
    tracegen.boundary.parallel_run = parallel_run
    rss_mb = peak_rss_mb()
    reference = run_reference(spec, None, checks)
    return dict(reference, setup=None, wall=wall, status=status, steps=counter.steps,
                letters_traced=reference["length"], rss_mb=rss_mb)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_import(spec, tracer, checks):
    """Nothing beyond the timed import."""
    return {"models": {}}


KINDS = {"finite": run_finite, "boundary": run_boundary,
         "reference": run_reference, "cli": run_cli, "import": run_import}


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    if not Path(tracegen.__file__).resolve().is_relative_to(src):
        sys.exit(f"tracegen was imported from {tracegen.__file__}, not from {src}")
    tracer = Tracer() if spec.get("trace") else None
    checks = Checks()
    result = KINDS[spec["kind"]](spec, tracer, checks)
    models = result.pop("models")
    latencies = result.pop("latencies", array("q"))
    latencies_path = Path(sys.argv[2]).with_suffix(".ns")
    latencies_path.write_bytes(latencies.tobytes())
    setup, wall = result.pop("setup", None), result.pop("wall", None)
    if setup:
        result["setup_s"] = setup.seconds
        result["wall_s"] = setup.seconds + sum(latencies) / 1e9
        raw_wall_s = setup.raw_s + result.pop("raw_ns") / 1e9
    elif wall:
        result["wall_s"], raw_wall_s = wall.seconds, wall.raw_s
    if setup or wall:
        result["slowdown"] = raw_wall_s / result["wall_s"]
    if tracer:
        # the span times are raw; bring them to reference speed with the
        # traced region's mean factor, which keeps their sum equal to wall_s
        factor = result["wall_s"] / raw_wall_s
        per_layer = tracer.metrics(
            raw_wall_s, result["steps"], result["letters_traced"],
            result.get("sequential_s", 0.0) / factor, spec.get("workers", 1))
        result["per_layer"] = {k: v * factor if k.endswith("_s") else v
                               for k, v in per_layer.items()}
        result["untraced_spans"] = tracer.missing
    result.update({
        "import_s": IMPORT_S, "import_gauge_after_s": IMPORT_GAUGE_AFTER_S,
        "latencies_file": latencies_path.name,
        "attempted": checks.attempted, "failed": checks.failed,
        "incorrect": checks.incorrect, "messages": checks.messages,
        "p_sigma_hex": {name: tracegen.smallest_root(m).hex() for name, m in models.items()},
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "tracegen": tracegen.__version__},
    })
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
