"""Gauges of the CPU's current speed, used to scale measured times.

On a shared machine a core's speed drifts by up to 1.7x over tens of
seconds as other tenants load its sibling hyperthread, which makes raw
times of one code version differ by 30% from one minute to the next.
Each timed stretch of the benchmark is therefore bracketed by runs of a
fixed gauge and multiplied by (the gauge's time on a quiet core) / (its
time around the stretch).  A reported time is the time the stretch would
have taken on a quiet core of the 2-CPU x86 box the baseline was measured
on.  The gauges share no code with tracegen, so a change to tracegen
moves scaled times exactly as it moves raw ones.

Two gauges, each matched to the work it scales:

- kernel_ns, a loop of calls, dict and list work and integer arithmetic,
  scales the interpreter loops of the in-process workloads (set-up and
  calls).  Over 10-second stretches it cut the spread of sampling times
  from 0.28-0.32 to 0.03-0.07.
- import_gauge_s, a fresh interpreter importing a fixed set of standard
  library modules, scales imports and whole CLI runs.  The kernel does not
  track those: over ten fresh interpreters, import time divided by the
  kernel time spread more than import time alone.  The import gauge cut
  the spread of import times from 0.22 to 0.06 and of CLI runs from 0.21
  to 0.13.
"""

import subprocess
import sys
import time

REFERENCE_NS = 2_250_000
IMPORT_REFERENCE_S = 0.06
# Modules tracegen does not need; the gauge runs in its own isolated
# interpreter, so what tracegen imports cannot change the gauge's work.
IMPORT_GAUGE = ("asyncio, email.mime.multipart, http.server, decimal, xml.etree.ElementTree, "
                "unittest, logging.handlers, sqlite3, tarfile, csv, ctypes")


def _store(table, key, value):
    table[key] = value
    return len(table)


def kernel_ns() -> int:
    """Duration of one run of the fixed kernel, in ns."""
    start = time.perf_counter_ns()
    table = {}
    acc = 0
    out = []
    for i in range(6000):
        key = (i * 2654435761) & 1023
        acc += table.get(key, i) ^ (acc >> 3)
        _store(table, key, acc & 0xFFFF)
        out.append((key, acc))
        if len(out) > 64:
            out = []
    return time.perf_counter_ns() - start


def gauge_ns() -> int:
    """Median of three kernel runs, for single stretches of work where one
    run's jitter would not average out."""
    return sorted(kernel_ns() for _ in range(3))[1]


def scale(before_ns: float, after_ns: float) -> float:
    """Factor taking a time measured between two kernel runs to reference
    speed."""
    return 2 * REFERENCE_NS / (before_ns + after_ns)


def import_gauge_s() -> float:
    """Seconds a fresh isolated interpreter takes to import IMPORT_GAUGE."""
    code = (f"import time; t = time.perf_counter(); import {IMPORT_GAUGE}; "
            f"print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    return float(out.stdout)


def import_scale(before_s: float, after_s: float) -> float:
    """Factor taking an import-dominated time measured between two import
    gauge runs to reference speed."""
    return 2 * IMPORT_REFERENCE_S / (before_s + after_s)
