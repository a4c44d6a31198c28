#!/usr/bin/env python3
"""Digest of a fixed set of verification reports.

Runs the mobius, finite, boundary, cylinder and decomposition checks on
small models with frozen seeds and prints the number of reports and the
sha256 of ``json.dumps([r.to_dict() for r in reports], sort_keys=True)``.
Two checkouts that print the same line produce the same reports, byte for
byte.  The reduced suite configurations and the path and cycle models are
the test suite's own, imported from ``tests/``.  With ``--expect HEX`` the
script exits 1 unless the digest is HEX.  The wall time of each check goes
to stderr, summed over the models: one line for each row of the verify
table (``tracegen.verify.CHECKS``) and for each check called directly,
then the peak resident set size of the process.

    PYTHONPATH=src python scripts/report_digest.py --expect e4adb491d15d0c93e4dfaae3aed0344d9445189a0a541894050015053fc020b1
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import cycle_model, path_model  # noqa: E402
from test_verify import SMALL_BOUNDARY, SMALL_FINITE, TINY_BOUNDARY  # noqa: E402

from tracegen import build_model, smallest_root, verify  # noqa: E402
from tracegen.verify import (  # noqa: E402
    DEFAULT_SEED,
    MobiusSuiteConfig,
    run_boundary_suite,
    run_finite_suite,
    run_mobius_suite,
    verify_cylinders,
    verify_decomposition_law,
)


def reports(wall: Counter) -> list:
    """The reports, in digest order; wall[name] gains the seconds spent in
    the check of that name, a row of the verify table or a direct call."""

    def timed(check):
        def run(*args, **kwargs):
            start = time.perf_counter()
            got = check(*args, **kwargs)
            wall[check.__name__] += time.perf_counter() - start
            return got
        return run

    verify.CHECKS = {
        suite: tuple((offset, timed(check)) for offset, check in rows)
        for suite, rows in verify.CHECKS.items()
    }

    p4 = build_model("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    star4 = build_model("abcd", [("a", "b"), ("a", "c"), ("a", "d")])
    triangle = build_model("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    out = []
    mobius = MobiusSuiteConfig(exhaustive_limit=4, sampled_checks=64)
    for model in (p4, star4, path_model(10), cycle_model(10)):
        out += run_mobius_suite(model, seed=5, config=mobius)
    for model, pivot in ((p4, "a"), (p4, "b"), (star4, "a"), (triangle, "a")):
        out += run_finite_suite(model, seed=5, config=replace(SMALL_FINITE, pivot_letter=pivot))
        out += run_boundary_suite(
            model, seed=5, config=replace(SMALL_BOUNDARY, pivot_letter=pivot)
        )
        out.append(timed(verify_cylinders)(model, pivot, 11, 3, 600))
        out += timed(verify_decomposition_law)(
            model, pivot, 0.5 * smallest_root(model), n=5000, seed=7
        )
    out.append(timed(verify_cylinders)(p4, "a", DEFAULT_SEED, 3, 2000))
    out += run_boundary_suite(p4, seed=303, config=TINY_BOUNDARY)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--expect", metavar="HEX", help="exit 1 unless the digest is HEX")
    args = parser.parse_args()
    wall: Counter = Counter()
    dicts = [r.to_dict() for r in reports(wall)]
    for name, seconds in wall.items():
        print(f"{name} {seconds:.2f} s", file=sys.stderr)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(f"peak RSS {peak_kib / 1024:.1f} MB", file=sys.stderr)
    digest = hashlib.sha256(json.dumps(dicts, sort_keys=True).encode()).hexdigest()
    print(len(dicts), digest)
    if args.expect is not None and digest != args.expect.lower():
        sys.exit(f"digest mismatch: expected {args.expect}")


if __name__ == "__main__":
    main()
