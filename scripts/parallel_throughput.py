#!/usr/bin/env python3
"""Throughput of parallel block generation, plus an equality check.

Every worker count must reproduce the byte identical prefix; the timing
column is informational only.  Do not read speedups into it on a single
CPU box, where extra workers just add scheduling overhead.
"""

from argparse import ArgumentParser
import os
from pathlib import Path
import time

from tracegen import BlockStream, load_model

DEFAULT_MODEL = Path(__file__).resolve().parent.parent / "models" / "p4.json"


def main():
    parser = ArgumentParser(description="Parallel block generation throughput")
    parser.add_argument("--model", default=str(DEFAULT_MODEL),
                        help="model JSON file (default: models/p4.json, the 4 letter path)")
    parser.add_argument("--pivot", default=None, help="pivot letter (default: first)")
    parser.add_argument("--blocks", default=20000, type=int)
    parser.add_argument("--seed", default=3, type=int)
    parser.add_argument("--workers", default="1,2,4,8", help="comma separated worker counts")
    args = parser.parse_args()

    model = load_model(args.model)
    pivot = args.pivot or model.letters[0]

    print(f"blocks={args.blocks} pivot={pivot} cpus={os.cpu_count()}")
    reference = None
    print(f"{'workers':>8} {'seconds':>9} {'blocks/s':>10} {'identical':>10}")
    for workers in (int(w) for w in args.workers.split(",")):
        t0 = time.monotonic()
        result = BlockStream(model, pivot, args.seed).run(args.blocks, workers)
        dt = time.monotonic() - t0
        if reference is None:
            reference = result
        same = result == reference
        print(f"{workers:>8} {dt:9.2f} {args.blocks / dt:10.0f} {str(same):>10}")
        if not same:
            raise SystemExit("prefix changed with the worker count")


if __name__ == "__main__":
    main()
