#!/usr/bin/env python3
"""Costs of a boundary stream on a dense random model, printed as one JSON line.

The model ``randN_dK`` is the N-letter path x0 - x1 - ... - x(N-1) plus
chords: each pair (i, j) with j >= i + 2 gets a chord with probability
K / N, drawn with ``random.Random(1)`` in row order, so each letter gets
about K extra neighbours.  The script opens a boundary stream on it and
draws ``--blocks`` blocks, then prints:

- ``wall_s``: seconds to open the stream and draw the blocks;
- ``peak_rss_mb``: this process's peak resident set size, the interpreter
  and numpy included;
- ``nodes``: sampler states compiled;
- ``values``: subsets whose exact Mobius value the stream's table holds;
- ``digest``: sha256 of the block words, one byte per letter index and a
  0xff byte after each block, so two checkouts that print the same digest
  drew the same blocks.

Run each setting in a fresh interpreter: the peak RSS is the process's.

    PYTHONPATH=src python scripts/dense_costs.py --letters 48 --degree 4 --blocks 200
"""

import argparse
import hashlib
import json
import platform
import random
import resource
import time

from tracegen import BlockStream, build_model


def dense_model(letters: int, degree: float):
    names = [f"x{i}" for i in range(letters)]
    rng = random.Random(1)
    chords = [
        (names[i], names[j])
        for i in range(letters)
        for j in range(i + 2, letters)
        if rng.random() < degree / letters
    ]
    return build_model(names, list(zip(names, names[1:])) + chords)


def main() -> None:
    parser = argparse.ArgumentParser(description="Costs of a dense boundary stream")
    parser.add_argument("--letters", type=int, default=48, help="N of randN_dK")
    parser.add_argument("--degree", type=float, default=4, help="K of randN_dK")
    parser.add_argument("--blocks", type=int, default=200)
    parser.add_argument("--pivot", default="x0")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    model = dense_model(args.letters, args.degree)
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    stream = BlockStream(model, args.pivot, args.seed)
    for word in stream.words(0, args.blocks):
        digest.update(bytes(word) + b"\xff")
    wall = time.perf_counter() - t0
    sampler = stream._sampler
    record = {
        "model": f"rand{args.letters}_d{args.degree:g}",
        "blocks": args.blocks,
        "pivot": args.pivot,
        "seed": args.seed,
        "wall_s": round(wall, 3),
        # ru_maxrss is in kilobytes on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "nodes": len(sampler._nodes),
        "values": len(sampler.table._pairs),
        "digest": digest.hexdigest(),
        "python": platform.python_version(),
    }
    print(json.dumps(record))


if __name__ == "__main__":
    main()
