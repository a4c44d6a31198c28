#!/usr/bin/env python3
"""Costs of dropping boundary blocks on a heap, printed as one JSON line.

The model is the path x0 - x1 - ... - x(N-1) of ``--letters`` letters, or
with ``--shape cycle`` the same path closed by the edge x(N-1) - x0.  The
script draws ``--blocks`` boundary blocks (pivot x0) as letter index words,
untimed, then times these over those same words, best of ``--repeat``
passes:

- ``normalize_us``: ``normalize_indices`` of one block, per block;
- ``extend_us``: ``Heap.extend`` of one block onto one heap grown from
  empty over all the blocks, per block;
- ``glue_us``: ``Heap.glue`` of range heaps onto one heap grown from empty,
  per block: the blocks are dropped, untimed, on heaps of 256 blocks each,
  as a pool's workers drop their ranges, and each is glued in order;
  ``glue_dropped`` is the share of the range heaps' levels that the glue
  dropped piece by piece rather than laid whole;
- ``glue_fallback_us`` and ``extend_fallback_us``: the glue where landing
  levels never align, against ``Heap.extend``, per block.  The words lose
  their letters x(N-2) and x(N-1), each is dropped, untimed, on a heap of
  its own, and the heaps are glued in order, on the path whatever
  ``--shape``, onto a heap that holds one piece of every letter, dropped
  from x(N-1) down to x0; ``extend`` drops the same words on the same
  heap.  There x(N-1) lands 2 levels up for good, and every other letter
  at least 3 above where the glued word alone leaves it, so the glue
  drops every level; that is checked, as is that both heaps agree;
- ``final_floor_us``: one ``final_floor()`` call on that grown heap, over
  ``--calls`` calls, per call.

``digest`` is the sha256 of the normal forms: each block's factors and then
the grown heap's, every factor as 8 little-endian bytes and a 0xff byte
after each trace.  Two checkouts that print the same digest built the same
heaps.  The glued heap is checked to equal the grown one.

    PYTHONPATH=src python scripts/heap_costs.py --letters 16 --blocks 3000
"""

import argparse
import hashlib
import json
import platform
import time

from tracegen import build_model, open_stream
from tracegen.monoid import Heap, normalize_indices


def model_of(shape: str, letters: int):
    names = [f"x{i}" for i in range(letters)]
    edges = list(zip(names, names[1:]))
    if shape == "cycle":
        edges.append((names[-1], names[0]))
    return build_model(names, edges)


def best_of(repeat: int, fn) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> None:
    parser = argparse.ArgumentParser(description="Costs of dropping blocks on a heap")
    parser.add_argument("--letters", type=int, default=16)
    parser.add_argument("--shape", choices=("path", "cycle"), default="path")
    parser.add_argument("--blocks", type=int, default=3000)
    parser.add_argument("--calls", type=int, default=20000, help="final_floor calls timed")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    model = model_of(args.shape, args.letters)
    stream = open_stream(model, "x0", args.seed)
    words = [stream.advance() for _ in range(args.blocks)]

    def normalize_all():
        for word in words:
            normalize_indices(model, word)

    grown = []

    def extend_all():
        heap = Heap(model)
        for word in words:
            heap.extend(word)
        grown[:] = [heap]

    parts = []
    for lo in range(0, len(words), 256):
        part = Heap(model)
        for word in words[lo:lo + 256]:
            part.extend(word)
        parts.append((part.factors, part.landing))
    dropped = []

    def glue_all():
        heap = Heap(model)
        dropped[:] = [heap.glue(*part) for part in parts]
        grown[:] = [heap]

    path = model_of("path", args.letters)
    kept = [[i for i in word if i < args.letters - 2] for word in words]
    lone = []
    for word in kept:
        part = Heap(path)
        part.extend(word)
        lone.append((part.factors, part.landing))
    fallback = []

    def on_base():
        heap = Heap(path)
        heap.extend(reversed(range(args.letters)))
        return heap

    def glue_fallback():
        heap = on_base()
        dropped[:] = [heap.glue(*part) for part in lone]
        fallback[:] = [heap]

    def extend_fallback():
        heap = on_base()
        for word in kept:
            heap.extend(word)
        fallback[:] = [heap]

    glue_fallback_s = best_of(args.repeat, glue_fallback)
    glued = fallback[0]
    if sum(dropped) != sum(len(f) for f, _ in lone):
        raise SystemExit("a fallback glue laid levels whole")
    extend_fallback_s = best_of(args.repeat, extend_fallback)
    heap = fallback[0]
    if (glued.factors, glued.landing) != (heap.factors, heap.landing):
        raise SystemExit("the fallback's glued heap differs from the grown one")

    glue_s = best_of(args.repeat, glue_all)
    glued = grown[0]
    normalize_s = best_of(args.repeat, normalize_all)
    extend_s = best_of(args.repeat, extend_all)
    heap = grown[0]
    if (glued.factors, glued.landing) != (heap.factors, heap.landing):
        raise SystemExit("the glued heap differs from the grown one")

    def floors():
        floor = heap.final_floor
        for _ in range(args.calls):
            floor()

    floor_s = best_of(args.repeat, floors)

    digest = hashlib.sha256()
    for trace in [normalize_indices(model, word) for word in words] + [heap.trace()]:
        for f in trace.factors:
            digest.update(f.to_bytes(8, "little"))
        digest.update(b"\xff")
    record = {
        "model": f"{args.shape}{args.letters}",
        "blocks": args.blocks,
        "letters_per_block": round(sum(map(len, words)) / len(words), 1),
        "seed": args.seed,
        "normalize_us": round(normalize_s / args.blocks * 1e6, 2),
        "extend_us": round(extend_s / args.blocks * 1e6, 2),
        "glue_us": round(glue_s / args.blocks * 1e6, 2),
        "glue_dropped": round(sum(dropped) / sum(len(f) for f, _ in parts), 4),
        "glue_fallback_us": round(glue_fallback_s / args.blocks * 1e6, 2),
        "extend_fallback_us": round(extend_fallback_s / args.blocks * 1e6, 2),
        "final_floor_us": round(floor_s / args.calls * 1e6, 3),
        "heap_levels": len(heap.factors),
        "digest": digest.hexdigest(),
        "python": platform.python_version(),
    }
    print(json.dumps(record))


if __name__ == "__main__":
    main()
