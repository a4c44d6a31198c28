#!/usr/bin/env python3
"""Cost split of the RNG layer, printed as one JSON line.

Two splits, in microseconds:

- ``refill_us``: one refill of a run child (a chunk of ``--chunk``
  doubles), split into taking the shared generator's lock, writing the
  stream's four state words, ``random(n)``, ``tolist`` and the LCG jump
  that advances the stream's state; ``whole`` times ``RandomStream._refill``
  itself on the same streams.
- ``stream_us``: one stream derived in a run of ``--run`` consecutive keys
  by ``RandomStream.splits``, split into hashing the keys into the pools
  (absorb), PCG64 seeding, the first doubles (heads) and building the child
  objects; ``whole`` times ``RandomStream._run`` itself.

Each part is timed alone over the same inputs, in a loop of its own, with
the cost of an empty loop taken off, so the parts need not add up exactly
to ``whole``.  ``first_refill_us`` is the first refill made in this
process after ``import tracegen``, before any loop; run the script in
fresh interpreters to see how it varies.

    PYTHONPATH=src python scripts/rng_costs.py --streams 20000
"""

import argparse
import json
import platform
import time

import numpy as np

from tracegen import sampler
from tracegen.sampler import _JUMPS, _MASK64, _MASK128, _SHARED, RandomStream


def per_call_us(fn, items, repeat):
    """Best of ``repeat`` passes of ``fn`` over ``items``, per item, minus an
    empty pass."""

    def best(f):
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            f(items)
            times.append(time.perf_counter() - t0)
        return min(times)

    return max(best(fn) - best(empty), 0.0) / len(items) * 1e6


def empty(xs):
    for _ in xs:
        pass


def refill_split(children, chunk, repeat):
    shared = _SHARED
    lock, words, random = shared.lock, shared.words, shared.random
    mult, add = _JUMPS[chunk]
    pairs = [(c._state, c._inc) for c in children]
    arrays = [random(chunk) for _ in range(64)]

    def take_lock(xs):
        for _ in xs:
            with lock:
                pass

    def write(xs):
        for state, inc in xs:
            words.state_low = state & _MASK64
            words.state_high = state >> 64
            words.inc_low = inc & _MASK64
            words.inc_high = inc >> 64

    def draw(xs):
        for _ in xs:
            random(chunk)

    def to_list(xs):
        for i in range(len(xs)):
            arrays[i & 63].tolist()

    def advance(xs):
        for state, inc in xs:
            (mult * state + add * inc) & _MASK128

    parts = {
        "lock": per_call_us(take_lock, pairs, repeat),
        "write": per_call_us(write, pairs, repeat),
        "random": per_call_us(draw, pairs, repeat),
        "tolist": per_call_us(to_list, pairs, repeat),
        "advance": per_call_us(advance, pairs, repeat),
    }
    parts["sum"] = sum(parts.values())

    def whole(streams):
        for stream in streams:
            stream._refill()
            stream._next = None  # frees the chunk, as a finished draw does

    # each pass refills fresh copies at the same chunk size
    best = []
    for _ in range(repeat):
        copies = []
        for c in children:
            copy = RandomStream.__new__(RandomStream)
            copy.seed, copy.key, copy._state, copy._inc = c.seed, c.key, c._state, c._inc
            copy._chunk = chunk
            copies.append(copy)
        t0 = time.perf_counter()
        whole(copies)
        best.append(time.perf_counter() - t0)
    parts["whole"] = min(best) / len(children) * 1e6
    return parts


def stream_split(base, run, n_runs, repeat):
    tiles = sampler._tiles(run)
    pool, t = sampler._pool(base.seed, base.key)
    firsts = [1 + k * run for k in range(n_runs)]

    def words_of(first):
        low, *high = sampler._words(first)
        return [low * tiles.ones + tiles.ramp] + [w * tiles.ones for w in high]

    keys = [words_of(first) for first in firsts]
    pools = [sampler._absorb(sampler._tile(pool, run), t, w, tiles)[0] for w in keys]
    seeded = [sampler._pcg64_seed(p, tiles) for p in pools]
    headed = [sampler._heads(s, i, tiles) for s, i in seeded]

    def absorb(xs):
        for first in xs:
            sampler._absorb(sampler._tile(pool, run), t, words_of(first), tiles)

    def seed(xs):
        for p in xs:
            sampler._pcg64_seed(p, tiles)

    def heads(xs):
        for s, i in xs:
            sampler._heads(s, i, tiles)

    def children(xs):
        new = RandomStream.__new__
        for first, (hs, ends) in zip(firsts, xs):
            for k, (head, (s_lo, s_hi, i_lo, i_hi)) in enumerate(zip(hs, ends)):
                child = new(RandomStream)
                child.seed = base.seed
                child.key = base.key + (first + k,)
                child._state = s_hi << 64 | s_lo
                child._inc = i_hi << 64 | i_lo
                child._chunk = sampler._MIN_CHUNK
                child._next = iter(head).__next__

    def whole(xs):
        for first in xs:
            for _ in base._run(first, run):
                pass

    parts = {
        "absorb": per_call_us(absorb, firsts, repeat) / run,
        "seed": per_call_us(seed, pools, repeat) / run,
        "heads": per_call_us(heads, seeded, repeat) / run,
        "children": per_call_us(children, headed, repeat) / run,
    }
    parts["sum"] = sum(parts.values())
    parts["whole"] = per_call_us(whole, firsts, repeat) / run
    return parts


def main():
    parser = argparse.ArgumentParser(description="Cost split of the RNG layer")
    parser.add_argument("--streams", type=int, default=20000, help="run children timed")
    parser.add_argument("--chunk", type=int, default=64, choices=sorted(_JUMPS))
    parser.add_argument("--run", type=int, default=256, help="streams per derived run")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    first = RandomStream(args.seed, (2**40,))
    t0 = time.perf_counter()
    first._refill()
    first_refill_us = (time.perf_counter() - t0) * 1e6

    base = RandomStream(args.seed)
    children = list(base.splits(0, args.streams))[1:]
    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "streams": len(children),
        "chunk": args.chunk,
        "run": args.run,
        "first_refill_us": round(first_refill_us, 3),
        "refill_us": refill_split(children, args.chunk, args.repeat),
        "stream_us": stream_split(base, args.run, max(args.streams // args.run, 1), args.repeat),
    }
    for split in ("refill_us", "stream_us"):
        record[split] = {k: round(v, 3) for k, v in record[split].items()}
    print(json.dumps(record))


if __name__ == "__main__":
    main()
