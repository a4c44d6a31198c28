#!/usr/bin/env python3
"""Cost split of the RNG layer and of a finite sample, printed as one JSON line.

Three splits, in microseconds, and the counts of a finite sample's memo:

- ``refill_us``: one refill of a run child (a chunk of ``--chunk``
  doubles), split into taking the shared generator's lock, writing the
  stream's four state words, ``random(n)``, ``tolist`` and reading the
  advanced state words back; ``whole`` times ``RandomStream._refill``
  itself on the same streams.
- ``stream_us``: one stream derived in a run of ``--run`` consecutive keys
  by ``RandomStream.splits``, split into hashing the keys into the pools
  (absorb), generate_state's output words that seed PCG64 (seed), the
  first doubles and the state after them by LCG jumps (heads) and building
  the child objects; ``whole`` times ``RandomStream._run`` itself.
- ``sample_us``: one finite sample, for each of two models, p4 at
  ``p = 0.2`` and the tests' chorded 28-cycle at 0.6 of its root, split
  into deriving its stream (the ``splits`` iterator alone), drawing its
  word (``Sampler.draws`` over the same streams, less derive) and its
  normal form.  The form is timed two ways over the drawn words:
  ``normal_form`` runs ``normalize_indices`` on every word, and ``forms``
  runs them through ``sample_many``'s memo of forms (its hits, its misses
  and its stand-down); ``sum`` adds derive, draw and ``forms``.  ``whole``
  times ``sample_many`` itself, its Sampler's set-up included.
  ``--streams`` samples are timed per model, the sampler warmed by a first
  pass.
- ``memo``: for each of the same models and words, the share of words
  whose form the memo held, the number of forms it held, and whether it
  stood down (full by draw 2 _MEMO_FORMS - 1, and then released).

Each part is timed alone over the same inputs, in a loop of its own, with
the cost of an empty loop taken off (not in ``sample_us``, whose parts
are whole passes), so the parts need not add up exactly to ``whole``.  ``first_refill_us`` is the first refill made in this
process after ``import tracegen``, before any loop, by a run child, whose
state was derived with its run; run the script in fresh interpreters to
see how it varies.

    PYTHONPATH=src python scripts/rng_costs.py --streams 20000
"""

import argparse
import itertools
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from tracegen import sampler
from tracegen.mobius import smallest_root
from tracegen.monoid import normalize_indices
from tracegen.sampler import _MAX_CHUNK, _MIN_CHUNK, _SHARED, RandomStream, Sampler, SamplerParams

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import chorded_cycle, path_model  # noqa: E402


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
    states = [c._state for c in children]
    arrays = [random(chunk) for _ in range(64)]

    def take_lock(xs):
        for _ in xs:
            with lock:
                pass

    def write(xs):
        for state in xs:
            words.state_low, words.state_high, words.inc_low, words.inc_high = state

    def draw(xs):
        for _ in xs:
            random(chunk)

    def to_list(xs):
        for i in range(len(xs)):
            arrays[i & 63].tolist()

    def read(xs):
        for _ in xs:
            words.state_low, words.state_high, words.inc_low, words.inc_high

    parts = {
        "lock": per_call_us(take_lock, states, repeat),
        "write": per_call_us(write, states, repeat),
        "random": per_call_us(draw, states, repeat),
        "tolist": per_call_us(to_list, states, repeat),
        "read": per_call_us(read, states, repeat),
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
            copy.seed, copy.key, copy._state = c.seed, c.key, c._state
            copy._chunk = chunk
            copies.append(copy)
        t0 = time.perf_counter()
        whole(copies)
        best.append(time.perf_counter() - t0)
    parts["whole"] = min(best) / len(children) * 1e6
    return parts


def stream_split(base, run, n_runs, repeat):
    pool, t = sampler._pool(base.seed, base.key)
    firsts = [1 + k * run for k in range(n_runs)]

    def words_of(first):
        low, *high = sampler._words(first)
        return [np.arange(low, low + run, dtype=np.uint32), *high]

    keys = [words_of(first) for first in firsts]
    pools = [sampler._hash_words(pool, t, w)[0] for w in keys]
    seeded = [sampler._seeds(p, 0, ()) for p in pools]
    headed = [sampler._heads(s) for s in seeded]

    def absorb(xs):
        for first in xs:
            sampler._hash_words(pool, t, words_of(first))

    def seed(xs):
        for p in xs:
            sampler._seeds(p, 0, ())

    def heads(xs):
        for s in xs:
            sampler._heads(s)

    def children(xs):
        new = RandomStream.__new__
        for first, (hs, ends) in zip(firsts, xs):
            for k, (head, state) in enumerate(zip(hs, ends)):
                child = new(RandomStream)
                child.seed = base.seed
                child.key = base.key + (first + k,)
                child._state = state
                child._chunk = sampler._MIN_CHUNK
                child._next = iter(head).__next__

    def whole(xs):
        for first in xs:
            base._run(first, run)

    parts = {
        "absorb": per_call_us(absorb, firsts, repeat) / run,
        "seed": per_call_us(seed, pools, repeat) / run,
        "heads": per_call_us(heads, seeded, repeat) / run,
        "children": per_call_us(children, headed, repeat) / run,
    }
    parts["sum"] = sum(parts.values())
    parts["whole"] = per_call_us(whole, firsts, repeat) / run
    return parts


def sample_split(model, p, n, seed, repeat):
    params = SamplerParams(p=p, seed=seed)
    drawer = Sampler(model, params)
    words = list(drawer.draws(RandomStream(seed).splits(0, n)))

    def best_us(loop):
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            for _ in loop():
                pass
            times.append(time.perf_counter() - t0)
        return min(times) / n * 1e6

    derive = best_us(lambda: RandomStream(seed).splits(0, n))
    parts = {
        "derive": derive,
        "draw": best_us(lambda: drawer.draws(RandomStream(seed).splits(0, n))) - derive,
        "normal_form": best_us(lambda: map(normalize_indices, itertools.repeat(model), words)),
        "forms": best_us(
            lambda: itertools.chain.from_iterable(sampler._normal_forms(model, iter(words)))
        ),
    }
    parts["sum"] = parts["derive"] + parts["draw"] + parts["forms"]
    parts["whole"] = best_us(lambda: sampler.sample_many(model, params, n))
    return parts, memo_counts(model, words)


def memo_counts(model, words):
    """How ``sample_many``'s memo of forms meets ``words``: the share of them
    it held, the forms it held, and whether it stood down, as it does when
    it is full at draw 2 _MEMO_FORMS - 1."""
    memo, hits, stood_down = sampler._FormMemo(model), 0, False
    head = 2 * sampler._MEMO_FORMS - 1
    for drawn, key in enumerate(map(bytes, words)):
        if drawn == head and len(memo) >= sampler._MEMO_FORMS:
            stood_down = True
            break
        hits += key in memo
        memo[key]
    return {"hit_share": round(hits / len(words), 4), "forms": len(memo), "stood_down": stood_down}


def main():
    parser = argparse.ArgumentParser(description="Cost split of the RNG layer")
    parser.add_argument("--streams", type=int, default=20000,
                        help="run children timed, and samples timed per model")
    parser.add_argument("--chunk", type=int, default=_MIN_CHUNK,
                        choices=[_MIN_CHUNK, 2 * _MIN_CHUNK, _MAX_CHUNK])
    parser.add_argument("--run", type=int, default=256, help="streams per derived run")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    (first,) = RandomStream(args.seed)._run(2**40, 1)
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
    wide = chorded_cycle(28, (0, 5, 11, 17, 23))
    record["sample_us"], record["memo"] = {}, {}
    for name, model, p in (("p4", path_model(4), 0.2),
                           ("chorded28", wide, 0.6 * smallest_root(wide))):
        parts, memo = sample_split(model, p, args.streams, args.seed, args.repeat)
        record["sample_us"][name] = {k: round(v, 3) for k, v in parts.items()}
        record["memo"][name] = memo
    for split in ("refill_us", "stream_us"):
        record[split] = {k: round(v, 3) for k, v in record[split].items()}
    print(json.dumps(record))


if __name__ == "__main__":
    main()
