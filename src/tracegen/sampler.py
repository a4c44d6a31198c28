"""Exact sampling of traces under the multiplicative probability laws.

The law with parameter p gives a trace x probability mu(p) * p^|x|, where
mu is the Mobius polynomial of the alphabet; conditioning on the maximal
pieces lying inside a target subset T keeps the same weights restricted to
that event.  Sampling is by pivot decomposition: pick a pivot letter a in
S and T, draw the number K of pyramidal prefixes with apex a from a
geometric law, then fill each prefix and the remainder the same way over
the alphabet without a.  A Sampler serves one root state (S, T) and
checks its masks and p once, when it is built: ``sample_many`` builds one
per call and a ``BlockStream`` one for all its blocks, and a single draw
is ``normalize_indices(model, Sampler(model, params).draw(stream))``.
Each state of the recursion is compiled once into a node holding its
pivot, the log of its geometric parameter and its two children, and a
draw runs the nodes on an explicit stack.  A visit to a state always runs
on through its rest chain, the states reached by removing pivots, so a
node is compiled with its whole rest chain and counts the chain's steps.
The cost is linear in output length, with a factor for the alphabet size:
every draw walks its root's rest chain and reads one uniform per node of
it.

Every sample and boundary block draws from its own stream keyed by
(seed, index): numpy's SeedSequence -> PCG64 stream, whose seed an
in-repo copy of SeedSequence's key hash computes in numpy uint32
arithmetic.  ``sample_many`` and the block runs take their streams from
``RandomStream.splits``, which derives runs of consecutive keys in one
numpy pass: the key hash over the run's keys, then each stream's first
doubles from its seed by precomputed LCG jumps in uint64 arithmetic.
Later doubles come in chunks from one shared PCG64: a refill writes the
stream's state words into the generator's, whose layout is checked once
at import, draws the chunk, and reads the advanced state back.  The
doubles are numpy's own, so the output is that of a SeedSequence and a
PCG64 built per stream.
"""

from __future__ import annotations

import ctypes
import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from typing import Iterator

import numpy as np

from .mobius import ROOT_MARGIN, MobiusTable, smallest_root
from .monoid import IndependenceModel, Trace, iter_bits, normalize_indices

PIVOT_RULES = ("lowindex", "maxdeg", "order")

# Uniforms are drawn from the generator in chunks of _MIN_CHUNK doubles,
# each refill doubling the chunk up to _MAX_CHUNK; a run child of
# ``splits`` draws its _HEAD derived doubles first.  A draw on a 28-letter
# model reads 28 to about 52 uniforms (mean 35), which one chunk serves.
_MIN_CHUNK = 64
_MAX_CHUNK = 256

# RandomStream derives numpy's SeedSequence -> PCG64 state.  SeedSequence
# hashes the seed's 32 bit words, zero padded to four, into a pool of four
# words and mixes them across it; each further seed word, then each word of
# the spawn key, is hashed four times and mixed into every pool word.  The
# root pool of a seed is numpy's own; the spawn key words are hashed here
# in numpy uint32 arithmetic, whose products wrap mod 2**32 as
# SeedSequence's do.  PCG64 seeds from the pool's 8 output words.
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_HASH_INIT_A = 0x43B0D7E5
_HASH_MULT_A = 0x931E8875
_HASH_INIT_B = 0x8B51F9DD
_HASH_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# A run of streams is derived with their first _HEAD doubles: numpy's
# next_double of PCG64, an LCG step then the XSL-RR output.  ``_ramp`` cuts
# runs of streams, and a pool's ranges of blocks, starting at _FIRST_RUN and
# doubling up to _MAX_RUN.
_HEAD = 8
_FIRST_RUN = 16
_MAX_RUN = 256


def _words(n: int) -> list[int]:
    """The 32 bit words of a non-negative integer, least significant first,
    as SeedSequence splits seeds and key elements."""
    if n < 0:
        raise ValueError(f"seed and key elements must be non-negative, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


@lru_cache(maxsize=64)
def _key_hash(t: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constants of the t-th word hashed after the first four: the
    four it is xored with, one per pool word, and the four it is then
    multiplied by, as uint32 columns."""
    h = [
        _HASH_INIT_A * pow(_HASH_MULT_A, 16 + 4 * t + j, 1 << 32) & _MASK32
        for j in range(5)
    ]
    return np.array(h[:4], np.uint32)[:, None], np.array(h[1:], np.uint32)[:, None]


def _hash_words(pool: np.ndarray, t: int, words: list) -> tuple[np.ndarray, int]:
    """Hash 32 bit words into pools, the next hashed being the t-th after
    the first four.  Pools are the columns of a 4-row uint32 array; a word
    is an int, or an array with one word per pool of a run."""
    for word in words:
        xor, mult = _key_hash(t)
        v = (word ^ xor) * mult
        v ^= v >> 16
        pool = pool * _MIX_MULT_L - v * _MIX_MULT_R
        pool ^= pool >> 16
        t += 1
    return pool, t


@lru_cache(maxsize=64)
def _pool(seed: int, key: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """SeedSequence(seed, spawn_key=key)'s pool, and the number of words
    hashed into it after the first four.  The root pool is SeedSequence's
    own; checking the seed's words first keeps this module's ValueError
    for a negative seed."""
    if key:
        pool, t = _hash_words(*_pool(seed, key[:-1]), _words(key[-1]))
    else:
        t = max(len(_words(seed)) - 4, 0)
        pool = np.random.SeedSequence(seed).pool[:, None]
    return pool, t


# generate_state xors its output word i with the i-th of these constants
# and multiplies it by the next; output word i hashes pool word i % 4
_OUTPUT_HASH = [_HASH_INIT_B * pow(_HASH_MULT_B, i, 1 << 32) & _MASK32 for i in range(9)]
_OUTPUT_XOR = np.array(_OUTPUT_HASH[:8], np.uint32)[:, None]
_OUTPUT_MULT = np.array(_OUTPUT_HASH[1:], np.uint32)[:, None]
_OUTPUT_POOL = np.arange(8) % 4


def _pairs(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit numbers as a (high words, low words) pair of uint64 arrays."""
    return tuple(np.array([v >> s & _MASK64 for v in values], np.uint64) for s in (64, 0))


def _times(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """a * b mod 2**128, for 128-bit numbers as (high, low) pairs, broadcast.
    uint64 products wrap mod 2**64, so only the high word of the product
    of the low words is built from 32-bit halves."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a0, a1 = a_lo & _MASK32, a_lo >> 32
    b0, b1 = b_lo & _MASK32, b_lo >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return carry + a_hi * b_lo + a_lo * b_hi, a_lo * b_lo


def _plus(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """a + b mod 2**128, for 128-bit numbers as (high, low) pairs."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


def _seeds(pool: np.ndarray, t: int, words: list) -> np.ndarray:
    """PCG64's seed and sequence for the streams whose last key element's
    words are ``words`` hashed into ``pool`` (see ``_hash_words``), one per
    column: the rows are seed high, seed low, seq high and seq low, as
    uint64.

    generate_state(4, uint64) hashes the pool words in turn, twice; output
    words 0-3 give the seed and 4-7 the sequence, each read as two
    little-endian 64-bit words, high first.
    """
    pool, _ = _hash_words(pool, t, words)
    out = (pool[_OUTPUT_POOL] ^ _OUTPUT_XOR) * _OUTPUT_MULT
    out ^= out >> 16
    out = out.astype(np.uint64)
    return out[0::2] | out[1::2] << 32


# PCG64 seeded with (seed, seq) starts from state 0 and increment inc =
# 2 seq + 1, steps, adds the seed and steps again.  n LCG steps take a
# state s to M**n s + (1 + M + ... + M**(n-1)) inc (Brown, "Random number
# generation with arbitrary strides", 1994), so the state the n-th double
# is output from is A seed + C inc mod 2**128, with A = M**(n+1) and
# C = 1 + M + ... + M**(n+1).  Row n - 1 holds (A, 2 C) for n = 1 to
# _HEAD, and _JUMP_PLUS holds C: A seed + 2 C seq + C is that state.
_A = [_PCG_MULT ** (n + 1) for n in range(1, _HEAD + 1)]
_C = [(_PCG_MULT ** (n + 2) - 1) // (_PCG_MULT - 1) for n in range(1, _HEAD + 1)]
_JUMP_TIMES = tuple(
    np.stack(pair, axis=1)[:, :, None] for pair in zip(_pairs(_A), _pairs([2 * c for c in _C]))
)
_JUMP_PLUS = tuple(x[:, None] for x in _pairs(_C))


def _heads(seeds: np.ndarray) -> tuple[list, list]:
    """Each stream's first _HEAD doubles, from its column of ``_seeds``, and
    its [state low, state high, inc low, inc high] 64-bit words after them."""
    p_hi, p_lo = _times(_JUMP_TIMES, (seeds[0::2], seeds[1::2]))
    hi, lo = _plus(_plus((p_hi[:, 0], p_lo[:, 0]), (p_hi[:, 1], p_lo[:, 1])), _JUMP_PLUS)
    # XSL-RR: hi ^ lo rotated right by the top 6 bits of hi
    xored, rot = hi ^ lo, hi >> 58
    out = xored >> rot | xored << (-rot & 63)
    heads = ((out >> 11) * 2.0**-53).T.tolist()
    seq_hi, seq_lo = seeds[2:]
    inc = seq_lo << 1 | 1, seq_hi << 1 | seq_lo >> 63
    return heads, np.array((lo[-1], hi[-1], *inc)).T.tolist()


class _SharedGenerator:
    """The one PCG64 generator every RandomStream refills its chunks from.

    It tracks no stream: under the lock, a refill writes the stream's state
    and increment into ``words`` and draws its chunk.  numpy's PCG64 holds
    its pair ``{state, inc}`` inside the object, each an ``__uint128`` (low
    word first) or a struct ``{high, low}``; a probe written through
    numpy's state setter picks the order of the four fields, and a pointer
    outside the object or any other layout raises ImportError.
    """

    def __init__(self) -> None:
        self.bitgen = bitgen = np.random.PCG64(0)
        self.random = np.random.Generator(bitgen).random
        self.lock = threading.Lock()
        address = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
        if not 0 <= address - id(bitgen) <= bitgen.__sizeof__() - 32:
            raise ImportError(f"numpy {np.__version__}: PCG64 state pointer outside the object")
        probe = state, inc = 3 << 64 | 5, 7 << 64 | 9  # four different words
        bitgen.state = dict(bitgen.state, state={"state": state, "inc": inc})
        for halves in (("low", "high"), ("high", "low")):
            fields = [(f"{x}_{h}", ctypes.c_uint64) for x in ("state", "inc") for h in halves]
            words = type("_StateWords", (ctypes.Structure,), {"_fields_": fields})
            self.words = w = words.from_address(address)
            if (w.state_high << 64 | w.state_low, w.inc_high << 64 | w.inc_low) == probe:
                return
        seen = list((ctypes.c_uint64 * 4).from_address(address))
        raise ImportError(
            f"numpy {np.__version__}: PCG64 state words {seen} after the probe "
            f"state {state:#x}, inc {inc:#x} match neither layout of pcg128_t"
        )


_SHARED = _SharedGenerator()


class RandomStream:
    """Deterministic uniform stream with hierarchical splitting.

    A stream is identified by a non-negative seed and a key tuple;
    ``split(i)`` derives an independent child stream keyed by (key..., i).
    Identical (seed, key) always reproduce the identical draw sequence,
    which is what makes parallel block generation order independent.

    The stream is numpy's ``PCG64(SeedSequence(seed, spawn_key=key))``,
    double for double.  Its PCG64 seed is derived here, in numpy uint32
    arithmetic, by hashing the last key element into the cached pool of
    (seed, key[:-1]); the seed's own pool comes once from SeedSequence.  A
    negative seed or key element raises ValueError, as SeedSequence does.
    ``_state`` holds the four 64-bit words of the stream's PCG64 state and
    increment.  A stream made by the constructor is seeded at its first
    refill, so a root that is only split derives nothing; ``splits``
    derives runs of consecutive children in one pass, each child with its
    first _HEAD doubles and its state after them.  Later doubles are drawn
    in chunks from one shared generator: a refill writes ``_state`` into
    it, draws the chunk, and reads the state the draw left back into
    ``_state``.  A chunk of n holds the same doubles as n single draws, so
    neither chunking, nor sharing, nor deriving in runs changes the
    sequence.
    """

    __slots__ = ("seed", "key", "_state", "_chunk", "_next")

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = seed = int(seed)
        self.key = key = tuple(map(int, key))
        for element in (seed, *key):
            _words(element)  # raises for a negative element
        self._state = None
        self._chunk = _MIN_CHUNK
        self._next = iter(()).__next__

    def _seeded(self) -> tuple[int, int, int, int]:
        """The stream's state and increment words as PCG64 seeds them.

        A stream made alone forms them in Python integers, with no head
        doubles: a numpy pass through ``_heads`` costs about as much for one
        stream as for sixteen, and a sampler's set-up draws from one.
        """
        key = self.key
        words = _words(key[-1]) if key else ()
        seeds = _seeds(*_pool(self.seed, key[:-1]), words)
        seed_hi, seed_lo, seq_hi, seq_lo = seeds.ravel().tolist()
        # pcg64_set_seed: two LCG steps from state 0, adding the seed between
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        state = ((seed_hi << 64 | seed_lo) + inc) * _PCG_MULT + inc & _MASK128
        return state & _MASK64, state >> 64, inc & _MASK64, inc >> 64

    def uniform(self) -> float:
        """Next double in [0, 1)."""
        try:
            return self._next()
        except StopIteration:
            return self._refill()

    def _refill(self) -> float:
        """Draw the next chunk from the shared generator into ``_next``, once
        the current one has run out, and return its first double."""
        n = self._chunk
        self._chunk = min(2 * n, _MAX_CHUNK)
        state = self._state or self._seeded()
        shared = _SHARED
        with shared.lock:
            words = shared.words
            words.state_low, words.state_high, words.inc_low, words.inc_high = state
            doubles = shared.random(n).tolist()
            self._state = words.state_low, words.state_high, words.inc_low, words.inc_high
        self._next = iter(doubles).__next__
        return self._next()

    def split(self, index: int) -> "RandomStream":
        return RandomStream(self.seed, self.key + (index,))

    def splits(self, start: int, stop: int) -> Iterator["RandomStream"]:
        """``split(i)`` for start <= i < stop, in order.

        The first child is ``split(start)``, made by this call, so taking
        one child costs one derivation.  The rest come, as they are taken,
        in the runs of ``_ramp(start + 1, stop, _MAX_RUN)``, each derived
        in one pass.
        """
        if start >= stop:
            return iter(())
        runs = (self._run(r.start, len(r)) for r in _ramp(start + 1, stop, _MAX_RUN))
        return chain((self.split(start),), chain.from_iterable(runs))

    def _run(self, first: int, n: int) -> list["RandomStream"]:
        """``split(first + k)`` for k < n, with first + k below the next
        multiple of 2**32, derived at once.  Nothing here touches the
        shared generator."""
        low, *high = _words(first)
        words = [np.arange(low, low + n, dtype=np.uint32), *high]
        heads, ends = _heads(_seeds(*_pool(self.seed, self.key), words))
        seed, key, new = self.seed, self.key, RandomStream.__new__
        children = []
        for index, head, state in zip(range(first, first + n), heads, ends):
            child = new(RandomStream)
            child.seed = seed
            child.key = key + (index,)
            child._state = state
            child._chunk = _MIN_CHUNK
            child._next = iter(head).__next__
            children.append(child)
        return children

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, key={self.key})"


def _ramp(start: int, stop: int, size: int) -> Iterator[range]:
    """Consecutive ranges from ``start`` to ``stop``: _FIRST_RUN (or
    ``size``, if smaller) first, then each twice the last, up to ``size``;
    a range never crosses a multiple of 2**32, so its key elements differ
    in their lowest word only."""
    n = min(_FIRST_RUN, size)
    while start < stop:
        end = min(start + n, stop, (start | _MASK32) + 1)
        yield range(start, end)
        start = end
        n = min(2 * n, size)


RandomStream(0, (0,))._refill()  # numpy's first hash, state write and draw are slow


class StepCounter:
    """Abstract cost meter for the samplers.

    Counts one step per state visited by the pivot recursion, one per unit
    of the geometric draw plus one, and one per emitted factor; these are
    the operations the linear cost bound is stated over.  The compiled
    sampler adds a rest chain's visit steps, which its head node holds,
    once per visit, and each node's share per geometric unit, empty states
    included, so the totals are those of the plain recursion.
    ``BlockStream.draw_block`` adds one more step per boundary block.
    Callers add to ``steps``.
    """

    __slots__ = ("steps",)

    def __init__(self) -> None:
        self.steps = 0


def _log_ratio(r: float) -> float:
    """log(r) for a geometric parameter r in [0, 1), and 0.0 for r == 0.

    Node compilation calls this for every state, so the range check is the
    last guard before the geometric draw int(log1p(-u) / log r): r = 1
    would divide by zero and r > 1 give negative counts.  Within
    ``check_parameter``'s range every r lies in [0, 1), so it raises only
    for a parameter that bypassed that check.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"geometric parameter must lie in [0, 1), got {r!r}")
    return math.log(r) if r else 0.0


@dataclass(frozen=True)
class SamplerParams:
    """Configuration for the finite trace sampler.

    p must satisfy 0 < p < smallest_root of the alphabet being sampled,
    with a small safety margin.  pivot selects how the pivot letter is
    chosen among the candidates: "lowindex" takes the smallest letter
    index, "maxdeg" the letter with the most dependence neighbours in the
    current subalphabet, "order" follows the explicit pivot_order list.
    """

    p: float
    seed: int = 0
    pivot: str = "lowindex"
    pivot_order: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.pivot not in PIVOT_RULES:
            raise ValueError(f"pivot must be one of {PIVOT_RULES}, got {self.pivot!r}")
        if self.pivot == "order" and not self.pivot_order:
            raise ValueError('pivot "order" needs a nonempty pivot_order')


class Sampler:
    """The pivot recursion for one model, parameter, pivot rule and root
    state: draws over ``subset`` (default the full alphabet) conditioned
    on all maximal pieces lying in ``target`` (default ``subset``).

    The constructor is the one range check on the sampler's input: it
    rejects mask bits outside the alphabet and, when the root state has
    candidates (``subset & target``), a parameter outside
    ``check_parameter``'s range for ``subset``.  The recursion only ever
    shrinks the subalphabet, which can only move the root up, so every
    state it reaches is in range too.

    Built once and reused for every draw.  Each state (subset, candidates)
    the recursion reaches is compiled on first use into a node
    ``[pivot, log_r, zero_below, steps, steps_per_k, rest, link]``: the
    pivot the rule picks, the log of the geometric parameter r at
    ``params.p``, ``-expm1(log_r) * (1 - 2**-30)`` (2.0 when r is 0), below
    which a uniform gives K = 0 with no log1p, the steps one visit of the
    node and of its rest chain adds, the steps it adds per geometric unit,
    and the rest and link children.  A child is None when it has no
    candidates.

    A visit to a node always goes on down its rest chain (the nodes reached
    by rest children), so a node is compiled with its whole rest chain.  The
    link slot holds the link state until the node first draws K > 0, as
    eager links would compile every reachable state; ``draw`` then puts
    ``[pivot, link node]`` there, pushed K times.  The root is compiled on
    the first draw.  A chain's visit steps are counted once per visit: the
    root's per draw, a link chain's in its parent's ``steps_per_k``.
    """

    def __init__(
        self,
        model: IndependenceModel,
        params: SamplerParams,
        subset: int | None = None,
        target: int | None = None,
        counter: StepCounter | None = None,
    ):
        subset = model.mask(subset)
        target = subset if target is None else model.mask(target)
        if subset & target:
            check_parameter(model, subset, params.p)
        self.model = model
        self.root_state = (subset, subset & target)
        self.table = MobiusTable(model, params.p)
        self.counter = StepCounter() if counter is None else counter
        if params.pivot == "order":
            self._order = tuple(model.index_of(ch) for ch in params.pivot_order)
        self._choose = getattr(self, f"_choose_{params.pivot}")
        self._nodes: dict[tuple[int, int], list] = {}
        # the root's node, compiled on the first draw
        self._root: list | None = None

    @staticmethod
    def _choose_lowindex(subset: int, candidates: int) -> int:
        return (candidates & -candidates).bit_length() - 1

    def _choose_maxdeg(self, subset: int, candidates: int) -> int:
        dep = self.model.dependence
        best = -1
        best_deg = -1
        for i in iter_bits(candidates):
            deg = (dep[i] & subset).bit_count()
            if deg > best_deg:
                best, best_deg = i, deg
        return best

    def _choose_order(self, subset: int, candidates: int) -> int:
        for i in self._order:
            if (candidates >> i) & 1:
                return i
        return (candidates & -candidates).bit_length() - 1

    def _node(self, state: tuple[int, int]) -> list:
        """The node of a state (subset, candidates) with candidates, with its
        whole rest chain compiled."""
        try:
            return self._nodes[state]
        except KeyError:
            pass
        subset, candidates = state
        pivot = self._choose(subset, candidates)
        log_r = _log_ratio(self.table.occurrence(subset, pivot))
        rest = subset & ~(1 << pivot)
        rest_candidates = rest & candidates
        link_candidates = rest & self.model.dependence[pivot]
        tail = self._node((rest, rest_candidates)) if rest_candidates else None
        # K = int(log1p(-u) / log_r) is 0 for u < 1 - r = -expm1(log_r); a
        # margin of 2**-30 relative, far wider than the few ulp the floats
        # can be off, keeps the skip of log1p where the two agree.  A visit
        # costs 1, the geometric draw K + 1, the K pivots and the remainder
        # one each: 3 + 2K; an empty child is never run, so its one step for
        # the visit is counted here.  A visit runs on down the rest chain,
        # whose visit steps it adds; ``draw`` adds the link chain's visit
        # steps to the 2 per unit when it resolves the link.
        node = self._nodes[state] = [
            pivot,
            log_r,
            -math.expm1(log_r) * (1 - 2**-30) if log_r else 2.0,
            3 + tail[3] if tail else 4,
            2 if link_candidates else 3,
            tail,
            (rest, link_candidates) if link_candidates else None,
        ]
        return node

    def draw(self, stream: RandomStream) -> list[int]:
        """Letter indices of one sample from the root state, in a valid
        linearisation order.

        A node with K > 0 pushes its remainder, then K times its pivot and
        its link child, onto a stack of nodes to fill and letters to emit,
        so the letters come out in the recursion's order; with K = 0 it
        reads only its threshold and runs its remainder next.  A chain's
        steps are counted on entry, from its head node.  When the chunk runs
        out, ``_refill`` draws the next one.
        """
        out: list[int] = []
        node = self._root
        if node is None:
            if not self.root_state[1]:
                self.counter.steps += 1
                return out
            node = self._root = self._node(self.root_state)
        steps = node[3]
        emit = out.append
        stack: list = []
        pop = stack.pop
        take = stream._next
        while True:
            try:
                u = take()
            except StopIteration:
                u = stream._refill()
                take = stream._next
            if u >= node[2] and (k := int(math.log1p(-u) / node[1])):
                link = node[6]
                if link.__class__ is tuple:
                    head = self._node(link)
                    node[4] += head[3]
                    link = node[6] = [node[0], head]
                steps += k * node[4]
                if link is not None:
                    if node[5] is not None:
                        stack.append(node[5])
                    stack += link * k
                    node = pop()
                    continue
                out += [node[0]] * k
            node = node[5]
            if node is not None:
                continue
            while stack:
                node = pop()
                if node.__class__ is not int:
                    break
                emit(node)
            else:
                break
        self.counter.steps += steps
        return out


def check_parameter(model: IndependenceModel, subset: int, p: float) -> None:
    """Raise ValueError unless 0 < p <= smallest_root(subset) - ROOT_MARGIN,
    the range the sampler accepts.

    The ``Sampler`` constructor runs it once on its root state, so every
    draw and stream gets it.  The margin keeps the root state's parameter
    r = 1 - mu_S(p) / mu_{S minus pivot}(p) away from 1, where the mean
    length and the geometric counts blow up, and for a ``BlockStream`` it
    is the gap check: the pivot-free subalphabet's root must clear p_sigma.
    """
    root = smallest_root(model, subset)
    if not 0.0 < p <= root - ROOT_MARGIN:
        raise ValueError(
            f"p={p!r} is out of range: need 0 < p <= root - ROOT_MARGIN, where "
            f"root={root!r} is the smallest Mobius root of the subalphabet and "
            f"ROOT_MARGIN={ROOT_MARGIN!r}"
        )


def sample_many(
    model: IndependenceModel,
    params: SamplerParams,
    n: int,
    subset: int | None = None,
    target: int | None = None,
    counter: StepCounter | None = None,
) -> Iterator[Trace]:
    """An iterator over n independent samples over ``subset`` conditioned
    on ``target`` (the Sampler's defaults), one split child stream per
    index.

    Sample i depends only on (seed, i), so the sequence is reproducible
    and insensitive to how many samples are drawn around it.  One Sampler
    draws every sample; it is built, and its masks and p checked, by this
    call, before any sample is drawn.
    """
    sampler = Sampler(model, params, subset, target, counter)
    streams = RandomStream(params.seed).splits(0, n)
    return map(normalize_indices, repeat(model), map(sampler.draw, streams))
