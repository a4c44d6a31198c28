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
pivot, the log of its geometric parameter and its two child states, and a
draw runs the nodes on an explicit stack.  A visit to a state always runs
on through its rest chain, the states reached by removing pivots, so each
chain is resolved and its steps counted once, when it is first entered.
The cost is linear in output length, with a factor for the alphabet size:
every draw walks its root's rest chain and reads one uniform per node of
it.

Every sample and boundary block draws from its own stream keyed by
(seed, index): numpy's SeedSequence -> PCG64 stream, whose state an
in-repo copy of SeedSequence's key hash computes.  ``sample_many`` and the
block runs take their streams from ``RandomStream.splits``, which derives
runs of consecutive keys in one pass of that hash, with each stream's
first doubles computed in numpy.  Later doubles come in chunks from one
shared PCG64: a refill writes the stream's state into the generator's
state words, whose layout is checked once at import, draws the chunk, and
advances the stream's state by a precomputed LCG jump.  The doubles are
numpy's own, so the output is that of a SeedSequence and a PCG64 built
per stream.
"""

from __future__ import annotations

import ctypes
import math
import threading
from dataclasses import dataclass
from functools import lru_cache
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

# RandomStream derives numpy's SeedSequence -> PCG64 state in Python
# integers.  SeedSequence hashes the seed's 32 bit words, zero padded to
# four, into a pool of four words and mixes them across it; each further
# seed word, then each word of the spawn key, is hashed four times and
# mixed into every pool word.  The root pool of a seed is numpy's own;
# the spawn key words are hashed here.  PCG64 seeds from the pool's 8
# output words.
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_HASH_INIT_A = 0x43B0D7E5
_HASH_MULT_A = 0x931E8875
_HASH_INIT_B = 0x8B51F9DD
_HASH_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# The derivation runs on n streams at once: the children of one stream
# whose last key elements are consecutive.  A single stream is the case
# n = 1.  Each quantity is one integer holding stream k's value in the
# _STRIDE bits from _STRIDE * k: four words (a pool, or one half of
# generate_state's output) as 32 bit lanes _SLOT bits apart, a PCG64 state
# or increment as one 128 bit number.  A lane times a 32 bit constant
# stays inside its slot (80 bits, as the mix's sums reach 2**65), and a
# state times the LCG multiplier inside its stride, so each step of the
# hash is a few big-integer operations whatever n is, and each LCG step
# is one product.
_SLOT = 80
_STRIDE = 4 * _SLOT
_STRIDE_BYTES = _STRIDE // 8

# A run of streams is derived with its first _HEAD doubles: numpy's
# next_double of PCG64, an LCG step then the XSL-RR output, computed for
# the whole run in numpy.  Runs start at _FIRST_RUN streams and double up
# to _MAX_RUN.
_HEAD = 8
_FIRST_RUN = 16
_MAX_RUN = 256


def _lanes(values: list[int], width: int) -> int:
    """One integer holding values[j] at bit width * j."""
    return sum(v << (width * j) for j, v in enumerate(values))


def _tile(value: int, n: int) -> int:
    """n copies of a value below 2**_STRIDE, one per stream."""
    return int.from_bytes(value.to_bytes(_STRIDE_BYTES, "little") * n, "little")


_SPREAD = _lanes([1] * 4, _SLOT)  # a 32 bit word times this fills all 4 lanes


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


# generate_state xors its output word i with the i-th of these constants
# and multiplies it by the next
_OUTPUT_HASH = [_HASH_INIT_B * pow(_HASH_MULT_B, i, 1 << 32) & _MASK32 for i in range(9)]


class _Tiles:
    """The lane constants of the derivation, repeated for n streams."""

    __slots__ = ("n", "ones", "ramp", "pool", "slots", "offset", "xors", "mask64", "mask128")

    def __init__(self, n: int):
        self.n = n
        self.ones = _tile(1, n)
        # k for stream k: its key element's offset from the run's first
        self.ramp = int.from_bytes(
            b"".join(k.to_bytes(_STRIDE_BYTES, "little") for k in range(n)), "little"
        )
        self.pool = _tile(_lanes([_MASK32] * 4, _SLOT), n)
        self.slots = [_tile(_MASK32 << (_SLOT * j), n) for j in range(4)]
        # keeps every lane >= 0 when the mix subtracts
        self.offset = _tile(_lanes([_MIX_MULT_R << 32] * 4, _SLOT), n)
        self.xors = [_tile(_lanes(_OUTPUT_HASH[h : h + 4], _SLOT), n) for h in (0, 4)]
        self.mask64 = _tile(_MASK64, n)
        self.mask128 = _tile(_MASK128, n)


_tiles = lru_cache(maxsize=8)(_Tiles)
_ONE = _Tiles(1)  # a single stream's, built at import so no stream waits


@lru_cache(maxsize=64)
def _hash_constants(t: int, n: int) -> tuple[int, list[int]]:
    """The hash constants of the t-th word hashed after the first four:
    the four it is xored with, as lanes for n streams, and the four it is
    then multiplied by."""
    h = [
        _HASH_INIT_A * pow(_HASH_MULT_A, 16 + 4 * t + j, 1 << 32) & _MASK32
        for j in range(5)
    ]
    return _tile(_lanes(h[:4], _SLOT), n), h[1:]


def _times(v: int, mults: list[int], tiles: _Tiles) -> int:
    """Each lane of v times its own multiplier, mod 2**32."""
    s0, s1, s2, s3 = tiles.slots
    m0, m1, m2, m3 = mults
    return ((v & s0) * m0 + (v & s1) * m1 + (v & s2) * m2 + (v & s3) * m3) & tiles.pool


def _absorb(pool: int, t: int, words: list[int], tiles: _Tiles) -> tuple[int, int]:
    """Hash a key element, given as lanes of each of its 32 bit words, into
    the pools, whose next word is the t-th hashed after the first four."""
    mask = tiles.pool
    for w in words:
        xor, mults = _hash_constants(t, tiles.n)
        v = _times(w * _SPREAD ^ xor, mults, tiles)
        v = (v ^ v >> 16) & mask
        pool = (_MIX_MULT_L * pool + tiles.offset - _MIX_MULT_R * v) & mask
        pool = (pool ^ pool >> 16) & mask
        t += 1
    return pool, t


@lru_cache(maxsize=64)
def _pool(seed: int, key: tuple[int, ...]) -> tuple[int, int]:
    """SeedSequence(seed, spawn_key=key)'s pool, and the number of words
    hashed into it after the first four.  The root pool is SeedSequence's
    own; checking the seed's words first keeps this module's ValueError
    for a negative seed."""
    if key:
        return _absorb(*_pool(seed, key[:-1]), _words(key[-1]), _ONE)
    extra = max(len(_words(seed)) - 4, 0)
    return _lanes([int(w) for w in np.random.SeedSequence(seed).pool], _SLOT), extra


def _half(pool: int, h: int, tiles: _Tiles) -> int:
    """generate_state's output words h to h + 3, from pool words 0-3, as
    the 128-bit number w2 | w3 << 32 | w0 << 64 | w1 << 96, where wj is
    word h + j."""
    v = _times(pool ^ tiles.xors[h // 4], _OUTPUT_HASH[h + 1 : h + 5], tiles)
    v = (v ^ v >> 16) & tiles.pool
    # lanes 0-3 sit at bits 0, 80, 160, 240; a copy shifted down by 48
    # puts lane 1 at 32 and lane 3 at 192, next to lanes 0 and 2
    v |= v >> 48
    return (v >> 160 & tiles.mask64) | (v & tiles.mask64) << 64


def _pcg64_seed(pool: int, tiles: _Tiles) -> tuple[int, int]:
    """PCG64's (state, inc) when seeded from the pools.

    generate_state(4, uint64) hashes the pool words in turn, twice; words
    0-3 give the seed and 4-7 the increment.  pcg64_set_seed then runs two
    LCG steps from state 0.
    """
    state = _half(pool, 0, tiles)
    inc = (_half(pool, 4, tiles) << 1 | tiles.ones) & tiles.mask128
    return ((inc + state) * _PCG_MULT + inc) & tiles.mask128, inc


def _heads(state: int, inc: int, tiles: _Tiles) -> tuple[list, list]:
    """The first _HEAD doubles of each stream, from its PCG64 (state, inc)
    as lanes, and each stream's [state low, state high, inc low, inc high]
    64-bit words after them."""
    n = tiles.n
    # each integer packs two states of every stream (after steps 2m + 1
    # and 2m + 2) as its low and high 128 bits, the last one the state
    # after _HEAD steps and the increment
    packed = []
    for _ in range(_HEAD // 2):
        odd = (state * _PCG_MULT + inc) & tiles.mask128
        state = (odd * _PCG_MULT + inc) & tiles.mask128
        packed.append(odd | state << 128)
    packed.append(state | inc << 128)
    data = b"".join(x.to_bytes(_STRIDE_BYTES * n, "little") for x in packed)
    words64 = np.frombuffer(data, "<u8").reshape(len(packed), n, _STRIDE // 64)
    # XSL-RR: hi ^ lo rotated right by the top 6 bits of hi; the state
    # after step 2m + b + 1 of stream k is at [m, k, 2b : 2b + 2]
    lo, hi = words64[:-1, :, 0:4:2], words64[:-1, :, 1:4:2]
    x, rot = lo ^ hi, hi >> 58
    x = x >> rot | x << ((64 - rot) & 63)
    heads = ((x >> 11) * 2.0**-53).transpose(1, 0, 2).reshape(n, _HEAD).tolist()
    return heads, words64[-1, :, :4].tolist()


# (A, C) for each chunk size n: n LCG steps take a PCG64 state s to
# A * s + C * inc mod 2**128, with A = M**n and C = 1 + M + ... + M**(n-1)
# (Brown, "Random number generation with arbitrary strides", 1994)
_JUMPS = {
    n: (_PCG_MULT**n & _MASK128, (_PCG_MULT**n - 1) // (_PCG_MULT - 1) & _MASK128)
    for n in (64, 128, 256)
}


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
    double for double.  Its 128 bit PCG64 state is derived here in Python
    integers by hashing the last key element into the cached pool of
    (seed, key[:-1]); the seed's own pool comes once from SeedSequence.  A
    negative seed or key element raises ValueError, as SeedSequence does.
    ``splits`` derives runs of consecutive children at once, each child
    with its first _HEAD doubles and its state after them.  Later doubles
    are drawn in chunks from one shared generator: a refill writes
    ``_state`` and ``_inc`` into it, draws the chunk, and jumps ``_state``
    past the chunk.  A chunk of n holds the same doubles as n single
    draws, so neither chunking, nor sharing, nor deriving in runs changes
    the sequence.
    """

    __slots__ = ("seed", "key", "_state", "_inc", "_chunk", "_next")

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = seed = int(seed)
        self.key = key = tuple(map(int, key))
        if key:
            pool, _ = _absorb(*_pool(seed, key[:-1]), _words(key[-1]), _ONE)
        else:
            pool, _ = _pool(seed, key)
        self._state, self._inc = _pcg64_seed(pool, _ONE)
        self._chunk = _MIN_CHUNK
        self._next = iter(()).__next__

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
        state, inc = self._state, self._inc
        mult, add = _JUMPS[n]
        shared = _SHARED
        with shared.lock:
            words = shared.words
            words.state_low = state & _MASK64
            words.state_high = state >> 64
            words.inc_low = inc & _MASK64
            words.inc_high = inc >> 64
            doubles = shared.random(n).tolist()
            self._state = (mult * state + add * inc) & _MASK128
        self._next = iter(doubles).__next__
        return self._next()

    def split(self, index: int) -> "RandomStream":
        return RandomStream(self.seed, self.key + (index,))

    def splits(self, start: int, stop: int) -> Iterator["RandomStream"]:
        """``split(i)`` for start <= i < stop, in order, made lazily.

        The first child is ``split(start)``, so taking one child costs one
        derivation.  The rest come in runs of _FIRST_RUN children, doubling
        up to _MAX_RUN, each run derived at once; a run never crosses a
        multiple of 2**32, so its key elements differ in their lowest word
        only.
        """
        if start >= stop:
            return
        yield self.split(start)
        size = _FIRST_RUN
        i = start + 1
        while i < stop:
            n = min(size, stop - i, (i | _MASK32) + 1 - i)
            yield from self._run(i, n)
            i += n
            size = min(2 * size, _MAX_RUN)

    def _run(self, first: int, n: int) -> Iterator["RandomStream"]:
        """``split(first + k)`` for k < n, with first + k below the next
        multiple of 2**32, derived at once.  Nothing here touches the
        shared generator."""
        tiles = _tiles(n)
        pool, t = _pool(self.seed, self.key)
        low, *high = _words(first)
        words = [low * tiles.ones + tiles.ramp] + [w * tiles.ones for w in high]
        pool, _ = _absorb(_tile(pool, n), t, words, tiles)
        heads, ends = _heads(*_pcg64_seed(pool, tiles), tiles)
        seed, key, new = self.seed, self.key, RandomStream.__new__
        for k, (head, (s_lo, s_hi, i_lo, i_hi)) in enumerate(zip(heads, ends)):
            child = new(RandomStream)
            child.seed = seed
            child.key = key + (first + k,)
            child._state = s_hi << 64 | s_lo
            child._inc = i_hi << 64 | i_lo
            child._chunk = _MIN_CHUNK
            child._next = iter(head).__next__
            yield child

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, key={self.key})"


RandomStream(0)._refill()  # numpy's first state write and draw are slow


class StepCounter:
    """Abstract cost meter for the samplers.

    Counts one step per state visited by the pivot recursion, one per unit
    of the geometric draw plus one, and one per emitted factor; these are
    the operations the linear cost bound is stated over.  The compiled
    sampler adds each rest chain's share when the chain is entered, and
    each node's share per geometric unit, empty states included, so the
    totals are those of the plain recursion.  ``BlockStream.draw_block``
    adds one more step per boundary block.  Callers add to ``steps``.
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
    node adds, the steps it adds per geometric unit, and the rest and link
    children.  A child is None when it has no candidates, and the key of its
    state until it is resolved.

    A visit to a node always goes on down its rest chain (the nodes reached
    by rest children), so ``draw`` resolves a chain whole when it is first
    entered: the root's on the first draw, a link child's when its parent
    first draws K > 0, whose link slot then holds ``[pivot, link node]``,
    pushed K times.  The chain's visit steps are counted once: the root's
    per draw, a link chain's in its parent's ``steps_per_k``.
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
        # the root's resolved chain and its visit steps, on the first draw
        self._root: tuple[list, int] | None = None

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
        """The node of a state (subset, candidates) with candidates."""
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
        # K = int(log1p(-u) / log_r) is 0 for u < 1 - r = -expm1(log_r); a
        # margin of 2**-30 relative, far wider than the few ulp the floats
        # can be off, keeps the skip of log1p where the two agree.  A visit
        # costs 1, the geometric draw K + 1, the K pivots and the remainder
        # one each: 3 + 2K; an empty child is never run, so its one step for
        # the visit is counted here.  ``draw`` adds the link chain's visit
        # steps to the 2 per unit when it resolves the chain.
        node = self._nodes[state] = [
            pivot,
            log_r,
            -math.expm1(log_r) * (1 - 2**-30) if log_r else 2.0,
            3 if rest_candidates else 4,
            2 if link_candidates else 3,
            (rest, rest_candidates) if rest_candidates else None,
            (rest, link_candidates) if link_candidates else None,
        ]
        return node

    def _chain(self, state: tuple[int, int]) -> tuple[list, int]:
        """The node of a state with candidates, with its whole rest chain
        resolved, and the steps one visit of the chain adds."""
        head = node = self._node(state)
        steps = node[3]
        while (rest := node[5]) is not None:
            if rest.__class__ is tuple:
                rest = node[5] = self._node(rest)
            node = rest
            steps += node[3]
        return head, steps

    def draw(self, stream: RandomStream) -> list[int]:
        """Letter indices of one sample from the root state, in a valid
        linearisation order.

        A node with K > 0 pushes its remainder, then K times its pivot and
        its link child, onto a stack of nodes to fill and letters to emit,
        so the letters come out in the recursion's order; with K = 0 it
        reads only its threshold and runs its remainder next.  Every node
        the loop reaches has its rest chain resolved, and the chain's steps
        are counted on entry.  When the chunk runs out, ``_refill`` draws
        the next one.
        """
        out: list[int] = []
        root = self._root
        if root is None:
            if not self.root_state[1]:
                self.counter.steps += 1
                return out
            root = self._root = self._chain(self.root_state)
        node, steps = root
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
                    head, chain_steps = self._chain(link)
                    node[4] += chain_steps
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
    return (normalize_indices(model, sampler.draw(stream)) for stream in streams)
