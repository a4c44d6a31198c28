"""Streaming generation of infinite traces under the uniform measure.

An irreducible alphabet (connected dependence graph) carries a unique
uniform probability measure on the boundary of infinite traces, under
which every cylinder of a finite prefix x has probability p^|x| at the
critical parameter p, the smallest Mobius root of the whole alphabet.

The generator emits an endless product of independent identically
distributed blocks V . a, where a is a fixed pivot letter and V is drawn
over the alphabet without a, at the critical parameter, conditioned on
its maximal pieces lying in the dependence neighbourhood of a.  That
conditioning is exactly what makes every block pyramidal with apex a, so
consecutive blocks interlock and the partial products converge to a
boundary point with the uniform law.

Each block is drawn from its own child random stream keyed by the block
index, by one recipe, ``BlockStream.draw_block``, which also counts the
block's step.  ``BlockStream.ranges``, the one ordered source of blocks,
runs it in this process, one block at a time, or on a pool of workers,
one range of blocks at a time; the workers can also drop each range on a
heap of their own, for the reader to glue.  ``parallel_run`` and the CLI
read it, and a replay and a run read its in-process part,
``BlockStream.words``, so the stream is restartable and its output is the
same for any worker count.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterator, Sequence

from .mobius import NotIrreducibleError, _components, smallest_root
from .monoid import Heap, IndependenceModel, Trace, iter_bits, normalize_indices
from .sampler import _MAX_RUN, RandomStream, Sampler, SamplerParams, StepCounter, _ramp

NO_LAST_BLOCK = 2**64  # an index no stream reaches: the stop of an endless run


class BlockStream:
    """Mutable generator state for one boundary run.

    Single owner: the stream mutates in place as blocks are drawn.  It
    hands out blocks and keeps only their count and total length; a
    caller that reads the product of the blocks drops them on a ``Heap``
    of its own.  Its sampler's compiled nodes and ``MobiusTable`` pairs
    still grow with the states a run reaches, without bound on a dense
    model (ROADMAP item 16).

    Before any draw, the alphabet must be irreducible, the pivot one of its
    letters and the alphabet larger than one letter.  The sampler's range
    check then raises ValueError, quoting the pivot free root and
    ROOT_MARGIN, unless p_star clears that root by the margin.
    """

    def __init__(self, model: IndependenceModel, pivot: str, seed: int):
        components = list(_components(model.dependence, model.full_mask))
        if len(components) > 1:
            found = " ".join(
                "{" + ",".join(model.letters[i] for i in iter_bits(c)) + "}" for c in components
            )
            raise NotIrreducibleError(
                f"the uniform boundary measure needs an irreducible alphabet; the "
                f"dependence graph has {len(components)} connected components {found}"
            )
        self.pivot_index = model.index_of(pivot)
        if model.size == 1:
            raise ValueError(
                f"one letter alphabet: its boundary is the one point {pivot} . {pivot} ..."
            )
        self.model = model
        self.pivot = pivot
        self.seed = int(seed)
        self.p_star = smallest_root(model)
        self.block_target = model.dependence[self.pivot_index]
        self.block_subset = model.full_mask & ~(1 << self.pivot_index)
        self._sampler = Sampler(
            model, SamplerParams(p=self.p_star), self.block_subset, self.block_target
        )
        self.counter = self._sampler.counter
        self.stream = RandomStream(self.seed)
        # the words of blocks 0, 1, 2, ..., from streams derived in runs
        self._words = self.words(0, NO_LAST_BLOCK)
        self.blocks_done = 0
        self.length = 0

    def draw_block(self, stream: RandomStream) -> list[int]:
        """Letter indices of one block drawn from ``stream``, apex last,
        and one step on the counter for the block."""
        word = self._sampler.draw(stream)
        word.append(self.pivot_index)
        self.counter.steps += 1
        return word

    def words(self, start: int, stop: int) -> Iterator[Sequence[int]]:
        """The letter indices of blocks ``start`` to ``stop - 1`` (0 based), in order.

        Block i depends only on (seed, i), not on the stream state, so any
        range can be drawn, or redrawn, at will: ``next(words(i, i + 1))``
        replays block i.  ``ranges`` draws them on a pool of workers.
        """
        yield from map(self.draw_block, self.stream.splits(start, stop))

    def ranges(self, start: int, stop: int, workers: int = 1,
               heaps: bool = False) -> Iterator[tuple[Sequence[Sequence[int]], tuple | None]]:
        """Blocks ``start`` to ``stop - 1`` in consecutive ranges, in order,
        each as its words and, if ``heaps`` is set and a pool drew it, the
        ``(factors, landing)`` of its words dropped on a ``Heap``, for
        ``Heap.glue``, else None.  In this process a range is one block.

        With ``workers`` above one, a pool of that many processes draws
        the ranges of ``sampler._ramp``, ``2 * workers`` of them in flight:
        16 blocks first, each next one twice as long, up to ``ceil((stop -
        start) / (4 * workers))`` blocks, at most _MAX_RUN.  Their words
        come as ``bytes`` and their steps are added to ``counter`` as they
        arrive.  The pool starts at the first range and shuts down when the
        ranges run out or the iterator is closed.
        """
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if workers == 1:
            yield from (((word,), None) for word in self.words(start, stop))
            return
        # the process pool costs an import that a single worker never needs
        from concurrent.futures import ProcessPoolExecutor

        ranges = _ramp(start, stop, max(1, min(_MAX_RUN, -(-(stop - start) // (4 * workers)))))
        pool = ProcessPoolExecutor(workers, initializer=_open_worker_stream,
                                   initargs=(self.model, self.pivot, self.seed))
        try:
            in_flight = deque(pool.submit(_draw_range, r, heaps) for r in islice(ranges, 2 * workers))
            while in_flight:
                words, part, spent = in_flight.popleft().result()
                in_flight.extend(pool.submit(_draw_range, r, heaps) for r in islice(ranges, 1))
                self.counter.steps += spent
                yield words, part
        finally:
            pool.shutdown(cancel_futures=True)

    def advance(self) -> list[int]:
        """Draw the next block and return its letter indices."""
        word = next(self._words)
        self.length += len(word)
        self.blocks_done += 1
        return word

    def next_block(self) -> Trace:
        """Draw the next block and return it as a trace."""
        return normalize_indices(self.model, self.advance())

    def run(self, blocks: int) -> Trace:
        """Draw the next ``blocks`` blocks and return their product; on a
        new stream that is the prefix xi_blocks."""
        heap = Heap(self.model)
        for _ in range(blocks):
            heap.extend(self.advance())
        return heap.trace()


def open_stream(model: IndependenceModel, pivot: str, seed: int) -> BlockStream:
    """A checked boundary stream: ``BlockStream(model, pivot, seed)``."""
    return BlockStream(model, pivot, seed)


# The stream a pool worker of BlockStream.ranges draws its ranges from,
# opened once per worker process by the pool's initializer.
_worker_stream: BlockStream | None = None


def _open_worker_stream(model: IndependenceModel, pivot: str, seed: int) -> None:
    global _worker_stream
    import signal

    # Ctrl-C reaches the whole process group; the pool's owner stops the pool
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_stream = BlockStream(model, pivot, seed)


def _draw_range(blocks: range, heaps: bool) -> tuple[list[bytes], tuple | None, int]:
    """Worker body: the words of the given blocks, with ``heaps`` the
    ``(factors, landing)`` of a ``Heap`` they are dropped on, else None, and
    the steps spent drawing them.  A letter index is below 64, so each word
    travels as bytes, one per letter."""
    stream, part = _worker_stream, None
    before = stream.counter.steps
    words = [bytes(w) for w in stream.words(blocks.start, blocks.stop)]
    if heaps:
        heap = Heap(stream.model)
        heap.extend(b"".join(words))
        part = heap.factors, heap.landing
    return words, part, stream.counter.steps - before


def parallel_run(model: IndependenceModel, pivot: str, seed: int, blocks: int, workers: int = 1,
                 counter: StepCounter | None = None) -> Trace:
    """The product of the first ``blocks`` blocks, drawn on ``workers``
    processes (see ``BlockStream.ranges``): in this process each block is
    dropped on one heap, and with a pool each worker drops its range on a
    heap of its own, which this process glues onto the one heap.

    Block i depends only on (seed, i), so the result, and the steps added
    to ``counter``, are those of a sequential run with the same seed
    whatever the worker count.
    """
    stream = open_stream(model, pivot, seed)
    heap = Heap(model)
    for words, part in stream.ranges(0, blocks, workers, heaps=True):
        if part:
            heap.glue(*part)
        else:
            heap.extend(words[0])
    if counter is not None:
        counter.steps += stream.counter.steps
    return heap.trace()
