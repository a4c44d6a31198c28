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
index, by one recipe, ``BlockStream.blocks``, which also counts each
block's step.  ``BlockStream.ranges``, the one ordered source of
blocks, runs it in this process, one block at a time, or on a pool of
workers, one range at a time, each dropped on a heap of its own if asked.
``BlockStream.drop``, the one loop that drops blocks on a heap, reads it
for ``run`` and the CLI's final trace, and a replay reads
``BlockStream.words``, so the stream is restartable and its output is the
same for any worker count.
"""

from __future__ import annotations

from collections import deque
from contextlib import closing
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .mobius import NotIrreducibleError, _components, smallest_root
from .monoid import Heap, IndependenceModel, Trace, iter_bits, normalize_indices
from .sampler import _MAX_RUN, RandomStream, Sampler, SamplerParams, StepCounter, _ramp

NO_LAST_BLOCK = 2**64  # an index no stream reaches: the stop of an endless run


class BlockStream:
    """The blocks of one boundary run, each drawn by its index.

    Block i depends only on (seed, i): ``words`` and ``ranges`` hand out
    any range of blocks, and ``drop`` drops one on a ``Heap`` the caller
    owns.  The only state that moves with the draws is the step counter
    and the sampler's compiled nodes and ``MobiusTable`` pairs, which grow
    with the states a run reaches, without bound on a dense model (ROADMAP
    item 16).

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
        self.counter = self._sampler.counter  # perfbench reads it
        self.stream = RandomStream(self.seed)

    def blocks(self, streams: Iterable[RandomStream]) -> Iterator[list[int]]:
        """One block per stream, from one run of the sampler's ``draws``, as letter
        indices, apex last, its step counted; a stream given again draws on."""
        apex, counter = self.pivot_index, self.counter
        for word in self._sampler.draws(streams):
            word.append(apex)
            counter.steps += 1
            yield word

    def words(self, start: int, stop: int) -> Iterator[Sequence[int]]:
        """The letter indices of blocks ``start`` to ``stop - 1`` (0 based), in order.

        Block i depends only on (seed, i), not on the stream state, so any
        range can be drawn, or redrawn, at will: ``next(words(i, i + 1))``
        replays block i.  ``ranges`` draws them on a pool of workers.
        """
        return self.blocks(self.stream.splits(start, stop))

    def ranges(self, start: int, stop: int, workers: int = 1, heaps: bool = False
               ) -> Iterator[tuple[range, Sequence | tuple, int]]:
        """Blocks ``start`` to ``stop - 1`` in consecutive ranges, in order,
        each as its indices, its payload and the steps a pool worker spent on
        it, which are not on ``counter``.  In this process a range is one
        block, given as its word, its step counted by ``words``.

        With ``workers`` above one, a pool of that many processes draws
        the ranges of ``sampler._ramp``, ``2 * workers`` of them in flight:
        16 blocks first, each next one twice as long, up to ``ceil((stop -
        start) / (4 * workers))`` blocks, at most _MAX_RUN, each given as its
        words or, with ``heaps``, as the ``(factors, landing, letters)`` of a
        ``Heap`` they are dropped on.  The pool starts at the first range and
        shuts down when the ranges run out or the iterator is closed.
        """
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if workers == 1:
            for i, word in enumerate(self.words(start, stop), start):
                yield range(i, i + 1), (word,), 0
            return
        # the process pool costs an import that a single worker never needs
        from concurrent.futures import ProcessPoolExecutor

        ranges = _ramp(start, stop, max(1, min(_MAX_RUN, -(-(stop - start) // (4 * workers)))))
        pool = ProcessPoolExecutor(workers, initializer=_open_worker_stream,
                                   initargs=(self.model, self.pivot, self.seed))
        try:
            in_flight = deque(pool.submit(_draw_range, r, heaps) for r in islice(ranges, 2 * workers))
            while in_flight:
                done = in_flight.popleft().result()
                in_flight.extend(pool.submit(_draw_range, r, heaps) for r in islice(ranges, 1))
                yield done
        finally:
            pool.shutdown(cancel_futures=True)

    def drop(self, heap: Heap, start: int, stop: int, workers: int = 1,
             min_length: int = 0) -> Iterator[tuple[int, int]]:
        """Drop blocks ``start`` to ``stop - 1`` on ``heap``, in order, and
        yield the ``(blocks, letters)`` dropped after each range of ``ranges``;
        with ``min_length`` above 0, stop after the block that brings the
        letters up to it.  A pooled range is glued whole unless that block
        falls inside it; then it is redrawn here and dropped up to that block.
        Only the blocks dropped count on ``counter``, as with one worker."""
        blocks = letters = 0
        with closing(self.ranges(start, stop, workers, heaps=True)) as ranges:
            for r, payload, spent in ranges:
                if workers > 1:
                    factors, landing, size = payload
                    if 0 < min_length <= letters + size:
                        payload = self.words(r.start, r.stop)
                    else:
                        heap.glue(factors, landing)
                        self.counter.steps += spent
                        blocks, letters, payload = blocks + len(r), letters + size, ()
                for word in payload:
                    heap.extend(word)
                    blocks, letters = blocks + 1, letters + len(word)
                    if 0 < min_length <= letters:
                        break
                yield blocks, letters
                if 0 < min_length <= letters:
                    return

    def run(self, blocks: int, workers: int = 1) -> Trace:  # perfbench reads it
        """The product of blocks 0 to ``blocks - 1``, the prefix xi_blocks,
        drawn on ``workers`` processes (see ``drop``)."""
        heap = Heap(self.model)
        for _ in self.drop(heap, 0, blocks, workers):
            pass
        return heap.trace()

    # ---- perfbench only, down to the end of parallel_run: the frozen harness
    # reads the cursor of next_block, open_stream and parallel_run, nothing in
    # the package does, and they go as one deletion (ROADMAP item 24) ----
    blocks_done = 0  # the blocks next_block has drawn
    length = 0  # and their letters

    @cached_property
    def _words(self) -> Iterator[list[int]]:  # next_block's cursor, drawn in runs
        return self.words(0, NO_LAST_BLOCK)

    def next_block(self) -> Trace:
        """Draw the next block of the cursor and return it as a trace."""
        word = next(self._words)
        self.length += len(word)
        self.blocks_done += 1
        return normalize_indices(self.model, word)


def open_stream(model: IndependenceModel, pivot: str, seed: int) -> BlockStream:
    """A checked boundary stream: ``BlockStream(model, pivot, seed)``."""
    return BlockStream(model, pivot, seed)


def parallel_run(model: IndependenceModel, pivot: str, seed: int, blocks: int, workers: int = 1,
                 counter: StepCounter | None = None) -> Trace:
    """``BlockStream(model, pivot, seed).run(blocks, workers)``, its steps
    added to ``counter``: the same trace and steps for any worker count."""
    stream = BlockStream(model, pivot, seed)
    xi = stream.run(blocks, workers)
    if counter is not None:
        counter.steps += stream.counter.steps
    return xi


# ---- end of the perfbench-only block -----------------------------------


# The stream a pool worker of BlockStream.ranges draws its ranges from,
# opened once per worker process by the pool's initializer.
_worker_stream: BlockStream | None = None


def _open_worker_stream(model: IndependenceModel, pivot: str, seed: int) -> None:
    global _worker_stream
    import signal

    # Ctrl-C reaches the whole process group; the pool's owner stops the pool
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_stream = BlockStream(model, pivot, seed)


def _draw_range(blocks: range, heaps: bool) -> tuple[range, list[bytes] | tuple, int]:
    """Worker body: a range of ``BlockStream.ranges`` as it yields it.  A
    letter index is below 64, so each word travels as bytes, one per letter."""
    stream = _worker_stream
    before = stream.counter.steps
    words = [bytes(w) for w in stream.words(blocks.start, blocks.stop)]
    if heaps:
        joined = b"".join(words)
        heap = Heap(stream.model)
        heap.extend(joined)
        words = heap.factors, heap.landing, len(joined)
    return blocks, words, stream.counter.steps - before


