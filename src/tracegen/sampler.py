"""Exact sampling of traces under the multiplicative probability laws.

The law with parameter p gives a trace x probability mu(p) * p^|x|, where
mu is the Mobius polynomial of the alphabet; conditioning on the maximal
pieces lying inside a target subset T keeps the same weights restricted to
that event.  Sampling is by pivot decomposition: pick a pivot letter a in
S and T, draw the number K of pyramidal prefixes with apex a from a
geometric law, then fill each prefix and the remainder the same way over
the alphabet without a.  Each state (S, T) of that recursion is compiled
once into a node holding its pivot, the log of its geometric parameter and
its two child states, and a draw runs the nodes on an explicit stack.  The
cost is linear in output length, with a factor for the alphabet size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .mobius import ROOT_MARGIN, MobiusTable, smallest_root
from .monoid import IndependenceModel, Trace, iter_bits, normalize_indices

PIVOT_RULES = ("lowindex", "maxdeg", "order")

# Uniforms are drawn from the generator in chunks: the first holds
# _FIRST_CHUNK doubles, so a short sample does not pay for many, and each
# refill doubles the chunk up to _MAX_CHUNK.
_FIRST_CHUNK = 4
_MAX_CHUNK = 256


class RandomStream:
    """Deterministic uniform stream with hierarchical splitting.

    A stream is identified by a 64 bit seed and a key tuple; ``split(i)``
    derives an independent child stream keyed by (key..., i).  Identical
    (seed, key) always reproduce the identical draw sequence, which is what
    makes parallel block generation order independent.  The doubles are
    drawn from the generator in chunks; a chunk of n holds the same doubles
    as n single draws, so chunking does not change the sequence.
    """

    __slots__ = ("seed", "key", "_gen", "_chunk", "_next")

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        self._gen = np.random.Generator(np.random.PCG64(ss))
        self._chunk = _FIRST_CHUNK
        self._next = iter(()).__next__

    def uniform(self) -> float:
        """Next double in [0, 1)."""
        try:
            return self._next()
        except StopIteration:
            n = self._chunk
            self._chunk = min(2 * n, _MAX_CHUNK)
            self._next = iter(self._gen.random(n).tolist()).__next__
            return self._next()

    def split(self, index: int) -> "RandomStream":
        return RandomStream(self.seed, self.key + (index,))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, key={self.key})"


class StepCounter:
    """Abstract cost meter for the samplers.

    Counts one step per state visited by the pivot recursion, one per unit
    of the geometric draw plus one, and one per emitted factor; these are
    the operations the linear cost bound is stated over.  The compiled
    sampler adds each node's share at once, empty states included, so the
    totals are those of the plain recursion.
    """

    __slots__ = ("steps",)

    def __init__(self) -> None:
        self.steps = 0

    def add(self, n: int = 1) -> None:
        self.steps += n


def _log_ratio(r: float) -> float:
    """log(r) for a geometric parameter r in [0, 1), and 0.0 for r == 0."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"geometric parameter must lie in [0, 1), got {r!r}")
    return math.log(r) if r else 0.0


def sample_geometric(r: float, stream: RandomStream) -> int:
    """Draw K with P(K = k) = (1 - r) r^k by inversion of one uniform."""
    log_r = _log_ratio(r)
    u = stream.uniform()
    return int(math.log1p(-u) / log_r) if log_r else 0


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
    """The pivot recursion for one model, parameter and pivot rule.

    Built once and reused for every draw.  Each state (subset, candidates)
    the recursion reaches is compiled on first use into a node
    ``[pivot, log_r, steps, steps_per_k, rest, link]``: the pivot the rule
    picks, the log of the geometric parameter at ``params.p``, the steps
    the node adds besides ``steps_per_k`` per geometric unit, and the rest
    and link child states.  A child is None when it has no candidates, the
    key of its state until it is first reached, and its node after.  The
    sampler does not check ``p``; callers check it against the root of the
    subalphabet they draw over (``check_parameter``).
    """

    def __init__(
        self,
        model: IndependenceModel,
        params: SamplerParams,
        counter: StepCounter | None = None,
    ):
        self.model = model
        self.table = MobiusTable(model, params.p)
        self.counter = StepCounter() if counter is None else counter
        if params.pivot == "order":
            self._order = tuple(model.index_of(ch) for ch in params.pivot_order)
        self._choose = getattr(self, f"_choose_{params.pivot}")
        self._nodes: dict[tuple[int, int], list] = {}

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
        # a visit costs 1, the geometric draw k + 1, the k pivots and the
        # remainder one each: 3 + 2k; an empty child is never pushed, so
        # its one step for the visit is counted here
        node = self._nodes[state] = [
            pivot,
            log_r,
            3 if rest_candidates else 4,
            2 if link_candidates else 3,
            (rest, rest_candidates) if rest_candidates else None,
            (rest, link_candidates) if link_candidates else None,
        ]
        return node

    def draw(self, subset: int, target: int, stream: RandomStream) -> list[int]:
        """Letter indices of one sample over ``subset`` conditioned on all
        maximal pieces lying in ``target``, in a valid linearisation order.

        The stack holds nodes still to fill and pivot letters still to
        emit; a node pushes its remainder, then K times its pivot and its
        link child, so the letters come out in the recursion's order.
        """
        out: list[int] = []
        candidates = subset & target
        if not candidates:
            self.counter.steps += 1
            return out
        uniform = stream.uniform
        log1p = math.log1p
        resolve = self._node
        emit = out.append
        stack = [resolve((subset, candidates))]
        push = stack.append
        pop = stack.pop
        steps = 0
        while stack:
            node = pop()
            if node.__class__ is int:
                emit(node)
                continue
            pivot, log_r, base, per_k, rest, link = node
            u = uniform()
            k = int(log1p(-u) / log_r) if log_r else 0
            steps += base + k * per_k
            if rest is not None:
                if rest.__class__ is tuple:
                    rest = node[4] = resolve(rest)
                push(rest)
            if k:
                if link is None:
                    out += [pivot] * k
                else:
                    if link.__class__ is tuple:
                        link = node[5] = resolve(link)
                    stack += [pivot, link] * k
        self.counter.steps += steps
        return out


def check_parameter(model: IndependenceModel, subset: int, p: float) -> None:
    """Raise ValueError unless 0 < p <= smallest_root(subset) - ROOT_MARGIN,
    the range the sampler accepts."""
    root = smallest_root(model, subset)
    if not 0.0 < p <= root - ROOT_MARGIN:
        raise ValueError(
            f"p={p!r} is out of range: need 0 < p <= root - ROOT_MARGIN, where "
            f"root={root!r} is the smallest Mobius root of the subalphabet and "
            f"ROOT_MARGIN={ROOT_MARGIN!r}"
        )


def _checked_sampler(
    model: IndependenceModel,
    subset: int,
    target: int,
    params: SamplerParams,
    counter: StepCounter | None,
) -> Sampler:
    """A Sampler for draws over ``subset`` conditioned on ``target``, once
    the masks and the parameter are checked."""
    if subset >> model.size or target >> model.size:
        raise ValueError("subset mask has bits outside the alphabet")
    if subset & target:
        check_parameter(model, subset, params.p)
    return Sampler(model, params, counter)


def sample_trace(
    model: IndependenceModel,
    subset: int,
    target: int,
    params: SamplerParams,
    stream: RandomStream | None = None,
    counter: StepCounter | None = None,
) -> Trace:
    """Sample the multiplicative law over ``subset`` conditioned on the
    maximal pieces lying in ``target``.

    Unconditioned sampling is target == subset.  The parameter must stay
    below the smallest Mobius root of ``subset``; the recursion only ever
    shrinks the subalphabet, which can only move that root up.
    """
    sampler = _checked_sampler(model, subset, target, params, counter)
    if stream is None:
        stream = RandomStream(params.seed)
    return normalize_indices(model, sampler.draw(subset, target, stream))


def sample(
    model: IndependenceModel,
    params: SamplerParams,
    stream: RandomStream | None = None,
    counter: StepCounter | None = None,
) -> Trace:
    """One unconditioned sample over the full alphabet."""
    full = model.full_mask
    return sample_trace(model, full, full, params, stream, counter)


def sample_many(
    model: IndependenceModel,
    params: SamplerParams,
    n: int,
    subset: int | None = None,
    target: int | None = None,
    counter: StepCounter | None = None,
) -> Iterator[Trace]:
    """Yield n independent samples, one split child stream per index.

    Sample i depends only on (seed, i), so the sequence is reproducible
    and insensitive to how many samples are drawn around it.  The masks
    and the parameter are checked once, and one Sampler draws every
    sample.
    """
    full = model.full_mask
    subset = full if subset is None else subset
    target = subset if target is None else target
    sampler = _checked_sampler(model, subset, target, params, counter)
    base = RandomStream(params.seed)
    for i in range(n):
        yield normalize_indices(model, sampler.draw(subset, target, base.split(i)))
