"""Exact sampling of traces under the multiplicative probability laws.

The law with parameter p gives a trace x probability mu(p) * p^|x|, where
mu is the Mobius polynomial of the alphabet; conditioning on the maximal
pieces lying inside a target subset T keeps the same weights restricted to
that event.  Sampling is by pivot decomposition: pick a pivot letter a in
S and T, draw the number K of pyramidal prefixes with apex a from a
geometric law, then fill each prefix and the remainder recursively over
the alphabet without a.  The cost is linear in output length, with a
factor for the alphabet size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .mobius import ROOT_MARGIN, MobiusTable, smallest_root
from .monoid import IndependenceModel, Trace, iter_bits, normalize_indices

PIVOT_RULES = ("lowindex", "maxdeg", "order")


class RandomStream:
    """Deterministic uniform stream with hierarchical splitting.

    A stream is identified by a 64 bit seed and a key tuple; ``split(i)``
    derives an independent child stream keyed by (key..., i).  Identical
    (seed, key) always reproduce the identical draw sequence, which is what
    makes parallel block generation order independent.
    """

    __slots__ = ("seed", "key", "_gen")

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def uniform(self) -> float:
        """Next double in [0, 1)."""
        return float(self._gen.random())

    def split(self, index: int) -> "RandomStream":
        return RandomStream(self.seed, self.key + (index,))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, key={self.key})"


class StepCounter:
    """Abstract cost meter for the samplers.

    Counts one step per recursive call, one per unit of the geometric draw
    plus one, and one per emitted factor; these are the operations the
    linear cost bound is stated over.
    """

    __slots__ = ("steps",)

    def __init__(self) -> None:
        self.steps = 0

    def add(self, n: int = 1) -> None:
        self.steps += n


def sample_geometric(r: float, stream: RandomStream) -> int:
    """Draw K with P(K = k) = (1 - r) r^k by inversion of one uniform."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"geometric parameter must lie in [0, 1), got {r!r}")
    u = stream.uniform()
    if r == 0.0:
        return 0
    return int(math.log1p(-u) / math.log(r))


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

    Built once and reused for every draw: it holds the memoised Mobius
    values at ``params.p``, the pivot rule and the step counter.  It does
    not check ``p``; callers check it against the root of the subalphabet
    they draw over (``check_parameter``).
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

    def draw(self, subset: int, target: int, stream: RandomStream) -> list[int]:
        """Letter indices of one sample over ``subset`` conditioned on all
        maximal pieces lying in ``target``, in a valid linearisation order.
        """
        out: list[int] = []
        self._fill(subset, target, stream, out)
        return out

    def _fill(self, subset: int, target: int, stream: RandomStream, out: list[int]) -> None:
        # a method, not a closure inside draw: a recursive closure refers to
        # itself, so every draw would leave a cycle for the garbage collector
        counter = self.counter
        counter.steps += 1
        candidates = subset & target
        if not candidates:
            return
        pivot = self._choose(subset, candidates)
        k = sample_geometric(self.table.occurrence(subset, pivot), stream)
        counter.steps += k + 1
        rest = subset & ~(1 << pivot)
        lk = self.model.dependence[pivot]
        for _ in range(k):
            self._fill(rest, lk, stream, out)
            out.append(pivot)
            counter.steps += 1
        self._fill(rest, target, stream, out)
        counter.steps += 1


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
