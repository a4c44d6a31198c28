"""Trace monoids presented by independence alphabets.

An independence alphabet is a finite ordered set of letters together with a
dependence relation that is reflexive and symmetric.  Words over the alphabet
are identified up to commutation of adjacent independent letters; the
resulting equivalence classes (traces) form a monoid under concatenation.

Traces are stored in Cartier-Foata normal form: the unique factorisation
into nonempty cliques of pairwise independent letters such that every letter
of a factor depends on at least one letter of the preceding factor.  The
geometric reading is a heap of pieces: each letter is a piece dropped on top
of the current heap, it slides down past independent pieces and comes to
rest on the highest dependent one.  Factor i of the normal form is exactly
the set of pieces at height i.  A left divisor (a prefix) keeps every
piece at its own height, so divisibility is decided on level masks: a
divisor is the levels masked by a set of pieces that holds every piece
below its own.

Subsets of the alphabet are handled as integer bit masks throughout, with
bit i standing for ``letters[i]``.  Alphabets are capped at 64 letters so a
subset always fits in one machine word.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from operator import sub
from typing import Iterable, Iterator, Sequence

MAX_LETTERS = 64


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class IndependenceModel:
    """An alphabet with a reflexive symmetric dependence relation.

    ``dependence[i]`` is the bit mask of letters that do not commute with
    letter i; it always contains i itself.  Two letters commute exactly when
    neither appears in the other's dependence mask.
    """

    letters: tuple[str, ...]
    dependence: tuple[int, ...]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.letters)}

    @cached_property
    def neighbours(self) -> tuple[tuple[int, ...], ...]:
        """``neighbours[i]`` lists the letters dependent on letter i, i excluded."""
        return tuple(tuple(iter_bits(mask & ~(1 << i))) for i, mask in enumerate(self.dependence))

    @cached_property
    def short_traces(self) -> tuple[Trace, ...]:
        """The normal forms of the words under two letters: the unit, then letter i at i + 1."""
        return (UNIT, *(Trace((1 << i,)) for i in range(self.size)))

    @cached_property
    def size(self) -> int:
        return len(self.letters)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.letters)) - 1

    def mask(self, subset: int | None = None) -> int:
        """A subset mask, the full alphabet when None, checked to lie in it."""
        mask = self.full_mask if subset is None else subset
        if mask >> len(self.letters):
            raise ValueError(
                f"subset mask {mask:#b} has bits outside the alphabet "
                f"of {len(self.letters)} letters"
            )
        return mask

    def index_of(self, letter: str) -> int:
        try:
            return self._index[letter]
        except KeyError:
            raise ValueError(f"unknown letter {letter!r}") from None

    def subset(self, letters: Iterable[str]) -> int:
        """Bit mask for a collection of letter names."""
        mask = 0
        for name in letters:
            mask |= 1 << self.index_of(name)
        return mask


def build_model(
    letters: Sequence[str],
    dependence_pairs: Iterable[tuple[str, str] | Sequence[str]],
) -> IndependenceModel:
    """Construct a model from letter names and dependent pairs.

    The relation is closed under symmetry and reflexivity, so pairs may be
    given in either order and self pairs are implicit.
    """
    letters = tuple(letters)
    if not letters:
        raise ValueError("alphabet must not be empty")
    if len(letters) > MAX_LETTERS:
        raise ValueError(f"alphabet larger than {MAX_LETTERS} letters")
    bad = [name for name in letters if not isinstance(name, str) or not name]
    if bad:
        raise ValueError(f"letters must be non-empty strings, got {bad[0]!r}")
    if len(set(letters)) != len(letters):
        raise ValueError("duplicate letters in alphabet")
    try:
        pairs = [(a, b) for a, b in dependence_pairs]
    except (TypeError, ValueError):
        raise ValueError(
            f"dependence must be letter pairs, got {dependence_pairs!r}"
        ) from None
    index = {name: i for i, name in enumerate(letters)}
    dep = [1 << i for i in range(len(letters))]
    for a, b in pairs:
        try:
            i, j = index[a], index[b]
        except (KeyError, TypeError):
            raise ValueError(f"unknown letter in dependence pair ({a!r}, {b!r})") from None
        dep[i] |= 1 << j
        dep[j] |= 1 << i
    return IndependenceModel(letters, tuple(dep))


def load_model(path: str) -> IndependenceModel:
    """Read a model from a JSON file with keys "letters" and "dependence"."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return model_from_dict(data)


def model_from_dict(data: dict) -> IndependenceModel:
    if not isinstance(data, dict) or "letters" not in data or "dependence" not in data:
        raise ValueError('model must be an object with "letters" and "dependence"')
    return build_model(data["letters"], data["dependence"])


def link(model: IndependenceModel, letter: str) -> int:
    """Dependence neighbourhood of a letter, the letter itself included."""
    return model.dependence[model.index_of(letter)]


# ---------------------------------------------------------------------------
# Cliques

def clique_size_counts(model: IndependenceModel, subset: int | None = None) -> list[int]:
    """Number of cliques of each size inside a subset; entry d counts size d."""
    counts = [0]
    for clique in _walk_cliques(model, subset):
        size = clique.bit_count()
        if size == len(counts):
            counts.append(0)
        counts[size] += 1
    return counts


def _walk_cliques(model: IndependenceModel, subset: int | None) -> Iterator[int]:
    # the one clique walk: preorder, each clique before its extensions
    dep = model.dependence
    stack = [(0, model.mask(subset))]
    while stack:
        clique, candidates = stack.pop()
        yield clique
        children = []
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            children.append((clique | low, candidates & ~dep[low.bit_length() - 1]))
        stack.extend(reversed(children))


# ---------------------------------------------------------------------------
# Traces

@dataclass(frozen=True, init=False)
class Trace:
    """A trace in Cartier-Foata normal form.

    ``factors`` is the tuple of height levels of the heap, bottom first;
    each level is a nonempty bit mask of pairwise independent letters, and
    every letter of a level depends on some letter of the level below.
    Equality of traces is equality of factor tuples.  A trace is frozen:
    its constructor writes ``factors`` straight into the instance dict, and
    assigning to it raises FrozenInstanceError.
    """

    factors: tuple[int, ...]

    def __init__(self, factors: tuple[int, ...] = ()):
        self.__dict__["factors"] = factors

    @cached_property
    def length(self) -> int:
        return sum(map(int.bit_count, self.factors))

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def letter_count(self, index: int) -> int:
        """Occurrences of one letter, given by its bit index."""
        bit = 1 << index
        return sum(1 for f in self.factors if f & bit)


UNIT = Trace()


def _drop(
    neighbours: Sequence[Sequence[int]], factors: list[int], landing: list[int], indices: Iterable[int]
) -> None:
    """Drop pieces onto the heap held by factors and landing, as ``Heap``
    keeps them: piece i lands on ``landing[i]`` and lifts its link above it."""
    top = len(factors)
    for i in indices:
        lvl = landing[i]
        up = landing[i] = lvl + 1
        if lvl == top:
            factors.append(1 << i)
            top = up
        else:
            factors[lvl] |= 1 << i
        for j in neighbours[i]:
            if landing[j] < up:
                landing[j] = up


class Heap:
    """A heap of pieces under construction, for products built piece by
    piece; ``normalize_indices`` and the twin heap of ``glue`` drop pieces
    by the same loop, ``_drop``, on bare lists.

    A heap starts empty.  ``factors`` are the height levels, bottom first,
    and ``landing[i]`` is the level the next piece labelled i lands on: one
    above the highest piece in its link, 0 when there is none.  Dropping
    piece i raises the landing level of i and of its dependence neighbours
    above it.  ``release`` hands out the levels that are final and lowers
    the rest, so a heap that is released as it grows holds only the open
    levels of an endless product.
    """

    __slots__ = ("neighbours", "factors", "landing")

    def __init__(self, model: IndependenceModel):
        self.neighbours = model.neighbours
        self.factors: list[int] = []
        self.landing = [0] * model.size

    def extend(self, indices: Iterable[int]) -> None:
        """Drop the pieces with the given letter indices, in order."""
        _drop(self.neighbours, self.factors, self.landing, indices)

    def glue(self, factors: Sequence[int], landing: Sequence[int]) -> int:
        """Drop the pieces of another heap of this model, given by its
        factors and landing levels, as ``extend`` would drop its word, and
        return how many of its levels were dropped piece by piece.

        Its bottom levels are dropped on this heap and on an empty twin
        until their landing levels differ by a constant, the same for every
        letter, looked for after 0, 1, 3, 7, ... levels.  Landing levels
        evolve max-plus linearly, so its levels from there on land rigidly,
        that constant above their own height, and are laid there whole;
        should the constant never come, every level is dropped."""
        own, high, neighbours = self.factors, self.landing, self.neighbours
        twin, alone = [], [0] * len(high)
        k = 0
        while k < len(factors):
            if len(set(map(sub, high, alone))) == 1:
                shift = high[0] - alone[0]
                # the rest lands at k + shift, on top: k + shift <= len(own),
                # as it is a landing level here (every letter's if k is 0,
                # else that of one in level k - 1); len(own) <= k + shift, as
                # a top-level letter lands at len(own) or above and none lands
                # above k on the twin
                own.extend(factors[k:])
                high[:] = [level + shift for level in landing]
                return k
            end = min(2 * k + 1, len(factors))
            pieces = [i for f in factors[k:end] for i in iter_bits(f)]
            _drop(neighbours, own, high, pieces)
            _drop(neighbours, twin, alone, pieces)
            k = end
        return k

    def final_floor(self) -> int:
        """The highest level that no later piece can land in, -1 when there
        is none: every level below the lowest landing level is final."""
        return min(self.landing) - 1

    def release(self) -> list[int]:
        """Remove and return the final levels, bottom first, and lower the
        open ones onto level 0, so that ``factors`` and ``final_floor`` then
        describe the open levels alone.  Every factor released so far, then
        ``factors``, are the factors of the product of every piece dropped."""
        landing = self.landing
        final = min(landing)
        if not final:
            return []
        released = self.factors[:final]
        del self.factors[:final]
        landing[:] = [level - final for level in landing]
        return released

    def trace(self) -> Trace:
        return Trace(tuple(self.factors))


def word_indices(trace: Trace) -> list[int]:
    """Canonical linearisation as letter indices, factor by factor."""
    out: list[int] = []
    for f in trace.factors:
        out.extend(iter_bits(f))
    return out


def normalize(model: IndependenceModel, word: Iterable[str]) -> Trace:
    """Normal form of a word, given as an iterable of letter names.

    A string is accepted when every letter is a single character.
    """
    return normalize_indices(model, [model.index_of(ch) for ch in word])


def normalize_indices(model: IndependenceModel, indices: Sequence[int]) -> Trace:
    """Normal form of a word given as letter indices: its pieces dropped on
    an empty heap, or under two letters, read from ``model.short_traces``."""
    if len(indices) < 2:
        return model.short_traces[indices[0] + 1 if indices else 0]
    factors: list[int] = []
    _drop(model.neighbours, factors, [0] * model.size, indices)
    return Trace(tuple(factors))


def concat(model: IndependenceModel, x: Trace, y: Trace) -> Trace:
    """Product of two traces: the pieces of x, then those of y, dropped on
    an empty heap."""
    if x.is_unit:
        return y
    if y.is_unit:
        return x
    return normalize_indices(model, word_indices(x) + word_indices(y))


def max_letters(model: IndependenceModel, x: Trace) -> int:
    """Bit mask of letters whose last occurrence is a maximal piece.

    A piece is maximal when no later piece depends on it; these are the
    pieces that can be removed from the top of the heap.
    """
    covered = 0
    out = 0
    dep = model.dependence
    for f in reversed(x.factors):
        out |= f & ~covered
        for i in iter_bits(f):
            covered |= dep[i]
    return out


def is_left_divisor(model: IndependenceModel, x: Trace, y: Trace) -> bool:
    """Whether y == x . z for some trace z."""
    return left_quotient(model, x, y) is not None


def left_quotient(model: IndependenceModel, x: Trace, y: Trace) -> Trace | None:
    """The z with y == x . z, or None when x does not divide y.

    One pass up y's levels: each level of x must lie in y's level at the
    same height and hold no letter blocked by a piece of y that x leaves
    out lower down.  The left-out pieces make up the quotient.
    """
    dep = model.dependence
    blocked = 0
    tail: list[int] = []
    for f, g in zip_longest(x.factors, y.factors, fillvalue=0):
        if f & (blocked | ~g):
            return None
        for i in iter_bits(g ^ f):
            tail.append(i)
            blocked |= dep[i]
    return normalize_indices(model, tail)


def left_divisors(model: IndependenceModel, x: Trace, max_length: int) -> set[Trace]:
    """All left divisors of x of length at most max_length.

    A divisor is x's levels masked by a set of pieces that holds every
    piece below its own, and its factors are the nonempty masks.  The
    divisors of length n + 1 are those of length n with one more piece
    that no left-out piece lies under, each kept once.
    """
    if max_length < 0:
        raise ValueError(f"max_length must be non-negative, got {max_length}")
    dep = model.dependence
    out = level = {()}
    for _ in range(max_length):
        grown: set[tuple[int, ...]] = set()
        for d in level:
            blocked = 0
            for k, f in enumerate(x.factors):
                held = d[k] if k < len(d) else 0
                for i in iter_bits(f & ~held & ~blocked):
                    grown.add((*d[:k], held | 1 << i, *d[k + 1:]))
                if not held:
                    # every piece above rests on a piece left out here
                    break
                for i in iter_bits(f & ~held):
                    blocked |= dep[i]
        out = out | grown
        level = grown
    return set(map(Trace, out))


def is_pyramidal(model: IndependenceModel, x: Trace, letter: str) -> bool:
    """Whether x has exactly one occurrence of ``letter`` and it is the only
    maximal piece."""
    i = model.index_of(letter)
    return x.letter_count(i) == 1 and max_letters(model, x) == 1 << i


def pyramidal_decompose(
    model: IndependenceModel, x: Trace, letter: str
) -> tuple[list[Trace], Trace]:
    """Split x into pyramidal prefixes and a remainder free of ``letter``.

    With k occurrences of the letter in x, returns (parts, remainder) where
    parts has k traces, each pyramidal with apex ``letter``, the remainder
    has no occurrence of the letter, and the product of parts followed by
    the remainder equals x.  Part j is the j-th lowest occurrence of the
    letter with every piece still left below it, taken by one sweep down
    x's levels.
    """
    pivot = model.index_of(letter)
    tops = [k for k, f in enumerate(x.factors) if f >> pivot & 1]
    if not tops:
        return [], x
    dep = model.dependence
    left = list(x.factors)
    parts: list[Trace] = []
    for top in tops:
        left[top] ^= 1 << pivot
        cone, reach = [pivot], dep[pivot]  # the part's word, read downwards
        for lvl in range(top - 1, -1, -1):
            take = left[lvl] & reach
            left[lvl] ^= take
            for i in iter_bits(take):
                cone.append(i)
                reach |= dep[i]
        parts.append(normalize_indices(model, cone[::-1]))
    return parts, normalize_indices(model, [i for f in left for i in iter_bits(f)])


# ---------------------------------------------------------------------------
# Formatting

def format_trace(model: IndependenceModel, x: Trace) -> str:
    """Bracket form of the normal form, for example "(a d)(b)"; unit is "1"."""
    if x.is_unit:
        return "1"
    return "".join(
        "(" + " ".join(model.letters[i] for i in iter_bits(f)) + ")" for f in x.factors
    )


def trace_to_lists(model: IndependenceModel, x: Trace) -> list[list[str]]:
    """Normal form as a list of factors, each a list of letter names."""
    return [[model.letters[i] for i in iter_bits(f)] for f in x.factors]


class TraceJSON(dict):
    """``json.dumps(trace_to_lists(model, x))`` for the traces x of model,
    byte for byte, as ``TraceJSON(model)(x)``; ``join`` gives the JSON
    texts of a run of factors without the brackets.

    It keeps the JSON text of every distinct factor it has formatted, made
    when first asked for, so a trace costs one join over its factors and
    builds no list of lists.
    """

    __slots__ = ("names",)

    def __init__(self, model: IndependenceModel):
        super().__init__()
        self.names = [json.dumps(name) for name in model.letters]

    def __missing__(self, mask: int) -> str:
        names = self.names
        text = self[mask] = "[" + ", ".join([names[i] for i in iter_bits(mask)]) + "]"
        return text

    def join(self, factors: Iterable[int]) -> str:
        """The JSON texts of the given factors, separated by ", "."""
        return ", ".join(map(self.__getitem__, factors))

    def __call__(self, x: Trace) -> str:
        return "[" + ", ".join(map(self.__getitem__, x.factors)) + "]"
