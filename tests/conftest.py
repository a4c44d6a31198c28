"""Shared fixtures and helpers: small dependence models used across the suite,
submodels and cliques, and the oracle's trace counts by length."""

import random

import pytest
from hypothesis import HealthCheck, settings

import tracegen as tg
from tracegen.monoid import IndependenceModel, _walk_cliques, iter_bits
from tracegen.oracle import _frontiers

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def path4():
    # the four-letter path a - b - c - d
    return tg.build_model("abcd", [("a", "b"), ("b", "c"), ("c", "d")])


@pytest.fixture(scope="session")
def path3():
    return tg.build_model("abc", [("a", "b"), ("b", "c")])


@pytest.fixture(scope="session")
def free2():
    # both letters dependent: the free monoid on two generators
    return tg.build_model("ab", [("a", "b")])


@pytest.fixture(scope="session")
def comm2():
    # no dependence beyond reflexivity: the free commutative monoid
    return tg.build_model("ab", [])


@pytest.fixture(scope="session")
def triangle():
    return tg.build_model("abc", [("a", "b"), ("b", "c"), ("a", "c")])


@pytest.fixture(scope="session")
def star4():
    # hub a with three mutually independent spokes
    return tg.build_model("abcd", [("a", "b"), ("a", "c"), ("a", "d")])


def random_model(rng: random.Random, n_letters: int) -> tg.IndependenceModel:
    """Uniformly random dependence graph on the first n_letters letters."""
    letters = "abcdefgh"[:n_letters]
    pairs = [
        (letters[i], letters[j])
        for i in range(n_letters)
        for j in range(i + 1, n_letters)
        if rng.random() < 0.5
    ]
    return tg.build_model(letters, pairs)


def path_model(n_letters: int) -> tg.IndependenceModel:
    """The path x0 - x1 - ... on n_letters letters."""
    letters = [f"x{i}" for i in range(n_letters)]
    return tg.build_model(letters, zip(letters, letters[1:]))


def cycle_model(n_letters: int) -> tg.IndependenceModel:
    """The cycle x0 - x1 - ... - x0 on n_letters letters."""
    letters = [f"x{i}" for i in range(n_letters)]
    return tg.build_model(letters, zip(letters, letters[1:] + letters[:1]))


def chorded_cycle(n_letters: int, chords) -> tg.IndependenceModel:
    """The cycle x0 - ... - x0 plus the span 2 chords x_i - x_{i+2}."""
    letters = [f"x{i}" for i in range(n_letters)]
    pairs = list(zip(letters, letters[1:] + letters[:1]))
    pairs += [(letters[i], letters[(i + 2) % n_letters]) for i in chords]
    return tg.build_model(letters, pairs)


def grid_model(rows: int, cols: int) -> tg.IndependenceModel:
    """The rows x cols grid, each letter dependent on its four neighbours."""
    letters = [f"g{i}.{j}" for i in range(rows) for j in range(cols)]
    pairs = [(f"g{i}.{j}", f"g{i + 1}.{j}") for i in range(rows - 1) for j in range(cols)]
    pairs += [(f"g{i}.{j}", f"g{i}.{j + 1}") for i in range(rows) for j in range(cols - 1)]
    return tg.build_model(letters, pairs)


def child_states(model: IndependenceModel, state: tuple[int, int], pivot: int) -> list:
    """The rest and link states of a state (S, C) with pivot a, None for
    one with no candidates: (S - a, C - a) and (S - a, (S - a) & link(a))."""
    subset, candidates = state
    rest = subset & ~(1 << pivot)
    return [(rest, c) if c else None for c in (rest & candidates, rest & model.dependence[pivot])]


def count_traces(
    model: tg.IndependenceModel, subset: int | None = None, n_max: int = 6
) -> list[int]:
    """Trace counts by length from the oracle's enumeration, keeping only
    one level alive, which is what makes length 12 counts practical."""
    return [len(frontier) for frontier in _frontiers(model, model.mask(subset), n_max)]


def restrict(model: IndependenceModel, letters) -> IndependenceModel:
    """Submodel induced on a subset of the alphabet, given as letter names
    or a mask, order preserved."""
    mask = model.mask(letters) if isinstance(letters, int) else model.subset(letters)
    keep = list(iter_bits(mask))
    if not keep:
        raise ValueError("cannot restrict to an empty alphabet")
    pos = {old: new for new, old in enumerate(keep)}
    dep = []
    for old in keep:
        m = 0
        for j in iter_bits(model.dependence[old] & mask):
            m |= 1 << pos[j]
        dep.append(m)
    return IndependenceModel(tuple(model.letters[i] for i in keep), tuple(dep))


def cliques(model: IndependenceModel, subset: int | None = None) -> list[int]:
    """All cliques of pairwise independent letters inside a subset, the
    empty one first, in the order of the package's one clique walk: depth
    first, adding letters in index order."""
    return list(_walk_cliques(model, subset))
