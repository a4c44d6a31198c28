"""Normal forms, divisibility, and pyramidal decompositions on small models."""

import json
import pickle
import random
from dataclasses import FrozenInstanceError, dataclass

import pytest
from hypothesis import given, strategies as st

import tracegen as tg
from tracegen import monoid
from tracegen.monoid import (
    UNIT,
    Heap,
    TraceJSON,
    clique_size_counts,
    iter_bits,
    left_divisors,
    left_quotient,
    link,
    word_indices,
)
from tracegen.oracle import enumerate_traces
from tracegen.sampler import Sampler

from conftest import chorded_cycle, cliques, grid_model, path_model, restrict

PATH4 = tg.build_model("abcd", [("a", "b"), ("b", "c"), ("c", "d")])


def letters_of(model, mask):
    """The letter names of a mask, in index order."""
    return [model.letters[i] for i in iter_bits(mask)]


@st.composite
def model_and_word(draw, max_letters=6, max_len=14):
    n = draw(st.integers(2, max_letters))
    letters = "abcdefgh"[:n]
    pairs = [
        (letters[i], letters[j])
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    model = tg.build_model(letters, pairs)
    word = draw(st.lists(st.integers(0, n - 1), max_size=max_len))
    return model, word


def test_normal_form_worked_example(path4):
    x = tg.normalize(path4, "abdcbad")
    assert tg.format_trace(path4, x) == "(a d)(b)(c)(b d)(a)"
    assert x.length == 7
    assert letters_of(path4, tg.max_letters(path4, x)) == ["a", "d"]


def test_single_letters_and_unit(path4):
    assert tg.normalize(path4, "") == UNIT
    assert UNIT.is_unit and UNIT.length == 0
    x = tg.normalize(path4, "a")
    assert x.factors == (1,)
    assert tg.format_trace(path4, UNIT) == "1"


@dataclass(frozen=True)
class DataclassTrace:
    """Trace as a plain frozen dataclass, whose generated constructor
    writes the field through object.__setattr__."""

    factors: tuple = ()


def test_trace_is_frozen_and_compares_like_a_frozen_dataclass(path4):
    x = tg.normalize(path4, "abcb")
    reference = DataclassTrace(x.factors)
    assert x == tg.Trace(x.factors) and x != tg.Trace(x.factors[:-1])
    assert tg.Trace() == UNIT and UNIT.factors == ()
    assert hash(x) == hash(reference)
    assert repr(x) == repr(reference).replace("DataclassTrace", "Trace")
    assert (x.length, UNIT.length) == (4, 0)
    assert pickle.loads(pickle.dumps(x)) == x
    with pytest.raises(FrozenInstanceError):
        x.factors = ()
    with pytest.raises(FrozenInstanceError):
        del x.factors


def test_commutation_only_reorders_independent_letters(path4):
    # ad = da but ab != ba
    assert tg.normalize(path4, "ad") == tg.normalize(path4, "da")
    assert tg.normalize(path4, "ab") != tg.normalize(path4, "ba")


@given(model_and_word())
def test_factors_are_cliques_linked_in_sequence(mw):
    model, word = mw
    x = tg.normalize_indices(model, word)
    dep = model.dependence
    for factor in x.factors:
        assert factor != 0
        for i in iter_bits(factor):
            assert dep[i] & factor == 1 << i  # pairwise independent
    for prev, cur in zip(x.factors, x.factors[1:]):
        for i in iter_bits(cur):
            assert dep[i] & prev


@given(model_and_word(), st.data())
def test_adjacent_independent_swaps_preserve_normal_form(mw, data):
    model, word = mw
    base = tg.normalize_indices(model, word)
    word = list(word)
    for _ in range(data.draw(st.integers(0, 10))):
        if len(word) < 2:
            break
        k = data.draw(st.integers(0, len(word) - 2))
        u, v = word[k], word[k + 1]
        if not model.dependence[u] & (1 << v):
            word[k], word[k + 1] = v, u
    assert tg.normalize_indices(model, word) == base


@given(model_and_word(), st.data())
def test_concat_agrees_with_word_concatenation(mw, data):
    model, w1 = mw
    w2 = data.draw(st.lists(st.integers(0, model.size - 1), max_size=10))
    x, y = tg.normalize_indices(model, w1), tg.normalize_indices(model, w2)
    z = tg.concat(model, x, y)
    assert z == tg.normalize_indices(model, list(w1) + list(w2))
    assert z.length == x.length + y.length


@given(model_and_word())
def test_word_of_round_trip(mw):
    model, word = mw
    x = tg.normalize_indices(model, word)
    assert tg.normalize(model, [model.letters[i] for i in word_indices(x)]) == x
    assert tg.normalize_indices(model, word_indices(x)) == x


@given(model_and_word())
def test_max_letters_is_bottom_of_mirror(mw):
    # maximal pieces of x are the minimal pieces of the reversed word
    model, word = mw
    x = tg.normalize_indices(model, word)
    mirror = tg.normalize_indices(model, list(reversed(word)))
    expected = mirror.factors[0] if mirror.factors else 0
    assert tg.max_letters(model, x) == expected


def test_left_divide_worked_example(path4):
    x = tg.normalize(path4, "abdcbad")
    a, b = tg.normalize(path4, "a"), tg.normalize(path4, "b")
    y = left_quotient(path4, a, x)
    assert tg.format_trace(path4, y) == "(b d)(c)(b d)(a)"
    assert left_quotient(path4, b, x) is None
    assert left_quotient(path4, a, UNIT) is None


@given(model_and_word())
def test_left_divide_inverts_front_letter(mw):
    model, word = mw
    x = tg.normalize_indices(model, word)
    bottom = x.factors[0] if x.factors else 0
    for i in range(model.size):
        y = left_quotient(model, tg.Trace((1 << i,)), x)
        if bottom & (1 << i):
            head = tg.normalize_indices(model, [i])
            assert y is not None and tg.concat(model, head, y) == x
        else:
            assert y is None


def test_divisibility_matches_bruteforce(path4):
    small = list(enumerate_traces(path4, None, 3))
    target = list(enumerate_traces(path4, None, 4))
    reachable = {x: set() for x in small}
    for x in small:
        for z in enumerate_traces(path4, None, 4 - x.length):
            reachable[x].add(tg.concat(path4, x, z))
    for x in small:
        for y in target:
            expect = y in reachable[x]
            assert tg.is_left_divisor(path4, x, y) == expect
            q = tg.left_quotient(path4, x, y)
            if expect:
                assert q is not None and tg.concat(path4, x, q) == y
            else:
                assert q is None


def test_left_divisors_enumeration(path4):
    x = tg.normalize(path4, "abdcbad")
    divisors = left_divisors(path4, x, 2)
    assert UNIT in divisors
    brute = {
        d
        for d in enumerate_traces(path4, None, 2)
        if tg.is_left_divisor(path4, d, x)
    }
    assert divisors == brute
    full = left_divisors(path4, x, x.length)
    assert x in full and UNIT in full
    with pytest.raises(ValueError):
        left_divisors(path4, x, -1)


def test_left_divisors_finds_each_divisor_once(monkeypatch):
    # 8 independent letters: every subset is a divisor, reached in 8! orders;
    # the search reads the free pieces of each divisor it keeps a bounded
    # number of times, so one that reached a divisor once per order fails
    model = tg.build_model("abcdefgh", [])
    x = tg.normalize(model, "abcdefgh")
    calls = 0
    bits = monoid.iter_bits

    def counting(mask):
        nonlocal calls
        calls += 1
        return bits(mask)

    monkeypatch.setattr(monoid, "iter_bits", counting)
    divisors = left_divisors(model, x, 8)
    assert divisors == {UNIT} | {tg.Trace((mask,)) for mask in range(1, 256)}
    assert calls <= 1_024


@given(model_and_word(max_letters=4, max_len=6), st.data())
def test_left_divisors_match_bruteforce(mw, data):
    # the divisors of y of length at most L are the traces d of that length
    # with y == d . z for some z, on random models of up to 4 letters; the
    # quotient check and left_quotient agree with them
    model, word = mw
    y = tg.normalize_indices(model, word)
    bound = data.draw(st.integers(0, 4))
    short = enumerate_traces(model, None, bound)
    tails = enumerate_traces(model, None, y.length)
    brute = {
        d for d in short
        if any(tg.concat(model, d, z) == y for z in tails if z.length == y.length - d.length)
    }
    assert left_divisors(model, y, bound) == brute
    for d in short:
        q = tg.left_quotient(model, d, y)
        assert tg.is_left_divisor(model, d, y) == (d in brute) == (q is not None)
        assert q is None or tg.concat(model, d, q) == y


@given(model_and_word(), st.data())
def test_left_quotient_is_the_one_division(mw, data):
    # y is the word's trace; x is a prefix of the word (a divisor of y) or
    # an unrelated short word (usually not one)
    model, word = mw
    y = tg.normalize_indices(model, word)
    short = st.lists(st.integers(0, model.size - 1), max_size=4)
    cut = data.draw(st.integers(0, min(4, len(word))))
    z = tg.normalize_indices(model, data.draw(short))
    for x in (
        tg.normalize_indices(model, word[:cut]),
        tg.normalize_indices(model, data.draw(short)),
    ):
        assert tg.left_quotient(model, x, tg.concat(model, x, z)) == z
        q = tg.left_quotient(model, x, y)
        assert (q is None) == (x not in left_divisors(model, y, x.length))
        if q is not None:
            assert tg.concat(model, x, q) == y


def test_pyramidal_predicates(path4):
    assert tg.is_pyramidal(path4, tg.normalize(path4, "ba"), "a")
    assert tg.is_pyramidal(path4, tg.normalize(path4, "a"), "a")
    assert not tg.is_pyramidal(path4, UNIT, "a")
    assert not tg.is_pyramidal(path4, tg.normalize(path4, "ab"), "a")
    assert not tg.is_pyramidal(path4, tg.normalize(path4, "aa"), "a")


def test_pyramidal_decompose_worked_example(path4):
    x = tg.normalize(path4, "babddcbdac")
    parts, rest = tg.pyramidal_decompose(path4, x, "c")
    assert parts == [tg.normalize(path4, "babddc"), tg.normalize(path4, "bdc")]
    assert rest == tg.normalize(path4, "a")


def test_pyramidal_decompose_round_trip(path4):
    for x in enumerate_traces(path4, None, 6):
        for letter in path4.letters:
            parts, rest = tg.pyramidal_decompose(path4, x, letter)
            idx = path4.index_of(letter)
            assert len(parts) == x.letter_count(idx)
            assert rest.letter_count(idx) == 0
            for u in parts:
                assert tg.is_pyramidal(path4, u, letter)
            rebuilt = UNIT
            for u in parts:
                rebuilt = tg.concat(path4, rebuilt, u)
            rebuilt = tg.concat(path4, rebuilt, rest)
            assert rebuilt == x


@given(model_and_word(), st.data())
def test_pyramidal_decompose_random(mw, data):
    model, word = mw
    x = tg.normalize_indices(model, word)
    letter = model.letters[data.draw(st.integers(0, model.size - 1))]
    parts, rest = tg.pyramidal_decompose(model, x, letter)
    idx = model.index_of(letter)
    assert len(parts) == x.letter_count(idx)
    assert rest.letter_count(idx) == 0
    rebuilt = UNIT
    for u in parts:
        assert tg.is_pyramidal(model, u, letter)
        rebuilt = tg.concat(model, rebuilt, u)
    assert tg.concat(model, rebuilt, rest) == x


@given(model_and_word())
def test_final_floor_is_the_lowest_landing_level_minus_one(mw):
    # every letter dropped next lands above the final floor, and the lowest
    # of them lands right on top of it
    model, word = mw
    heap = Heap(model)
    heap.extend(word)
    landings = []
    for i in range(model.size):
        trial = Heap(model)
        trial.extend(word + [i])
        landings.append(max(lvl for lvl, f in enumerate(trial.factors) if f >> i & 1))
    assert heap.final_floor() == min(landings) - 1


@given(model_and_word(), st.lists(st.integers(0, 14), max_size=4))
def test_release_hands_out_the_final_levels_and_lowers_the_rest(mw, cuts):
    # released at any points, the final levels and then the open ones are
    # the word's normal form, and the heap keeps landing levels relative to
    # what it has released
    model, word = mw
    heap, whole = Heap(model), Heap(model)
    released = []
    for lo, hi in zip([0, *sorted(cuts)], [*sorted(cuts), len(word)]):
        heap.extend(word[lo:hi])
        whole.extend(word[lo:hi])
        floor = heap.final_floor()
        final = heap.release()
        assert len(final) == floor + 1 and heap.final_floor() == -1
        released += final
        assert heap.landing == [level - len(released) for level in whole.landing]
    assert tuple(released + heap.factors) == tg.normalize_indices(model, word).factors


@given(model_and_word(max_len=40), st.lists(st.integers(0, 40), max_size=4), st.data())
def test_glued_heaps_are_the_heap_of_the_whole_word(mw, cuts, data):
    # the heap of a prefix, with the heaps of the next pieces of the word
    # glued on in order, is the one-pass heap; pieces that miss a letter
    # may never let the landing levels align, and then every level drops
    model, word = mw
    missing = data.draw(st.sampled_from([None, *range(model.size)]))
    bounds = [0, *sorted(cuts), len(word)]
    pieces = [word[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    pieces[1:] = [[i for i in piece if i != missing] for piece in pieces[1:]]
    heap, whole = Heap(model), Heap(model)
    heap.extend(pieces[0])
    for piece in pieces[1:]:
        part = Heap(model)
        part.extend(piece)
        assert 0 <= heap.glue(part.factors, part.landing) <= len(part.factors)
    whole.extend([i for piece in pieces for i in piece])
    assert heap.factors == whole.factors
    assert heap.landing == whole.landing
    assert heap.final_floor() == whole.final_floor()


@pytest.mark.parametrize("model", [path_model(8), grid_model(3, 3), chorded_cycle(9, [0, 3])],
                         ids=["path8", "grid3x3", "chorded9"])
def test_glues_that_align_inside_a_heap_lay_the_rest_whole(model):
    # on a connected model the landing levels of random words mostly align
    # after the bottom few levels, so the level each letter was last seen
    # on decides both where the rest is laid and when
    def first_aligned(below, part):
        # the first of 0, 1, 3, 7, ... levels of part that, dropped on the
        # heap of the word below and alone, leave landing levels one
        # constant apart, else all of them
        k = 0
        while k < len(part.factors):
            bottom = [i for f in part.factors[:k] for i in iter_bits(f)]
            on, alone = Heap(model), Heap(model)
            on.extend(below + bottom)
            alone.extend(bottom)
            if len({h - a for h, a in zip(on.landing, alone.landing)}) == 1:
                return k
            k = 2 * k + 1
        return len(part.factors)

    rng = random.Random(1)
    kinds = set()
    for _ in range(40):
        heap, whole = Heap(model), Heap(model)
        for size in (40, 80, 80):
            word = [rng.randrange(model.size) for _ in range(rng.randrange(size))]
            part = Heap(model)
            part.extend(word)
            want = first_aligned(word_indices(whole.trace()), part)
            k = heap.glue(part.factors, part.landing)
            assert k == want
            kinds.add("none" if k == 0 else "all" if k == len(part.factors) else "some")
            whole.extend(word)
            assert (heap.factors, heap.landing) == (whole.factors, whole.landing)
    assert kinds == {"none", "some", "all"}


@pytest.mark.parametrize("model", [tg.build_model("abcd", []),
                                   tg.build_model("abcd", [("a", "b"), ("a", "c"), ("a", "d")])],
                         ids=["edgeless", "star"])
def test_a_glue_whose_landing_levels_never_align_drops_every_level(model):
    # letter d stands 5 levels higher than b, and the glued word has only b
    # and c, which leave that gap as it is: no shift ever fits every letter
    rng = random.Random(4)
    word = [rng.choice((1, 2)) for _ in range(60)]
    heap, part, whole = Heap(model), Heap(model), Heap(model)
    heap.extend([3] * 5)
    part.extend(word)
    whole.extend([3] * 5 + word)
    assert heap.glue(part.factors, part.landing) == len(part.factors)
    assert (heap.factors, heap.landing) == (whole.factors, whole.landing)
    # onto an empty heap, where every letter lands on level 0, it drops none
    empty = Heap(model)
    assert empty.glue(part.factors, part.landing) == 0
    assert (empty.factors, empty.landing) == (part.factors, part.landing)


def peeled_factors(model, word):
    """Cartier-Foata factors by peeling: the first factor is the letters
    whose first occurrence has no dependent letter before it; take those
    occurrences out of the word and repeat."""
    dep = model.dependence
    factors = []
    while word:
        factor = seen = 0
        rest = []
        for i in word:
            if seen & dep[i]:
                rest.append(i)
            else:
                factor |= 1 << i
            seen |= 1 << i
        factors.append(factor)
        word = rest
    return tuple(factors)


@given(model_and_word())
def test_normalize_indices_matches_peeled_factors(mw):
    model, word = mw
    assert tg.normalize_indices(model, word).factors == peeled_factors(model, word)


def dropped_on_an_empty_heap(model, word):
    """The normal form of a word by ``_drop`` alone."""
    factors = []
    monoid._drop(model.neighbours, factors, [0] * model.size, word)
    return tg.Trace(tuple(factors))


@pytest.mark.parametrize("model", [PATH4, path_model(16), chorded_cycle(12, [0, 5])],
                         ids=["p4", "path16", "chorded12"])
def test_words_under_two_letters_are_read_from_the_model(model):
    assert tg.normalize_indices(model, []) == UNIT
    assert tg.normalize_indices(model, b"") is UNIT
    for i in range(model.size):
        assert tg.normalize_indices(model, [i]) == dropped_on_an_empty_heap(model, [i])
        assert tg.normalize_indices(model, bytes([i])) is model.short_traces[i + 1]
    assert len(model.short_traces) == model.size + 1


def test_reading_a_shared_short_trace_leaves_later_samples_alone():
    params = tg.SamplerParams(p=0.2, seed=12)
    for x in tg.sample_many(PATH4, params, 400):
        assert x.length == sum(f.bit_count() for f in x.factors)
    words = Sampler(PATH4, params).draws(tg.RandomStream(params.seed).splits(0, 400))
    for x, word in zip(tg.sample_many(PATH4, params, 400), words):
        fresh = dropped_on_an_empty_heap(PATH4, word)
        assert (x, x.length) == (fresh, fresh.length)
    assert {x.length for x in PATH4.short_traces} == {0, 1}


def test_cliques_of_path4(path4):
    got = sorted(letters_of(path4, c) for c in cliques(path4))
    assert got == [
        [],
        ["a"],
        ["a", "c"],
        ["a", "d"],
        ["b"],
        ["b", "d"],
        ["c"],
        ["d"],
    ]
    assert clique_size_counts(path4) == [1, 4, 3]


def test_restrict_and_link(path4):
    sub = restrict(path4, "abd")
    assert sub.letters == ("a", "b", "d")
    assert letters_of(sub, sub.dependence[sub.index_of("d")]) == ["d"]
    assert letters_of(sub, sub.dependence[sub.index_of("a")]) == ["a", "b"]
    assert letters_of(path4, link(path4, "b")) == ["a", "b", "c"]
    assert letters_of(path4, link(path4, "a")) == ["a", "b"]
    with pytest.raises(ValueError, match="bits outside the alphabet"):
        restrict(path4, 0b10000)
    with pytest.raises(ValueError, match="mask 0b10000 has bits outside the alphabet of 4 letters"):
        restrict(path4, 0b10000)


def test_build_model_validation():
    with pytest.raises(ValueError):
        tg.build_model("", [])
    with pytest.raises(ValueError):
        tg.build_model("aa", [])
    with pytest.raises(ValueError):
        tg.build_model("ab", [("a", "z")])
    too_many = [f"x{i}" for i in range(65)]
    with pytest.raises(ValueError):
        tg.build_model(too_many, [])


def model_to_dict(model):
    """The model file form of a model, dependent pairs in index order."""
    pairs = []
    for i in range(model.size):
        for j in iter_bits(model.dependence[i] & ~(1 << i)):
            if j > i:
                pairs.append([model.letters[i], model.letters[j]])
    return {"letters": list(model.letters), "dependence": pairs}


def trace_from_lists(model, factors):
    """Rebuild a trace from its factor lists, renormalising."""
    return tg.normalize_indices(model, [model.index_of(ch) for f in factors for ch in f])


def test_model_serialization_round_trip(tmp_path, path4):
    data = model_to_dict(path4)
    again = tg.model_from_dict(json.loads(json.dumps(data)))
    assert again == path4
    p = tmp_path / "m.json"
    p.write_text(json.dumps(data))
    assert tg.load_model(str(p)) == path4


def test_trace_json_formatter_is_json_dumps_of_the_lists(path4):
    to_json = TraceJSON(path4)
    assert to_json(UNIT) == json.dumps(tg.trace_to_lists(path4, UNIT)) == "[]"
    samples = list(tg.sample_many(path4, tg.SamplerParams(p=0.3, seed=5), 300))
    # twice over: the second pass formats from the cached factors
    for x in samples + samples:
        assert to_json(x) == json.dumps(tg.trace_to_lists(path4, x))


def test_trace_json_formatter_escapes_letter_names():
    letters = ["\u00e9t\u00e9", 'say "a"', "back\\slash", "\u65e5\u672c", "tab\t"]
    model = tg.build_model(letters, zip(letters, letters[1:]))
    to_json = TraceJSON(model)
    every = to_json(tg.normalize_indices(model, range(5)))
    assert every == json.dumps(tg.trace_to_lists(model, tg.normalize_indices(model, range(5))))
    for escaped in ("\\u00e9", '\\"', "\\\\", "\\u65e5", "\\t"):
        assert escaped in every
    for seed in range(40):
        x = tg.normalize_indices(model, random.Random(seed).choices(range(5), k=12))
        assert to_json(x) == json.dumps(tg.trace_to_lists(model, x))


def test_trace_json_formatter_on_a_4000_block_stream():
    model = path_model(16)
    xi = tg.open_stream(model, "x0", seed=1).run(4000)
    assert TraceJSON(model)(xi) == json.dumps(tg.trace_to_lists(model, xi))


def test_trace_list_round_trip(path4):
    x = tg.normalize(path4, "abdcbad")
    lists = tg.trace_to_lists(path4, x)
    assert lists == [["a", "d"], ["b"], ["c"], ["b", "d"], ["a"]]
    assert trace_from_lists(path4, lists) == x
