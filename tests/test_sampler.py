"""Finite trace sampler: determinism, laws on moderate samples, step counts."""

import gc
import hashlib
import math
import signal
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tracegen as tg
from conftest import child_states, chorded_cycle, cycle_model, path_model
from tracegen import sampler as sampler_module
from tracegen.mobius import ROOT_MARGIN
from tracegen.oracle import enumerate_traces, exact_occurrence, tv_distance
from tracegen.sampler import _SHARED, PIVOT_RULES, Sampler, _log_ratio, _SharedGenerator
from tracegen.verify import empirical_distribution


class FixedUniform:
    def __init__(self, value):
        self.value = value

    def uniform(self):
        return self.value


def sample_geometric(r, stream):
    """Draw K with P(K = k) = (1 - r) r^k by inversion of one uniform: the
    geometric draw of the plain recursion in reference_fill."""
    log_r = _log_ratio(r)
    u = stream.uniform()
    return int(math.log1p(-u) / log_r) if log_r else 0


def test_geometric_inversion_frozen_values():
    assert sample_geometric(0.5, FixedUniform(0.9)) == 3
    assert sample_geometric(0.5, FixedUniform(0.49)) == 0
    assert sample_geometric(0.5, FixedUniform(0.75)) == 2  # exact boundary
    assert sample_geometric(0.0, FixedUniform(0.99)) == 0
    u = 0.437
    r = 3 / 11
    expect = int(math.log1p(-u) / math.log(r))
    assert sample_geometric(r, FixedUniform(u)) == expect


def test_geometric_validates_parameter():
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            sample_geometric(bad, FixedUniform(0.5))


def test_random_stream_split_is_stable():
    base = tg.RandomStream(42)
    child = base.split(3)
    fresh = tg.RandomStream(42, (3,))
    assert [child.uniform() for _ in range(5)] == [
        fresh.uniform() for _ in range(5)
    ]
    # drawing from the parent does not disturb the children
    base.uniform()
    assert tg.RandomStream(42, (3,)).uniform() == tg.RandomStream(42, (3,)).uniform()


def test_sampler_params_validation():
    with pytest.raises(ValueError):
        tg.SamplerParams(p=0.2, pivot="bogus")
    with pytest.raises(ValueError):
        tg.SamplerParams(p=0.2, pivot="order")
    params = tg.SamplerParams(p=0.2, pivot="order", pivot_order=("b", "a"))
    assert params.pivot_order == ("b", "a")


def test_sample_rejects_p_at_or_beyond_root(path4):
    for bad in (1 / 3, 0.34, 0.5, 0.0, -0.2):
        with pytest.raises(ValueError):
            Sampler(path4, tg.SamplerParams(p=bad, seed=1))


def test_sample_many_checks_p_when_called(path4):
    # the check runs before any sample is drawn, not at the first next()
    with pytest.raises(ValueError, match="out of range"):
        tg.sample_many(path4, tg.SamplerParams(p=0.5), 3)


@pytest.mark.parametrize("n", [0, 1, 2, 17, 49, 600])
def test_sample_many_equals_per_index_draws(path4, n):
    # p close to the root, so many samples need more than 8 doubles
    params = tg.SamplerParams(p=0.3, seed=5)
    counter, want_counter = tg.StepCounter(), tg.StepCounter()
    got = list(tg.sample_many(path4, params, n, counter=counter))
    sampler = Sampler(path4, params, counter=want_counter)
    root = tg.RandomStream(params.seed)
    want = [tg.normalize_indices(path4, sampler.draw(root.split(i))) for i in range(n)]
    assert got == want
    assert counter.steps == want_counter.steps


def test_sample_many_derives_its_first_stream_alone(path4, monkeypatch):
    runs = []
    derive_run = tg.RandomStream._run

    def spy(stream, first, n):
        runs.append((first, n))
        return derive_run(stream, first, n)

    monkeypatch.setattr(tg.RandomStream, "_run", spy)
    samples = tg.sample_many(path4, tg.SamplerParams(p=0.2, seed=5), 600)
    next(samples)
    assert runs == []
    next(samples)
    assert runs == [(1, 16)]
    assert len(list(samples)) == 598
    assert runs == [(1, 16), (17, 32), (49, 64), (113, 128), (241, 256), (497, 103)]


def test_nodes_compile_on_the_first_draw_with_their_rest_chains():
    # neither a Sampler nor a BlockStream compiles anything before its
    # first draw, which compiles the root's whole rest chain
    stream = tg.open_stream(path_model(16), "x5", seed=3)
    sampler = stream._sampler
    assert sampler._nodes == {} and sampler._root is None
    next(stream.words(0, 1))
    # the root's candidates x4 and x6 make a chain of two nodes, whose
    # visit costs 3 then 4 steps
    chain, node = [], sampler._root
    while node is not None:
        chain.append(node)
        node = node[5]
    assert [n[0] for n in chain] == [4, 6]
    assert [n[3] for n in chain] == [7, 4]


def test_a_root_that_is_only_split_is_never_seeded(path4, monkeypatch):
    # sample_many's root stream is only split: the keys hashed are the
    # first child's, at its first refill, and those of the run after it
    hashed = []
    seeds = sampler_module._seeds

    def spy(pool, t, words):
        hashed.append(words)
        return seeds(pool, t, words)

    monkeypatch.setattr(sampler_module, "_seeds", spy)
    samples = list(tg.sample_many(path4, tg.SamplerParams(p=0.2, seed=5), 17))
    assert len(samples) == 17
    assert hashed[0] == [0] and hashed[1][0].tolist() == list(range(1, 17))
    assert len(hashed) == 2


def test_subset_sampling_allows_larger_p(path4):
    # the bcd subpath has root (3 - sqrt(5)) / 2, above 1/3
    bcd = path4.subset("bcd")
    params = tg.SamplerParams(p=0.35, seed=2)
    word = Sampler(path4, params, bcd).draw(tg.RandomStream(params.seed))
    x = tg.normalize_indices(path4, word)
    for factor in x.factors:
        assert factor & ~bcd == 0
    with pytest.raises(ValueError):
        Sampler(path4, params)


def test_sample_determinism(path4):
    params = tg.SamplerParams(p=0.2, seed=11)
    twice = [Sampler(path4, params).draw(tg.RandomStream(params.seed)) for _ in range(2)]
    assert twice[0] == twice[1]
    first = list(tg.sample_many(path4, params, 50))
    again = list(tg.sample_many(path4, params, 50))
    assert first == again
    prefix = list(tg.sample_many(path4, params, 10))
    assert first[:10] == prefix
    other = list(tg.sample_many(path4, tg.SamplerParams(p=0.2, seed=12), 50))
    assert first != other


def test_law_moderate_sample(path4):
    params = tg.SamplerParams(p=0.2, seed=5)
    n = 20000
    samples = list(tg.sample_many(path4, params, n))
    unit_freq = sum(1 for x in samples if x.is_unit) / n
    assert abs(unit_freq - 0.32) < 0.012
    exact = enumerate_traces(path4, None, 3).probability_table(0.2)
    tv = tv_distance(empirical_distribution(samples), exact, 3)
    assert tv < 0.02


def test_mean_length_moderate_sample(path4):
    params = tg.SamplerParams(p=0.25, seed=6)
    n = 30000
    mean = sum(x.length for x in tg.sample_many(path4, params, n)) / n
    assert abs(mean - 10 / 3) < 0.1


def test_conditioned_max_stays_inside_target(path4):
    target = tg.link(path4, "a")
    params = tg.SamplerParams(p=0.2, seed=7)
    full = path4.full_mask
    for i, x in enumerate(tg.sample_many(path4, params, 500, full, target)):
        assert tg.max_letters(path4, x) & ~target == 0


def test_unconditioned_counter_bound(path4):
    params = tg.SamplerParams(p=0.2, seed=8)
    n_letters = path4.size
    sampler = Sampler(path4, params)
    for i in range(2000):
        before = sampler.counter.steps
        x = tg.normalize_indices(path4, sampler.draw(tg.RandomStream(8, (i,))))
        assert sampler.counter.steps - before <= 3 * (n_letters + 1) * (x.length + 1)


def test_all_pivot_rules_sample_the_same_law(path4):
    # on the mirror-symmetric path the reversed order mirrors lowindex
    # draw for draw; b d a c differs from every other rule
    orders = {"order": (("d", "c", "b", "a"), ("b", "d", "a", "c"))}
    n = 20000
    freqs = []
    for rule in PIVOT_RULES:
        for order in orders.get(rule, (None,)):
            params = tg.SamplerParams(p=0.2, seed=9, pivot=rule, pivot_order=order)
            samples = tg.sample_many(path4, params, n)
            freqs.append(sum(1 for x in samples if x.length <= 1) / n)
    spread = max(freqs) - min(freqs)
    assert spread < 0.02


def test_shared_counter_accumulates(path4):
    params = tg.SamplerParams(p=0.2, seed=10)
    counter = tg.StepCounter()
    list(tg.sample_many(path4, params, 100, counter=counter))
    assert counter.steps > 100


@pytest.mark.parametrize(
    "pivot, seed, conditioned, letters, steps, digest",
    [
        ("maxdeg", 31, False, 491, 6528,
         "13ed38df4a2da995f3dc506e54ffe47a6e16b269a6ceb41c1308a21eb58b1c9b"),
        ("order", 32, False, 508, 6645,
         "70d0171562336b34010878f4d6b277994061179aeba1042be1a0155aa46e6db2"),
        ("lowindex", 33, True, 319, 3969,
         "49a66809a517ef1325ea749770c1c0ce1871ffb7b6f9de0073af5ac1e31720d3"),
    ],
    ids=["maxdeg", "order", "link-a"],
)
def test_sample_many_draws_are_pinned(path4, pivot, seed, conditioned, letters, steps, digest):
    # frozen output: 300 draws at p = 0.2, their letter total, the steps
    # counted, and the sha256 of their bracket forms one per line
    params = tg.SamplerParams(
        p=0.2, seed=seed, pivot=pivot,
        pivot_order=("b", "d", "a", "c") if pivot == "order" else None,
    )
    target = tg.link(path4, "a") if conditioned else None
    counter = tg.StepCounter()
    xs = list(tg.sample_many(path4, params, 300, path4.full_mask, target, counter))
    text = "\n".join(tg.format_trace(path4, x) for x in xs)
    assert sum(x.length for x in xs) == letters
    assert counter.steps == steps
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_sample_calls_with_one_counter_are_pinned(path4):
    params = tg.SamplerParams(p=0.25, seed=99)
    counter = tg.StepCounter()
    sampler = Sampler(path4, params, counter=counter)
    letters = sum(
        tg.normalize_indices(path4, sampler.draw(tg.RandomStream(5, (i,)))).length
        for i in range(500)
    )
    assert (letters, counter.steps) == (1634, 15233)


# -- the compiled sampler against the plain pivot recursion ---------------------

def reference_fill(sampler, subset, target, stream, out):
    """The pivot recursion, one call per state, as the compiled nodes run it."""
    counter = sampler.counter
    counter.steps += 1
    candidates = subset & target
    if not candidates:
        return
    pivot = sampler._choose(subset, candidates)
    k = sample_geometric(sampler.table.occurrence(subset, pivot), stream)
    counter.steps += k + 1
    rest = subset & ~(1 << pivot)
    lk = sampler.model.dependence[pivot]
    for _ in range(k):
        reference_fill(sampler, rest, lk, stream, out)
        out.append(pivot)
        counter.steps += 1
    reference_fill(sampler, rest, target, stream, out)
    counter.steps += 1


def reference_draw(model, params, subset, target, stream):
    sampler = Sampler(model, params, subset, target)
    out = []
    reference_fill(sampler, subset, target, stream, out)
    return out, sampler.counter.steps


@st.composite
def sampler_case(draw):
    n = draw(st.integers(1, 8))
    letters = "abcdefgh"[:n]
    pairs = [
        (letters[i], letters[j])
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    model = tg.build_model(letters, pairs)
    rule = draw(st.sampled_from(PIVOT_RULES))
    order = None
    if rule == "order":
        order = tuple(draw(st.permutations(letters))[: draw(st.integers(1, n))])
    subset = draw(st.integers(1, model.full_mask))
    target = draw(st.integers(0, model.full_mask))
    p = 0.9 * tg.smallest_root(model, subset)
    params = tg.SamplerParams(p=p, seed=draw(st.integers(0, 2**32)), pivot=rule, pivot_order=order)
    return model, params, subset, target


@given(sampler_case())
def test_compiled_draw_matches_recursion(case):
    model, params, subset, target = case
    sampler = Sampler(model, params, subset, target)
    for i in range(4):
        before = sampler.counter.steps
        got = sampler.draw(tg.RandomStream(params.seed, (i,)))
        want, steps = reference_draw(
            model, params, subset, target, tg.RandomStream(params.seed, (i,))
        )
        assert got == want
        assert sampler.counter.steps - before == steps


@pytest.mark.parametrize("model", [path_model(16), cycle_model(20)], ids=["path16", "cycle20"])
def test_compiled_blocks_match_recursion_at_p_sigma(model):
    stream = tg.open_stream(model, "x0", 23)
    params = tg.SamplerParams(p=stream.p_star)
    for i in range(200):
        before = stream.counter.steps
        got = next(stream.words(i, i + 1))
        want, steps = reference_draw(
            model, params, stream.block_subset, stream.block_target, stream.stream.split(i)
        )
        assert got == want + [stream.pivot_index]
        # plus the block's own step
        assert stream.counter.steps - before == steps + 1


def test_compiled_node_checks_geometric_parameter(path4, monkeypatch):
    monkeypatch.setattr(tg.MobiusTable, "occurrence", lambda self, subset, pivot: 1.0)
    with pytest.raises(ValueError, match=r"got 1\.0"):
        Sampler(path4, tg.SamplerParams(p=0.2, seed=1)).draw(tg.RandomStream(1))


PATH4 = tg.build_model("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
CHORDED28 = chorded_cycle(28, (0, 5, 11, 17, 23))


def case_sampler(model, p):
    """A fresh Sampler over the full alphabet at p, or, when p is None,
    the block sampler of the stream pivoted at x0, at p_sigma."""
    if p is None:
        stream = tg.open_stream(model, "x0", 0)
        return Sampler(
            model, tg.SamplerParams(p=stream.p_star), stream.block_subset, stream.block_target
        )
    return Sampler(model, tg.SamplerParams(p=p))


def compiled_nodes(sampler):
    """Every state reachable from the root of a Sampler, with its compiled
    node."""
    todo, seen = [sampler.root_state], {}
    while todo:
        state = todo.pop()
        if state in seen:
            continue
        node = seen[state] = sampler._node(state)
        todo += [child for child in child_states(sampler.model, state, node[0]) if child]
    return seen


@pytest.mark.parametrize(
    "model, p",
    [
        (PATH4, 0.2),
        (PATH4, 1e-7),
        (path_model(16), None),
        (cycle_model(20), None),
        (CHORDED28, 0.6 * tg.smallest_root(CHORDED28)),
    ],
    ids=["p4-0.2", "p4-1e-7", "path16-blocks", "cycle20-blocks", "chorded28"],
)
def test_every_compiled_geometric_parameter_is_correctly_rounded(model, p):
    sampler = case_sampler(model, p)
    p = sampler.table.p
    nodes = compiled_nodes(sampler)
    for state, (pivot, log_r, zero_below, *_) in nodes.items():
        r = exact_occurrence(model, state[0], pivot, p)
        assert sampler.table.occurrence(state[0], pivot) == r, state
        assert log_r == math.log(r), state
        assert zero_below == -math.expm1(log_r) * (1 - 2**-30), state
    assert len(nodes) > 1


class ChunkedValues:
    """A stream serving given doubles in chunks of three, each refilled by
    ``_refill`` when the chunk runs out, as RandomStream refills."""

    def __init__(self, values):
        self._values = iter(values)
        self._next = iter(()).__next__

    def uniform(self):
        try:
            return self._next()
        except StopIteration:
            return self._refill()

    def _refill(self):
        self._next = iter([next(self._values) for _ in range(3)]).__next__
        return self._next()


THRESHOLD_CASES = [
    (PATH4, 1e-7),
    (PATH4, 0.2),
    (PATH4, tg.smallest_root(PATH4) - ROOT_MARGIN),
    (path_model(16), None),
    (cycle_model(20), None),
    (CHORDED28, 0.6 * tg.smallest_root(CHORDED28)),
]
THRESHOLD_IDS = ["p4-1e-7", "p4-0.2", "p4-root", "path16-blocks", "cycle20-blocks", "chorded28"]


@pytest.mark.parametrize("model, p", THRESHOLD_CASES, ids=THRESHOLD_IDS)
def test_zero_threshold_only_skips_draws_of_zero(model, p):
    sampler = case_sampler(model, p)
    params = tg.SamplerParams(p=sampler.table.p)
    for i, (state, (_, log_r, zero_below, *_)) in enumerate(compiled_nodes(sampler).items()):
        if not log_r:
            assert zero_below == 2.0
            continue
        below = [math.nextafter(zero_below, 0.0)]
        while len(below) < 1000:
            below.append(math.nextafter(below[-1], 0.0))
        assert [u for u in below if int(math.log1p(-u) / log_r)] == [], state
        # a draw rooted at this node, whose first uniform lies at the
        # threshold, matches the plain recursion
        edge = -math.expm1(log_r)
        subset, candidates = state
        node_sampler = Sampler(model, params, subset, candidates)
        rest = numpy_doubles(7, (i,), 10_000)
        for u in (below[0], below[-1], zero_below, edge, math.nextafter(edge, 0.0)):
            before = node_sampler.counter.steps
            got = node_sampler.draw(ChunkedValues([u] + rest))
            want, steps = reference_draw(
                model, params, subset, candidates, ChunkedValues([u] + rest)
            )
            assert (got, node_sampler.counter.steps - before) == (want, steps), (state, u)


@pytest.mark.parametrize("seed, key", [(0, ()), (42, ()), (7, (3,)), (2**63 + 5, (1, 2, 3))])
def test_chunked_uniforms_equal_scalar_draws(seed, key):
    stream = tg.RandomStream(seed, key)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))
    assert [stream.uniform() for _ in range(1000)] == [float(gen.random()) for _ in range(1000)]


def numpy_doubles(seed, key, n):
    """n doubles of numpy's own SeedSequence -> PCG64 stream, the reference."""
    bitgen = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key))
    return np.random.Generator(bitgen).random(n).tolist()


key_elements = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**70]), st.integers(0, 2**72))


@given(
    st.one_of(st.sampled_from([0, 2**128 - 1, 2**128, 2**200 + 3]), st.integers(0, 2**130)),
    st.lists(key_elements, max_size=3).map(tuple),
)
def test_derived_streams_equal_numpy_seed_sequence(seed, key):
    want = numpy_doubles(seed, key, 50)
    stream = tg.RandomStream(seed, key)
    assert [stream.uniform() for _ in range(50)] == want
    if key:
        child = tg.RandomStream(seed, key[:-1]).split(key[-1])
        assert [child.uniform() for _ in range(50)] == want


def test_interleaved_streams_equal_their_solo_draws():
    first, second = tg.RandomStream(9, (1,)), tg.RandomStream(9, (2,))
    got_first, got_second = [], []
    for i in range(600):
        got_first.append(first.uniform())
        got_second.append(second.uniform())
        if i % 7 == 0:
            got_first.append(first.uniform())
    assert got_first == numpy_doubles(9, (1,), len(got_first))
    assert got_second == numpy_doubles(9, (2,), 600)


def test_stream_resumes_after_a_live_stream_displaced_it():
    # 70 draws take the chunks of 64 and 128; the second stream then takes
    # the generator over, and the first's next refill, at draw 193, must
    # start from the first's own position
    first, second = tg.RandomStream(21, (1,)), tg.RandomStream(21, (2,))
    head = [first.uniform() for _ in range(70)]
    other = [second.uniform() for _ in range(5)]
    tail = [first.uniform() for _ in range(200)]
    assert head + tail == numpy_doubles(21, (1,), 270)
    assert other == numpy_doubles(21, (2,), 5)


def test_stream_resumes_after_its_displacer_was_deleted():
    first, second = tg.RandomStream(21, (1,)), tg.RandomStream(21, (2,))
    head = [first.uniform() for _ in range(5)]
    second.uniform()
    del second
    third = tg.RandomStream(21, (3,))
    other = [third.uniform() for _ in range(30)]
    tail = [first.uniform() for _ in range(100)]  # a refill past the first 64
    assert head + tail == numpy_doubles(21, (1,), 105)
    assert other == numpy_doubles(21, (3,), 30)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**128, 2**200 + 3])
@pytest.mark.parametrize("prefix", [(), (1, 2)])
def test_splits_equal_numpy_seed_sequence(seed, prefix):
    # runs of 16 doubling to 256 after the first child, a range that crosses
    # 2**32, where a key element takes a second word, and 200 doubles per
    # child, past the 8 each run derives and the refills of 64 and 128
    # after them
    base = tg.RandomStream(seed, prefix)
    for start, stop in [(0, 0), (5, 6), (0, 15), (0, 16), (0, 17), (3, 303),
                        (2**32 - 20, 2**32 + 30)]:
        children = list(base.splits(start, stop))
        assert [child.key for child in children] == [prefix + (i,) for i in range(start, stop)]
        for child in children:
            assert [child.uniform() for _ in range(200)] == numpy_doubles(seed, child.key, 200)


@given(
    st.one_of(st.sampled_from([0, 2**128 - 1, 2**128, 2**200 + 3]), st.integers(0, 2**130)),
    st.lists(key_elements, max_size=2).map(tuple),
    st.one_of(st.integers(0, 2**40), st.integers(2**32 - 300, 2**32 - 1)),
    st.integers(1, 256),
)
def test_runs_of_every_size_equal_numpy_seed_sequence(seed, prefix, first, n):
    # a run never crosses a multiple of 2**32, so one starting just below
    # it is cut there; 200 doubles per child are its 8 derived ones and
    # the refills of 64 and 128 after them
    n = min(n, (first | 2**32 - 1) + 1 - first)
    children = tg.RandomStream(seed, prefix)._run(first, n)
    assert [child.key for child in children] == [prefix + (first + k,) for k in range(n)]
    for child in children:
        assert [child.uniform() for _ in range(200)] == numpy_doubles(seed, child.key, 200)


@given(
    st.one_of(st.integers(0, 600), st.integers(2**32 - 600, 2**32 + 600)),
    st.integers(0, 3000),
    st.integers(1, 256),
)
def test_ramp_partitions_its_range_in_doubling_runs_cut_at_2_to_the_32(start, length, size):
    # the runs of RandomStream.splits and the ranges of a pooled
    # BlockStream.words: min(16, size) first, each next one twice as long
    # up to size, cut by the stop and by each multiple of 2**32
    stop = start + length
    ranges = list(sampler_module._ramp(start, stop, size))
    assert [i for r in ranges for i in r] == list(range(start, stop))
    want = min(16, size)
    for r in ranges:
        assert len(r) == min(want, stop - r.start, (r.start // 2**32 + 1) * 2**32 - r.start)
        assert len(r) > 0 and r.start // 2**32 == (r.stop - 1) // 2**32
        want = min(2 * want, size)


def test_run_children_share_the_generator_with_live_streams():
    # a scalar stream owns the generator mid-chunk; each run child takes it
    # over past its own 8 doubles, and the two displace each other, alive
    scalar = tg.RandomStream(21, (100,))
    got_scalar = [scalar.uniform() for _ in range(9)]
    children = list(tg.RandomStream(21).splits(0, 20))
    for child in children[1:]:
        head = [child.uniform() for _ in range(12)]
        got_scalar += [scalar.uniform() for _ in range(3)]
        tail = [child.uniform() for _ in range(38)]
        assert head + tail == numpy_doubles(21, child.key, 50)
    assert got_scalar == numpy_doubles(21, (100,), len(got_scalar))


def test_wide_draws_from_run_children_refill_once(monkeypatch):
    # a run child of splits holds its 8 derived doubles, then refills 64: a
    # draw on 28 letters reads at least the 28 uniforms of its root's rest
    # chain, and one that reads at most 72 refills exactly once
    sizes = []
    refill = tg.RandomStream._refill

    def spy(stream):
        sizes.append(stream._chunk)
        return refill(stream)

    monkeypatch.setattr(tg.RandomStream, "_refill", spy)
    sampler = Sampler(CHORDED28, tg.SamplerParams(p=0.6 * tg.smallest_root(CHORDED28)))
    children = tg.RandomStream(3).splits(0, 301)
    next(children)  # split(0), derived alone
    once = 0
    for stream in children:
        sizes.clear()
        sampler.draw(stream)
        unread = sum(1 for _ in iter(stream._next, None))
        used = 8 + sum(sizes) - unread
        assert used >= 28
        if used <= 72:
            assert sizes == [64], used
            once += 1
    assert once >= 290


def test_splits_rejects_a_negative_index():
    with pytest.raises(ValueError, match="non-negative"):
        next(tg.RandomStream(3).splits(-1, 5))


def test_shared_generator_keeps_no_stream_alive():
    stream = tg.RandomStream(5, (1,))
    count = sys.getrefcount(stream)
    stream.uniform()  # a refill
    assert sys.getrefcount(stream) == count
    shared = [_SHARED, vars(_SHARED), *vars(_SHARED).values()]
    assert not [r for r in gc.get_referrers(stream) if any(r is x for x in shared)]


def test_refills_advance_each_stream_to_numpy_state():
    # every stream refills chunks of 64 doubling to 256, a run child of
    # splits after its 8 derived doubles; after each refill, the stream's
    # own state is the one numpy's generator reached by drawing the chunk,
    # and the one a generator of its own reaches by drawing as many doubles
    alone = tg.RandomStream(13, (2,))
    child = list(tg.RandomStream(13).splits(0, 2))[1]
    for stream, heads, sizes in [(alone, 0, [64, 128, 256, 256]), (child, 8, [64, 128, 256])]:
        own = np.random.PCG64(np.random.SeedSequence(13, spawn_key=stream.key))
        own.advance(heads)
        for n in sizes:
            assert stream._chunk == n
            stream._refill()
            own.advance(n)
            s_lo, s_hi, i_lo, i_hi = stream._state
            got = {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}
            assert got == _SHARED.bitgen.state["state"] == own.state["state"], n


def test_shared_generator_rejects_an_unknown_state_layout(monkeypatch):
    # a generator whose state setter writes nothing leaves words that match
    # neither layout of numpy's pcg128_t
    class Unwritable(np.random.PCG64):
        state = property(np.random.PCG64.state.__get__, lambda self, value: None)

    monkeypatch.setattr(np.random, "PCG64", Unwritable)
    with pytest.raises(ImportError, match=f"numpy {np.__version__}: .* neither layout"):
        _SharedGenerator()


def test_threads_drawing_concurrently_equal_sequential_draws():
    # more threads than cores and a short switch interval, so the threads
    # refill from the shared generator in between each other's refills;
    # odd threads take their streams from the runs of splits
    keys = [(t, i) for t in range(4) for i in range(12)]
    want = {key: numpy_doubles(13, key, 700) for key in keys}
    got = {}

    def work(t):
        base = tg.RandomStream(13, (t,))
        for stream in base.splits(0, 12) if t % 2 else map(base.split, range(12)):
            got[stream.key] = [stream.uniform() for _ in range(700)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


@pytest.mark.parametrize("seed, key", [(-1, ()), (-(2**40), ()), (5, (-1,)), (5, (2, -3))])
def test_negative_seed_or_key_raises(seed, key):
    # a word splitter that shifts a negative number right never reaches
    # zero, so an alarm stops the check if it has not raised in time
    def expire(signum, frame):
        raise TimeoutError("RandomStream did not return")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        with pytest.raises(ValueError, match="non-negative"):
            tg.RandomStream(seed, key)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("p", [1e-7, 1e-9, 1e-12])
@pytest.mark.parametrize("model", [path_model(16), cycle_model(20)], ids=["path16", "cycle20"])
def test_sample_many_at_tiny_p(model, p):
    # the occurrence probabilities are about p, so a tolerance of 1e-10
    # relative is far below the quotient form's rounding of a few 2^-53
    samples = list(tg.sample_many(model, tg.SamplerParams(p=p, seed=3), 200))
    assert len(samples) == 200 and all(x.is_unit for x in samples)
