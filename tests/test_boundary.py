"""Boundary block stream: validation, pyramidality, growth, parallel replay."""

import hashlib
import json
import multiprocessing
import random
from pathlib import Path

import pytest

import tracegen as tg
from tracegen import boundary, mobius
from tracegen.cli import main
from tracegen.mobius import ROOT_MARGIN
from tracegen.monoid import UNIT, Heap, word_indices

from conftest import chorded_cycle, cycle_model, path_model, restrict

PATH16 = path_model(16)


def test_open_stream_rejects_disconnected(path4, comm2):
    with pytest.raises(tg.NotIrreducibleError):
        tg.open_stream(comm2, "a", seed=1)
    with pytest.raises(tg.NotIrreducibleError):
        tg.open_stream(restrict(path4, "abd"), "a", seed=1)


def test_open_stream_rejects_unknown_pivot(path4):
    with pytest.raises(ValueError):
        tg.open_stream(path4, "z", seed=1)


def refuse_any_draw(monkeypatch):
    """Make solving a root, building a sampler or refilling a stream fail."""

    def drawn(*args, **kwargs):
        raise AssertionError("the stream got past its checks")

    monkeypatch.setattr(boundary, "smallest_root", drawn)
    monkeypatch.setattr(boundary, "Sampler", drawn)
    monkeypatch.setattr(tg.RandomStream, "_refill", drawn)


def test_one_letter_alphabet_is_refused(monkeypatch):
    single = tg.build_model("a", [])
    refuse_any_draw(monkeypatch)
    for build in (tg.BlockStream, tg.open_stream):
        with pytest.raises(ValueError, match=r"one point a \. a \.\.\."):
            build(single, "a", 1)
    with pytest.raises(ValueError, match="one letter alphabet"):
        tg.parallel_run(single, "a", 1, 5)


def test_block_stream_rejects_a_reducible_model_before_any_draw(monkeypatch):
    # a . b and c share no dependence: a stream of this model never emits c
    model = tg.build_model("abc", [("a", "b")])
    refuse_any_draw(monkeypatch)
    with pytest.raises(tg.NotIrreducibleError) as exc:
        tg.BlockStream(model, "a", 1)
    assert str(exc.value) == (
        "the uniform boundary measure needs an irreducible alphabet; the "
        "dependence graph has 2 connected components {a,b} {c}"
    )


def squeeze_gap(monkeypatch):
    """Make check_parameter see the full alphabet's root on every proper
    subalphabet, so the pivot free root no longer clears p_sigma."""
    real = mobius.smallest_root

    def squeezed(model, subset=None):
        if subset is not None and subset != model.full_mask:
            return real(model)
        return real(model, subset)

    monkeypatch.setattr(mobius, "smallest_root", squeezed)
    return real


def test_gap_guard_raises_when_margin_missing(path4, monkeypatch):
    root = squeeze_gap(monkeypatch)(path4)
    with pytest.raises(ValueError) as exc:
        tg.open_stream(path4, "a", seed=1)
    assert f"root={root!r}" in str(exc.value)
    assert f"ROOT_MARGIN={ROOT_MARGIN!r}" in str(exc.value)


def test_stream_cli_exits_2_when_margin_missing(monkeypatch, capsys):
    squeeze_gap(monkeypatch)
    model = str(Path(__file__).resolve().parent.parent / "models" / "p4.json")
    code = main(["stream", "--model", model, "--blocks", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "ROOT_MARGIN" in captured.err


def test_stream_critical_parameter_and_target(path4):
    stream = tg.open_stream(path4, "a", seed=1)
    assert stream.p_star == pytest.approx(1 / 3, abs=1e-9)
    # the conditioning target of every block is the link of the pivot
    assert stream.block_target == path4.dependence[path4.index_of("a")]
    assert stream.block_subset == path4.full_mask & ~path4.subset("a")


def test_blocks_are_pivot_pyramidal(path4):
    stream = tg.open_stream(path4, "b", seed=3)
    for _ in range(2000):
        block = stream.next_block()
        assert tg.is_pyramidal(path4, block, "b")


@pytest.mark.parametrize(
    "model", [path_model(20), path_model(24), cycle_model(24)],
    ids=["path20", "path24", "cycle24"],
)
def test_blocks_at_critical_parameter_on_long_alphabets(model):
    # mu_S(p_sigma) is tiny next to the clique counts of these alphabets, so
    # an occurrence probability is only right if mu_S is evaluated exactly
    pivot = model.letters[0]
    stream = tg.open_stream(model, pivot, seed=5)
    for _ in range(200):
        assert tg.is_pyramidal(model, stream.next_block(), pivot)


@pytest.mark.parametrize(
    "model, blocks",
    [
        (cycle_model(48), 200),
        (path_model(48), 50),
        (cycle_model(32), 1000),
        (cycle_model(64), 200),
        (path_model(64), 10),
    ],
    ids=["cycle48", "path48", "cycle32", "cycle64", "path64"],
)
def test_blocks_at_critical_parameter_on_48_letters(model, blocks):
    # a 48-letter path has F(50), about 1.3e10, cliques: too many to list
    pivot = model.letters[0]
    stream = tg.open_stream(model, pivot, seed=5)
    for _ in range(blocks):
        assert tg.is_pyramidal(model, stream.next_block(), pivot)


def test_accumulated_equals_block_product(path4):
    stream = tg.open_stream(path4, "a", seed=4)
    product = UNIT
    for _ in range(200):
        product = tg.concat(path4, product, stream.next_block())
    other = tg.open_stream(path4, "a", seed=4)
    assert other.run(200) == product
    assert stream.length == other.length == product.length
    assert stream.blocks_done == other.blocks_done == 200


def test_prefixes_are_left_divisors(path4):
    prefixes = [tg.open_stream(path4, "a", seed=5).run(k) for k in (1, 2, 3, 5, 8, 13)]
    for before, after in zip(prefixes, prefixes[1:]):
        assert tg.is_left_divisor(path4, before, after)


def test_first_prefixes_of_a_path16_stream_divide_it():
    model = path_model(16)
    stream = tg.open_stream(model, "x0", seed=13)
    heap = Heap(model)
    prefixes = []
    for _ in range(50):
        heap.extend(stream.advance())
        prefixes.append(heap.trace())
    xi = prefixes[-1]
    assert all(tg.is_left_divisor(model, x, xi) for x in prefixes)
    assert not tg.is_left_divisor(model, xi, prefixes[0])


@pytest.mark.parametrize("model", [path_model(4), path_model(16),
                                   chorded_cycle(28, (0, 5, 11, 17, 23))],
                         ids=["p4", "path16", "chorded28"])
@pytest.mark.parametrize("when", ["every-block", "random"])
def test_released_factors_then_the_open_levels_are_the_run(model, when):
    # factors released as the blocks go by, after every block or at random
    # points, then the open levels, are the product of the blocks so far
    rng = random.Random(5)
    heap, whole = Heap(model), Heap(model)
    released = []
    for n, word in enumerate(tg.open_stream(model, "x0", seed=29).words(0, 2100), 1):
        heap.extend(word)
        whole.extend(word)
        if when == "every-block" or rng.random() < 0.1:
            released += heap.release()
        assert heap.final_floor() == whole.final_floor() - len(released)
        if n in (1, 6, 600):
            assert released + heap.factors == whole.factors
    assert tuple(released + heap.factors) == tg.open_stream(model, "x0", seed=29).run(2100).factors


def test_a_path16_heap_released_after_every_block_stays_small():
    # an earlier measurement, on the same stream, saw at most 654 open levels
    model = path_model(16)
    heap = Heap(model)
    most_open = 0
    for word in tg.open_stream(model, "x0", seed=3).words(0, 5000):
        heap.extend(word)
        heap.release()
        most_open = max(most_open, len(heap.factors))
    assert most_open < 1000


def test_pivot_count_tracks_blocks(path4):
    stream = tg.open_stream(path4, "c", seed=6)
    xi = stream.run(500)
    assert xi.letter_count(path4.index_of("c")) == 500


def test_words_replay_the_sequential_stream(path4):
    stream = tg.open_stream(path4, "a", seed=7)
    sequential = [
        [path4.letters[i] for i in word_indices(stream.next_block())] for _ in range(50)
    ]
    replay = tg.open_stream(path4, "a", seed=7)
    for i in (0, 7, 23, 49):
        word = [path4.letters[j] for j in next(replay.words(i, i + 1))]
        assert word == sequential[i]


def test_words_equal_the_advance_calls_and_their_steps():
    # 300 blocks cross the runs of 1, 16, 32, 64, 128 and 256 streams
    model = path_model(6)
    stream = tg.open_stream(model, "x0", seed=19)
    ranged = tg.open_stream(model, "x0", seed=19)
    assert list(ranged.words(0, 300)) == [stream.advance() for _ in range(300)]
    assert ranged.counter.steps == stream.counter.steps


def pooled_words(stream, start, stop, workers):
    """The words of blocks start to stop - 1, drawn in ranges on a pool."""
    return [word for words, _ in stream.ranges(start, stop, workers) for word in words]


def test_words_straddling_a_key_of_2_to_the_32_equal_their_splits(path4):
    stream = tg.open_stream(path4, "b", seed=23)
    got = list(stream.words(2**32 - 2, 2**32 + 2))
    want = [stream.draw_block(stream.stream.split(i)) for i in range(2**32 - 2, 2**32 + 2)]
    assert got == want
    # on 2 workers the 40 blocks come in ranges of 5, the fourth cut to 3
    # at 2**32
    alone = tg.open_stream(path4, "b", seed=23)
    words = [bytes(w) for w in alone.words(2**32 - 18, 2**32 + 22)]
    pooled = tg.open_stream(path4, "b", seed=23)
    assert pooled_words(pooled, 2**32 - 18, 2**32 + 22, workers=2) == words
    assert pooled.counter.steps == alone.counter.steps


def test_interleaved_run_advance_and_next_block_replay_every_block():
    # run, advance and next_block share one iterator of run-derived
    # streams; 300 blocks cross the runs of 1, 16, 32, 64, 128 and 256
    # streams, and each run returns the product of its own blocks only
    model = path_model(6)
    stream = tg.open_stream(model, "x0", seed=17)
    replay = tg.open_stream(model, "x0", seed=17)
    words = [next(replay.words(b, b + 1)) for b in range(301)]  # one block each

    def product(blocks):
        return tg.normalize_indices(model, [i for b in blocks for i in words[b]])

    assert stream.run(3) == product(range(3))
    assert stream.advance() == words[3]
    assert stream.next_block() == tg.normalize_indices(model, words[4])
    assert stream.run(42) == product(range(5, 47))
    assert stream.advance() == words[47]
    assert stream.run(252) == product(range(48, 300))
    assert stream.next_block() == tg.normalize_indices(model, words[300])
    assert stream.blocks_done == 301
    assert stream.length == sum(len(w) for w in words)


def test_parallel_run_matches_sequential(path4):
    xi_seq = tg.parallel_run(path4, "a", seed=8, blocks=300, workers=1)
    xi_par = tg.parallel_run(path4, "a", seed=8, blocks=300, workers=2)
    assert xi_seq == xi_par
    c_seq, c_par = tg.StepCounter(), tg.StepCounter()
    tg.parallel_run(path4, "a", seed=8, blocks=120, workers=1, counter=c_seq)
    tg.parallel_run(path4, "a", seed=8, blocks=120, workers=3, counter=c_par)
    assert c_seq.steps == c_par.steps


@pytest.mark.parametrize("model, blocks, workers",
                         [("path4", 0, 2), ("path4", 1, 3), ("path4", 37, 2), ("path4", 50, 3),
                          ("path4", 600, 2), ("path4", 700, 3), ("path4", 1100, 3),
                          ("path4", 2100, 2), ("path16", 600, 3), ("path16", 4000, 2)],
                         ids=["0-2", "1-3", "37-2", "50-3", "600-2", "700-3", "1100-3", "2100-2",
                              "path16-600-3", "path16-4000-2"])
def test_parallel_run_ranges_match_sequential(request, model, blocks, workers):
    # 37 and 50 blocks are not multiples of the 4 * workers ranges; 600 and
    # 1100 blocks are longer than a capped range; 700 blocks on 3 workers
    # ramp from 16 blocks through 32 to ranges of 59, and 2100 blocks ramp
    # on to ranges of 256, the cap; path16's glued ranges drop a few
    # hundred levels each before their landing levels align
    model, pivot = (request.getfixturevalue("path4"), "c") if model == "path4" else (PATH16, "x0")
    c_seq, c_par = tg.StepCounter(), tg.StepCounter()
    xi_seq = tg.parallel_run(model, pivot, seed=12, blocks=blocks, workers=1, counter=c_seq)
    xi_par = tg.parallel_run(model, pivot, seed=12, blocks=blocks, workers=workers, counter=c_par)
    assert xi_par == xi_seq
    assert c_par.steps == c_seq.steps


def test_pooled_words_are_the_words_and_close_their_pool(path4):
    # blocks 5 to 699 ramp from ranges of 16 to ranges of 87 on 2 workers,
    # and of 58 on 3
    stream = tg.open_stream(path4, "b", seed=41)
    words = [bytes(w) for w in stream.words(5, 700)]
    for workers in (2, 3):
        pooled = tg.open_stream(path4, "b", seed=41)
        assert pooled_words(pooled, 5, 700, workers) == words
        assert pooled.counter.steps == stream.counter.steps
    endless = pooled.ranges(0, boundary.NO_LAST_BLOCK, workers=2)
    assert next(endless)[0][0] == bytes(next(stream.words(0, 1)))
    endless.close()
    assert multiprocessing.active_children() == []


def test_parallel_run_with_one_worker_is_the_open_stream_run(path4):
    counter = tg.StepCounter()
    xi = tg.parallel_run(path4, "b", seed=31, blocks=150, workers=1, counter=counter)
    stream = tg.open_stream(path4, "b", seed=31)
    assert xi == stream.run(150)
    assert counter.steps == stream.counter.steps


def test_parallel_run_validates_workers(path4):
    with pytest.raises(ValueError):
        tg.parallel_run(path4, "a", seed=8, blocks=10, workers=0)


def test_equal_seeds_equal_runs_different_seeds_differ(path4):
    a = tg.open_stream(path4, "a", seed=9).run(400)
    b = tg.open_stream(path4, "a", seed=9).run(400)
    c = tg.open_stream(path4, "a", seed=10).run(400)
    assert a == b
    assert a != c


def test_mean_block_length_is_finite_and_stable(path4):
    # lengths grow linearly: the mean block length settles near a constant
    stream = tg.open_stream(path4, "a", seed=11)
    xi = stream.run(4000)
    assert 1.0 <= xi.length / 4000 <= 20.0


def test_counter_grows_linearly_with_blocks(path4):
    stream = tg.open_stream(path4, "a", seed=12)
    stream.run(100)
    at_100 = stream.counter.steps
    stream.run(100)
    assert stream.blocks_done == 200
    assert stream.counter.steps <= 2 * at_100 + 200 * 3 * (path4.size + 1)


def test_run_and_next_block_are_pinned():
    # recorded before run() stopped normalising the blocks it discards
    model = path_model(16)
    stream = tg.open_stream(model, "x0", 11)
    xi = stream.run(1000)
    assert (xi.length, stream.counter.steps) == (149193, 891050)
    digest = hashlib.sha256(json.dumps(tg.trace_to_lists(model, xi)).encode()).hexdigest()
    assert digest == "af21bfd65271570bc02f54707765c0ae9a5a4d4a745425840d075d588e5417a4"
    stream = tg.open_stream(model, "x0", 11)
    blocks = [tg.trace_to_lists(model, stream.next_block()) for _ in range(200)]
    assert (stream.length, stream.counter.steps) == (36496, 217981)
    digest = hashlib.sha256(json.dumps(blocks).encode()).hexdigest()
    assert digest == "138f74f5d7cb5ad3b7c5bb6d6d088e6cfd5a6386ff2febea41b724ce989bad35"
