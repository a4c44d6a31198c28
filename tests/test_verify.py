"""Statistical verification harness run at reduced sizes with scaled thresholds."""

import functools
from collections import Counter
from itertools import islice, repeat

import pytest

import tracegen as tg
from tracegen import verify
from tracegen.boundary import BlockStream
from tracegen.monoid import Heap
from tracegen.oracle import enumerate_traces
from tracegen.verify import (
    DEFAULT_SEED,
    BoundarySuiteConfig,
    FiniteSuiteConfig,
    MobiusSuiteConfig,
    TestReport,
    run_checks,
    run_suite,
    verify_cylinders,
    verify_decomposition_law,
)

from conftest import cycle_model, path_model


def test_report_comparisons():
    assert TestReport.make("x", 0.5, 1.0, "le", 1, 0).passed
    assert not TestReport.make("x", 1.5, 1.0, "le", 1, 0).passed
    assert TestReport.make("x", 1.5, 1.0, "ge", 1, 0).passed
    assert TestReport.make("x", 1.0, 1.0, "ge", 1, 0).passed
    assert not TestReport.make("x", 1.0, 1.0, "gt", 1, 0).passed
    with pytest.raises(ValueError):
        TestReport.make("x", 1.0, 1.0, "eq", 1, 0)
    as_dict = TestReport.make("x", 0.5, 1.0, "le", 7, 3, extra=1).to_dict()
    assert as_dict["name"] == "x" and as_dict["details"] == {"extra": 1}


def test_mobius_suite_passes(path4):
    reports = run_checks(path4, MobiusSuiteConfig(), seed=101)
    assert reports and all(r.passed for r in reports)
    names = {r.name for r in reports}
    assert "pivot-deletion-identity-exact" in names
    assert "mobius-upper-bound" in names
    assert "root-monotone-under-removal" in names


def test_mobius_suite_on_larger_random_alphabet():
    # above the exhaustive limit the identity is spot checked by sampling
    letters = "abcdefghij"
    pairs = [(letters[i], letters[i + 1]) for i in range(9)]
    model = tg.build_model(letters, pairs)
    config = MobiusSuiteConfig(exhaustive_limit=4, sampled_checks=64)
    reports = run_checks(model, config, seed=5)
    assert all(r.passed for r in reports)


def test_mobius_suite_walks_cliques_of_every_small_subset(path4):
    reports = {r.name: r for r in run_checks(path4, MobiusSuiteConfig(), seed=101)}
    walk = reports["mobius-matches-clique-walk"]
    assert walk.passed and walk.sample_size == 15
    assert walk.details == {"over_budget": 0}


def test_mobius_suite_on_a_48_letter_path():
    # the full alphabet alone has F(50) cliques: only subsets within the
    # budget are walked, the rest of the suite runs on the recurrence
    config = MobiusSuiteConfig(sampled_checks=32, chain_checks=10)
    reports = {
        r.name: r for r in run_checks(path_model(48), config, seed=5)
    }
    assert all(r.passed for r in reports.values())
    walk = reports["mobius-matches-clique-walk"]
    assert walk.sample_size + walk.details["over_budget"] <= 32
    assert walk.details["over_budget"] > 0


SMALL_FINITE = FiniteSuiteConfig(
    n_law=30_000,
    n_mean=20_000,
    n_decomposition=20_000,
    n_conditioned=10_000,
    n_pivot_rule=30_000,
    n_steps=2_000,
    tv_threshold=0.03,
    conditioned_tv_threshold=0.05,
    pivot_tv_threshold=0.05,
    unit_mass_threshold=0.015,
    mean_relative_threshold=0.05,
    chi_alpha=0.005,
)


def test_finite_suite_passes_at_reduced_size(path4):
    reports = run_checks(path4, SMALL_FINITE, seed=202)
    failed = [r.name for r in reports if not r.passed]
    assert failed == []
    names = [r.name for r in reports]
    for expected in (
        "finite-law-tv",
        "unit-mass",
        "mean-length",
        "determinism",
        "step-bound-linear",
    ):
        assert expected in names


def test_finite_suite_is_seed_deterministic(path4):
    config = FiniteSuiteConfig(
        n_law=2_000, n_mean=1_000, n_decomposition=1_000, n_conditioned=1_000,
        n_pivot_rule=1_000, n_steps=200, tv_threshold=1.0,
        conditioned_tv_threshold=1.0, pivot_tv_threshold=1.0,
        unit_mass_threshold=1.0, mean_relative_threshold=1.0, chi_alpha=0.0,
    )
    first = run_checks(path4, config, seed=7)
    again = run_checks(path4, config, seed=7)
    assert [r.statistic for r in first] == [r.statistic for r in again]


SMALL_BOUNDARY = BoundarySuiteConfig(
    n_blocks_law=20_000,
    cylinder_runs=1_200,
    x_max_len=2,
    k_monotone=200,
    k_divisor_check=20,
    k_linearity=300,
    k_equivalence=60,
    workers=2,
    tv_threshold=0.025,
    cylinder_threshold=0.05,
)


def test_boundary_suite_passes_at_reduced_size(path4):
    reports = run_checks(path4, SMALL_BOUNDARY, seed=303)
    failed = [r.name for r in reports if not r.passed]
    assert failed == []
    names = [r.name for r in reports]
    for expected in (
        "critical-gap",
        "block-conditioning-is-link",
        "blocks-pyramidal",
        "block-law-tv",
        "prefix-monotone",
        "length-linear-in-blocks",
        "parallel-equivalence",
        "boundary-cylinder-law",
    ):
        assert expected in names


def test_decomposition_law_standalone(path4):
    reports = verify_decomposition_law(path4, "a", 0.2, n=20_000, seed=404)
    assert [r.name for r in reports] == [
        "decomposition-count-geometric",
        "decomposition-first-body-law",
        "decomposition-pair-independence",
    ]
    assert all(r.passed for r in reports)


def test_decomposition_law_refuses_samples_without_two_pivots(path4):
    # at seed 1 none of the 20 samples holds two pivots: the pair table is empty
    with pytest.raises(ValueError, match="n=20 samples: 0 hold two pivots 'a'"):
        verify_decomposition_law(path4, "a", 0.2, n=20, seed=1)


def test_cylinders_refuse_zero_runs(path4):
    with pytest.raises(ValueError, match="runs=0"):
        verify_cylinders(path4, "a", runs=0)


def test_finite_suite_refuses_zero_law_samples(path4):
    with pytest.raises(ValueError, match="n_law=0"):
        run_checks(path4, FiniteSuiteConfig(n_law=0))


def test_finite_determinism_compares_the_draws_it_has(path4):
    # at n_law=1 the one law row draw is repeated, and the 200 draws at
    # seed + 6 are compared with the 200 redrawn ones, not with that draw,
    # which a unit sample at seed + 6 matched by chance
    for n_law, compared in ((1, 1), (150, 150), (500, 200)):
        [report] = verify._finite_determinism(path4, 3, FiniteSuiteConfig(n_law=n_law))
        assert (report.name, report.statistic, report.sample_size) == ("determinism", 0, compared)


# each suite size with the largest value its check cannot use: a mean or a
# law of no samples, a check of no subsets or no blocks, a step bound
# checked only on the draws or blocks it was calibrated on, and a pool of
# one worker, whose run is the serial run it is compared with
TOO_SMALL = [
    (MobiusSuiteConfig, "sampled_checks", 0),
    (MobiusSuiteConfig, "chain_checks", 0),
    (FiniteSuiteConfig, "n_law", 0),
    (FiniteSuiteConfig, "n_mean", 0),
    (FiniteSuiteConfig, "n_decomposition", 0),
    (FiniteSuiteConfig, "n_conditioned", 0),
    (FiniteSuiteConfig, "n_pivot_rule", 0),
    (FiniteSuiteConfig, "n_steps", 100),
    (BoundarySuiteConfig, "n_blocks_law", 0),
    (BoundarySuiteConfig, "cylinder_runs", 0),
    (BoundarySuiteConfig, "k_monotone", 0),
    (BoundarySuiteConfig, "k_linearity", 50),
    (BoundarySuiteConfig, "k_equivalence", 0),
    (BoundarySuiteConfig, "workers", 1),
]


@pytest.mark.parametrize("config, name, value", TOO_SMALL, ids=[row[1] for row in TOO_SMALL])
def test_suite_configs_refuse_sizes_their_checks_cannot_use(config, name, value):
    for bad in (value, value - 1, -5):
        with pytest.raises(ValueError, match=f"^{name}={bad} is too small"):
            config(**{name: bad})
    assert getattr(config(**{name: value + 1}), name) == value + 1


def test_cylinders_standalone(path4):
    report = verify_cylinders(
        path4, "a", seed=505, x_max_len=1, runs=800, tolerance=0.06
    )
    assert report.passed
    assert report.name == "boundary-cylinder-law"
    per_trace = report.details["per_trace"]
    assert len(per_trace) == 5  # the unit plus the four single letter cylinders
    assert per_trace["1"]["frequency"] == 1.0
    for name, entry in per_trace.items():
        if name == "1":
            continue
        assert entry["target"] == pytest.approx(1 / 3, abs=1e-9)
        assert abs(entry["frequency"] - 1 / 3) < 0.06


# counts out of 200 runs of each cylinder frequency in the report below,
# recorded from the sampler before the heap and block draw were shared
PINNED_CYLINDER_COUNTS = {
    "(a c)": 14, "(a c)(a)": 2, "(a c)(b)": 6, "(a c)(c)": 6, "(a c)(d)": 4,
    "(a d)": 17, "(a d)(a)": 2, "(a d)(b)": 7, "(a d)(c)": 6, "(a d)(d)": 5,
    "(a)": 50, "(a)(a)": 12, "(a)(a)(a)": 4, "(a)(a)(b)": 7, "(a)(b)": 18,
    "(a)(b)(a)": 11, "(a)(b)(b)": 2, "(a)(b)(c)": 5, "(b d)": 23, "(b d)(a)": 8,
    "(b d)(b)": 8, "(b d)(c)": 4, "(b d)(d)": 12, "(b)": 68, "(b)(a c)": 10,
    "(b)(a)": 23, "(b)(a)(a)": 6, "(b)(a)(b)": 7, "(b)(b)": 23, "(b)(b)(a)": 5,
    "(b)(b)(b)": 11, "(b)(b)(c)": 6, "(b)(c)": 25, "(b)(c)(b)": 9, "(b)(c)(c)": 8,
    "(b)(c)(d)": 8, "(c)": 74, "(c)(b d)": 10, "(c)(b)": 27, "(c)(b)(a)": 13,
    "(c)(b)(b)": 9, "(c)(b)(c)": 5, "(c)(c)": 28, "(c)(c)(b)": 10, "(c)(c)(c)": 9,
    "(c)(c)(d)": 9, "(c)(d)": 25, "(c)(d)(c)": 6, "(c)(d)(d)": 14, "(d)": 62,
    "(d)(c)": 22, "(d)(c)(b)": 10, "(d)(c)(c)": 7, "(d)(c)(d)": 5, "(d)(d)": 23,
    "(d)(d)(c)": 5, "(d)(d)(d)": 7, "1": 200,
}


def test_cylinders_draw_order_is_pinned(path4):
    report = verify_cylinders(
        path4, "a", seed=DEFAULT_SEED, x_max_len=3, runs=200
    )
    assert report.statistic == 0.08333333333333331
    per_trace = report.details["per_trace"]
    assert {name: entry["frequency"] for name, entry in per_trace.items()} == {
        name: count / 200 for name, count in PINNED_CYLINDER_COUNTS.items()
    }


def test_cylinders_of_length_zero_hold_the_unit(path4):
    report = verify_cylinders(path4, "a", seed=11, x_max_len=0, runs=300)
    assert report.passed and report.statistic == 0.0
    assert report.details["per_trace"] == {"1": {"frequency": 1.0, "target": 1.0}}


# -- early-stopped cylinder runs against runs of a fixed 192 blocks -----------

CYLINDER_MODELS = {
    "p4": tg.build_model("abcd", [("a", "b"), ("b", "c"), ("c", "d")]),
    "star4": tg.build_model("abcd", [("a", "b"), ("a", "c"), ("a", "d")]),
    "triangle": tg.build_model("abc", [("a", "b"), ("b", "c"), ("a", "c")]),
    "path6": path_model(6),
    "cycle6": cycle_model(6),
}
CYLINDER_PIVOTS = [
    ("p4", "a"), ("p4", "b"), ("p4", "c"), ("star4", "a"), ("star4", "b"),
    ("triangle", "a"), ("path6", "x0"), ("path6", "x2"), ("cycle6", "x0"),
]
CYLINDER_SEED = 17
CYLINDER_RUNS = 300


@functools.cache
def fixed_run_bottoms(name, pivot):
    """The bottom three heap levels of each run after 192 blocks, drawn
    with no early stop; by then they are final in every run."""
    model = CYLINDER_MODELS[name]
    source = tg.BlockStream(model, pivot, CYLINDER_SEED)
    bottoms = []
    for run_idx in range(CYLINDER_RUNS):
        stream = tg.RandomStream(CYLINDER_SEED, (run_idx,))
        heap = Heap(model)
        for word in islice(source.blocks(repeat(stream)), 192):
            heap.extend(word)
        assert heap.final_floor() >= 2
        bottoms.append(tuple(heap.factors[:3]))
    return source.p_star, bottoms


def reference_cylinders(name, pivot, x_max_len):
    """The verify_cylinders report, from the left divisors of each run's
    bottom x_max_len levels in fixed_run_bottoms."""
    model = CYLINDER_MODELS[name]
    p_star, bottoms = fixed_run_bottoms(name, pivot)
    hits = Counter()
    for levels in bottoms:
        hits.update(tg.left_divisors(model, tg.Trace(levels[:x_max_len]), x_max_len))
    details = {}
    worst = 0.0
    for x in enumerate_traces(model, model.full_mask, x_max_len):
        target_prob = p_star**x.length
        freq = hits[x] / CYLINDER_RUNS
        worst = max(worst, abs(freq - target_prob))
        details[tg.format_trace(model, x)] = {"frequency": freq, "target": target_prob}
    return TestReport.make(
        "boundary-cylinder-law", worst, 0.015, "le", CYLINDER_RUNS, CYLINDER_SEED,
        p_star=p_star, per_trace=details,
    )


@pytest.mark.parametrize("x_max_len", [1, 2, 3])
@pytest.mark.parametrize(
    "name, pivot", CYLINDER_PIVOTS, ids=[f"{m}-{p}" for m, p in CYLINDER_PIVOTS]
)
def test_early_stopped_cylinders_match_full_ladder(name, pivot, x_max_len):
    got = verify_cylinders(
        CYLINDER_MODELS[name], pivot, seed=CYLINDER_SEED, x_max_len=x_max_len,
        runs=CYLINDER_RUNS,
    )
    assert got.to_dict() == reference_cylinders(name, pivot, x_max_len).to_dict()


def test_cylinder_prefixes_are_counted_once_final():
    # a checkpoint ladder that stopped doubling at the first increment under
    # 1e-3 read this cylinder after 16 blocks, and missed one run: 31 of 300
    report = verify_cylinders(
        CYLINDER_MODELS["path6"], "x2", seed=CYLINDER_SEED, x_max_len=2,
        runs=CYLINDER_RUNS,
    )
    assert report.details["per_trace"]["(x0 x3)"]["frequency"] == 32 / 300


def test_cylinder_runs_stop_once_their_bottom_is_final(path4, monkeypatch):
    drawn = 0
    blocks = BlockStream.blocks

    def counting(self, streams):
        nonlocal drawn
        for word in blocks(self, streams):
            drawn += 1
            yield word

    monkeypatch.setattr(BlockStream, "blocks", counting)
    verify_cylinders(path4, "a", seed=DEFAULT_SEED, x_max_len=3, runs=2_000)
    assert 2_000 <= drawn <= 0.05 * 2_000 * 192


def test_run_suite_dispatch(path4):
    with pytest.raises(ValueError):
        run_suite("bogus", path4)
    reports = run_suite("mobius", path4, seed=9)
    assert reports and all(r.passed for r in reports)


def test_run_suite_walks_the_rows_in_order_at_their_offsets(path4, monkeypatch):
    walked = []

    def row(label):
        def check(model, seed, config):
            walked.append((label, seed, config))
            return [TestReport.make(label, 0, 0, "le", 1, seed)]
        return check

    monkeypatch.setattr(verify, "CHECKS", {
        "mobius": ((0, row("m")),),
        "finite": ((0, row("f0")), (3, row("f3")), (0, row("f0-again"))),
        "boundary": ((1, row("b1")), (6, row("b6"))),
    })
    finite = FiniteSuiteConfig(pivot_letter="b")
    boundary = BoundarySuiteConfig(pivot_letter="b")
    reports = run_suite("all", path4, seed=100, pivot_letter="b")
    assert [(r.name, r.seed) for r in reports] == [
        ("m", 100), ("f0", 100), ("f3", 103), ("f0-again", 100), ("b1", 101), ("b6", 106),
    ]
    assert [config for _, _, config in walked] == [
        MobiusSuiteConfig(), finite, finite, finite, boundary, boundary,
    ]
    walked.clear()
    run_suite("finite", path4, seed=100)
    assert [label for label, _, _ in walked] == ["f0", "f3", "f0-again"]


# full to_dict() of two reports recorded before the divisor helpers, the
# cylinder counts and the decomposition bodies were rewritten; each row is
# (name, statistic, threshold, comparison, sample_size, seed, passed, details)
REPORT_FIELDS = (
    "name", "statistic", "threshold", "comparison", "sample_size", "seed",
    "passed", "details",
)
PINNED_DECOMPOSITION = [
    ("decomposition-count-geometric", 0.373091160541814, 0.005, "gt", 2000, 404,
     True, {"r": 0.27272727272727276, "statistic_chi2": 4.251078703703692, "bins": 5}),
    ("decomposition-first-body-law", 0.026694017094017086, 0.015, "le", 585, 404,
     False, {}),
    ("decomposition-pair-independence", 0.7560122463771167, 0.005, "gt", 165, 404,
     True, {"statistic_chi2": 1.8898340274176817}),
]
TINY_BOUNDARY = BoundarySuiteConfig(
    n_blocks_law=2_000,
    cylinder_runs=100,
    x_max_len=1,
    k_monotone=60,
    k_divisor_check=20,
    k_linearity=100,
    k_equivalence=20,
    workers=2,
    tv_threshold=0.05,
    cylinder_threshold=0.15,
)
THIRD = 0.3333333333333333
PINNED_TINY_BOUNDARY = [
    ("critical-gap", 0.04863267791677178, 1e-09, "ge", 1, 303, True,
     {"p_star": THIRD, "pivot_free_root": 0.3819660112501051}),
    ("block-conditioning-is-link", 0.0, 0.0, "le", 1, 303, True, {}),
    ("blocks-pyramidal", 0.0, 0.0, "le", 2000, 304, True, {}),
    ("block-law-tv", 0.019209876543209693, 0.05, "le", 2000, 304, True,
     {"p_star": THIRD}),
    ("prefix-monotone", 0.0, 0.0, "le", 8457, 305, True,
     {"blocks": 60, "division_checks": 20}),
    ("pivot-count-per-block", 0.0, 0.0, "le", 60, 305, True, {}),
    ("length-linear-in-blocks", 0.9961482777082453, 0.99, "ge", 100, 306, True, {}),
    ("step-bound-stream", 0.0, 0.0, "le", 100, 306, True,
     {"fitted_constant": 2.718849840255591}),
    ("parallel-equivalence", 0.0, 0.0, "le", 20, 307, True, {"workers": 2}),
    ("determinism", 0.0, 0.0, "le", 20, 307, True, {}),
    ("boundary-cylinder-law", 0.08333333333333331, 0.15, "le", 100, 309, True,
     {"p_star": THIRD, "per_trace": {
         "1": {"frequency": 1.0, "target": 1.0},
         "(a)": {"frequency": 0.34, "target": THIRD},
         "(b)": {"frequency": 0.35, "target": THIRD},
         "(c)": {"frequency": 0.25, "target": THIRD},
         "(d)": {"frequency": 0.39, "target": THIRD},
     }}),
]


def test_decomposition_reports_are_pinned(path4):
    reports = verify_decomposition_law(path4, "a", 0.2, n=2000, seed=404)
    assert [r.to_dict() for r in reports] == [
        dict(zip(REPORT_FIELDS, row)) for row in PINNED_DECOMPOSITION
    ]


def test_boundary_suite_reports_are_pinned(path4):
    reports = run_checks(path4, TINY_BOUNDARY, seed=303)
    assert [r.to_dict() for r in reports] == [
        dict(zip(REPORT_FIELDS, row)) for row in PINNED_TINY_BOUNDARY
    ]


PINNED_FINITE = [
    ("finite-law-tv", 0.06630000000000029, 1.0, "le", 2000, 7, True,
     {"p": 0.19999999999999998}),
    ("unit-mass", 0.007999999999999952, 1.0, "le", 2000, 7, True,
     {"frequency": 0.328, "target": 0.32000000000000006}),
    ("mean-length", 0.0434285714285716, 1.0, "le", 1000, 8, True,
     {"observed": 1.826, "target": 1.7499999999999998}),
    ("decomposition-count-geometric", 0.7006826903162523, 0.0, "gt", 1000, 9, True,
     {"r": 0.2727272727272727, "statistic_chi2": 2.190970679012345, "bins": 5}),
    ("decomposition-first-body-law", 0.041945787545787594, 0.015, "le", 273, 9, False, {}),
    ("decomposition-pair-independence", 0.37255368336306477, 0.0, "gt", 64, 9, True,
     {"statistic_chi2": 4.25531781339987}),
    ("conditioned-max-inside-link", 0.0, 0.0, "le", 1000, 10, True, {}),
    ("conditioned-law-tv-link", 0.05622666666666719, 1.0, "le", 1000, 10, True, {}),
    ("conditioned-max-inside-single", 0.0, 0.0, "le", 1000, 10, True, {}),
    ("conditioned-law-tv-single", 0.024872727272727307, 1.0, "le", 1000, 10, True, {}),
    ("pivot-rule-invariance", 0.1340000000000002, 1.0, "le", 1000, 11, True, {}),
    ("determinism", 0.0, 0.0, "le", 200, 7, True, {}),
    ("step-bound-linear", 2.6, 5.2, "le", 200, 14, True, {"fitted_constant": 5.2}),
]


def test_finite_suite_reports_are_pinned(path4):
    # the config of test_finite_suite_is_seed_deterministic
    config = FiniteSuiteConfig(
        n_law=2_000, n_mean=1_000, n_decomposition=1_000, n_conditioned=1_000,
        n_pivot_rule=1_000, n_steps=200, tv_threshold=1.0,
        conditioned_tv_threshold=1.0, pivot_tv_threshold=1.0,
        unit_mass_threshold=1.0, mean_relative_threshold=1.0, chi_alpha=0.0,
    )
    reports = run_checks(path4, config, seed=7)
    assert [r.to_dict() for r in reports] == [
        dict(zip(REPORT_FIELDS, row)) for row in PINNED_FINITE
    ]
