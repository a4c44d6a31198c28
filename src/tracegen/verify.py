"""Statistical and structural verification suites.

Each check produces a TestReport: a named statistic, the threshold it was
held to, and the verdict.  All randomness is seeded, so every report is
reproducible bit for bit from its parameters.  The exact references,
every law table among them, come from the oracle module; the suites never
compare a sampler against itself.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import DEFAULT_SEED, SUITES
from .boundary import open_stream, parallel_run
from .mobius import (
    ROOT_MARGIN,
    MobiusTable,
    expected_length,
    mobius_polynomial,
    recurrence_residual_coefficients,
    smallest_root,
)
from .monoid import (
    Heap,
    IndependenceModel,
    Trace,
    clique_size_counts,
    concat,
    format_trace,
    is_left_divisor,
    is_pyramidal,
    iter_bits,
    left_divisors,
    max_letters,
    normalize_indices,
    pyramidal_decompose,
)
from .oracle import (
    _check_guardrails,
    chi_square,
    enumerate_traces,
    exact_occurrence,
    geometric_bins,
    probability_table,
    pyramidal_block_table,
    tv_distance,
)
from .sampler import (
    RandomStream,
    SamplerParams,
    StepCounter,
    sample_many,
)

# the mobius suite walks the cliques of a subset only up to this many: a
# random subset of a 48-letter path has about a million, up to 1e8
CLIQUE_WALK_LIMIT = 20_000

# law checks compare the traces of length at most this against the oracle
SUPPORT_CUTOFF = 4


@dataclass
class TestReport:
    """Outcome of one verification check.

    ``comparison`` states how the statistic was judged: "le" passes when
    statistic <= threshold, "ge" when statistic >= threshold, "gt" when
    statistic > threshold (the p-value convention).
    """

    __test__ = False  # keep pytest collection away from the Test prefix

    name: str
    statistic: float
    threshold: float
    comparison: str
    sample_size: int
    seed: int
    passed: bool
    details: dict = field(default_factory=dict)

    @classmethod
    def make(
        cls,
        name: str,
        statistic: float,
        threshold: float,
        comparison: str,
        sample_size: int,
        seed: int,
        **details,
    ) -> "TestReport":
        if comparison == "le":
            passed = statistic <= threshold
        elif comparison == "ge":
            passed = statistic >= threshold
        elif comparison == "gt":
            passed = statistic > threshold
        else:
            raise ValueError(f"unknown comparison {comparison!r}")
        return cls(
            name, float(statistic), float(threshold), comparison,
            int(sample_size), int(seed), bool(passed), details,
        )

    def to_dict(self) -> dict:
        return asdict(self)


def empirical_distribution(samples: Sequence[Trace]) -> dict[Trace, float]:
    n = len(samples)
    return {x: c / n for x, c in Counter(samples).items()}


def _law_report(
    name: str,
    samples: Sequence[Trace],
    exact: dict[Trace, float],
    cutoff: int,
    threshold: float,
    seed: int,
    **details,
) -> TestReport:
    """Total variation between the empirical law of ``samples`` and the
    exact table, on traces of length at most ``cutoff``."""
    tv = tv_distance(empirical_distribution(samples), exact, cutoff)
    return TestReport.make(name, tv, threshold, "le", len(samples), seed, **details)


# ---------------------------------------------------------------------------
# Decomposition law

def verify_decomposition_law(
    model: IndependenceModel,
    pivot: str,
    p: float,
    n: int = 100_000,
    seed: int = DEFAULT_SEED,
    chi_alpha: float = 0.005,
) -> list[TestReport]:
    """Sample n traces, split each at the pivot, and test the three
    consequences of the decomposition: the pyramidal factor count is
    geometric, the first factor body follows the conditioned law, and the
    first two bodies are independent."""
    from scipy.stats import chi2_contingency

    full = model.full_mask
    pivot_index = model.index_of(pivot)
    params = SamplerParams(p=p, seed=seed)
    r = exact_occurrence(model, full, pivot_index, p)

    # a pyramidal part's top level is its apex alone; the levels below are its body
    apex = 1 << pivot_index
    cap = 2
    ks: list[int] = []
    first_bodies: list[Trace] = []
    pair_cells: Counter[tuple[int, int]] = Counter()
    for x in sample_many(model, params, n):
        k = x.letter_count(pivot_index)
        ks.append(k)
        if k >= 1:
            parts, _ = pyramidal_decompose(model, x, pivot)
            assert all(part.factors[-1] == apex for part in parts[:2])
            v0 = Trace(parts[0].factors[:-1])
            first_bodies.append(v0)
            if k >= 2:
                v1 = Trace(parts[1].factors[:-1])
                pair_cells[min(v0.length, cap), min(v1.length, cap)] += 1

    reports = []
    observed, expected = geometric_bins(ks, r)
    stat, pvalue = chi_square(observed, expected)
    reports.append(
        TestReport.make(
            "decomposition-count-geometric", pvalue, chi_alpha, "gt", n, seed,
            r=r, statistic_chi2=stat, bins=len(observed),
        )
    )

    rest = full & ~(1 << pivot_index)
    exact = probability_table(model, rest, model.dependence[pivot_index], p, 3)
    reports.append(
        _law_report("decomposition-first-body-law", first_bodies, exact, 3, 0.015, seed)
    )

    # the pair-length table without its empty rows and columns
    rows = sorted({a for a, _ in pair_cells})
    cols = sorted({b for _, b in pair_cells})
    table = [[pair_cells[a, b] for b in cols] for a in rows]
    stat, pvalue, _, _ = chi2_contingency(table, correction=False)
    reports.append(
        TestReport.make(
            "decomposition-pair-independence", pvalue, chi_alpha, "gt",
            pair_cells.total(), seed, statistic_chi2=float(stat),
        )
    )
    return reports


# ---------------------------------------------------------------------------
# Boundary cylinders

def verify_cylinders(
    model: IndependenceModel,
    pivot: str,
    seed: int = DEFAULT_SEED,
    x_max_len: int = 3,
    runs: int = 10_000,
    tolerance: float = 0.015,
) -> TestReport:
    """Check the cylinder law of the boundary measure by direct frequency.

    Every trace x with |x| <= x_max_len should be a prefix of the infinite
    trace with probability p_star^|x|.  A prefix of length L lives in the
    bottom L levels of the heap, and those levels are the infinite trace's
    own once ``Heap.final_floor`` reaches L - 1, since no later block lands
    in them.  So each run draws blocks until its bottom x_max_len levels
    are final, then counts the left divisors of length at most x_max_len
    of those levels: exactly the run's short prefixes.  The frequency of x
    is the share of runs that have it as a prefix.

    One stream per run, the runs' streams derived together by
    ``RandomStream(seed).splits``.
    """
    blocks = open_stream(model, pivot, seed)
    p_star = blocks.p_star

    hits: Counter[Trace] = Counter()
    for stream in RandomStream(seed).splits(0, runs):
        heap = Heap(model)
        while heap.final_floor() < x_max_len - 1:
            heap.extend(blocks.draw_block(stream))
        hits.update(left_divisors(model, Trace(tuple(heap.factors[:x_max_len])), x_max_len))

    details: dict[str, dict] = {}
    worst = 0.0
    for x in enumerate_traces(model, model.full_mask, x_max_len):
        target_prob = p_star**x.length
        freq = hits[x] / runs
        worst = max(worst, abs(freq - target_prob))
        details[format_trace(model, x)] = {"frequency": freq, "target": target_prob}
    return TestReport.make(
        "boundary-cylinder-law", worst, tolerance, "le", runs, seed,
        p_star=p_star, per_trace=details,
    )


# ---------------------------------------------------------------------------
# Suite configurations

@dataclass(frozen=True)
class MobiusSuiteConfig:
    exhaustive_limit: int = 8
    sampled_checks: int = 512
    chain_checks: int = 100


@dataclass(frozen=True)
class FiniteSuiteConfig:
    pivot_letter: str | None = None
    n_law: int = 200_000
    n_mean: int = 100_000
    n_decomposition: int = 100_000
    n_conditioned: int = 50_000
    n_pivot_rule: int = 200_000
    n_steps: int = 10_000
    tv_threshold: float = 0.01
    conditioned_tv_threshold: float = 0.015
    pivot_tv_threshold: float = 0.015
    unit_mass_threshold: float = 0.005
    mean_relative_threshold: float = 0.02
    chi_alpha: float = 0.01


@dataclass(frozen=True)
class BoundarySuiteConfig:
    pivot_letter: str | None = None
    n_blocks_law: int = 100_000
    cylinder_runs: int = 10_000
    x_max_len: int = 3
    k_monotone: int = 700
    k_divisor_check: int = 50
    k_linearity: int = 1_000
    k_equivalence: int = 200
    workers: int = 8
    tv_threshold: float = 0.01
    cylinder_threshold: float = 0.015


# ---------------------------------------------------------------------------
# Mobius suite

def run_mobius_suite(
    model: IndependenceModel,
    seed: int = DEFAULT_SEED,
    config: MobiusSuiteConfig = MobiusSuiteConfig(),
) -> list[TestReport]:
    """Structural checks of the polynomial layer on one model."""
    reports = []
    full = model.full_mask
    rng = random.Random(seed)
    exhaustive = model.size <= config.exhaustive_limit

    def masks(low: int):
        """Every mask from ``low`` to ``full``, or ``sampled_checks`` random
        ones drawn lazily, so draws made while iterating interleave."""
        if exhaustive:
            return range(low, full + 1)
        return (rng.randrange(low, full + 1) for _ in range(config.sampled_checks))

    # each pivot of a small subset, one random pivot of a sampled one
    pairs = [
        (x, i)
        for x in masks(1)
        for i in (iter_bits(x) if exhaustive else (rng.choice(list(iter_bits(x))),))
    ]
    violations = sum(
        1
        for x, i in pairs
        if any(recurrence_residual_coefficients(model, x, model.letters[i]))
    )
    reports.append(
        TestReport.make(
            "pivot-deletion-identity-exact", violations, 0, "le",
            len(pairs), seed,
        )
    )

    # the recurrence against the clique walk, two independent computations;
    # subsets with more cliques than the budget are not walked
    polys = {x: mobius_polynomial(model, x) for x, _ in pairs}
    walked = [
        x for x in sorted(polys)
        if polys[x].clique_count() <= CLIQUE_WALK_LIMIT
    ]
    violations = sum(
        1
        for x in walked
        if polys[x].coefficients != tuple(
            -c if d % 2 else c for d, c in enumerate(clique_size_counts(model, x))
        )
    )
    reports.append(
        TestReport.make(
            "mobius-matches-clique-walk", violations, 0, "le", len(walked), seed,
            over_budget=len(polys) - len(walked),
        )
    )

    root = smallest_root(model)
    poly = mobius_polynomial(model)
    worst = max(
        poly.evaluate(root * j / 50) - (1.0 - root * j / 50) for j in range(51)
    )
    reports.append(
        TestReport.make("mobius-upper-bound", worst, 1e-9, "le", 51, seed)
    )

    worst = 0.0
    checked = 0
    for _ in range(config.chain_checks):
        small = rng.randrange(0, full + 1)
        big = small | rng.randrange(0, full + 1)
        if full & ~small == 0 or full & ~big == 0:
            continue
        checked += 1
        worst = max(
            worst,
            smallest_root(model, full & ~small) - smallest_root(model, full & ~big),
        )
    reports.append(
        TestReport.make(
            "root-monotone-under-removal", worst, 1e-12, "le", checked, seed,
        )
    )

    violations = 0
    checked = 0
    for x in masks(1):
        px = smallest_root(model, x)
        sub_poly = mobius_polynomial(model, x)
        for j in range(1, 20):
            q = px * j / 20
            checked += 1
            if sub_poly.evaluate(q) <= 0.0:
                violations += 1
    reports.append(
        TestReport.make(
            "positivity-below-root", violations, 0, "le", checked, seed,
        )
    )

    p = 0.5 * root
    table = MobiusTable(model, p)
    subsets = list(masks(0))
    violations = sum(
        1 for x in subsets if table.value(x) != mobius_polynomial(model, x).evaluate(p)
    )
    reports.append(
        TestReport.make("memo-coherence", violations, 0, "le", len(subsets), seed)
    )

    checks = [(frac * root, i) for frac in (0.25, 0.5, 0.75) for i in range(model.size)]
    wrong = sum(
        MobiusTable(model, q).occurrence(full, i) != exact_occurrence(model, full, i, q)
        for q, i in checks
    )
    reports.append(
        TestReport.make("occurrence-correctly-rounded", wrong, 0, "le", len(checks), seed)
    )
    return reports


# ---------------------------------------------------------------------------
# Finite sampler suite

def run_finite_suite(
    model: IndependenceModel,
    seed: int = DEFAULT_SEED,
    config: FiniteSuiteConfig = FiniteSuiteConfig(),
) -> list[TestReport]:
    """End to end statistical checks of the finite trace sampler."""
    reports = []
    full = model.full_mask
    root = smallest_root(model)
    p = 0.6 * root
    pivot = config.pivot_letter or model.letters[0]
    params = SamplerParams(p=p, seed=seed)

    samples = list(sample_many(model, params, config.n_law))
    exact = probability_table(model, full, full, p, SUPPORT_CUTOFF)
    reports.append(
        _law_report(
            "finite-law-tv", samples, exact, SUPPORT_CUTOFF,
            config.tv_threshold, seed, p=p,
        )
    )

    unit_freq = sum(1 for x in samples if x.is_unit) / len(samples)
    unit_mass = mobius_polynomial(model, full).evaluate(p)
    reports.append(
        TestReport.make(
            "unit-mass", abs(unit_freq - unit_mass),
            config.unit_mass_threshold, "le", config.n_law, seed,
            frequency=unit_freq, target=unit_mass,
        )
    )

    target_mean = expected_length(model, p)
    mean_params = SamplerParams(p=p, seed=seed + 1)
    total = 0
    for x in sample_many(model, mean_params, config.n_mean):
        total += x.length
    observed_mean = total / config.n_mean
    reports.append(
        TestReport.make(
            "mean-length", abs(observed_mean - target_mean) / target_mean,
            config.mean_relative_threshold, "le", config.n_mean, seed + 1,
            observed=observed_mean, target=target_mean,
        )
    )

    reports.extend(
        verify_decomposition_law(
            model, pivot, p, config.n_decomposition, seed + 2,
            chi_alpha=config.chi_alpha / 2,
        )
    )

    pivot_index = model.index_of(pivot)
    for label, target in (
        ("link", model.dependence[pivot_index]),
        ("single", 1 << pivot_index),
    ):
        cond_params = SamplerParams(p=p, seed=seed + 3)
        drawn = list(
            sample_many(model, cond_params, config.n_conditioned, full, target)
        )
        escapes = sum(
            1 for x in drawn if max_letters(model, x) & ~target
        )
        reports.append(
            TestReport.make(
                f"conditioned-max-inside-{label}", escapes, 0, "le",
                config.n_conditioned, seed + 3,
            )
        )
        exact_cond = probability_table(model, full, target, p, SUPPORT_CUTOFF)
        reports.append(
            _law_report(
                f"conditioned-law-tv-{label}", drawn, exact_cond,
                SUPPORT_CUTOFF, config.conditioned_tv_threshold, seed + 3,
            )
        )

    low = list(
        sample_many(model, SamplerParams(p=p, seed=seed + 4), config.n_pivot_rule)
    )
    high = list(
        sample_many(
            model,
            SamplerParams(p=p, seed=seed + 5, pivot="maxdeg"),
            config.n_pivot_rule,
        )
    )
    tv = tv_distance(
        empirical_distribution(low), empirical_distribution(high),
        SUPPORT_CUTOFF,
    )
    reports.append(
        TestReport.make(
            "pivot-rule-invariance", tv, config.pivot_tv_threshold, "le",
            config.n_pivot_rule, seed + 4,
        )
    )

    again = list(sample_many(model, params, 200))
    mismatch = sum(1 for a, b in zip(samples[:200], again) if a != b)
    other = list(sample_many(model, SamplerParams(p=p, seed=seed + 6), 200))
    identical_other = all(a == b for a, b in zip(samples[:200], other))
    reports.append(
        TestReport.make(
            "determinism", mismatch + (1 if identical_other else 0), 0, "le",
            200, seed,
        )
    )

    ratios = []
    n_letters = model.size
    counter = StepCounter()
    before = 0
    step_params = SamplerParams(p=p, seed=seed + 7)
    for x in sample_many(model, step_params, config.n_steps, counter=counter):
        ratios.append((counter.steps - before) / ((n_letters + 1) * (x.length + 1)))
        before = counter.steps
    calibration = max(ratios[: max(100, config.n_steps // 10)])
    fitted_c = 2.0 * calibration
    reports.append(
        TestReport.make(
            "step-bound-linear", max(ratios), fitted_c, "le",
            config.n_steps, seed + 7, fitted_constant=fitted_c,
        )
    )
    return reports


# ---------------------------------------------------------------------------
# Boundary suite

def run_boundary_suite(
    model: IndependenceModel,
    seed: int = DEFAULT_SEED,
    config: BoundarySuiteConfig = BoundarySuiteConfig(),
) -> list[TestReport]:
    """End to end checks of the boundary block generator."""
    reports = []
    pivot = config.pivot_letter or model.letters[0]
    stream = open_stream(model, pivot, seed)
    p_star = stream.p_star

    sub_root = smallest_root(model, stream.block_subset)
    reports.append(
        TestReport.make(
            "critical-gap", sub_root - p_star, ROOT_MARGIN, "ge", 1, seed,
            p_star=p_star, pivot_free_root=sub_root,
        )
    )

    reports.append(
        TestReport.make(
            "block-conditioning-is-link",
            0 if stream.block_target == model.dependence[stream.pivot_index] else 1,
            0, "le", 1, seed,
        )
    )

    law_stream = open_stream(model, pivot, seed + 1)
    blocks = [law_stream.next_block() for _ in range(config.n_blocks_law)]
    bad = sum(0 if is_pyramidal(model, b, pivot) else 1 for b in blocks)
    reports.append(
        TestReport.make(
            "blocks-pyramidal", bad, 0, "le", config.n_blocks_law, seed + 1,
        )
    )
    exact_blocks = pyramidal_block_table(model, pivot, p_star, SUPPORT_CUTOFF)
    reports.append(
        _law_report(
            "block-law-tv", blocks, exact_blocks, SUPPORT_CUTOFF,
            config.tv_threshold, seed + 1, p_star=p_star,
        )
    )

    pivot_index = law_stream.pivot_index
    count_bad = 0
    mono_stream = open_stream(model, pivot, seed + 2)
    mono_heap = Heap(model)
    comparisons = 0
    mono_bad = 0
    divisor_bad = 0
    prev = mono_heap.trace()
    for k in range(1, config.k_monotone + 1):
        word = mono_stream.advance()
        mono_heap.extend(word)
        now = mono_heap.trace()
        block = normalize_indices(model, word)
        rebuilt = concat(model, prev, block)
        comparisons += len(now.factors)
        if rebuilt != now:
            mono_bad += 1
        if now.letter_count(pivot_index) != k:
            count_bad += 1
        if k <= config.k_divisor_check and not is_left_divisor(model, prev, now):
            divisor_bad += 1
        prev = now
    reports.append(
        TestReport.make(
            "prefix-monotone", mono_bad + divisor_bad, 0, "le",
            comparisons, seed + 2,
            blocks=config.k_monotone, division_checks=config.k_divisor_check,
        )
    )
    reports.append(
        TestReport.make(
            "pivot-count-per-block", count_bad, 0, "le",
            config.k_monotone, seed + 2,
        )
    )

    lin_stream = open_stream(model, pivot, seed + 3)
    lengths = []
    cum_bad = 0
    n_letters = model.size
    calibrated: float | None = None
    for k in range(1, config.k_linearity + 1):
        lin_stream.advance()
        lengths.append(lin_stream.length)
        if k == max(50, config.k_linearity // 10):
            calibrated = 2.0 * lin_stream.counter.steps / (n_letters * lin_stream.length)
        if calibrated is not None:
            if lin_stream.counter.steps > calibrated * n_letters * lin_stream.length:
                cum_bad += 1
    r_squared = float(np.corrcoef(range(1, config.k_linearity + 1), lengths)[0, 1] ** 2)
    reports.append(
        TestReport.make(
            "length-linear-in-blocks", r_squared, 0.99, "ge", config.k_linearity,
            seed + 3,
        )
    )
    reports.append(
        TestReport.make(
            "step-bound-stream", cum_bad, 0, "le", config.k_linearity, seed + 3,
            fitted_constant=calibrated,
        )
    )

    sequential = open_stream(model, pivot, seed + 4).run(config.k_equivalence)
    parallel = parallel_run(
        model, pivot, seed + 4, config.k_equivalence, workers=config.workers
    )
    reports.append(
        TestReport.make(
            "parallel-equivalence", 0 if sequential == parallel else 1, 0, "le",
            config.k_equivalence, seed + 4, workers=config.workers,
        )
    )

    replay = open_stream(model, pivot, seed + 4).run(config.k_equivalence)
    other = open_stream(model, pivot, seed + 5).run(config.k_equivalence)
    reports.append(
        TestReport.make(
            "determinism",
            (0 if replay == sequential else 1) + (1 if other == sequential else 0),
            0, "le", config.k_equivalence, seed + 4,
        )
    )

    reports.append(
        verify_cylinders(
            model, pivot, seed + 6, config.x_max_len, config.cylinder_runs,
            config.cylinder_threshold,
        )
    )
    return reports


def run_suite(
    name: str,
    model: IndependenceModel,
    seed: int = DEFAULT_SEED,
    pivot_letter: str | None = None,
) -> list[TestReport]:
    """Run one named suite, or all of them, with default configurations."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}, expected one of {SUITES}")
    if pivot_letter is not None:
        model.index_of(pivot_letter)
    if name != "mobius":
        # the finite and boundary suites enumerate the whole alphabet: apply
        # the oracle's letter cap before any suite samples
        _check_guardrails(model, model.full_mask, 0)
    reports = []
    if name in ("mobius", "all"):
        reports.extend(run_mobius_suite(model, seed))
    if name in ("finite", "all"):
        reports.extend(
            run_finite_suite(model, seed, FiniteSuiteConfig(pivot_letter=pivot_letter))
        )
    if name in ("boundary", "all"):
        reports.extend(
            run_boundary_suite(model, seed, BoundarySuiteConfig(pivot_letter=pivot_letter))
        )
    return reports
