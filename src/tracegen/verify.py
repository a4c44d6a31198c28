"""Statistical and structural verification suites.

Each check produces a TestReport: a named statistic, the threshold it was
held to, and the verdict.  The exact references, every law table among
them, come from the oracle module; the suites never compare a sampler
against itself.

The suites are one table, ``CHECKS[suite]``: a tuple of rows
``(seed offset, check)`` in report order.  A check is
``check(model, seed, config) -> list[TestReport]``, one check or a group
whose reports share draws, and it draws only from the seed it is given,
the suite seed plus its offset.  So every report is reproducible bit for
bit from its parameters, and no row reads another's draws.  One loop,
``_walk``, runs a suite's rows in order; ``run_suite`` walks each suite it
names.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from . import DEFAULT_SEED, SUITES
from .boundary import open_stream
from .mobius import (
    ROOT_MARGIN, MobiusTable, expected_length, mobius_polynomial, recurrence_residual_coefficients,
    smallest_root,
)
from .monoid import (
    Heap, IndependenceModel, Trace, clique_size_counts, concat, format_trace, is_left_divisor,
    is_pyramidal, iter_bits, left_divisors, max_letters, normalize_indices, pyramidal_decompose,
)
from .oracle import (
    _check_guardrails, chi_square, enumerate_traces, exact_occurrence, geometric_bins,
    probability_table, pyramidal_block_table, tv_distance,
)
from .sampler import RandomStream, SamplerParams, StepCounter, sample_many

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


def _failures(name: str, count: int, sample_size: int, seed: int, **details) -> TestReport:
    """A count of failed comparisons, which passes at zero."""
    return TestReport.make(name, count, 0, "le", sample_size, seed, **details)


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
    if not pair_cells:
        raise ValueError(
            f"n={n} samples: {pair_cells.total()} hold two pivots {pivot!r}, and the "
            "pair-independence test needs at least one"
        )

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
    if runs < 1:
        raise ValueError(f"runs={runs} draws no run: the cylinder law needs runs >= 1")
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

def _check_sizes(config, **least: int) -> None:
    """Raise ValueError naming the first sample size of ``config`` below the
    least its check can use."""
    for name, low in least.items():
        value = getattr(config, name)
        if value < low:
            raise ValueError(f"{name}={value} is too small: the suite needs {name} >= {low}")


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

    def __post_init__(self) -> None:
        _check_sizes(
            self, n_law=1, n_mean=1, n_decomposition=1, n_conditioned=1, n_pivot_rule=1,
            n_steps=1,
        )


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

    def __post_init__(self) -> None:
        # the length-linear check fits a line through k_linearity points
        _check_sizes(
            self, n_blocks_law=1, cylinder_runs=1, k_monotone=1, k_linearity=2, k_equivalence=1
        )


# ---------------------------------------------------------------------------
# Rows

def _mobius_structure(model, seed, config: MobiusSuiteConfig) -> list[TestReport]:
    """The polynomial layer's checks, one row: they share one mask
    generator, and their draws interleave."""
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
        1 for x, i in pairs if any(recurrence_residual_coefficients(model, x, model.letters[i]))
    )
    reports = [_failures("pivot-deletion-identity-exact", violations, len(pairs), seed)]

    # the recurrence against the clique walk, two independent computations;
    # subsets with more cliques than the budget are not walked
    polys = {x: mobius_polynomial(model, x) for x, _ in pairs}
    walked = [x for x in sorted(polys) if polys[x].clique_count() <= CLIQUE_WALK_LIMIT]
    violations = sum(
        1
        for x in walked
        if polys[x].coefficients != tuple(
            -c if d % 2 else c for d, c in enumerate(clique_size_counts(model, x))
        )
    )
    reports.append(
        _failures(
            "mobius-matches-clique-walk", violations, len(walked), seed,
            over_budget=len(polys) - len(walked),
        )
    )

    root = smallest_root(model)
    poly = mobius_polynomial(model)
    worst = max(poly.evaluate(root * j / 50) - (1.0 - root * j / 50) for j in range(51))
    reports.append(TestReport.make("mobius-upper-bound", worst, 1e-9, "le", 51, seed))

    # removing more letters cannot lower the root; big holds small, and a
    # pair whose big leaves no letter is skipped
    gaps = []
    for _ in range(config.chain_checks):
        small = rng.randrange(0, full + 1)
        big = small | rng.randrange(0, full + 1)
        if full & ~big:
            gaps.append(smallest_root(model, full & ~small) - smallest_root(model, full & ~big))
    worst = max([0.0, *gaps])
    reports.append(
        TestReport.make("root-monotone-under-removal", worst, 1e-12, "le", len(gaps), seed)
    )

    below = [(mobius_polynomial(model, x), smallest_root(model, x)) for x in masks(1)]
    violations = sum(sub.evaluate(px * j / 20) <= 0.0 for sub, px in below for j in range(1, 20))
    reports.append(_failures("positivity-below-root", violations, 19 * len(below), seed))

    p = 0.5 * root
    table = MobiusTable(model, p)
    subsets = list(masks(0))
    violations = sum(
        1 for x in subsets if table.value(x) != mobius_polynomial(model, x).evaluate(p)
    )
    reports.append(_failures("memo-coherence", violations, len(subsets), seed))

    checks = [(frac * root, i) for frac in (0.25, 0.5, 0.75) for i in range(model.size)]
    wrong = sum(
        MobiusTable(model, q).occurrence(full, i) != exact_occurrence(model, full, i, q)
        for q, i in checks
    )
    reports.append(_failures("occurrence-correctly-rounded", wrong, len(checks), seed))
    return reports


def _finite_p(model: IndependenceModel) -> float:
    return 0.6 * smallest_root(model)


def _pivot(model: IndependenceModel, config) -> str:
    return config.pivot_letter or model.letters[0]


def _finite_law(model, seed, config: FiniteSuiteConfig) -> list[TestReport]:
    p = _finite_p(model)
    full = model.full_mask
    samples = list(sample_many(model, SamplerParams(p=p, seed=seed), config.n_law))
    exact = probability_table(model, full, full, p, SUPPORT_CUTOFF)
    unit_freq = sum(1 for x in samples if x.is_unit) / len(samples)
    unit_mass = mobius_polynomial(model, full).evaluate(p)
    return [
        _law_report(
            "finite-law-tv", samples, exact, SUPPORT_CUTOFF, config.tv_threshold, seed, p=p
        ),
        TestReport.make(
            "unit-mass", abs(unit_freq - unit_mass), config.unit_mass_threshold, "le",
            config.n_law, seed, frequency=unit_freq, target=unit_mass,
        ),
    ]


def _finite_mean(model, seed, config: FiniteSuiteConfig) -> list[TestReport]:
    p = _finite_p(model)
    target = expected_length(model, p)
    drawn = sample_many(model, SamplerParams(p=p, seed=seed), config.n_mean)
    observed = sum(x.length for x in drawn) / config.n_mean
    return [
        TestReport.make(
            "mean-length", abs(observed - target) / target, config.mean_relative_threshold,
            "le", config.n_mean, seed, observed=observed, target=target,
        )
    ]


def _finite_decomposition(model, seed, config: FiniteSuiteConfig) -> list[TestReport]:
    return verify_decomposition_law(
        model, _pivot(model, config), _finite_p(model), config.n_decomposition, seed,
        chi_alpha=config.chi_alpha / 2,
    )


def _finite_conditioned(model, seed, config: FiniteSuiteConfig) -> list[TestReport]:
    """The sampler conditioned on the pivot's link, then on the pivot alone."""
    reports = []
    p = _finite_p(model)
    full = model.full_mask
    pivot_index = model.index_of(_pivot(model, config))
    for label, target in (("link", model.dependence[pivot_index]), ("single", 1 << pivot_index)):
        params = SamplerParams(p=p, seed=seed)
        drawn = list(sample_many(model, params, config.n_conditioned, full, target))
        escapes = sum(1 for x in drawn if max_letters(model, x) & ~target)
        exact = probability_table(model, full, target, p, SUPPORT_CUTOFF)
        reports += [
            _failures(f"conditioned-max-inside-{label}", escapes, config.n_conditioned, seed),
            _law_report(
                f"conditioned-law-tv-{label}", drawn, exact, SUPPORT_CUTOFF,
                config.conditioned_tv_threshold, seed,
            ),
        ]
    return reports


def _finite_pivot_rule(model, seed, config: FiniteSuiteConfig) -> list[TestReport]:
    """The lowindex pivot rule's law (seed) against the maxdeg rule's (seed + 1)."""
    p = _finite_p(model)
    n = config.n_pivot_rule
    low = list(sample_many(model, SamplerParams(p=p, seed=seed), n))
    high = list(sample_many(model, SamplerParams(p=p, seed=seed + 1, pivot="maxdeg"), n))
    tv = tv_distance(empirical_distribution(low), empirical_distribution(high), SUPPORT_CUTOFF)
    return [TestReport.make("pivot-rule-invariance", tv, config.pivot_tv_threshold, "le", n, seed)]


def _finite_determinism(model, seed, config: FiniteSuiteConfig) -> list[TestReport]:
    """The law row's first min(200, n_law) draws, the sample, repeated by
    200 draws on their own, and those 200 against 200 at seed + 6."""
    p = _finite_p(model)
    params = SamplerParams(p=p, seed=seed)
    first = list(islice(sample_many(model, params, config.n_law), 200))
    again = list(sample_many(model, params, 200))
    other = list(sample_many(model, SamplerParams(p=p, seed=seed + 6), 200))
    mismatch = sum(1 for a, b in zip(first, again) if a != b)
    return [_failures("determinism", mismatch + (1 if other == again else 0), len(first), seed)]


def _finite_steps(model, seed, config: FiniteSuiteConfig) -> list[TestReport]:
    ratios = []
    counter = StepCounter()
    before = 0
    params = SamplerParams(p=_finite_p(model), seed=seed)
    for x in sample_many(model, params, config.n_steps, counter=counter):
        ratios.append((counter.steps - before) / ((model.size + 1) * (x.length + 1)))
        before = counter.steps
    fitted_c = 2.0 * max(ratios[: max(100, config.n_steps // 10)])
    return [
        TestReport.make(
            "step-bound-linear", max(ratios), fitted_c, "le", config.n_steps, seed,
            fitted_constant=fitted_c,
        )
    ]


def _boundary_gap(model, seed, config: BoundarySuiteConfig) -> list[TestReport]:
    stream = open_stream(model, _pivot(model, config), seed)
    sub_root = smallest_root(model, stream.block_subset)
    is_link = stream.block_target == model.dependence[stream.pivot_index]
    return [
        TestReport.make(
            "critical-gap", sub_root - stream.p_star, ROOT_MARGIN, "ge", 1, seed,
            p_star=stream.p_star, pivot_free_root=sub_root,
        ),
        _failures("block-conditioning-is-link", 0 if is_link else 1, 1, seed),
    ]


def _boundary_blocks(model, seed, config: BoundarySuiteConfig) -> list[TestReport]:
    pivot = _pivot(model, config)
    stream = open_stream(model, pivot, seed)
    blocks = [normalize_indices(model, w) for w in stream.words(0, config.n_blocks_law)]
    bad = sum(0 if is_pyramidal(model, b, pivot) else 1 for b in blocks)
    exact = pyramidal_block_table(model, pivot, stream.p_star, SUPPORT_CUTOFF)
    return [
        _failures("blocks-pyramidal", bad, config.n_blocks_law, seed),
        _law_report(
            "block-law-tv", blocks, exact, SUPPORT_CUTOFF, config.tv_threshold, seed,
            p_star=stream.p_star,
        ),
    ]


def _boundary_prefixes(model, seed, config: BoundarySuiteConfig) -> list[TestReport]:
    """Each block's heap against the one before: the block's concatenation
    rebuilds it, the one before left-divides it, and it holds one more pivot."""
    stream = open_stream(model, _pivot(model, config), seed)
    heap = Heap(model)
    prev = heap.trace()
    comparisons = mono_bad = count_bad = 0
    for k, word in enumerate(stream.words(0, config.k_monotone), 1):
        heap.extend(word)
        now = heap.trace()
        comparisons += len(now.factors)
        if concat(model, prev, normalize_indices(model, word)) != now:
            mono_bad += 1
        if k <= config.k_divisor_check and not is_left_divisor(model, prev, now):
            mono_bad += 1
        if now.letter_count(stream.pivot_index) != k:
            count_bad += 1
        prev = now
    return [
        _failures(
            "prefix-monotone", mono_bad, comparisons, seed,
            blocks=config.k_monotone, division_checks=config.k_divisor_check,
        ),
        _failures("pivot-count-per-block", count_bad, config.k_monotone, seed),
    ]


def _boundary_growth(model, seed, config: BoundarySuiteConfig) -> list[TestReport]:
    """Length linear in the block count, and steps within a constant
    calibrated on the first blocks."""
    stream = open_stream(model, _pivot(model, config), seed)
    lengths = []
    length = cum_bad = 0
    calibrated: float | None = None
    for k, word in enumerate(stream.words(0, config.k_linearity), 1):
        length += len(word)
        lengths.append(length)
        if k == max(50, config.k_linearity // 10):
            calibrated = 2.0 * stream.counter.steps / (model.size * length)
        if calibrated is not None and stream.counter.steps > calibrated * model.size * length:
            cum_bad += 1
    r_squared = float(np.corrcoef(range(1, config.k_linearity + 1), lengths)[0, 1] ** 2)
    return [
        TestReport.make(
            "length-linear-in-blocks", r_squared, 0.99, "ge", config.k_linearity, seed
        ),
        _failures(
            "step-bound-stream", cum_bad, config.k_linearity, seed, fitted_constant=calibrated
        ),
    ]


def _boundary_parallel(model, seed, config: BoundarySuiteConfig) -> list[TestReport]:
    """A pool's run against a serial one, and the serial run against its
    replay and against the run at seed + 1."""
    pivot = _pivot(model, config)
    k = config.k_equivalence
    sequential = open_stream(model, pivot, seed).run(k)
    parallel = open_stream(model, pivot, seed).run(k, config.workers)
    replay = open_stream(model, pivot, seed).run(k)
    other = open_stream(model, pivot, seed + 1).run(k)
    changed = (0 if replay == sequential else 1) + (1 if other == sequential else 0)
    return [
        _failures(
            "parallel-equivalence", 0 if sequential == parallel else 1, k, seed,
            workers=config.workers,
        ),
        _failures("determinism", changed, k, seed),
    ]


def _boundary_cylinders(model, seed, config: BoundarySuiteConfig) -> list[TestReport]:
    return [
        verify_cylinders(
            model, _pivot(model, config), seed, config.x_max_len, config.cylinder_runs,
            config.cylinder_threshold,
        )
    ]


# ---------------------------------------------------------------------------
# The table, in report order: (seed offset, row) per suite

CHECKS = {
    "mobius": ((0, _mobius_structure),),
    "finite": (
        (0, _finite_law), (1, _finite_mean), (2, _finite_decomposition),
        (3, _finite_conditioned), (4, _finite_pivot_rule), (0, _finite_determinism),
        (7, _finite_steps),
    ),
    "boundary": (
        (0, _boundary_gap), (1, _boundary_blocks), (2, _boundary_prefixes),
        (3, _boundary_growth), (4, _boundary_parallel), (6, _boundary_cylinders),
    ),
}


def _walk(suite: str, model: IndependenceModel, seed: int, config) -> list[TestReport]:
    """The reports of a suite's rows in row order, each row run at the
    suite seed plus its offset."""
    return [r for offset, check in CHECKS[suite] for r in check(model, seed + offset, config)]


def run_mobius_suite(
    model: IndependenceModel,
    seed: int = DEFAULT_SEED,
    config: MobiusSuiteConfig = MobiusSuiteConfig(),
) -> list[TestReport]:
    """Structural checks of the polynomial layer on one model."""
    return _walk("mobius", model, seed, config)


def run_finite_suite(
    model: IndependenceModel,
    seed: int = DEFAULT_SEED,
    config: FiniteSuiteConfig = FiniteSuiteConfig(),
) -> list[TestReport]:
    """End to end statistical checks of the finite trace sampler."""
    return _walk("finite", model, seed, config)


def run_boundary_suite(
    model: IndependenceModel,
    seed: int = DEFAULT_SEED,
    config: BoundarySuiteConfig = BoundarySuiteConfig(),
) -> list[TestReport]:
    """End to end checks of the boundary block generator."""
    return _walk("boundary", model, seed, config)


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
    configs = {
        "mobius": MobiusSuiteConfig(),
        "finite": FiniteSuiteConfig(pivot_letter=pivot_letter),
        "boundary": BoundarySuiteConfig(pivot_letter=pivot_letter),
    }
    suites = CHECKS if name == "all" else (name,)
    return [r for suite in suites for r in _walk(suite, model, seed, configs[suite])]
