"""Brute force enumeration against the growth series, plus statistics helpers."""

import math

import pytest

import tracegen as tg
from tracegen.mobius import check_parameter
from tracegen.monoid import max_letters
from tracegen.oracle import (
    _frontiers,
    chi_square,
    enumerate_traces,
    geometric_bins,
    probability_table,
    series_coefficients,
    tv_distance,
)

from conftest import count_traces


def series_tail_bound(model, p: float, n_max: int) -> float:
    """Upper bound on the mass of traces longer than n_max.

    Uses the exact counts up to n_max + 20 and the observed maximal growth
    ratio to dominate the tail by a geometric series.  Infinite when p is
    too close to the growth radius for the bound to close.
    """
    counts = series_coefficients(model, None, n_max + 21)
    ratios = [
        counts[n + 1] / counts[n] for n in range(n_max, n_max + 20) if counts[n] > 0
    ]
    alpha = max(ratios)
    if alpha * p >= 1.0:
        return float("inf")
    return counts[n_max + 1] * p ** (n_max + 1) / (1.0 - alpha * p)


def check_series_identity(model, target, p, n_max=10):
    """Residual of the conditioned growth series identity.

    Sums p^|x| over all enumerated traces whose maximal pieces lie in
    ``target`` and compares with mu_{Sigma minus target} / mu_Sigma.  The
    residual is the truncation tail plus rounding and must stay below
    series_tail_bound for the same arguments.
    """
    full = model.full_mask
    partial = 0.0
    for n, frontier in enumerate(_frontiers(model, full, n_max)):
        weight = p**n
        for fac in frontier:
            if max_letters(model, tg.Trace(fac)) & ~target == 0:
                partial += weight
    expected = (
        tg.mobius_polynomial(model, full & ~target).evaluate(p)
        / tg.mobius_polynomial(model, full).evaluate(p)
    )
    return abs(partial - expected)


def test_counts_worked_values(path4):
    assert count_traces(path4, None, 5) == [1, 4, 13, 40, 121, 364]


def test_counts_match_series_coefficients(path4, path3, free2, comm2, star4):
    for model, n_max in [
        (path4, 8),
        (path3, 10),
        (free2, 12),
        (comm2, 12),
        (star4, 8),
    ]:
        assert count_traces(model, None, n_max) == series_coefficients(
            model, None, n_max
        )


def test_counts_on_restricted_alphabet(path4):
    bcd = path4.subset("bcd")
    assert count_traces(path4, bcd, 6) == series_coefficients(path4, bcd, 6)


def test_closed_form_counts(free2, comm2, triangle):
    # free monoid: 2^n words; commutative pair: n + 1 multisets
    assert count_traces(free2, None, 10) == [2**n for n in range(11)]
    assert count_traces(comm2, None, 10) == [n + 1 for n in range(11)]
    assert count_traces(triangle, None, 7) == [3**n for n in range(8)]


def test_enumeration_is_deduplicated(path4):
    index = enumerate_traces(path4, None, 5)
    by_length = [sum(x.length == n for x in index) for n in range(6)]
    assert by_length == count_traces(path4, None, 5) == [1, 4, 13, 40, 121, 364]
    seen = set()
    for x in index:
        assert x not in seen
        seen.add(x)
    assert len(seen) == sum(count_traces(path4, None, 5))


def test_probability_table_sums_to_partial_mass(path4):
    p = 0.2
    full = path4.full_mask
    table = probability_table(path4, full, full, p, 6)
    mu = tg.mobius_polynomial(path4, None).evaluate(p)
    for x, prob in table.items():
        assert prob == mu * p**x.length
    partial = sum(table.values())
    assert partial < 1.0
    # the missing mass is bounded by mu times the series tail bound
    tail = series_tail_bound(path4, p, 6)
    assert 1.0 - partial <= mu * tail + 1e-12


def test_series_tail_bound_dominates_true_tail(path4):
    p = 0.2
    counts = count_traces(path4, None, 10)
    mu = tg.mobius_polynomial(path4, None).evaluate(p)
    for n_max in range(3, 7):
        true_tail = sum(c * p**n * mu for n, c in enumerate(counts) if n > n_max)
        # bound is on the unweighted generating tail times mu
        bound = series_tail_bound(path4, p, n_max) * mu
        assert true_tail <= bound + 1e-15


def test_exact_probability(path4):
    x = tg.normalize(path4, "abd")
    full = path4.full_mask
    check_parameter(path4, full, 0.2)
    got = tg.mobius_polynomial(path4, full).evaluate(0.2) * 0.2**x.length
    assert got == pytest.approx(0.32 * 0.2**3)
    with pytest.raises(ValueError):
        check_parameter(path4, full, 0.5)


def test_series_identity_partial_sums(path4):
    # partial sums of p^n over traces with max inside T approach the quotient
    gap = check_series_identity(path4, path4.subset("ab"), 0.2, 8)
    assert gap < series_tail_bound(path4, 0.2, 8)
    tighter = check_series_identity(path4, path4.subset("ab"), 0.2, 10)
    assert tighter < gap


def test_enumeration_guardrails(path4):
    with pytest.raises(ValueError):
        enumerate_traces(path4, None, 13)
    big = tg.build_model("abcdefg", [])
    with pytest.raises(ValueError):
        enumerate_traces(big, None, 3)


def test_tv_distance_basic(path4):
    a = tg.normalize(path4, "a")
    b = tg.normalize(path4, "b")
    left = {a: 0.5, b: 0.5}
    right = {a: 0.4, b: 0.6}
    assert tv_distance(left, right) == pytest.approx(0.1)
    assert tv_distance(left, left) == 0.0
    with pytest.raises(ValueError):
        tv_distance({}, {})


def test_tv_distance_support_cutoff(path4):
    # mass beyond the cutoff is lumped into a single overflow bucket
    short = tg.normalize(path4, "ab")
    long = tg.normalize(path4, "ababab")
    left = {short: 0.5, long: 0.5}
    right = {short: 0.5, tg.normalize(path4, "bababa"): 0.5}
    assert tv_distance(left, right, support_cutoff=2) == 0.0
    assert tv_distance(left, right) == pytest.approx(0.5)


def test_chi_square_detects_fit_and_misfit():
    observed = [48.0, 32.0, 20.0]
    expected = [50.0, 30.0, 20.0]
    stat, p_value = chi_square(observed, expected)
    assert p_value > 0.5
    bad_stat, bad_p = chi_square([80.0, 10.0, 10.0], expected)
    assert bad_p < 1e-6
    assert bad_stat > stat


def test_geometric_bins_alignment():
    r = 0.25
    samples = [0] * 75 + [1] * 19 + [2] * 4 + [5] * 2
    observed, expected = geometric_bins(samples, r)
    assert observed == [75.0, 19.0, 6.0]  # everything past k=1 is lumped
    assert sum(expected) == pytest.approx(len(samples))
    assert expected[0] == pytest.approx(100 * 0.75)
    assert expected[-1] == pytest.approx(100 * 0.25**2)


def test_geometric_bins_tail_has_enough_mass():
    # the lumped tail must also meet the minimum expected count
    r = 0.3
    observed, expected = geometric_bins([0] * 50, r)
    assert len(expected) == 2
    assert expected[-1] == pytest.approx(50 * r)
    for r in (0.1, 0.27, 0.5, 0.8):
        _, exp = geometric_bins([0] * 400, r)
        assert all(e >= 5.0 for e in exp)


def test_geometric_bins_validates_r():
    with pytest.raises(ValueError, match="r=0.0"):
        geometric_bins([0], 0.0)
    with pytest.raises(ValueError, match="r=1.0"):
        geometric_bins([0], 1.0)
