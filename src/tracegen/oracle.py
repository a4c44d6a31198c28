"""Brute force ground truth for small alphabets.

Everything here is slow and exact on purpose: exhaustive enumeration of
traces by length, series coefficients from the Mobius polynomial, and
closed form probabilities.  Every exact law table lives here: the finite
law, conditioned or not, and the boundary block law.  The samplers are
tested against these, never the other way round.  Guardrails keep calls
inside the regime where the enumeration stays fast.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .mobius import mobius_polynomial
from .monoid import IndependenceModel, Trace, concat, iter_bits, max_letters

MAX_ORACLE_LETTERS = 6
MAX_ORACLE_LENGTH = 12


def _check_guardrails(model: IndependenceModel, subset: int, n_max: int) -> None:
    letters = model.mask(subset).bit_count()
    if letters > MAX_ORACLE_LETTERS:
        raise ValueError(
            f"oracle is limited to {MAX_ORACLE_LETTERS} letters, got {letters}"
        )
    if n_max < 0 or n_max > MAX_ORACLE_LENGTH:
        raise ValueError(
            f"oracle is limited to length {MAX_ORACLE_LENGTH}, got {n_max}"
        )


def _extensions(
    model: IndependenceModel, subset: int, factors: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """All normal forms obtained by appending one letter of ``subset``."""
    dep = model.dependence
    top = len(factors)
    for i in iter_bits(subset):
        # the letter drops onto the highest factor holding a letter it
        # depends on, or to the floor
        lvl = top
        while lvl and not factors[lvl - 1] & dep[i]:
            lvl -= 1
        if lvl == top:
            yield factors + (1 << i,)
        else:
            yield factors[:lvl] + (factors[lvl] | (1 << i),) + factors[lvl + 1:]


def _frontiers(
    model: IndependenceModel, subset: int, n_max: int
) -> Iterator[set[tuple[int, ...]]]:
    """Breadth first: the normal forms of length 0, 1, ..., n_max over
    ``subset``, one set of factor tuples per length."""
    _check_guardrails(model, subset, n_max)
    frontier: set[tuple[int, ...]] = {()}
    yield frontier
    for _ in range(n_max):
        frontier = {
            ext for fac in frontier for ext in _extensions(model, subset, fac)
        }
        yield frontier


def enumerate_traces(
    model: IndependenceModel, subset: int | None = None, n_max: int = 6
) -> tuple[Trace, ...]:
    """Breadth first enumeration of all traces of length at most n_max, by
    length and sorted within each length.

    Each level is produced by extending the previous level with every
    letter and deduplicating on the normal form.
    """
    return tuple(
        Trace(f)
        for frontier in _frontiers(model, model.mask(subset), n_max)
        for f in sorted(frontier)
    )


def probability_table(
    model: IndependenceModel, subset: int, target: int, p: float, n_max: int
) -> dict[Trace, float]:
    """Exact law over ``subset`` conditioned on maximal pieces in ``target``,
    tabulated on traces of length at most n_max: mu_S(p) p^|x| /
    mu_{S minus T}(p).  With target = subset it is the unconditioned law,
    since mu of the empty set is exactly 1.0."""
    scale = (
        mobius_polynomial(model, subset).evaluate(p)
        / mobius_polynomial(model, subset & ~target).evaluate(p)
    )
    return {
        x: scale * p**x.length
        for x in enumerate_traces(model, subset, n_max)
        if max_letters(model, x) & ~target == 0
    }


def pyramidal_block_table(
    model: IndependenceModel, pivot: str, p: float, n_max: int
) -> dict[Trace, float]:
    """Exact block law of the boundary generator: each block v with apex
    ``pivot`` has probability p^|v|, tabulated up to length n_max."""
    i = model.index_of(pivot)
    apex = Trace((1 << i,))
    # the bodies: traces over the other letters with maximal pieces in the link
    rest = model.full_mask & ~(1 << i)
    bodies = probability_table(model, rest, model.dependence[i], p, n_max - 1) if n_max >= 1 else {}
    return {v: p**v.length for v in (concat(model, z, apex) for z in bodies)}


def series_coefficients(
    model: IndependenceModel, subset: int | None = None, n_max: int = 12
) -> list[int]:
    """Coefficients of the growth series 1 / mu as exact integers.

    The linear recurrence g_n = -sum_d mu_d g_{n-d} counts the traces of
    each length; no enumeration is involved, so n_max is unrestricted.
    """
    mu = mobius_polynomial(model, subset).coefficients
    out = [1]
    for n in range(1, n_max + 1):
        acc = 0
        for d in range(1, min(n, len(mu) - 1) + 1):
            acc -= mu[d] * out[n - d]
        out.append(acc)
    return out


def exact_occurrence(
    model: IndependenceModel, subset: int, pivot_index: int, p: float
) -> float:
    """The pivot's occurrence probability p mu_{S minus link} / mu_{S minus
    pivot} at the double p, in rationals, rounded once."""
    q = Fraction(p)
    num, den = (
        sum(c * q**d for d, c in enumerate(mobius_polynomial(model, mask).coefficients))
        for mask in (subset & ~model.dependence[pivot_index], subset & ~(1 << pivot_index))
    )
    return float(q * num / den)


# ---------------------------------------------------------------------------
# Statistical distances

def tv_distance(
    empirical: Mapping, exact: Mapping, support_cutoff: int | None = None
) -> float:
    """Total variation distance between two sub probability tables.

    Keys may be any hashables; with support_cutoff set, keys are traces
    and both tables are restricted to length at most the cutoff.  Mass
    missing from either table (beyond the cutoff, or simply never seen)
    is lumped into a shared overflow bucket, so the result is the exact
    distance between the two coarsened distributions.
    """
    if not empirical and not exact:
        raise ValueError("both tables are empty")

    def kept(table: Mapping) -> dict:
        if support_cutoff is None:
            return dict(table)
        return {x: q for x, q in table.items() if x.length <= support_cutoff}

    emp = kept(empirical)
    ref = kept(exact)
    total = 0.0
    for key in emp.keys() | ref.keys():
        total += abs(emp.get(key, 0.0) - ref.get(key, 0.0))
    total += abs((1.0 - sum(emp.values())) - (1.0 - sum(ref.values())))
    return 0.5 * total


def chi_square(
    observed: Sequence[float], expected: Sequence[float]
) -> tuple[float, float]:
    """Pearson statistic and p-value for aligned count vectors.

    ``expected`` must be strictly positive and sum to the same total as
    ``observed``; degrees of freedom are the number of bins minus one.
    """
    from scipy.stats import chi2

    if len(observed) != len(expected):
        raise ValueError("observed and expected must have the same length")
    if len(observed) < 2:
        raise ValueError("need at least two bins")
    if any(e <= 0 for e in expected):
        raise ValueError("expected counts must be positive")
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    return stat, float(chi2.sf(stat, len(observed) - 1))


def geometric_bins(samples: Sequence[int], r: float) -> tuple[list[float], list[float]]:
    """Bin geometric draws against the law (1 - r) r^k with a lumped tail.

    Bins are k = 0, 1, ... while the expected count stays at least 5, with
    everything larger collected into a final bin; the two returned vectors
    are aligned observed and expected counts.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie strictly between 0 and 1, got r={r!r}")
    n = len(samples)
    k_max = 0
    while n * (1.0 - r) * r ** (k_max + 1) >= 5.0:
        k_max += 1
    # the lumped tail itself must also carry enough mass
    while k_max > 0 and n * r ** (k_max + 1) < 5.0:
        k_max -= 1
    observed = [0.0] * (k_max + 2)
    for k in samples:
        observed[min(k, k_max + 1)] += 1
    expected = [n * (1.0 - r) * r**k for k in range(k_max + 1)]
    expected.append(n * r ** (k_max + 1))
    return observed, expected
