"""Mobius polynomials of independence alphabets and derived quantities.

The Mobius polynomial of a subalphabet S is the clique polynomial with
alternating signs: the coefficient of degree d is (-1)^d times the number
of d element cliques of pairwise independent letters in S.  Its reciprocal
is the generating series of the trace monoid over S, so the smallest
positive root governs the growth rate and is the largest usable parameter
for the multiplicative probability laws on traces.

The coefficients come from the pivot deletion identity
mu_S = mu_{S minus a} - X mu_{S minus link(a)}, with a the lowest letter
of S and mu of the empty alphabet equal to 1: a clique of S either avoids
a or is a plus a clique of the letters independent of a.  One recursion
runs it on a memo keyed by subset mask, so no clique is ever listed: a
path of n letters reaches n + 1 subsets where it has Fibonacci many
cliques.  It runs on coefficient tuples, memoised for one call only.

The smallest root p_sigma is found in exact integer arithmetic by one
check and one search.  The check is Descartes' rule of signs, as used for
real root isolation by Collins and Akritas (SYMSAC 1976): when the Taylor
shift (1 + t)^d mu(x / (1 + t)), formed by integer additions, has no sign
variation, no root lies in (0, x).  On a clique polynomial the check is
monotone in x.  It passes for every x <= p_sigma: p_sigma is the unique
root of smallest modulus (Goldwurm and Santini, IPL 75, 2000), so no root
lies in the open disk on the diameter from 0 to x, and by the one-circle
theorem the shift then has no sign variation.  It fails for every
x > p_sigma, as p_sigma then lies in (0, x).  So the largest double at
which the check passes is p_sigma rounded down, the root itself whenever
the root is a double.  The search finds it by a gallop over doubles from
a candidate, then a bisection, both on the check.  The check passes at 0
and fails at the double above 1, so the search always ends, and no sign
of mu is evaluated on the way.  The result is never above the true root
and does not depend on numpy or the platform.

The candidate only sets where the search starts.  It is Newton's iterates
from 0, each step formed exactly and rounded once; at a simple root they
stop within a double of it, and the search takes two checks.  mu of a
disjoint union is the product of its components' mu, so p_sigma is the
smallest of their roots, and each of those is simple (Krob, Mairesse and
Michos, Discrete Math. 2003).  The product has a multiple root where
components share one, and there Newton's iterates crawl and stop far
below it.  So the search runs once per connected component of the
subalphabet.

Everything here is deterministic.  A double p is a dyadic rational, so a
polynomial value at p is computed exactly in integers and rounded once;
near p_sigma, where the value is tiny next to the clique counts, float
Horner evaluation would lose most digits.  A MobiusTable runs the same
recursion on these exact values, never on coefficients, so each sampler's
geometric parameters are exact to one rounding too.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

from .monoid import IndependenceModel


class NotIrreducibleError(ValueError):
    """The dependence graph of the alphabet is not connected."""


@dataclass(frozen=True)
class MobiusPolynomial:
    """Integer coefficients by increasing degree; degree 0 is always 1."""

    coefficients: tuple[int, ...]

    def evaluate(self, p: float) -> float:
        """Value at the double p, computed exactly and rounded once."""
        value, _, k = _horner(self.coefficients, float(p))
        return _rounded((value, k * (len(self.coefficients) - 1)))

    def clique_count(self) -> int:
        return sum(abs(c) for c in self.coefficients)


def _recur(memo: dict, dep: tuple[int, ...], subset: int, step):
    """mu of a subset by the deletion identity on its lowest letter a:
    ``step(mu_{S minus a}, mu_{S minus link(a)})``, each subset's result
    kept in ``memo``, which holds the empty subset's."""
    try:
        return memo[subset]
    except KeyError:
        pass
    low = subset & -subset
    memo[subset] = value = step(
        _recur(memo, dep, subset ^ low, step),
        _recur(memo, dep, subset & ~dep[low.bit_length() - 1], step),
    )
    return value


def _coefficient_step(without: tuple[int, ...], nolink: tuple[int, ...]) -> tuple[int, ...]:
    # S minus link(a) lies inside S minus a, so nolink is never longer, and
    # equal degree terms share a sign: no leading coefficient cancels
    out = list(without)
    if len(nolink) == len(out):
        out.append(0)
    for d, c in enumerate(nolink, 1):
        out[d] -= c
    return tuple(out)


def mobius_polynomial(model: IndependenceModel, subset: int | None = None) -> MobiusPolynomial:
    """Clique polynomial of a subalphabet with alternating signs, by the
    pivot deletion recurrence on the lowest letter."""
    return MobiusPolynomial(
        _recur({0: (1,)}, model.dependence, model.mask(subset), _coefficient_step)
    )


def recurrence_residual_coefficients(
    model: IndependenceModel, subset: int, pivot: str
) -> tuple[int, ...]:
    """Exact coefficient residual of the pivot deletion identity.

    For a in X the identity says mu_X equals mu_{X minus a} minus
    X times mu_{X minus the dependence neighbourhood of a}.  The returned
    tuple is the coefficient wise difference and must be all zeros.
    """
    i = model.index_of(pivot)
    bit = 1 << i
    if not subset & bit:
        raise ValueError(f"pivot {pivot!r} is not in the subset")
    left = mobius_polynomial(model, subset).coefficients
    without = mobius_polynomial(model, subset & ~bit).coefficients
    nolink = mobius_polynomial(model, subset & ~model.dependence[i]).coefficients
    size = max(len(left), len(without), len(nolink) + 1)
    out = [0] * size
    for d, c in enumerate(left):
        out[d] += c
    for d, c in enumerate(without):
        out[d] -= c
    for d, c in enumerate(nolink):
        out[d + 1] += c
    return tuple(out)


def _horner(coefficients, x: float) -> tuple[int, int, int]:
    """An integer polynomial P of degree d and its derivative at a double
    x = n / 2^k, as exact integers: P(x) 2^(k d), P'(x) 2^(k (d - 1)) and k.

    2^(k d) P(x) is the integer sum of c_i n^i 2^(k (d - i)), by homogeneous
    Horner, and the derivative's pass runs alongside it.
    """
    n, den = x.as_integer_ratio()
    k = den.bit_length() - 1
    value = slope = shift = 0
    for c in reversed(coefficients):
        slope = slope * n + value
        value = value * n + (c << shift)
        shift += k
    return value, slope, k


def _rounded(pair: tuple[int, int]) -> float:
    # int / int true division rounds correctly
    acc, shift = pair
    return acc / (1 << shift)


def _bits(x: float) -> int:
    # positive doubles are ordered as their bit patterns
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


# the double just above 1: every smallest root lies in (0, 1]
_ONE_UP = _bits(1.0) + 1
# Newton's iterates reach an isolated simple root in a few steps; the cap
# bounds their slow crawl where many roots cluster just above it
_NEWTON_STEPS = 64


def _newton(coefficients) -> float:
    """Newton's iterates for the smallest root, from 0 and while they rise.

    At x = n / 2^k, ``_horner`` gives P(x) 2^(k d) and P'(x) 2^(k (d - 1))
    as exact integers, so each step x - P(x) / P'(x) is one int / int
    division, rounded once.  The result is only a candidate, where
    ``_floor_root`` starts its search.
    """
    x = 0.0
    for _ in range(_NEWTON_STEPS):
        value, slope, k = _horner(coefficients, x)
        if not slope:
            break
        step = (x.as_integer_ratio()[0] * slope - value) / (slope << k)
        if not x < step <= 1.0:
            break
        x = step
    return x


def _no_root_below(coefficients, x) -> bool:
    """Whether Descartes' rule of signs proves that P, with P(0) > 0, has
    no root in (0, x), for a double x: the one root check.

    With x = n / 2^k and d the degree, t -> x / (1 + t) maps the positive
    axis onto (0, x), and 2^(k d) (1 + t)^d P(x / (1 + t)) is R(1 + t) for
    R(s) = sum_i c_i n^i 2^(k (d - i)) s^(d - i): a Taylor shift of an
    integer polynomial, which takes additions only.  Its leading
    coefficient is c_0 2^(k d) > 0, so zero sign variations means no
    negative coefficient; then it has no positive root, and P(x) >= 0.
    On a clique polynomial it passes exactly at the x up to the smallest
    root, as the module docstring shows.
    """
    n, den = x.as_integer_ratio()
    k = den.bit_length() - 1
    d = len(coefficients) - 1
    shifted = []
    power = 1
    for i, c in enumerate(coefficients):
        shifted.append((c * power) << (k * (d - i)))
        power *= n
    # by decreasing degree, so each pass adds every coefficient into the
    # next lower one
    for top in range(d, 0, -1):
        for j in range(1, top + 1):
            shifted[j] += shifted[j - 1]
    return min(shifted) >= 0


def _components(dependence: tuple[int, ...], subset: int):
    """The connected components of the dependence graph on a subset, as
    masks, the component of its lowest letter first."""
    while subset:
        component = frontier = subset & -subset
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = dependence[low.bit_length() - 1] & subset & ~component
            component |= new
            frontier |= new
        yield component
        subset ^= component


def _floor_root(coefficients) -> float:
    """The largest double at which ``_no_root_below`` passes: the smallest
    root of a clique polynomial, rounded down to a double.

    lo and hi are bit patterns of doubles where the check passes and
    fails, at first 0 and the double above 1.  Probes gallop from Newton's
    candidate, steps doubling, until the check turns; a bisection then
    closes the gap to adjacent doubles.
    """
    lo, hi = 0, _ONE_UP
    probe, step = _bits(_newton(coefficients)), 1
    while lo < probe < hi:
        # after the check turns, the probe lands outside (lo, hi)
        if _no_root_below(coefficients, _double(probe)):
            lo, probe = probe, probe + step
        else:
            hi, probe = probe, probe - step
        step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _no_root_below(coefficients, _double(mid)):
            lo = mid
        else:
            hi = mid
    return _double(lo)


@lru_cache(maxsize=8192)
def _smallest_root_cached(model: IndependenceModel, subset: int) -> float:
    # one search per component: its smallest root is simple, so Newton's
    # candidate starts the search next to it
    return min(
        _floor_root(mobius_polynomial(model, component).coefficients)
        for component in _components(model.dependence, subset)
    )


def smallest_root(model: IndependenceModel, subset: int | None = None) -> float:
    """Smallest positive root of the Mobius polynomial of a subalphabet,
    rounded down to a double.

    The root r is real, lies in (0, 1] and is the unique root of smallest
    modulus (Goldwurm and Santini).  The result is the largest double
    x <= r, r itself whenever r is a double.  It is the largest double at
    which Descartes' rule, in exact integer arithmetic, proves that no root
    lies in (0, x), found by one search on each connected component, as the
    module docstring sets out; the search cannot fail.  No floating point
    arithmetic decides anything, so the result does not depend on the
    platform or on the numpy version, and ``check_parameter``'s range
    admits only parameters below the true root.
    """
    mask = model.mask(subset)
    if mask == 0:
        raise ValueError("the empty alphabet has no Mobius root")
    return _smallest_root_cached(model, mask)


def is_irreducible(model: IndependenceModel) -> bool:
    """Whether the dependence graph (self loops ignored) is connected."""
    if model.size == 0:
        raise ValueError("empty alphabet")
    return next(_components(model.dependence, model.full_mask)) == model.full_mask


class MobiusTable:
    """Exact Mobius values of one model at one fixed parameter.

    At p = n / 2^k each subset S keeps the integer pair (W_S, k|S|) with
    mu_S(p) = W_S / 2^(k|S|), so ``value`` and ``occurrence`` round once.
    The deletion identity on the lowest letter a of S, with T = S minus
    link(a), reads W_S = W_{S minus a} 2^k - n W_T 2^(k (|S| - 1 - |T|)).
    Each table has a single owner; parallel runs build one per worker.
    """

    def __init__(self, model: IndependenceModel, p: float):
        self.model = model
        self.p = float(p)
        self._pairs: dict[int, tuple[int, int]] = {0: (1, 0)}
        n, d = self.p.as_integer_ratio()
        k = d.bit_length() - 1

        def step(without: tuple[int, int], nolink: tuple[int, int]) -> tuple[int, int]:
            w, s = without
            v, t = nolink
            return (w << k) - (n * v << (s - t)), s + k

        self._step = step

    def _pair(self, subset: int) -> tuple[int, int]:
        return _recur(self._pairs, self.model.dependence, subset, self._step)

    def value(self, subset: int) -> float:
        return _rounded(self._pair(subset))

    def occurrence(self, subset: int, pivot_index: int) -> float:
        """Probability r = p mu_{S minus link} / mu_{S minus pivot} that a
        trace over ``subset`` contains the pivot, formed in integers at the
        double p and rounded once by an int / int division.  Not memoised:
        the sampler compiles each state's value into its node.
        """
        bit = 1 << pivot_index
        if not subset & bit:
            raise ValueError(f"pivot index {pivot_index} is not in the subset {subset:#b}")
        n, d = self.p.as_integer_ratio()
        num, num_shift = self._pair(subset & ~self.model.dependence[pivot_index])
        den, den_shift = self._pair(subset & ~bit)
        return (n * num << den_shift) / (d * den << num_shift)


ROOT_MARGIN = 1e-9


def check_parameter(model: IndependenceModel, subset: int, p: float) -> None:
    """Raise ValueError unless 0 < p <= smallest_root(subset) - ROOT_MARGIN,
    the one range check on a law parameter: below the root the law exists,
    and the margin keeps the sampler's geometric parameters away from 1.
    Every ``Sampler`` runs it on its root state; for a ``BlockStream`` it is
    the gap check, as the pivot-free subalphabet's root must clear p_sigma.
    """
    root = smallest_root(model, subset)
    if not 0.0 < p <= root - ROOT_MARGIN:
        raise ValueError(
            f"p={p!r} is out of range: need 0 < p <= root - ROOT_MARGIN, where "
            f"root={root!r} is the smallest Mobius root of the subalphabet and "
            f"ROOT_MARGIN={ROOT_MARGIN!r}"
        )


def expected_length(model: IndependenceModel, p: float, subset: int | None = None) -> float:
    """Mean trace length -p mu'(p) / mu(p) under the multiplicative law at
    parameter p, mu' and mu each computed exactly and rounded once."""
    mask = model.mask(subset)
    check_parameter(model, mask, p)
    coefficients = mobius_polynomial(model, mask).coefficients
    value, slope, k = _horner(coefficients, float(p))
    d = len(coefficients) - 1
    return -p * _rounded((slope, k * (d - 1))) / _rounded((value, k * d))
