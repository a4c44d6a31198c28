"""The certified smallest root against an independent reference: a Sturm
sequence of the square-free part, found by a polynomial gcd, and a
bisection over doubles with exact signs, which needs neither connected
components nor Descartes' rule and evaluates its signs here.  Also checks
that the Descartes check rejects doubles above the root, and that the
search ends at the root from candidates far from it."""

import math
import random

import pytest

import tracegen as tg
from tracegen import mobius
from tracegen.mobius import _bits, _double, _floor_root, _no_root_below

from conftest import cycle_model, grid_model, path_model, restrict


def _sign(poly, x) -> int:
    """Exact sign of an integer polynomial at a double x = n / d: the sign
    of d^degree times its value, sum c_i n^i d^(degree - i), by Horner."""
    n, d = x.as_integer_ratio()
    value, scale = 0, 1
    for c in reversed(poly):
        value = value * n + c * scale
        scale *= d
    return (value > 0) - (value < 0)


def _primitive(poly: list[int]) -> list[int]:
    # divided by the content, a positive constant, so every sign is kept
    common = math.gcd(*poly)
    return [c // common for c in poly] if common else []


def _negated_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of -(a mod b), primitive; [] when b divides a.

    Coefficients are ascending integers.  Each elimination step scales the
    partial remainder by a positive integer, so no fraction appears.
    """
    a = a[:]
    lead = b[-1]
    while len(a) >= len(b):
        top = a[-1]
        if top:
            g = math.gcd(top, lead)
            up = abs(lead) // g
            down = top // g if lead > 0 else -top // g
            shift = len(a) - len(b)
            a = [c * up for c in a]
            for i, c in enumerate(b):
                a[shift + i] -= down * c
        a.pop()
    while a and not a[-1]:
        a.pop()
    return _primitive([-c for c in a])


def _sturm_sequence(p: list[int]) -> list[list[int]]:
    """P, P' and the negated remainders, each up to a positive factor: the
    Euclidean algorithm on P and P', whose last member is a multiple of
    gcd(P, P').
    """
    seq = [p, _primitive([d * c for d, c in enumerate(p)][1:])]
    while True:
        rem = _negated_remainder(seq[-2], seq[-1])
        if not rem:
            return seq
        seq.append(rem)


def _square_free_part(coefficients: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive integer coefficients of P / gcd(P, P'), ascending degree,
    with a positive constant term.

    Computed in exact integer arithmetic.  Dividing out repeated factors
    leaves every real root simple, so the factor changes sign at each of
    them.  Repeated factors are routine for disconnected subalphabets: the
    polynomial of a disjoint union is the product over components, and
    equal components contribute equal factors, turning the smallest root
    into an even order touch point that a sign pin cannot see.
    """
    p = list(coefficients)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    if len(p) <= 1:
        return tuple(p)
    g = _sturm_sequence(p)[-1]
    # g is primitive, so the quotient has integer coefficients (Gauss)
    q = [0] * (len(p) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k], rem = divmod(p[k + len(g) - 1], g[-1])
        if rem:
            raise ArithmeticError(f"{g!r} does not divide {coefficients!r}")
        for i, c in enumerate(g):
            p[k + i] -= q[k] * c
    q = _primitive(q)
    return tuple(q if q[0] > 0 else [-c for c in q])


def _variations(sturm, x):
    signs = [s for s in (_sign(p, x) for p in sturm) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sturm_floor_root(coefficients):
    """The largest double at or below the smallest positive root, by a
    Sturm sequence of the square-free part and a bisection over doubles
    with exact signs: the reference implementation."""
    square_free = _square_free_part(coefficients)
    sturm = _sturm_sequence(list(square_free))
    at_zero = _variations(sturm, 0.0)
    # bisect over the bit patterns of the doubles, keeping the smallest root
    # r in (lo, hi]: found counts the roots in (0, hi].  Every root exceeds
    # c0 / (c0 + max |c_i|), Cauchy's bound for the reversed polynomial, so
    # half of it is a safe start for lo.
    c0 = square_free[0]
    lo = _bits(0.5 * c0 / (c0 + max(abs(c) for c in square_free[1:])))
    hi = _bits(1.0)
    found = at_zero - _variations(sturm, 1.0)
    assert found, f"no root of {coefficients!r} in (0, 1]"
    while found > 1 and hi - lo > 1:
        mid = (lo + hi) // 2
        count = at_zero - _variations(sturm, _double(mid))
        if count:
            hi, found = mid, count
        else:
            lo = mid
    # with r the only root in (lo, hi], the factor is positive on [lo, r)
    # and negative on (r, hi]: bisect on its exact sign.  Two roots left in
    # (lo, hi] means adjacent doubles with both roots strictly between, so
    # r rounds down to lo.
    if found == 1 and _sign(square_free, _double(hi)) >= 0:
        return _double(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _sign(square_free, _double(mid)) >= 0:
            lo = mid
        else:
            hi = mid
    return _double(lo)


def wide_model(rng, n=28, chords=6):
    """An n-cycle with chords of span 2 or 3 at random positions."""
    letters = [f"x{i}" for i in range(n)]
    edges = {frozenset((i, (i + 1) % n)) for i in range(n)}
    while len(edges) < n + chords:
        i = rng.randrange(n)
        edges.add(frozenset((i, (i + rng.choice((2, 3))) % n)))
    pairs = sorted(tuple(sorted(e)) for e in edges)
    return tg.build_model(letters, [(letters[i], letters[j]) for i, j in pairs])


def _corpus():
    yield from (path_model(n) for n in range(1, 65))
    yield from (cycle_model(n) for n in range(1, 65))
    rng = random.Random(28)
    yield from (wide_model(rng) for _ in range(12))
    yield from (grid_model(n, n) for n in range(3, 7))
    letters = [f"x{i}" for i in range(10)]
    yield tg.build_model(letters, [(letters[0], b) for b in letters[1:]])
    yield tg.build_model(letters, [(a, b) for i, a in enumerate(letters) for b in letters[i + 1:]])
    yield tg.build_model(letters, [])
    # the repeated components of test_repeated_factor_roots
    yield tg.build_model("abcd", [("a", "b"), ("c", "d")])
    yield tg.build_model("abcde", [("a", "b"), ("c", "d")])
    yield tg.build_model("abcdef", [("a", "b"), ("c", "d"), ("e", "f")])
    # a path split in its middle: path31 + path31 has a double root, and
    # path31 + path32 two components with different roots
    for n in (63, 64):
        path = path_model(n)
        yield restrict(path, path.full_mask & ~path.subset(["x31"]))


def test_root_matches_sturm_bisection_bit_for_bit():
    # every model of the corpus at its full alphabet, every full - a and
    # every full - link(a); the root is a function of the polynomial, so
    # each distinct polynomial is checked once, at the first subset giving it
    first = {}
    for model in _corpus():
        full = model.full_mask
        subsets = {full}
        for i in range(model.size):
            subsets.update((full & ~(1 << i), full & ~model.dependence[i]))
        subsets.discard(0)
        for subset in sorted(subsets):
            coefficients = tg.mobius_polynomial(model, subset).coefficients
            first.setdefault(coefficients, (model, subset))
    assert len(first) > 1800
    for coefficients, (model, subset) in first.items():
        expected = sturm_floor_root(coefficients)
        got = tg.smallest_root(model, subset)
        assert got.hex() == expected.hex(), (model.letters, subset, coefficients)


@pytest.mark.parametrize("model", [
    grid_model(5, 5),
    path_model(48),
    wide_model(random.Random(28)),
], ids=["grid5x5", "path48", "wide28"])
def test_root_of_random_subsets_matches_sturm_bisection(model):
    # random subsets split into components of every size, equal ones too
    rng = random.Random(model.size)
    for _ in range(200):
        subset = rng.getrandbits(model.size) or 1
        coefficients = tg.mobius_polynomial(model, subset).coefficients
        expected = sturm_floor_root(coefficients)
        got = tg.smallest_root(model, subset)
        assert got.hex() == expected.hex(), (model.letters, subset, coefficients)


# a double above the smallest root, from each side of the root's order:
# path4's 1/3 is simple, cycle8's is simple with three larger roots, and
# comm2's 1 is a double root
@pytest.mark.parametrize("model, above", [
    (tg.build_model("abcd", [("a", "b"), ("b", "c"), ("c", "d")]), 0.5),
    (cycle_model(8), 0.8),
    (tg.build_model("ab", []), math.nextafter(1.0, 2.0)),
])
def test_descartes_check_rejects_a_double_above_the_root(model, above):
    coefficients = tg.mobius_polynomial(model).coefficients
    root = tg.smallest_root(model)
    assert _no_root_below(coefficients, root)
    assert not _no_root_below(coefficients, math.nextafter(root, 2.0))
    assert not _no_root_below(coefficients, above)


_newton = mobius._newton


# candidates in place of Newton's: cycle8's Mobius polynomial changes sign
# downwards at 1/(2 + 2 cos(pi/8)) and again at 1/(2 + 2 cos(5 pi/8)),
# about 0.8097, a larger root where the check fails; Newton's own candidate
# on path64 moved 2^20 doubles either way; and the two ends of (0, 1]
@pytest.mark.parametrize("model, candidate", [
    (cycle_model(8), lambda poly: 1 / (2 + 2 * math.cos(5 * math.pi / 8))),
    (path_model(64), lambda poly: _double(_bits(_newton(poly)) + 2 ** 20)),
    (path_model(64), lambda poly: _double(_bits(_newton(poly)) - 2 ** 20)),
    (path_model(64), lambda poly: 0.0),
    (path_model(64), lambda poly: 1.0),
], ids=["cycle8-larger-root", "path64-up-2pow20", "path64-down-2pow20", "path64-zero", "path64-one"])
def test_search_from_a_candidate_pinned_near_a_larger_root(monkeypatch, model, candidate):
    # the search must end at the smallest root from any candidate, through
    # smallest_root too
    coefficients = tg.mobius_polynomial(model).coefficients
    expected = sturm_floor_root(coefficients)
    monkeypatch.setattr(mobius, "_newton", candidate)
    assert _floor_root(coefficients) == expected
    mobius._smallest_root_cached.cache_clear()
    try:
        assert tg.smallest_root(model) == expected
    finally:
        mobius._smallest_root_cached.cache_clear()


def test_search_splits_two_roots_between_adjacent_doubles():
    # (1 - 3x)(2^60 + 1 - 3 2^60 x) has its roots 1/3 and 1/3 + 2^-60 / 3
    # between the same two doubles: no double separates them, and mu is
    # positive at both, but the check fails at the upper double, where
    # both roots lie below it, and passes at the lower one
    big = 1 << 60
    coefficients = (big + 1, -3 * big - 3 * (big + 1), 9 * big)
    assert _square_free_part(coefficients) == coefficients
    below = 1 / 3
    assert _sign(coefficients, below) > 0
    assert _sign(coefficients, math.nextafter(below, 1.0)) > 0
    assert _floor_root(coefficients) == below
    assert sturm_floor_root(coefficients) == below
