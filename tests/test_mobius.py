"""Mobius polynomials, root location, and the occurrence probabilities."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import tracegen as tg
from tracegen.mobius import ROOT_MARGIN, _components, check_parameter
from tracegen.monoid import clique_size_counts, iter_bits
from tracegen.oracle import exact_occurrence, series_coefficients

from conftest import cycle_model, path_model, random_model, restrict


def test_polynomial_coefficients(path4, path3, free2, comm2, triangle, star4):
    assert tg.mobius_polynomial(path4).coefficients == (1, -4, 3)
    assert tg.mobius_polynomial(path3).coefficients == (1, -3, 1)
    assert tg.mobius_polynomial(free2).coefficients == (1, -2)
    assert tg.mobius_polynomial(comm2).coefficients == (1, -2, 1)
    assert tg.mobius_polynomial(triangle).coefficients == (1, -3)
    assert tg.mobius_polynomial(star4).coefficients == (1, -4, 3, -1)


def test_subset_polynomials(path4):
    bcd = path4.subset("bcd")
    assert tg.mobius_polynomial(path4, bcd).coefficients == (1, -3, 1)
    cd = path4.subset("cd")
    assert tg.mobius_polynomial(path4, cd).coefficients == (1, -2)
    assert tg.mobius_polynomial(path4, 0).coefficients == (1,)


def test_smallest_roots(path4, path3, free2, comm2, triangle):
    assert abs(tg.smallest_root(path4) - 1 / 3) < 1e-9
    assert abs(tg.smallest_root(free2) - 0.5) < 1e-12
    assert abs(tg.smallest_root(triangle) - 1 / 3) < 1e-12
    golden = (3 - math.sqrt(5)) / 2
    assert abs(tg.smallest_root(path3) - golden) < 1e-9
    assert abs(tg.smallest_root(path4, path4.subset("bcd")) - golden) < 1e-9
    # tangential cases: the polynomial touches zero exactly at 1
    assert tg.smallest_root(comm2) == 1.0
    single = tg.build_model("a", [])
    assert tg.smallest_root(single) == 1.0
    assert tg.smallest_root(path4, path4.subset("a")) == 1.0


def _times(a, b):
    """The product of two polynomials, as ascending coefficient tuples."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_repeated_factor_roots():
    # disjoint equal components square the polynomial: the smallest root
    # is an even order touch point with no sign change, which a naive
    # scan walks straight past
    two_chains = tg.build_model("abcd", [("a", "b"), ("c", "d")])
    assert tg.mobius_polynomial(two_chains).coefficients == (1, -4, 4)
    assert tg.smallest_root(two_chains) == 0.5
    with_spare = tg.build_model("abcde", [("a", "b"), ("c", "d")])
    assert tg.mobius_polynomial(with_spare).coefficients == (1, -5, 8, -4)
    assert tg.smallest_root(with_spare) == 0.5
    three_chains = tg.build_model("abcdef", [("a", "b"), ("c", "d"), ("e", "f")])
    assert tg.smallest_root(three_chains) == 0.5
    # path31 + path31, path63 without its middle letter: mu is the square
    # of path31's, and the root is path31's
    path63 = path_model(63)
    halves = path63.full_mask & ~path63.subset(["x31"])
    path31 = tg.mobius_polynomial(path_model(31)).coefficients
    assert tg.mobius_polynomial(path63, halves).coefficients == _times(path31, path31)
    assert tg.smallest_root(path63, halves) == tg.smallest_root(path_model(31))


def _assert_certified(model):
    # mu is the product of its components' polynomials, the root is the
    # smallest of their roots, and it is that component's true root rounded
    # down: the exact sign of its polynomial is nonnegative at the root and
    # negative one float step above
    root = tg.smallest_root(model)
    product = (1,)
    by_root = {}
    for component in _components(model.dependence, model.full_mask):
        coefficients = tg.mobius_polynomial(model, component).coefficients
        product = _times(product, coefficients)
        by_root[tg.smallest_root(model, component)] = coefficients
    assert product == tg.mobius_polynomial(model).coefficients
    assert min(by_root) == root
    own = by_root[root]

    def sign(x):
        value = sum(c * Fraction(x) ** d for d, c in enumerate(own))
        return (value > 0) - (value < 0)

    assert sign(root) >= 0
    assert sign(math.nextafter(root, math.inf)) < 0


def test_root_rounds_down_to_a_double(path4):
    # 1/3 is not a double; the largest double below it is 0x1.5555555555555p-2
    assert tg.smallest_root(path4).hex() == "0x1.5555555555555p-2"
    assert tg.smallest_root(path4) == 1 / 3


@pytest.mark.parametrize("n", [4, 8, 12, 16, 20, 24])
@pytest.mark.parametrize("shape", [path_model, cycle_model])
def test_root_certified_on_paths_and_cycles(shape, n):
    _assert_certified(shape(n))


def test_root_certified_on_small_models(path3, free2, comm2, triangle, star4):
    for model in (path3, free2, comm2, triangle, star4):
        _assert_certified(model)
    _assert_certified(tg.build_model("abcde", [("a", "b"), ("c", "d")]))


@given(st.integers(0, 2**32 - 1))
def test_root_certified_on_random_models(seed):
    rng = random.Random(seed)
    _assert_certified(random_model(rng, rng.randint(1, 8)))


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


@pytest.mark.parametrize("n", range(3, 25))
def test_path_roots_match_closed_form(n):
    # p_sigma of the n letter path is 1 / (4 cos^2(pi / (n + 2))), taken
    # here to 50 digits with cos from its Taylor series; n = 1 and 2 give
    # the doubles 1 and 1/2, which test_smallest_roots checks exactly
    root = tg.smallest_root(path_model(n))
    with localcontext() as ctx:
        ctx.prec = 50
        x = _PI / (n + 2)
        term = cos = Decimal(1)
        k = 0
        while abs(term) > Decimal(10) ** -55:
            k += 2
            term *= -x * x / (k * (k - 1))
            cos += term
        closed = 1 / (4 * cos * cos)
        assert Decimal(root) <= closed
        assert closed - Decimal(root) < 2 * Decimal(math.ulp(root))


def test_empty_subset_rejected(path4):
    with pytest.raises(ValueError):
        tg.smallest_root(path4, 0)


def test_deletion_identity_worked_example(path4):
    # removing d: mu = (1 - 3X + X^2) - X (1 - 2X) componentwise
    res = tg.recurrence_residual_coefficients(path4, path4.full_mask, "d")
    assert res == (0, 0, 0)


def test_deletion_identity_on_random_models():
    rng = random.Random(7)
    for _ in range(150):
        model = random_model(rng, rng.randint(2, 8))
        pivot = model.letters[rng.randrange(model.size)]
        res = tg.recurrence_residual_coefficients(model, model.full_mask, pivot)
        assert all(c == 0 for c in res)


@given(st.integers(0, 2**32 - 1))
def test_polynomial_matches_clique_walk(seed):
    # the memoised recurrence against the signed sizes of the walked cliques
    rng = random.Random(seed)
    model = random_model(rng, rng.randint(1, 8))
    subset = rng.randrange(model.full_mask + 1)
    counts = clique_size_counts(model, subset)
    signed = tuple(-c if d % 2 else c for d, c in enumerate(counts))
    assert tg.mobius_polynomial(model, subset).coefficients == signed


def test_path_clique_counts_are_fibonacci():
    # a path of n letters has F(n + 2) independent sets, the empty one included
    fib = [0, 1]
    while len(fib) < 67:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 65):
        assert tg.mobius_polynomial(path_model(n)).clique_count() == fib[n + 2]


@given(st.integers(0, 2**32 - 1))
def test_root_bounded_by_mu_inequality(seed):
    # mu(p) <= 1 - p on [0, p_sigma], hence p_sigma >= where mu hits zero
    rng = random.Random(seed)
    model = random_model(rng, rng.randint(2, 7))
    p = tg.smallest_root(model)
    assert 0.0 < p <= 1.0
    for j in range(1, 20):
        q = p * j / 20
        assert tg.mobius_polynomial(model, None).evaluate(q) <= 1.0 - q + 1e-12


@given(st.integers(0, 2**32 - 1))
def test_root_monotone_under_letter_removal(seed):
    rng = random.Random(seed)
    model = random_model(rng, rng.randint(2, 7))
    full = model.full_mask
    p_full = tg.smallest_root(model)
    for i in range(model.size):
        sub = full & ~(1 << i)
        if sub:
            assert tg.smallest_root(model, sub) >= p_full - 1e-12


def test_occurrence_forms_and_value(path4):
    table = tg.MobiusTable(path4, 0.2)
    r = table.occurrence(path4.full_mask, path4.index_of("a"))
    assert abs(r - 3 / 11) < 1e-12
    check_parameter(path4, path4.full_mask, 0.2)
    direct = tg.MobiusTable(path4, 0.2).occurrence(path4.full_mask, path4.index_of("a"))
    assert abs(direct - 3 / 11) < 1e-12
    # direct check of the quotient form 1 - mu_S / mu_{S minus a}
    mu_full = tg.mobius_polynomial(path4, None).evaluate(0.2)
    mu_bcd = tg.mobius_polynomial(path4, path4.subset("bcd")).evaluate(0.2)
    assert abs(mu_full - 0.32) < 1e-12
    assert abs(mu_bcd - 0.44) < 1e-12
    assert abs(r - (1 - mu_full / mu_bcd)) < 1e-12


@pytest.mark.parametrize("p", [1e-7, 1e-9, 1e-12])
def test_occurrence_at_tiny_p(path4, p):
    def mu(letters):
        coefficients = tg.mobius_polynomial(path4, path4.subset(letters)).coefficients
        return sum(c * Fraction(p) ** d for d, c in enumerate(coefficients))

    check_parameter(path4, path4.full_mask, p)
    r = tg.MobiusTable(path4, p).occurrence(path4.full_mask, path4.index_of("a"))
    assert r == float(1 - mu("abcd") / mu("bcd"))


def test_occurrence_refuses_a_pivot_outside_the_subset(path4):
    with pytest.raises(ValueError, match="pivot index 0 is not in the subset 0b1110"):
        tg.MobiusTable(path4, 0.2).occurrence(0b1110, 0)


def test_expected_length_validates_range(path4):
    full = path4.full_mask
    for bad in (0.5, 1 / 3, 0.0, -0.1):
        with pytest.raises(ValueError):
            tg.expected_length(path4, bad, full)


def test_expected_length_refuses_p_inside_the_root_margin(path4):
    # the same range check as the sampler's: below the root, but not by the margin
    with pytest.raises(ValueError) as exc:
        tg.expected_length(path4, tg.smallest_root(path4) - ROOT_MARGIN / 2)
    assert f"ROOT_MARGIN={ROOT_MARGIN!r}" in str(exc.value)


@given(st.integers(0, 2**32 - 1))
def test_occurrence_lies_in_unit_interval(seed):
    rng = random.Random(seed)
    model = random_model(rng, rng.randint(2, 6))
    p = tg.smallest_root(model)
    q = rng.uniform(0.05, 0.95) * min(p, 1.0 - 1e-6)
    if q <= 0:
        return
    table = tg.MobiusTable(model, q)
    for i in range(model.size):
        r = table.occurrence(model.full_mask, i)
        assert 0.0 < r < 1.0


def test_expected_length_worked_value(path4):
    assert abs(tg.expected_length(path4, 0.25) - 10 / 3) < 1e-12
    with pytest.raises(ValueError):
        tg.expected_length(path4, 1 / 3)


def test_expected_length_matches_series(path4):
    # compare against the exact length distribution truncated far out
    p = 0.2
    coeffs = series_coefficients(path4, None, 60)
    mu = tg.mobius_polynomial(path4, None).evaluate(p)
    mean = sum(n * c * p**n * mu for n, c in enumerate(coeffs))
    assert abs(tg.expected_length(path4, p) - mean) < 1e-9


def test_mobius_table_memo_coherence(path4):
    table = tg.MobiusTable(path4, 0.2)
    for subset in range(path4.full_mask + 1):
        assert table.value(subset) == tg.mobius_polynomial(path4, subset).evaluate(0.2)


@pytest.mark.parametrize("name", ["p4", "cycle5", "star4"])
def test_table_values_are_exact_coefficient_sums(name, path4, star4):
    # the table's recurrence on (W, k|S|) pairs against the coefficients
    # summed in rationals; k = 3 at 2**-3 and k = 0 at 1.0 test its shifts
    model = {"p4": path4, "cycle5": cycle_model(5), "star4": star4}[name]
    for p in (0.2, 2**-3, 0.5 * tg.smallest_root(model), 1.0):
        table = tg.MobiusTable(model, p)
        q = Fraction(p)
        # largest subset first, so the recurrence starts from a cold memo
        for x in range(model.full_mask, -1, -1):
            coefficients = tg.mobius_polynomial(model, x).coefficients
            exact = sum(c * q**d for d, c in enumerate(coefficients))
            assert table.value(x) == float(exact)
            if p < 1.0:
                for i in iter_bits(x):
                    assert table.occurrence(x, i) == exact_occurrence(model, x, i, p)


def test_irreducibility(path4, comm2, free2):
    assert tg.is_irreducible(path4)
    assert tg.is_irreducible(free2)
    assert not tg.is_irreducible(comm2)
    assert not tg.is_irreducible(restrict(path4, "abd"))
    assert tg.is_irreducible(tg.build_model("a", []))


def test_root_margin_is_small():
    assert 0 < ROOT_MARGIN <= 1e-9
