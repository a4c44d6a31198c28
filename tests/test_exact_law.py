"""The compiled sampler's output law, computed exactly in rationals from its
node table and compared with the target law, with no random draws."""

from fractions import Fraction

import pytest

import tracegen as tg
from conftest import child_states, cycle_model, path_model
from tracegen.monoid import UNIT, max_letters
from tracegen.oracle import enumerate_traces, exact_occurrence
from tracegen.sampler import Sampler, _log_ratio

MAX_LENGTH = 6


def mobius_at(model, mask, q):
    """mu_mask at the rational q, exactly."""
    coefficients = tg.mobius_polynomial(model, mask).coefficients
    return sum(c * q**d for d, c in enumerate(coefficients))


def truncated_product(model, left, right, n):
    """The law of x . y for independent x ~ left and y ~ right, on traces
    of length at most n."""
    out = {}
    for x, qx in left.items():
        for y, qy in right.items():
            if x.length + y.length <= n:
                xy = tg.concat(model, x, y)
                out[xy] = out.get(xy, 0) + qx * qy
    return out


def exact_law(sampler, n):
    """The law of a word of ``sampler.draws`` on traces of length at most n.

    A node's output is (L . a)^K . R, with K geometric of parameter r, L
    drawn in the link state and R in the rest state.  Pivots are read from
    the compiled nodes and the child states derived from them; each r is
    the exact rational that ``oracle.exact_occurrence`` rounds, and the
    node's log_r must be the log of that rounding.
    """
    model, q = sampler.model, Fraction(sampler.table.p)
    memo = {}

    def law(state, n):
        if state is None:
            return {UNIT: Fraction(1)}
        if (state, n) not in memo:
            pivot, log_r, *_ = sampler._node(state)
            rest, link = child_states(model, state, pivot)
            subset = state[0]
            r = (
                q
                * mobius_at(model, subset & ~model.dependence[pivot], q)
                / mobius_at(model, subset & ~(1 << pivot), q)
            )
            assert float(r) == exact_occurrence(model, subset, pivot, sampler.table.p)
            assert log_r == _log_ratio(float(r))
            block = truncated_product(
                model, law(link, n - 1), {tg.normalize_indices(model, [pivot]): 1}, n
            )
            tail = law(rest, n)
            out, power, weight = {}, {UNIT: Fraction(1)}, 1 - r
            while power:
                for x, mass in truncated_product(model, power, tail, n).items():
                    out[x] = out.get(x, 0) + weight * mass
                power = truncated_product(model, power, block, n)
                weight *= r
            memo[state, n] = out
        return memo[state, n]

    return law(sampler.root_state if sampler.root_state[1] else None, n)


P4 = tg.build_model("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
# (model, pivot rule, pivot order); a block case gives its pivot letter in
# place of the order.  The x2 block's target {x1, x3} gives its root state
# a rest chain of two nodes, which an x0 block, with target {x1}, lacks.
CASES = {
    "p4-lowindex": (P4, "lowindex", None),
    "p4-maxdeg": (P4, "maxdeg", None),
    "p4-order": (P4, "order", ("c", "a", "d", "b")),
    "cycle5-lowindex": (cycle_model(5), "lowindex", None),
    "cycle5-maxdeg": (cycle_model(5), "maxdeg", None),
    "cycle5-order": (cycle_model(5), "order", ("x3", "x0", "x4", "x1", "x2")),
    "path5-lowindex": (path_model(5), "lowindex", None),
    "path5-maxdeg": (path_model(5), "maxdeg", None),
    "path5-order": (path_model(5), "order", ("x2", "x4", "x0", "x3", "x1")),
    "path5-block": (path_model(5), "block", "x0"),
    "path5-block-x2": (path_model(5), "block", "x2"),
    "cycle5-block": (cycle_model(5), "block", "x0"),
}
# every connected dependence graph on 4 letters, at lowindex and at each
# letter's block.  Some block alphabets split: star4's hub leaves three
# independent letters, whose Mobius polynomial has a triple root at 1.
CONNECTED4 = {
    "path4": P4,
    "star4": tg.build_model("abcd", [("a", "b"), ("a", "c"), ("a", "d")]),
    "cycle4": tg.build_model("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
    "paw": tg.build_model("abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]),
    "diamond": tg.build_model(
        "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]
    ),
    "k4": tg.build_model(
        "abcd", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    ),
}
for name, model in CONNECTED4.items():
    if name != "path4":  # p4-lowindex above
        CASES[f"{name}-lowindex"] = (model, "lowindex", None)
    for letter in model.letters:
        CASES[f"{name}-block-{letter}"] = (model, "block", letter)


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_compiled_law_is_the_target_law_exactly(case):
    model, rule, order = CASES[case]
    if rule == "block":
        stream = tg.BlockStream(model, order, 0)
        params = tg.SamplerParams(p=stream.p_star)
        subset, target = stream.block_subset, stream.block_target
    else:
        params = tg.SamplerParams(
            p=0.5 * tg.smallest_root(model), pivot=rule, pivot_order=order
        )
        subset = target = model.full_mask
    law = exact_law(Sampler(model, params, subset, target), MAX_LENGTH)
    # P(x) = p^|x| mu_S / mu_{S - T} for every x whose maximal pieces lie
    # in T, and 0 for every other x
    q = Fraction(params.p)
    scale = mobius_at(model, subset, q) / mobius_at(model, subset & ~target, q)
    traces = list(enumerate_traces(model, subset, MAX_LENGTH))
    assert set(law) <= set(traces)
    for x in traces:
        inside = not max_letters(model, x) & ~target
        assert law.get(x, 0) == (scale * q**x.length if inside else 0), x
    assert sum(law.values()) < 1
