#!/usr/bin/env python3
"""The sampled law must not depend on the pivot rule.

Draws the same number of traces under every pivot rule and prints the
total variation distance of each empirical distribution from the exact
multiplicative law on short traces.  All rules target the identical
distribution, so the TV columns should agree up to sampling noise.
"""

from argparse import ArgumentParser
from pathlib import Path

from tracegen import SamplerParams, load_model, sample_many, smallest_root
from tracegen.oracle import probability_table, tv_distance
from tracegen.sampler import PIVOT_RULES
from tracegen.verify import empirical_distribution

DEFAULT_MODEL = Path(__file__).resolve().parent.parent / "models" / "p4.json"


def main():
    parser = ArgumentParser(description="Law invariance across pivot rules")
    parser.add_argument("--model", default=str(DEFAULT_MODEL),
                        help="model JSON file (default: models/p4.json, the 4 letter path)")
    parser.add_argument("--p", default=0.2, type=float)
    parser.add_argument("--n", default=50000, type=int, help="samples per rule")
    parser.add_argument("--seed", default=11, type=int)
    parser.add_argument("--cutoff", default=4, type=int, help="trace length cap for the TV")
    args = parser.parse_args()

    model = load_model(args.model)

    root = smallest_root(model)
    if args.p >= root:
        raise SystemExit(f"p must stay below the critical value {root:.6f}")
    full = model.full_mask
    exact = probability_table(model, full, full, args.p, args.cutoff)

    print(f"p={args.p} n={args.n} seed={args.seed} cutoff={args.cutoff}")
    print(f"{'rule':>10} {'TV':>9} {'unit':>8} {'mean len':>9}")
    for rule in PIVOT_RULES:
        # odd positions, then even ones: reversing a mirror-symmetric model
        # (such as the path p4) would mirror lowindex draw for draw
        order = model.letters[1::2] + model.letters[::2] if rule == "order" else ()
        params = SamplerParams(p=args.p, seed=args.seed, pivot=rule, pivot_order=order)
        samples = list(sample_many(model, params, args.n))
        tv = tv_distance(empirical_distribution(samples), exact, support_cutoff=args.cutoff)
        unit = sum(1 for x in samples if x.is_unit) / args.n
        mean = sum(x.length for x in samples) / args.n
        print(f"{rule:>10} {tv:9.5f} {unit:8.4f} {mean:9.4f}")


if __name__ == "__main__":
    main()
