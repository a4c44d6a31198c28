#!/usr/bin/env python3
"""How fast does the boundary prefix grow?

Runs one block stream per pivot and fits prefix length against block
count.  The fit should be a clean line: each block contributes an i.i.d.
number of letters, so R^2 near 1 and a slope equal to the mean block
length are both expected.
"""

from argparse import ArgumentParser
from pathlib import Path

import numpy as np

from tracegen import load_model, open_stream

DEFAULT_MODEL = Path(__file__).resolve().parent.parent / "models" / "p4.json"


def main():
    parser = ArgumentParser(description="Prefix length scaling of the block stream")
    parser.add_argument("--model", default=str(DEFAULT_MODEL),
                        help="model JSON file (default: models/p4.json, the 4 letter path)")
    parser.add_argument("--blocks", default=2000, type=int, help="blocks per stream")
    parser.add_argument("--seed", default=7, type=int)
    args = parser.parse_args()

    model = load_model(args.model)

    ks = np.arange(1, args.blocks + 1)
    print(f"{'pivot':>6} {'slope':>8} {'R^2':>10} {'steps/letter':>13}")
    for pivot in model.letters:
        stream = open_stream(model, pivot, seed=args.seed)
        lengths = []
        for _ in range(args.blocks):
            stream.advance()
            lengths.append(stream.length)
        lengths = np.array(lengths)
        slope, intercept = np.polyfit(ks, lengths, 1)
        r2 = float(np.corrcoef(ks, lengths)[0, 1] ** 2)
        per_letter = stream.counter.steps / stream.length
        print(f"{pivot:>6} {slope:8.3f} {r2:10.6f} {per_letter:13.2f}")


if __name__ == "__main__":
    main()
