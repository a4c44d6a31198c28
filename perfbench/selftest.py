#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Run from the repository root.  For every workload it checks that the
untraced run emits every end-to-end metric of BENCHMARK.json with its
unit, that the traced run emits every per-layer metric and that the layer
self times plus the remainder add up to the traced wall time, and that
the 2-worker CLI output carries the same final trace as the sequential
in-process run.
"""

import json
import math
import sys
from pathlib import Path

import run

SECONDS = 0.1
CALLS = {"finite_p4": 3000, "boundary_path16": 100, "cold_wide28": 500}
CLI_BLOCKS = 60


def check_metrics(result: dict, declared: list[dict], where: str) -> None:
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    assert list(metrics) == names, f"{where}: metrics {list(metrics)} != {names}"
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), \
            f"{where}: {m['name']} = {got['value']!r}"
    assert result["attempted"] >= 1, f"{where}: nothing attempted"


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in run.WORKLOADS:
        for trace in (False, True):
            where = f"{workload} trace={int(trace)}"
            lines, result = run.run_workload(
                root, spec, workload, seed=1, seconds=SECONDS, trace=trace, calls=CALLS,
                blocks=CLI_BLOCKS)
            check_metrics(result, spec["per_layer" if trace else "end_to_end"], where)
            assert result["correct"], f"{where}: output check failed\n" + "\n".join(lines)
            if workload != "cold_wide28":
                assert result["failed"] == 0, f"{where}: failures\n" + "\n".join(lines)
            info = json.loads(lines[-1].removeprefix("provenance "))
            if trace:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                own = sum(v for k, v in values.items() if k.endswith(".self_s"))
                assert values["trace.remainder_s"] >= 0, f"{where}: negative remainder"
                total = own + values["trace.remainder_s"]
                assert math.isclose(total, values["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-9), \
                    f"{where}: self times do not add up"
            elif workload == "cli_stream_2w":
                assert info["cli_final_digests"] == [info["sequential_final_digest"]], \
                    f"{where}: 2-worker and sequential digests differ: {info}"
            print(f"ok {where}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
