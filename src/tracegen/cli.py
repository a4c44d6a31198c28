"""Command line front end.

Four subcommands: analyze prints the polynomial data of a model, sample
draws finite traces, stream runs the boundary block generator, verify
runs the statistical suites.  Randomised subcommands default to a fixed
documented seed and always echo the seed they used in a header record,
so every run is reproducible by construction.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import signal
import sys
import threading

from . import DEFAULT_SEED, SUITES, boundary
from .mobius import ROOT_MARGIN, is_irreducible, mobius_polynomial, smallest_root
from .monoid import Heap, TraceJSON, format_trace, load_model, normalize_indices
from .sampler import SamplerParams, sample_many


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    convert.__name__ = "integer"  # named in argparse's "invalid integer value"
    return convert


_COUNT = _int_at_least(0)


def _add_model_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", required=True, metavar="FILE",
        help="JSON model file with keys 'letters' and 'dependence'",
    )


def _record(k: int, key: str, trace_json: str, length: int) -> str:
    """``json.dumps({"k": k, key: trace, "length": length})`` for a trace
    given as its JSON text, in json.dumps's layout."""
    return f'{{"k": {k}, "{key}": {trace_json}, "length": {length}}}'


def _cmd_analyze(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    poly = mobius_polynomial(model)
    result = {
        "letters": list(model.letters),
        "clique_count": poly.clique_count(),
        "mobius_coefficients": list(poly.coefficients),
        "p_sigma": round(smallest_root(model), 12),
        "irreducible": is_irreducible(model),
    }
    if args.subset:
        subsets = {}
        for spec in args.subset:
            names = [s for s in spec.split(",") if s]
            mask = model.subset(names)
            subsets[",".join(names)] = {
                "mobius_coefficients": list(
                    mobius_polynomial(model, mask).coefficients
                ),
                "smallest_root": round(smallest_root(model, mask), 12)
                if mask else None,
            }
        result["subsets"] = subsets
    json.dump(result, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    params = SamplerParams(p=args.p, seed=args.seed, pivot=args.pivot)
    # checks p, exiting 2 through main before the header is printed
    samples = sample_many(model, params, args.n)
    if args.format == "json":
        to_json = TraceJSON(model)
        print(json.dumps({"seed": args.seed, "p": args.p, "n": args.n}))
        for x in samples:
            print(to_json(x))
    else:
        print(f"# seed={args.seed} p={args.p} n={args.n}")
        for x in samples:
            print(format_trace(model, x))
    return 0


@contextlib.contextmanager
def _sigint_flag():
    """Inside the with statement, SIGINT (Ctrl-C) appends to the yielded
    list instead of raising, so a loop that reads the list stops between
    two blocks, never inside one; the handler in place before comes back
    afterwards.  Only the main thread receives signals or may set their
    handlers, so in any other thread the list stays empty."""
    interrupted: list[int] = []
    if threading.current_thread() is not threading.main_thread():
        yield interrupted
        return
    previous = signal.signal(signal.SIGINT, lambda signum, frame: interrupted.append(signum))
    try:
        yield interrupted
    finally:
        signal.signal(signal.SIGINT, previous)


def _broken_pool() -> type[Exception]:
    """The error a process pool raises once one of its workers has died.
    An except clause evaluates its class only when an exception reaches it,
    so a run that never breaks imports nothing from concurrent.futures."""
    from concurrent.futures.process import BrokenProcessPool
    return BrokenProcessPool


def _cmd_stream(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    pivot = args.pivot_letter or model.letters[0]
    # a ValueError here (a reducible or one letter model, an unknown pivot, a
    # missing gap below the pivot free root) exits 2 through main, before any output
    stream = boundary.open_stream(model, pivot, args.seed)
    emit_each = args.emit == "each-block"
    to_json = TraceJSON(model)
    heap = Heap(model)  # only --emit final drops blocks on it
    released: list[str] = []  # and keeps the JSON text of its final factors
    # with a pool, --emit final has the workers drop their ranges on heaps
    ranges = stream.ranges(0, args.blocks or boundary.NO_LAST_BLOCK, args.workers,
                           heaps=not emit_each)
    blocks = length = status = 0
    # Ctrl-C ends the run after a whole block, or a whole glued range;
    # closing the ranges stops the pool, if there is one
    with _sigint_flag() as interrupted, contextlib.closing(ranges):
        # the header is a function of (model, pivot, seed) only, whatever the
        # worker count, and any pool starts after it, at the first range; it
        # is flushed, as --emit final prints nothing else before the end
        print(json.dumps({"seed": args.seed, "pivot": pivot, "p_star": stream.p_star}),
              flush=True)
        try:
            for words, part in ranges:
                size = sum(map(len, words)) if part else 0
                if part and not 0 < args.min_length <= length + size:
                    # the run does not stop inside this range: its heap is glued whole
                    heap.glue(*part)
                    blocks += len(words)
                    length += size
                    words = ()
                for word in words:
                    blocks += 1
                    length += len(word)
                    if emit_each:
                        print(_record(blocks, "block", to_json(normalize_indices(model, word)),
                                      length),
                              flush=not args.blocks)
                    else:
                        heap.extend(word)
                    if interrupted or 0 < args.min_length <= length:
                        break
                if not emit_each:
                    final = heap.release()
                    if final:
                        released.append(to_json.join(final))
                if interrupted or 0 < args.min_length <= length:
                    break
        except _broken_pool() as exc:
            # a pool worker died: the record of the whole blocks received is
            # printed, as after Ctrl-C, and the run fails
            sys.stderr.write(f"error: the worker pool broke after {blocks} blocks: {exc}\n")
            status = 1
        if not emit_each:
            released.append(to_json.join(heap.factors))
            print(_record(blocks, "final", "[" + ", ".join(filter(None, released)) + "]", length))
    return status


def _cmd_verify(args: argparse.Namespace) -> int:
    # the suites load the oracle and scipy, which no other command needs
    from .verify import run_suite

    model = load_model(args.model)
    # a report path that cannot be written fails before any suite runs;
    # append mode leaves an existing file as it is
    made = bool(args.report) and not os.path.exists(args.report)
    if args.report:
        open(args.report, "a", encoding="utf-8").close()
    try:
        reports = run_suite(args.suite, model, args.seed, args.pivot_letter)
    except ValueError:
        if made:  # input the suites refuse leaves no file behind
            os.remove(args.report)
        raise
    payload = [r.to_dict() for r in reports]
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    for r in reports:
        flag = "pass" if r.passed else "FAIL"
        sys.stderr.write(f"{flag} {r.name}: statistic={r.statistic:.6g} "
                         f"threshold={r.threshold:.6g}\n")
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracegen",
        description="Uniform random generation of finite and infinite traces "
                    "in trace monoids (heaps of pieces).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="clique polynomial, smallest root, irreducibility"
    )
    _add_model_argument(p_analyze)
    p_analyze.add_argument(
        "--subset", action="append", metavar="LETTERS",
        help="comma separated letters; repeatable; adds per subset data",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_sample = sub.add_parser(
        "sample", help="draw finite traces from the multiplicative law"
    )
    _add_model_argument(p_sample)
    p_sample.add_argument("--p", type=float, required=True,
                          help=f"law parameter, 0 < p <= smallest root - {ROOT_MARGIN}")
    p_sample.add_argument("--n", type=_COUNT, default=1, help="number of traces")
    p_sample.add_argument("--seed", type=_COUNT, default=DEFAULT_SEED,
                          help=f"random seed (default {DEFAULT_SEED})")
    p_sample.add_argument("--pivot", choices=("lowindex", "maxdeg"),
                          default="lowindex", help="pivot selection rule")
    p_sample.add_argument("--format", choices=("brackets", "json"),
                          default="brackets", help="output format")
    p_sample.set_defaults(func=_cmd_sample)

    p_stream = sub.add_parser(
        "stream", help="run the boundary block generator"
    )
    _add_model_argument(p_stream)
    p_stream.add_argument("--pivot-letter", metavar="LETTER", default=None,
                          help="block apex letter (default: first letter)")
    stop = p_stream.add_mutually_exclusive_group()
    stop.add_argument("--blocks", type=_COUNT, default=0,
                      help="stop after this many blocks; 0 means endless")
    stop.add_argument("--min-length", type=_COUNT, default=0,
                      help="stop once the accumulated trace reaches this length")
    p_stream.add_argument("--seed", type=_COUNT, default=DEFAULT_SEED,
                          help=f"random seed (default {DEFAULT_SEED})")
    p_stream.add_argument("--workers", type=_int_at_least(1), default=1,
                          help="worker processes drawing the blocks, in ranges of at "
                               "most 256 blocks; the output is the same for any count")
    p_stream.add_argument("--emit", choices=("each-block", "final"),
                          default="each-block",
                          help="emit one record per block, or only the final trace, "
                               "whose factors are formatted as they become final, so "
                               "that the run holds their JSON text, not the factors")
    p_stream.set_defaults(func=_cmd_stream)

    p_verify = sub.add_parser(
        "verify", help="run the verification suites against the oracle"
    )
    _add_model_argument(p_verify)
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--seed", type=_COUNT, default=DEFAULT_SEED,
                          help=f"random seed (default {DEFAULT_SEED})")
    p_verify.add_argument("--pivot-letter", metavar="LETTER", default=None)
    p_verify.add_argument("--report", metavar="FILE", default=None,
                          help="write the JSON report here instead of stdout")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader went away, which is not bad input
        raise
    except (ValueError, OSError) as exc:
        # covers model schema problems and unreadable model files alike;
        # json decode errors are ValueErrors already
        sys.stderr.write(f"error: {exc}\n")
        return 2


def process_main() -> int:
    """The ``tracegen`` process: ``main()`` on the command line, after
    moving every object the imports made out of the garbage collector's
    reach (``gc.freeze``), before any pool forks.  The collection at exit
    and the pool workers' collections then skip them.  ``main()`` itself
    leaves the collector of a caller's process alone.  A reader that
    closes the pipe ends the process with status 141, as SIGPIPE would."""
    gc.freeze()
    try:
        return main()
    except BrokenPipeError:
        # the flush at exit then writes what is left to nowhere, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + signal.SIGPIPE


if __name__ == "__main__":
    sys.exit(process_main())
