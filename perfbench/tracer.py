"""Span tracer that times calls into tracegen from outside the package.

Installing a Tracer replaces selected functions and methods of the loaded
tracegen modules with timing wrappers; uninstalling puts the originals
back.  Nothing under src/ is edited.  A function imported into several
modules (``from .mobius import smallest_root``) is replaced at every
binding, so calls through any of them are seen.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it called; the self times of all spans sum to the
time covered by top-level spans, so the per-layer self times plus the
untraced remainder add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute path, layer).  Every binding of the original object in
# a loaded tracegen module is replaced.
SPANS = (
    ("tracegen.monoid", "model_from_dict", "monoid"),
    ("tracegen.monoid", "clique_size_counts", "monoid"),
    ("tracegen.monoid", "normalize_indices", "monoid"),
    ("tracegen.mobius", "smallest_root", "mobius"),
    ("tracegen.mobius", "mobius_eval", "mobius"),
    ("tracegen.mobius", "MobiusTable.value", "mobius"),
    ("tracegen.sampler", "RandomStream.__init__", "sampler"),
    ("tracegen.sampler", "sample_geometric", "sampler"),
    ("tracegen.sampler", "sample_trace", "sampler"),
    ("tracegen.boundary", "open_stream", "boundary"),
    ("tracegen.boundary", "BlockStream.next_block", "boundary"),
    ("tracegen.boundary", "BlockStream.block_word", "boundary"),
    ("tracegen.boundary", "parallel_run", "boundary"),
    ("tracegen.cli", "main", "cli"),
    # Output formatting belongs to the CLI layer whichever module holds it.
    ("tracegen.monoid", "trace_to_lists", "cli"),
    ("json", "dumps", "cli"),
)

# Bindings replaced in the named module only.  The block sampler calls the
# recursive sampler through this binding; replacing it here times each
# block's recursion as one sampler span, while the recursion's calls to
# itself stay unwrapped.
LOCAL_SPANS = (
    ("tracegen.boundary", "_sample_into", "sampler"),
)

# Calls counted but not timed: a span costs about a microsecond, several
# times the call itself.  Their time stays in the calling span.
COUNTED = (
    ("tracegen.sampler", "RandomStream.uniform"),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Per-span call counts and times, kept in memory."""

    def __init__(self) -> None:
        # name -> [calls, total_ns, child_ns, calls_with_children]
        self.stats: dict[str, list[int]] = {}
        self.counts: dict[str, list[int]] = {}
        self.layer_of: dict[str, str] = {}
        self.top_ns = 0
        self.cliques_visited = 0
        self.missing: list[str] = []
        self._stack: list[list[int]] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, path, layer in SPANS:
            self._patch(module, path, layer, everywhere=True)
        for module, path, layer in LOCAL_SPANS:
            self._patch(module, path, layer, everywhere=False)
        for module, path in COUNTED:
            self._patch(module, path, None, everywhere=True)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, module: str, path: str, layer: str, everywhere: bool) -> None:
        name = f"{module.removeprefix('tracegen.')}.{path}"
        try:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            # a later version may rename or drop a traced function
            self.missing.append(name)
            return
        if layer is None:
            wrapper = self._count(name, original)
        else:
            wrapper = self._wrap(name, layer, original)
        targets = [(owner, attr)]
        if everywhere and isinstance(owner, type(sys)):
            targets = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == "tracegen" or mod_name.startswith("tracegen.")
                for key, value in list(vars(mod).items())
                if value is original
            ] or targets
        for target, key in targets:
            self._undo.append((target, key, getattr(target, key)))
            setattr(target, key, wrapper)

    def _count(self, name: str, fn):
        rec = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name: str, layer: str, fn):
        self.layer_of[name] = layer
        rec = self.stats.setdefault(name, [0, 0, 0, 0])
        stack = self._stack
        push = stack.append
        clock = time.perf_counter_ns
        count_cliques = name == "monoid.clique_size_counts"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # frame: [child_ns, child_calls]
            frame = [0, 0]
            push(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += frame[0]
                if frame[1]:
                    rec[3] += 1
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += 1
                else:
                    self.top_ns += elapsed
            if count_cliques:
                self.cliques_visited += sum(result)
            return result

        return wrapper

    # -- reading the results -------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0))[1] / 1e9

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in ("monoid", "mobius", "sampler", "boundary", "cli")}
        for name, (_, total, child, _) in self.stats.items():
            out[self.layer_of[name]] += (total - child) / 1e9
        return out

    def metrics(self, wall_s: float, steps: int, letters: int,
                sequential_s: float, workers: int) -> dict[str, float]:
        """Per-layer metrics for a traced region of ``wall_s`` seconds."""
        value_calls = self.calls("mobius.MobiusTable.value")
        # a value() call that had to call mobius_eval was a table miss
        misses = self.stats.get("mobius.MobiusTable.value", (0, 0, 0, 0))[3]
        parallel_s = self.total_s("boundary.parallel_run")
        own = self.layer_self_s()
        out = {
            "sampler.rng_derive_calls": self.calls("sampler.RandomStream.__init__"),
            "sampler.rng_derive_s": self.total_s("sampler.RandomStream.__init__"),
            "sampler.uniform_calls": self.counts.get("sampler.RandomStream.uniform", [0])[0],
            "sampler.geometric_s": self.total_s("sampler.sample_geometric"),
            "sampler.steps_per_letter": steps / letters if letters else 0.0,
            "mobius.eval_calls": self.calls("mobius.mobius_eval"),
            "mobius.eval_s": self.total_s("mobius.mobius_eval"),
            "mobius.value_calls": value_calls,
            "mobius.hit_ratio": 1.0 - misses / value_calls if value_calls else 0.0,
            "mobius.root_calls": self.calls("mobius.smallest_root"),
            "mobius.root_s": self.total_s("mobius.smallest_root"),
            "monoid.clique_walk_s": self.total_s("monoid.clique_size_counts"),
            "monoid.cliques_visited": self.cliques_visited,
            "monoid.normalize_s": self.total_s("monoid.normalize_indices"),
            "boundary.block_word_s": self.total_s("boundary.BlockStream.block_word"),
            "boundary.accumulate_s": self.total_s("boundary.BlockStream.next_block")
            - self.total_s("boundary.BlockStream.block_word"),
            "boundary.parallel_run_s": parallel_s,
            "boundary.parallel_efficiency": sequential_s / (workers * parallel_s)
            if parallel_s else 0.0,
            "cli.format_s": self.total_s("monoid.trace_to_lists") + self.total_s("json.dumps"),
            "trace.wall_s": wall_s,
            "trace.remainder_s": wall_s - self.top_ns / 1e9,
        }
        for layer, seconds in own.items():
            out[f"{layer}.self_s"] = seconds
        return out

