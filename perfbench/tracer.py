"""Per-layer tracing from outside the program.

The layers are krobust's modules.  `traced` rebinds each listed public
function, in every krobust module that holds the same object, to a wrapper
that records a span; so `from .graphcore import min_cut` call sites are
covered too.  Spans nest, so a span's self time excludes its children.  Spans
stay in memory until the benchmark writes them out, and the original
functions are restored on exit.  No file of the program is changed.

Oracle internals (`_Game.feasible`, memo hits) are private and are not traced
here; their cost shows inside `oracle.minimax_opt.self_s`.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = {
    "graphcore": ("shortest_paths", "min_cut", "mst_steiner_tree",
                  "gw_steiner_forest", "preprocess_cost_scaling",
                  "delete_or_contract", "zero_edges"),
    "setcover": ("solve", "thrifty_plan", "build_net", "greedy_cover"),
    "mincut": ("solve", "thrifty_plan", "build_net"),
    "steiner": ("solve_tree", "solve_forest", "thrifty_tree_plan",
                "thrifty_forest_plan", "ball_packing_net", "sfnet_build"),
    "model": ("evaluate_thrifty", "guess_grid"),
    "oracle": ("minimax_opt", "exhaustive_robcov", "opt_bounds"),
    "cli": ("load_document", "parse_instance"),
}

TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


# Argument keys for the repeated-work ratios.  Each mirrors the signature of
# the function it keys and returns the arguments to pass on (a one-shot
# iterable is replaced by a tuple of the same items) and what the key is made
# of: the graph, the root, and the source or terminal set.

def _paths_key(g, sources):
    sources = tuple(sources)
    return (g, sources), (g, None, frozenset(sources))


def _cut_key(g, root, terminals):
    terminals = tuple(terminals)
    return (g, root, terminals), (g, root, frozenset(terminals))


DISTINCT = {"graphcore.shortest_paths": _paths_key,
            "graphcore.min_cut": _cut_key}


class Recorder:
    """Spans and per-function totals for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (id, parent id, call, name, start, end)
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self.keyed = dict.fromkeys(DISTINCT, 0)
        self.distinct = dict.fromkeys(DISTINCT, 0)
        self._stack: list[list] = []   # [span id, time covered by children]
        self._call = -1
        self._seen: set = set()
        self._edges: dict[int, tuple] = {}   # id(edges) -> (edges, index)
        self._edge_index: dict[tuple, int] = {}

    def begin_call(self, call: int) -> None:
        """Start one CLI call: argument keys count as new again."""
        self._call = call
        self._seen = set()
        self._edges = {}
        self._edge_index = {}

    def _note(self, name: str, g, root, terminals: frozenset) -> None:
        # Equal edge tuples get one index, hashed once per tuple object; the
        # entry holds the tuple so its id is not reused within the call.
        hit = self._edges.get(id(g.edges))
        if hit is None:
            index = self._edge_index.setdefault(g.edges, len(self._edge_index))
            hit = self._edges[id(g.edges)] = (g.edges, index)
        key = (name, g.n, hit[1], root, terminals)
        self.keyed[name] += 1
        if key not in self._seen:
            self._seen.add(key)
            self.distinct[name] += 1

    def wrap(self, name: str, fn):
        keyer = DISTINCT.get(name)

        @functools.wraps(fn)
        def traced_fn(*args, **kwargs):
            stack = self._stack
            if keyer is not None:
                t0 = perf_counter()
                args, parts = keyer(*args, **kwargs)
                kwargs = {}
                self._note(name, *parts)
                if stack:   # keying is tracing cost, not the caller's work
                    stack[-1][1] += perf_counter() - t0
            span_id = len(self.spans)
            parent = stack[-1][0] if stack else -1
            self.spans.append(None)
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans[span_id] = (span_id, parent, self._call, name,
                                       start, end)
                self.calls[name] += 1
                self.self_s[name] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start

        return traced_fn


def krobust_modules() -> dict[str, object]:
    """Every loaded krobust module, by name relative to the package."""
    return {name.partition(".")[2] or name: mod
            for name, mod in sys.modules.items()
            if name == "krobust" or name.startswith("krobust.")}


@contextmanager
def traced(recorder: Recorder):
    """Rebind every TRACED function to its recording wrapper for the body."""
    modules = krobust_modules()
    patches = []
    try:
        for layer, fns in LAYERS.items():
            for fn_name in fns:
                original = getattr(modules[layer], fn_name)
                wrapper = recorder.wrap(f"{layer}.{fn_name}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, original in reversed(patches):
            setattr(mod, attr, original)
