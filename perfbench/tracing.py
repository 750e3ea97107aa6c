"""Span tracing of parsilab's public functions, installed from outside.

``Tracer.installed`` replaces chosen functions and methods with wrappers
that record one span per call -- (id, parent id, run id, name, start, end)
-- plus counters read from the call's arguments and result, and puts the
originals back on exit.  Spans stay in memory until ``write``; a layer's
self time is its span's duration minus the time its child spans cover.

    python3 perfbench/tracing.py SPANS.jsonl [OTHER.jsonl]

prints self time per module of one written trace, or of two side by side.
"""

import functools
import importlib
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np


def _embed_counts(counts, args, result):
    counts["hst.tree_nodes"] += sum(tree.num_nodes for tree in result)


def _fusion_counts(counts, args, result):
    counts["solver.fusion_cliques"] += len(result.cliques)
    counts["solver.fusion_two_child"] += result.num_labels == 2


def _expansion_counts(counts, args, result):
    trace = result[1]
    counts["expansion.sweeps"] += trace.sweeps
    counts["expansion.moves_accepted"] += len(trace.moves)


def _move_counts(counts, args, result):
    # best_expansion_move(instance, current, alpha): a no-op returns current
    counts["expansion.moves_noop"] += bool(np.array_equal(result, args[1]))


def _flow_counts(counts, args, result):
    counts["maxflow.nodes"] += args[0].num_nodes


class Layer(NamedTuple):
    """A function or method to wrap in spans.

    ``hook(counts, args, result)`` adds counters read from a call;
    ``cached(args)`` is true for calls that only return a stored result,
    which pass through without a span or a count.
    """
    module: str
    attr: str
    hook: Callable = None
    cached: Callable = None


def _cut_cached(args):
    # FlowNetwork._residual_reachable(self): one BFS per flow, then cached
    return args[0]._reachable is not None


# Functions whose calls the model build consists of (setup_s).
SETUP = [
    Layer("parsilab.model", "load_model"),
    Layer("parsilab.tasks", "read_raster"),
    Layer("parsilab.tasks", "build_stereo"),
    Layer("parsilab.tasks", "build_inpaint"),
]

# Layer boundaries timed by the traced pass.  The cut is read through the
# BFS behind FlowNetwork.min_cut_side, timed once per flow: min_cut_side
# itself is called once per variable and does only a list lookup, so spans
# on it would time the tracer.
LAYERS = SETUP + [
    Layer("parsilab.oracle", "model_to_pn_potts_instance"),
    Layer("parsilab.solver", "solve_parsimonious"),
    Layer("parsilab.solver", "solve_hierarchical"),
    Layer("parsilab.solver", "build_fusion_instance", _fusion_counts),
    Layer("parsilab.hst", "frt_embed", _embed_counts),
    Layer("parsilab.expansion", "alpha_expansion", _expansion_counts),
    Layer("parsilab.expansion", "best_expansion_move", _move_counts),
    Layer("parsilab.expansion", "PnPottsInstance.evaluate"),
    Layer("parsilab.maxflow", "FlowNetwork.compute_max_flow", _flow_counts),
    Layer("parsilab.maxflow", "FlowNetwork._residual_reachable",
          cached=_cut_cached),
    Layer("parsilab.model", "EnergyModel.evaluate_energy"),
]

# Arc insertions, counted without spans in a pass of their own, because a
# wrapper on every arc would inflate the graph-build time the spans measure.
# The int is the position of the first capacity argument after self.
ARCS = [
    ("parsilab.maxflow", "FlowNetwork.add_arc", 2),
    ("parsilab.maxflow", "FlowNetwork.add_terminal_arc", 1),
]


def span_name(module, attr):
    return module.rsplit(".", 1)[-1] + "." + attr


class Tracer:
    """Collects spans and counters across the solves of one benchmark run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.run = 0
        self._stack = []
        self._ids = itertools.count()

    def call(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span of the given name."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.run, name, start, end))

    def _span_wrapper(self, name, fn, hook, cached):
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if cached is not None and cached(args):
                return fn(*args, **kwargs)
            result = self.call(name, fn, *args, **kwargs)
            counts[name] += 1
            if hook is not None:
                hook(counts, args, result)
            return result
        return traced

    def _arc_wrapper(self, name, fn, first_cap):
        counts = self.counts
        first = first_cap + 1          # args[0] is self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += sum(1 for c in itertools.chain(
                args[first:], kwargs.values()) if c > 0)
            return fn(*args, **kwargs)
        return counted

    def _owners(self, module, attr):
        """(owner, name, original) for every place the call resolves through.

        A module-level function is also patched in every parsilab module
        that imported it by name; a method is patched on its class.
        """
        mod = importlib.import_module(module)
        *cls_path, leaf = attr.split(".")
        owner = mod
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        if cls_path:
            return [(owner, leaf, original)]
        return [(m, leaf, original) for n, m in list(sys.modules.items())
                if (n == "parsilab" or n.startswith("parsilab."))
                and getattr(m, leaf, None) is original]

    @contextmanager
    def installed(self, layers=(), arcs=()):
        """Wrap the given layers with spans and the arc inserts with counters.

        Raises LookupError, before wrapping anything, if the package no
        longer has one of them: a layer that silently went untimed would
        report 0 seconds and read as a gain.
        """
        targets = [(span_name(t.module, t.attr), t, None) for t in layers] \
            + [("maxflow.arcs", Layer(module, attr), first_cap)
               for module, attr, first_cap in arcs]
        resolved, missing = [], []
        for name, layer, first_cap in targets:
            try:
                resolved.append((name, layer, first_cap,
                                 self._owners(layer.module, layer.attr)))
            except (ImportError, AttributeError):
                missing.append("%s.%s" % (layer.module, layer.attr))
        if missing:
            raise LookupError("no such function to trace: "
                              + ", ".join(missing))
        patched = []
        try:
            for name, layer, first_cap, owners in resolved:
                for owner, leaf, original in owners:
                    if first_cap is not None:
                        wrapper = self._arc_wrapper(name, original, first_cap)
                    else:
                        wrapper = self._span_wrapper(name, original,
                                                     layer.hook, layer.cached)
                    setattr(owner, leaf, wrapper)
                    patched.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(patched):
                setattr(owner, leaf, original)

    def write(self, path, header):
        """Write the header and every span as JSON lines."""
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for sid, parent, run, name, start, end in self.spans:
                f.write('{"id":%d,"parent":%d,"run":%d,"name":"%s",'
                        '"start":%r,"end":%r}\n'
                        % (sid, parent, run, name, start, end))


def durations(spans):
    """Per run: ({name: inclusive seconds}, {name: self seconds}).

    Spans are (id, parent, run, name, start, end) tuples.  Children of one
    span never overlap (the program is single-threaded), so the time they
    cover is the sum of their durations.
    """
    child_time = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive = defaultdict(lambda: defaultdict(float))
    own = defaultdict(lambda: defaultdict(float))
    for sid, _, run, name, start, end in spans:
        inclusive[run][name] += end - start
        own[run][name] += end - start - child_time[sid]
    return inclusive, own


def read_spans(path):
    """(header, spans) of a file written by Tracer.write."""
    with open(path) as f:
        header = json.loads(f.readline())
        spans = [(d["id"], d["parent"], d["run"], d["name"], d["start"],
                  d["end"]) for d in map(json.loads, f)]
    return header, spans


def module_self_times(spans):
    """Mean self seconds per solve of each module (first part of the name)."""
    _, own = durations(spans)
    totals = defaultdict(float)
    for per_name in own.values():
        for name, seconds in per_name.items():
            totals[name.split(".", 1)[0]] += seconds
    runs = max(len(own), 1)
    return {module: seconds / runs for module, seconds in totals.items()}


def format_self_times(columns, titles):
    """Table of self seconds per module, one column per trace."""
    modules = sorted(set().union(*columns),
                     key=lambda m: -max(c.get(m, 0.0) for c in columns))
    lines = ["%-12s" % "module" + "".join("%14s" % t for t in titles)]
    for module in modules:
        lines.append("%-12s" % module + "".join(
            "%14.4f" % c.get(module, 0.0) for c in columns))
    lines.append("%-12s" % "total" + "".join(
        "%14.4f" % sum(c.values()) for c in columns))
    return "\n".join(lines)


def main(argv):
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    columns = [module_self_times(read_spans(p)[1]) for p in argv]
    titles = ["self_s"] if len(argv) == 1 else ["a_self_s", "b_self_s"]
    if len(argv) == 2:
        a, b = columns
        columns.append({m: b.get(m, 0.0) - a.get(m, 0.0)
                        for m in set(a) | set(b)})
        titles.append("b-a_s")
    print(format_self_times(columns, titles))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
