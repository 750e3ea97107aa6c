"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lattice --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: the benchmark imports parsilab
from ``src/`` and calls ``parsilab.cli.main`` in-process, as a user's
``parsilab`` command would, for ``--seconds`` seconds (at least twice).
Every solve passes the correctness gate in ``workloads.check`` or counts
as failed, and repeated solves of the same inputs must agree exactly.

``--trace 0`` reports the end-to-end metrics of untraced solves, with
``wall_s`` and ``setup_s`` taken at the host's reference speed (see
``host_probe``): each solve's wall and set-up time is scaled by how fast
the host ran just before and just after it, and the run reports the
median over its solves.
``--trace 1`` alternates untraced, traced and arc-counting solves,
reports the per-layer metrics, writes the spans under
``.perfbench/traces/`` and prints self time per module from that file.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from tracing import (ARCS, LAYERS, SETUP, Tracer, durations,
                     format_self_times, module_self_times, read_spans,
                     span_name)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("lattice", "stereo", "pnpotts", "inpaint-h256")
SETUP_NAMES = {span_name(layer.module, layer.attr) for layer in SETUP}

# metric name -> unit, in the order they are printed
END_TO_END = {"wall_s": "s", "setup_s": "s", "energy": "energy",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "hst.embed_s": "s", "hst.tree_nodes": "count",
    "solver.fusion_build_s": "s", "solver.fusion_nodes": "count",
    "solver.fusion_cliques": "count",
    "solver.fusion_two_child_ratio": "fraction",
    "expansion.expand_s": "s", "expansion.sweeps": "count",
    "expansion.moves_accepted": "count", "expansion.moves": "count",
    "expansion.moves_noop": "count", "expansion.accept_ratio": "fraction",
    "expansion.graph_build_s": "s", "expansion.evaluate_s": "s",
    "expansion.evaluate_calls": "count",
    "maxflow.flow_s": "s", "maxflow.flows": "count",
    "maxflow.cut_read_s": "s", "maxflow.nodes": "count",
    "maxflow.arcs": "count",
    "model.evaluate_s": "s", "model.evaluate_calls": "count",
    "setup.build_s": "s", "trace.overhead_s": "s",
}


# On a host shared with other tenants the same solve takes up to twice as
# long for seconds to minutes at a time, far more than any bound on wall
# time.  host_probe times a fixed piece of pure-Python work -- breadth-first
# search with a dict insert per arc, the kind of work the flow-graph build
# and max-flow do -- which slows down with the host.  Scaling a solve's time
# by PROBE_REFERENCE_S / (probe time) gives the time it would take at the
# speed where the probe takes PROBE_REFERENCE_S, about the fastest it ran
# on a 2-vCPU x86-64 VM.  The probe is the benchmark's own code, so a change
# to parsilab moves a scaled time by the same share as the wall time.
PROBE_REFERENCE_S = 0.02
PROBE_NODES = 20000


def host_probe():
    """Seconds the probe took.  The collector is paused, so the program's
    heap does not change the probe's work."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    seen = [False] * PROBE_NODES
    seen[0] = True
    queue, flow = [0], {}
    for u in queue:
        for k in range(1, 5):
            # a pseudo-random graph of out-degree 4 that reaches every node
            v = (u * 2654435761 + k * 40503) % PROBE_NODES
            if not seen[v]:
                seen[v] = True
                queue.append(v)
                flow[u, v] = u ^ v
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


@dataclass
class Solve:
    kind: str                   # "untraced", "traced" or "arcs"
    wall: float
    setup: float
    problems: list
    counts: Counter
    energy: float = None
    labeling: bytes = None


def solve_once(case, cli_main, tracer, kind, layers, arcs=()):
    """One cli_main call on the case, timed, gated and recorded."""
    case.clear_outputs()
    tracer.counts = Counter()
    first = len(tracer.spans)
    log = io.StringIO()
    with tracer.installed(layers, arcs), redirect_stdout(log), \
            redirect_stderr(log):
        start = time.perf_counter()
        try:
            code = tracer.call("cli.main", cli_main, case.argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:      # noqa: BLE001 -- a crash fails the solve
            code = "%s: %s" % (type(e).__name__, e)
        wall = time.perf_counter() - start

    spans = tracer.spans[first:]
    names = {sid: name for sid, _, _, name, _, _ in spans}
    setup = sum(end - begin for _, parent, _, name, begin, end in spans
                if name in SETUP_NAMES and names.get(parent) not in SETUP_NAMES)

    result = None
    if code == 0:
        try:
            result = case.read_result()
        except (OSError, ValueError, KeyError, TypeError) as e:
            code = "unreadable output: %s" % e
    problems = case.check(code, result)
    if code == 0:
        # a wrapped layer the workload calls, yet no call went through
        # the wrapper: reached under another name, its time would read as 0
        expected = [span_name(layer.module, layer.attr) for layer in layers]
        expected += ["maxflow.arcs"] if arcs else []
        bypassed = [n for n in expected
                    if n not in case.unreached and not tracer.counts[n]]
        if bypassed:
            problems.append("never reached through its wrapper: "
                            + ", ".join(bypassed))
    if problems and log.getvalue():
        problems.append("output: " + log.getvalue().strip()[-500:])
    solve = Solve(kind, wall, setup, problems, tracer.counts)
    if result is not None:
        solve.energy = result[1]
        solve.labeling = result[0].tobytes()
    return solve


def check_repeats(solves):
    """Mark solves that differ from the first of their kind as failed.

    Every solve sees the same inputs, so the labeling and energy must
    repeat exactly, and so must the counters of each instrumented kind.
    """
    done = [s for s in solves if not s.problems]
    for s in done[1:]:
        if (s.energy, s.labeling) != (done[0].energy, done[0].labeling):
            s.problems.append("labeling or energy (%r) differs from the "
                              "first solve's (%r)" % (s.energy, done[0].energy))
    for kind in ("traced", "arcs"):
        same = [s for s in done if s.kind == kind]
        for s in same[1:]:
            if s.counts != same[0].counts:
                diff = sorted(k for k in set(s.counts) | set(same[0].counts)
                              if s.counts[k] != same[0].counts[k])
                s.problems.append("counts differ from first %s solve: %s"
                                  % (kind, ", ".join(diff)))


def layer_metrics(traced, arc_solves, tracer):
    """Per-layer metrics: median seconds per traced solve, exact counts."""
    inclusive, own = durations(tracer.spans)
    runs = sorted(inclusive)

    def seconds(table, name):
        return statistics.median(table[r][name] for r in runs)

    c = traced[0].counts
    fusion = c["solver.build_fusion_instance"]
    moves = c["expansion.best_expansion_move"]
    return {
        "hst.embed_s": seconds(inclusive, "hst.frt_embed"),
        "hst.tree_nodes": c["hst.tree_nodes"],
        "solver.fusion_build_s":
            seconds(inclusive, "solver.build_fusion_instance"),
        "solver.fusion_nodes": fusion,
        "solver.fusion_cliques": c["solver.fusion_cliques"],
        "solver.fusion_two_child_ratio":
            c["solver.fusion_two_child"] / fusion if fusion else 0.0,
        "expansion.expand_s": seconds(inclusive, "expansion.alpha_expansion"),
        "expansion.sweeps": c["expansion.sweeps"],
        "expansion.moves_accepted": c["expansion.moves_accepted"],
        "expansion.moves": moves,
        "expansion.moves_noop": c["expansion.moves_noop"],
        "expansion.accept_ratio":
            c["expansion.moves_accepted"] / moves if moves else 0.0,
        "expansion.graph_build_s":
            seconds(own, "expansion.best_expansion_move"),
        "expansion.evaluate_s":
            seconds(inclusive, "expansion.PnPottsInstance.evaluate"),
        "expansion.evaluate_calls": c["expansion.PnPottsInstance.evaluate"],
        "maxflow.flow_s":
            seconds(inclusive, "maxflow.FlowNetwork.compute_max_flow"),
        "maxflow.flows": c["maxflow.FlowNetwork.compute_max_flow"],
        "maxflow.cut_read_s":
            seconds(inclusive, "maxflow.FlowNetwork._residual_reachable"),
        "maxflow.nodes": c["maxflow.nodes"],
        "maxflow.arcs": arc_solves[0].counts["maxflow.arcs"],
        "model.evaluate_s":
            seconds(inclusive, "model.EnergyModel.evaluate_energy"),
        "model.evaluate_calls": c["model.EnergyModel.evaluate_energy"],
        "setup.build_s": statistics.median(s.setup for s in traced),
    }


def measure(name, seed, seconds, trace, params=None):
    """Run one workload; returns (result JSON object, lines to print)."""
    import workloads
    from parsilab.cli import main as cli_main

    (WORK / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=name + "-", dir=WORK / "work"))
    try:
        case = workloads.prepare(name, seed, workdir, params)
        untimed = Tracer()              # setup spans of untraced solves
        tracer = Tracer()               # spans of traced solves, written out
        solves = []
        rounds = 0
        deadline = time.perf_counter() + seconds
        probes = [host_probe()]         # host speed around every round
        last = 0.0                      # duration of the last round
        # at least two rounds; no round that would end past the deadline
        while rounds < 2 or time.perf_counter() + last <= deadline:
            begin = time.perf_counter()
            rounds += 1
            solves.append(solve_once(case, cli_main, untimed, "untraced",
                                     SETUP))
            if trace:
                tracer.run = rounds
                solves.append(solve_once(case, cli_main, tracer, "traced",
                                         LAYERS))
                solves.append(solve_once(case, cli_main, Tracer(), "arcs",
                                         (), ARCS))
            probes.append(host_probe())
            last = time.perf_counter() - begin
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    check_repeats(solves)
    failed = [s for s in solves if s.problems]
    untraced = [s for s in solves if s.kind == "untraced"]
    lines = ["workload %s seed %d: %d solves, %d failed"
             % (name, seed, len(solves), len(failed))]
    for s in failed[:5]:
        lines.append("FAIL (%s): %s" % (s.kind, "; ".join(s.problems)))

    if not trace:
        # one untraced solve per round, between the probes around it
        scale = [2 * PROBE_REFERENCE_S / (before + after)
                 for before, after in zip(probes, probes[1:])]
        metrics = {
            "wall_s": statistics.median(
                s.wall * k for s, k in zip(untraced, scale)),
            "setup_s": statistics.median(
                s.setup * k for s, k in zip(untraced, scale)),
            "energy": untraced[0].energy,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        lines.append("%d solves: median wall time %.4f s as measured; the "
                     "host ran at %.2f..%.2f of the reference speed"
                     % (len(untraced),
                        statistics.median(s.wall for s in untraced),
                        min(scale), max(scale)))
    else:
        traced = [s for s in solves if s.kind == "traced"]
        arc_solves = [s for s in solves if s.kind == "arcs"]
        metrics = layer_metrics(traced, arc_solves, tracer)
        # paired by round, so drift in machine speed cancels
        metrics["trace.overhead_s"] = statistics.median(
            t.wall - u.wall for t, u in zip(traced, untraced))
        units = PER_LAYER
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        path = WORK / "traces" / ("%s-seed%d.jsonl" % (name, seed))
        tracer.write(path, {"workload": name, "seed": seed,
                            "runs": tracer.run})
        lines.append("spans: %s (%d spans, %d traced solves)"
                     % (path, len(tracer.spans), tracer.run))
        lines.append(format_self_times(
            [module_self_times(read_spans(path)[1])], ["self_s/solve"]))

    lines.append("fail_ratio %r fraction" % (len(failed) / len(solves)))
    for metric, unit in units.items():
        lines.append("%-32s %r %s" % (metric, metrics[metric], unit))
    doc = {"correct": not failed,
           "attempted": len(solves), "failed": len(failed),
           "metrics": {m: {"value": metrics[m], "unit": u}
                       for m, u in units.items()}}
    return doc, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "parsilab" / "cli.py").is_file():
        print("error: no parsilab sources under %s; run from the root of a "
              "source checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        doc, lines = measure(args.workload, args.seed, args.seconds,
                             args.trace)
    except LookupError as e:
        print("error: %s; update perfbench/tracing.py to the new layout"
              % e, file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
