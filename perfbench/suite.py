"""Run every workload and print the end-to-end metrics side by side.

    python3 perfbench/suite.py [--seeds 10] [--seconds 30] [--out FILE]

Each (workload, seed) pair runs ``run.py --trace 0`` in a fresh process,
so ``peak_rss_mb`` is that process's own peak.  Then one ``--trace 1``
run per workload gives the per-layer metrics and the tracing overhead.
Per workload the table shows the median over seeds of every end-to-end
metric, its spread (quartile distance as a share of the median) when
several seeds ran, and ``fail_ratio``: failed solves over attempted ones.
``--out`` writes every run's result and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace):
    """The result object of one run.py process (its last output line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("run.py failed on %s seed %d:\n%s"
                           % (workload, seed, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def summarize(runs):
    """Median and spread of each end-to-end metric over a workload's runs."""
    out = {}
    for metric in BENCHMARK["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        out[metric["name"]] = {"median": statistics.median(values),
                               "spread": spread(values),
                               "unit": metric["unit"]}
    attempted = sum(r["attempted"] for r in runs)
    out["fail_ratio"] = {"median": sum(r["failed"] for r in runs) / attempted,
                         "spread": None, "unit": "fraction"}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", help="write all results here as JSON")
    args = parser.parse_args(argv)

    seeds = range(args.seeds)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads
    doc = {"seeds": list(seeds), "seconds": args.seconds, "workloads": {}}
    for name in (w["name"] for w in BENCHMARK["workloads"]):
        runs = [run_once(name, seed, args.seconds, 0) for seed in seeds]
        entry = {"params": workloads.PARAMS[name],
                 "generator": " ".join(
                     workloads.PREPARE[name].__doc__.split()),
                 "summary": summarize(runs), "runs": runs,
                 "trace": run_once(name, 0, args.seconds, 1)}
        doc["workloads"][name] = entry
        print("%s (%d seeds)" % (name, len(runs)), flush=True)
        for metric, s in entry["summary"].items():
            shown = "" if s["spread"] is None else \
                "  spread %.4f" % s["spread"]
            print("  %-14s %-14.6g %-9s%s" % (metric, s["median"], s["unit"],
                                              shown), flush=True)
        for metric, v in entry["trace"]["metrics"].items():
            print("  %-32s %-14.6g %s" % (metric, v["value"], v["unit"]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
