"""Command-line interface.

Subcommands: solve, synth-bench, stereo, inpaint, validate.
Exit codes: 0 ok, 1 solver failure, 2 input error.
"""

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import model as mdl
from . import oracle, solver, tasks
from .expansion import alpha_expansion
from .hst import RHst
from .model import (InvalidInputError, PnPottsSpec, SolverError,
                    validate_diversity_axioms)

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_INPUT = 2

WC_GRID = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 100.0]
CSV_SCHEMA_VERSION = 1


def _fail(msg, code=EXIT_INPUT):
    print("error: %s" % msg, file=sys.stderr)
    return code


def _solve_model(model, k, seed):
    if isinstance(model.potential, PnPottsSpec):
        instance = oracle.model_to_pn_potts_instance(model)
        labeling, _ = alpha_expansion(instance)
        energy = model.evaluate_energy(labeling)
        bound1, bound2 = solver.theorem_bounds(model, r=2.0)
        report = solver.SolveReport(
            labeling=list(map(int, labeling)), energy=energy,
            component_energies=[energy], bound_hierarchical=bound1,
            bound_general=bound2, seed=seed, num_trees=0)
        return labeling, report
    return solver.solve_parsimonious(model, k=k, seed=seed)


def _write_report(report, model, path, include_timings):
    # the reported energy is always re-verified before writing
    recheck = model.evaluate_energy(report.labeling)
    if not abs(recheck - report.energy) <= 1e-9:
        raise SolverError("reported energy does not match its labeling")
    with open(path, "w") as f:
        json.dump(report.to_json(include_timings=include_timings), f,
                  indent=2, sort_keys=True)
        f.write("\n")


def cmd_solve(args):
    try:
        model = mdl.load_model(args.problem)
    except (OSError, ValueError, KeyError) as e:
        return _fail("cannot read problem file: %s" % e)
    try:
        labeling, report = _solve_model(model, args.trees, args.seed)
    except InvalidInputError as e:
        return _fail(str(e))
    except Exception as e:                          # noqa: BLE001
        return _fail("solver failure: %s" % e, EXIT_SOLVER)

    if args.oracle:
        try:
            opt = oracle.exhaustive_minimize(model)
        except oracle.SizeError as e:
            return _fail(str(e))
        bound = report.bound_general
        limit = opt.unary_term + bound * opt.clique_term
        ratio = report.energy / opt.energy if opt.energy != 0 else float("inf")
        print("oracle: E_alg=%.9g E_opt=%.9g ratio=%.6g bound_rhs=%.9g"
              % (report.energy, opt.energy, ratio, limit))
        if report.energy > limit + 1e-9:
            return _fail("multiplicative bound violated", EXIT_SOLVER)

    if args.labeling_out:
        tasks.write_labeling_text(args.labeling_out, labeling)
    if args.report:
        _write_report(report, model, args.report, args.timings)
    print("energy %.9g" % report.energy)
    return EXIT_OK


def cmd_synth_bench(args):
    rows = []
    for wc in WC_GRID:
        spec = tasks.GridSpec(width=args.size, height=args.size,
                              num_labels=args.labels, window=args.window,
                              clique_weight=wc, seed=args.seed,
                              lam=1.0, truncation=args.truncation)
        model = tasks.generate_synthetic(spec)
        t0 = time.perf_counter()
        labeling, report = solver.solve_parsimonious(model, k=args.trees,
                                                     seed=args.seed)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        rows.append({"schema_version": CSV_SCHEMA_VERSION, "w_c": wc,
                     "energy": report.energy, "time_ms": elapsed_ms,
                     "unique_labels": len(set(int(x) for x in labeling))})
        print("w_c=%g energy=%.6g unique=%d" % (wc, report.energy,
                                                rows[-1]["unique_labels"]))
    with open(args.csv, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=["schema_version", "w_c",
                                               "energy", "time_ms",
                                               "unique_labels"])
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


def _load_superpixels(path):
    if path is None:
        return None
    try:
        return tasks.read_raster(path).astype(np.int64)
    except (OSError, InvalidInputError) as e:
        print("warning: superpixel map unusable (%s); using block partition"
              % e, file=sys.stderr)
        return None


def cmd_stereo(args):
    try:
        left = tasks.read_raster(args.left)
        right = tasks.read_raster(args.right)
    except (OSError, InvalidInputError) as e:
        return _fail("cannot read images: %s" % e)
    task = tasks.ImageTask(
        kind="stereo", left=left, right=right,
        superpixels=_load_superpixels(args.superpixels),
        num_labels=args.labels, lam=args.lam, truncation=args.truncation,
        sigma=args.sigma, unary_truncation=args.unary_truncation,
        grad_threshold=args.grad_threshold, w_low=args.w_low,
        w_high=args.w_high, superpixel_block=args.block)
    try:
        model = tasks.build_stereo(task)
        labeling, report = solver.solve_parsimonious(model, k=args.trees,
                                                     seed=args.seed)
    except InvalidInputError as e:
        return _fail(str(e))
    height, width = left.shape[:2]
    tasks.write_raster(args.out, tasks.labeling_to_raster(
        labeling, height, width, args.labels))
    if args.report:
        _write_report(report, model, args.report, args.timings)
    print("energy %.9g" % report.energy)
    return EXIT_OK


def cmd_inpaint(args):
    try:
        image = tasks.read_raster(args.image)
    except (OSError, InvalidInputError) as e:
        return _fail("cannot read image: %s" % e)
    if image.ndim != 2:
        return _fail("inpainting expects a grayscale (PGM) image")
    mask = None
    if args.mask:
        try:
            mask = tasks.read_raster(args.mask) > 0
        except (OSError, InvalidInputError) as e:
            return _fail("cannot read mask: %s" % e)
    task = tasks.ImageTask(
        kind="inpaint", image=image, mask=mask,
        superpixels=_load_superpixels(args.superpixels),
        num_labels=args.labels, lam=args.lam, truncation=args.truncation,
        sigma=args.sigma, superpixel_block=args.block)
    try:
        model = tasks.build_inpaint(task)
        labeling, report = solver.solve_parsimonious(model, k=args.trees,
                                                     seed=args.seed)
    except InvalidInputError as e:
        return _fail(str(e))
    height, width = image.shape
    tasks.write_raster(args.out, tasks.labeling_to_raster(
        labeling, height, width, args.labels))
    if args.report:
        _write_report(report, model, args.report, args.timings)
    print("energy %.9g" % report.energy)
    return EXIT_OK


def cmd_validate(args):
    try:
        with open(args.input) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return _fail("cannot read input: %s" % e)
    if "nodes" in doc:
        try:
            tree = RHst.from_json(doc)
        except (InvalidInputError, KeyError) as e:
            return _fail("tree invalid: %s" % e)
        print("tree ok: %d nodes, %d labels, r=%g"
              % (tree.num_nodes, tree.num_labels, tree.r))
        return EXIT_OK
    try:
        model = mdl.model_from_json(doc)
    except (InvalidInputError, KeyError, ValueError) as e:
        return _fail("problem invalid: %s" % e)
    potential = model.potential
    if isinstance(potential, mdl.DiversitySpec):
        report = validate_diversity_axioms(potential.diversity,
                                           model.num_labels)
        if report:
            for axiom, witness in report[:20]:
                print("violation: %s at %r" % (axiom, witness))
            return _fail("%d diversity axiom violations" % len(report))
    print("problem ok: %d variables, %d labels, %d cliques"
          % (model.num_variables, model.num_labels, len(model.cliques)))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="parsilab",
        description="Parsimonious labeling: high-order energy minimization "
                    "with diversity clique potentials.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--trees", "-k", type=int, default=10,
                       help="mixture size (number of random 2-HSTs)")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--report", help="write a solve report JSON here")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in the report "
                            "(off by default so fixed-seed runs are "
                            "byte-identical)")

    p = sub.add_parser("solve", help="solve a problem JSON file",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("problem", help="problem JSON path")
    p.add_argument("--labeling-out", help="write the labeling (text) here")
    p.add_argument("--oracle", action="store_true",
                   help="exhaustively verify the multiplicative bound "
                        "(small instances only)")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("synth-bench",
                       help="sweep clique weights on a synthetic lattice",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--csv", required=True, help="output CSV path")
    p.add_argument("--size", type=int, default=20, help="grid side length")
    p.add_argument("--labels", type=int, default=5)
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--truncation", type=int, default=5)
    p.add_argument("--trees", "-k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth_bench)

    p = sub.add_parser("stereo", help="stereo disparity estimation",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("left"), p.add_argument("right")
    p.add_argument("--out", required=True, help="disparity raster (PGM)")
    p.add_argument("--superpixels", help="region-id raster (PGM)")
    p.add_argument("--labels", type=int, default=16, help="disparity range")
    p.add_argument("--lam", type=float, default=20.0)
    p.add_argument("--truncation", type=int, default=10)
    p.add_argument("--sigma", type=float, default=100.0)
    p.add_argument("--unary-truncation", type=float, default=None)
    p.add_argument("--grad-threshold", type=float, default=8.0)
    p.add_argument("--w-low", type=float, default=1.0)
    p.add_argument("--w-high", type=float, default=2.0)
    p.add_argument("--block", type=int, default=8,
                   help="fallback superpixel tile size")
    common(p)
    p.set_defaults(func=cmd_stereo)

    p = sub.add_parser("inpaint", help="image inpainting / denoising",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("image", help="grayscale input (PGM)")
    p.add_argument("--mask", help="obscured-pixel mask (PGM, nonzero=hole)")
    p.add_argument("--out", required=True, help="restored raster (PGM)")
    p.add_argument("--superpixels", help="region-id raster (PGM)")
    p.add_argument("--labels", type=int, default=256)
    p.add_argument("--lam", type=float, default=40.0)
    p.add_argument("--truncation", type=int, default=40)
    p.add_argument("--sigma", type=float, default=10000.0)
    p.add_argument("--block", type=int, default=8)
    common(p)
    p.set_defaults(func=cmd_inpaint)

    p = sub.add_parser("validate",
                       help="check metric/diversity/tree axioms of an input")
    p.add_argument("input", help="problem or tree JSON path")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolverError as e:            # a failed runtime self-check
        return _fail("solver failure: %s" % e, EXIT_SOLVER)


if __name__ == "__main__":
    sys.exit(main())
