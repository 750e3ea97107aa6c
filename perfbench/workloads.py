"""Benchmark workloads: seeded inputs, the CLI call that solves them, and
the correctness gate applied to what that call wrote.

Each workload writes its inputs into a work directory and returns a Case
whose ``argv`` is handed to ``parsilab.cli.main`` exactly as a user would
type it after ``parsilab``.  Every CLI parameter is passed explicitly, so a
change of a CLI default does not silently change a workload, and the
benchmark builds its own reference model from the same inputs to re-check
the reported energy.

The tree seed given to the CLI is fixed, so every run solves over the
same random trees and run-to-run spread measures the code and the machine
rather than the shape of a random tree.  The workload seed draws the data
of lattice; the other workloads use one fixed draw that the seed turns into
one of its symmetric variants (see their docstrings).
"""

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from parsilab import model as mdl
from parsilab import tasks

TREE_SEED = "0"
RASTER_SETUP = {"tasks.read_raster", "tasks.build_stereo",
                "tasks.build_inpaint"}
ORACLE = "oracle.model_to_pn_potts_instance"   # consistency-cost models only
FUSION = {"solver.solve_parsimonious", "solver.solve_hierarchical",
          "solver.build_fusion_instance", "hst.frt_embed"}
ENERGY_RTOL = 1e-9
STEREO_MIN_RECOVERED = 0.95

# Generator parameters of each workload at benchmark size.  The smoke test
# passes smaller values through the same keyword arguments.
PARAMS = {
    "lattice": {"side": 40, "labels": 5, "window": 4, "trees": 2},
    "stereo": {"side": 16, "labels": 16, "block": 8, "trees": 2},
    "pnpotts": {"side": 24, "labels": 8, "window": 4},
    "inpaint-h256": {"side": 6, "labels": 256, "block": 3, "trees": 2},
}

def _no_checks(labeling, energy):
    return []


@dataclass
class Case:
    """One prepared solve: CLI arguments plus what the gate checks against."""
    argv: list
    model: mdl.EnergyModel          # reference model built by the benchmark
    report: Path
    output: Path
    read_output: Callable           # output file -> array the CLI wrote
    encode: Callable                # labeling -> array the CLI should write
    extra_checks: Callable          # (labeling, energy) -> problems
    unreached: frozenset            # traced layers this CLI call never calls

    def clear_outputs(self):
        """Delete the previous solve's files so a stale one cannot pass."""
        self.report.unlink(missing_ok=True)
        self.output.unlink(missing_ok=True)

    def read_result(self):
        """(labeling, reported energy, written output) of the last solve."""
        with open(self.report) as f:
            doc = json.load(f)
        return (np.asarray(doc["labeling"]), float(doc["energy"]),
                self.read_output(self.output))

    def check(self, code, result):
        """Problems found in one solve; an empty list means it passed.

        ``result`` is what ``read_result`` returned after the solve.
        """
        if code != 0:
            return ["exit code %r" % (code,)]
        labeling, energy, written = result
        model = self.model
        if labeling.dtype.kind not in "iu":
            return ["labeling is not a list of integers"]
        if labeling.shape != (model.num_variables,):
            return ["labeling has %d entries, expected %d"
                    % (labeling.size, model.num_variables)]
        if labeling.min() < 0 or labeling.max() >= model.num_labels:
            return ["label out of range 0..%d" % (model.num_labels - 1)]
        problems = []
        if not np.array_equal(written, self.encode(labeling)):
            problems.append(
                "written output does not match the report's labeling")
        recheck = model.evaluate_energy(labeling)
        if not abs(recheck - energy) <= ENERGY_RTOL * abs(recheck):
            problems.append("reported energy %r, labeling evaluates to %r"
                            % (energy, recheck))
        return problems + self.extra_checks(labeling, recheck)


def _symmetry(grid, seed):
    """The seed's choice among the eight rotations and reflections of a
    square grid (axes 0 and 1).  The cliques of the workloads that use it
    map onto themselves under each of these, so a symmetry renumbers the
    variables of one problem without changing its energies or its work."""
    grid = np.rot90(grid, seed % 4)
    if seed // 4 % 2:
        grid = grid.swapaxes(0, 1)
    return np.ascontiguousarray(grid)


# ---------------------------------------------------------------------------
# problem-file workloads: `parsilab solve`
# ---------------------------------------------------------------------------

def _read_labels(path):
    return np.loadtxt(path, dtype=np.int64, ndmin=1)


def _solve_case(model, workdir, extra_args, unreached,
                extra_checks=_no_checks):
    problem = workdir / "problem.json"
    mdl.save_model(model, problem)
    report = workdir / "report.json"
    labels = workdir / "labels.txt"
    argv = ["solve", str(problem), *extra_args, "--seed", TREE_SEED,
            "--report", str(report), "--labeling-out", str(labels)]
    return Case(argv, model, report, labels, _read_labels, lambda lab: lab,
                extra_checks, frozenset(RASTER_SETUP | unreached))


def prepare_lattice(seed, workdir, side, labels, window, trees):
    """Synthetic lattice: uniform unaries, overlapping window cliques,
    diameter diversity of a truncated linear metric."""
    spec = tasks.GridSpec(width=side, height=side, num_labels=labels,
                          window=window, clique_weight=1.0, seed=seed,
                          lam=1.0, truncation=5)
    return _solve_case(tasks.generate_synthetic(spec), workdir,
                       ["-k", str(trees)], {ORACLE})


def prepare_pnpotts(seed, workdir, side, labels, window):
    """Consistency-cost lattice: U(0,10) unaries, gamma ~ U(0,2) and
    gamma_max = max gamma + 4 on every window clique, drawn once and
    turned by the seed into one of its eight rotations and reflections.

    Drawing the data per seed would make expansion run 2 to 4 sweeps
    depending on the draw, so wall time would swing by up to 2x between
    seeds; every symmetry runs the same sweeps on renumbered variables.
    """
    rng = np.random.default_rng(0)
    unaries = rng.uniform(0.0, 10.0, size=(side, side, labels))
    gamma = rng.uniform(0.0, 2.0, size=labels)
    unaries = _symmetry(unaries, seed).reshape(side * side, labels)
    cliques = tasks.window_cliques(side, side, window, 1, 1.0)
    model = mdl.EnergyModel(unaries, cliques,
                            mdl.PnPottsSpec(gamma, gamma.max() + 4.0))
    zero_energy = model.evaluate_energy(np.zeros(side * side, dtype=np.int64))

    def descends(labeling, energy):
        # expansion starts from the all-zero labeling and only descends
        if energy > zero_energy:
            return ["energy %r above the all-zero labeling's %r"
                    % (energy, zero_energy)]
        return []

    return _solve_case(model, workdir, [], FUSION, descends)


# ---------------------------------------------------------------------------
# raster workloads: `parsilab stereo` and `parsilab inpaint`
# ---------------------------------------------------------------------------

def _blocks(side, block):
    """Region-id raster of block x block tiles."""
    tile = np.arange(side) // block
    per_row = (side + block - 1) // block
    return (tile[:, None] * per_row + tile[None, :]).astype(np.uint8)


def _raster_case(argv, model, workdir, side, labels, other_build,
                 extra_checks=_no_checks):
    report = workdir / "report.json"
    output = workdir / "out.pgm"
    argv = argv + ["--out", str(output), "--seed", TREE_SEED,
                   "--report", str(report)]

    def encode(labeling):
        # the CLI scales label indices onto 0..255 for display
        return (labeling.reshape(side, side) * 255 // (labels - 1)
                ).astype(np.uint8)

    return Case(argv, model, report, output, tasks.read_raster, encode,
                extra_checks,
                frozenset({"model.load_model", ORACLE, other_build}))


STEREO_MODEL = {"lam": 20.0, "truncation": 10, "sigma": 100.0,
                "grad_threshold": 8.0, "w_low": 1.0, "w_high": 2.0}


def prepare_stereo(seed, workdir, side, labels, block, trees):
    """Planted two-layer scene: uniform random right image; the left image
    is it shifted by disparity 2, except a central square shifted by 6,
    plus N(0, 8) noise.  Drawn once and turned by the seed into one of 12
    variants: the rows upside down or not, times the 6 orders of the colour
    channels.

    Fresh draws change the number of cuts and flow-graph arcs by up to 7%
    between seeds.  The unaries sum over the channels and the pairwise
    weights use their mean, and the planted square and the blocks are
    centred, so every variant poses the same problem.
    """
    rng = np.random.default_rng(0)
    right = rng.integers(0, 256, size=(side, side, 3))
    truth = np.full((side, side), 2)
    q = side // 4
    truth[q:side - q, q:side - q] = 6
    source = np.clip(np.arange(side)[None, :] - truth, 0, side - 1)
    left = right[np.arange(side)[:, None], source] \
        + rng.normal(0.0, 8.0, size=(side, side, 3))
    left = np.clip(np.rint(left), 0, 255).astype(np.uint8)
    right = right.astype(np.uint8)
    channels = list(itertools.permutations(range(3)))[seed % 6]
    left, right = left[:, :, channels], right[:, :, channels]
    if seed // 6 % 2:
        left, right, truth = left[::-1], right[::-1], truth[::-1]
    regions = _blocks(side, block)
    paths = [workdir / name for name in ("left.ppm", "right.ppm", "sp.pgm")]
    for path, image in zip(paths, (left, right, regions)):
        tasks.write_raster(path, image)

    m = STEREO_MODEL
    model = tasks.build_stereo(tasks.ImageTask(
        kind="stereo", left=left, right=right,
        superpixels=regions.astype(np.int64), num_labels=labels, **m))
    argv = ["stereo", str(paths[0]), str(paths[1]),
            "--superpixels", str(paths[2]), "--labels", str(labels),
            "--lam", repr(m["lam"]), "--truncation", str(m["truncation"]),
            "--sigma", repr(m["sigma"]),
            "--grad-threshold", repr(m["grad_threshold"]),
            "--w-low", repr(m["w_low"]), "--w-high", repr(m["w_high"]),
            "-k", str(trees)]
    truth = truth.reshape(-1)

    def recovers_truth(labeling, energy):
        share = float(np.mean(labeling == truth))
        if share < STEREO_MIN_RECOVERED:
            return ["planted disparity recovered on %.1f%% of pixels"
                    % (100 * share)]
        return []

    return _raster_case(argv, model, workdir, side, labels,
                        "tasks.build_inpaint", recovers_truth)


INPAINT_MODEL = {"lam": 4.0, "truncation": 40, "sigma": 10000.0}


def prepare_inpaint(seed, workdir, side, labels, block, trees):
    """Horizontal intensity ramp plus N(0, 6) noise with a central hole,
    turned by the seed into one of its eight rotations and reflections.

    The noise is drawn once, not per seed: at H=256 the energy a solve
    reaches swings by 20-30% between noise draws of so small an image, far
    beyond any bound on the energy metric.  The symmetries map the grid,
    the blocks and the centred hole onto themselves.
    """
    ramp = np.linspace(0.25, 0.75, side) * (labels - 1)
    noise = np.random.default_rng(0).normal(0.0, 6.0, size=(side, side))
    image = np.clip(np.rint(ramp[None, :] + noise), 0, 255).astype(np.uint8)
    image = _symmetry(image, seed)
    hole = max(2, side // 4)
    hole += (side - hole) % 2           # centred, so symmetric
    q = (side - hole) // 2
    mask = np.zeros((side, side), dtype=bool)
    mask[q:q + hole, q:q + hole] = True
    regions = _blocks(side, block)
    paths = [workdir / name for name in ("image.pgm", "mask.pgm", "sp.pgm")]
    for path, raster in zip(paths, (image, mask.astype(np.uint8) * 255,
                                    regions)):
        tasks.write_raster(path, raster)

    m = INPAINT_MODEL
    model = tasks.build_inpaint(tasks.ImageTask(
        kind="inpaint", image=image, mask=mask,
        superpixels=regions.astype(np.int64), num_labels=labels, **m))
    argv = ["inpaint", str(paths[0]), "--mask", str(paths[1]),
            "--superpixels", str(paths[2]), "--labels", str(labels),
            "--lam", repr(m["lam"]), "--truncation", str(m["truncation"]),
            "--sigma", repr(m["sigma"]), "-k", str(trees)]
    return _raster_case(argv, model, workdir, side, labels,
                        "tasks.build_stereo")


PREPARE = {
    "lattice": prepare_lattice,
    "stereo": prepare_stereo,
    "pnpotts": prepare_pnpotts,
    "inpaint-h256": prepare_inpaint,
}


def prepare(name, seed, workdir, params=None):
    """Write the inputs of one workload and return its Case."""
    return PREPARE[name](seed, Path(workdir), **(params or PARAMS[name]))
