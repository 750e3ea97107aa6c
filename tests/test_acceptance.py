"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Each criterion prints its verdict directly to the terminal so the lines
survive pytest's output capture.
"""

import math
import time

import numpy as np
import pytest

from conftest import (random_diversity_model, random_pn_instance,
                      random_pn_potts_model, random_table_diversity)
from parsilab import cli
from parsilab.expansion import alpha_expansion, best_expansion_move, \
    pn_potts_bound
from parsilab.hst import frt_embed
from parsilab.model import (Cliques, DiameterDiversity, EnergyModel,
                            LabelMetric, save_model)
from parsilab.oracle import exhaustive_minimize, model_to_pn_potts_instance
from parsilab.solver import solve_hierarchical, solve_parsimonious, \
    theorem_bounds
from parsilab.tasks import (GridSpec, ImageTask, block_partition,
                            build_inpaint, build_stereo, generate_synthetic)
from reference import exhaustive_expansion_move, random_rhst

TOL = 1e-9


@pytest.fixture
def verdict(capfd):
    """Print one pass/fail line per criterion past pytest's capture."""
    def report(num, ok, detail):
        line = "criterion %d: %s (%s)" % (num, "PASS" if ok else "FAIL",
                                          detail)
        with capfd.disabled():
            print(line)
        assert ok, line
    return report


def test_criterion_1_move_space_exactness(verdict):
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        inst = random_pn_instance(rng, n_max=8, h_max=4, clique_max=4)
        current = rng.integers(0, inst.num_labels, size=inst.num_variables)
        alpha = int(rng.integers(0, inst.num_labels))
        move = best_expansion_move(inst, current, alpha)
        oracle = exhaustive_expansion_move(inst, current, alpha)
        if abs(inst.evaluate(move) - inst.evaluate(oracle)) > TOL:
            mismatches += 1
    elapsed = time.perf_counter() - start
    verdict(1, mismatches == 0 and elapsed < 60.0,
             "1000 instances, %d mismatches, %.1fs" % (mismatches, elapsed))


def test_criterion_2_consistency_cost_bound(verdict):
    rng = np.random.default_rng(101)
    violations = 0
    for _ in range(500):
        model = random_pn_potts_model(rng, n_max=8, h_max=4)
        inst = model_to_pn_potts_instance(model)
        labeling, _ = alpha_expansion(inst)
        opt = exhaustive_minimize(model)
        limit = opt.unary_term + pn_potts_bound(inst) * opt.clique_term
        if inst.evaluate(labeling) > limit + TOL:
            violations += 1
    verdict(2, violations == 0, "500 instances, %d violations" % violations)


def test_criterion_3_hierarchical_bound(verdict):
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    violations = 0
    for t in range(500):
        n = int(rng.integers(3, 9))
        h = int(rng.integers(2, 5))
        tree = random_rhst(h, r=2.0, depth=int(rng.integers(2, 4)), seed=t)
        unaries = rng.uniform(0, 3, size=(n, h))
        members, weights = [], []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(2, min(n, 5) + 1))
            members.append(rng.choice(n, size=size, replace=False))
            weights.append(float(rng.uniform(0.3, 2.0)))
        cliques = Cliques.from_lists(members, weights)
        model = EnergyModel(unaries, cliques,
                            DiameterDiversity(tree.metric()))
        _, report = solve_hierarchical(model, tree)
        opt = exhaustive_minimize(model)
        limit = opt.unary_term + report.bound_hierarchical * opt.clique_term
        if report.energy > limit + TOL:
            violations += 1
    elapsed = time.perf_counter() - start
    verdict(3, violations == 0 and elapsed < 300.0,
             "500 instances, %d violations, %.1fs" % (violations, elapsed))


def test_criterion_4_general_diversity_bound(verdict):
    rng = np.random.default_rng(11)
    violations = 0
    for t in range(500):
        model = random_diversity_model(rng, n_max=8, h_max=4)
        _, report = solve_parsimonious(model, k=10, seed=t)
        opt = exhaustive_minimize(model)
        limit = opt.unary_term + report.bound_general * opt.clique_term
        if report.energy > limit + TOL:
            violations += 1
    verdict(4, violations == 0, "500 instances, k=10, %d violations"
             % violations)


def test_criterion_5_diameter_sandwich(verdict):
    rng = np.random.default_rng(104)
    diversities = []
    for h in (2, 4, 6, 8, 10):
        pts = rng.uniform(0, 10, size=(h, 3))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        diversities.append(DiameterDiversity(LabelMetric(d)))
        diversities.append(
            DiameterDiversity(LabelMetric.truncated_linear(h, 1.0, max(2, h // 2))))
    for h in (3, 4, 5, 6):
        diversities.append(random_table_diversity(h, rng))

    worst = 0.0
    failures = 0
    for div in diversities:
        h = div.num_labels
        dia = DiameterDiversity(div.induced_metric())
        for mask in range(1, 1 << h):
            subset = tuple(i for i in range(h) if mask >> i & 1)
            lo = dia.value(subset)
            hi = max(1, len(subset) - 1) * lo
            v = div.value(subset)
            if not (lo - TOL <= v <= hi + TOL):
                failures += 1
                worst = max(worst, lo - v, v - hi)
    verdict(5, failures == 0,
             "%d diversities, exhaustive subsets, %d failures"
             % (len(diversities), failures))


def test_criterion_6_embedding_dominance_and_distortion(verdict):
    rng = np.random.default_rng(105)
    dominance_failures = 0
    distortion_failures = 0
    for trial in range(100):
        h = int(rng.integers(2, 21))
        pts = rng.uniform(0, 50, size=(h, 3))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        mix = frt_embed(LabelMetric(d), k=64, seed=trial)
        mask = d > 0
        ratios = []
        for tree in mix:
            dt = tree.metric().matrix
            if not np.all(dt >= d - TOL):
                dominance_failures += 1
            ratios.append(dt[mask] / d[mask])
        if float(np.mean(ratios)) > 8.0 * math.log(h):
            distortion_failures += 1
    verdict(6, dominance_failures == 0 and distortion_failures == 0,
             "100 metrics x 64 trees, %d dominance / %d distortion failures"
             % (dominance_failures, distortion_failures))


def test_criterion_7_weight_sweep_behavior(verdict):
    weights = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 100.0]
    monotone_failures = 0
    collapse_failures = 0
    for seed in range(10):
        energies = []
        for wc in weights:
            spec = GridSpec(width=20, height=20, num_labels=5, window=4,
                            clique_weight=wc, seed=seed, lam=1.0,
                            truncation=5)
            model = generate_synthetic(spec)
            labeling, report = solve_parsimonious(model, k=2, seed=seed)
            energies.append(report.energy)
            if wc == 100.0 and len(set(int(x) for x in labeling)) != 1:
                collapse_failures += 1
        if any(b < a - TOL for a, b in zip(energies, energies[1:])):
            monotone_failures += 1
    verdict(7, monotone_failures == 0 and collapse_failures == 0,
             "seeds 0-9, %d monotonicity / %d collapse failures"
             % (monotone_failures, collapse_failures))


def _planted_stereo(height, width, shift, num_labels, rng):
    right = rng.integers(0, 255, size=(height, width, 3)).astype(float)
    left = np.empty_like(right)
    left[:, shift:] = right[:, :width - shift]
    left[:, :shift] = right[:, :1]      # border columns tie toward the shift
    return ImageTask(kind="stereo", left=left, right=right,
                     num_labels=num_labels, lam=2.0, truncation=2,
                     superpixels=block_partition(height, width, 4))


def test_criterion_8_image_tasks(verdict):
    rng = np.random.default_rng(106)

    # planted-shift stereo at 16x16
    task = _planted_stereo(16, 16, shift=2, num_labels=4, rng=rng)
    model = build_stereo(task)
    labeling, _ = solve_parsimonious(model, k=4, seed=0)
    recovered = float(np.mean(np.asarray(labeling) == 2))

    # downscaled stereo against the exhaustive optimum
    small = _planted_stereo(3, 3, shift=1, num_labels=3, rng=rng)
    small.superpixels = block_partition(3, 3, 3)
    small_model = build_stereo(small)
    _, small_report = solve_parsimonious(small_model, k=4, seed=0)
    small_opt = exhaustive_minimize(small_model)
    small_limit = (small_opt.unary_term
                   + small_report.bound_general * small_opt.clique_term)
    stereo_bound_ok = small_report.energy <= small_limit + TOL

    # constant-image inpainting fills the hole exactly
    img = np.full((8, 8), 9, dtype=np.uint8)
    mask = np.zeros((8, 8), dtype=bool)
    mask[3:6, 3:6] = True
    task = ImageTask(kind="inpaint", image=img, mask=mask, num_labels=16,
                     lam=1.0, truncation=4,
                     superpixels=block_partition(8, 8, 4))
    fill_model = build_inpaint(task)
    fill, fill_report = solve_parsimonious(fill_model, k=2, seed=0)
    filled_exactly = bool(np.all(np.asarray(fill) == 9))

    # downscaled inpainting against the exhaustive optimum
    img = np.full((3, 3), 2, dtype=np.uint8)
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = True
    task = ImageTask(kind="inpaint", image=img, mask=mask, num_labels=4,
                     lam=1.0, truncation=2,
                     superpixels=block_partition(3, 3, 3))
    tiny_model = build_inpaint(task)
    _, tiny_report = solve_parsimonious(tiny_model, k=4, seed=0)
    tiny_opt = exhaustive_minimize(tiny_model)
    inpaint_oracle_ok = abs(tiny_report.energy - tiny_opt.energy) <= TOL

    ok = (recovered >= 0.95 and stereo_bound_ok and filled_exactly
          and inpaint_oracle_ok)
    verdict(8, ok,
             "stereo %.0f%% planted shift, bound_ok=%s, hole filled=%s, "
             "downscaled oracle ok=%s"
             % (100 * recovered, stereo_bound_ok, filled_exactly,
                inpaint_oracle_ok))


def test_criterion_9_determinism(tmp_path, verdict):
    rng = np.random.default_rng(107)
    div = random_table_diversity(3, rng)
    model = EnergyModel(rng.uniform(0, 4, size=(6, 3)),
                        Cliques.from_lists([[0, 1, 2], [3, 4, 5]],
                                           [1.0, 0.5]),
                        div)
    problem = tmp_path / "problem.json"
    save_model(model, problem)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    c1 = cli.main(["solve", str(problem), "--seed", "5", "--report", str(r1)])
    c2 = cli.main(["solve", str(problem), "--seed", "5", "--report", str(r2)])
    identical = r1.read_bytes() == r2.read_bytes()
    verdict(9, c1 == 0 and c2 == 0 and identical,
             "two runs, byte-identical=%s" % identical)
