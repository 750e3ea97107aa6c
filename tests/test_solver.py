"""Hierarchical tree solve, mixture driver, and bound formulas."""

import gc
import math
import weakref

import numpy as np
import pytest

import parsilab
import reference
from parsilab import hst, solver
from conftest import (forks, random_cliques, random_diversity_model,
                      random_pn_potts_model, random_table_diversity)
from parsilab.expansion import alpha_expansion
from parsilab.hst import RHst, frt_embed
from parsilab.model import (Cliques, DiameterDiversity, EnergyModel,
                            InvalidInputError, LabelMetric)
from parsilab.oracle import exhaustive_minimize, model_to_pn_potts_instance
from parsilab.solver import (build_fusion_instance, pn_potts_bound, solve,
                             solve_hierarchical, solve_parsimonious,
                             theorem_bounds)


def _tree_model(tree, n, rng, num_cliques=2):
    unaries = rng.uniform(0, 3, size=(n, tree.num_labels))
    return EnergyModel(unaries, random_cliques(n, rng, num_cliques),
                       DiameterDiversity(tree.metric()))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bound_formula_small_clique():
    model = EnergyModel(np.zeros((5, 20)),
                        Cliques.from_lists([range(4)], [1.0]),
                        DiameterDiversity(
                            LabelMetric.truncated_linear(20, 1.0, 5)))
    bounds = theorem_bounds(model, r=2.0)
    assert bounds["hierarchical"] == 8.0
    assert bounds["general_diversity"] == pytest.approx(8.0 * math.log(20))
    assert bounds["log_base"] == "natural" and len(bounds) == 3


def test_bound_formula_large_clique():
    model = EnergyModel(np.zeros((100, 20)),
                        Cliques.from_lists([range(100)], [1.0]),
                        DiameterDiversity(
                            LabelMetric.truncated_linear(20, 1.0, 5)))
    assert theorem_bounds(model, r=2.0)["hierarchical"] == 40.0


def test_bound_formula_general_diversity():
    rng = np.random.default_rng(0)
    model = EnergyModel(np.zeros((5, 4)),
                        Cliques.from_lists([range(3)], [1.0]),
                        random_table_diversity(4, rng))
    assert theorem_bounds(model, r=2.0)["general_diversity"] \
        == pytest.approx(2.0 * 3 * math.log(4) * 3)


def test_bounds_count_only_weighted_cliques():
    """A clique of weight 0 costs nothing and no solver sees it, so the
    bounds are those of the model without it, however large it is."""
    for potential in (DiameterDiversity(
            LabelMetric.truncated_linear(20, 1.0, 5)),
            random_table_diversity(4, np.random.default_rng(1))):
        def bounds(members, weights):
            return theorem_bounds(EnergyModel(
                np.zeros((10, potential.num_labels)),
                Cliques.from_lists(members, weights), potential))
        with_zero = bounds([range(3), range(10)], [1.0, 0.0])
        assert with_zero == bounds([range(3)], [1.0])
        assert with_zero["hierarchical"] == 6.0


def test_bounds_without_weighted_cliques_read_zero():
    """Only cliques of weight 0: both tree bounds read 0, and every tree
    solve returns the unary optimum."""
    rng = np.random.default_rng(3)
    unaries = rng.uniform(0, 3, size=(6, 5))
    model = EnergyModel(unaries, Cliques.from_lists([range(6)], [0.0]),
                        DiameterDiversity(
                            LabelMetric.truncated_linear(5, 1.0, 3)))
    labeling, report = solve_parsimonious(model, k=3, seed=0)
    assert report.bounds == {"hierarchical": 0.0, "general_diversity": 0.0,
                             "log_base": "natural"}
    assert report.bound == 0.0
    np.testing.assert_array_equal(labeling, unaries.argmin(axis=1))
    assert report.component_energies == [unaries.min(axis=1).sum()] * 3


def test_bound_requires_separation():
    model = EnergyModel(np.zeros((2, 2)), Cliques.from_lists([], []),
                        DiameterDiversity(LabelMetric.truncated_linear(2, 1, 1)))
    with pytest.raises(InvalidInputError):
        theorem_bounds(model, r=1.0)


# ---------------------------------------------------------------------------
# fusion instance
# ---------------------------------------------------------------------------

def test_fusion_meta_potentials(reference_tree):
    """At the root, a child labeling uniform on the clique costs 0, one
    using both labels of a leaf cluster costs their distance 6, and the
    disagreement ceiling is the full-label diameter 18."""
    n = 4
    rng = np.random.default_rng(1)
    unaries = rng.uniform(0, 1, size=(n, 4))
    model = EnergyModel(unaries, Cliques.from_lists([range(n)], [1.0]),
                        DiameterDiversity(reference_tree.metric()))
    child1 = np.zeros(n, dtype=np.intp)
    child2 = np.array([2, 3, 2, 3], dtype=np.intp)
    inst = build_fusion_instance(model, reference_tree, [0],
                                 [[child1, child2]])
    assert len(inst.cliques) == 1
    np.testing.assert_allclose(inst.gamma[0], [0.0, 6.0])
    assert inst.gamma_max[0] == 18.0
    # meta-unaries read the original unaries through the child labelings
    np.testing.assert_allclose(inst.unaries[:, 0], unaries[:, 0])
    np.testing.assert_allclose(inst.unaries[:, 1],
                               unaries[np.arange(n), [2, 3, 2, 3]])


# ---------------------------------------------------------------------------
# hierarchical solve
# ---------------------------------------------------------------------------

def test_star_tree_reduces_to_one_expansion():
    """A root with only leaf children makes the tree solve a single sweep
    over the full label set with a two-valued potential."""
    h, n = 4, 6
    parents = [-1] + [0] * h
    tree = RHst(parents, [2.5] + [0.0] * h, [None] + list(range(h)))
    rng = np.random.default_rng(2)
    model = _tree_model(tree, n, rng)

    labeling, report = solve_hierarchical(model, tree)
    inst = build_fusion_instance(
        model, tree, [0],
        [[np.full(n, tree.leaf_label[v], dtype=np.intp)
          for v in range(1, h + 1)]])
    direct, _ = alpha_expansion(inst)
    assert report.energy == pytest.approx(model.evaluate_energy(direct))
    assert report.energy == pytest.approx(model.evaluate_energy(labeling))


def test_hierarchical_respects_bound(reference_tree):
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(3, 8))
        model = _tree_model(reference_tree, n, rng)
        labeling, report = solve_hierarchical(model, reference_tree)
        opt = exhaustive_minimize(model)
        limit = opt.unary_term + report.bound * opt.clique_term
        assert report.energy <= limit + 1e-9
        assert report.energy >= opt.energy - 1e-9
        assert report.bound == report.bounds["hierarchical"]


def test_tree_label_mismatch_rejected(reference_tree):
    model = EnergyModel(np.zeros((2, 3)), Cliques.from_lists([], []),
                        DiameterDiversity(LabelMetric.truncated_linear(3, 1, 2)))
    with pytest.raises(InvalidInputError):
        solve_hierarchical(model, reference_tree)


# ---------------------------------------------------------------------------
# mixture driver
# ---------------------------------------------------------------------------

def test_single_tree_mixture_matches_hierarchical(reference_tree):
    rng = np.random.default_rng(4)
    model = _tree_model(reference_tree, 5, rng)
    labeling, report = solve_parsimonious(model, k=1, seed=7)
    tree = next(iter(frt_embed(reference_tree.metric(), 1, 7)))
    direct, _ = solve_hierarchical(model, tree)
    np.testing.assert_array_equal(labeling, direct)
    assert report.num_trees == 1


def test_zero_weights_give_unary_argmin():
    rng = np.random.default_rng(5)
    unaries = rng.uniform(0, 3, size=(6, 4))
    metric = LabelMetric.truncated_linear(4, 1.0, 3)
    model = EnergyModel(unaries, Cliques.from_lists([[0, 1, 2]], [0.0]),
                        DiameterDiversity(metric))
    labeling, report = solve_parsimonious(model, k=3, seed=0)
    np.testing.assert_array_equal(labeling, unaries.argmin(axis=1))
    assert report.energy == pytest.approx(unaries.min(axis=1).sum())


def test_truncated_linear_solve_never_checks_the_metric(monkeypatch):
    """A truncated-linear metric is one by construction: neither the model
    nor the solve checks its axioms."""
    def refuse(self, tol=None):
        raise AssertionError("LabelMetric.check was called")

    monkeypatch.setattr(LabelMetric, "check", refuse)
    rng = np.random.default_rng(13)
    metric = LabelMetric.truncated_linear(12, 1.0, 4)
    model = EnergyModel(rng.uniform(0, 3, size=(6, 12)),
                        random_cliques(6, rng), DiameterDiversity(metric))
    labeling, report = solve_parsimonious(model, k=3, seed=0)
    assert report.energy == model.evaluate_energy(labeling)


def test_mixture_solve_holds_one_tree_at_a_time(monkeypatch):
    """Each tree, with its H x H metric, is freed once it is fused: when a
    tree is fused, no earlier one is still alive.  One worker fuses them
    all, in this process."""
    monkeypatch.setattr(solver, "_cpus", lambda: 1)
    fuse = solver.solve_hierarchical
    trees, alive = [], []

    def fuse_and_count(model, tree):
        gc.collect()
        alive.append(sum(ref() is not None for ref in trees))
        trees.append(weakref.ref(tree))
        return fuse(model, tree)

    monkeypatch.setattr(solver, "solve_hierarchical", fuse_and_count)
    metric = LabelMetric.truncated_linear(32, 1.0, 8)
    model = EnergyModel(np.random.default_rng(3).uniform(0, 3, size=(4, 32)),
                        Cliques.from_lists([range(4)], [1.0]),
                        DiameterDiversity(metric))
    solve_parsimonious(model, k=4, seed=0)
    assert alive == [0, 0, 0, 0]


@forks
def test_two_workers_each_hold_their_own_trees_only(monkeypatch):
    """With two workers this process fuses trees 0 and 2.  By then it has
    dropped the child's trees 1 and 3, and tree 0 is freed once fused."""
    monkeypatch.setattr(solver, "_cpus", lambda: 2)
    embed, fuse = hst.frt_embed, solver.solve_hierarchical
    refs, fused, alive = [], [], []

    def embed_and_watch(*args):
        trees = embed(*args)
        refs.extend(weakref.ref(tree) for tree in trees)
        return trees

    def fuse_and_look(model, tree):
        gc.collect()
        fused.append([ref() for ref in refs].index(tree))
        alive.append([t for t, ref in enumerate(refs) if ref() is not None])
        return fuse(model, tree)

    monkeypatch.setattr(hst, "frt_embed", embed_and_watch)
    monkeypatch.setattr(solver, "solve_hierarchical", fuse_and_look)
    metric = LabelMetric.truncated_linear(32, 1.0, 8)
    model = EnergyModel(np.random.default_rng(3).uniform(0, 3, size=(4, 32)),
                        Cliques.from_lists([range(4)], [1.0]),
                        DiameterDiversity(metric))
    solve_parsimonious(model, k=4, seed=0)
    assert fused == [0, 2]
    assert alive == [[0, 2], [2]]


def test_report_invariants():
    rng = np.random.default_rng(6)
    model = EnergyModel(rng.uniform(0, 3, size=(5, 3)),
                        random_cliques(5, rng),
                        random_table_diversity(3, rng))
    labeling, report = solve_parsimonious(model, k=4, seed=1)
    assert report.energy == min(report.component_energies)
    assert report.energy == pytest.approx(model.evaluate_energy(labeling))
    assert len(report.component_energies) == 4
    doc = report.to_json(include_timings=False)
    assert "timings" not in doc
    assert doc["bounds"]["log_base"] == "natural"


def test_mixture_respects_general_bound():
    rng = np.random.default_rng(8)
    for t in range(25):
        n = int(rng.integers(3, 7))
        h = int(rng.integers(2, 5))
        model = EnergyModel(rng.uniform(0, 3, size=(n, h)),
                            random_cliques(n, rng),
                            random_table_diversity(h, rng))
        labeling, report = solve_parsimonious(model, k=10, seed=t)
        opt = exhaustive_minimize(model)
        limit = opt.unary_term + report.bound * opt.clique_term
        assert report.energy <= limit + 1e-9
        assert report.bound == report.bounds["general_diversity"]


def test_pn_potts_potential_rejected_by_mixture():
    from parsilab.model import PnPottsSpec
    model = EnergyModel(np.zeros((2, 2)), Cliques.from_lists([], []),
                        PnPottsSpec([0, 0], 1.0))
    with pytest.raises(InvalidInputError):
        solve_parsimonious(model, k=1, seed=0)


# ---------------------------------------------------------------------------
# the solve entry point
# ---------------------------------------------------------------------------

def test_solve_runs_one_expansion_on_consistency_costs():
    rng = np.random.default_rng(11)
    for seed in range(5):
        model = random_pn_potts_model(rng)
        labeling, report = solve(model, k=3, seed=seed)
        instance = model_to_pn_potts_instance(model)
        direct, _ = alpha_expansion(instance)
        np.testing.assert_array_equal(labeling, direct)
        assert report.energy == model.evaluate_energy(direct)
        assert report.component_energies == [report.energy]
        assert report.bound == pn_potts_bound(model) \
            == reference.pn_potts_bound(instance)
        assert report.bounds == {"expansion": report.bound}
        assert (report.seed, report.num_trees) == (seed, 0)


def test_solve_runs_the_mixture_on_diversities():
    rng = np.random.default_rng(12)
    for seed in range(3):
        model = random_diversity_model(rng)
        labeling, report = solve(model, k=3, seed=seed)
        direct, direct_report = solve_parsimonious(model, k=3, seed=seed)
        np.testing.assert_array_equal(labeling, direct)
        assert report.to_json(include_timings=False) \
            == direct_report.to_json(include_timings=False)
        assert "expansion" not in report.bounds


def test_every_exported_name_resolves():
    for name in parsilab.__all__:
        assert getattr(parsilab, name) is not None, name
