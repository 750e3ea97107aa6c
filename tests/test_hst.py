"""Label trees: invariants, tree metrics, and the random embedding."""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from parsilab import hst
from parsilab.hst import RHst, frt_embed
from parsilab.model import (DiameterDiversity, InvalidInputError,
                            LabelMetric)
from reference import random_rhst, tree_to_json

# mean distortion of the k=64 embedding of TruncatedLinear(1, 20) on 20
# labels at seed 0, measured once (4.94) and frozen with a little slack
# (ceiling: 8 ln 20 ~ 23.97)
FROZEN_MEAN_DISTORTION = 5.0


# ---------------------------------------------------------------------------
# tree structure and metric
# ---------------------------------------------------------------------------

def test_reference_tree_distances(reference_tree):
    m = reference_tree.metric().matrix
    assert m[0, 2] == 18.0
    assert m[0, 1] == 6.0
    assert m[3, 3] == 0.0


def test_reference_tree_clusters(reference_tree):
    """A node's diameter spans the labels below it: 18 across the root's
    two clusters, 6 within {0, 1} or {2, 3}, 0 at a leaf."""
    assert reference_tree.order == (0, 1, 2, 3, 4, 5, 6)
    assert reference_tree.diameter(0) == 18.0
    assert reference_tree.diameter(1) == reference_tree.diameter(2) == 6.0
    leaf = next(v for v in range(reference_tree.num_nodes)
                if reference_tree.leaf_label[v] == 1)
    assert reference_tree.diameter(leaf) == 0.0


def test_reference_tree_potentials(reference_tree):
    potential = DiameterDiversity(reference_tree.metric())
    assert potential.value((0, 1, 2, 3)) == 18.0
    assert potential.value((2, 3)) == 6.0
    assert potential.value((1,)) == 0.0
    with pytest.raises(InvalidInputError):
        potential.value(())


def test_potential_is_monotone(reference_tree):
    subsets = [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)]
    potential = DiameterDiversity(reference_tree.metric())
    vals = [potential.value(s) for s in subsets]
    assert vals == sorted(vals)


def test_invalid_trees_rejected():
    with pytest.raises(InvalidInputError):        # two roots
        RHst([-1, -1], [1.0, 1.0], [0, 1])
    with pytest.raises(InvalidInputError):        # ratio below r
        RHst([-1, 0, 0, 1, 1], [2.0, 1.5, 0.0, 0.0, 0.0],
             [None, None, 2, 0, 1], r=2.0)
    with pytest.raises(InvalidInputError):        # duplicate leaf label
        RHst([-1, 0, 0], [1.0, 0.0, 0.0], [None, 0, 0])
    with pytest.raises(InvalidInputError):        # negative edge
        RHst([-1, 0, 0], [-1.0, 0.0, 0.0], [None, 0, 1])
    with pytest.raises(InvalidInputError):        # parent out of range
        RHst([-1, 5], [1.0, 0.0], [None, 0])
    with pytest.raises(InvalidInputError):        # fractional parent
        RHst([-1, 0.7, 0], [1.0, 0.0, 0.0], [None, 0, 1])
    with pytest.raises(InvalidInputError):        # fractional label
        RHst([-1, 0, 0], [1.0, 0.0, 0.0], [None, 0, 1.5])
    with pytest.raises(InvalidInputError):        # no nodes
        RHst([], [], [])
    with pytest.raises(InvalidInputError):        # one edge length, 3 nodes
        RHst([-1, 0, 0], [1.0], [None, 0, 1])
    with pytest.raises(InvalidInputError):        # one edge length, 5 nodes
        RHst([-1, 0, 1, 1, 0], [4.0], [None, None, 0, 1, 2])
    with pytest.raises(InvalidInputError):        # a label missing
        RHst([-1, 0, 0], [1.0, 0.0, 0.0], [None, 0])
    with pytest.raises(InvalidInputError):        # node 0 on a cycle
        RHst([1, 0, 0], [1.0, 1.0, 0.0], [None, None, 0])


def test_each_tree_is_walked_once(reference_tree):
    """Building a tree walks it once, parents first; its check reads that
    walk instead of walking again."""
    doc = tree_to_json(reference_tree)
    with mock.patch.object(hst, "_parents_first",
                           wraps=hst._parents_first) as walk:
        tree = RHst.from_json(doc)
        assert tree.check() is None
    assert walk.call_count == 1
    assert tree.order == reference_tree.order


@pytest.mark.parametrize("scale", [1.0, 1e-13, 1e13])
def test_factor_r_check_does_not_depend_on_the_scale(scale):
    """An edge as long as its parent's breaks the factor-r decrease at
    every scale, and one exactly 1/r of it keeps it at every scale."""
    with pytest.raises(InvalidInputError, match="factor r"):
        RHst([-1, 0, 1, 1, 0], [scale, scale, 0.0, 0.0, 0.0],
             [None, None, 0, 1, 2])
    tree = RHst([-1, 0, 1, 1, 0], [scale, scale / 2, 0.0, 0.0, 0.0],
                [None, None, 0, 1, 2])
    assert tree.check() is None


@pytest.mark.parametrize("exponent", [-12, 0, 12])
def test_embed_trees_of_scaled_costs_pass_the_check(exponent):
    """FRT trees are built at the input metric's scale; with every cost
    scaled by 10^exponent they still pass check(), with the same shape."""
    rng = np.random.default_rng(11)
    for trial in range(5):
        h = int(rng.integers(2, 30))
        pts = rng.uniform(0, 10, size=(h, 2))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        for plain, scaled in zip(
                frt_embed(LabelMetric(d), k=4, seed=trial),
                # unchecked: the axiom check's tolerance is absolute
                frt_embed(LabelMetric(d * 10.0 ** exponent, validate=False),
                          k=4, seed=trial)):
            assert scaled.check() is None
            assert scaled.parents == plain.parents


def test_tree_metric_is_a_valid_metric():
    for seed in range(5):
        tree = random_rhst(12, r=2.0, depth=4, seed=seed)
        assert tree.metric().check() is None
    big = random_rhst(33, r=2.0, depth=4, seed=99)
    assert big.metric().check() is None


def test_tree_json_roundtrip(reference_tree):
    doc = json.loads(json.dumps(tree_to_json(reference_tree)))
    assert "nodes" in doc
    back = RHst.from_json(doc)
    assert back.num_nodes == reference_tree.num_nodes
    np.testing.assert_allclose(back.metric().matrix,
                               reference_tree.metric().matrix)


# ---------------------------------------------------------------------------
# random embedding
# ---------------------------------------------------------------------------

def test_embed_single_label():
    mix = frt_embed(LabelMetric(np.zeros((1, 1))), k=3, seed=0)
    for tree in mix:
        assert tree.num_labels == 1
        assert tree.num_nodes == 1


def test_embed_two_points():
    m = LabelMetric(np.array([[0.0, 5.0], [5.0, 0.0]]))
    mix = frt_embed(m, k=16, seed=1)
    for tree in mix:
        dt = tree.metric().matrix[0, 1]
        assert dt >= 5.0 - 1e-12
        assert dt <= 20.0 + 1e-12


def test_embed_rejects_degenerate_metric():
    with pytest.raises(InvalidInputError):
        frt_embed(LabelMetric(np.zeros((3, 3)), validate=False), k=2, seed=0)


@pytest.mark.parametrize("largest", [1e302, 1.7e300])
def test_embed_rejects_overflowing_distance_ratio(largest):
    """1e302 over 1e-8 overflows a double; 1.7e300 over 1e-8 does not,
    but no level radius beta * 2^(i-1) that is a double reaches it."""
    d = np.full((3, 3), largest)
    d[0, 1] = d[1, 0] = 1e-8
    np.fill_diagonal(d, 0.0)
    with pytest.raises(InvalidInputError, match="2\\^1023"):
        frt_embed(LabelMetric(d), k=1, seed=0)


def test_embed_refuses_more_than_4096_labels_before_any_h_by_h_array():
    """4097 labels are refused before the embedding builds an H x H array,
    which would take 128 MiB of doubles."""
    metric = LabelMetric.truncated_linear(hst.MAX_EMBED_LABELS + 1, 1.0, 4)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError, match="4097 labels, at most "
                           "4096"):
            frt_embed(metric, k=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_embed_trees_pass_invariants_and_dominate():
    rng = np.random.default_rng(10)
    for trial in range(10):
        h = int(rng.integers(2, 13))
        pts = rng.uniform(0, 10, size=(h, 3))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        mix = frt_embed(LabelMetric(d), k=8, seed=trial)
        assert len(mix) == 8
        for tree in mix:
            assert tree.r == 2.0
            assert tree.check() is None
            assert np.all(tree.metric().matrix >= d - 1e-9)


def test_embed_scales_the_metric_once_for_all_trees():
    """Every tree reads the one scaled H x H array, built before the
    first tree: at H = 4096 another would take 128 MiB per tree."""
    seen = []

    def recorder(dist, rng, scale):
        seen.append(dist)
        return frt_tree(dist, rng, scale)

    frt_tree = hst._frt_tree
    metric = LabelMetric.truncated_linear(9, 2.0, 6)
    with mock.patch.object(hst, "_frt_tree", recorder):
        frt_embed(metric, k=4, seed=5)
    assert len(seen) == 4 and all(d is seen[0] for d in seen)
    np.testing.assert_array_equal(seen[0], metric.matrix / 2.0)


def test_embed_determinism():
    m = LabelMetric.truncated_linear(7, 1.0, 4)
    a = frt_embed(m, k=4, seed=42)
    b = frt_embed(m, k=4, seed=42)
    for ta, tb in zip(a, b):
        np.testing.assert_allclose(ta.metric().matrix, tb.metric().matrix)
    c = frt_embed(m, k=4, seed=43)
    assert any(not np.allclose(ta.metric().matrix, tc.metric().matrix)
               for ta, tc in zip(a, c))


def test_embed_mean_distortion():
    m = LabelMetric.truncated_linear(20, 1.0, 20)
    mix = frt_embed(m, k=64, seed=0)
    d = m.matrix
    mask = d > 0
    ratios = [tree.metric().matrix[mask] / d[mask] for tree in mix]
    mean = float(np.mean(ratios))
    assert mean <= 8.0 * math.log(20)
    assert mean <= FROZEN_MEAN_DISTORTION
