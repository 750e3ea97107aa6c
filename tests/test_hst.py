"""Label trees: invariants, tree metrics, and the random embedding."""

import json
import math

import numpy as np
import pytest

from parsilab.hst import RHst, frt_embed
from parsilab.model import InvalidInputError, LabelMetric
from reference import random_rhst

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
    assert reference_tree.cluster_labels(0) == (0, 1, 2, 3)
    leaf = next(v for v in range(reference_tree.num_nodes)
                if reference_tree.leaf_label[v] == 1)
    assert reference_tree.cluster_labels(leaf) == (1,)
    assert reference_tree.cluster_labels(2) == (2, 3)


def test_reference_tree_potentials(reference_tree):
    assert reference_tree.hierarchical_pn_potts((0, 1, 2, 3)) == 18.0
    assert reference_tree.hierarchical_pn_potts((2, 3)) == 6.0
    assert reference_tree.hierarchical_pn_potts((1,)) == 0.0
    with pytest.raises(InvalidInputError):
        reference_tree.hierarchical_pn_potts(())


def test_potential_is_monotone(reference_tree):
    subsets = [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)]
    vals = [reference_tree.hierarchical_pn_potts(s) for s in subsets]
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


def test_tree_metric_is_a_valid_metric():
    for seed in range(5):
        tree = random_rhst(12, r=2.0, depth=4, seed=seed)
        assert tree.metric().check() is None
    big = random_rhst(33, r=2.0, depth=4, seed=99)
    assert big.metric().check() is None


def test_tree_json_roundtrip(reference_tree):
    doc = json.loads(json.dumps(reference_tree.to_json()))
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
