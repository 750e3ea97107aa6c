"""Property tests: every fast path against its plain reference version.

The references live in tests/reference.py.  Costs are drawn both from a
small grid, so that ties between moves and labelings are common, and as
arbitrary floats.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from parsilab import expansion, hst, tasks
from conftest import pn_instance
from parsilab.expansion import alpha_expansion, best_expansion_move
from parsilab.model import (Cliques, DiameterDiversity, Diversity,
                            EnergyModel, ExplicitTableDiversity, LabelMetric,
                            PnPottsSpec)
from parsilab.solver import build_fusion_instance
from reference import exhaustive_expansion_move, random_rhst

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

costs = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]) \
    | st.floats(0.0, 5.0, allow_nan=False)
weights = st.sampled_from([0.0, 0.5, 1.0, 2.0]) \
    | st.floats(0.0, 2.0, allow_nan=False)


@st.composite
def pn_instances(draw, labels=None, max_vars=7, clique_size=None):
    """Random consistency-cost instances; clique_size fixes the number of
    members of every clique."""
    n = draw(st.integers(clique_size or 1, max_vars))
    h = labels or draw(st.integers(2, 4))
    unaries = np.reshape(draw(st.lists(costs, min_size=n * h,
                                       max_size=n * h)), (n, h))
    cliques = []
    for _ in range(draw(st.integers(0, 4))):
        members = draw(st.lists(st.integers(0, n - 1),
                                min_size=clique_size or 1,
                                max_size=clique_size or min(n, 4),
                                unique=True))
        gamma = draw(st.lists(costs, min_size=h, max_size=h))
        gap = draw(st.sampled_from([0.1, 0.5, 1.0, 3.0]))
        cliques.append((members, gamma, max(gamma) + gap, draw(weights)))
    return pn_instance(unaries, cliques)


def labelings(instance):
    return st.lists(st.integers(0, instance.num_labels - 1),
                    min_size=instance.num_variables,
                    max_size=instance.num_variables).map(np.array)


@SETTINGS
@given(st.data())
def test_evaluate_matches_clique_loop(data):
    inst = data.draw(pn_instances())
    labeling = data.draw(labelings(inst))
    assert inst.evaluate(labeling) == reference.evaluate(inst, labeling)


@SETTINGS
@given(st.data())
def test_move_matches_clique_by_clique_build(data):
    inst = data.draw(pn_instances())
    current = data.draw(labelings(inst))
    alpha = data.draw(st.integers(0, inst.num_labels - 1))
    np.testing.assert_array_equal(
        best_expansion_move(inst, current, alpha),
        reference.best_expansion_move(inst, current, alpha))


@SETTINGS
@given(st.data())
def test_pairwise_move_matches_gadget_build_and_enumeration(data):
    """With two-member cliques no clique of a move has more than two
    movers, so the move network holds only unaries and pairwise arcs."""
    inst = data.draw(pn_instances(clique_size=2))
    current = data.draw(labelings(inst))
    alpha = data.draw(st.integers(0, inst.num_labels - 1))
    move = best_expansion_move(inst, current, alpha)
    np.testing.assert_array_equal(
        move, reference.best_expansion_move(inst, current, alpha))
    best = exhaustive_expansion_move(inst, current, alpha)
    assert abs(inst.evaluate(move) - inst.evaluate(best)) <= 1e-9


class _LoopedDiameter(Diversity):
    """A diversity without its own clique_values, so the energy takes the
    per-clique loop."""

    def __init__(self, metric):
        self.metric = metric
        self.num_labels = metric.num_labels

    def value(self, subset):
        return max(self.metric.matrix[a, b] for a in subset for b in subset)


@st.composite
def energy_models(draw, kinds=("pn_potts", "table", "diameter", "loop")):
    n = draw(st.integers(1, 7))
    h = draw(st.integers(1, 5))
    unaries = np.reshape(draw(st.lists(costs, min_size=n * h,
                                       max_size=n * h)), (n, h))
    members, clique_weights = [], []
    for _ in range(draw(st.integers(0, 5))):
        members.append(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                     max_size=n, unique=True)))
        clique_weights.append(draw(weights))
    cliques = Cliques.from_lists(members, clique_weights)
    kind = draw(st.sampled_from(kinds))
    if kind == "pn_potts":
        gamma = draw(st.lists(costs, min_size=h, max_size=h))
        potential = PnPottsSpec(gamma, max(gamma) + draw(
            st.sampled_from([0.1, 1.0]) | st.floats(0.01, 3.0)))
    elif kind == "table":
        table = draw(st.lists(costs, min_size=1 << h, max_size=1 << h))
        potential = ExplicitTableDiversity(h, table)
    else:
        # any symmetric non-negative matrix: evaluation does not rely on
        # the metric axioms
        upper = np.triu(np.reshape(draw(st.lists(
            costs, min_size=h * h, max_size=h * h)), (h, h)))
        metric = LabelMetric(upper + upper.T, validate=False)
        potential = DiameterDiversity(metric) if kind == "diameter" \
            else _LoopedDiameter(metric)
    return EnergyModel(unaries, cliques, potential)


@SETTINGS
@given(st.data())
def test_energy_model_evaluate_matches_clique_loop(data):
    model = data.draw(energy_models())
    labeling = data.draw(labelings(model))
    assert model.evaluate_energy(labeling) == \
        reference.evaluate_energy(model, labeling)


@SETTINGS
@given(st.data())
def test_diameter_energy_in_blocks_matches_clique_loop(data):
    """Blocks of at most 1, 2, 3 or 5 members: the cliques span several
    blocks, and a clique larger than a block goes alone."""
    model = data.draw(energy_models(kinds=("diameter",)))
    diversity = model.potential
    diversity.block_entries = diversity.num_labels * data.draw(
        st.sampled_from([1, 2, 3, 5]))
    labeling = data.draw(labelings(model))
    assert model.evaluate_energy(labeling) == \
        reference.evaluate_energy(model, labeling)


@SETTINGS
@given(st.data())
def test_expansion_matches_full_sweeps(data):
    inst = data.draw(pn_instances())
    init = data.draw(st.none() | labelings(inst))
    labeling, trace = alpha_expansion(inst, init)
    ref_labeling, ref_trace = reference.alpha_expansion(inst, init)
    np.testing.assert_array_equal(labeling, ref_labeling)
    assert trace == ref_trace


@SETTINGS
@given(st.data())
def test_two_label_expansion_is_one_exact_cut(data):
    """From the all-0 start the move to label 1 spans {0,1}^N, so one cut
    reaches the optimum that enumerating that move space finds."""
    inst = data.draw(pn_instances(labels=2))
    with mock.patch.object(expansion, "best_expansion_move",
                           wraps=best_expansion_move) as move:
        labeling, trace = alpha_expansion(inst)
    assert move.call_count == 1
    best = exhaustive_expansion_move(inst, np.zeros(inst.num_variables), 1)
    assert abs(inst.evaluate(labeling) - inst.evaluate(best)) <= 1e-9
    assert trace.sweeps == 1 + len(trace.moves)


@SETTINGS
@given(st.data())
def test_two_label_expansion_from_mixed_start_matches_full_sweeps(data):
    """Only a move from a uniform labeling spans {0,1}^N: from a mixed
    start the sweep must go on after its first accepted move."""
    inst = data.draw(pn_instances(labels=2))
    init = data.draw(labelings(inst))
    labeling, trace = alpha_expansion(inst, init)
    ref_labeling, ref_trace = reference.alpha_expansion(inst, init)
    np.testing.assert_array_equal(labeling, ref_labeling)
    assert trace == ref_trace


@SETTINGS
@given(st.data())
def test_fusion_instance_matches_clique_loop(data):
    h = data.draw(st.integers(2, 10))
    tree = random_rhst(h, depth=data.draw(st.integers(2, 4)),
                       seed=data.draw(st.integers(0, 1000)))
    n = data.draw(st.integers(1, 10))
    members, clique_weights = [], []
    for _ in range(data.draw(st.integers(0, 4))):
        members.append(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                          max_size=n, unique=True)))
        clique_weights.append(data.draw(weights))
    cliques = Cliques.from_lists(members, clique_weights)
    model = EnergyModel(np.reshape(data.draw(st.lists(
        costs, min_size=n * h, max_size=n * h)), (n, h)), cliques,
        DiameterDiversity(tree.metric()))
    node = data.draw(st.just(hst.ROOT) | st.sampled_from(
        [v for v in range(tree.num_nodes) if not tree.is_leaf(v)]))
    children = []
    for child in tree.children[node]:
        cluster = tree.cluster_labels(child)
        labeling = data.draw(st.lists(st.sampled_from(cluster), min_size=n,
                                      max_size=n))
        children.append(np.array(labeling, dtype=np.intp))
    fast = build_fusion_instance(model, tree, node, children)
    slow = reference.build_fusion_instance(model, tree, node, children)
    for name in ("unaries", "gamma", "gamma_max"):
        np.testing.assert_array_equal(getattr(fast, name),
                                      getattr(slow, name), err_msg=name)
    assert_same_cliques(fast.cliques, slow.cliques)


def assert_same_cliques(fast, slow):
    """Equal clique arrays, weights bit for bit."""
    for name in ("offsets", "members"):
        np.testing.assert_array_equal(getattr(fast, name),
                                      getattr(slow, name), err_msg=name)
    assert fast.weights.tobytes() == slow.weights.tobytes()


@SETTINGS
@given(width=st.integers(1, 9), height=st.integers(1, 9),
       window=st.integers(1, 9), stride=st.integers(1, 4), weight=weights)
def test_window_cliques_match_corner_loop(width, height, window, stride,
                                          weight):
    assert_same_cliques(
        tasks.window_cliques(width, height, window, stride, weight),
        reference.window_cliques(width, height, window, stride, weight))


@SETTINGS
@given(st.data())
def test_grid_cliques_match_pixel_loops(data):
    """Pairwise cliques weighted by an intensity gradient, and one clique
    per superpixel of a region map with non-contiguous ids."""
    height, width = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    intensity = np.reshape(data.draw(st.lists(
        costs, min_size=height * width, max_size=height * width)),
        (height, width)) * 40.0
    flat = intensity.reshape(-1)

    def gradient_weight(p, q):
        return np.where(np.abs(flat[p] - flat[q]) < 30.0, 2.0, 1.0)

    assert_same_cliques(
        tasks.pairwise_cliques(height, width, gradient_weight),
        reference.pairwise_cliques(height, width, gradient_weight))
    ids = data.draw(st.lists(st.integers(0, 10 ** 6), min_size=1,
                             max_size=height * width, unique=True))
    regions = np.reshape(data.draw(st.lists(
        st.sampled_from(ids), min_size=height * width,
        max_size=height * width)), (height, width))
    sigma = data.draw(st.sampled_from([1.0, 10.0, 100.0])
                      | st.floats(0.5, 1000.0))
    assert_same_cliques(
        tasks.superpixel_cliques(regions, intensity, sigma),
        reference.superpixel_cliques(regions, intensity, sigma))


def _scaled(matrix):
    """A metric matrix scaled to minimum nonzero distance 1, as frt_embed
    hands it to the decomposition."""
    off = matrix[~np.eye(matrix.shape[0], dtype=bool)]
    return matrix / off.min() if off.size else matrix


@SETTINGS
@given(h=st.integers(1, 14), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["truncated", "points"]))
def test_frt_decompose_matches_center_loop(h, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "truncated":
        dist = LabelMetric.truncated_linear(
            h, 1.0, int(rng.integers(1, h + 1))).matrix
    else:
        pts = rng.uniform(0.0, 10.0, size=(h, 2))
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    dist = _scaled(dist)
    fast = hst._frt_decompose(dist, np.random.default_rng(seed))
    slow = reference.frt_decompose(dist, np.random.default_rng(seed))
    assert fast == slow


@SETTINGS
@given(h=st.integers(2, 12), depth=st.integers(2, 5),
       seed=st.integers(0, 10 ** 6))
def test_tree_metric_matches_node_distance(h, depth, seed):
    tree = random_rhst(h, depth=depth, seed=seed)
    leaf = {l: v for v, l in enumerate(tree.leaf_label) if l is not None}
    m = tree.metric().matrix
    for i in range(h):
        for j in range(h):
            lo, hi = min(i, j), max(i, j)
            assert m[i, j] == reference.node_distance(tree, leaf[lo],
                                                      leaf[hi])


@SETTINGS
@given(h=st.integers(0, 40),
       lam=st.sampled_from([1, 3, 0.5, 2.5]) | st.floats(0.01, 100.0),
       truncation=st.integers(1, 50) | st.floats(1.0, 50.0))
def test_truncated_linear_matches_difference_table(h, lam, truncation):
    m = LabelMetric.truncated_linear(h, lam, truncation).matrix
    np.testing.assert_array_equal(m, reference.truncated_linear(
        h, lam, truncation))
    # a read-only view of the 2H - 1 distances, not an H x H array
    assert m.dtype == float and not m.flags.writeable
    assert h < 2 or np.shares_memory(m[0], m[-1])


@SETTINGS
@given(h=st.integers(2, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_metric_check_matches_full_array(h, seed):
    """Symmetric, zero on the diagonal and positive elsewhere, so the
    triangle inequality is the only axiom that can fail."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.choice([1.0, 2.0, 3.0, 5.0], size=(h, h)), 1)
    m = upper + upper.T
    violated = LabelMetric(m, validate=False).check() is not None
    assert violated == reference.metric_violation(m, 1e-9)
