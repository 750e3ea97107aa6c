"""Property tests: every fast path against its plain reference version.

The references live in tests/reference.py.  Costs are drawn both from a
small grid, so that ties between moves and labelings are common, and as
arbitrary floats.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from parsilab import expansion, hst, solver, tasks
from conftest import pn_instance, random_pn_potts_model
from parsilab.expansion import alpha_expansion, best_expansion_move
from parsilab.model import (Cliques, DiameterDiversity, Diversity,
                            EnergyModel, ExplicitTableDiversity,
                            InvalidInputError, LabelMetric, PnPottsSpec)
from parsilab.oracle import model_to_pn_potts_instance
from parsilab.solver import build_fusion_instance
from reference import exhaustive_expansion_move, random_rhst

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

costs = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]) \
    | st.floats(0.0, 5.0, allow_nan=False)
weights = st.sampled_from([0.0, 0.5, 1.0, 2.0]) \
    | st.floats(0.0, 2.0, allow_nan=False)


@st.composite
def pn_instances(draw, labels=None, max_vars=7, clique_size=None,
                 unary_costs=costs):
    """Random consistency-cost instances; clique_size fixes the number of
    members of every clique."""
    n = draw(st.integers(clique_size or 1, max_vars))
    h = labels or draw(st.integers(2, 4))
    unaries = np.reshape(draw(st.lists(unary_costs, min_size=n * h,
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


# unaries spread far wider than the clique costs, so that many movers
# are forced and get no node
wide_costs = st.sampled_from([0.0, 1.0, 5.0, 20.0, 50.0]) \
    | st.floats(0.0, 50.0, allow_nan=False)


@SETTINGS
@given(st.data())
def test_move_with_forced_movers_matches_unreduced_build(data):
    inst = data.draw(pn_instances(unary_costs=wide_costs))
    current = data.draw(labelings(inst))
    alpha = data.draw(st.integers(0, inst.num_labels - 1))
    move = best_expansion_move(inst, current, alpha)
    np.testing.assert_array_equal(
        move, reference.best_expansion_move(inst, current, alpha))
    best = exhaustive_expansion_move(inst, current, alpha)
    assert abs(inst.evaluate(move) - inst.evaluate(best)) <= 1e-9


@st.composite
def expansion_moves(draw):
    """(instance, current labeling, alpha) of a random move.  Each unary
    is drawn near the clique costs or far wider, so that some movers are
    forced at once and others only once their cliques drop out; uniform
    labelings give every clique a pay_keep."""
    inst = draw(pn_instances(unary_costs=costs | wide_costs))
    current = draw(labelings(inst) | st.integers(
        0, inst.num_labels - 1).map(lambda l: np.full(inst.num_variables, l)))
    return inst, current, draw(st.integers(0, inst.num_labels - 1))


@SETTINGS
@given(expansion_moves())
# one clique over three variables: one pass fixes variable 0 to switch and
# 2 to keep, and only the second pass, where the clique pays both terms
# in every move, fixes variable 1 to keep
@example((pn_instance([[5.0, 0.0], [0.0, 0.25], [0.0, 5.0]],
                      [([0, 1, 2], [0.5, 1.0], 2.0, 1.0)]),
          np.zeros(3, np.intp), 1))
def test_fixpoint_extends_one_pass_and_agrees_with_the_move(move):
    """The fixpoint fixes every mover one pass fixes, each as the
    unreduced move sets it, and the move is the unreduced one."""
    inst, current, alpha = move
    one_switch, one_keep = reference.forced_movers(inst, current, alpha)
    _, free, switch = expansion._move_network(inst, current, alpha)
    keep = (current != alpha) & ~switch
    keep[free] = False
    assert np.all(switch >= one_switch) and np.all(keep >= one_keep)
    oracle = reference.best_expansion_move(inst, current, alpha)
    assert np.all(oracle[switch] == alpha)
    np.testing.assert_array_equal(oracle[keep], current[keep])
    np.testing.assert_array_equal(best_expansion_move(inst, current, alpha),
                                  oracle)


def assert_same_network(net, want):
    """Both None, or the same nodes, arcs and capacities bit for bit."""
    assert (net is None) == (want is None)
    if net is not None:
        assert net.num_nodes == want.num_nodes
        assert net._to == want._to
        for caps, want_caps in ((net._cap, want._cap),
                                (net._source, want._source),
                                (net._sink, want._sink)):
            assert np.array(caps).tobytes() == np.array(want_caps).tobytes()


def assert_same_move_network(inst, current, alpha):
    """_move_network fixes the movers to the fixpoint of full passes over
    every clique entry: the same free movers, switch mask and network,
    arc for arc and capacity bit for bit."""
    net, free, switch = expansion._move_network(inst, current, alpha)
    with mock.patch.object(expansion, "_fix_forced", reference.fix_forced):
        want_net, want_free, want_switch = expansion._move_network(
            inst, current, alpha)
    np.testing.assert_array_equal(free, want_free)
    np.testing.assert_array_equal(switch, want_switch)
    assert_same_network(net, want_net)


@SETTINGS
@given(expansion_moves())
@example((pn_instance([[5.0, 0.0], [0.0, 0.25], [0.0, 5.0]],
                      [([0, 1, 2], [0.5, 1.0], 2.0, 1.0)]),
          np.zeros(3, np.intp), 1))
def test_fixpoint_on_paying_entries_matches_full_passes(move):
    assert_same_move_network(*move)


@SETTINGS
@given(st.data())
def test_batch_fixpoint_on_paying_entries_matches_full_passes(data):
    """The same over the instance of some components of a batched fusion
    instance, as a move of alpha_expansion sees it."""
    model, tree, nodes, children = data.draw(fusion_batches())
    batch = build_fusion_instance(model, tree, nodes, children)
    current = data.draw(component_labelings(batch))
    alpha = data.draw(st.integers(0, batch.num_labels - 1))
    components = data.draw(component_masks(batch, alpha))
    rows, _ = slice_masks(batch, components)
    assert_same_move_network(batch.select(components), current[rows], alpha)


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


@st.composite
def label_set_cliques(draw):
    """(metric, labs, offsets) of up to 40 cliques of 1-6 members over
    1-200 labels, so a label set takes one to four 64-bit words.  Either
    a few label sets each recur on many cliques, in any order and with
    repeated labels, or every clique has its own set: the smallest label
    of clique c is c."""
    h = draw(st.integers(1, 200))
    count = draw(st.integers(0, 40))
    cliques = []
    if draw(st.booleans()):
        pool = draw(st.lists(st.lists(st.integers(0, h - 1), min_size=1,
                                      max_size=6, unique=True),
                             min_size=1, max_size=3))
        for _ in range(count):
            labels = draw(st.sampled_from(pool))
            extra = draw(st.lists(st.sampled_from(labels),
                                  max_size=6 - len(labels)))
            cliques.append(draw(st.permutations(labels + extra)))
    else:
        for c in range(min(count, h)):
            cliques.append(draw(st.permutations([c] + draw(st.lists(
                st.integers(c, h - 1), max_size=5)))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # a symmetric non-negative matrix, on a coarse grid so that distances
    # tie, or arbitrary floats
    upper = np.triu(rng.integers(0, 4, size=(h, h)) * 0.5
                    if draw(st.booleans()) else rng.uniform(0, 5, (h, h)), 1)
    offsets = np.cumsum([0] + [len(c) for c in cliques])
    labs = np.array([l for c in cliques for l in c], dtype=np.intp)
    return LabelMetric(upper + upper.T, validate=False), labs, offsets


@SETTINGS
@given(label_set_cliques(), st.integers(1, 5))
def test_diameter_values_per_distinct_set_match_blocks(case, members):
    """Valuing each distinct label set once gives every clique's value
    bit for bit as valuing every clique, in blocks of 1-5 members."""
    metric, labs, offsets = case
    diversity = DiameterDiversity(metric)
    diversity.block_entries = metric.num_labels * members
    got = diversity.clique_values(labs, offsets)
    want = reference.diameter_clique_values(diversity, labs, offsets)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@SETTINGS
@given(label_set_cliques())
def test_diversity_values_each_distinct_set_once(case):
    metric, labs, offsets = case
    diversity = _LoopedDiameter(metric)
    with mock.patch.object(_LoopedDiameter, "value", autospec=True,
                           side_effect=_LoopedDiameter.value) as value:
        got = diversity.clique_values(labs, offsets)
    bounds = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
    assert value.call_count == len({frozenset(labs[a:b].tolist())
                                    for a, b in bounds})
    np.testing.assert_array_equal(
        got, [diversity.value(set(labs[a:b].tolist())) for a, b in bounds])


@SETTINGS
@given(st.data())
def test_expansion_matches_full_sweeps(data):
    inst = data.draw(pn_instances())
    labeling, trace = alpha_expansion(inst)
    ref_labeling, ref_trace = reference.alpha_expansion(inst)
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
def test_expansion_computes_each_labelings_clique_costs_once(data):
    """A labeling's clique costs serve its energy and every move from it,
    so the sweep computes them once per labeling it evaluates."""
    inst = data.draw(pn_instances())
    cls = expansion.PnPottsInstance
    with mock.patch.object(cls, "clique_gamma", autospec=True,
                           side_effect=cls.clique_gamma) as gamma, \
            mock.patch.object(cls, "evaluate", autospec=True,
                              side_effect=cls.evaluate) as evaluate:
        alpha_expansion(inst)
    assert gamma.call_count == evaluate.call_count


@SETTINGS
@given(st.data())
def test_model_bound_matches_instance_bound(data):
    """pn_potts_bound reads the model's spec and its weighted cliques, and
    gives the float that scanning its instance's gamma rows gives, also
    with cliques of weight 0 and with zero gammas."""
    model = random_pn_potts_model(
        np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))))
    c, spec = model.cliques, model.potential
    unweighted = data.draw(st.lists(st.booleans(), min_size=len(c),
                                    max_size=len(c)))
    zero = data.draw(st.lists(st.booleans(), min_size=spec.num_labels,
                              max_size=spec.num_labels))
    model = EnergyModel(
        model.unaries,
        Cliques(c.offsets, c.members, np.where(unweighted, 0.0, c.weights)),
        PnPottsSpec(np.where(zero, 0.0, spec.gamma), spec.gamma_max))
    assert solver.pn_potts_bound(model) == reference.pn_potts_bound(
        model_to_pn_potts_instance(model))


@st.composite
def fusion_cases(draw):
    """(model, tree, node, child labelings): a diameter-diversity model
    over a random r-HST and, for each child of an internal node, a
    labeling drawn from that child's cluster."""
    h = draw(st.integers(2, 10))
    tree = random_rhst(h, depth=draw(st.integers(2, 4)),
                       seed=draw(st.integers(0, 1000)))
    n = draw(st.integers(1, 10))
    members, clique_weights = [], []
    for _ in range(draw(st.integers(0, 4))):
        members.append(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                     max_size=n, unique=True)))
        clique_weights.append(draw(weights))
    cliques = Cliques.from_lists(members, clique_weights)
    model = EnergyModel(np.reshape(draw(st.lists(
        costs, min_size=n * h, max_size=n * h)), (n, h)), cliques,
        DiameterDiversity(tree.metric()))
    node = draw(st.just(hst.ROOT) | st.sampled_from(
        [v for v in range(tree.num_nodes) if not tree.is_leaf(v)]))
    children = []
    for child in tree.children[node]:
        cluster = reference.cluster_labels(tree, child)
        labeling = draw(st.lists(st.sampled_from(cluster), min_size=n,
                                 max_size=n))
        children.append(np.array(labeling, dtype=np.intp))
    return model, tree, node, children


def _three_label_fusion_case():
    """The root of a tree whose first child holds labels {0, 1, 2}, where
    labels 0 and 2 share a leaf cluster: on the first clique that child
    puts all three labels, whose diameter d(0, 1) = 7 is not the
    distance d(0, 2) = 2 between the smallest and largest."""
    tree = hst.RHst([-1, 0, 0, 1, 1, 3, 3], [8.0, 3.0, 0.0, 1.0, 0.0, 0.0,
                                              0.0],
                    [None, None, 3, None, 1, 0, 2])
    unaries = np.arange(16.0).reshape(4, 4) % 5.0
    model = EnergyModel(unaries, Cliques.from_lists(
        [[0, 1, 2, 3], [1, 3], [2]], [1.0, 0.5, 2.0]),
        DiameterDiversity(tree.metric()))
    children = [np.array([0, 1, 2, 0], dtype=np.intp),
                np.full(4, 3, dtype=np.intp)]
    return model, tree, hst.ROOT, children


@SETTINGS
@given(case=fusion_cases())
@example(case=_three_label_fusion_case())
def test_fusion_instance_matches_clique_loop(case):
    model, tree, node, children = case
    fast = build_fusion_instance(model, tree, [node], [children])
    slow = reference.build_fusion_instance(model, tree, node, children)
    for name in ("unaries", "gamma", "gamma_max"):
        np.testing.assert_array_equal(getattr(fast, name),
                                      getattr(slow, name), err_msg=name)
    assert_same_cliques(fast.cliques, slow.cliques)


def _diameter_model(draw, tree, n):
    """A diameter-diversity model over the tree's metric with n variables
    and up to four random cliques."""
    h = tree.num_labels
    members, clique_weights = [], []
    for _ in range(draw(st.integers(0, 4))):
        members.append(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                     max_size=n, unique=True)))
        clique_weights.append(draw(weights))
    return EnergyModel(np.reshape(draw(st.lists(
        costs, min_size=n * h, max_size=n * h)), (n, h)),
        Cliques.from_lists(members, clique_weights),
        DiameterDiversity(tree.metric()))


def _chain_rhsts(draw, max_labels=12):
    """A random r-HST with mixed child counts, and single-child chains
    when chains is drawn above 0."""
    return random_rhst(draw(st.integers(2, max_labels)),
                       depth=draw(st.integers(2, 5)),
                       seed=draw(st.integers(0, 1000)),
                       chains=draw(st.sampled_from([0.0, 0.3, 0.6])))


@st.composite
def fusion_batches(draw, constants=False):
    """(model, tree, nodes, child labelings) of one batched fusion: a
    few internal nodes with several children, repeats allowed, and for
    each child a labeling drawn from its cluster.  With constants, a
    child that is not a leaf may also have a constant labeling."""
    tree = _chain_rhsts(draw)
    n = draw(st.integers(1, 6))
    model = _diameter_model(draw, tree, n)
    fused = [v for v in range(tree.num_nodes) if len(tree.children[v]) > 1]
    nodes = draw(st.lists(st.sampled_from(fused), min_size=1, max_size=5))

    def labeling(child):
        cluster = st.sampled_from(reference.cluster_labels(tree, child))
        if constants and draw(st.booleans()):
            return np.full(n, draw(cluster), dtype=np.intp)
        return np.array(draw(st.lists(cluster, min_size=n, max_size=n)),
                        dtype=np.intp)
    children = [[labeling(child) for child in tree.children[node]]
                for node in nodes]
    return model, tree, nodes, children


@st.composite
def component_instances(draw):
    """An instance of one to four components built directly: copies of
    one component's cliques, each copy with its own unaries and label
    count.  gamma is one table shared by every clique or one per clique
    of every copy."""
    m, size = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    h, width = max(labels), draw(st.integers(0, 3))
    unaries = np.reshape(draw(st.lists(
        costs, min_size=m * size * h, max_size=m * size * h)), (m * size, h))
    members = [draw(st.lists(st.integers(0, size - 1), min_size=1,
                             max_size=size, unique=True))
               for _ in range(width)]
    clique_weights = [draw(weights) for _ in range(width)]
    rows = 1 if draw(st.booleans()) else m * width
    gamma = np.reshape(draw(st.lists(costs, min_size=rows * h,
                                     max_size=rows * h)), (rows, h))
    gamma_max = np.broadcast_to(gamma.max(axis=1), m * width) \
        + draw(st.sampled_from([0.1, 0.5, 1.0, 3.0]))
    return expansion.PnPottsInstance(
        unaries, Cliques.from_lists(members, clique_weights),
        gamma[0] if rows == 1 else gamma, gamma_max, labels)


@st.composite
def batches(draw):
    """A batched fusion instance, or an instance of components drawn
    directly (component_instances)."""
    if draw(st.booleans()):
        return build_fusion_instance(*draw(fusion_batches(constants=True)))
    return draw(component_instances())


def component_labelings(instance):
    """Labelings in which each component uses only its own labels."""
    size = instance.num_variables // instance.num_components
    return st.tuples(*[
        st.lists(st.integers(0, h - 1), min_size=size, max_size=size)
        for h in instance.component_labels.tolist()]).map(
        lambda parts: np.array(sum(parts, []), dtype=np.intp))


@st.composite
def component_masks(draw, instance, alpha):
    """A mask marking some of the components that have the label alpha,
    at least one."""
    allowed = alpha < instance.component_labels
    mask = allowed & draw(st.lists(st.booleans(), min_size=allowed.size,
                                   max_size=allowed.size).map(np.array))
    if not mask.any():
        mask[draw(st.sampled_from(allowed.nonzero()[0].tolist()))] = True
    return mask


def slice_masks(instance, components):
    """The variables and the cliques of the marked components."""
    m = instance.num_components
    return (np.repeat(components, instance.num_variables // m),
            np.repeat(components, len(instance.cliques)))


def slice_move(instance, current, alpha, components):
    """The move of the marked components' instance, written back into
    current: the variables of the others keep their labels."""
    move = current.copy()
    if components.any():
        rows, _ = slice_masks(instance, components)
        move[rows] = best_expansion_move(instance.select(components),
                                         current[rows], alpha)
    return move


@SETTINGS
@given(batches(), st.data())
def test_moves_on_slices_match_masked_moves(batch, data):
    """The instance of some components (PnPottsInstance.select) has the
    clique costs and energies of the whole instance, bit for bit, and a
    move on it is the masked move over the whole instance: the same move
    from the same network, arc for arc and capacity bit for bit.  A move
    on the whole instance is that masked move when every component has
    alpha, and is refused otherwise."""
    labeling = data.draw(component_labelings(batch))
    alpha = data.draw(st.integers(0, int(batch.component_labels.max()) - 1))
    components = data.draw(component_masks(batch, alpha))
    rows, keep = slice_masks(batch, components)
    part = batch.select(components)
    assert part.clique_gamma(labeling[rows]).tobytes() \
        == batch.clique_gamma(labeling)[keep].tobytes()
    assert np.atleast_1d(part.evaluate(labeling[rows])).tobytes() \
        == np.atleast_1d(batch.evaluate(labeling))[components].tobytes()
    want, want_net = reference.masked_move(batch, labeling, alpha,
                                           components)
    np.testing.assert_array_equal(
        slice_move(batch, labeling, alpha, components), want)
    assert_same_network(
        expansion._move_network(part, labeling[rows], alpha)[0], want_net)
    allowed = alpha < batch.component_labels
    if allowed.all():
        np.testing.assert_array_equal(
            best_expansion_move(batch, labeling, alpha),
            reference.masked_move(batch, labeling, alpha, allowed)[0])
    else:
        with pytest.raises(InvalidInputError, match="alpha out of range"):
            best_expansion_move(batch, labeling, alpha)


def assert_passes_the_checks(instance):
    """The instance, rebuilt through Cliques(...) of its cliques and
    PnPottsInstance(...), raises nothing and has the same arrays, dtype
    and bits: its cliques are copies of those."""
    c = instance.cliques
    again = expansion.PnPottsInstance(
        instance.unaries, Cliques(c.offsets, c.members, c.weights),
        instance.gamma, instance.gamma_max, instance.component_labels)
    for owner, rebuilt, names in (
            (instance, again, ("unaries", "gamma", "gamma_max",
                               "component_labels", "_rows", "_slot",
                               "_paid", "_offsets")),
            (c, again.cliques, ("offsets", "members", "weights", "sizes",
                                "owner"))):
        for name in names:
            a, b = getattr(owner, name), getattr(rebuilt, name)
            assert (a.dtype, a.shape, a.tobytes()) \
                == (b.dtype, b.shape, b.tobytes()), name
    assert (instance.num_variables, instance.num_labels,
            instance.num_components, instance._padded, c.max_size) \
        == (again.num_variables, again.num_labels, again.num_components,
            again._padded, again.cliques.max_size)


@SETTINGS
@given(batches(), st.data())
def test_unchecked_batches_and_slices_pass_the_checks(batch, data):
    """build_fusion_instance and PnPottsInstance.select skip the
    instance's checks; what they build passes them all the same."""
    assert_passes_the_checks(batch)
    alpha = data.draw(st.integers(0, int(batch.component_labels.max()) - 1))
    assert_passes_the_checks(batch.select(data.draw(
        component_masks(batch, alpha))))


def assert_tiles_the_cliques(instance):
    """The instance's index arrays are those of its cliques tiled once
    per component (reference.tile), dtype and bits alike."""
    m, n = instance.num_components, instance.num_variables
    tiled = reference.tile(instance.cliques, m, n // m)
    count = len(tiled)
    want = {"_slot": np.concatenate((tiled.members, tiled.members + n)),
            "_paid": np.concatenate((tiled.owner, tiled.owner + count)),
            "_offsets": tiled.offsets, "_rows": np.arange(count)}
    for name, a in want.items():
        b = getattr(instance, name)
        assert (a.dtype, a.shape, a.tobytes()) \
            == (b.dtype, b.shape, b.tobytes()), name


@SETTINGS
@given(st.data())
def test_batches_and_slices_share_one_copy_of_the_cliques(data):
    """A fusion batch holds the model's weighted cliques object itself,
    and the instance of some of its components holds the batch's; the
    index arrays derived from that one copy address every component as
    its tiled cliques would."""
    if data.draw(st.booleans()):
        model, tree, nodes, children = data.draw(
            fusion_batches(constants=True))
        batch = build_fusion_instance(model, tree, nodes, children)
        assert batch.cliques is model.weighted_cliques
    else:
        batch = data.draw(component_instances())
    alpha = data.draw(st.integers(0, int(batch.component_labels.max()) - 1))
    part = batch.select(data.draw(component_masks(batch, alpha)))
    assert part.cliques is batch.cliques
    assert_tiles_the_cliques(batch)
    assert_tiles_the_cliques(part)


@SETTINGS
@given(case=fusion_batches(constants=True))
def test_fusion_batch_with_constant_children_matches_clique_loop(case):
    """With constant children among the others, a leaf's or not, every
    node's block of gamma and gamma_max is its clique loop's bit for bit,
    and the padding is 0."""
    model, tree, nodes, children = case
    batch = build_fusion_instance(model, tree, nodes, children)
    width = len(batch.cliques)
    for j, (node, kids) in enumerate(zip(nodes, children)):
        slow = reference.build_fusion_instance(model, tree, node, kids)
        rows = slice(j * width, (j + 1) * width)
        assert batch.gamma[rows, :len(kids)].tobytes() \
            == slow.gamma.tobytes()
        assert not batch.gamma[rows, len(kids):].any()
        assert batch.gamma_max[rows].tobytes() == slow.gamma_max.tobytes()


@SETTINGS
@given(case=fusion_batches(), data=st.data())
def test_batch_components_match_lone_instances(case, data):
    """Each component of a batched fusion instance is its node's own
    instance: the same arrays, energies bit for bit, the same moves, and
    the same expansion labeling and trace entries."""
    model, tree, nodes, children = case
    n = model.num_variables
    batch = build_fusion_instance(model, tree, nodes, children)
    lone = [build_fusion_instance(model, tree, [v], [c])
            for v, c in zip(nodes, children)]
    width = len(lone[0].cliques)
    assert batch.num_components == len(nodes)
    for j, inst in enumerate(lone):
        rows, cols = slice(j * n, (j + 1) * n), slice(0, inst.num_labels)
        assert batch.component_labels[j] == inst.num_labels
        np.testing.assert_array_equal(batch.unaries[rows, cols],
                                      inst.unaries)
        np.testing.assert_array_equal(
            batch.gamma[j * width:(j + 1) * width, cols], inst.gamma)

    parts = [np.array(data.draw(st.lists(
        st.integers(0, inst.num_labels - 1), min_size=n, max_size=n)),
        dtype=np.intp) for inst in lone]
    labeling = np.concatenate(parts)
    energies = np.atleast_1d(batch.evaluate(labeling))
    alpha = data.draw(st.integers(0, batch.num_labels - 1))
    components = np.array(data.draw(st.lists(
        st.booleans(), min_size=len(nodes), max_size=len(nodes))))
    components &= alpha < batch.component_labels
    move = slice_move(batch, labeling, alpha, components)
    np.testing.assert_array_equal(
        move, reference.masked_move(batch, labeling, alpha, components)[0])
    for j, (inst, part) in enumerate(zip(lone, parts)):
        assert np.float64(energies[j]).tobytes() \
            == np.float64(inst.evaluate(part)).tobytes()
        want = best_expansion_move(inst, part, alpha) if components[j] \
            else part
        np.testing.assert_array_equal(move[j * n:(j + 1) * n], want)

    labeling, trace = alpha_expansion(batch)
    moves, sweeps = [], 0
    for j, inst in enumerate(lone):
        part, part_trace = alpha_expansion(inst)
        np.testing.assert_array_equal(labeling[j * n:(j + 1) * n], part)
        moves += part_trace.moves
        sweeps += part_trace.sweeps
    assert sorted(trace.moves) == sorted(moves)
    assert trace.sweeps == sweeps


def batched_labelings(model, tree):
    """solve_hierarchical's labeling at every tree node, read off the
    child labelings it hands to each fusion instance; also the mock that
    recorded those calls."""
    with mock.patch.object(solver, "build_fusion_instance",
                           wraps=build_fusion_instance) as build:
        root, _ = solver.solve_hierarchical(model, tree)
    got = {hst.ROOT: root}
    for call in build.call_args_list:
        _, _, nodes, children = call.args
        for node, rows in zip(nodes, children):
            got.update(zip(tree.children[node], rows))
    for v in tree.order:
        if v not in got:            # an only child has its parent's labeling
            assert len(tree.children[tree.parents[v]]) == 1
            got[v] = got[tree.parents[v]]
    return got, build


@st.composite
def hierarchical_cases(draw):
    tree = _chain_rhsts(draw, max_labels=16)
    return _diameter_model(draw, tree, draw(st.integers(1, 8))), tree


@SETTINGS
@given(case=hierarchical_cases(), cap=st.sampled_from([1, 8, 24, 1024]))
def test_batched_fusion_matches_node_by_node_walk(case, cap):
    """Every tree node gets the labeling of the node-by-node walk, with
    heights split into batches of every size."""
    model, tree = case
    with mock.patch.object(solver, "BATCH_VARIABLES", cap):
        got, _ = batched_labelings(model, tree)
    want = reference.solve_hierarchical(model, tree)
    for v in range(tree.num_nodes):
        np.testing.assert_array_equal(got[v], want[v], err_msg=str(v))


def test_a_height_splits_into_batches_of_the_cap():
    """At 400 variables a fusion instance takes two nodes, so a height
    with five or more fused nodes splits into three or more batches."""
    tree = random_rhst(40, depth=4, seed=5, chains=0.2)
    height = {}
    for v in reversed(tree.order):
        height[v] = 1 + max((height[c] for c in tree.children[v]),
                            default=-1)
    fused = [height[v] for v in tree.order if len(tree.children[v]) > 1]
    assert max(fused.count(k) for k in set(fused)) >= 5
    n = 400
    rng = np.random.default_rng(0)
    side = 20
    model = EnergyModel(rng.uniform(0.0, 5.0, size=(n, tree.num_labels)),
                        tasks.window_cliques(side, side, 3, 2, 1.0),
                        DiameterDiversity(tree.metric()))
    got, build = batched_labelings(model, tree)
    sizes = [len(call.args[2]) for call in build.call_args_list]
    assert max(sizes) == solver.BATCH_VARIABLES // n == 2
    assert len(sizes) > len(set(fused))
    want = reference.solve_hierarchical(model, tree)
    for v in range(tree.num_nodes):
        np.testing.assert_array_equal(got[v], want[v], err_msg=str(v))


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
    hands it to _frt_tree."""
    off = matrix[~np.eye(matrix.shape[0], dtype=bool)]
    return matrix / off.min() if off.size else matrix


@SETTINGS
@given(h=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["truncated", "uniform", "points"]))
@example(h=256, seed=0, kind="inpaint-h256")
@example(h=64, seed=1, kind="points")
@example(h=256, seed=2, kind="points")
@example(h=64, seed=3, kind="truncated")
@example(h=256, seed=4, kind="truncated")
def test_frt_tree_matches_reference(h, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "inpaint-h256":          # the inpaint-h256 workload's metric
        dist = LabelMetric.truncated_linear(h, 4.0, 40).matrix
    elif kind == "truncated":
        dist = LabelMetric.truncated_linear(
            h, 1.0, int(rng.integers(1, h + 1))).matrix
    elif kind == "uniform":
        dist = LabelMetric.uniform(h, 1.0).matrix
    else:
        pts = rng.uniform(0.0, 10.0, size=(h, 2))
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    dist = _scaled(dist)
    fast = hst._frt_tree(dist, np.random.default_rng(seed), scale=1.0)
    slow = reference.frt_tree(dist, np.random.default_rng(seed))
    assert fast.parents == slow.parents
    assert fast.leaf_label == slow.leaf_label
    assert np.array(fast.child_edge).tobytes() \
        == np.array(slow.child_edge).tobytes()


@SETTINGS
@given(h=st.integers(2, 12), depth=st.integers(2, 5),
       seed=st.integers(0, 10 ** 6), chunk=st.sampled_from([1, 7, 8192]))
def test_tree_metric_matches_node_distance(h, depth, seed, chunk):
    """Also when the label pairs climb in several chunks."""
    tree = random_rhst(h, depth=depth, seed=seed)
    leaf = {l: v for v, l in enumerate(tree.leaf_label) if l is not None}
    with mock.patch.object(hst, "_PAIR_CHUNK", chunk):
        m = tree.metric().matrix
    for i in range(h):
        for j in range(h):
            lo, hi = min(i, j), max(i, j)
            assert m[i, j] == reference.node_distance(tree, leaf[lo],
                                                      leaf[hi])


def assert_walks_tree_once(tree):
    """order lists every node once, parents first, and every node's
    diameter equals the largest distance within its cluster, bit for bit."""
    assert sorted(tree.order) == list(range(tree.num_nodes))
    position = {v: i for i, v in enumerate(tree.order)}
    assert tree.order[0] == hst.ROOT
    assert all(position[tree.parents[v]] < position[v]
               for v in tree.order[1:])
    for v in tree.order:
        expected = reference.diameter(tree, reference.cluster_labels(tree, v))
        assert np.float64(tree.diameter(v)).tobytes() \
            == np.float64(expected).tobytes()


def _lopsided_rhst():
    """A 1.1-HST whose root diameter 2 * (0.72 + 0.81 + 0.9) = 4.86 lies
    inside its deep child: across the root no pair is more than 4.43
    apart.  Below r = 1.5 a child's own diameter can win this way."""
    return hst.RHst([-1, 0, 0, 2, 2, 3, 3, 4, 4, 5, 5, 7, 7],
                    [1.0, 0.0, 0.9, 0.81, 0.81, 0.72, 0.0, 0.72, 0.0, 0.0,
                     0.0, 0.0, 0.0],
                    [None, 0, None, None, None, None, 1, None, 2, 3, 4, 5,
                     6], r=1.1)


@SETTINGS
@given(tree=st.builds(random_rhst, st.integers(1, 12),
                      r=st.sampled_from([1.1, 2.0, 3.0]),
                      depth=st.integers(2, 5), seed=st.integers(0, 10 ** 6)))
@example(tree=_lopsided_rhst())
def test_random_rhst_walk_and_diameters_match_reference(tree):
    assert_walks_tree_once(tree)


@pytest.mark.parametrize("tree", [0, 1, "lopsided"])
def test_metric_fills_the_reference_diameters(tree):
    """The diameters that metric() sets from its climb: on the two trees
    of the inpaint-h256 benchmark (426 and 423 nodes over 256 labels) and
    on a 1.1-HST whose root diameter lies inside one child."""
    tree = _lopsided_rhst() if tree == "lopsided" else hst.frt_embed(
        LabelMetric.truncated_linear(256, 4.0, 40), 2, 0)[tree]
    tree.metric()
    assert_walks_tree_once(tree)


@SETTINGS
@given(h=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1.0, 0.25, 3.0]) | st.floats(1e-3, 1e3))
def test_frt_walk_and_diameters_match_reference(h, seed, scale):
    pts = np.random.default_rng(seed).uniform(0.0, 10.0, size=(h, 2))
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1) * scale
    (tree,) = hst.frt_embed(LabelMetric(dist), k=1, seed=seed)
    assert_walks_tree_once(tree)


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
