"""Max-flow / min-cut solver, checked against exhaustive cut enumeration
and against Dinic's algorithm."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from parsilab.expansion import _move_network
from parsilab.maxflow import (FlowNetwork, _arc_lists, _search_trees,
                              _short_paths)
from reference import (DinicNetwork, TwoHopNetwork, arc_lists,
                       infinite_capacity, source_reachable, two_hop_paths)
from test_fast_paths import labelings, pn_instances

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


def _min_cut_enumeration(n, terminal, arcs):
    """Minimum s-t cut value by trying all 2^n source-side subsets.

    terminal: list of (cap_from_source, cap_to_sink) per node;
    arcs: list of (u, v, cap_forward, cap_backward).
    """
    best = np.inf
    for bits in range(2 ** n):
        side = [(bits >> i) & 1 for i in range(n)]    # 1 = source side
        total = 0.0
        for v, (cs, ct) in enumerate(terminal):
            total += ct if side[v] else cs
        for u, v, cf, cb in arcs:
            if side[u] and not side[v]:
                total += cf
            elif side[v] and not side[u]:
                total += cb
        best = min(best, total)
    return best


def _cut_capacity(net):
    """Capacity of the cut read off the solved network."""
    reach = net._residual_reachable()
    return sum(net._cap[a] for u, arcs in enumerate(arc_lists(net))
               if reach[u] for a in arcs if not reach[net._to[a]])


def _flow_excess(net, v, res=None):
    """Net inflow at internal node v (0 the source, 1 the sink, u + 2 node
    u) of the residual res, by default that of the solved network."""
    res = net._res if res is None else res
    # cap - res on each arc slot leaving v is the net flow it carries out
    return -sum(net._cap[a] - res[a] for a in arc_lists(net)[v])


def _build(terminal, arcs):
    net = FlowNetwork(len(terminal))
    for v, (cs, ct) in enumerate(terminal):
        net.add_terminal_arc(v, cs, ct)
    for u, v, cf, cb in arcs:
        net.add_arc(u, v, cf)
        net.add_arc(v, u, cb)
    return net


def test_single_node():
    net = _build([(5.0, 3.0)], [])
    assert net.compute_max_flow() == 3.0
    assert net.source_side_mask()[0]


def test_single_path_through_infinite_arc():
    net = FlowNetwork(2)
    a, b = 0, 1
    net.add_terminal_arc(a, 10.0, 0.0)
    net.add_terminal_arc(b, 0.0, 4.0)
    net.add_arc(a, b, infinite_capacity(net))
    assert net.compute_max_flow() == 4.0


def test_empty_network():
    assert FlowNetwork(0).compute_max_flow() == 0.0


def test_diamond_network():
    terminal = [(4.0, 0.0), (3.0, 0.0), (0.0, 2.0), (0.0, 5.0)]
    arcs = [(0, 2, 2.0, 0.0), (0, 3, 1.0, 0.0),
            (1, 2, 1.0, 0.0), (1, 3, 3.0, 0.0)]
    net = _build(terminal, arcs)
    flow = net.compute_max_flow()
    assert flow == _min_cut_enumeration(4, terminal, arcs)


def test_bipartite_matching():
    rng = np.random.default_rng(4)
    for _ in range(20):
        left, right = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        edges = [(i, j) for i in range(left) for j in range(right)
                 if rng.random() < 0.5]
        net = FlowNetwork(left + right)
        lnodes, rnodes = range(left), range(left, left + right)
        for v in lnodes:
            net.add_terminal_arc(v, 1.0, 0.0)
        for v in rnodes:
            net.add_terminal_arc(v, 0.0, 1.0)
        for i, j in edges:
            net.add_arc(lnodes[i], rnodes[j], 1.0)
        flow = net.compute_max_flow()

        best = 0
        adj = {i: [j for a, j in edges if a == i] for i in range(left)}
        for perm in itertools.permutations(range(right)):
            size = 0
            used = set()
            for i in range(left):
                for j in perm:
                    if j in adj[i] and j not in used:
                        used.add(j)
                        size += 1
                        break
            best = max(best, size)
        assert flow == best


def test_random_networks_match_cut_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 11))
        terminal = [(float(rng.integers(0, 6)), float(rng.integers(0, 6)))
                    for _ in range(n)]
        arcs = []
        for _ in range(int(rng.integers(0, 2 * n + 1))):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                arcs.append((int(u), int(v), float(rng.integers(0, 5)),
                             float(rng.integers(0, 5))))
        net = _build(terminal, arcs)
        flow = net.compute_max_flow()
        expect = _min_cut_enumeration(n, terminal, arcs)
        assert abs(flow - expect) <= 1e-9
        # strong duality: the reported cut has capacity equal to the flow
        assert abs(_cut_capacity(net) - flow) <= 1e-9
        # conservation at every non-terminal node
        for v in range(n):
            assert abs(_flow_excess(net, v + 2)) <= 1e-9


def test_terminal_arcs_accumulate():
    net = FlowNetwork(1)
    net.add_terminal_arc(0, 2.0, 0.0)
    net.add_terminal_arc(0, 3.0, 4.0)
    assert net.compute_max_flow() == 4.0


def test_source_side_nodes():
    terminal = [(10.0, 0.0), (0.0, 1.0)]
    arcs = [(0, 1, 1.0, 0.0)]
    net = _build(terminal, arcs)
    net.compute_max_flow()
    assert net.source_side_mask().tolist() == [True, False]
    assert net._residual_reachable()[:2] == [True, False]   # source, sink


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_non_finite_or_negative_capacities_are_rejected(bad):
    net = FlowNetwork(2)
    a, b = 0, 1
    for add in (lambda: net.add_arc(a, b, bad),
                lambda: net.add_terminal_arc(a, bad, 0.0),
                lambda: net.add_terminal_arc(a, 0.0, bad)):
        with pytest.raises(ValueError):
            add()
    assert net._to == []                   # nothing was added


def test_unknown_node_is_rejected():
    """Arcs join the network's own nodes: no id outside 0..n-1 names a
    terminal, and a rejected arc leaves the network as it was."""
    net = FlowNetwork(2)
    net.add_arc(0, 1, 1.0)
    net.add_terminal_arc(1, 2.0, 3.0)
    before = (list(net._to), list(net._cap))
    for bad in (2, -1, -2, -3):
        for add in (lambda: net.add_arc(0, bad, 1.0),
                    lambda: net.add_arc(bad, 0, 1.0),
                    lambda: net.add_terminal_arc(bad, 5.0, 0.0),
                    lambda: net.add_terminal_arc(bad, 0.0, 5.0)):
            with pytest.raises(ValueError):
                add()
    assert (net._to, net._cap) == before and net.num_nodes == 2


def test_negative_node_count_is_rejected():
    with pytest.raises(ValueError):
        FlowNetwork(-2)
    assert FlowNetwork(0).num_nodes == 0
    assert FlowNetwork(3).num_nodes == 3


# ---------------------------------------------------------------------------
# against Dinic's algorithm, and the least minimum cut
# ---------------------------------------------------------------------------

capacities = st.sampled_from([0.0, 1.0, 2.0, 3.0]) \
    | st.floats(0.0, 5.0, allow_nan=False)


@st.composite
def networks(draw, max_nodes=14, caps=capacities):
    """Random networks with every kind of arc the solver must handle:
    parallel and antiparallel arcs, self-loops, zero capacities, and
    repeated terminal arcs on one node."""
    n = draw(st.integers(0, max_nodes))
    net = FlowNetwork(n)
    for _ in range(draw(st.integers(0, 4 * n))):
        u = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            net.add_terminal_arc(u, draw(caps), draw(caps))
            continue
        v = draw(st.integers(0, n - 1))
        net.add_arc(u, v, draw(caps))
        if draw(st.booleans()):
            net.add_arc(v, u, draw(caps))     # an antiparallel arc
    return net


def _assert_is_flow(net, res):
    """The residual res is a flow on net: within capacity, twin residuals
    sum to the twin capacities, and every node but the terminals conserves
    it."""
    res, cap = np.asarray(res), np.asarray(net._cap)
    twin = np.arange(cap.size) ^ 1
    assert np.all(res >= -1e-9)
    np.testing.assert_allclose(res + res[twin], cap + cap[twin], rtol=0,
                               atol=1e-9)
    for v in range(2, net.num_nodes + 2):
        assert abs(_flow_excess(net, v, res)) <= 1e-9


def _assert_same_as_oracles(net):
    """The greedy pass alone pushes a flow of the value it returns, and the
    full solve matches Dinic's algorithm and the two-hop pass followed by
    the same augmentation, in flow and in cut."""
    res = list(net._cap)
    pushed = _short_paths(_arc_lists(net._to, net.num_nodes + 2), net._to, res)
    _assert_is_flow(net, res)
    assert abs(_flow_excess(net, 1, res) - pushed) <= 1e-9
    flow = net.compute_max_flow()
    for oracle in (DinicNetwork.copy_of(net), TwoHopNetwork.copy_of(net)):
        assert abs(flow - oracle.compute_max_flow()) <= 1e-9
        np.testing.assert_array_equal(net.source_side_mask(),
                                      oracle.source_side_mask())
    _assert_is_flow(net, net._res)


def _network(arcs, terminal):
    """A network of the given arcs (u, v, cap), in order, after the
    terminal arcs (v, cap_from_source, cap_to_sink)."""
    net = FlowNetwork(1 + max(max(u, v) for u, v, _ in arcs))
    for v, cs, ct in terminal:
        net.add_terminal_arc(v, cs, ct)
    for u, v, cap in arcs:
        net.add_arc(u, v, cap)
    return net


@SETTINGS
@given(networks())
# a self-loop on a three-hop path: source -> 0 -> 0 -> 1 -> sink
@example(_network([(0, 0, 5.0), (0, 1, 2.0), (1, 1, 1.0)],
                  [(0, 3.0, 0.0), (1, 0.0, 4.0)]))
# 1 -> 2 in node 1's drain list when node 2's sink arc saturates, and its
# antiparallel 2 -> 1, which makes source -> 2 -> 1 -> 2 -> sink a path
@example(_network([(0, 1, 5.0), (1, 2, 5.0), (2, 1, 5.0)],
                  [(0, 1.0, 0.0), (2, 4.0, 3.0)]))
# node 3's sink arc saturates in the middle of the pass, on the path
# source -> 5 -> 3 -> sink, while it is still in node 2's drain list,
# which node 1 reaches next
@example(_network([(0, 2, 5.0), (5, 3, 5.0), (1, 2, 5.0), (2, 3, 5.0),
                   (2, 4, 5.0)],
                  [(0, 1.0, 0.0), (5, 1.0, 0.0), (1, 3.0, 0.0),
                   (3, 0.0, 1.0), (4, 0.0, 2.0)]))
def test_random_networks_match_dinic(net):
    _assert_same_as_oracles(net)


# unaries closer than the clique costs, so that fewer movers are forced
# and more cliques keep three free movers, a gadget
close_costs = st.sampled_from([0.0, 0.5, 1.0]) \
    | st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def move_networks(draw):
    """The flow networks of expansion moves on random instances; a move
    whose movers are all forced has none, and is not drawn."""
    inst = draw(pn_instances()
                | pn_instances(unary_costs=close_costs, clique_size=3))
    current = draw(labelings(inst))
    alpha = draw(st.integers(0, inst.num_labels - 1))
    net, _, _ = _move_network(inst, current, alpha)
    assume(net is not None)
    return net


@SETTINGS
@given(move_networks())
def test_move_networks_match_dinic(net):
    _assert_same_as_oracles(net)


def test_three_hop_pass_carries_shared_gadget_flow():
    """Two P^n gadgets over the movers 0-3 and 1-4 share the movers 1-3.
    Each has a hub b fed by the source, with infinite arcs to its movers,
    and a hub a draining to the sink, with infinite arcs from them; the
    movers have no terminal arcs.  Every augmenting path then runs
    source -> b -> mover -> a -> sink: the three-hop pass carries the
    whole flow, and the two-hop pass none of it."""
    net = FlowNetwork(9)                   # five movers, then two hubs each
    movers = range(5)
    inf = 100.0
    for (b, a), clique, pay_keep, pay_switch in (
            ((5, 6), movers[:4], 3.0, 2.0), ((7, 8), movers[1:], 2.0, 4.0)):
        net.add_terminal_arc(b, pay_keep, 0.0)
        net.add_terminal_arc(a, 0.0, pay_switch)
        for i in clique:
            net.add_arc(b, i, inf)
            net.add_arc(i, a, inf)
    flow = DinicNetwork.copy_of(net).compute_max_flow()
    assert flow == 5.0
    head = _arc_lists(net._to, net.num_nodes + 2)
    res = list(net._cap)
    assert _short_paths(head, net._to, res) == flow
    assert _search_trees(head, net._to, res)[0] == 0.0
    res = list(net._cap)
    assert two_hop_paths(head, net._to, res) == 0.0
    assert _search_trees(head, net._to, res)[0] == flow


@pytest.mark.parametrize("family", [networks(), move_networks()],
                         ids=["random", "move"])
@SETTINGS
@given(data=st.data())
def test_cut_read_from_source_tree_matches_source_search(family, data):
    """The cut read that starts from the final source tree and its queued
    nodes reaches the same nodes as a search from the source alone."""
    net = data.draw(family)
    net.compute_max_flow()
    assert net._residual_reachable() == source_reachable(net)


@SETTINGS
@given(networks(max_nodes=10, caps=st.integers(0, 3).map(float)))
def test_cut_read_is_the_least_minimum_cut(net):
    """The source side read off the residual is the intersection of the
    source sides of all minimum cuts, found by enumerating every cut.
    Integer capacities make ties between cuts exact."""
    net.compute_max_flow()
    n = net.num_nodes
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    side = np.hstack([np.ones((2 ** n, 1), int), np.zeros((2 ** n, 1), int),
                      bits]).astype(bool)     # column 0 the source, 1 the sink
    heads = np.asarray(net._to, dtype=int)   # arc slot a runs from the
    tails = heads[np.arange(heads.size) ^ 1]  # head of its twin a ^ 1
    cut = (side[:, tails] & ~side[:, heads]) @ np.asarray(net._cap)
    least = np.all(bits[cut == cut.min()], axis=0)
    assert cut.min() == net.compute_max_flow()
    np.testing.assert_array_equal(net.source_side_mask(), least)
