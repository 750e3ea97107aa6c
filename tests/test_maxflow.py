"""Max-flow / min-cut solver, checked against exhaustive cut enumeration."""

import itertools

import numpy as np
import pytest

from parsilab.maxflow import SINK, SOURCE, FlowNetwork, StateError


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
    """Capacity of the cut that min_cut_side reads off the solved network."""
    reach = net._residual_reachable()
    return sum(net._cap[a] for u, arcs in enumerate(net._head) if reach[u]
               for a in arcs if not reach[net._to[a]])


def _flow_excess(net, v):
    """Net inflow at node v of the solved network."""
    # cap - res on each arc slot leaving v is the net flow it carries out
    return -sum(net._cap[a] - net._res[a] for a in net._head[v + 2])


def _build(terminal, arcs):
    net = FlowNetwork()
    nodes = net.add_nodes(len(terminal))
    for v, (cs, ct) in enumerate(terminal):
        net.add_terminal_arc(nodes[v], cs, ct)
    for u, v, cf, cb in arcs:
        net.add_arc(nodes[u], nodes[v], cf, cb)
    return net, nodes


def test_single_node():
    net, nodes = _build([(5.0, 3.0)], [])
    assert net.compute_max_flow() == 3.0
    assert net.min_cut_side(nodes[0])          # source side


def test_single_path_through_infinite_arc():
    net = FlowNetwork()
    a, b = net.add_nodes(2)
    net.add_terminal_arc(a, 10.0, 0.0)
    net.add_terminal_arc(b, 0.0, 4.0)
    net.add_arc(a, b, net.infinite_capacity())
    assert net.compute_max_flow() == 4.0


def test_empty_network():
    assert FlowNetwork().compute_max_flow() == 0.0


def test_diamond_network():
    terminal = [(4.0, 0.0), (3.0, 0.0), (0.0, 2.0), (0.0, 5.0)]
    arcs = [(0, 2, 2.0, 0.0), (0, 3, 1.0, 0.0),
            (1, 2, 1.0, 0.0), (1, 3, 3.0, 0.0)]
    net, _ = _build(terminal, arcs)
    flow = net.compute_max_flow()
    assert flow == _min_cut_enumeration(4, terminal, arcs)


def test_bipartite_matching():
    rng = np.random.default_rng(4)
    for _ in range(20):
        left, right = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        edges = [(i, j) for i in range(left) for j in range(right)
                 if rng.random() < 0.5]
        net = FlowNetwork()
        lnodes = net.add_nodes(left)
        rnodes = net.add_nodes(right)
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
        net, nodes = _build(terminal, arcs)
        flow = net.compute_max_flow()
        expect = _min_cut_enumeration(n, terminal, arcs)
        assert abs(flow - expect) <= 1e-9
        # strong duality: the reported cut has capacity equal to the flow
        assert abs(_cut_capacity(net) - flow) <= 1e-9
        # conservation at every non-terminal node
        for v in nodes:
            assert abs(_flow_excess(net, v)) <= 1e-9


def test_queries_require_solved_state():
    net = FlowNetwork()
    v = net.add_node()
    net.add_terminal_arc(v, 1.0, 1.0)
    with pytest.raises(StateError):
        net.min_cut_side(v)
    net.compute_max_flow()
    net.min_cut_side(v)                    # fine once solved
    net.add_terminal_arc(v, 1.0, 0.0)      # mutation invalidates the solve
    with pytest.raises(StateError):
        net.min_cut_side(v)


def test_terminal_arcs_accumulate():
    net = FlowNetwork()
    v = net.add_node()
    net.add_terminal_arc(v, 2.0, 0.0)
    net.add_terminal_arc(v, 3.0, 4.0)
    assert net.compute_max_flow() == 4.0


def test_source_side_nodes():
    terminal = [(10.0, 0.0), (0.0, 1.0)]
    arcs = [(0, 1, 1.0, 0.0)]
    net, nodes = _build(terminal, arcs)
    net.compute_max_flow()
    assert net.source_side_mask().tolist() == [True, False]
    assert net.min_cut_side(SOURCE)
    assert not net.min_cut_side(SINK)
