"""Plain reference versions of the solver's fast paths.

Each function here is the straightforward predecessor of an array-based
or cut-skipping implementation in parsilab.  The property tests compare
the two on random small instances and require identical results.
"""

import numpy as np

from conftest import pn_instance
from parsilab.expansion import ACCEPT_TOL, MoveTrace
from parsilab.model import Cliques, InvalidInputError, check_labeling
from parsilab.hst import ROOT, RHst
from parsilab.maxflow import FLOW_TOL, FlowNetwork
from parsilab.oracle import SizeError

MAX_MOVE_SPACE = 10 ** 6


def clique_list(cliques):
    """The cliques of a model.Cliques as (members, weight) pairs."""
    bounds = cliques.offsets.tolist()
    return [(cliques.members[a:b], w) for a, b, w in
            zip(bounds[:-1], bounds[1:], cliques.weights.tolist())]


def unique_labels(labeling, members):
    """The sorted set of unique labels the labeling assigns to a clique's
    members."""
    labeling = np.asarray(labeling)
    return tuple(sorted(set(int(l) for l in labeling[members])))


def evaluate_energy(model, labeling):
    """EnergyModel.evaluate_energy with the clique term as a loop over the
    cliques."""
    total = 0.0
    for members, weight in clique_list(model.cliques):
        if weight == 0.0:
            continue
        total += weight * model.potential.value(
            unique_labels(labeling, members))
    labeling = check_labeling(labeling, model.unaries)
    unary = model.unaries[np.arange(model.num_variables), labeling].sum()
    return float(unary) + total


def evaluate(instance, labeling):
    """PnPottsInstance.evaluate as a loop over the cliques."""
    labeling = check_labeling(labeling, instance.unaries)
    e = float(instance.unaries[np.arange(instance.num_variables),
                               labeling].sum())
    for c, (members, weight) in enumerate(clique_list(instance.cliques)):
        if weight == 0.0:
            continue
        labs = labeling[members]
        if np.all(labs == labs[0]):
            e += weight * instance.gamma[c, labs[0]]
        else:
            e += weight * instance.gamma_max[c]
    return e


def best_expansion_move(instance, current, alpha):
    """best_expansion_move with the gadgets built clique by clique and the
    cut read node by node."""
    current = check_labeling(current, instance.unaries)
    net = FlowNetwork()
    nodes = net.add_nodes(instance.num_variables)
    for i in range(instance.num_variables):
        keep_cost = instance.unaries[i, current[i]]
        switch_cost = instance.unaries[i, alpha]
        base = min(keep_cost, switch_cost)
        net.add_terminal_arc(nodes[i], switch_cost - base, keep_cost - base)

    gadgets = []
    for c, (members, weight) in enumerate(clique_list(instance.cliques)):
        if weight == 0.0:
            continue
        movers = [i for i in members if current[i] != alpha]
        if not movers:
            continue
        gamma, gamma_max = instance.gamma[c], instance.gamma_max[c]
        labs = current[members]
        uniform = np.all(labs == labs[0])
        gamma_keep = gamma[labs[0]] \
            if (uniform and len(movers) == len(members)) else gamma_max
        gadgets.append((movers, weight * (gamma_max - gamma_keep),
                        weight * (gamma_max - gamma[alpha])))

    inf = net.infinite_capacity() + sum(p + q for _, p, q in gadgets) + 1.0
    for movers, pay_keep, pay_switch in gadgets:
        if pay_keep > 0:
            b = net.add_node()
            net.add_terminal_arc(b, pay_keep, 0.0)
            for i in movers:
                net.add_arc(b, nodes[i], inf)
        if pay_switch > 0:
            a = net.add_node()
            net.add_terminal_arc(a, 0.0, pay_switch)
            for i in movers:
                net.add_arc(nodes[i], a, inf)

    net.compute_max_flow()
    result = current.copy()
    for i in range(instance.num_variables):
        if not min_cut_side(net, nodes[i]):
            result[i] = alpha
    return result


def alpha_expansion(instance, init=None):
    """alpha_expansion as full sweeps that cut every move of every sweep."""
    if init is None:
        labeling = np.zeros(instance.num_variables, dtype=np.intp)
    else:
        labeling = check_labeling(init, instance.unaries).copy()
    energy = evaluate(instance, labeling)
    trace = MoveTrace()
    improved = True
    while improved:
        improved = False
        trace.sweeps += 1
        for alpha in range(instance.num_labels):
            proposal = best_expansion_move(instance, labeling, alpha)
            e = evaluate(instance, proposal)
            if e < energy - ACCEPT_TOL:
                labeling, energy = proposal, e
                trace.moves.append((trace.sweeps, alpha, e))
                improved = True
    return labeling, trace


def exhaustive_expansion_move(instance, current, alpha):
    """Best labeling in the binary move space, by enumerating all 2^N moves."""
    current = check_labeling(current, instance.unaries)
    n = instance.num_variables
    if 2 ** n > MAX_MOVE_SPACE:
        raise SizeError("move space too large to enumerate (2^%d)" % n)
    best_lab = None
    best_e = np.inf
    for bits in range(2 ** n):
        lab = current.copy()
        for i in range(n):
            if bits >> (n - 1 - i) & 1:
                lab[i] = alpha
        e = instance.evaluate(lab)
        if e < best_e:
            best_e = e
            best_lab = lab
    return best_lab


def random_rhst(label_count, r=2.0, depth=3, seed=0):
    """A random r-HST with the given label set as leaves.

    Labels are recursively partitioned; every chain of edge lengths
    shrinks by a factor of at least r, and all invariants are checked
    before returning.
    """
    if r <= 1:
        raise InvalidInputError("separation parameter r must exceed 1")
    if depth < 1 or (label_count > 1 and depth < 2):
        raise InvalidInputError("tree too shallow for this many labels")
    rng = np.random.default_rng(seed)
    parents = [-1]
    child_edge = [0.0]
    leaf_label = [None]

    def grow(node, labels, edge, levels_left):
        if len(labels) == 1:
            child_edge[node] = 0.0
            leaf_label[node] = int(labels[0])
            return
        child_edge[node] = edge
        if levels_left <= 2:
            parts = [[l] for l in labels]     # forced full split at the bottom
        else:
            count = int(rng.integers(2, len(labels) + 1))
            assign = rng.integers(0, count, size=len(labels))
            assign[rng.permutation(len(labels))[:count]] = np.arange(count)
            parts = [[l for l, a in zip(labels, assign) if a == g]
                     for g in range(count)]
            parts = [p for p in parts if p]
        child_len = edge / (r * float(rng.uniform(1.0, 1.5)))
        for part in parts:
            child = len(parents)
            parents.append(node)
            child_edge.append(0.0)
            leaf_label.append(None)
            grow(child, part, child_len, levels_left - 1)

    top_edge = float(rng.uniform(4.0, 16.0))
    grow(0, list(range(label_count)), top_edge, depth)
    return RHst(parents, child_edge, leaf_label, r=r)


def diameter(tree, subset):
    """Tree-metric diameter of a label subset, computed afresh."""
    idx = np.asarray(sorted(set(int(l) for l in subset)), dtype=int)
    return float(tree.metric().matrix[np.ix_(idx, idx)].max())


def build_fusion_instance(model, tree, node, child_labelings):
    """build_fusion_instance as a loop over the model's cliques."""
    n = model.num_variables
    meta_unaries = np.empty((n, len(child_labelings)))
    for j, lab in enumerate(child_labelings):
        meta_unaries[:, j] = model.unaries[np.arange(n), lab]
    gamma_max = diameter(tree, tree.cluster_labels(node))
    cliques = []
    for members, weight in clique_list(model.cliques):
        if weight == 0.0:
            continue
        subsets = [sorted(set(lab[members].tolist()))
                   for lab in child_labelings]
        if (all(s == subsets[0] for s in subsets) and len(subsets[0]) == 1
                and all(np.array_equal(child_labelings[0][members],
                                       lab[members])
                        for lab in child_labelings[1:])):
            continue
        cliques.append((members, [diameter(tree, s) for s in subsets],
                        gamma_max, weight))
    return pn_instance(meta_unaries, cliques)


def window_cliques(width, height, window, stride, weight):
    """tasks.window_cliques as a loop over the window corners."""
    members = []
    for y0 in range(0, height - window + 1, stride):
        for x0 in range(0, width - window + 1, stride):
            members.append([(y0 + dy) * width + (x0 + dx)
                            for dy in range(window) for dx in range(window)])
    return Cliques.from_lists(members, [weight] * len(members))


def pairwise_cliques(height, width, weight_fn):
    """tasks.pairwise_cliques as a loop over the pixels, weight_fn called
    once per pair."""
    members, weights = [], []
    for y in range(height):
        for x in range(width):
            p = y * width + x
            if x + 1 < width:
                members.append([p, p + 1])
                weights.append(float(weight_fn(p, p + 1)))
            if y + 1 < height:
                members.append([p, p + width])
                weights.append(float(weight_fn(p, p + width)))
    return Cliques.from_lists(members, weights)


def superpixel_cliques(region_map, intensity, sigma):
    """tasks.superpixel_cliques as a loop over the region ids."""
    flat_regions = region_map.reshape(-1)
    flat_int = intensity.reshape(-1).astype(float)
    members, weights = [], []
    for rid in np.unique(flat_regions):
        members.append(np.flatnonzero(flat_regions == rid))
        weights.append(float(np.exp(-flat_int[members[-1]].var()
                                    / sigma ** 2)))
    return Cliques.from_lists(members, weights)


def node_distance(tree, u, v):
    """Shortest-path distance between two nodes of an r-HST, one edge at
    a time: the deeper node climbs first, then both in lockstep."""
    du, dv = tree.depth(u), tree.depth(v)
    dist = 0.0
    while du > dv:
        dist += tree.child_edge[tree.parents[u]]
        u = tree.parents[u]
        du -= 1
    while dv > du:
        dist += tree.child_edge[tree.parents[v]]
        v = tree.parents[v]
        dv -= 1
    while u != v:
        dist += tree.child_edge[tree.parents[u]]
        dist += tree.child_edge[tree.parents[v]]
        u, v = tree.parents[u], tree.parents[v]
    return dist


def frt_decompose(dist, rng):
    """hst._frt_decompose with the centers visited one at a time."""
    h = dist.shape[0]
    beta = float(rng.uniform(1.0, 2.0))
    order = rng.permutation(h)
    diameter_ = float(dist.max())
    top = 1
    while beta * 2.0 ** (top - 1) < diameter_:
        top += 1
    parents = [-1]
    leaf_label = [None]
    clusters = [(ROOT, np.arange(h))]
    for level in range(top - 1, -1, -1):
        radius = beta * 2.0 ** (level - 1)
        next_clusters = []
        for parent_node, pts in clusters:
            assigned = np.full(pts.shape[0], -1)
            for center in order:
                hit = (assigned < 0) & (dist[center, pts] <= radius)
                assigned[hit] = center
            for center in order:
                sub = pts[assigned == center]
                if sub.size == 0:
                    continue
                node = len(parents)
                parents.append(parent_node)
                if level > 0:
                    leaf_label.append(None)
                    next_clusters.append((node, sub))
                else:
                    leaf_label.append(int(sub[0]))
        clusters = next_clusters
    return parents, leaf_label


def truncated_linear(num_labels, lam, truncation):
    """LabelMetric.truncated_linear's matrix from the H x H table of label
    differences."""
    idx = np.arange(num_labels)
    return lam * np.minimum(np.abs(idx[:, None] - idx[None, :]), truncation)


def metric_violation(m, tol):
    """LabelMetric.check's triangle test over the full H x H x H array."""
    through = m[:, :, None] + m[None, :, :]
    return bool(np.any(through.min(axis=1) < m - tol))


def min_cut_side(net, v):
    """True if node v of the solved network lies on the source side of
    the minimum cut."""
    return net._residual_reachable()[net._internal(v)]


def source_reachable(net):
    """Per internal node of the solved net, whether the residual graph
    reaches it: a breadth-first search from the source alone, where
    FlowNetwork starts from its final source tree."""
    head, to, res = net._head, net._to, net._res
    seen = [False] * len(head)
    seen[0] = True
    queue = [0]
    for u in queue:
        for a in head[u]:
            v = to[a]
            if res[a] > FLOW_TOL and not seen[v]:
                seen[v] = True
                queue.append(v)
    return seen


def arc_lists(net):
    """Per internal node of net (0 the source, 1 the sink, v + 2 node v),
    the ids of the arcs leaving it in insertion order, read from the flat
    arc heads: the tail of arc a is the head of its twin a ^ 1."""
    to = net._to
    head = [[] for _ in range(net.num_nodes + 2)]
    for a in range(len(to)):
        head[to[a ^ 1]].append(a)
    return head


class DinicNetwork(FlowNetwork):
    """FlowNetwork solved by Dinic's algorithm instead of the short-path
    pass and Boykov-Kolmogorov augmentation, on per-node arc lists built
    by arc_lists instead of the solve-time layout.  Without search trees,
    its cut is read by source_reachable."""

    @classmethod
    def copy_of(cls, net):
        """A DinicNetwork with the nodes and arcs of net, in its arc order."""
        copy = cls()
        copy.add_nodes(net.num_nodes)
        copy._to = list(net._to)
        copy._cap = list(net._cap)
        return copy

    def compute_max_flow(self):
        if self._solved():
            return self._flow_value
        to = self._to
        self._head = head = arc_lists(self)
        res = list(self._cap)
        n = len(head)
        total = 0.0

        while True:
            # BFS layering on the residual graph.  It stops once the sink
            # has its layer: the nodes still unlayered would be dead ends,
            # which the DFS skips exactly as it skips unlayered nodes.
            level = [-1] * n
            level[0] = 0
            queue = [0]
            for u in queue:
                next_level = level[u] + 1
                for a in head[u]:
                    v = to[a]
                    if level[v] < 0 and res[a] > FLOW_TOL:
                        level[v] = next_level
                        queue.append(v)
                if level[1] >= 0:
                    break
            if level[1] < 0:
                break
            it = [0] * n
            # blocking flow via iterative DFS with current-arc pointers
            while True:
                path = []
                u = 0
                while u != 1:
                    advanced = False
                    arcs = head[u]
                    next_level = level[u] + 1
                    while it[u] < len(arcs):
                        a = arcs[it[u]]
                        if res[a] > FLOW_TOL and level[to[a]] == next_level:
                            path.append(a)
                            u = to[a]
                            advanced = True
                            break
                        it[u] += 1
                    if not advanced:
                        level[u] = -1   # dead end; prune
                        if not path:
                            u = None
                            break
                        a = path.pop()
                        u = to[a ^ 1]
                if u is None:
                    break
                bottleneck = min(res[a] for a in path)
                for a in path:
                    res[a] -= bottleneck
                    res[a ^ 1] += bottleneck
                total += bottleneck

        self._res = res
        self._flow_value = total
        self._reachable = None
        self._solved_size = (self._nodes, len(self._to))
        return total

    def _residual_reachable(self):
        self._require_solved()
        if self._reachable is None:
            self._reachable = source_reachable(self)
        return self._reachable
