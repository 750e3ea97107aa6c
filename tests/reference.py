"""Plain reference versions of the solver's fast paths.

Each function here is the straightforward predecessor of an array-based
or cut-skipping implementation in parsilab.  The property tests compare
the two on random small instances and require identical results.
"""

import numpy as np

from conftest import pn_instance
from parsilab.expansion import ACCEPT_TOL, MoveTrace, alpha_expansion
from parsilab.model import Cliques, InvalidInputError, check_labeling
from parsilab.hst import ROOT, RHst
from parsilab.maxflow import (FLOW_TOL, FlowNetwork, _arc_lists,
                              _search_trees, _short_paths)
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


def diameter_clique_values(diversity, labs, offsets):
    """DiameterDiversity.clique_values with every clique valued, in
    blocks of at most block_entries // H members (one larger clique goes
    alone)."""
    cap = max(1, diversity.block_entries // diversity.num_labels)
    values, c, count = [], 0, offsets.size - 1
    while c < count:
        stop = max(c + 1, int(np.searchsorted(
            offsets, offsets[c] + cap, side="right")) - 1)
        a, b = offsets[c], offsets[stop]
        values.append(diversity._block_values(labs[a:b],
                                              offsets[c:stop + 1] - a))
        c = stop
    return np.concatenate(values) if values else np.zeros(0)


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
    gadgets = []
    for c, (members, weight) in enumerate(clique_list(instance.cliques)):
        if weight == 0.0:
            continue
        movers = [int(i) for i in members if current[i] != alpha]
        if not movers:
            continue
        gamma, gamma_max = instance.gamma[c], instance.gamma_max[c]
        labs = current[members]
        uniform = np.all(labs == labs[0])
        gamma_keep = gamma[labs[0]] \
            if (uniform and len(movers) == len(members)) else gamma_max
        gadgets.append((movers, weight * (gamma_max - gamma_keep),
                        weight * (gamma_max - gamma[alpha])))

    # a node per variable, then per gadget its hubs after them
    hubs = sum(int(p > 0) + int(q > 0) for _, p, q in gadgets)
    net = FlowNetwork(instance.num_variables + hubs)
    for i in range(instance.num_variables):
        keep_cost = instance.unaries[i, current[i]]
        switch_cost = instance.unaries[i, alpha]
        base = min(keep_cost, switch_cost)
        net.add_terminal_arc(i, switch_cost - base, keep_cost - base)
    hub = iter(range(instance.num_variables, net.num_nodes))
    inf = infinite_capacity(net) + sum(p + q for _, p, q in gadgets)
    for movers, pay_keep, pay_switch in gadgets:
        if pay_keep > 0:
            b = next(hub)
            net.add_terminal_arc(b, pay_keep, 0.0)
            for i in movers:
                net.add_arc(b, i, inf)
        if pay_switch > 0:
            a = next(hub)
            net.add_terminal_arc(a, 0.0, pay_switch)
            for i in movers:
                net.add_arc(i, a, inf)

    net.compute_max_flow()
    result = current.copy()
    for i in range(instance.num_variables):
        if not min_cut_side(net, i):
            result[i] = alpha
    return result


def infinite_capacity(net):
    """A capacity larger than any flow of net: the sum of its finite
    capacities plus one, over every arc slot and terminal capacity."""
    return sum(net._cap) + sum(net._source) + sum(net._sink) + 1.0


def forced_movers(instance, current, alpha):
    """The movers expansion._move_network fixes in one pass, without the
    fixpoint: (switch, keep) masks over the variables.

    Mover i switches in every optimal move when us + sum_keep < uk -
    margin and keeps when uk + sum_switch < us - margin, where sum_keep
    and sum_switch add up its cliques' pay_keep and pay_switch and the
    margin is max(FLOW_TOL, 2**-40 * (|uk| + |us| + sum_keep +
    sum_switch)).
    """
    current = check_labeling(current, instance.unaries)
    n = instance.num_variables
    sum_keep, sum_switch = np.zeros(n), np.zeros(n)
    for c, (members, weight) in enumerate(clique_list(instance.cliques)):
        gamma, gamma_max = instance.gamma[c], instance.gamma_max[c]
        labs = current[members]
        gamma_keep = gamma[labs[0]] if np.all(labs == labs[0]) else gamma_max
        for i in members:
            if current[i] != alpha:
                sum_keep[i] += weight * (gamma_max - gamma_keep)
                sum_switch[i] += weight * (gamma_max - gamma[alpha])
    keep_cost = instance.unaries[np.arange(n), current]
    switch_cost = instance.unaries[:, alpha]
    margin = np.maximum(FLOW_TOL, 2.0 ** -40 * (
        np.abs(keep_cost) + np.abs(switch_cost) + sum_keep + sum_switch))
    mover = current != alpha
    return (mover & (switch_cost + sum_keep < keep_cost - margin),
            mover & (keep_cost + sum_switch < switch_cost - margin))


def fix_forced(slot, paid, pay, sums, below):
    """expansion._fix_forced with every pass over every entry, the
    dropped ones included."""
    while True:
        forced = sums < below
        fixed = paid[forced[slot].nonzero()[0]]
        if not np.count_nonzero(pay[fixed]):
            return forced
        pay[fixed] = 0.0
        sums = np.bincount(slot, pay[paid], sums.size)


def masked_move(instance, current, alpha, components):
    """best_expansion_move over the whole instance, whatever components
    it marks: one network, in which a variable of a component left out is
    neither forced nor free.  Returns the move and the network (None when
    no mover is free), which is that of the marked components' instance.
    """
    n = instance.num_variables
    movable = np.repeat(components, n // instance.num_components)
    cliques = instance.cliques
    count = len(cliques)
    members, owner = cliques.members, cliques.owner
    clique_gamma = instance.clique_gamma(current)
    pay = np.empty(2 * count)
    np.multiply(cliques.weights, instance.gamma_max - clique_gamma,
                out=pay[:count])
    np.multiply(cliques.weights,
                instance.gamma_max - instance.gamma[:, alpha],
                out=pay[count:])
    sums = np.bincount(instance._slot, pay[instance._paid], 2 * n)

    keep_cost = instance.unaries[np.arange(n), current]
    switch_cost = instance.unaries[:, alpha]
    gap = keep_cost - switch_cost
    margin = np.maximum(FLOW_TOL, 2.0 ** -40 * (
        np.abs(keep_cost) + np.abs(switch_cost) + sums[:n] + sums[n:]))
    below = np.concatenate((gap - margin, -gap - margin))
    below[:n][~movable] = -np.inf
    below[n:][~movable] = -np.inf
    forced = fix_forced(instance._slot, instance._paid, pay, sums, below)
    switch = forced[:n]
    loose = (current != alpha) & ~(switch | forced[n:]) & movable
    free = loose.nonzero()[0]
    if not free.size:
        return np.where(switch, alpha, current), None

    pay_keep, pay_switch = pay[:count], pay[count:]
    loose = loose[members].nonzero()[0]
    node = np.empty(n, dtype=np.intp)
    node[free] = np.arange(free.size)
    movers = node[members[loose]]
    num_movers = np.bincount(owner[loose], minlength=count)
    active = (num_movers > 0) & (pay_keep + pay_switch > 0)
    ends = num_movers.cumsum()
    starts = ends - num_movers
    gadgets = (active & (num_movers > 2)).nonzero()[0]
    hubs = int(np.count_nonzero(pay_keep[gadgets] > 0)
               + np.count_nonzero(pay_switch[gadgets] > 0))
    net = FlowNetwork(free.size + hubs)

    small = (active & (num_movers <= 2)).nonzero()[0]
    first, last = movers[starts[small]], movers[ends[small] - 1]
    keep_cost = keep_cost[free]
    switch_cost = switch_cost[free]
    np.add.at(switch_cost, first, pay_keep[small])
    np.add.at(keep_cost, last, pay_switch[small])
    base = np.minimum(keep_cost, switch_cost)
    from_source = (switch_cost - base).tolist()
    to_sink = (keep_cost - base).tolist()
    for i in (keep_cost != switch_cost).nonzero()[0].tolist():
        net.add_terminal_arc(i, from_source[i], to_sink[i])
    pair = num_movers[small] == 2
    pair_cap = (pay_keep[small] + pay_switch[small])[pair].tolist()
    for i, j, cap in zip(first[pair].tolist(), last[pair].tolist(),
                         pair_cap):
        net.add_arc(i, j, cap)

    inf = (sum(from_source) + sum(to_sink) + sum(pair_cap)
           + sum((pay_keep[gadgets] + pay_switch[gadgets]).tolist()) + 1.0)
    pay_keep, pay_switch = pay_keep.tolist(), pay_switch.tolist()
    hub = free.size
    for c in gadgets.tolist():
        clique_movers = movers[starts[c]:ends[c]].tolist()
        if pay_keep[c] > 0:
            net.add_terminal_arc(hub, pay_keep[c], 0.0)
            for i in clique_movers:
                net.add_arc(hub, i, inf)
            hub += 1
        if pay_switch[c] > 0:
            net.add_terminal_arc(hub, 0.0, pay_switch[c])
            for i in clique_movers:
                net.add_arc(i, hub, inf)
            hub += 1
    net.compute_max_flow()
    switch[free] = ~net.source_side_mask()[:free.size]
    return np.where(switch, alpha, current), net


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
            if energy - e > ACCEPT_TOL:
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


def random_rhst(label_count, r=2.0, depth=3, seed=0, chains=0.0):
    """A random r-HST with the given label set as leaves.

    Labels are recursively partitioned; every chain of edge lengths
    shrinks by a factor of at least r, and all invariants are checked
    before returning.  Above the bottom two levels, a node of several
    labels gets one child holding them all with probability chains.
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
        elif chains and rng.uniform() < chains:
            parts = [labels]                  # a single-child chain link
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


def solve_hierarchical(model, tree):
    """solve_hierarchical's walk node by node: every node with several
    children is fused alone, by its instance from the clique loop below.
    Returns the labeling of every tree node, by node."""
    n = model.num_variables
    labelings = {}
    for node in reversed(tree.order):
        if tree.is_leaf(node):
            lab = np.full(n, tree.leaf_label[node], dtype=np.intp)
        else:
            children = np.stack([labelings[ch]
                                 for ch in tree.children[node]])
            if len(children) == 1:
                lab = children[0]
            else:
                choice, _ = alpha_expansion(
                    build_fusion_instance(model, tree, node, children))
                lab = children[choice, np.arange(n)]
        labelings[node] = lab
    return labelings


def cluster_labels(tree, node):
    """Sorted labels at the leaves of the subtree rooted at node, by one
    depth-first walk from node."""
    out = []
    stack = [node]
    while stack:
        v = stack.pop()
        if tree.leaf_label[v] is not None:
            out.append(tree.leaf_label[v])
        stack.extend(tree.children[v])
    return tuple(sorted(out))


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
    gamma_max = diameter(tree, cluster_labels(tree, node))
    cliques = []
    for members, weight in clique_list(model.cliques):
        if weight == 0.0:
            continue
        subsets = [sorted(set(lab[members].tolist()))
                   for lab in child_labelings]
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


def depth(tree, v):
    """Number of nodes on the path from v up to the root, v included."""
    d = 1
    while tree.parents[v] >= 0:
        v = tree.parents[v]
        d += 1
    return d


def node_distance(tree, u, v):
    """Shortest-path distance between two nodes of an r-HST, one edge at
    a time: the deeper node climbs first, then both in lockstep."""
    du, dv = depth(tree, u), depth(tree, v)
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


def tree_to_json(tree):
    """The tree document RHst.from_json reads."""
    return {
        "r": tree.r,
        "nodes": [{"parent": p, "edge_to_children": e, "label": l}
                  for p, e, l in zip(tree.parents, tree.child_edge,
                                     tree.leaf_label)],
    }


def frt_decompose(dist, rng):
    """FRT laminar decomposition with the centers visited one at a time:
    (parents, leaf_label) of a cluster tree with a node for every cluster
    at every level, whose level-i clusters have radius beta * 2^(i-1)."""
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


def frt_tree(dist, rng, r=2.0):
    """hst._frt_tree in four passes: decompose, splice out single-child
    chains, tighten the edges over every split label pair, renumber."""
    h = dist.shape[0]
    if h == 1:
        return RHst([-1], [0.0], [0], r=r)
    parents, leaf_label = frt_decompose(dist, rng)

    children = [[] for _ in parents]
    for v, p in enumerate(parents):
        if p >= 0:
            children[p].append(v)
    # splice out single-child internal nodes (the child takes its place)
    for v in range(len(parents)):
        while len(children[v]) == 1:
            only = children[v][0]
            children[v] = children[only]
            children[only] = []
            leaf_label[v] = leaf_label[only]
            for grand in children[v]:
                parents[grand] = v

    # bottom-up edge tightening over the spliced tree
    order = []
    stack = [ROOT]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    edge = [0.0] * len(parents)
    up = [None] * len(parents)              # leaf -> distance to this node
    for v in reversed(order):
        if not children[v]:
            up[v] = {leaf_label[v]: 0.0}
            continue
        floor = r * max(edge[c] for c in children[v])
        need = 0.0
        kids = children[v]
        for a in range(len(kids)):
            for b in range(a + 1, len(kids)):
                for u, du in up[kids[a]].items():
                    for w, dw in up[kids[b]].items():
                        need = max(need, (dist[u, w] - du - dw) / 2.0)
        edge[v] = max(floor, need)
        up[v] = {}
        for c in kids:
            for u, du in up[c].items():
                up[v][u] = du + edge[v]

    # compact to the surviving nodes
    remap = {}
    new_parents, new_edge, new_label = [], [], []
    for v in order:
        remap[v] = len(new_parents)
        new_parents.append(remap[parents[v]] if parents[v] >= 0 else -1)
        new_edge.append(edge[v])
        new_label.append(leaf_label[v])
    return RHst(new_parents, new_edge, new_label, r=r)


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
    return net._residual_reachable()[v]


def source_reachable(head, to, res, seen):
    """Marks in seen, and returns it, every node that the residual res
    reaches from the nodes seen already marks: a breadth-first search over
    the arcs head lists per node."""
    queue = [v for v, s in enumerate(seen) if s]
    for u in queue:
        for a in head[u]:
            v = to[a]
            if res[a] > FLOW_TOL and not seen[v]:
                seen[v] = True
                queue.append(v)
    return seen


def arc_lists(to, n):
    """Per node 0..n-1, the ids of the arcs leaving it in insertion
    order, read from the flat arc heads to: the tail of arc a is the head
    of its twin a ^ 1."""
    head = [[] for _ in range(n)]
    for a in range(len(to)):
        head[to[a ^ 1]].append(a)
    return head


def slot_capacities(net):
    """The capacity of every arc slot of net, the reverse twins' 0
    included: the residual before any flow."""
    caps = [0.0] * len(net._to)
    caps[::2] = net._cap
    return caps


def solve_residual(net, short_paths=_short_paths):
    """net solved as compute_max_flow solves it, with the greedy pass
    short_paths, on copies of its capacities: (flow, per-node arc lists,
    inner residual, residual from the source, residual to the sink)."""
    to = net._to
    head = _arc_lists(to, net.num_nodes)
    res = slot_capacities(net)
    source, sink = list(net._source), list(net._sink)
    flow = short_paths(head, to, res, source, sink)
    flow += _search_trees(head, to, res, source, sink)[0]
    return flow, head, res, source, sink


def two_hop_paths(head, to, res, source, sink):
    """The greedy pass before the three-hop one: push flow along the
    residual paths source -> u -> sink and source -> u -> v -> sink, the
    nodes u taken in order.  Returns the flow pushed."""
    tol = FLOW_TOL
    total = 0.0
    for u, r in enumerate(source):
        d = min(r, sink[u])
        sink[u] -= d
        r -= d
        if r > tol:
            for b in head[u]:
                v = to[b]
                if res[b] > tol and sink[v] > tol:
                    d = min(r, res[b], sink[v])
                    res[b] -= d
                    res[b ^ 1] += d
                    sink[v] -= d
                    r -= d
                    if r <= tol:
                        break
        total += source[u] - r
        source[u] = r
    return total


class TwoHopNetwork(FlowNetwork):
    """FlowNetwork whose greedy pass is two_hop_paths; the package's
    layout and Boykov-Kolmogorov augmentation do the rest.  Its cut is
    read by a search from the source alone."""

    @classmethod
    def copy_of(cls, net):
        copy = cls(net.num_nodes)
        copy._to, copy._cap = list(net._to), list(net._cap)
        copy._source, copy._sink = list(net._source), list(net._sink)
        return copy

    def compute_max_flow(self):
        flow, head, res, source, _ = solve_residual(self, two_hop_paths)
        self._reachable = source_reachable(
            head, self._to, res, [r > FLOW_TOL for r in source])
        return flow


class DinicNetwork:
    """The arc-list network FlowNetwork was before it kept its terminal
    capacities per node, solved by Dinic's algorithm.  Node 0 is the
    source, 1 the sink and v + 2 node v; every terminal capacity is an
    arc, stored with its reverse twin like an inner arc.  The per-node
    arc lists are built by arc_lists instead of the solve-time layout,
    and the cut is read by a search from the source."""

    def __init__(self, num_nodes):
        self.num_nodes = num_nodes
        self._to = []
        self._cap = []
        self._reachable = None

    @classmethod
    def copy_of(cls, net):
        """The nodes and arcs of FlowNetwork net: its terminal arcs in
        node order, then its inner arcs in their order."""
        copy = cls(net.num_nodes)
        for v, (s, t) in enumerate(zip(net._source, net._sink)):
            copy.add_terminal_arc(v, s, t)
        to = net._to
        for k, cap in enumerate(net._cap):
            copy.add_arc(to[2 * k + 1], to[2 * k], cap)
        return copy

    def add_arc(self, u, v, cap):
        self._to += [v + 2, u + 2]
        self._cap += [float(cap), 0.0]

    def add_terminal_arc(self, v, cap_from_source, cap_to_sink):
        if cap_from_source > 0:
            self._to += [v + 2, 0]
            self._cap += [float(cap_from_source), 0.0]
        if cap_to_sink > 0:
            self._to += [1, v + 2]
            self._cap += [float(cap_to_sink), 0.0]

    def source_side_mask(self):
        return np.array(self._reachable[2:], dtype=bool)

    def compute_max_flow(self):
        to = self._to
        head = arc_lists(to, self.num_nodes + 2)
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

        self._reachable = source_reachable(head, to, res,
                                           [True] + [False] * (n - 1))
        return total
