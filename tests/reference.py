"""Plain reference versions of the solver's fast paths.

Each function here is the straightforward predecessor of an array-based
or cut-skipping implementation in parsilab.  The property tests compare
the two on random small instances and require identical results.
"""

import numpy as np

from parsilab.expansion import ACCEPT_TOL, CliqueGamma, MoveTrace, PnPottsInstance
from parsilab.hst import ROOT
from parsilab.maxflow import FlowNetwork


def evaluate(instance, labeling):
    """PnPottsInstance.evaluate as a loop over the cliques."""
    labeling = instance.check_labeling(labeling)
    e = float(instance.unaries[np.arange(instance.num_variables),
                               labeling].sum())
    for c in instance.cliques:
        if c.weight == 0.0:
            continue
        labs = labeling[c.members_arr]
        if np.all(labs == labs[0]):
            e += c.weight * c.gamma[labs[0]]
        else:
            e += c.weight * c.gamma_max
    return e


def best_expansion_move(instance, current, alpha):
    """best_expansion_move with the gadgets built clique by clique and the
    cut read node by node."""
    current = instance.check_labeling(current)
    net = FlowNetwork()
    nodes = net.add_nodes(instance.num_variables)
    for i in range(instance.num_variables):
        keep_cost = instance.unaries[i, current[i]]
        switch_cost = instance.unaries[i, alpha]
        base = min(keep_cost, switch_cost)
        net.add_terminal_arc(nodes[i], switch_cost - base, keep_cost - base)

    gadgets = []
    for c in instance.cliques:
        if c.weight == 0.0:
            continue
        movers = [i for i in c.members if current[i] != alpha]
        if not movers:
            continue
        labs = current[c.members_arr]
        uniform = np.all(labs == labs[0])
        gamma_keep = c.gamma[labs[0]] \
            if (uniform and len(movers) == len(c.members)) else c.gamma_max
        gadgets.append((movers, c.weight * (c.gamma_max - gamma_keep),
                        c.weight * (c.gamma_max - c.gamma[alpha])))

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
        if not net.min_cut_side(nodes[i]):
            result[i] = alpha
    return result


def alpha_expansion(instance, init=None):
    """alpha_expansion as full sweeps that cut every move of every sweep."""
    if init is None:
        labeling = np.zeros(instance.num_variables, dtype=np.intp)
    else:
        labeling = instance.check_labeling(init).copy()
    energy = evaluate(instance, labeling)
    trace = MoveTrace(initial_energy=energy)
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


def diameter(tree, subset):
    """Tree-metric diameter of a label subset, computed afresh."""
    idx = np.asarray(sorted(set(int(l) for l in subset)), dtype=int)
    return float(tree.metric().matrix[np.ix_(idx, idx)].max())


def build_fusion_instance(model, tree, node, child_states):
    """build_fusion_instance as a loop over the model's cliques."""
    n = model.num_variables
    meta_unaries = np.empty((n, len(child_states)))
    for j, st in enumerate(child_states):
        meta_unaries[:, j] = model.unaries[np.arange(n), st.labeling]
    gamma_max = diameter(tree, tree.cluster_labels(node))
    cliques = []
    for c in model.cliques:
        if c.weight == 0.0:
            continue
        subsets = [sorted(set(st.labeling[c.members_arr].tolist()))
                   for st in child_states]
        if (all(s == subsets[0] for s in subsets) and len(subsets[0]) == 1
                and all(np.array_equal(child_states[0].labeling[c.members_arr],
                                       st.labeling[c.members_arr])
                        for st in child_states[1:])):
            continue
        cliques.append(CliqueGamma(c.members,
                                   [diameter(tree, s) for s in subsets],
                                   gamma_max, c.weight))
    return PnPottsInstance(meta_unaries, cliques)


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
