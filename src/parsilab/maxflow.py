"""Min st-cut / max-flow on sparse directed networks.

This is the inner engine behind every expansion move.  A network is made
with all its nodes, and building it only appends each arc and its reverse
twin to two flat lists, the arc heads and the capacities.  The solve,
after the last arc, first lays the arcs out once: one numpy sort orders
the arc ids by tail, stably, and a bincount cumsum gives each node's
start offset, from which each node gets the list of its arcs.  It then
runs two steps on one residual list.  A greedy pass first pushes flow
along the residual paths from the source with one, two or three middle
nodes to the sink.  Those are the paths of the robust P^n gadget,
source -> hub -> mover -> hub -> sink, so on expansion-move networks the
pass carries almost all of the flow.  Boykov-Kolmogorov augmentation
(PAMI 2004) then finishes the flow: a source tree and a sink tree
persist across augmentations, so each path costs a local search instead
of a scan of the whole graph.

The cut read is the set of nodes reachable from the source in the
residual graph.  That set is the least minimum cut, the same for every
maximum flow, so the cut does not depend on the flow algorithm.  The
augmentation leaves most of it grown as its final source tree, whose
nodes are all reachable.  A tree node no longer queued for growth has no
residual arc leaving the tree, so the read marks the tree as reached and
searches on only from the tree nodes still queued.
Capacities are finite non-negative doubles; a residual below FLOW_TOL is
treated as saturated so that floating-point dust cannot stall the
augmenting loop.  Arc order is fixed by insertion, and the stable sort
keeps it within each node, which makes the solver deterministic.
"""

from collections import deque
from math import inf

import numpy as np

FLOW_TOL = 1e-11

# parent-arc markers of the search trees
_ROOT = -1                             # the source or the sink itself
_ORPHAN = -2                           # lost its parent arc, not re-attached


class FlowNetwork:
    """Directed capacitated graph between a source and a sink.

    The network is made with its num_nodes nodes, 0..num_nodes-1.
    add_arc joins two of them; the terminals are reached only through
    add_terminal_arc.  Internally node 0 is the source, 1 the sink and
    v + 2 the caller's node v.  Arcs are stored flat, in insertion order:
    arc a runs to the internal node _to[a] with capacity _cap[a], and its
    reverse twin is arc a ^ 1, of capacity 0, so the tail of a is
    _to[a ^ 1].  Building the network only appends to those two lists.
    compute_max_flow lays the arcs out per node and solves once, after
    the last arc is added; the residual lives apart from the capacities.
    Terminal capacities accumulate across repeated add_terminal_arc calls.
    """

    def __init__(self, num_nodes):
        if num_nodes < 0:
            raise ValueError("node count must be non-negative")
        self._to = []
        self._cap = []
        self._nodes = num_nodes        # user nodes, internal ids 2..nodes+1
        self._head = None              # per node its arc ids, after the solve
        self._res = None               # residual capacities after the solve
        self._source_tree = None       # (tree, its queued nodes) of the solve
        self._reachable = None

    @property
    def num_nodes(self):
        return self._nodes

    def add_arc(self, u, v, cap):
        # the chained comparisons also reject NaN
        if not 0 <= cap < inf:
            raise ValueError("arc capacity must be finite and non-negative")
        n = self._nodes
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("unknown node id %r" % (v if 0 <= u < n else u))
        to = self._to                  # list.append is the fastest way in
        to.append(v + 2)
        to.append(u + 2)
        caps = self._cap
        caps.append(float(cap))
        caps.append(0.0)

    def add_terminal_arc(self, v, cap_from_source, cap_to_sink):
        if not (0 <= cap_from_source < inf and 0 <= cap_to_sink < inf):
            raise ValueError(
                "terminal capacities must be finite and non-negative")
        if not 0 <= v < self._nodes:
            raise ValueError("unknown node id %r" % v)
        iv = v + 2
        to, cap = self._to, self._cap
        if cap_from_source > 0:
            to.append(iv)
            to.append(0)
            cap.append(float(cap_from_source))
            cap.append(0.0)
        if cap_to_sink > 0:
            to.append(1)
            to.append(iv)
            cap.append(float(cap_to_sink))
            cap.append(0.0)

    # -- max-flow -----------------------------------------------------------

    def compute_max_flow(self):
        self._head = _arc_lists(self._to, self._nodes + 2)
        res = list(self._cap)
        total = _short_paths(self._head, self._to, res)
        flow, tree, open_nodes = _search_trees(self._head, self._to, res)
        self._res = res
        self._source_tree = tree, open_nodes
        self._reachable = None
        return total + flow

    # -- post-solve queries -------------------------------------------------

    def _residual_reachable(self):
        if self._reachable is None:
            # the source tree is reached; only its queued nodes can have
            # residual arcs out of it
            tree, queue = self._source_tree
            self._source_tree = None
            head, to, res = self._head, self._to, self._res
            seen = [side > 0 for side in tree]
            for u in queue:
                for a in head[u]:
                    v = to[a]
                    if res[a] > FLOW_TOL and not seen[v]:
                        seen[v] = True
                        queue.append(v)
            self._reachable = seen
        return self._reachable

    def source_side_mask(self):
        """Boolean array over the nodes: True on the source side of the cut."""
        return np.array(self._residual_reachable()[2:], dtype=bool)


def _arc_lists(to, n):
    """Per internal node, the ids of the arcs leaving it in insertion order.

    The arcs are laid out in CSR form: sorted by tail, stably, with node
    u's arcs at adj[start[u]:start[u + 1]].  Arc b's head is the tail of
    its twin b ^ 1, so the heads give every count and sort key: the key of
    b ^ 1 packs (head of b, b ^ 1) into one integer (a network has fewer
    than 2**31 nodes and 2**32 arc slots), and sorting the keys sorts the
    arcs by tail.  Each node's slice is taken once, here, rather than at
    every visit of the flow.
    """
    key = np.fromiter(to, np.intp, len(to))
    start = [0] + np.bincount(key, minlength=n).cumsum().tolist()
    ids = np.arange(key.size)
    ids ^= 1
    key <<= 32
    key |= ids
    del ids
    key.sort()
    key &= 0xFFFFFFFF
    adj = key.tolist()
    del key
    return [adj[s:e] for s, e in zip(start, start[1:])]


def _short_paths(head, to, res):
    """Push flow along the residual paths with at most three middle nodes,
    the source's arcs taken in order.  Returns the flow pushed.

    From each source arc's head u the pass tries u -> sink, then for each
    residual arc u -> v in order v -> sink and then v -> w -> sink.  The
    nodes with a residual arc into the sink are the drains.  The first
    time a path reaches v, v gets the list of its residual arcs to drains,
    taken last first; an entry leaves the list once its arc saturates or
    its drain is no longer one.  So each arc is scanned once here, and
    the pass costs O(arcs + pushes).  On expansion-move networks, where a
    P^n gadget's paths run source -> hub -> mover -> hub -> sink, it
    carries almost all of the flow.

    A sink arc only loses residual here, so once u -> sink is tried with
    flow left over, u is no drain: no path runs back through u to the
    sink, and no pushed path uses an arc twice.
    """
    tol = FLOW_TOL
    sink_arc = [-1] * len(head)        # per drain, its arc into the sink
    for b in head[1]:
        if res[b ^ 1] > tol:
            sink_arc[to[b]] = b ^ 1
    drains = [None] * len(head)        # per middle node, its arcs to drains
    drains[0] = drains[1] = ()         # the terminals are never in a path
    total = 0.0
    for a in head[0]:
        r = res[a]
        if r <= tol:
            continue
        u = to[a]
        t = sink_arc[u]
        if t >= 0:
            d = min(r, res[t])
            res[t] -= d
            res[t ^ 1] += d
            r -= d
            if res[t] <= tol:
                sink_arc[u] = -1
        if r > tol:
            for b in head[u]:
                if res[b] <= tol:
                    continue
                v = to[b]
                t = sink_arc[v]
                if t >= 0:
                    d = min(r, res[b], res[t])
                    res[b] -= d
                    res[b ^ 1] += d
                    res[t] -= d
                    res[t ^ 1] += d
                    r -= d
                    if res[t] <= tol:
                        sink_arc[v] = -1
                    if r <= tol:
                        break
                    if res[b] <= tol:
                        continue
                arcs = drains[v]
                if arcs is None:
                    arcs = drains[v] = []
                    for c in head[v]:
                        if sink_arc[to[c]] >= 0 and res[c] > tol:
                            arcs.append(c)
                while arcs:
                    c = arcs[-1]
                    w = to[c]
                    t = sink_arc[w]
                    if t < 0 or res[c] <= tol:
                        arcs.pop()
                        continue
                    d = min(r, res[b], res[c], res[t])
                    res[b] -= d
                    res[b ^ 1] += d
                    res[c] -= d
                    res[c ^ 1] += d
                    res[t] -= d
                    res[t ^ 1] += d
                    r -= d
                    if res[t] <= tol:
                        sink_arc[w] = -1
                    if r <= tol or res[b] <= tol:
                        break
                if r <= tol:
                    break
        d = res[a] - r                 # what this source arc carried
        res[a] = r
        res[a ^ 1] += d
        total += d
    return total


def _search_trees(head, to, res):
    """Boykov-Kolmogorov augmentation on the residual.

    Returns the flow, the final tree of every node and the source-tree
    nodes still queued for growth.

    tree[v] is 1 in the source tree, -1 in the sink tree and 0 when free.
    parent[v] is the arc from v to its parent: in the source tree its
    reverse twin carries residual, in the sink tree the arc itself does.
    Active nodes wait in a FIFO queue to grow their tree into free
    neighbours; an arc between the trees closes an augmenting path.  The
    nodes whose parent arc the augmentation saturates become orphans, and
    each adopts the first neighbour of its tree whose origin is the root,
    or is freed, orphaning its children.
    """
    tol = FLOW_TOL
    n = len(head)
    tree = [0] * n
    parent = [_ORPHAN] * n
    tree[0] = 1
    tree[1] = -1
    parent[0] = parent[1] = _ROOT
    active = deque()
    for a in head[0]:
        v = to[a]
        if res[a] > tol and not tree[v]:
            tree[v] = 1
            parent[v] = a ^ 1
            active.append(v)
    bridged = False
    for b in head[1]:
        v = to[b]
        if res[b ^ 1] > tol:
            if not tree[v]:
                tree[v] = -1
                parent[v] = b ^ 1
                active.append(v)
            elif tree[v] > 0:
                # a node with arcs from the source and to the sink stays
                # active in the source tree, where growth finds the arc to
                # the sink
                bridged = True
    queued = [False] * n
    # queued tree nodes by tree (1, -1).  A tree none of whose nodes is
    # queued is closed: every residual arc out of the source tree, or into
    # the sink tree, stays inside it, so no augmenting path is left.  The
    # roots are never queued; the sink's arcs from source-tree nodes are
    # only seen from those nodes, so such an arc keeps the sink tree open.
    waiting = [0, 0, int(bridged)]
    for v in active:
        queued[v] = True
        waiting[tree[v]] += 1
    stamp = [0] * n                    # augmentation whose origin check passed
    time = 0
    total = 0.0

    while waiting[1] and waiting[-1]:
        u = active.popleft()
        queued[u] = False
        waiting[tree[u]] -= 1
        while tree[u]:
            # grow u's tree until an arc reaches the other tree
            bridge = -1
            if tree[u] > 0:
                for a in head[u]:
                    if res[a] > tol:
                        v = to[a]
                        side = tree[v]
                        if not side:
                            tree[v] = 1
                            parent[v] = a ^ 1
                            waiting[1] += 1
                            if not queued[v]:
                                queued[v] = True
                                active.append(v)
                        elif side < 0:
                            bridge = a
                            break
            else:
                for a in head[u]:
                    b = a ^ 1
                    if res[b] > tol:
                        v = to[a]
                        side = tree[v]
                        if not side:
                            tree[v] = -1
                            parent[v] = b
                            waiting[-1] += 1
                            if not queued[v]:
                                queued[v] = True
                                active.append(v)
                        elif side > 0:
                            bridge = b
                            break
            if bridge < 0:
                break

            # augment along source ... x -> y ... sink by the bottleneck
            x = to[bridge ^ 1]
            y = to[bridge]
            d = res[bridge]
            v = x
            while v != 0:
                a = parent[v]
                if res[a ^ 1] < d:
                    d = res[a ^ 1]
                v = to[a]
            v = y
            while v != 1:
                a = parent[v]
                if res[a] < d:
                    d = res[a]
                v = to[a]
            res[bridge] -= d
            res[bridge ^ 1] += d
            total += d
            orphans = []
            v = x
            while v != 0:
                a = parent[v]
                res[a] += d
                res[a ^ 1] -= d
                if res[a ^ 1] <= tol:
                    parent[v] = _ORPHAN
                    orphans.append(v)
                v = to[a]
            v = y
            while v != 1:
                a = parent[v]
                res[a] -= d
                res[a ^ 1] += d
                if res[a] <= tol:
                    parent[v] = _ORPHAN
                    orphans.append(v)
                v = to[a]

            # re-attach the orphans, those nearest a root first
            time += 1
            orphans.reverse()
            for v in orphans:
                side = tree[v]
                # res[a ^ flip] is the residual from w to v in the source
                # tree and from v to w in the sink tree
                flip = 1 if side > 0 else 0
                for a in head[v]:
                    w = to[a]
                    if tree[w] != side or res[a ^ flip] <= tol:
                        continue
                    j = w                  # climb towards the root
                    while stamp[j] != time and parent[j] >= 0:
                        j = to[parent[j]]
                    if stamp[j] == time or parent[j] == _ROOT:
                        while j != w:      # stamp the checked path
                            stamp[w] = time
                            w = to[parent[w]]
                        stamp[j] = time
                        parent[v] = a
                        break
                else:
                    tree[v] = 0
                    if queued[v]:
                        waiting[side] -= 1
                    for a in head[v]:
                        w = to[a]
                        if tree[w] != side:
                            continue
                        if res[a ^ flip] > tol and not queued[w] and w > 1:
                            queued[w] = True
                            waiting[side] += 1
                            active.append(w)
                        p = parent[w]
                        if p >= 0 and to[p] == v:
                            parent[w] = _ORPHAN
                            orphans.append(w)
    # the queue holds each node at most once, also nodes freed or moved to
    # the sink tree since they were queued
    return total, tree, [v for v in active if tree[v] > 0]
