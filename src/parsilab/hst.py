"""r-HST trees over label sets and the FRT randomized metric embedding.

An r-HST is a rooted tree whose leaves are the labels, whose child edges
share one length per node, and whose edge lengths shrink by a factor of
at least r > 1 along every root-to-leaf path.  The shortest-path metric
of such a tree, together with its diameter diversity, is the label-
consistency potential the hierarchical solver minimizes.
"""

import numpy as np

from .model import InvalidInputError, LabelMetric, require_finite

ROOT = 0


class RHst:
    """Rooted r-HST.  Node 0 is the root; leaves carry distinct label indices.

    parents[v] is the parent node (-1 for the root), child_edge[v] the
    length of the edges from v to each of its children (0.0 at leaves),
    leaf_label[v] the label at leaf v (None for internal nodes).
    """

    def __init__(self, parents, child_edge, leaf_label, r=2.0, validate=True):
        self.parents = tuple(int(p) for p in parents)
        self.child_edge = tuple(float(e) for e in child_edge)
        self.leaf_label = tuple(None if l is None else int(l) for l in leaf_label)
        self.r = float(r)
        require_finite(self.child_edge + (self.r,), "edge lengths and r")
        self.children = [[] for _ in self.parents]
        for v, p in enumerate(self.parents):
            if p >= 0:
                self.children[p].append(v)
        if validate:
            err = self.check()
            if err is not None:
                raise InvalidInputError("not an r-HST: %s" % err)
        self._metric = None
        self._diameters = {}              # sorted label tuple -> diameter
        self._leaf_of_label = {}
        for v, l in enumerate(self.leaf_label):
            if l is not None:
                self._leaf_of_label[l] = v

    @property
    def num_nodes(self):
        return len(self.parents)

    @property
    def num_labels(self):
        return sum(1 for l in self.leaf_label if l is not None)

    def is_leaf(self, v):
        return not self.children[v]

    def depth(self, v):
        d = 1
        while self.parents[v] >= 0:
            v = self.parents[v]
            d += 1
        return d

    def check(self):
        """Return a description of the first violated invariant, or None."""
        if self.r <= 1:
            return "separation parameter r must exceed 1"
        if self.parents[ROOT] != -1:
            return "node 0 must be the root"
        roots = [v for v, p in enumerate(self.parents) if p == -1]
        if len(roots) != 1:
            return "tree must have exactly one root"
        labels = [l for l in self.leaf_label if l is not None]
        for v in range(self.num_nodes):
            if self.is_leaf(v):
                if self.leaf_label[v] is None:
                    return "leaf %d carries no label" % v
            else:
                if self.leaf_label[v] is not None:
                    return "internal node %d carries a label" % v
                if self.child_edge[v] <= 0:
                    return "edge length at node %d must be positive" % v
                p = self.parents[v]
                if p >= 0 and self.child_edge[v] > self.child_edge[p] / self.r + 1e-12:
                    return ("edge length does not decrease by factor r "
                            "at node %d" % v)
        if sorted(labels) != list(range(len(labels))):
            return "leaf labels must be the dense set 0..H-1, each exactly once"
        # reachability from the root (no cycles / detached nodes)
        seen = set()
        stack = [ROOT]
        while stack:
            v = stack.pop()
            if v in seen:
                return "cycle detected"
            seen.add(v)
            stack.extend(self.children[v])
        if len(seen) != self.num_nodes:
            return "nodes not reachable from the root"
        return None

    # -- metric --------------------------------------------------------------

    def metric(self):
        """The full tree metric as a LabelMetric (cached).

        Every leaf pair climbs to its common ancestor, the deeper leaf
        first and then both in lockstep, adding edge lengths one at a
        time; all pairs of a chunk climb together as arrays.
        """
        if self._metric is None:
            h = self.num_labels
            parents = np.asarray(self.parents)
            edge = np.asarray(self.child_edge)
            depth = np.array([self.depth(v) for v in range(self.num_nodes)])
            leaf = np.array([self._leaf_of_label[l] for l in range(h)])
            m = np.zeros((h, h))
            rows, cols = np.triu_indices(h, 1)
            for start in range(0, rows.size, _PAIR_CHUNK):
                i = rows[start:start + _PAIR_CHUNK]
                j = cols[start:start + _PAIR_CHUNK]
                m[i, j] = m[j, i] = _climb(leaf[i], leaf[j], parents, edge,
                                           depth)
            self._metric = LabelMetric(m, validate=False)
        return self._metric

    def cluster_labels(self, node):
        """Sorted labels at the leaves of the subtree rooted at node."""
        if not 0 <= node < self.num_nodes:
            raise InvalidInputError("unknown node id %r" % node)
        out = []
        stack = [node]
        while stack:
            v = stack.pop()
            if self.leaf_label[v] is not None:
                out.append(self.leaf_label[v])
            stack.extend(self.children[v])
        return tuple(sorted(out))

    def hierarchical_pn_potts(self, subset):
        """Diameter diversity of a label subset under the tree metric
        (memoised per subset)."""
        key = tuple(sorted(set(int(l) for l in subset)))
        if not key:
            raise InvalidInputError("empty label subset")
        value = self._diameters.get(key)
        if value is None:
            idx = np.asarray(key, dtype=int)
            value = float(self.metric().matrix[np.ix_(idx, idx)].max())
            self._diameters[key] = value
        return value

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        return {
            "r": self.r,
            "nodes": [{"parent": p, "edge_to_children": e, "label": l}
                      for p, e, l in zip(self.parents, self.child_edge,
                                         self.leaf_label)],
        }

    @classmethod
    def from_json(cls, doc):
        """Parse a tree document (dict); a wrongly shaped one raises
        InvalidInputError."""
        try:
            nodes = doc["nodes"]
            return cls([nd["parent"] for nd in nodes],
                       [nd["edge_to_children"] for nd in nodes],
                       [nd["label"] for nd in nodes], r=doc["r"])
        except KeyError as e:
            raise InvalidInputError("malformed tree: missing field %s"
                                    % e) from e
        except (TypeError, AttributeError) as e:
            raise InvalidInputError("malformed tree: %s" % e) from e


_PAIR_CHUNK = 1 << 18


def _climb(u, v, parents, edge, depth):
    """Tree distances between the nodes of arrays u and v, pair by pair."""
    dist = np.zeros(u.shape[0])
    du, dv = depth[u], depth[v]
    for a, b, da, db in ((u, v, du, dv), (v, u, dv, du)):
        while True:                         # the deeper node climbs first
            up = da > db
            if not up.any():
                break
            dist[up] += edge[parents[a[up]]]
            a[up] = parents[a[up]]
            da[up] -= 1
    while True:                             # then both climb in lockstep
        apart = u != v
        if not apart.any():
            break
        pu, pv = parents[u[apart]], parents[v[apart]]
        dist[apart] += edge[pu]
        dist[apart] += edge[pv]
        u[apart], v[apart] = pu, pv
    return dist


def _frt_decompose(dist, rng):
    """Raw FRT laminar decomposition: (parents, leaf_label) of a cluster
    tree whose level-i clusters have radius beta * 2^(i-1).

    Level-0 clusters are singletons because beta/2 < 1 (the metric is
    scaled so the minimum nonzero distance is 1).
    """
    h = dist.shape[0]
    beta = float(rng.uniform(1.0, 2.0))
    order = rng.permutation(h)
    diameter = float(dist.max())
    top = 1
    while beta * 2.0 ** (top - 1) < diameter:
        top += 1

    parents = [-1]
    leaf_label = [None]
    clusters = [(ROOT, np.arange(h))]       # open clusters at current level
    for level in range(top - 1, -1, -1):
        radius = beta * 2.0 ** (level - 1)
        next_clusters = []
        for parent_node, pts in clusters:
            # each point joins the first center in order within radius;
            # every point is within radius of itself, so all are assigned
            rank = (dist[np.ix_(order, pts)] <= radius).argmax(axis=0)
            by_rank = np.argsort(rank, kind="stable")
            groups = np.flatnonzero(np.diff(rank[by_rank])) + 1
            for members in np.split(by_rank, groups):
                sub = pts[members]
                node = len(parents)
                parents.append(parent_node)
                if level > 0:
                    leaf_label.append(None)
                    next_clusters.append((node, sub))
                else:
                    leaf_label.append(int(sub[0]))
        clusters = next_clusters
    return parents, leaf_label


def _frt_tree(dist, rng, r=2.0):
    """One FRT tree over a scaled metric, chain-collapsed and tightened.

    Single-child chains of the laminar decomposition are spliced out, and
    each remaining edge length is then set to the smallest value that
    keeps (a) the factor-r decrease toward the parent and (b) dominance
    d_tree >= d for every pair split at that node.  Tightening can only
    lower the distortion; dominance holds by construction.
    """
    h = dist.shape[0]
    if h == 1:
        return RHst([-1], [0.0], [0], r=r)
    parents, leaf_label = _frt_decompose(dist, rng)

    children = [[] for _ in parents]
    for v, p in enumerate(parents):
        if p >= 0:
            children[p].append(v)
    # splice out single-child internal nodes (the child takes its place)
    root = ROOT
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
    stack = [root]
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


def frt_embed(metric, k, seed):
    """Embed a label metric into k independent random 2-HST tree metrics,
    returned as a tuple of RHst.

    Every returned tree metric dominates the input metric entrywise, and
    in expectation distorts it by an O(log H) factor.  The metric axioms
    are not checked again here: a LabelMetric was checked when it was
    built, or is a metric by construction.
    """
    if k < 1:
        raise InvalidInputError("need at least one tree")
    d = metric.matrix
    h = metric.num_labels
    if h >= 2:
        dmin = float(d[~np.eye(h, dtype=bool)].min())
        if dmin <= 0:
            raise InvalidInputError("cannot embed: degenerate metric")
    else:
        dmin = 1.0
    scaled = d / dmin

    return tuple(_rescale(_frt_tree(scaled, np.random.default_rng(seq)), dmin)
                 for seq in np.random.SeedSequence(seed).spawn(k))


def _rescale(tree, factor):
    if factor == 1.0:
        return tree
    return RHst(tree.parents, [e * factor for e in tree.child_edge],
                tree.leaf_label, r=tree.r, validate=False)
