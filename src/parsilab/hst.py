"""r-HST trees over label sets and the FRT randomized metric embedding.

An r-HST is a rooted tree whose leaves are the labels, whose child edges
share one length per node, and whose edge lengths shrink by a factor of
at least r > 1 along every root-to-leaf path.  The shortest-path metric
of such a tree, together with its diameter diversity, is the label-
consistency potential the hierarchical solver minimizes.  Each tree is
walked once, parents first, when it is built (RHst.order); its metric
and the diameter of every node's label cluster are read off that walk.
frt_embed draws random FRT trees (Fakcharoenphol, Rao and Talwar, STOC
2003) in two passes, clusters depth-first and then edge lengths
bottom-up, and builds each tree once, at the input metric's scale.
"""

import numpy as np

from .model import (InvalidInputError, LabelMetric, index_array,
                    require_finite)

ROOT = 0


class RHst:
    """Rooted r-HST.  Node 0 is the root; leaves carry distinct label indices.

    parents[v] is the parent node (-1 for the root), child_edge[v] the
    length of the edges from v to each of its children (0.0 at leaves),
    leaf_label[v] the label at leaf v (None for internal nodes).  Every
    tree is checked when it is built; order then lists each node once,
    parents before children.
    """

    def __init__(self, parents, child_edge, leaf_label, r=2.0):
        ids = index_array(parents, "malformed tree: parent ids")
        if ids.size and not -1 <= ids.min() <= ids.max() < ids.size:
            raise InvalidInputError("malformed tree: parent id out of range")
        if not len(child_edge) == len(leaf_label) == ids.size:
            raise InvalidInputError(
                "malformed tree: need one edge length and label per node")
        index_array([l for l in leaf_label if l is not None],
                    "malformed tree: leaf labels")
        self.parents = tuple(ids.tolist())
        self.child_edge = tuple(float(e) for e in child_edge)
        self.leaf_label = tuple(None if l is None else int(l) for l in leaf_label)
        self.r = float(r)
        require_finite(self.child_edge + (self.r,), "edge lengths and r")
        self.children = [[] for _ in self.parents]
        for v, p in enumerate(self.parents):
            if p >= 0:
                self.children[p].append(v)
        # the walk ends only if node 0 is the root, no node's child;
        # check() refuses any other tree before it reads the walk
        self.order = (tuple(_parents_first(self.children))
                      if self.parents[:1] == (-1,) else ())
        err = self.check()
        if err is not None:
            raise InvalidInputError("not an r-HST: %s" % err)
        self._metric = None
        self._diameter = None

    @property
    def num_nodes(self):
        return len(self.parents)

    @property
    def num_labels(self):
        return sum(1 for l in self.leaf_label if l is not None)

    def is_leaf(self, v):
        return not self.children[v]

    def check(self):
        """Return a description of the first violated invariant, or None."""
        if self.r <= 1:
            return "separation parameter r must exceed 1"
        if not self.parents or self.parents[ROOT] != -1:
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
                # the tolerance is relative, so it does not depend on the
                # scale of the edge lengths
                p = self.parents[v]
                if p >= 0 and self.child_edge[v] > (
                        self.child_edge[p] / self.r * (1 + 2.0 ** -40)):
                    return ("edge length does not decrease by factor r "
                            "at node %d" % v)
        if sorted(labels) != list(range(len(labels))):
            return "leaf labels must be the dense set 0..H-1, each exactly once"
        # every node has one parent, so a node off the root's walk sits on
        # a cycle or under one
        if len(self.order) != self.num_nodes:
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
            depth = [0] * self.num_nodes
            leaf = [0] * h                      # label -> its leaf node
            for v in self.order:
                if v != ROOT:
                    depth[v] = depth[self.parents[v]] + 1
                if self.leaf_label[v] is not None:
                    leaf[self.leaf_label[v]] = v
            parents = np.asarray(self.parents)
            edge = np.asarray(self.child_edge)
            depth, leaf = np.array(depth), np.array(leaf)
            m = np.zeros((h, h))
            rows, cols = np.triu_indices(h, 1)
            for start in range(0, rows.size, _PAIR_CHUNK):
                i = rows[start:start + _PAIR_CHUNK]
                j = cols[start:start + _PAIR_CHUNK]
                m[i, j] = m[j, i] = _climb(leaf[i], leaf[j], parents, edge,
                                           depth)
            self._metric = LabelMetric(m, validate=False)
        return self._metric

    def diameter(self, node):
        """The largest tree distance between two labels below node (0.0
        at a leaf).

        One children-first pass sets it for every node: the largest of
        the children's diameters and of the metric blocks between each
        child's labels and those of the children before it.
        """
        if self._diameter is None:
            m = self.metric().matrix
            self._diameter = [0.0] * self.num_nodes
            below = [None] * self.num_nodes     # labels under each node
            for v in reversed(self.order):
                kids = self.children[v]
                if not kids:
                    below[v] = np.array([self.leaf_label[v]])
                    continue
                labs, diam = below[kids[0]], self._diameter[kids[0]]
                for c in kids[1:]:
                    diam = max(diam, self._diameter[c],
                               float(m[np.ix_(labs, below[c])].max()))
                    labs = np.concatenate((labs, below[c]))
                below[v], self._diameter[v] = labs, diam
        return self._diameter[node]

    # -- serialization ---------------------------------------------------------

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


# label pairs climbed together in RHst.metric: each array of a chunk takes
# 64 KiB, so at H = 256 the climb's working arrays stay under a megabyte,
# where one chunk of every pair took about 2 MB, and as fast or faster
_PAIR_CHUNK = 1 << 13


def _parents_first(children):
    """The nodes reachable from the root, parents before children."""
    order = [ROOT]
    for v in order:                     # the root is no node's child
        order.extend(children[v])
    return order


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


def _frt_tree(dist, rng, scale):
    """One FRT tree over a scaled metric, built in two passes, with its
    edge lengths multiplied by scale.

    Clusters, depth-first: at level i each label joins the first center,
    in a random order, within beta * 2^(i-1).  A cluster that does not
    split stays one node and tries the next level, and one label is a
    leaf; level 0 makes singletons, as the least nonzero distance is 1.
    The last group gets the next id, which fixes RHst.children order.

    Edges, bottom-up: each is the least length that keeps the factor-2
    decrease and dominance d_tree >= d for every pair split at its node.
    """
    h = dist.shape[0]
    if h == 1:
        return RHst([-1], [0.0], [0])
    beta = float(rng.uniform(1.0, 2.0))
    order = rng.permutation(h)
    diameter = float(dist.max())
    top = 1
    while beta * 2.0 ** (top - 1) < diameter:
        top += 1

    parents, leaf_label = [], []
    stack = [(-1, np.arange(h), top - 1)]   # (parent, labels, first level)
    while stack:
        parent, pts, level = stack.pop()
        node = len(parents)
        parents.append(parent)
        leaf_label.append(int(pts[0]) if pts.size == 1 else None)
        while pts.size > 1:
            # each point joins the first center in order within radius;
            # every point is within radius of itself, so all are assigned
            radius = beta * 2.0 ** (level - 1)
            rank = (dist[np.ix_(order, pts)] <= radius).argmax(axis=0)
            by_rank = np.argsort(rank, kind="stable")
            groups = np.flatnonzero(np.diff(rank[by_rank])) + 1
            level -= 1
            if groups.size:
                stack.extend((node, pts[members], level)
                             for members in np.split(by_rank, groups))
                break

    # below[v]: per child of v in split order, (labels, distances down, edge)
    edge = [0.0] * len(parents)
    below = [[] for _ in parents]
    for v in reversed(range(len(parents))):
        if leaf_label[v] is None:
            labs, lows, edges = zip(*below[v])
            below[v] = None
            lab, low = np.concatenate(labs), np.concatenate(lows)
            group = np.repeat(np.arange(len(labs)), [l.size for l in labs])
            # u from the earlier child: d - du - dw rounds in that order
            gap = dist[np.ix_(lab, lab)]
            gap -= low[:, None]
            gap -= low[None, :]
            split = group[:, None] < group[None, :]
            need = float(gap.max(where=split, initial=-np.inf)) / 2.0
            del labs, lows, gap, split       # one block alive at a time
            edge[v] = max(2.0 * max(edges), max(0.0, need))
            low = low + edge[v]
        else:
            lab, low = np.array([leaf_label[v]]), np.zeros(1)
        if v:
            below[parents[v]].append((lab, low, edge[v]))
    return RHst(parents, [e * scale for e in edge], leaf_label)


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
        # the top level's radius beta * 2^(top-1) must stay a double
        if not float(d.max()) / dmin < 2.0 ** 1023:
            raise InvalidInputError("cannot embed: the largest distance "
                                    "over the smallest exceeds 2^1023")
    else:
        dmin = 1.0
    return tuple(_frt_tree(d / dmin, np.random.default_rng(seq), dmin)
                 for seq in np.random.SeedSequence(seed).spawn(k))
