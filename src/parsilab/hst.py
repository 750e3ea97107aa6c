"""r-HST trees over label sets and the FRT randomized metric embedding.

An r-HST is a rooted tree whose leaves are the labels, whose child edges
share one length per node, and whose edge lengths shrink by a factor of
at least r > 1 along every root-to-leaf path.  The shortest-path metric
of such a tree, together with its diameter diversity, is the label-
consistency potential the hierarchical solver minimizes.  Each tree is
walked once, parents first, when it is built (RHst.order); its metric
and every node's cluster diameter come from one climb over that walk.
frt_embed draws random FRT trees (Fakcharoenphol, Rao and Talwar, STOC
2003) in a few array passes per level, clusters top-down and edges
bottom-up, and builds each tree once, at the input metric's scale.
"""

import numpy as np

from .model import (InvalidInputError, LabelMetric, index_array,
                    require_finite)

ROOT = 0
# the most labels an embedding takes: its H x H arrays of doubles (the
# scaled metric, each tree's metric) take 128 MiB each at 4096 labels
MAX_EMBED_LABELS = 4096


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
        time; all pairs of a chunk climb together as arrays.  Each pair's
        distance also raises its common ancestor's diameter, and one
        children-first max passes the diameters up to the root.
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
            diam = np.zeros(self.num_nodes)
            rows, cols = np.triu_indices(h, 1)
            for start in range(0, rows.size, _PAIR_CHUNK):
                i = rows[start:start + _PAIR_CHUNK]
                j = cols[start:start + _PAIR_CHUNK]
                up = leaf[i]                # ends at the common ancestors
                m[i, j] = m[j, i] = d = _climb(up, leaf[j], parents, edge,
                                               depth)
                np.maximum.at(diam, up, d)
            diam = self._diameter = diam.tolist()
            for v in reversed(self.order[1:]):      # children first
                diam[self.parents[v]] = max(diam[self.parents[v]], diam[v])
            self._metric = LabelMetric(m, validate=False)
        return self._metric

    def diameter(self, node):
        """The largest tree distance between two labels below node (0.0
        at a leaf), set for every node when metric() is first read."""
        self.metric()
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
        except (TypeError, AttributeError, OverflowError) as e:
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
    """Tree distances between the nodes of arrays u and v, pair by pair;
    both arrays end at each pair's common ancestor."""
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
    """One FRT tree over a scaled metric, with its edge lengths
    multiplied by scale.

    Clusters, one level at a time: at level i each label joins the first
    center, in a random order, within beta * 2^(i-1), and every cluster
    splits by center; level 0 makes singletons, as the least nonzero
    distance is 1.  Nodes, depth-first: a cluster that does not split
    stays one node, and the last group gets the next id, which fixes
    RHst.children order.  Edges, one level at a time from the bottom:
    each is the least length that keeps the factor-2 decrease and
    dominance d_tree >= d for every pair split at its node.
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

    # one partition per level, top - 1 down: every label takes the rank of
    # the first center in order within the level's radius (itself at the
    # latest), and a cluster splits by rank, its groups in rank order
    ordered = dist[order]
    cluster = np.zeros(h, dtype=np.intp)
    bounds, first, size = [[0, 1]], [[0]], [[h]]
    for level in range(top - 1, -1, -1):
        rank = (ordered <= beta * 2.0 ** (level - 1)).argmax(axis=0)
        keys, at, cluster, count = np.unique(
            cluster * h + rank, return_index=True, return_inverse=True,
            return_counts=True)
        # groups of cluster c above: bounds[-1][c] to bounds[-1][c + 1]
        bounds.append(np.searchsorted(keys, np.arange(len(size[-1]) + 1) * h)
                      .tolist())
        first.append(at.tolist())
        size.append(count.tolist())
        if keys.size == h:              # all singletons
            break
    del ordered, rank

    # nodes depth-first: a cluster that does not split stays one node, one
    # label is a leaf, and the last group gets the next id.  Each node's
    # labels form one run of lab, the leaves in the order met; sep[t] is
    # the partition that parts lab[t] from lab[t + 1], and splits[p] lists
    # the nodes split in partition p as (node, first position, labels)
    parents, leaf_label, lab, sep, splits = [], [], [], [], {}
    stack = [(-1, 0, 0)]            # (parent, partition, cluster)
    while stack:
        parent, k, c = stack.pop()
        if leaf_label and leaf_label[-1] is not None:
            sep.append(k)
        node = len(parents)
        parents.append(parent)
        leaf_label.append(first[k][c] if size[k][c] == 1 else None)
        if size[k][c] == 1:
            lab.append(first[k][c])
            continue
        while bounds[k + 1][c + 1] - bounds[k + 1][c] == 1:
            k, c = k + 1, bounds[k + 1][c]
        splits.setdefault(k + 1, []).append((node, len(lab), size[k][c]))
        stack.extend((node, k + 1, g)
                     for g in range(bounds[k + 1][c], bounds[k + 1][c + 1]))

    # edges, children first: one partition at a time from the finest.  For
    # positions i < j, part[i, j] is where lab[i] and lab[j] part, the least
    # sep between them, and the pairs of one node are one run of its
    # row-major order; low is each label's distance up to the node below
    lab, pos = np.array(lab), np.arange(h)
    part = np.minimum.accumulate(np.where(
        pos[:, None] < pos, np.array([0] + sep, dtype=np.int16),
        np.int16(len(size))), axis=1).ravel()
    low = np.zeros(h)
    edge, longest = [0.0] * len(parents), [0.0] * len(parents)
    for p in sorted(splits, reverse=True):
        i, j = np.divmod(np.flatnonzero(part == p), h)
        # the last group is met first, so lab[j] lies in the earlier child:
        # d - du - dw rounds in that order
        gap = dist[lab[j], lab[i]]
        gap -= low[j]
        gap -= low[i]
        need = np.maximum.reduceat(
            gap, np.searchsorted(i, [a for _, a, _ in splits[p]]))
        for (v, a, n), e in zip(splits[p], need.tolist()):
            edge[v] = max(2.0 * longest[v], max(0.0, e / 2.0))
            low[a:a + n] += edge[v]
            if v:
                longest[parents[v]] = max(longest[parents[v]], edge[v])
    return RHst(parents, [e * scale for e in edge], leaf_label)


def frt_embed(metric, k, seed):
    """Embed a label metric into k independent random 2-HST tree metrics,
    returned as a tuple of RHst.

    Every returned tree metric dominates the input metric entrywise, and
    in expectation distorts it by an O(log H) factor.  The metric axioms
    are not checked again here: a LabelMetric was checked when it was
    built, or is a metric by construction.  More than MAX_EMBED_LABELS
    labels are refused before any H x H array is made.
    """
    if k < 1:
        raise InvalidInputError("need at least one tree")
    d = metric.matrix
    h = metric.num_labels
    if h > MAX_EMBED_LABELS:
        raise InvalidInputError("cannot embed: %d labels, at most %d"
                                % (h, MAX_EMBED_LABELS))
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
    scaled = d / dmin                   # once: every tree only reads it
    return tuple(_frt_tree(scaled, np.random.default_rng(seq), dmin)
                 for seq in np.random.SeedSequence(seed).spawn(k))
