"""Min st-cut / max-flow on sparse directed networks.

This is the inner engine behind every expansion move.  Capacities are
doubles; a residual below FLOW_TOL is treated as saturated so that
floating-point dust cannot stall the augmenting loop.  Arc order is
fixed by insertion, which makes the solver deterministic.
"""

import numpy as np

FLOW_TOL = 1e-11

SOURCE = -1
SINK = -2


class StateError(RuntimeError):
    pass


class FlowNetwork:
    """Directed capacitated graph with distinguished source and sink.

    Every arc is stored together with its reverse twin at index ^1; the
    residual array lives separately from the capacities, so the network
    can be re-solved (or grown and re-solved) at any time.  Terminal
    capacities accumulate across repeated add_terminal_arc calls.
    """

    def __init__(self):
        self._head = [[], []]          # adjacency (arc indices); 0=source, 1=sink
        self._to = []
        self._cap = []
        self._nodes = 0                # user nodes, internal ids 2..nodes+1
        self._res = None               # residual capacities after a solve
        self._flow_value = None
        self._reachable = None
        self._solved_size = None       # (nodes, arc slots) the solve covers

    def add_node(self):
        self._head.append([])
        self._nodes += 1
        return self._nodes - 1

    def add_nodes(self, count):
        first = self._nodes
        self._head.extend([] for _ in range(count))
        self._nodes += count
        return list(range(first, first + count))

    @property
    def num_nodes(self):
        return self._nodes

    def _internal(self, v):
        if 0 <= v < self._nodes:
            return v + 2
        if v == SOURCE:
            return 0
        if v == SINK:
            return 1
        raise ValueError("unknown node id %r" % v)

    def _push_arc(self, u, v, cf, cb):
        # a solve stays valid only while the graph keeps the size it was
        # solved at, so growing the graph needs no invalidation here
        to = self._to
        a = len(to)
        to += (v, u)
        self._cap += (cf, cb)
        self._head[u].append(a)
        self._head[v].append(a + 1)

    def add_arc(self, u, v, cap_forward, cap_backward=0.0):
        if cap_forward < 0 or cap_backward < 0:
            raise ValueError("arc capacities must be non-negative")
        n = self._nodes                # inline _internal for user nodes
        self._push_arc(u + 2 if 0 <= u < n else self._internal(u),
                       v + 2 if 0 <= v < n else self._internal(v),
                       float(cap_forward), float(cap_backward))

    def add_terminal_arc(self, v, cap_from_source, cap_to_sink):
        if cap_from_source < 0 or cap_to_sink < 0:
            raise ValueError("terminal capacities must be non-negative")
        iv = self._internal(v)
        if cap_from_source > 0:
            self._push_arc(0, iv, float(cap_from_source), 0.0)
        if cap_to_sink > 0:
            self._push_arc(iv, 1, float(cap_to_sink), 0.0)

    def infinite_capacity(self):
        """Sentinel larger than any possible flow: sum of finite caps plus one."""
        return sum(self._cap) + 1.0

    # -- Dinic ------------------------------------------------------------

    def _solved(self):
        return (self._flow_value is not None
                and self._solved_size == (self._nodes, len(self._to)))

    def compute_max_flow(self):
        if self._solved():
            return self._flow_value
        to = self._to
        head = self._head
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

    # -- post-solve queries -------------------------------------------------

    def _require_solved(self):
        if not self._solved():
            raise StateError("compute_max_flow has not been run")

    def _residual_reachable(self):
        self._require_solved()
        if self._reachable is None:
            n = len(self._head)
            seen = [False] * n
            seen[0] = True
            queue = [0]
            qi = 0
            while qi < len(queue):
                u = queue[qi]
                qi += 1
                for a in self._head[u]:
                    v = self._to[a]
                    if self._res[a] > FLOW_TOL and not seen[v]:
                        seen[v] = True
                        queue.append(v)
            self._reachable = seen
        return self._reachable

    def min_cut_side(self, v):
        """True if v lies on the source side of the minimum cut."""
        return self._residual_reachable()[self._internal(v)]

    def source_side_mask(self):
        """Boolean array over the nodes: True on the source side of the cut."""
        return np.array(self._residual_reachable()[2:], dtype=bool)
