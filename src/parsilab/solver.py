"""Hierarchical move making over an r-HST and the mixture-of-trees driver.

solve_hierarchical walks the tree bottom-up: leaves get the constant
labeling, and each internal node fuses its children's labelings by
solving a label-consistency instance over child indices with a single
alpha-expansion.  Nodes of one height never depend on each other, so
the nodes of a height are fused in batches: ordered by child count, so
that a batch's nodes mostly share their label count, one instance is
the disjoint union of up to BATCH_VARIABLES variables' worth of their
instances, swept by one alpha_expansion that applies its skip and
accept rules per node.  No clique spans two nodes' copies, so each node
gets the labeling it would get alone, while a batch needs far fewer
cuts than its nodes one by one.  solve_parsimonious embeds the induced
metric of a general diversity into k random 2-HSTs, runs the
hierarchical solve per tree, and keeps the candidate with the least
energy under the original potential.  The trees are independent, so
where the process can fork (Linux) they are fused in one worker per
CPU it may run on: this process and forked children, each fusing its
share of the trees one at a time.  solve picks the solver for a model's
potential.
"""

import math
import os
import pickle
import signal
import time
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import hst
from .expansion import PnPottsInstance, alpha_expansion
from .model import (DiameterDiversity, Diversity, InvalidInputError,
                    PnPottsSpec, SolverError, per_clique)
from .oracle import model_to_pn_potts_instance

# the most variables one fusion instance takes, over all its nodes' copies
# of the model; a node with more is fused alone
BATCH_VARIABLES = 1024


@dataclass
class SolveReport:
    """A solve's result with the a-priori bounds of the solver that ran.

    bounds is the report's bounds object as written: {"expansion": b} for
    a single alpha-expansion (b = pn_potts_bound(model), null when it is
    infinite), otherwise theorem_bounds(model, r) as it is.  bound is the
    one that covers the solve: b, on one tree the hierarchical bound, on
    a mixture the general diversity one."""
    labeling: list
    energy: float
    component_energies: list
    bounds: dict
    bound: float
    seed: object = None
    num_trees: int = 1
    timings: dict = field(default_factory=dict)

    def to_json(self, include_timings=True):
        """Every field as it is, but bound, which bounds already states."""
        doc = dict(vars(self))
        del doc["bound"]
        if not include_timings:
            del doc["timings"]
        return doc


def pn_potts_bound(model):
    """Multiplicative bound of one alpha-expansion on a consistency-cost
    model: lambda * min(M, H), lambda = gamma_max / min(gamma), with M the
    largest weighted clique's size; 1.0 without a weighted clique, and
    infinite (no multiplicative guarantee) with a zero gamma."""
    spec = model.potential
    if not isinstance(spec, PnPottsSpec):
        raise InvalidInputError("model potential is not a consistency cost")
    m = model.weighted_cliques.max_size
    if not m:
        return 1.0
    gamma_min = float(spec.gamma.min())
    if gamma_min == 0:
        return math.inf
    return spec.gamma_max / gamma_min * min(m, model.num_labels)


def theorem_bounds(model, r=2.0):
    """The tree solvers' bounds object, as their reports write it.

    "hierarchical" is (r/(r-1)) * min(M, H), with M the size of the
    largest weighted clique (0 without one: the cliques of weight 0 are
    never solved); "general_diversity" multiplies in (H-1) * ln(H), where
    the (H-1) factor is dropped when the potential already is a diameter
    diversity.  The log is natural (the underlying guarantee is
    order-of-magnitude in log H).
    """
    if r <= 1:
        raise InvalidInputError("separation parameter r must exceed 1")
    h = model.num_labels
    bound = r / (r - 1.0) * min(model.weighted_cliques.max_size, h)
    factor = 1 if isinstance(model.potential, DiameterDiversity) else h - 1
    return {"hierarchical": bound,
            "general_diversity": bound * math.log(h) * factor,
            "log_base": "natural"}


def build_fusion_instance(model, tree, nodes, child_labelings):
    """The child-index labeling instance that fuses the given internal
    tree nodes, one component per node (see PnPottsInstance).

    child_labelings[j] holds the labelings of node j's children, one row
    per child.  Component j is a copy of the model over the variables
    j * N onward, and its meta-label k means "take variable i's label
    from child k" of node j.  Unaries are the original unaries read
    through each child's labeling; each clique pays the diameter
    diversity of child k's labels on it when all members choose k, and
    the diameter of the node's whole cluster (tree.diameter) otherwise.
    Cliques of weight 0 are dropped (model.weighted_cliques, selected
    once per model), and the instance holds the kept ones, that one
    object, as every component's cliques; gamma and gamma_max have a
    row per clique of every component.  The cliques are read once for
    every child of every node whose labeling is not constant.
    A node with fewer children than another pads its meta-labels with
    unaries and gamma 0; it never moves to them.  The arrays are built
    from a checked model, so the instance is made without running
    PnPottsInstance's checks again (PnPottsInstance.from_checked).
    """
    n = model.num_variables
    m = len(nodes)
    metric = tree.metric()
    counts = [len(children) for children in child_labelings]
    rows = np.concatenate(child_labelings)            # every child, in order
    # row r is child k of node j: where it goes in the m x h x ... tables
    node_of = np.repeat(np.arange(m), counts)
    child_of = np.arange(rows.shape[0]) - np.repeat(
        np.cumsum(counts) - counts, counts)
    h = max(counts)
    meta_unaries = np.zeros((m, n, h))
    meta_unaries[node_of, :, child_of] = model.unaries[np.arange(n), rows]

    kept = model.weighted_cliques
    sizes, offsets = kept.sizes, kept.offsets
    # a constant child, such as a leaf's, has diameter 0 on every clique;
    # only the others' labels are read
    varied = (rows != rows[:, :1]).any(axis=1).nonzero()[0]
    labs = rows[varied[:, None], kept.members]  # their labels on the cliques
    low = per_clique(np.minimum, labs, offsets)
    high = per_clique(np.maximum, labs, offsets)

    # a child's diameter on clique c: the distance between its smallest
    # and largest label is exact on one or two labels (0 on one); the
    # (child, clique) pairs with more labels go through one clique_values
    values = metric.matrix[low, high]           # varied children x cliques
    wide = ~per_clique(
        np.logical_and, (labs == np.repeat(low, sizes, axis=1))
        | (labs == np.repeat(high, sizes, axis=1)), offsets)
    if wide.any():
        r, c = np.nonzero(wide)
        wide_offsets = np.zeros(c.size + 1, dtype=np.intp)
        np.cumsum(sizes[c], out=wide_offsets[1:])
        values[r, c] = DiameterDiversity(metric).clique_values(
            labs[np.repeat(wide, sizes, axis=1)], wide_offsets)
    gamma = np.zeros((m, len(kept), h))
    gamma[node_of[varied], :, child_of[varied]] = values
    # costs read from a checked model and its tree's metric already pass
    # the instance's checks: a child's labels lie in its cluster, whose
    # diameters are below the node's
    return PnPottsInstance.from_checked(
        meta_unaries.reshape(m * n, h), kept,
        gamma.reshape(-1, h),
        np.repeat([tree.diameter(v) for v in nodes], len(kept)),
        np.array(counts, dtype=np.intp))


def solve_hierarchical(model, tree):
    """Bottom-up fusion over the tree; returns (labeling, SolveReport).

    Leaves get the constant labeling and a node with one child takes its
    child's.  The nodes with several children are fused height by height
    (a leaf has height 0, a node one more than its highest child), since
    nodes of one height never depend on each other: in order of their
    child counts, up to BATCH_VARIABLES variables' worth of them, and at
    least one, go into one fusion instance and one alpha_expansion, whose
    components are those nodes.

    The model's clique potential is taken to be the diameter diversity of
    the tree's metric; the reported energy is re-evaluated through the
    model's own potential specification.
    """
    if tree.num_labels != model.num_labels:
        raise InvalidInputError("tree leaves do not match the model's labels")
    t0 = time.perf_counter()
    n = model.num_variables
    per_batch = max(1, BATCH_VARIABLES // max(n, 1))
    height = [0] * tree.num_nodes
    fused = {}                            # height -> its nodes to fuse
    for node in reversed(tree.order):
        children = tree.children[node]
        if children:
            height[node] = 1 + max(height[ch] for ch in children)
        if len(children) > 1:
            fused.setdefault(height[node], []).append(node)

    labelings = {}                        # tree node -> its labeling

    def labeling_of(node):
        # a node's labeling, once, for its parent
        while len(tree.children[node]) == 1:
            node = tree.children[node][0]
        if tree.is_leaf(node):
            return np.full(n, tree.leaf_label[node], dtype=np.intp)
        return labelings.pop(node)

    for level in sorted(fused):
        # by child count, so a batch's nodes mostly share their label count
        nodes = sorted(fused[level], key=lambda v: len(tree.children[v]))
        for start in range(0, len(nodes), per_batch):
            batch = nodes[start:start + per_batch]
            children = [np.stack([labeling_of(ch)
                                  for ch in tree.children[node]])
                        for node in batch]
            # unnamed, so the instance is freed before the next is built
            choice, _ = alpha_expansion(
                build_fusion_instance(model, tree, batch, children))
            for node, kids, pick in zip(batch, children,
                                        choice.reshape(len(batch), n)):
                labelings[node] = kids[pick, np.arange(n)]

    labeling = labeling_of(hst.ROOT)
    energy = model.evaluate_energy(labeling)
    bounds = theorem_bounds(model, tree.r)
    report = SolveReport(
        labeling=list(map(int, labeling)), energy=energy,
        component_energies=[energy], bounds=bounds,
        bound=bounds["hierarchical"],
        timings={"solve_s": time.perf_counter() - t0})
    return labeling, report


_SIGNAL_NAMES = {sig.value: sig.name for sig in signal.Signals}


def _cpus():
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _fuse_share(model, share):
    """Fuse a worker's (tree index, tree) pairs in order.

    Each tree is popped, so it is freed once fused.  Returns (results,
    failure): {index: (labeling, energy)} of the trees fused, and the
    (index, error) of the first typed error, which ends the share, or
    None."""
    results = {}
    while share:
        t, tree = share.pop(0)
        try:
            labeling, report = solve_hierarchical(model, tree)
        except (InvalidInputError, SolverError) as e:
            return results, (t, e)
        results[t] = (labeling, report.energy)
    return results, None


def _fork():
    # Python 3.12 warns when a process with threads forks.  The solve's
    # own other threads are numpy's BLAS pool, which no worker calls, so
    # no lock that pool may hold is taken in a child
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"This process \(pid=\d+\) is multi-threaded, use of "
            r"fork\(\) may lead to deadlocks", DeprecationWarning)
        return os.fork()


def _run_child(model, share, write, pipes):
    """A forked worker: fuse the share, send _fuse_share's result through
    the write end of its pipe, and exit, never returning to the caller.
    pipes are the parent's read ends, of its own pipe and its elder
    siblings', which it closes.  Any other exception exits 1 without a
    result, printed unless it is an interrupt, which the parent sees
    too."""
    code = 1
    try:
        for pipe in pipes:
            pipe.close()
        result = _fuse_share(model, share)
        with open(write, "wb") as pipe:
            pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    except Exception:
        # written to the descriptor, so no buffer inherited from the
        # parent is flushed twice
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def _fuse_trees(model, trees):
    """[(labeling, energy)] of every tree, in order; empties trees.

    Tree t goes to worker t % w, with w the number of CPUs this process
    may run on (_cpus), at most one per tree.  Worker 0 is this process;
    it forks the others, which inherit the model and their trees, so no
    input is copied.  Each worker fuses its trees in order with
    solve_hierarchical and frees each once fused, so it holds one tree's
    working set at a time; a child sends its results back through a pipe
    and exits.  Every pipe is read to its end before its child is reaped.
    On the first typed error of each worker the one of the lowest tree
    index is raised, the one a serial loop over the trees would raise.
    A child that dies without a result raises SolverError.  Whatever goes
    wrong, no child outlives the call.  With one worker no child is made.
    """
    w = max(1, min(len(trees), _cpus()))
    shares = [[(t, trees[t]) for t in range(i, len(trees), w)]
              for i in range(w)]
    trees.clear()
    children = {}                   # pid -> (read end, its tree indices)
    try:
        for i in range(1, w):
            read, write = os.pipe()
            pipe = os.fdopen(read, "rb")
            try:
                pid = _fork()
            except BaseException:
                pipe.close()
                os.close(write)
                raise
            if pid == 0:
                _run_child(model, shares[i], write,
                           [pipe] + [p for p, _ in children.values()])
            os.close(write)
            children[pid] = (pipe, [t for t, _ in shares[i]])
        own = shares[0]
        shares = None               # the children's trees are theirs
        results, failure = _fuse_share(model, own)
        failures = [failure] if failure else []
        for pid in list(children):
            pipe, indices = children[pid]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            # a child exits 0 only once it has sent its whole result
            if code:
                why = ("exited with code %d" % code if code > 0 else
                       "was killed by %s" % _SIGNAL_NAMES.get(
                           -code, "signal %d" % -code))
                raise SolverError("the worker fusing trees %s %s without "
                                  "a result" % (indices, why))
            done, failure = pickle.loads(data)
            results.update(done)
            if failure:
                failures.append(failure)
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [results[t] for t in sorted(results)]


def solve_parsimonious(model, k=10, seed=0):
    """Mixture-of-trees solve of a general diversity energy.

    Embeds the potential's induced metric into k random 2-HSTs, runs the
    hierarchical solve on each surrogate, evaluates every candidate under
    the original potential, and returns the best.

    The trees are fused in parallel where the process can fork: on Linux,
    in one worker per CPU the process may run on (os.sched_getaffinity,
    so taskset limits them), at most k.  Tree t goes to worker t % w;
    worker 0 is this process and the others are forked children, on
    every Python version.  Each worker holds one tree's working set at a
    time, so peak memory is about one tree's per worker.  Elsewhere, or
    with one CPU or one tree, every tree is fused here, one at a time.
    The result is the same either way.
    """
    if not isinstance(model.potential, Diversity):
        raise InvalidInputError("parsimonious solve needs a diversity")
    t0 = time.perf_counter()
    metric = model.potential.induced_metric()
    t_embed = time.perf_counter()
    if model.num_variables:
        trees = list(hst.frt_embed(metric, k, seed))
    elif k < 1:
        raise InvalidInputError("need at least one tree")
    else:
        # no tree is built, since an embedding takes H x H arrays: each of
        # the k candidates is the empty labeling, of energy 0
        trees = []
    t_solve = time.perf_counter()

    fused = (_fuse_trees(model, trees) if trees
             else [(np.zeros(0, dtype=np.intp), 0.0)] * k)
    candidates = [labeling for labeling, _ in fused]
    energies = [energy for _, energy in fused]
    best = int(np.argmin(energies))
    labeling = candidates[best]
    energy = energies[best]
    if not abs(energy - model.evaluate_energy(labeling)) <= 1e-9:
        raise SolverError("best candidate's energy does not match its "
                          "labeling")

    bounds = theorem_bounds(model, r=2.0)
    report = SolveReport(
        labeling=list(map(int, labeling)), energy=energy,
        component_energies=energies, bounds=bounds,
        bound=bounds["general_diversity"], seed=seed, num_trees=k,
        timings={"metric_s": t_embed - t0,
                 "embed_s": t_solve - t_embed,
                 "solve_s": time.perf_counter() - t_solve})
    return labeling, report


def solve(model, k=10, seed=0):
    """Solve a model with the solver for its potential; returns
    (labeling, SolveReport).

    A consistency-cost (P^n Potts) model is solved by one alpha-expansion,
    which needs no trees: k is unused, seed only goes into the report, and
    the bound is pn_potts_bound(model).  Any other potential goes to the
    mixture-of-trees solve, whose bounds are theorem_bounds(model).
    """
    if seed < 0:
        raise InvalidInputError("seed must be non-negative")
    if not isinstance(model.potential, PnPottsSpec):
        return solve_parsimonious(model, k=k, seed=seed)
    instance = model_to_pn_potts_instance(model)
    labeling, _ = alpha_expansion(instance)
    energy = model.evaluate_energy(labeling)
    bound = pn_potts_bound(model)
    report = SolveReport(
        labeling=list(map(int, labeling)), energy=energy,
        component_energies=[energy],
        # null when the expansion has no multiplicative guarantee
        bounds={"expansion": bound if math.isfinite(bound) else None},
        bound=bound, seed=seed, num_trees=0)
    return labeling, report
