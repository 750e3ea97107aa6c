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
energy under the original potential.  solve picks the solver for a
model's potential.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import hst
from .expansion import PnPottsInstance, alpha_expansion, pn_potts_bound
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
    a single alpha-expansion (expansion.pn_potts_bound, null when b is
    infinite), otherwise the tree solvers' bounds (theorem_bounds).  bound
    is the one that covers the solve: on one tree the hierarchical bound,
    on a mixture the general diversity one."""
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


def theorem_bounds(model, r=2.0):
    """Multiplicative bounds of the two solvers for this model shape.

    The hierarchical bound is (r/(r-1)) * min(M, H); the general-diversity
    bound multiplies in (H-1) * ln(H), where the (H-1) factor is dropped
    when the potential already is a diameter diversity.  The log is
    natural (the underlying guarantee is order-of-magnitude in log H).
    """
    if r <= 1:
        raise InvalidInputError("separation parameter r must exceed 1")
    h = model.num_labels
    m = model.cliques.max_size
    bound1 = r / (r - 1.0) * min(m, h)
    shrink = isinstance(model.potential, DiameterDiversity)
    bound2 = bound1 * math.log(h) * (1 if shrink else h - 1)
    return bound1, bound2


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
    bound1, bound2 = theorem_bounds(model, tree.r)
    report = SolveReport(
        labeling=list(map(int, labeling)), energy=energy,
        component_energies=[energy],
        bounds={"hierarchical": bound1, "general_diversity": bound2,
                "log_base": "natural"}, bound=bound1,
        timings={"solve_s": time.perf_counter() - t0})
    return labeling, report


def solve_parsimonious(model, k=10, seed=0):
    """Mixture-of-trees solve of a general diversity energy.

    Embeds the potential's induced metric into k random 2-HSTs, runs the
    hierarchical solve on each surrogate, evaluates every candidate under
    the original potential, and returns the best.
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

    # the k empty labelings of a model without variables, else none
    candidates = [np.zeros(0, dtype=np.intp)] * (k - len(trees))
    energies = [0.0] * len(candidates)
    while trees:
        # popped, so each tree and its H x H metric are freed once fused
        lab, tree_report = solve_hierarchical(model, trees.pop(0))
        candidates.append(lab)
        energies.append(tree_report.energy)
    best = int(np.argmin(energies))
    labeling = candidates[best]
    energy = energies[best]
    if not abs(energy - model.evaluate_energy(labeling)) <= 1e-9:
        raise SolverError("best candidate's energy does not match its "
                          "labeling")

    bound1, bound2 = theorem_bounds(model, r=2.0)
    report = SolveReport(
        labeling=list(map(int, labeling)), energy=energy,
        component_energies=energies,
        bounds={"hierarchical": bound1, "general_diversity": bound2,
                "log_base": "natural"}, bound=bound2, seed=seed,
        num_trees=k,
        timings={"metric_s": t_embed - t0,
                 "embed_s": t_solve - t_embed,
                 "solve_s": time.perf_counter() - t_solve})
    return labeling, report


def solve(model, k=10, seed=0):
    """Solve a model with the solver for its potential; returns
    (labeling, SolveReport).

    A consistency-cost (P^n Potts) model is solved by one alpha-expansion,
    which needs no trees: k is unused and seed only goes into the report.
    Any other potential goes to the mixture-of-trees solve.
    """
    if seed < 0:
        raise InvalidInputError("seed must be non-negative")
    if not isinstance(model.potential, PnPottsSpec):
        return solve_parsimonious(model, k=k, seed=seed)
    instance = model_to_pn_potts_instance(model)
    labeling, _ = alpha_expansion(instance)
    energy = model.evaluate_energy(labeling)
    bound = pn_potts_bound(instance)
    report = SolveReport(
        labeling=list(map(int, labeling)), energy=energy,
        component_energies=[energy],
        # null when the expansion has no multiplicative guarantee
        bounds={"expansion": bound if math.isfinite(bound) else None},
        bound=bound, seed=seed, num_trees=0)
    return labeling, report
