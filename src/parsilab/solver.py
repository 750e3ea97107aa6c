"""Hierarchical move making over an r-HST and the mixture-of-trees driver.

solve_hierarchical walks the tree bottom-up: leaves get the constant
labeling, and each internal node fuses its children's labelings by
solving a label-consistency instance over child indices with a single
alpha-expansion.  solve_parsimonious embeds the induced metric of a
general diversity into k random 2-HSTs, runs the hierarchical solve per
tree, and keeps the candidate with the least energy under the original
potential.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import hst
from .expansion import PnPottsInstance, alpha_expansion, per_clique
from .model import (DiameterMetricSpec, DiversitySpec, InvalidInputError,
                    SolverError)


@dataclass
class NodeState:
    """Labeling associated with one tree node during the bottom-up pass."""
    node: int
    labeling: np.ndarray
    cluster: tuple


@dataclass
class SolveReport:
    labeling: list
    energy: float
    component_energies: list
    bound_hierarchical: float
    bound_general: float
    seed: object = None
    num_trees: int = 1
    log_base: str = "natural"
    timings: dict = field(default_factory=dict)

    def to_json(self, include_timings=True):
        doc = {
            "energy": self.energy,
            "labeling": [int(x) for x in self.labeling],
            "component_energies": self.component_energies,
            "bounds": {
                "hierarchical": self.bound_hierarchical,
                "general_diversity": self.bound_general,
                "log_base": self.log_base,
            },
            "seed": self.seed,
            "num_trees": self.num_trees,
        }
        if include_timings:
            doc["timings"] = self.timings
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
    m = model.max_clique_size
    bound1 = r / (r - 1.0) * min(m, h)
    shrink = isinstance(model.potential, DiameterMetricSpec)
    bound2 = bound1 * math.log(h) * (1 if shrink else h - 1)
    return bound1, bound2


def build_fusion_instance(model, tree, node, child_states):
    """The child-index labeling instance solved at one internal tree node.

    Meta-label k means "take variable i's label from child k".  Unaries
    are the original unaries read through each child's labeling; each
    clique pays the diameter diversity of child k's labels on it when
    all members choose k, and the diameter diversity of the node's whole
    cluster otherwise.  Cliques whose resolution cannot depend on the
    choice (all children identical and uniform on the clique) are dropped.
    """
    n = model.num_variables
    labelings = np.stack([st.labeling for st in child_states])      # k x n
    meta_unaries = np.ascontiguousarray(
        model.unaries[np.arange(n), labelings].T)

    offsets, members, weights = model.clique_arrays
    sizes = np.diff(offsets)
    labs = labelings[:, members]              # k x (members of all cliques)
    low = per_clique(np.minimum, labs, offsets)
    high = per_clique(np.maximum, labs, offsets)
    same = per_clique(np.logical_and, labs == labs[0], offsets).all(axis=0)
    keep = (weights > 0) & ~((low[0] == high[0]) & same)
    kept_members = np.repeat(keep, sizes)
    labs, low, high = labs[:, kept_members], low[:, keep], high[:, keep]
    sizes = sizes[keep]
    offsets = np.zeros(sizes.size + 1, dtype=np.intp)
    offsets[1:] = np.cumsum(sizes)

    # child j's diameter on clique c: the distance between its smallest
    # and largest label is exact on one or two labels (0 on one); larger
    # label sets go through the tree's memoised subset diameters
    gamma = tree.metric().matrix[low, high].T           # cliques x k
    at_most_two = per_clique(
        np.logical_and, (labs == np.repeat(low, sizes, axis=1))
        | (labs == np.repeat(high, sizes, axis=1)), offsets)
    for j, c in zip(*np.nonzero(~at_most_two)):
        gamma[c, j] = tree.hierarchical_pn_potts(
            labs[j, offsets[c]:offsets[c + 1]])
    gamma_max = tree.hierarchical_pn_potts(tree.cluster_labels(node))
    return PnPottsInstance.from_arrays(
        meta_unaries, offsets, members[kept_members], weights[keep], gamma,
        np.full(sizes.size, gamma_max))


def solve_hierarchical(model, tree):
    """Bottom-up fusion over the tree; returns (labeling, SolveReport).

    The model's clique potential is taken to be the diameter diversity of
    the tree's metric; the reported energy is re-evaluated through the
    model's own potential specification.
    """
    if tree.num_labels != model.num_labels:
        raise InvalidInputError("tree leaves do not match the model's labels")
    t0 = time.perf_counter()
    n = model.num_variables
    states = {}
    order = sorted(range(tree.num_nodes), key=tree.depth, reverse=True)
    for node in order:
        if tree.is_leaf(node):
            lab = np.full(n, tree.leaf_label[node], dtype=np.intp)
        else:
            child_states = [states.pop(ch) for ch in tree.children[node]]
            if len(child_states) == 1:
                lab = child_states[0].labeling
            else:
                instance = build_fusion_instance(model, tree, node, child_states)
                choice, _ = alpha_expansion(instance)
                lab = np.stack([st.labeling for st in child_states])[
                    choice, np.arange(n)]
        states[node] = NodeState(node, lab, tree.cluster_labels(node))

    labeling = states[hst.ROOT].labeling
    energy = model.evaluate_energy(labeling)
    bound1, bound2 = theorem_bounds(model, tree.r)
    report = SolveReport(
        labeling=list(map(int, labeling)), energy=energy,
        component_energies=[energy], bound_hierarchical=bound1,
        bound_general=bound2,
        timings={"solve_s": time.perf_counter() - t0})
    return labeling, report


def _source_metric(model):
    potential = model.potential
    if isinstance(potential, DiameterMetricSpec):
        return potential.metric
    if isinstance(potential, DiversitySpec):
        return potential.diversity.induced_metric()
    raise InvalidInputError(
        "parsimonious solve needs a diversity-based potential")


def solve_parsimonious(model, k=10, seed=0):
    """Mixture-of-trees solve of a general diversity energy.

    Embeds the potential's induced metric into k random 2-HSTs, runs the
    hierarchical solve on each surrogate, evaluates every candidate under
    the original potential, and returns the best.
    """
    t0 = time.perf_counter()
    metric = _source_metric(model)
    t_embed = time.perf_counter()
    mixture = hst.frt_embed(metric, k, seed)
    t_solve = time.perf_counter()

    candidates = []
    energies = []
    for tree in mixture:
        lab, tree_report = solve_hierarchical(model, tree)
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
        component_energies=energies, bound_hierarchical=bound1,
        bound_general=bound2, seed=seed, num_trees=k,
        timings={"metric_s": t_embed - t0,
                 "embed_s": t_solve - t_embed,
                 "solve_s": time.perf_counter() - t_solve})
    return labeling, report
