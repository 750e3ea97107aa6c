"""Hierarchical move making over an r-HST and the mixture-of-trees driver.

solve_hierarchical walks the tree bottom-up: leaves get the constant
labeling, and each internal node fuses its children's labelings by
solving a label-consistency instance over child indices with a single
alpha-expansion.  solve_parsimonious embeds the induced metric of a
general diversity into k random 2-HSTs, runs the hierarchical solve per
tree, and keeps the candidate with the least energy under the original
potential.  solve picks the solver for a model's potential.
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


@dataclass
class SolveReport:
    """A solve's result with the a-priori bounds of the solver that ran:
    bound_expansion for a single alpha-expansion (expansion.pn_potts_bound),
    otherwise the tree solvers' bounds (theorem_bounds)."""
    labeling: list
    energy: float
    component_energies: list
    bound_hierarchical: float = None
    bound_general: float = None
    bound_expansion: float = None
    seed: object = None
    num_trees: int = 1
    log_base: str = "natural"
    timings: dict = field(default_factory=dict)

    @property
    def bound(self):
        """The multiplicative bound that covers the whole solve."""
        if self.bound_expansion is not None:
            return self.bound_expansion
        return self.bound_general

    def to_json(self, include_timings=True):
        if self.bound_expansion is not None:
            # null when the expansion has no multiplicative guarantee
            bounds = {"expansion": self.bound_expansion
                      if math.isfinite(self.bound_expansion) else None}
        else:
            bounds = {"hierarchical": self.bound_hierarchical,
                      "general_diversity": self.bound_general,
                      "log_base": self.log_base}
        doc = {
            "energy": self.energy,
            "labeling": [int(x) for x in self.labeling],
            "component_energies": self.component_energies,
            "bounds": bounds,
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
    m = model.cliques.max_size
    bound1 = r / (r - 1.0) * min(m, h)
    shrink = isinstance(model.potential, DiameterDiversity)
    bound2 = bound1 * math.log(h) * (1 if shrink else h - 1)
    return bound1, bound2


def build_fusion_instance(model, tree, node, child_labelings):
    """The child-index labeling instance solved at one internal tree node.

    Meta-label k means "take variable i's label from child k".  Unaries
    are the original unaries read through each child's labeling; each
    clique pays the diameter diversity of child k's labels on it when
    all members choose k, and the diameter diversity of the node's whole
    cluster otherwise.  Cliques whose resolution cannot depend on the
    choice (all children identical and uniform on the clique) are dropped.
    """
    n = model.num_variables
    labelings = np.stack(child_labelings)                            # k x n
    meta_unaries = np.ascontiguousarray(
        model.unaries[np.arange(n), labelings].T)

    cliques = model.cliques
    labs = labelings[:, cliques.members]      # k x (members of all cliques)
    low = per_clique(np.minimum, labs, cliques.offsets)
    high = per_clique(np.maximum, labs, cliques.offsets)
    same = per_clique(np.logical_and, labs == labs[0],
                      cliques.offsets).all(axis=0)
    keep = (cliques.weights > 0) & ~((low[0] == high[0]) & same)
    kept = cliques.select(keep)
    labs, low, high = labelings[:, kept.members], low[:, keep], high[:, keep]
    sizes, offsets = kept.sizes, kept.offsets

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
    return PnPottsInstance(meta_unaries, kept, gamma,
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
    labelings = {}                        # tree node -> its labeling
    order = sorted(range(tree.num_nodes), key=tree.depth, reverse=True)
    for node in order:
        if tree.is_leaf(node):
            lab = np.full(n, tree.leaf_label[node], dtype=np.intp)
        else:
            children = np.stack([labelings.pop(ch)
                                 for ch in tree.children[node]])
            if len(children) == 1:
                lab = children[0]
            else:
                instance = build_fusion_instance(model, tree, node, children)
                choice, _ = alpha_expansion(instance)
                lab = children[choice, np.arange(n)]
        labelings[node] = lab

    labeling = labelings[hst.ROOT]
    energy = model.evaluate_energy(labeling)
    bound1, bound2 = theorem_bounds(model, tree.r)
    report = SolveReport(
        labeling=list(map(int, labeling)), energy=energy,
        component_energies=[energy], bound_hierarchical=bound1,
        bound_general=bound2,
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


def solve(model, k=10, seed=0):
    """Solve a model with the solver for its potential; returns
    (labeling, SolveReport).

    A consistency-cost (P^n Potts) model is solved by one alpha-expansion,
    which needs no trees: k is unused and seed only goes into the report.
    Any other potential goes to the mixture-of-trees solve.
    """
    if not isinstance(model.potential, PnPottsSpec):
        return solve_parsimonious(model, k=k, seed=seed)
    instance = model_to_pn_potts_instance(model)
    labeling, _ = alpha_expansion(instance)
    energy = model.evaluate_energy(labeling)
    report = SolveReport(
        labeling=list(map(int, labeling)), energy=energy,
        component_energies=[energy],
        bound_expansion=pn_potts_bound(instance), seed=seed, num_trees=0)
    return labeling, report
