"""Parsimonious labeling: minimization of high-order discrete energies
whose clique potentials are diversities of the used label set."""

from .expansion import (CliqueGamma, MoveTrace, PnPottsInstance,
                        alpha_expansion, best_expansion_move, pn_potts_bound)
from .hst import (HstMixture, RHst, cluster_labels, frt_embed,
                  hierarchical_pn_potts, tree_metric)
from .model import (Clique, DiameterDiversity, DiameterMetricSpec,
                    DiversitySpec, EnergyModel, ExplicitTableDiversity,
                    InvalidInputError, LabelMetric, LabelSet, PnPottsSpec,
                    diameter_diversity, evaluate_energy, induced_metric,
                    validate_diversity_axioms)
from .solver import (SolveReport, solve_hierarchical, solve_parsimonious,
                     theorem_bounds)

__version__ = "0.1.0"

__all__ = [
    "Clique", "CliqueGamma", "DiameterDiversity", "DiameterMetricSpec",
    "DiversitySpec", "EnergyModel", "ExplicitTableDiversity", "HstMixture",
    "InvalidInputError", "LabelMetric", "LabelSet", "MoveTrace",
    "PnPottsInstance", "PnPottsSpec", "RHst", "SolveReport",
    "alpha_expansion", "best_expansion_move", "cluster_labels",
    "diameter_diversity", "evaluate_energy", "frt_embed",
    "hierarchical_pn_potts", "induced_metric", "pn_potts_bound",
    "solve_hierarchical", "solve_parsimonious", "theorem_bounds",
    "tree_metric", "validate_diversity_axioms",
]
