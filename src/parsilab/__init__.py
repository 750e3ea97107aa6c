"""Parsimonious labeling: minimization of high-order discrete energies
whose clique potentials are diversities of the used label set."""

from .expansion import (MoveTrace, PnPottsInstance, alpha_expansion,
                        best_expansion_move, pn_potts_bound)
from .hst import RHst, frt_embed
from .model import (Cliques, DiameterDiversity, EnergyModel,
                    ExplicitTableDiversity, InvalidInputError, LabelMetric,
                    PnPottsSpec, validate_diversity_axioms)
from .solver import (SolveReport, solve, solve_hierarchical,
                     solve_parsimonious, theorem_bounds)

__version__ = "0.1.0"

__all__ = [
    "Cliques", "DiameterDiversity", "EnergyModel", "ExplicitTableDiversity",
    "InvalidInputError", "LabelMetric", "MoveTrace", "PnPottsInstance",
    "PnPottsSpec", "RHst", "SolveReport", "alpha_expansion",
    "best_expansion_move", "frt_embed", "pn_potts_bound", "solve",
    "solve_hierarchical", "solve_parsimonious", "theorem_bounds",
    "validate_diversity_axioms",
]
