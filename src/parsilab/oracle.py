"""Brute-force minimizers used as ground truth in tests and bound checks.

No pruning on purpose: correctness must be obvious.  Enumeration order
is lexicographic in the labeling vector (variable 0 most significant),
so ties always break toward the lexicographically smallest labeling.
"""

import numpy as np

from .expansion import PnPottsInstance
from .model import InvalidInputError, PnPottsSpec, SolverError

MAX_LABELINGS = 10 ** 7


class SizeError(InvalidInputError):
    pass


def _all_labelings(n, h):
    """All h^n labelings, one per row, in lexicographic order."""
    count = h ** n
    rows = np.arange(count)
    out = np.empty((count, n), dtype=np.intp)
    for i in range(n):
        out[:, i] = rows // h ** (n - 1 - i) % h
    return out


def _mask_potential_table(model):
    """Clique potential per label-subset bitmask (0 for empty/singletons of
    zero value as the potential defines)."""
    h = model.num_labels
    table = np.zeros(1 << h)
    for mask in range(1, 1 << h):
        subset = tuple(i for i in range(h) if mask >> i & 1)
        table[mask] = model.potential.value(subset)
    return table


class ExhaustiveResult:
    def __init__(self, labeling, energy, unary_term, clique_term):
        self.labeling = labeling
        self.energy = energy
        self.unary_term = unary_term
        self.clique_term = clique_term


def exhaustive_minimize(model):
    """Global optimum by full enumeration; also returns the term split."""
    n, h = model.num_variables, model.num_labels
    if h ** n > MAX_LABELINGS:
        raise SizeError("instance too large to enumerate (%d^%d labelings)"
                        % (h, n))
    labelings = _all_labelings(n, h)
    unary = model.unaries[np.arange(n)[None, :], labelings].sum(axis=1)

    clique = np.zeros(labelings.shape[0])
    c = model.cliques
    if len(c):
        table = _mask_potential_table(model)
        for k in np.flatnonzero(c.weights):     # zero weights add nothing
            labs = labelings[:, c.members[c.offsets[k]:c.offsets[k + 1]]]
            masks = np.bitwise_or.reduce(np.int64(1) << labs, axis=1)
            clique += c.weights[k] * table[masks]

    energy = unary + clique
    best = int(np.argmin(energy))   # first minimum = lexicographic tie-break
    result = ExhaustiveResult(labelings[best].copy(), float(energy[best]),
                              float(unary[best]), float(clique[best]))
    # sanity: the vectorized evaluation must agree with the reference one
    if not abs(model.evaluate_energy(result.labeling) - result.energy) <= 1e-9:
        raise SolverError("enumerated energy does not match the model's")
    return result


def model_to_pn_potts_instance(model):
    """View a label-consistency model as an expansion-solvable instance."""
    if not isinstance(model.potential, PnPottsSpec):
        raise InvalidInputError("model potential is not a consistency cost")
    spec = model.potential
    return PnPottsInstance(model.unaries, model.cliques, spec.gamma,
                           np.full(len(model.cliques), spec.gamma_max))
