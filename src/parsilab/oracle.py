"""Brute-force minimizers used as ground truth in tests and bound checks.

No pruning on purpose: correctness must be obvious.  Enumeration order
is lexicographic in the labeling vector (variable 0 most significant),
so ties always break toward the lexicographically smallest labeling.
"""

import numpy as np

from .expansion import PnPottsInstance
from .model import InvalidInputError, PnPottsSpec, SolverError

MAX_LABELINGS = 10 ** 7
# labelings enumerated at a time, so memory stays small at MAX_LABELINGS
BLOCK_LABELINGS = 1 << 16


class SizeError(InvalidInputError):
    pass


class ExhaustiveResult:
    def __init__(self, labeling, energy, unary_term, clique_term):
        self.labeling = labeling
        self.energy = energy
        self.unary_term = unary_term
        self.clique_term = clique_term


def exhaustive_minimize(model):
    """Global optimum by full enumeration; also returns the term split."""
    n, h = model.num_variables, model.num_labels
    # a label set is keyed as a 64-bit mask: more labels would merge sets
    if h > 64:
        raise SizeError("too many labels to enumerate (%d, at most 64)" % h)
    count = h ** n
    if count > MAX_LABELINGS:
        raise SizeError("instance too large to enumerate (%d^%d labelings)"
                        % (h, n))
    c = model.cliques
    weighted = np.flatnonzero(c.weights)        # zero weights add nothing
    powers = h ** np.arange(n - 1, -1, -1)
    values = {}             # label-set mask -> potential value, each once
    result = None
    for start in range(0, count, BLOCK_LABELINGS):
        # the block's labelings, one per row, in lexicographic order
        stop = min(start + BLOCK_LABELINGS, count)
        labelings = np.arange(start, stop)[:, None] // powers % h
        unary = model.unaries[np.arange(n)[None, :], labelings].sum(axis=1)
        clique = np.zeros(labelings.shape[0])
        for k in weighted:
            labs = labelings[:, c.members[c.offsets[k]:c.offsets[k + 1]]]
            masks = np.bitwise_or.reduce(np.int64(1) << labs, axis=1)
            sets, inverse = np.unique(masks, return_inverse=True)
            for mask in set(sets.tolist()).difference(values):
                values[mask] = model.potential.value(
                    tuple(l for l in range(h) if mask >> l & 1))
            clique += c.weights[k] * np.array(
                [values[mask] for mask in sets.tolist()])[inverse]

        energy = unary + clique
        # first minimum, of the first block that has it: the lexicographic
        # tie-break
        best = int(np.argmin(energy))
        if result is None or energy[best] < result.energy:
            result = ExhaustiveResult(labelings[best].copy(),
                                      float(energy[best]), float(unary[best]),
                                      float(clique[best]))
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
