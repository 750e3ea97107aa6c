"""Brute-force minimizers used as ground truth in tests and bound checks.

No pruning on purpose: correctness must be obvious.  Enumeration order
is lexicographic in the labeling vector (variable 0 most significant),
so ties always break toward the lexicographically smallest labeling.
"""

import numpy as np

from .expansion import PnPottsInstance
from .model import InvalidInputError, PnPottsSpec, SolverError, check_labeling

MAX_LABELINGS = 10 ** 7
MAX_MOVE_SPACE = 10 ** 6


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
        table[mask] = model.potential.subset_value(subset)
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
    if model.cliques:
        table = _mask_potential_table(model)
        for c in model.cliques:
            if c.weight == 0.0:
                continue
            masks = np.zeros(labelings.shape[0], dtype=np.int64)
            for m in c.members:
                masks |= np.int64(1) << labelings[:, m].astype(np.int64)
            clique += c.weight * table[masks]

    energy = unary + clique
    best = int(np.argmin(energy))   # first minimum = lexicographic tie-break
    result = ExhaustiveResult(labelings[best].copy(), float(energy[best]),
                              float(unary[best]), float(clique[best]))
    # sanity: the vectorized evaluation must agree with the reference one
    if not abs(model.evaluate_energy(result.labeling) - result.energy) <= 1e-9:
        raise SolverError("enumerated energy does not match the model's")
    return result


def exhaustive_expansion_move(instance, current, alpha):
    """Best labeling in the binary move space, by enumerating all 2^N moves."""
    current = check_labeling(current, instance.unaries)
    n = instance.num_variables
    if 2 ** n > MAX_MOVE_SPACE:
        raise SizeError("move space too large to enumerate (2^%d)" % n)
    best_lab = None
    best_e = np.inf
    for bits in range(2 ** n):
        lab = current.copy()
        for i in range(n):
            if bits >> (n - 1 - i) & 1:
                lab[i] = alpha
        e = instance.evaluate(lab)
        if e < best_e:
            best_e = e
            best_lab = lab
    return best_lab


def model_to_pn_potts_instance(model):
    """View a label-consistency model as an expansion-solvable instance."""
    if not isinstance(model.potential, PnPottsSpec):
        raise InvalidInputError("model potential is not a consistency cost")
    spec = model.potential
    offsets, members, weights = model.clique_arrays
    return PnPottsInstance(
        model.unaries, offsets, members, weights, spec.gamma,
        np.full(weights.size, spec.gamma_max))
