"""Exact alpha-expansion for energies with label-consistency clique costs.

A clique pays gamma[k] when uniformly labeled l_k and gamma_max otherwise
(gamma_max strictly larger whenever the clique weight is positive).  The
optimal expansion move for such an energy is a single min st-cut; the
sweep over alpha labels then descends monotonically to a local minimum.
"""

from dataclasses import dataclass, field

import numpy as np

from .maxflow import FlowNetwork
from .model import InvalidInputError, require_finite

ACCEPT_TOL = 1e-9


def per_clique(ufunc, values, offsets):
    """ufunc reduced over each clique's stretch of values' last axis, which
    lists the members of every clique in CSR order (see PnPottsInstance)."""
    if not values.shape[-1]:
        return np.zeros(values.shape[:-1] + (offsets.size - 1,), values.dtype)
    return ufunc.reduceat(values, offsets[:-1], axis=-1)


class CliqueGamma:
    """One clique of a consistency-cost instance: per-label cost table."""

    def __init__(self, members, gamma, gamma_max, weight):
        members = tuple(int(m) for m in members)
        if not members or len(set(members)) != len(members):
            raise InvalidInputError("clique members must be non-empty, distinct")
        self.members = members
        self.members_arr = np.asarray(members, dtype=np.intp)
        self.gamma = np.asarray(gamma, dtype=float)
        self.gamma_max = float(gamma_max)
        self.weight = float(weight)
        require_finite(self.gamma, "gamma values")
        require_finite([self.gamma_max, self.weight], "gamma_max and weight")
        if self.weight < 0:
            raise InvalidInputError("clique weight must be non-negative")
        if np.any(self.gamma < 0) or self.gamma_max < 0:
            raise InvalidInputError("gamma values must be non-negative")
        if self.weight > 0 and np.any(self.gamma >= self.gamma_max):
            raise InvalidInputError(
                "gamma_max must strictly exceed every gamma[k] when weighted")


class PnPottsInstance:
    """Unaries plus weighted per-clique consistency costs.

    The cliques are held as CSR arrays: clique c has the members
    members[offsets[c]:offsets[c + 1]], weight weights[c], per-label cost
    table gamma[c] and disagreement cost gamma_max[c].  Energy evaluation
    and move construction work on these arrays; ``cliques`` gives the
    same cliques as CliqueGamma objects.
    """

    def __init__(self, unaries, cliques):
        cliques = tuple(cliques)
        unaries = np.asarray(unaries, dtype=float)
        if unaries.ndim != 2:
            raise InvalidInputError("unaries must be N x H")
        h = unaries.shape[1]
        if any(c.gamma.shape != (h,) for c in cliques):
            raise InvalidInputError("clique gamma table must have H entries")
        offsets = np.zeros(len(cliques) + 1, dtype=np.intp)
        offsets[1:] = np.cumsum([len(c.members) for c in cliques],
                                dtype=np.intp)
        self._set_arrays(
            unaries, offsets,
            np.concatenate([c.members_arr for c in cliques]
                           or [np.zeros(0, np.intp)]),
            [c.weight for c in cliques],
            np.reshape([c.gamma for c in cliques], (len(cliques), h)),
            [c.gamma_max for c in cliques])
        self._cliques = cliques

    @classmethod
    def from_arrays(cls, unaries, offsets, members, weights, gamma,
                    gamma_max):
        """An instance straight from CSR clique arrays (see the class
        docstring).  gamma may also be one table shared by every clique."""
        instance = cls.__new__(cls)
        instance._set_arrays(unaries, offsets, members, weights, gamma,
                             gamma_max)
        instance._cliques = None
        return instance

    def _set_arrays(self, unaries, offsets, members, weights, gamma,
                    gamma_max):
        unaries = np.asarray(unaries, dtype=float)
        if unaries.ndim != 2:
            raise InvalidInputError("unaries must be N x H")
        require_finite(unaries, "unaries")
        n, h = unaries.shape
        offsets = np.asarray(offsets, dtype=np.intp)
        members = np.asarray(members, dtype=np.intp)
        weights = np.asarray(weights, dtype=float)
        gamma_max = np.asarray(gamma_max, dtype=float)
        count = weights.shape[0]
        try:
            gamma = np.broadcast_to(np.asarray(gamma, dtype=float), (count, h))
        except ValueError as e:
            raise InvalidInputError(
                "clique gamma table must have H entries") from e
        sizes = np.diff(offsets)
        if (offsets.shape != (count + 1,) or gamma_max.shape != (count,)
                or offsets[0] != 0 or offsets[-1] != members.shape[0]):
            raise InvalidInputError("inconsistent clique arrays")
        if np.any(sizes < 1):
            raise InvalidInputError("clique members must be non-empty")
        if members.size and (members.min() < 0 or members.max() >= n):
            raise InvalidInputError("clique member out of range")
        keys = np.sort(np.repeat(np.arange(count), sizes) * n + members)
        if np.any(keys[1:] == keys[:-1]):
            raise InvalidInputError("clique members must be distinct")
        require_finite(weights, "clique weights")
        require_finite(gamma, "gamma values")
        require_finite(gamma_max, "gamma_max")
        if np.any(weights < 0):
            raise InvalidInputError("clique weight must be non-negative")
        if np.any(gamma < 0) or np.any(gamma_max < 0):
            raise InvalidInputError("gamma values must be non-negative")
        weighted = weights > 0
        if np.any(gamma[weighted] >= gamma_max[weighted, None]):
            raise InvalidInputError(
                "gamma_max must strictly exceed every gamma[k] when weighted")
        self.unaries = unaries
        self.num_variables = n
        self.num_labels = h
        self.offsets = offsets
        self.members = members
        self.weights = weights
        self.gamma = gamma
        self.gamma_max = gamma_max
        self.sizes = sizes
        self._rows = np.arange(count)

    @property
    def cliques(self):
        """The cliques as a tuple of CliqueGamma objects (built on first
        use from the arrays, which are already validated)."""
        if self._cliques is None:
            cliques = []
            for c, (a, b) in enumerate(zip(self.offsets[:-1].tolist(),
                                           self.offsets[1:].tolist())):
                clique = CliqueGamma.__new__(CliqueGamma)
                clique.members_arr = self.members[a:b]
                clique.members = tuple(clique.members_arr.tolist())
                clique.gamma = self.gamma[c]
                clique.gamma_max = float(self.gamma_max[c])
                clique.weight = float(self.weights[c])
                cliques.append(clique)
            self._cliques = tuple(cliques)
        return self._cliques

    def check_labeling(self, labeling):
        labeling = np.asarray(labeling, dtype=np.intp)
        if labeling.shape != (self.num_variables,):
            raise InvalidInputError("labeling length mismatch")
        return labeling

    def clique_gamma(self, labeling):
        """Per clique: gamma of its label if uniformly labeled, else
        gamma_max."""
        labs = labeling[self.members]
        low = per_clique(np.minimum, labs, self.offsets)
        return np.where(low == per_clique(np.maximum, labs, self.offsets),
                        self.gamma[self._rows, low], self.gamma_max)

    def evaluate(self, labeling):
        labeling = self.check_labeling(labeling)
        e = float(self.unaries[np.arange(self.num_variables), labeling].sum())
        cost = self.weights * self.clique_gamma(labeling)
        # a running sum adds the clique costs one by one in clique order,
        # the same floating-point result as a loop over the cliques
        return float(np.cumsum(np.concatenate(([e], cost)))[-1])


def best_expansion_move(instance, current, alpha):
    """Exact minimum over the move space {keep current label, switch to alpha}.

    Per variable a binary node (source side = keep); per clique two
    auxiliary nodes encode the three-valued cost: w*gamma_keep if every
    non-alpha member keeps, w*gamma[alpha] if all switch, w*gamma_max
    otherwise.  Cut cost equals move energy up to an additive constant.
    """
    current = instance.check_labeling(current)
    if not 0 <= alpha < instance.num_labels:
        raise InvalidInputError("alpha out of range")
    net = _move_network(instance, current, alpha)
    net.compute_max_flow()
    return np.where(net.source_side_mask()[:instance.num_variables], current,
                    alpha)


def _move_network(instance, current, alpha):
    """The flow network of one expansion move (see best_expansion_move).

    Built apart from the flow, so its working lists are freed before it."""
    n = instance.num_variables
    net = FlowNetwork()
    net.add_nodes(n)                      # variable i is node i

    keep_cost = instance.unaries[np.arange(n), current]
    switch_cost = instance.unaries[:, alpha]
    base = np.minimum(keep_cost, switch_cost)  # offset keeps capacities >= 0
    from_source = (switch_cost - base).tolist()
    to_sink = (keep_cost - base).tolist()
    for i in np.flatnonzero(keep_cost != switch_cost).tolist():
        net.add_terminal_arc(i, from_source[i], to_sink[i])

    # a clique's movers are its members not yet labeled alpha; a clique
    # without movers (already uniformly alpha) or weight gets no gadget
    moving = current[instance.members] != alpha
    movers = instance.members[moving].tolist()
    num_movers = per_clique(np.add, moving, instance.offsets)
    # what the clique pays if every mover keeps its label
    gamma_keep = instance.clique_gamma(current)
    pay_keep = instance.weights * (instance.gamma_max - gamma_keep)
    pay_switch = instance.weights * (instance.gamma_max
                                     - instance.gamma[:, alpha])
    active = np.flatnonzero((num_movers > 0) & (instance.weights > 0))
    inf = (net.infinite_capacity()
           + sum((pay_keep[active] + pay_switch[active]).tolist()) + 1.0)

    ends = np.cumsum(num_movers)
    starts, ends = (ends - num_movers).tolist(), ends.tolist()
    pay_keep, pay_switch = pay_keep.tolist(), pay_switch.tolist()
    for c in active.tolist():
        clique_movers = movers[starts[c]:ends[c]]
        if pay_keep[c] > 0:
            b = net.add_node()            # charged unless all movers keep
            net.add_terminal_arc(b, pay_keep[c], 0.0)
            for i in clique_movers:
                net.add_arc(b, i, inf)
        if pay_switch[c] > 0:
            a = net.add_node()            # charged unless all movers switch
            net.add_terminal_arc(a, 0.0, pay_switch[c])
            for i in clique_movers:
                net.add_arc(i, a, inf)
    return net


@dataclass
class MoveTrace:
    """Accepted moves in sweep order: (sweep index, alpha, energy after)."""
    initial_energy: float
    moves: list = field(default_factory=list)
    sweeps: int = 0

    def energies(self):
        return [self.initial_energy] + [e for _, _, e in self.moves]


def alpha_expansion(instance, init=None):
    """Sweep alpha over labels in ascending order until no move improves.

    Returns the local-minimum labeling and the trace of accepted moves.
    A move is accepted only if it lowers the energy by more than
    ACCEPT_TOL, which rules out floating-point cycling.

    A move is only cut when its outcome is unknown.  Alpha is skipped
    when every variable already holds it, and when the labeling has not
    changed since alpha was last tried: the move is deterministic, so it
    would be rejected again.  After an accepted alpha move the alpha move
    from the result is known to fail too, since its move space lies inside
    the one the result was optimal in.  With two labels, the move from a
    uniform labeling spans every labeling, so once it is accepted no move
    can improve.  The skipped cuts are exactly the ones a plain sweep
    would reject, so the labeling and the trace are those of a plain sweep.
    """
    if init is None:
        labeling = np.zeros(instance.num_variables, dtype=np.intp)
    else:
        labeling = instance.check_labeling(init).copy()
    energy = instance.evaluate(labeling)
    trace = MoveTrace(initial_energy=energy)
    h = instance.num_labels
    tried = [-1] * h      # accepted-move count when alpha was last tried
    accepted = 0

    improved = True
    while improved:
        improved = False
        trace.sweeps += 1
        for alpha in range(h):
            if tried[alpha] == accepted:
                continue
            tried[alpha] = accepted
            if np.all(labeling == alpha):
                continue
            proposal = best_expansion_move(instance, labeling, alpha)
            if np.array_equal(proposal, labeling):
                continue
            e = instance.evaluate(proposal)
            if e < energy - ACCEPT_TOL:
                spans_all = h == 2 and labeling.min() == labeling.max()
                labeling, energy = proposal, e
                accepted += 1
                trace.moves.append((trace.sweeps, alpha, e))
                tried[alpha] = accepted
                if spans_all:
                    tried = [accepted] * h
                improved = True
    return labeling, trace


def pn_potts_bound(instance):
    """Multiplicative bound of the expansion sweep on this instance family.

    lambda * min(M, H) where lambda is gamma_max / gamma_min (gamma_max if
    gamma_min is zero), with the extrema taken across all weighted cliques.
    """
    weighted = instance.weights > 0
    if not weighted.any():
        return 1.0
    gamma_min = float(instance.gamma[weighted].min())
    gamma_max = float(instance.gamma_max[weighted].max())
    lam = gamma_max / gamma_min if gamma_min != 0 else gamma_max
    m = int(instance.sizes[weighted].max())
    return lam * min(m, instance.num_labels)
