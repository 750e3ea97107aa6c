"""Exact alpha-expansion for energies with label-consistency clique costs.

A clique pays gamma[k] when uniformly labeled l_k and gamma_max otherwise
(gamma_max strictly larger whenever the clique weight is positive).  The
optimal expansion move for such an energy is a single min st-cut; the
sweep over alpha labels then descends monotonically to a local minimum.
A PnPottsInstance keeps its cliques as a model.Cliques, so energies and
move networks are built from the CSR clique arrays.  Before a move's
network is built, every variable whose costs decide it (it keeps, or
switches, in every optimal move) is fixed, to a fixpoint; only the free
variables get nodes, and on lattices most moves are left with none.  A
move network's per-node arc lists hold no reference cycles, so each move
is built, solved and read with the cyclic garbage collector paused:
otherwise its allocations set off collections that traverse those lists
for nothing.
"""

import gc
import math
from dataclasses import dataclass, field

import numpy as np

from .maxflow import FLOW_TOL, FlowNetwork
from .model import (InvalidInputError, check_labeling, ordered_sum,
                    require_finite, uniform_label)

ACCEPT_TOL = 1e-9


class PnPottsInstance:
    """Unaries plus weighted per-clique consistency costs.

    ``cliques`` holds the members and weights (model.Cliques); clique c
    also has the per-label cost table gamma[c] and the disagreement cost
    gamma_max[c].  gamma may also be one table shared by every clique.
    """

    def __init__(self, unaries, cliques, gamma, gamma_max):
        unaries = np.asarray(unaries, dtype=float)
        if unaries.ndim != 2:
            raise InvalidInputError("unaries must be N x H")
        require_finite(unaries, "unaries")
        n, h = unaries.shape
        cliques.check_members(n)
        count = len(cliques)
        try:
            gamma = np.broadcast_to(np.asarray(gamma, dtype=float), (count, h))
        except ValueError as e:
            raise InvalidInputError(
                "clique gamma table must have H entries") from e
        gamma_max = np.asarray(gamma_max, dtype=float)
        if gamma_max.shape != (count,):
            raise InvalidInputError("gamma_max must have one entry per clique")
        require_finite(gamma, "gamma values")
        require_finite(gamma_max, "gamma_max")
        if np.any(gamma < 0) or np.any(gamma_max < 0):
            raise InvalidInputError("gamma values must be non-negative")
        weighted = cliques.weights > 0
        if np.any(gamma[weighted] >= gamma_max[weighted, None]):
            raise InvalidInputError(
                "gamma_max must strictly exceed every gamma[k] when weighted")
        self.unaries = unaries
        self.num_variables = n
        self.num_labels = h
        self.cliques = cliques
        self.gamma = gamma
        self.gamma_max = gamma_max
        self._rows = np.arange(count)
        # every clique entry twice, as the slots of a move's per-variable
        # sums: member i at slot i with its clique's pay_keep (paid entry
        # c), and at slot n + i with its pay_switch (paid entry count + c)
        self._slot = np.concatenate((cliques.members, cliques.members + n))
        self._paid = np.concatenate((cliques.owner, cliques.owner + count))

    def clique_gamma(self, labeling):
        """Per clique: gamma of its label if uniformly labeled, else
        gamma_max."""
        uniform, low = uniform_label(labeling[self.cliques.members],
                                     self.cliques.offsets)
        return np.where(uniform, self.gamma[self._rows, low], self.gamma_max)

    def evaluate(self, labeling, clique_gamma=None):
        """Energy of the labeling.  clique_gamma is its clique_gamma, if
        the caller has it."""
        labeling = check_labeling(labeling, self.unaries)
        if clique_gamma is None:
            clique_gamma = self.clique_gamma(labeling)
        e = float(self.unaries[np.arange(self.num_variables), labeling].sum())
        return ordered_sum(e, self.cliques.weights * clique_gamma)


def best_expansion_move(instance, current, alpha, clique_gamma=None):
    """Exact minimum over the move space {keep current label, switch to alpha}.

    clique_gamma is instance.clique_gamma(current), if the caller has it.

    A clique's movers are its members not yet labeled alpha; it pays
    pay_keep unless every mover keeps and pay_switch unless every mover
    switches.  First the movers forced by their own costs are fixed
    (Kovtun, DAGM 2003; the "reduce" step of Alahari, Kohli & Torr, PAMI
    2010).  Let uk and us be mover i's unaries for keeping and switching,
    and sum_keep, sum_switch its cliques' pay_keep and pay_switch summed.
    Switching i changes a clique's cost by at most +pay_keep or
    -pay_switch, whatever the other movers do, so i switches in every
    optimal move when us + sum_keep < uk - margin, and keeps in every
    optimal move when uk + sum_switch < us - margin.  A clique with a
    mover forced to switch pays pay_keep in every move, and one with a
    mover forced to keep pays pay_switch in every move, so those terms
    drop out of the other members' sums, and the rule runs again until a
    pass drops no further term: the optimal moves all lie in the space
    the fixed movers leave, and there each later fix is forced as well.

    The free movers get one binary node each (source side = keep), and
    each clique is what is left of it over its free movers.  With one
    free mover that is a unary cost; with two it is a submodular pairwise
    term, one arc between them (Kolmogorov & Zabih, PAMI 2004).  A clique
    with three or more gets the robust P^n gadget of Kohli, Ladicky & Torr
    (IJCV 2009): two auxiliary nodes tied to its movers by infinite arcs.
    Cut cost equals move energy up to an additive constant, and the cut
    read is the least optimal keep-set.  Every optimal move agrees on the
    forced movers, so the move is the least optimal keep-set of the full
    move space, whatever the encoding; a move without free movers is not
    cut at all.  The collector is paused while the move is built, solved
    and read, and the caller's collector state restored.
    """
    current = check_labeling(current, instance.unaries)
    if not 0 <= alpha < instance.num_labels:
        raise InvalidInputError("alpha out of range")
    collecting = gc.isenabled()
    gc.disable()
    try:
        net, free, switch = _move_network(instance, current, alpha,
                                          clique_gamma)
        if net is not None:
            net.compute_max_flow()
            switch[free] = ~net.source_side_mask()[:free.size]
        del net                           # freed before collections resume
    finally:
        if collecting:
            gc.enable()
    return np.where(switch, alpha, current)


def _move_network(instance, current, alpha, clique_gamma=None):
    """The flow network of one expansion move (see best_expansion_move).

    Returns the network, the free movers in node order (node k is variable
    free[k]) and the mask of the variables forced to switch.  A move with
    no free mover gets no network (None).  The network is built apart from
    the flow, so its working lists are freed before it.

    The fixing margin is at least FLOW_TOL, so no fixed mover's gap is one
    the flow would read as zero, and 2**-40 of the mover's cost magnitude
    beyond that, so rounding in the sums cannot fake a gap and scaling
    every cost leaves the fixed set as it is.  It is taken from the first
    pass: the sums only fall, so that margin is the largest and only ever
    fixes fewer movers.  A mover on an exact tie stays free: only the cut
    picks the least keep-set among the optimal moves.
    """
    n = instance.num_variables
    cliques = instance.cliques
    count = len(cliques)
    members, owner = cliques.members, cliques.owner
    if clique_gamma is None:
        clique_gamma = instance.clique_gamma(current)
    # pay[c] is clique c's pay_keep, what it pays unless every mover keeps
    # its label, and pay[count + c] its pay_switch
    pay = np.empty(2 * count)
    np.multiply(cliques.weights, instance.gamma_max - clique_gamma,
                out=pay[:count])
    np.multiply(cliques.weights,
                instance.gamma_max - instance.gamma[:, alpha],
                out=pay[count:])
    # sums[i] is variable i's sum_keep and sums[n + i] its sum_switch
    slot, paid = instance._slot, instance._paid
    sums = np.bincount(slot, pay[paid], 2 * n)

    keep_cost = instance.unaries[np.arange(n), current]
    switch_cost = instance.unaries[:, alpha]
    gap = keep_cost - switch_cost
    margin = np.maximum(FLOW_TOL, 2.0 ** -40 * (
        np.abs(keep_cost) + np.abs(switch_cost) + sums[:n] + sums[n:]))
    # forced[i]: mover i switches (us + sum_keep < uk - margin); forced[n +
    # i]: it keeps (uk + sum_switch < us - margin).  A variable holding
    # alpha has a gap of 0, so it is never forced
    below = np.concatenate((gap - margin, -gap - margin))
    while True:
        forced = sums < below
        # a clique with a member forced to switch pays pay_keep in every
        # move, and one with a member forced to keep pays pay_switch
        fixed = paid[forced[slot].nonzero()[0]]
        if not np.count_nonzero(pay[fixed]):
            break
        pay[fixed] = 0.0
        sums = np.bincount(slot, pay[paid], 2 * n)
    switch = forced[:n]
    loose = (current != alpha) & ~(switch | forced[n:])     # free movers
    free = loose.nonzero()[0]
    if not free.size:
        return None, free, switch

    # each clique over its free movers, renumbered as nodes; a clique
    # without them or without weight costs the same in every move
    pay_keep, pay_switch = pay[:count], pay[count:]
    loose = loose[members].nonzero()[0]           # their clique entries
    node = np.empty(n, dtype=np.intp)
    node[free] = np.arange(free.size)
    movers = node[members[loose]]
    num_movers = np.bincount(owner[loose], minlength=count)
    active = (num_movers > 0) & (pay_keep + pay_switch > 0)
    ends = num_movers.cumsum()
    starts = ends - num_movers
    net = FlowNetwork()
    net.add_nodes(free.size)

    # one or two movers i, j (i = j for one): pay_keep when i switches,
    # pay_switch when j keeps, and both when exactly one of them switches,
    # which the arc i -> j charges
    small = (active & (num_movers <= 2)).nonzero()[0]
    first, last = movers[starts[small]], movers[ends[small] - 1]
    keep_cost = keep_cost[free]
    switch_cost = switch_cost[free]
    np.add.at(switch_cost, first, pay_keep[small])
    np.add.at(keep_cost, last, pay_switch[small])
    base = np.minimum(keep_cost, switch_cost)  # offset keeps capacities >= 0
    from_source = (switch_cost - base).tolist()
    to_sink = (keep_cost - base).tolist()
    for i in (keep_cost != switch_cost).nonzero()[0].tolist():
        net.add_terminal_arc(i, from_source[i], to_sink[i])
    pair = num_movers[small] == 2
    for i, j, cap in zip(first[pair].tolist(), last[pair].tolist(),
                         (pay_keep[small] + pay_switch[small])[pair].tolist()):
        net.add_arc(i, j, cap)

    gadgets = (active & (num_movers > 2)).nonzero()[0]
    inf = (net.infinite_capacity()
           + sum((pay_keep[gadgets] + pay_switch[gadgets]).tolist()) + 1.0)
    movers = movers.tolist()
    starts, ends = starts.tolist(), ends.tolist()
    pay_keep, pay_switch = pay_keep.tolist(), pay_switch.tolist()
    for c in gadgets.tolist():
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
    return net, free, switch


@dataclass
class MoveTrace:
    """Accepted moves in sweep order: (sweep index, alpha, energy after)."""
    moves: list = field(default_factory=list)
    sweeps: int = 0


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
        labeling = check_labeling(init, instance.unaries).copy()
    # each labeling's clique costs are computed once, for its energy and
    # every move from it
    gamma = instance.clique_gamma(labeling)
    energy = instance.evaluate(labeling, gamma)
    trace = MoveTrace()
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
            proposal = best_expansion_move(instance, labeling, alpha, gamma)
            if np.array_equal(proposal, labeling):
                continue
            proposal_gamma = instance.clique_gamma(proposal)
            e = instance.evaluate(proposal, proposal_gamma)
            if e < energy - ACCEPT_TOL:
                spans_all = h == 2 and labeling.min() == labeling.max()
                labeling, energy, gamma = proposal, e, proposal_gamma
                accepted += 1
                trace.moves.append((trace.sweeps, alpha, e))
                tried[alpha] = accepted
                if spans_all:
                    tried = [accepted] * h
                improved = True
    return labeling, trace


def pn_potts_bound(instance):
    """Multiplicative bound of the expansion sweep on this instance family.

    lambda * min(M, H) where lambda is gamma_max / gamma_min, with the
    extrema taken across all weighted cliques.  With gamma_min zero there
    is no multiplicative guarantee, and the bound is infinite.
    """
    weighted = instance.cliques.weights > 0
    if not weighted.any():
        return 1.0
    gamma_min = float(instance.gamma[weighted].min())
    gamma_max = float(instance.gamma_max[weighted].max())
    if gamma_min == 0:
        return math.inf
    lam = gamma_max / gamma_min
    m = int(instance.cliques.sizes[weighted].max())
    return lam * min(m, instance.num_labels)
