"""Exact alpha-expansion for energies with label-consistency clique costs.

A clique pays gamma[k] when uniformly labeled l_k and gamma_max otherwise
(gamma_max strictly larger whenever the clique weight is positive).  The
optimal expansion move for such an energy is a single min st-cut; the
sweep over alpha labels then descends monotonically to a local minimum.
A PnPottsInstance keeps its cliques as a model.Cliques, so energies and
move networks are built from the CSR clique arrays.  An instance may be
several copies of one component, each with its own costs, such as one
height's fusion nodes of a tree solve: it holds that component's
cliques once, and its index arrays address every copy.  alpha_expansion
sweeps it as if each component were swept alone, with one cut per move
for all the components the move covers.  Each move, its clique costs
and its energies are computed on the instance of those components alone
(PnPottsInstance.select, slices of the checked arrays over the same
cliques), so a move does work only for the variables it can move.
Before a move's network is built, every variable whose costs decide it
(it keeps, or switches, in every optimal move) is fixed, to a fixpoint;
only the free variables get nodes, and on lattices most moves are left
with none.  A move network's per-node arc lists hold no reference
cycles, so each move is built, solved and read with the cyclic garbage
collector paused: otherwise its allocations set off collections that
traverse those lists for nothing.
"""

import gc
import itertools
from dataclasses import dataclass, field

import numpy as np

from .maxflow import FLOW_TOL, FlowNetwork
from .model import (InvalidInputError, check_labeling, require_finite,
                    uniform_label)

ACCEPT_TOL = 1e-9


class PnPottsInstance:
    """Unaries plus weighted per-clique consistency costs.

    ``cliques`` holds the members and weights (model.Cliques); clique c
    also has the per-label cost table gamma[c] and the disagreement cost
    gamma_max[c].  gamma may also be one table shared by every clique.

    An instance may be m copies of one component (see
    solver.build_fusion_instance): with component_labels of m entries,
    cliques are one component's, over N / m variables, and copy j of
    clique c is c over the variables j * N / m onward.  The instance
    keeps those cliques as it is given them, so len(cliques) counts one
    copy's.  Unaries have a row per variable, gamma and gamma_max a row
    per clique of every copy, copy j's rows j * len(cliques) onward, and
    component j uses only the labels below component_labels[j].  By
    default the instance is one component that uses every label.
    """

    def __init__(self, unaries, cliques, gamma, gamma_max,
                 component_labels=None):
        unaries = np.asarray(unaries, dtype=float)
        if unaries.ndim != 2:
            raise InvalidInputError("unaries must be N x H")
        require_finite(unaries, "unaries")
        n, h = unaries.shape
        if component_labels is None:
            component_labels = [h]
        labels = np.array(component_labels, dtype=np.intp)
        m = labels.size
        if (labels.ndim != 1 or not m or n % m
                or labels.min() < 1 or labels.max() > h):
            raise InvalidInputError("components must split the variables "
                                    "evenly, each with 1..H labels")
        cliques.check_members(n // m)
        count = m * len(cliques)
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
        weighted = np.tile(cliques.weights, m) > 0
        if np.any(gamma[weighted] >= gamma_max[weighted, None]):
            raise InvalidInputError(
                "gamma_max must strictly exceed every gamma[k] when weighted")
        self._set(unaries, cliques, gamma, gamma_max, labels)

    @classmethod
    def from_checked(cls, unaries, cliques, gamma, gamma_max,
                     component_labels):
        """The instance of arrays that pass __init__'s checks as they are,
        such as the slices of a checked instance: cliques are one
        component's, kept as they are, gamma has a row per clique of
        every copy (a broadcast view when one table is shared), gamma_max
        and the component labels are arrays.  Nothing is checked again."""
        instance = cls.__new__(cls)
        instance._set(unaries, cliques, gamma, gamma_max, component_labels)
        return instance

    def _set(self, unaries, cliques, gamma, gamma_max, component_labels):
        n, h = unaries.shape
        m = component_labels.size
        self.unaries = unaries
        self.num_variables = n
        self.num_labels = h
        self.cliques = cliques
        self.gamma = gamma
        self.gamma_max = gamma_max
        self.component_labels = component_labels
        self.num_components = m
        # some component uses fewer than H labels
        self._padded = bool(component_labels.min() < h)
        self._rows = np.arange(m * len(cliques))
        # every copy's clique entries, copy j's members shifted by j * n / m
        # and its cliques numbered from j * len(cliques) on, twice, as the
        # slots of a move's per-variable sums: member i at slot i with its
        # clique's pay_keep (paid entry c), and at slot n + i with its
        # pay_switch (paid entry count + c).  _offsets bounds each clique's
        # entries in the first half
        copies = np.arange(2 * m)[:, None]
        self._slot = (cliques.members + copies * (n // m)).reshape(-1)
        self._paid = (cliques.owner + copies * len(cliques)).reshape(-1)
        self._offsets = np.append((cliques.offsets[:-1] + copies[:m]
                                   * cliques.members.size).reshape(-1),
                                  m * cliques.members.size)

    def select(self, components):
        """The instance made of the components that the boolean mask
        marks, at least one, in order: their unaries rows, gamma rows,
        gamma_max and label counts, over the same component cliques.
        They are slices of checked arrays, so they are not checked again,
        and the slice holds this instance's cliques object.  With every
        component marked it is the instance itself."""
        if components.all():
            return self
        rows = np.repeat(components, self.num_variables // self.num_components)
        keep = np.repeat(components, len(self.cliques))
        return PnPottsInstance.from_checked(
            self.unaries[rows], self.cliques, self.gamma[keep],
            self.gamma_max[keep], self.component_labels[components])

    def check_labeling(self, labeling):
        """labeling as an index array, checked (model.check_labeling) and
        each component's labels below its own label count, else
        InvalidInputError."""
        labeling = check_labeling(labeling, self.unaries)
        if self._padded and labeling.size and np.any(
                labeling.reshape(self.num_components, -1).max(axis=1)
                >= self.component_labels):
            raise InvalidInputError("label index out of its component's "
                                    "range")
        return labeling

    def clique_gamma(self, labeling):
        """Per clique of every copy: gamma of its label if uniformly
        labeled, else gamma_max."""
        members = self._slot[:self._slot.size // 2]
        uniform, low = uniform_label(labeling[members], self._offsets)
        return np.where(uniform, self.gamma[self._rows, low], self.gamma_max)

    def evaluate(self, labeling, clique_gamma=None):
        """Energy of the labeling: a float, or for an instance of several
        components an array of each component's energy.  clique_gamma is
        its clique_gamma, if the caller has it.

        A component's energy is its unaries summed (np.sum) plus its
        clique costs added one by one in clique order, so it does not
        depend on the other components.
        """
        labeling = self.check_labeling(labeling)
        if clique_gamma is None:
            clique_gamma = self.clique_gamma(labeling)
        m = self.num_components
        terms = np.empty((m, 1 + len(self.cliques)))
        terms[:, 0] = self.unaries[np.arange(self.num_variables),
                                   labeling].reshape(m, -1).sum(axis=1)
        terms[:, 1:] = self.cliques.weights * clique_gamma.reshape(m, -1)
        energy = terms.cumsum(axis=1)[:, -1]
        return float(energy[0]) if m == 1 else energy


def best_expansion_move(instance, current, alpha, clique_gamma=None):
    """Exact minimum over the move space {keep current label, switch to alpha}.

    clique_gamma is instance.clique_gamma(current), if the caller has it.
    The move covers every component of the instance (see
    PnPottsInstance), so alpha must be among every component's labels;
    alpha_expansion moves the instance of the components it lets alpha
    through (PnPottsInstance.select).

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
    current = instance.check_labeling(current)
    if not 0 <= alpha < instance.component_labels.min():
        raise InvalidInputError("alpha out of range of a component")
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
    picks the least keep-set among the optimal moves.  The network is
    made at its final size: a node per free mover, then per gadget its
    keep hub and its switch hub, those it needs.
    """
    n, m = instance.num_variables, instance.num_components
    weights = instance.cliques.weights
    count = m * weights.size                # cliques over every copy
    # every copy's clique entries, and the clique of each (see _set)
    members = instance._slot[:instance._slot.size // 2]
    owner = instance._paid[:members.size]
    if clique_gamma is None:
        clique_gamma = instance.clique_gamma(current)
    # pay[c] is clique c's pay_keep, what it pays unless every mover keeps
    # its label, and pay[count + c] its pay_switch
    pay = np.empty((2, m, weights.size))
    np.multiply(weights, (instance.gamma_max - clique_gamma).reshape(m, -1),
                out=pay[0])
    np.multiply(weights, (instance.gamma_max
                          - instance.gamma[:, alpha]).reshape(m, -1),
                out=pay[1])
    pay = pay.reshape(-1)
    # sums[i] is variable i's sum_keep and sums[n + i] its sum_switch
    sums = np.bincount(instance._slot, pay[instance._paid], 2 * n)

    keep_cost = instance.unaries[np.arange(n), current]
    switch_cost = instance.unaries[:, alpha]
    gap = keep_cost - switch_cost
    margin = np.maximum(FLOW_TOL, 2.0 ** -40 * (
        np.abs(keep_cost) + np.abs(switch_cost) + sums[:n] + sums[n:]))
    # forced[i]: mover i switches (us + sum_keep < uk - margin); forced[n +
    # i]: it keeps (uk + sum_switch < us - margin).  A variable holding
    # alpha has a gap of 0, so it is never forced
    below = np.concatenate((gap - margin, -gap - margin))
    forced = _fix_forced(instance._slot, instance._paid, pay, sums, below)
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
    gadgets = (active & (num_movers > 2)).nonzero()[0]
    hubs = int(np.count_nonzero(pay_keep[gadgets] > 0)
               + np.count_nonzero(pay_switch[gadgets] > 0))
    net = FlowNetwork(free.size + hubs)

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
    from_source = switch_cost - base
    to_sink = keep_cost - base
    pair = num_movers[small] == 2
    pair_cap = (pay_keep[small] + pay_switch[small])[pair]
    # more than all finite capacities together, so no gadget arc limits a
    # path: it never saturates and is never a path's bottleneck
    inf = float(from_source.sum() + to_sink.sum() + pair_cap.sum()
                + (pay_keep[gadgets] + pay_switch[gadgets]).sum() + 1.0)
    from_source, to_sink = from_source.tolist(), to_sink.tolist()
    for i in (keep_cost != switch_cost).nonzero()[0].tolist():
        net.add_terminal_arc(i, from_source[i], to_sink[i])
    for i, j, cap in zip(first[pair].tolist(), last[pair].tolist(),
                         pair_cap.tolist()):
        net.add_arc(i, j, cap)

    movers = movers.tolist()
    starts, ends = starts.tolist(), ends.tolist()
    pay_keep, pay_switch = pay_keep.tolist(), pay_switch.tolist()
    hub = itertools.count(free.size)      # the hubs' nodes, in order
    for c in gadgets.tolist():
        clique_movers = movers[starts[c]:ends[c]]
        if pay_keep[c] > 0:
            b = next(hub)                 # charged unless all movers keep
            net.add_terminal_arc(b, pay_keep[c], 0.0)
            for i in clique_movers:
                net.add_arc(b, i, inf)
        if pay_switch[c] > 0:
            a = next(hub)                 # charged unless all movers switch
            net.add_terminal_arc(a, 0.0, pay_switch[c])
            for i in clique_movers:
                net.add_arc(i, a, inf)
    return net, free, switch


def _fix_forced(slot, paid, pay, sums, below):
    """The forced movers of a move, fixed to a fixpoint (see
    _move_network): the mask sums < below once no pass drops a term.

    Entry k adds pay[paid[k]] to sums[slot[k]].  A term that drops out
    has its pay zeroed in place, and each pass that drops one keeps only
    the entries still paying for the next.  A dropped entry only ever
    adds a zero, so the sums are bit for bit those over every entry.
    """
    while True:
        forced = sums < below
        # a clique with a member forced to switch pays pay_keep in every
        # move, and one with a member forced to keep pays pay_switch
        fixed = paid[forced[slot].nonzero()[0]]
        if not np.count_nonzero(pay[fixed]):
            return forced
        pay[fixed] = 0.0
        paying = pay[paid].nonzero()[0]
        slot, paid = slot[paying], paid[paying]
        sums = np.bincount(slot, pay[paid], sums.size)


@dataclass
class MoveTrace:
    """Accepted moves in sweep order: (sweep index, alpha, energy after),
    one entry per accepting component, with that component's energy.
    sweeps counts each component's sweeps."""
    moves: list = field(default_factory=list)
    sweeps: int = 0


def alpha_expansion(instance):
    """Sweep alpha over labels in ascending order, from the all-zero
    labeling, until no move improves.

    Returns the local-minimum labeling and the trace of accepted moves.
    A move is accepted only if it lowers the energy by more than
    ACCEPT_TOL, which rules out floating-point cycling.

    A move is only cut when its outcome is unknown.  Alpha is skipped
    when every variable already holds it, and when the labeling has not
    changed since alpha was last tried: the move is deterministic, so it
    would be rejected again.  After an accepted alpha move the alpha move
    from the result is known to fail too, since its move space lies inside
    the one the result was optimal in.  With two labels, the first move
    that can be accepted is the one from the all-zero labeling, which
    spans every labeling, so once it is accepted no move can improve.
    The skipped cuts are exactly the ones a plain sweep would reject, so
    the labeling and the trace are those of a plain sweep.

    An instance of several components (see PnPottsInstance) is swept as
    if each component were swept alone.  Each keeps its own energy,
    sweeps and labels left to try since its last accepted move, and
    applies the skip rules above with its own label count; its last
    sweep is the first in which it accepts no move.  One alpha move
    covers every component whose rules let alpha through.  It is made,
    and its clique costs and energies are computed, on the instance of
    those components alone (PnPottsInstance.select), and each of them
    accepts or rejects its part on its own energy and is written back.
    No clique spans two components, so the least minimum cut of their
    union is the union of their least minimum cuts: each component gets
    the move it would get alone.
    """
    labeling = np.zeros(instance.num_variables, dtype=np.intp)
    m = instance.num_components
    size = instance.num_variables // m             # variables per component
    width = len(instance.cliques)                  # cliques per component
    labels = instance.component_labels
    # each labeling's clique costs are computed once, for its energy and
    # every move from it.  Accepted parts are written in place, so parts
    # and part_gamma stay each component's rows of the two
    gamma = instance.clique_gamma(labeling)
    energy = np.atleast_1d(instance.evaluate(labeling, gamma))
    parts = labeling.reshape(m, size)
    part_gamma = gamma.reshape(m, width)
    trace = MoveTrace()
    # pending[j, alpha]: component j has not tried alpha since its last
    # accepted move.  A component that accepts nothing in a sweep tries
    # every label in it, so it has none pending from then on
    allowed = np.arange(instance.num_labels) < labels[:, None]
    pending = allowed.copy()
    sweeping = np.ones(m, dtype=bool)   # it accepted a move in the last sweep
    sweep = 0

    while sweeping.any():
        sweep += 1
        trace.sweeps += int(np.count_nonzero(sweeping))
        improved = np.zeros(m, dtype=bool)
        for alpha in range(instance.num_labels):
            go = pending[:, alpha].copy()
            if not go.any():
                continue
            pending[:, alpha] = False
            go &= (parts != alpha).any(axis=1)
            if not go.any():
                continue
            moving = instance.select(go)
            current = parts[go].reshape(-1)
            proposal = best_expansion_move(moving, current, alpha,
                                           part_gamma[go].reshape(-1))
            if np.array_equal(proposal, current):
                continue
            proposal_gamma = moving.clique_gamma(proposal)
            e = np.atleast_1d(moving.evaluate(proposal, proposal_gamma))
            # the drop itself is compared: energy - ACCEPT_TOL can round to
            # e and refuse a drop just over ACCEPT_TOL
            better = energy[go] - e > ACCEPT_TOL
            if not better.any():
                continue
            moved = go.nonzero()[0][better]
            done = moved[labels[moved] == 2]    # moved from the all-zero start
            parts[moved] = proposal.reshape(e.size, size)[better]
            part_gamma[moved] = proposal_gamma.reshape(e.size, width)[better]
            energy[moved] = e[better]
            pending[moved] = allowed[moved]
            pending[:, alpha] = False
            pending[done] = False
            improved[moved] = True
            trace.moves.extend((sweep, alpha, float(energy[j]))
                               for j in moved.tolist())
        sweeping = improved
    return labeling, trace
