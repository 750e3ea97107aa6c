"""Expansion moves and the sweep solver for consistency-cost instances."""

import gc
from unittest import mock

import numpy as np
import pytest

import reference
from conftest import pn_instance, random_pn_instance, random_pn_potts_model
from parsilab import expansion
from parsilab.expansion import (PnPottsInstance, alpha_expansion,
                                best_expansion_move)
from parsilab.maxflow import FLOW_TOL, FlowNetwork
from parsilab.model import (Cliques, DiameterDiversity, EnergyModel,
                            InvalidInputError, LabelMetric, PnPottsSpec)
from parsilab.oracle import exhaustive_minimize, model_to_pn_potts_instance
from parsilab.solver import pn_potts_bound
from reference import exhaustive_expansion_move


def _hand_instance():
    unaries = np.array([[0.0, 2.0], [3.0, 0.5], [1.0, 1.0]])
    clique = ([0, 1, 2], [0.5, 1.0], 4.0, 1.5)
    return pn_instance(unaries, [clique])


def test_move_identity_when_all_alpha():
    inst = _hand_instance()
    current = np.array([1, 1, 1])
    move = best_expansion_move(inst, current, 1)
    np.testing.assert_array_equal(move, current)


def test_move_matches_hand_enumeration():
    inst = _hand_instance()
    current = np.array([0, 1, 0])
    move = best_expansion_move(inst, current, 1)
    oracle = exhaustive_expansion_move(inst, current, 1)
    assert abs(inst.evaluate(move) - inst.evaluate(oracle)) <= 1e-9


def test_move_matches_oracle_on_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(200):
        inst = random_pn_instance(rng)
        current = rng.integers(0, inst.num_labels, size=inst.num_variables)
        alpha = int(rng.integers(0, inst.num_labels))
        move = best_expansion_move(inst, current, alpha)
        oracle = exhaustive_expansion_move(inst, current, alpha)
        assert abs(inst.evaluate(move) - inst.evaluate(oracle)) <= 1e-9
        # the move never relabels a variable that already holds alpha
        keep = np.asarray(current) == alpha
        np.testing.assert_array_equal(move[keep], np.asarray(current)[keep])


def _move_network_shape(inst, current, alpha):
    """(nodes, add_arc calls, add_terminal_arc arguments) of one move's
    network; the move itself must match the reference build, which fixes
    no mover and gives every clique a gadget."""
    with mock.patch.object(FlowNetwork, "add_arc", autospec=True,
                           side_effect=FlowNetwork.add_arc) as arc, \
            mock.patch.object(FlowNetwork, "add_terminal_arc", autospec=True,
                              side_effect=FlowNetwork.add_terminal_arc) as term:
        net, _, _ = expansion._move_network(inst, np.asarray(current), alpha)
    np.testing.assert_array_equal(
        best_expansion_move(inst, current, alpha),
        reference.best_expansion_move(inst, current, alpha))
    return (net.num_nodes, arc.call_count,
            [c.args[1:] for c in term.call_args_list])


def test_two_mover_cliques_become_one_arc_each():
    n = 6
    unaries = np.tile([0.0, 0.4], (n, 1))
    unaries[::2] = [0.4, 0.0]
    chain = [([i, i + 1], [0.5, 1.0], 2.0, 1.0) for i in range(n - 1)]
    inst = pn_instance(unaries, chain)
    assert _move_network_shape(inst, [0] * n, 1)[:2] == (n, n - 1)


def test_one_mover_clique_adds_only_terminal_capacity():
    inst = pn_instance(np.zeros((3, 2)), [([0, 1, 2], [0.5, 1.0], 2.0, 1.0)])
    # the clique is mixed, so its one mover, variable 1, pays nothing to
    # switch and gamma_max - gamma[alpha] = 1 to keep; it is node 0, the
    # only node, since the other variables already hold alpha
    assert _move_network_shape(inst, [1, 0, 1], 1) == (1, 0, [(0, 0.0, 1.0)])


def test_three_mover_clique_keeps_its_gadget():
    inst = pn_instance(np.zeros((4, 2)), [([0, 1, 2], [0.5, 1.0], 2.0, 1.0)])
    # two auxiliary nodes, each tied to the three movers by an arc
    assert _move_network_shape(inst, [0, 0, 0, 0], 1)[:2] == (4 + 2, 6)


def _chain_instance(unaries):
    """Three variables, two labels and one clique over all of them: from
    all 0 towards label 1 it pays pay_keep = 2 - 0.5 = 1.5 unless every
    mover keeps and pay_switch = 2 - 1 = 1 unless every mover switches."""
    return pn_instance(unaries, [([0, 1, 2], [0.5, 1.0], 2.0, 1.0)])


def test_mover_whose_unary_gap_beats_its_clique_bound_gets_no_node():
    # variable 0 gains 5 by switching and the clique can cost it at most
    # pay_keep = 1.5, so it switches; variable 2 loses 5 by switching and
    # the clique can save it at most pay_switch = 1, so it keeps.  One pass
    # fixes only those two
    inst = _chain_instance([[5.0, 0.0], [0.0, 0.25], [0.0, 5.0]])
    current = np.zeros(3, np.intp)
    switch, keep = reference.forced_movers(inst, current, 1)
    np.testing.assert_array_equal(switch, [True, False, False])
    np.testing.assert_array_equal(keep, [False, False, True])
    # the clique then pays both in every move and drops out, so the next
    # pass fixes variable 1 by its unaries alone: it keeps, 0.25 cheaper.
    # No mover is left free, and the move gets no network
    net, free, switch = expansion._move_network(inst, current, 1)
    assert net is None
    np.testing.assert_array_equal(free, [])
    np.testing.assert_array_equal(switch, [True, False, False])
    with mock.patch.object(FlowNetwork, "compute_max_flow") as flow:
        move = best_expansion_move(inst, current, 1)
    assert flow.call_count == 0
    np.testing.assert_array_equal(move, [1, 0, 0])
    np.testing.assert_array_equal(
        move, reference.best_expansion_move(inst, current, 1))


@pytest.mark.parametrize("gap", [0.0, FLOW_TOL / 2])
def test_mover_on_a_tie_stays_free(gap):
    # keeping variable 2 costs at most 0 + pay_switch = 1, its switch cost
    # less the gap.  On an exact tie some optimal moves may switch it, and
    # a gap below FLOW_TOL is one the flow reads as zero, so only variable
    # 0 is fixed
    inst = _chain_instance([[5.0, 0.0], [0.0, 0.25], [0.0, 1.0 + gap]])
    _, free, switch = expansion._move_network(inst, np.zeros(3, np.intp), 1)
    np.testing.assert_array_equal(free, [1, 2])
    np.testing.assert_array_equal(switch, [True, False, False])
    np.testing.assert_array_equal(
        best_expansion_move(inst, [0, 0, 0], 1),
        reference.best_expansion_move(inst, [0, 0, 0], 1))


@pytest.mark.parametrize("current,expected", [
    ([1, 1, 1], [1, 1, 1]),            # every variable holds alpha
    ([0, 0, 0], [1, 0, 0]),            # every mover is forced
    ([0, 1, 0], [1, 1, 0]),            # forced movers beside an alpha
])
def test_move_without_free_movers_is_not_cut(current, expected):
    """The move is current with the forced switches applied, read without
    a flow."""
    # variable 0 gains 5 by switching, 1 and 2 lose 5, and the clique can
    # change that by at most 1.5
    inst = _chain_instance([[5.0, 0.0], [0.0, 5.0], [0.0, 5.0]])
    with mock.patch.object(FlowNetwork, "compute_max_flow") as flow:
        move = best_expansion_move(inst, np.array(current), 1)
    assert flow.call_count == 0
    np.testing.assert_array_equal(move, expected)
    np.testing.assert_array_equal(
        move, reference.best_expansion_move(inst, current, 1))


def _fixed_movers(inst, current, alpha):
    _, free, switch = expansion._move_network(inst, current, alpha)
    fixed = current != alpha
    fixed[free] = False
    return fixed, switch


def test_fixed_movers_do_not_depend_on_the_cost_scale():
    """Every cost is a multiple of 100, so a mover's gap is 0 or at least
    100: scaled down by 3 * 10**12 it still clears the margin's floor, the
    flow's absolute FLOW_TOL of 1e-11, below which a gap stays free at
    every scale.  Above the floor the margin scales with the costs, so the
    rounding of a scaled tie never reads as a gap.  The fixpoint fixes
    the same movers at every scale as at scale 1."""
    rng = np.random.default_rng(12)
    n, h = 40, 3
    # a small grid, on which 7 of the 80 movers of the three moves tie
    unaries = 100.0 * rng.integers(0, 10, size=(n, h))
    cliques = [(rng.choice(n, size=int(rng.integers(1, 5)), replace=False),
                100.0 * rng.integers(0, 3, size=h), 300.0,
                float(rng.integers(0, 3))) for _ in range(30)]
    current = rng.integers(0, h, size=n)

    def fixed_movers(s):
        inst = pn_instance(unaries * s, [(m, g * s, gm * s, w)
                                         for m, g, gm, w in cliques])
        return inst, [_fixed_movers(inst, current, alpha)
                      for alpha in range(h)]

    inst, at_one = fixed_movers(1.0)
    fixed, _ = zip(*at_one)
    one_pass = [np.logical_or(*reference.forced_movers(inst, current, alpha))
                for alpha in range(h)]
    # the fixpoint fixes more than one pass, which fixes some but not all
    assert (0 < sum(f.sum() for f in one_pass) < sum(f.sum() for f in fixed)
            < sum((current != a).sum() for a in range(h)))
    for s in [10.0 ** k for k in range(-12, 13)] + [10.0 ** k / 3
                                                   for k in range(-12, 13)]:
        for (f, sw), (f0, sw0) in zip(fixed_movers(s)[1], at_one):
            np.testing.assert_array_equal(f, f0)
            np.testing.assert_array_equal(sw, sw0)


@pytest.fixture
def collector():
    """Puts the collector state back as it was before the test."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_move_pauses_the_collector_and_restores_it(collector, enabled):
    (gc.enable if enabled else gc.disable)()
    during = []
    flow = FlowNetwork.compute_max_flow

    def solve(net):
        during.append(gc.isenabled())
        return flow(net)

    with mock.patch.object(FlowNetwork, "compute_max_flow", autospec=True,
                           side_effect=solve):
        move = best_expansion_move(_hand_instance(), np.array([0, 1, 0]), 1)
    assert during == [False]
    assert gc.isenabled() == enabled
    np.testing.assert_array_equal(
        move, reference.best_expansion_move(_hand_instance(), [0, 1, 0], 1))


def test_move_restores_the_collector_when_the_flow_raises(collector):
    gc.enable()
    with mock.patch.object(FlowNetwork, "compute_max_flow",
                           side_effect=RuntimeError("flow failed")):
        with pytest.raises(RuntimeError, match="flow failed"):
            best_expansion_move(_hand_instance(), np.array([0, 1, 0]), 1)
    assert gc.isenabled()


def test_alpha_out_of_range():
    inst = _hand_instance()
    with pytest.raises(InvalidInputError):
        best_expansion_move(inst, np.array([0, 0, 0]), 5)


@pytest.mark.parametrize("labeling", [[-1, -1], [2, 0]])
def test_labels_out_of_range_are_rejected(labeling):
    inst = pn_instance([[0.0, 1.0], [1.0, 0.0]], [([0, 1], [0.5, 1.0], 2.0, 1.0)])
    with pytest.raises(InvalidInputError):
        inst.evaluate(labeling)
    with pytest.raises(InvalidInputError):
        best_expansion_move(inst, labeling, 1)


@pytest.mark.parametrize("members,labels", [
    ([[0, 1]], [2, 2, 2]),              # 3 components over 4 variables
    ([[1, 2]], [2, 2]),                 # the clique leaves its component
    ([[0, 1]], [2, 3]),                 # more labels than the instance
    ([[0, 1]], [2, 0]),                 # a component without labels
    ([[0, 1]], []),                     # no component
])
def test_components_must_split_the_instance(members, labels):
    """The cliques are one component's, over its share of the variables,
    and gamma_max has an entry per copy of each."""
    cliques = Cliques.from_lists(members, [1.0])
    with pytest.raises(InvalidInputError, match="components must split"
                                                "|clique member out of range"):
        PnPottsInstance(np.zeros((4, 2)), cliques, [0.0, 0.0],
                        np.ones(len(labels)), labels)


def _padded_batch():
    """Two components of two variables, each with the clique {0, 1} of
    its own, with 2 and 3 labels; component 0's pad label 2 costs 0 like
    the others, and component 1 prefers label 2."""
    cliques = Cliques.from_lists([[0, 1]], [1.0])
    unaries = [[0.0, 0.0, 0.0]] * 2 + [[1.0, 1.0, 0.0]] * 2
    return PnPottsInstance(unaries, cliques, [0.5, 0.5, 0.5], [1.0, 1.0],
                           [2, 3])


@pytest.mark.parametrize("labeling", [[2, 2, 0, 0], [0, 2, 1, 1]])
def test_labels_outside_a_components_range_are_refused(labeling):
    """A component's labeling is checked against its own label count, not
    only the instance's."""
    inst = _padded_batch()
    with pytest.raises(InvalidInputError, match="component"):
        inst.evaluate(labeling)
    with pytest.raises(InvalidInputError, match="component"):
        best_expansion_move(inst, labeling, 1)


def test_move_covers_only_the_components_that_have_alpha():
    """A move covers every component of its instance; alpha_expansion
    moves the instance of the components that have alpha among their
    labels, and the others keep theirs."""
    inst = _padded_batch()
    current = np.zeros(4, dtype=np.intp)
    components = 2 < inst.component_labels
    np.testing.assert_array_equal(
        best_expansion_move(inst.select(components), current[2:], 2),
        [2, 2])
    np.testing.assert_array_equal(
        reference.masked_move(inst, current, 2, components)[0],
        [0, 0, 2, 2])
    labeling, _ = alpha_expansion(inst)
    np.testing.assert_array_equal(labeling, [0, 0, 2, 2])


@pytest.mark.parametrize("alpha", [2, -1, 3])
def test_alpha_outside_a_components_labels_is_refused(alpha):
    """A move covers every component, so an alpha outside any one
    component's labels is refused rather than moved around."""
    inst = _padded_batch()
    with pytest.raises(InvalidInputError, match="alpha out of range"):
        best_expansion_move(inst, np.zeros(4, dtype=np.intp), alpha)


def test_instance_takes_the_model_cliques_as_they_are():
    """The converted instance holds the model's Cliques object itself, and
    its members are checked against the instance's variable count."""
    model = random_pn_potts_model(np.random.default_rng(3))
    inst = model_to_pn_potts_instance(model)
    assert inst.cliques is model.cliques
    with pytest.raises(InvalidInputError, match="out of range"):
        PnPottsInstance(model.unaries[:1], model.cliques, model.potential.gamma,
                        np.full(len(model.cliques), model.potential.gamma_max))
    with pytest.raises(InvalidInputError, match="gamma_max"):
        PnPottsInstance(model.unaries, model.cliques, model.potential.gamma,
                        [model.potential.gamma_max])


def test_gamma_max_must_dominate():
    with pytest.raises(InvalidInputError):
        pn_instance(np.zeros((2, 2)), [([0, 1], [2.0, 1.0], 2.0, 1.0)])
    # unweighted cliques are exempt (they never contribute)
    pn_instance(np.zeros((2, 2)), [([0, 1], [2.0, 1.0], 2.0, 0.0)])


def test_sweep_zero_weights_gives_unary_argmin():
    rng = np.random.default_rng(7)
    unaries = rng.uniform(0, 5, size=(6, 3))
    clique = ([0, 1, 2], [0.0, 0.0, 0.0], 1.0, 0.0)
    labeling, _ = alpha_expansion(pn_instance(unaries, [clique]))
    np.testing.assert_array_equal(labeling, unaries.argmin(axis=1))


def test_sweep_huge_weight_forces_single_label():
    rng = np.random.default_rng(8)
    unaries = rng.uniform(0, 5, size=(4, 3))
    clique = ([0, 1, 2, 3], [0.0, 0.0, 0.0], 1.0, 1000.0)
    labeling, _ = alpha_expansion(pn_instance(unaries, [clique]))
    assert len(set(labeling.tolist())) == 1
    best_uniform = min(unaries[:, k].sum() for k in range(3))
    assert abs(unaries[np.arange(4), labeling].sum() - best_uniform) <= 1e-9


def test_sweep_satisfies_multiplicative_bound():
    rng = np.random.default_rng(9)
    for _ in range(60):
        model = random_pn_potts_model(rng, n_max=6, h_max=3)
        inst = model_to_pn_potts_instance(model)
        labeling, trace = alpha_expansion(inst)
        opt = exhaustive_minimize(model)
        bound = pn_potts_bound(model)
        limit = opt.unary_term + bound * opt.clique_term
        assert inst.evaluate(labeling) <= limit + 1e-9
        # accepted moves strictly decrease the energy
        energies = [inst.evaluate(np.zeros(inst.num_variables, np.intp))] \
            + [e for _, _, e in trace.moves]
        assert all(b < a for a, b in zip(energies, energies[1:]))


def _pn_model(num_variables, cliques, gamma, gamma_max):
    """A consistency-cost model with zero unaries; cliques are (members,
    weight) pairs."""
    members, weights = zip(*cliques) if cliques else ((), ())
    return EnergyModel(np.zeros((num_variables, len(gamma))),
                       Cliques.from_lists(members, weights),
                       PnPottsSpec(gamma, gamma_max))


def test_bound_formula():
    assert pn_potts_bound(_pn_model(4, [([0, 1, 2], 1.0)], [2.0] * 5,
                                    6.0)) == 9.0


def test_bound_clique_size_factor():
    # min(M, H) = 2, lambda = 3; M counts only the weighted cliques
    assert pn_potts_bound(_pn_model(4, [([0, 1], 1.0), ([0, 1, 2, 3], 0.0)],
                                    [1.0] * 20, 3.0)) == 6.0


def test_bound_is_infinite_when_some_gamma_is_zero():
    # lambda = gamma_max / gamma_min has no finite value; a finite stand-in
    # would depend on the scale of the costs
    assert pn_potts_bound(_pn_model(2, [([0, 1], 1.0)], [0.0, 1.0],
                                    3.0)) == np.inf


def test_bound_without_weighted_cliques():
    assert pn_potts_bound(_pn_model(2, [], [0.5, 0.5], 1.0)) == 1.0
    # a zero gamma promises nothing only where a clique costs something
    assert pn_potts_bound(_pn_model(2, [([0, 1], 0.0)], [0.0, 0.5],
                                    1.0)) == 1.0


def test_bound_refuses_other_potentials():
    model = EnergyModel(np.zeros((2, 2)), Cliques.from_lists([], []),
                        DiameterDiversity(LabelMetric.truncated_linear(
                            2, 1.0, 1)))
    with pytest.raises(InvalidInputError, match="not a consistency cost"):
        pn_potts_bound(model)
