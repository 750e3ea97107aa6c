"""Expansion moves and the sweep solver for consistency-cost instances."""

import gc
from unittest import mock

import numpy as np
import pytest

import reference
from conftest import pn_instance, random_pn_instance, random_pn_potts_model
from parsilab import expansion
from parsilab.expansion import (PnPottsInstance, alpha_expansion,
                                best_expansion_move, pn_potts_bound)
from parsilab.maxflow import FlowNetwork
from parsilab.model import InvalidInputError
from parsilab.oracle import exhaustive_minimize, model_to_pn_potts_instance
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
    network; the move itself must match the reference build, which gives
    every clique a gadget."""
    with mock.patch.object(FlowNetwork, "add_arc", autospec=True,
                           side_effect=FlowNetwork.add_arc) as arc, \
            mock.patch.object(FlowNetwork, "add_terminal_arc", autospec=True,
                              side_effect=FlowNetwork.add_terminal_arc) as term:
        net = expansion._move_network(inst, np.asarray(current), alpha)
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
    # switch and gamma_max - gamma[alpha] = 1 to keep
    assert _move_network_shape(inst, [1, 0, 1], 1) == (3, 0, [(1, 0.0, 1.0)])


def test_three_mover_clique_keeps_its_gadget():
    inst = pn_instance(np.zeros((4, 2)), [([0, 1, 2], [0.5, 1.0], 2.0, 1.0)])
    # two auxiliary nodes, each tied to the three movers by an arc
    assert _move_network_shape(inst, [0, 0, 0, 0], 1)[:2] == (4 + 2, 6)


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
    with pytest.raises(InvalidInputError):
        alpha_expansion(inst, init=labeling)


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
        bound = pn_potts_bound(inst)
        limit = opt.unary_term + bound * opt.clique_term
        assert inst.evaluate(labeling) <= limit + 1e-9
        # accepted moves strictly decrease the energy
        energies = [inst.evaluate(np.zeros(inst.num_variables, np.intp))] \
            + [e for _, _, e in trace.moves]
        assert all(b < a for a, b in zip(energies, energies[1:]))


def test_bound_formula():
    unaries = np.zeros((4, 5))
    clique = ([0, 1, 2], [2.0] * 5, 6.0, 1.0)
    assert pn_potts_bound(pn_instance(unaries, [clique])) == 9.0


def test_bound_clique_size_factor():
    unaries = np.zeros((4, 20))
    clique = ([0, 1], [1.0] * 20, 3.0, 1.0)
    # min(M, H) = 2, lambda = 3
    assert pn_potts_bound(pn_instance(unaries, [clique])) == 6.0


def test_bound_is_infinite_when_some_gamma_is_zero():
    # lambda = gamma_max / gamma_min has no finite value; a finite stand-in
    # would depend on the scale of the costs
    unaries = np.zeros((2, 2))
    clique = ([0, 1], [0.0, 1.0], 3.0, 1.0)
    assert pn_potts_bound(pn_instance(unaries, [clique])) == np.inf


def test_bound_without_weighted_cliques():
    assert pn_potts_bound(pn_instance(np.zeros((2, 2)), [])) == 1.0
