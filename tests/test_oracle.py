"""Brute-force reference solvers."""

import numpy as np
import pytest

from conftest import pn_instance, random_pn_instance
from parsilab.expansion import best_expansion_move
from parsilab.model import (Cliques, EnergyModel, ExplicitTableDiversity,
                            PnPottsSpec)
from parsilab.oracle import SizeError, exhaustive_minimize
from reference import exhaustive_expansion_move


def test_unary_only_minimum():
    rng = np.random.default_rng(0)
    unaries = rng.uniform(0, 5, size=(5, 3))
    model = EnergyModel(unaries, Cliques.from_lists([], []),
                        PnPottsSpec([0, 0, 0], 1.0))
    result = exhaustive_minimize(model)
    np.testing.assert_array_equal(result.labeling, unaries.argmin(axis=1))
    assert result.clique_term == 0.0


def test_two_variable_hand_enumeration():
    unaries = np.array([[1.0, 4.0], [3.0, 0.0]])
    div = ExplicitTableDiversity.from_entries(
        2, [([0], 0.0), ([1], 0.0), ([0, 1], 5.0)])
    model = EnergyModel(unaries, Cliques.from_lists([[0, 1]], [1.0]),
                        div)
    # energies: [0,0] -> 4, [0,1] -> 6, [1,0] -> 12, [1,1] -> 4; ties break
    # toward the lexicographically first labeling
    result = exhaustive_minimize(model)
    assert result.energy == 4.0
    np.testing.assert_array_equal(result.labeling, [0, 0])


def test_minimum_beats_sampled_labelings():
    rng = np.random.default_rng(1)
    unaries = rng.uniform(0, 5, size=(6, 3))
    div = ExplicitTableDiversity.from_entries(
        3, [([0], 0.0), ([1], 0.0), ([2], 0.0), ([0, 1], 2.0), ([0, 2], 3.0),
            ([1, 2], 2.5), ([0, 1, 2], 4.0)])
    model = EnergyModel(unaries,
                        Cliques.from_lists([[0, 2, 4], [1, 3]], [1.3, 0.7]),
                        div)
    result = exhaustive_minimize(model)
    for _ in range(1000):
        lab = rng.integers(0, 3, size=6)
        assert result.energy <= model.evaluate_energy(lab) + 1e-12


def test_minimize_size_guard():
    model = EnergyModel(np.zeros((30, 4)), Cliques.from_lists([], []),
                        PnPottsSpec([0] * 4, 1.0))
    with pytest.raises(SizeError):
        exhaustive_minimize(model)


def test_move_single_variable():
    inst = pn_instance(np.array([[2.0, 1.0]]), [])
    move = exhaustive_expansion_move(inst, np.array([0]), 1)
    np.testing.assert_array_equal(move, [1])


def test_move_keeps_optimal_current():
    inst = pn_instance(np.array([[0.0, 9.0], [0.0, 9.0]]), [])
    current = np.array([0, 0])
    move = exhaustive_expansion_move(inst, current, 1)
    np.testing.assert_array_equal(move, current)


def test_move_agrees_with_cut_solver():
    rng = np.random.default_rng(2)
    for _ in range(50):
        inst = random_pn_instance(rng, n_max=10)
        current = rng.integers(0, inst.num_labels, size=inst.num_variables)
        alpha = int(rng.integers(0, inst.num_labels))
        oracle = exhaustive_expansion_move(inst, current, alpha)
        cut = best_expansion_move(inst, current, alpha)
        assert abs(inst.evaluate(oracle) - inst.evaluate(cut)) <= 1e-9


def test_move_size_guard():
    inst = pn_instance(np.zeros((25, 2)), [])
    with pytest.raises(SizeError):
        exhaustive_expansion_move(inst, np.zeros(25, dtype=np.intp), 1)
