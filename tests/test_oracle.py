"""Brute-force reference solvers."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from conftest import (pn_instance, random_cliques, random_diversity_model,
                      random_pn_instance, random_pn_potts_model)
from parsilab import oracle
from parsilab.expansion import best_expansion_move
from parsilab.model import (Cliques, DiameterDiversity, EnergyModel,
                            ExplicitTableDiversity, LabelMetric, PnPottsSpec)
from parsilab.oracle import MAX_LABELINGS, SizeError, exhaustive_minimize
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


def test_minimum_values_each_label_set_it_meets_once():
    """Only the label sets that the labelings give a clique are valued,
    each once through the potential's value, also when two cliques meet
    it; the clique term of every labeling is its energy less its unaries,
    which the oracle checks on the minimum."""
    rng = np.random.default_rng(3)
    unaries = rng.uniform(0, 5, size=(2, 24))
    potential = DiameterDiversity(LabelMetric.truncated_linear(24, 1.0, 5))
    model = EnergyModel(unaries,
                        Cliques.from_lists([[0, 1], [1], [0, 1]],
                                           [0.5, 2.0, 1.5]), potential)
    with mock.patch.object(DiameterDiversity, "value", autospec=True,
                           side_effect=DiameterDiversity.value) as value:
        result = exhaustive_minimize(model)
    sets = [call.args[1] for call in value.call_args_list]
    assert len(sets) == len(set(sets))
    assert set(sets) == {tuple(sorted({a, b})) for a in range(24)
                         for b in range(24)}
    assert result.energy == model.evaluate_energy(result.labeling)


def test_minimize_refuses_more_than_64_labels():
    """A label set is keyed as a 64-bit mask."""
    model = EnergyModel(np.zeros((1, 65)), Cliques.from_lists([[0]], [1.0]),
                        PnPottsSpec([0] * 65, 1.0))
    with pytest.raises(SizeError, match="at most 64"):
        exhaustive_minimize(model)


def _tied_model(rng, n_max):
    """Integer costs under a truncated linear diameter: many labelings
    share the least energy."""
    n = int(rng.integers(2, n_max + 1))
    h = int(rng.integers(1, 5))
    return EnergyModel(
        rng.integers(0, 2, size=(n, h)).astype(float),
        random_cliques(n, rng),
        DiameterDiversity(LabelMetric.truncated_linear(h, 1.0, 2)))


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_blocks_of_any_size_give_the_one_block_result(block):
    """The labelings are enumerated in lexicographic blocks and the first
    block's first minimum is kept, so every block size gives the result
    of one block that holds every labeling, ties included: with all costs
    0, every block ties, and the answer is labeling 0."""
    rng = np.random.default_rng(block)
    zero = EnergyModel(np.zeros((4, 3)),
                       Cliques.from_lists([[0, 1, 2], [2, 3]], [0.0, 0.0]),
                       DiameterDiversity(LabelMetric.truncated_linear(
                           3, 1.0, 2)))
    models = [zero] + [make(rng, n_max=5) for make in (
        random_diversity_model, random_pn_potts_model, _tied_model)
        for _ in range(10)]
    for model in models:
        with mock.patch.object(oracle, "BLOCK_LABELINGS", MAX_LABELINGS):
            whole = exhaustive_minimize(model)
        with mock.patch.object(oracle, "BLOCK_LABELINGS", block):
            blocked = exhaustive_minimize(model)
        assert blocked.labeling.tobytes() == whole.labeling.tobytes()
        assert blocked.labeling.dtype == whole.labeling.dtype
        assert (blocked.energy, blocked.unary_term, blocked.clique_term) \
            == (whole.energy, whole.unary_term, whole.clique_term)
    assert exhaustive_minimize(zero).labeling.tolist() == [0, 0, 0, 0]


def test_enumeration_takes_one_block_of_memory():
    """10^6 labelings of 6 variables in blocks of 4096 keep no table of
    every labeling (48 MB of labels alone): the peak stays within a few
    blocks' arrays."""
    rng = np.random.default_rng(5)
    model = EnergyModel(
        rng.uniform(0, 5, size=(6, 10)),
        Cliques.from_lists([[0, 1, 2], [2, 3, 4, 5]], [1.0, 0.5]),
        DiameterDiversity(LabelMetric.truncated_linear(10, 1.0, 4)))
    with mock.patch.object(oracle, "BLOCK_LABELINGS", 1 << 12):
        tracemalloc.start()
        try:
            result = exhaustive_minimize(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4 << 20
    assert result.energy == model.evaluate_energy(result.labeling)


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
