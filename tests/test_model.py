"""Energy model, metrics, diversities, axiom validation, problem files."""

import json

import numpy as np
import pytest

from conftest import random_table_diversity
from parsilab.hst import RHst
from parsilab.model import (AXIOM_TOL, Clique, DiameterDiversity,
                            DiameterMetricSpec, DiversitySpec, EnergyModel,
                            ExplicitTableDiversity, InvalidInputError,
                            LabelMetric, LabelSet, PnPottsSpec,
                            diameter_diversity, load_model, model_from_json,
                            model_to_json, save_model, unique_labels,
                            validate_diversity_axioms)


def test_label_set_basics():
    ls = LabelSet(4)
    assert len(ls) == 4
    assert list(ls) == [0, 1, 2, 3]
    assert ls == LabelSet(4)
    with pytest.raises(InvalidInputError):
        LabelSet(0)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_truncated_linear_metric():
    m = LabelMetric.truncated_linear(10, lam=1.0, truncation=5)
    assert m(2, 9) == 5.0
    assert m(2, 4) == 2.0
    assert m(3, 3) == 0.0
    assert m.check() is None


def test_metric_rejects_asymmetry():
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(InvalidInputError):
        LabelMetric(bad)


def test_metric_rejects_triangle_violation():
    bad = np.array([[0.0, 1.0, 5.0],
                    [1.0, 0.0, 1.0],
                    [5.0, 1.0, 0.0]])
    with pytest.raises(InvalidInputError):
        LabelMetric(bad)


def test_metric_rejects_zero_off_diagonal():
    bad = np.array([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InvalidInputError):
        LabelMetric(bad)


# ---------------------------------------------------------------------------
# diversities
# ---------------------------------------------------------------------------

def test_diameter_diversity_singleton_is_zero():
    m = LabelMetric.truncated_linear(10, 1.0, 5)
    assert diameter_diversity(m, {3}) == 0.0


def test_diameter_diversity_truncated_linear():
    m = LabelMetric.truncated_linear(10, 1.0, 5)
    assert diameter_diversity(m, {2, 4, 9}) == 5.0


def test_diameter_diversity_induces_same_metric():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 10, size=(5, 2))
    m = LabelMetric(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))
    induced = DiameterDiversity(m).induced_metric()
    np.testing.assert_allclose(induced.matrix, m.matrix)


def test_table_diversity_induced_metric_validity():
    rng = np.random.default_rng(1)
    div = random_table_diversity(4, rng)
    m = div.induced_metric()
    assert np.allclose(np.diag(m.matrix), 0.0)
    np.testing.assert_allclose(m.matrix, m.matrix.T)


def test_table_diversity_triangle_violation_rejected():
    # delta({0,2}) far exceeds delta({0,1}) + delta({1,2})
    entries = [([0], 0.0), ([1], 0.0), ([2], 0.0),
               ([0, 1], 1.0), ([1, 2], 1.0), ([0, 2], 10.0),
               ([0, 1, 2], 10.0)]
    div = ExplicitTableDiversity.from_entries(3, entries)
    with pytest.raises(InvalidInputError):
        div.induced_metric()


def test_table_diversity_requires_full_table():
    with pytest.raises(InvalidInputError):
        ExplicitTableDiversity.from_entries(2, [([0], 0.0), ([1], 0.0)])


def test_table_value_lookup():
    entries = [([0], 0.0), ([1], 0.0), ([0, 1], 2.5)]
    div = ExplicitTableDiversity.from_entries(2, entries)
    assert div.value({0, 1}) == 2.5
    assert div.value([1, 0, 1]) == 2.5      # duplicates collapse
    with pytest.raises(InvalidInputError):
        div.value(())


# ---------------------------------------------------------------------------
# axiom validation
# ---------------------------------------------------------------------------

def test_axioms_pass_for_diameter_diversity():
    m = LabelMetric.truncated_linear(5, 1.0, 3)
    assert validate_diversity_axioms(DiameterDiversity(m)) == []


def test_axioms_pass_for_random_table():
    rng = np.random.default_rng(7)
    assert validate_diversity_axioms(random_table_diversity(4, rng)) == []


def test_axioms_flag_positive_singleton():
    entries = [([0], 1.0), ([1], 0.0), ([0, 1], 2.0)]
    div = ExplicitTableDiversity.from_entries(2, entries)
    report = validate_diversity_axioms(div)
    assert any(w == ((0,),) for _, w in report)


def test_axioms_flag_monotonicity():
    entries = [([0], 0.0), ([1], 0.0), ([2], 0.0),
               ([0, 1], 5.0), ([1, 2], 5.0), ([0, 2], 5.0),
               ([0, 1, 2], 1.0)]
    div = ExplicitTableDiversity.from_entries(3, entries)
    report = validate_diversity_axioms(div)
    assert any(name == "monotonicity" for name, _ in report)


def test_axioms_flag_triangle():
    entries = [([0], 0.0), ([1], 0.0), ([2], 0.0),
               ([0, 1], 1.0), ([1, 2], 1.0), ([0, 2], 10.0),
               ([0, 1, 2], 10.0)]
    div = ExplicitTableDiversity.from_entries(3, entries)
    report = validate_diversity_axioms(div)
    assert any(name == "triangle" for name, _ in report)


# ---------------------------------------------------------------------------
# energy evaluation
# ---------------------------------------------------------------------------

def test_unary_only_energy():
    model = EnergyModel(np.array([[3.0, 7.0]]), [],
                        PnPottsSpec([0.0, 0.0], 1.0))
    assert model.evaluate_energy([0]) == 3.0
    assert model.evaluate_energy([1]) == 7.0


def test_clique_energy_matches_hand_summation():
    rng = np.random.default_rng(2)
    div = random_table_diversity(3, rng)
    unaries = rng.uniform(0, 10, size=(4, 3))
    clique = Clique([0, 1, 2, 3], 1.7)
    model = EnergyModel(unaries, [clique], DiversitySpec(div))
    labeling = [0, 2, 0, 1]
    by_hand = sum(unaries[i, l] for i, l in enumerate(labeling))
    by_hand += 1.7 * div.value({0, 1, 2})
    assert abs(model.evaluate_energy(labeling) - by_hand) <= 1e-9


def test_pn_potts_subset_value():
    spec = PnPottsSpec([1.0, 2.0, 0.5], 4.0)
    assert spec.subset_value((1,)) == 2.0
    assert spec.subset_value((0, 2)) == 4.0


def test_unique_labels():
    clique = Clique([0, 1, 2], 1.0)
    assert unique_labels([2, 2, 2], clique) == (2,)
    clique4 = Clique([0, 1, 2, 3], 1.0)
    assert unique_labels([0, 3, 0, 1], clique4) == (0, 1, 3)


def test_clique_must_be_nonempty_and_distinct():
    with pytest.raises(InvalidInputError):
        Clique([], 1.0)
    with pytest.raises(InvalidInputError):
        Clique([1, 1], 1.0)
    with pytest.raises(InvalidInputError):
        Clique([0, 1], -1.0)


def test_check_labeling_bounds():
    model = EnergyModel(np.zeros((2, 2)), [], PnPottsSpec([0, 0], 1.0))
    with pytest.raises(InvalidInputError):
        model.evaluate_energy([0, 2])
    with pytest.raises(InvalidInputError):
        model.evaluate_energy([0])


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

def _roundtrip(model):
    return model_from_json(json.loads(json.dumps(model_to_json(model))))


def test_json_roundtrip_pn_potts():
    model = EnergyModel(np.array([[1.0, 2.0], [0.5, 0.25]]),
                        [Clique([0, 1], 1.5)],
                        PnPottsSpec([0.5, 1.0], 3.0))
    back = _roundtrip(model)
    for lab in ([0, 0], [0, 1], [1, 1]):
        assert back.evaluate_energy(lab) == model.evaluate_energy(lab)


def test_json_roundtrip_diameter_metric():
    m = LabelMetric.truncated_linear(4, 2.0, 2)
    model = EnergyModel(np.eye(3, 4), [Clique([0, 2], 0.5)],
                        DiameterMetricSpec(m))
    back = _roundtrip(model)
    assert back.evaluate_energy([0, 3, 1]) == model.evaluate_energy([0, 3, 1])


def test_json_roundtrip_diversity_table():
    rng = np.random.default_rng(3)
    div = random_table_diversity(3, rng)
    model = EnergyModel(rng.uniform(0, 1, size=(3, 3)),
                        [Clique([0, 1, 2], 2.0)], DiversitySpec(div))
    back = _roundtrip(model)
    lab = [0, 1, 2]
    assert abs(back.evaluate_energy(lab) - model.evaluate_energy(lab)) <= 1e-12


def test_json_unknown_kind_rejected():
    model = EnergyModel(np.zeros((1, 2)), [], PnPottsSpec([0, 0], 1.0))
    doc = model_to_json(model)
    doc["potential"]["kind"] = "mystery"
    with pytest.raises(InvalidInputError):
        model_from_json(doc)


def test_save_load_roundtrip(tmp_path):
    m = LabelMetric.truncated_linear(3, 1.0, 2)
    model = EnergyModel(np.arange(6.0).reshape(2, 3), [Clique([0, 1], 1.0)],
                        DiameterMetricSpec(m))
    path = tmp_path / "problem.json"
    save_model(model, path)
    back = load_model(path)
    assert back.evaluate_energy([0, 2]) == model.evaluate_energy([0, 2])


def test_constructors_reject_non_finite_values():
    nan, inf = float("nan"), float("inf")
    spec = PnPottsSpec([0.0, 1.0], 2.0)
    with pytest.raises(InvalidInputError):
        EnergyModel([[0.0, nan]], [], spec)
    with pytest.raises(InvalidInputError):
        Clique([0, 1], inf)
    with pytest.raises(InvalidInputError):
        PnPottsSpec([0.0, nan], 2.0)
    with pytest.raises(InvalidInputError):
        PnPottsSpec([0.0, 1.0], inf)
    with pytest.raises(InvalidInputError):
        LabelMetric([[0.0, inf], [inf, 0.0]])
    with pytest.raises(InvalidInputError):
        LabelMetric.truncated_linear(3, nan, 2)
    with pytest.raises(InvalidInputError):
        ExplicitTableDiversity(2, [0.0, 0.0, 0.0, nan])
    with pytest.raises(InvalidInputError):
        RHst([-1, 0, 0], [nan, 0.0, 0.0], [None, 0, 1])
