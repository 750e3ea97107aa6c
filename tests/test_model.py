"""Energy model, metrics, diversities, axiom validation, problem files."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import random_cliques, random_table_diversity
from reference import unique_labels
from parsilab.hst import RHst
from parsilab.model import (AXIOM_TOL, ENERGY_LIMIT, Cliques,
                            DiameterDiversity, EnergyModel,
                            ExplicitTableDiversity, InvalidInputError,
                            LabelMetric, PnPottsSpec, load_model,
                            model_from_json, model_to_json, save_model,
                            validate_diversity_axioms)
from parsilab.solver import solve


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_truncated_linear_metric():
    m = LabelMetric.truncated_linear(10, lam=1.0, truncation=5)
    assert m.matrix[2, 9] == 5.0
    assert m.matrix[2, 4] == 2.0
    assert m.matrix[3, 3] == 0.0
    assert m.check() is None


def test_uniform_metric_is_a_view_of_2h_distances():
    """The uniform metric has the bits of scale * (1 - I), in a read-only
    view of the truncated linear metric's 2H - 1 distances: 100000 labels
    take no H x H array."""
    small = LabelMetric.uniform(6, 0.3).matrix
    assert small.tobytes() == (0.3 * (1.0 - np.eye(6))).tobytes()
    tracemalloc.start()
    try:
        m = LabelMetric.uniform(100000, 1.0).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * 100000
    assert m.shape == (100000, 100000) and not m.flags.writeable
    assert np.shares_memory(m[0], m[-1])
    assert (m[0, 0], m[0, 1], m[-1, 0]) == (0.0, 1.0, 1.0)


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
    assert DiameterDiversity(m).value({3}) == 0.0


def test_diameter_diversity_truncated_linear():
    m = LabelMetric.truncated_linear(10, 1.0, 5)
    assert DiameterDiversity(m).value({2, 4, 9}) == 5.0


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


@pytest.mark.parametrize("entries", [
    # [1, 1] names {1} again, after [1]
    [([0], 0.0), ([1], 0.0), ([0, 1], 1.0), ([1, 1], 2.0)],
    # the same pair twice, in either order
    [([0], 0.0), ([1], 0.0), ([0, 1], 1.0), ([1, 0], 7.0)],
    [([0], 0.0), ([0, 1], 1.0), ([1], 0.0), ([0, 1], 1.0)],
], ids=["repeated label", "reordered pair", "same entry twice"])
def test_table_diversity_refuses_a_repeated_label_set(entries):
    with pytest.raises(InvalidInputError, match="repeats the label set"):
        ExplicitTableDiversity.from_entries(2, entries)


def test_table_diversity_refuses_an_empty_label_list():
    entries = [([0], 0.0), ([1], 0.0), ([0, 1], 1.0), ([], 0.0)]
    with pytest.raises(InvalidInputError, match="no labels"):
        ExplicitTableDiversity.from_entries(2, entries)


def test_table_diversity_takes_repeated_labels_within_an_entry():
    """[1, 1] is the set {1}: an entry may repeat a label, so long as no
    other entry names its set."""
    div = ExplicitTableDiversity.from_entries(
        2, [([0, 0], 0.0), ([1, 1], 0.0), ([1, 0, 1], 1.5)])
    np.testing.assert_array_equal(div.table, [0.0, 0.0, 0.0, 1.5])


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
    model = EnergyModel(np.array([[3.0, 7.0]]), Cliques.from_lists([], []),
                        PnPottsSpec([0.0, 0.0], 1.0))
    assert model.evaluate_energy([0]) == 3.0
    assert model.evaluate_energy([1]) == 7.0


def test_clique_energy_matches_hand_summation():
    rng = np.random.default_rng(2)
    div = random_table_diversity(3, rng)
    unaries = rng.uniform(0, 10, size=(4, 3))
    model = EnergyModel(unaries, Cliques.from_lists([[0, 1, 2, 3]], [1.7]),
                        div)
    labeling = [0, 2, 0, 1]
    by_hand = sum(unaries[i, l] for i, l in enumerate(labeling))
    by_hand += 1.7 * div.value({0, 1, 2})
    assert abs(model.evaluate_energy(labeling) - by_hand) <= 1e-9


def test_pn_potts_value():
    spec = PnPottsSpec([1.0, 2.0, 0.5], 4.0)
    assert spec.value((1,)) == 2.0
    assert spec.value((0, 2)) == 4.0


def test_unique_labels():
    assert unique_labels([2, 2, 2], [0, 1, 2]) == (2,)
    assert unique_labels([0, 3, 0, 1], [0, 1, 2, 3]) == (0, 1, 3)


def test_clique_must_be_nonempty_and_distinct():
    with pytest.raises(InvalidInputError):
        Cliques.from_lists([[]], [1.0])
    with pytest.raises(InvalidInputError):
        Cliques.from_lists([[1, 1]], [1.0])
    with pytest.raises(InvalidInputError):
        Cliques.from_lists([[0, 1]], [-1.0])
    # a member may repeat across cliques, not within one
    Cliques.from_lists([[0, 1], [1, 0]], [1.0, 1.0])
    with pytest.raises(InvalidInputError):
        Cliques([0, 2, 4], [0, 1, 2, 2], [1.0, 1.0])


def test_cliques_arrays():
    cliques = Cliques.from_lists([[4, 0, 2], [1], [3, 0]], [0.5, 2, 1.0])
    assert len(cliques) == 3 and cliques.max_size == 3
    np.testing.assert_array_equal(cliques.offsets, [0, 3, 4, 6])
    np.testing.assert_array_equal(cliques.members, [4, 0, 2, 1, 3, 0])
    np.testing.assert_array_equal(cliques.sizes, [3, 1, 2])
    assert cliques.weights.dtype == float
    for a in (cliques.offsets, cliques.members, cliques.weights,
              cliques.sizes):
        assert not a.flags.writeable
    empty = Cliques.from_lists([], [])
    assert len(empty) == 0 and empty.max_size == 0
    assert empty.members.dtype == np.intp


def test_cliques_select_matches_the_constructor():
    rng = np.random.default_rng(11)
    for _ in range(100):
        count = int(rng.integers(0, 8))
        members = [rng.choice(10, size=int(rng.integers(1, 5)),
                              replace=False).tolist() for _ in range(count)]
        cliques = Cliques.from_lists(members, rng.uniform(0, 2, count))
        keep = rng.random(count) < 0.5
        subset = cliques.select(keep)
        expect = Cliques.from_lists(
            [m for m, k in zip(members, keep) if k], cliques.weights[keep])
        assert len(subset) == len(expect)
        assert subset.max_size == expect.max_size
        for name in ("offsets", "members", "weights", "sizes"):
            got, want = getattr(subset, name), getattr(expect, name)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype and not got.flags.writeable


@pytest.mark.parametrize("offsets,members,weights", [
    ([0, 2], [0, 1], [1.0, 1.0]),       # one offset short
    ([1, 2], [0, 1], [1.0]),            # not starting at 0
    ([0, 3], [0, 1], [1.0]),            # past the members
    ([0, 2, 1, 3], [0, 1, 2], [1.0, 1.0, 1.0]),   # decreasing
    ([0, 2], [0, -1], [1.0]),           # negative id
    ([0, 2], [0, 1.5], [1.0]),          # fractional id
    ([0, 2], [[0], [1]], [1.0]),        # nested ids
    ([0, 2], ["0", "1"], [1.0]),        # not numbers
    ([0, 2], [0, 1], [float("nan")]),
    ([0, 2], [0, 1], [[1.0]]),
])
def test_cliques_reject_malformed_arrays(offsets, members, weights):
    with pytest.raises(InvalidInputError):
        Cliques(offsets, members, weights)


def test_clique_members_checked_against_variable_count():
    cliques = Cliques.from_lists([[0, 2]], [1.0])
    spec = PnPottsSpec([0.0, 0.0], 1.0)
    EnergyModel(np.zeros((3, 2)), cliques, spec)
    with pytest.raises(InvalidInputError, match="out of range"):
        EnergyModel(np.zeros((2, 2)), cliques, spec)


def test_check_labeling_bounds():
    model = EnergyModel(np.zeros((2, 2)), Cliques.from_lists([], []),
                        PnPottsSpec([0, 0], 1.0))
    for labeling in ([0, 2], [-1, 0], [0]):
        with pytest.raises(InvalidInputError):
            model.evaluate_energy(labeling)


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

def _roundtrip(model):
    return model_from_json(json.loads(json.dumps(model_to_json(model))))


def test_json_roundtrip_pn_potts():
    model = EnergyModel(np.array([[1.0, 2.0], [0.5, 0.25]]),
                        Cliques.from_lists([[0, 1]], [1.5]),
                        PnPottsSpec([0.5, 1.0], 3.0))
    back = _roundtrip(model)
    for lab in ([0, 0], [0, 1], [1, 1]):
        assert back.evaluate_energy(lab) == model.evaluate_energy(lab)


def test_json_roundtrip_diameter_metric():
    m = LabelMetric.truncated_linear(4, 2.0, 2)
    model = EnergyModel(np.eye(3, 4), Cliques.from_lists([[0, 2]], [0.5]),
                        DiameterDiversity(m))
    back = _roundtrip(model)
    assert back.evaluate_energy([0, 3, 1]) == model.evaluate_energy([0, 3, 1])


def test_json_roundtrip_diversity_table():
    rng = np.random.default_rng(3)
    div = random_table_diversity(3, rng)
    model = EnergyModel(rng.uniform(0, 1, size=(3, 3)),
                        Cliques.from_lists([[0, 1, 2]], [2.0]),
                        div)
    back = _roundtrip(model)
    lab = [0, 1, 2]
    assert abs(back.evaluate_energy(lab) - model.evaluate_energy(lab)) <= 1e-12


def test_json_unknown_kind_rejected():
    model = EnergyModel(np.zeros((1, 2)), Cliques.from_lists([], []),
                        PnPottsSpec([0, 0], 1.0))
    doc = model_to_json(model)
    doc["potential"]["kind"] = "mystery"
    with pytest.raises(InvalidInputError):
        model_from_json(doc)


def test_save_load_roundtrip(tmp_path):
    m = LabelMetric.truncated_linear(3, 1.0, 2)
    model = EnergyModel(np.arange(6.0).reshape(2, 3),
                        Cliques.from_lists([[0, 1]], [1.0]),
                        DiameterDiversity(m))
    path = tmp_path / "problem.json"
    save_model(model, path)
    back = load_model(path)
    assert back.evaluate_energy([0, 2]) == model.evaluate_energy([0, 2])


def test_constructors_reject_non_finite_values():
    nan, inf = float("nan"), float("inf")
    spec = PnPottsSpec([0.0, 1.0], 2.0)
    with pytest.raises(InvalidInputError):
        EnergyModel([[0.0, nan]], Cliques.from_lists([], []), spec)
    with pytest.raises(InvalidInputError):
        Cliques.from_lists([[0, 1]], [inf])
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


def _scaled_potential(kind, scale, rng):
    h = 4
    if kind == "consistency":
        return PnPottsSpec(scale * rng.uniform(0.0, 1.0, h), scale * 2.0)
    if kind == "table":
        return ExplicitTableDiversity(
            h, scale * random_table_diversity(h, rng).table)
    points = rng.uniform(0.0, 5.0, size=(h, 2))
    return DiameterDiversity(LabelMetric(scale * np.linalg.norm(
        points[:, None] - points[None, :], axis=-1)))


@pytest.mark.parametrize("kind", ["consistency", "table", "diameter"])
def test_energy_limit_leaves_room_for_the_solve(kind):
    """Finite costs whose energy bound is above ENERGY_LIMIT are refused;
    just below it every solver runs without an overflow."""
    rng = np.random.default_rng(5)
    unaries = rng.uniform(-3.0, 3.0, size=(12, 4))
    cliques = random_cliques(12, rng, count_max=6)
    potential = _scaled_potential(kind, 1.0, np.random.default_rng(6))
    bound = (np.abs(unaries).sum()
             + cliques.weights.sum() * potential.value_bound())
    for share in (0.99, 1.01):
        scale = share * ENERGY_LIMIT / bound
        potential = _scaled_potential(kind, scale, np.random.default_rng(6))
        if share > 1:
            with pytest.raises(InvalidInputError, match="too large"):
                EnergyModel(scale * unaries, cliques, potential)
            continue
        model = EnergyModel(scale * unaries, cliques, potential)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            labeling, report = solve(model, k=3)
        assert np.isfinite(report.energy)
        assert report.energy == model.evaluate_energy(labeling)


def _problem(**changes):
    doc = {"num_variables": 2, "num_labels": 2, "unaries": [0.0] * 4,
           "cliques": [{"members": [0, 1], "weight": 1.0}],
           "potential": {"kind": "pn_potts", "gamma": [0.0, 0.5],
                         "gamma_max": 1.0}}
    doc.update(changes)
    return doc


def test_json_accepts_integral_float_member_ids():
    model = model_from_json(_problem(cliques=[{"members": [0.0, 1.0],
                                               "weight": 1.0}]))
    np.testing.assert_array_equal(model.cliques.members, [0, 1])


def test_json_rejects_fractional_member_ids():
    with pytest.raises(InvalidInputError, match="integers"):
        model_from_json(_problem(cliques=[{"members": [0.7, 1.2],
                                           "weight": 1.0}]))


def test_json_rejects_negative_variable_count():
    # -1 would otherwise reshape the four unaries into 2 variables
    with pytest.raises(InvalidInputError, match="num_variables"):
        model_from_json(_problem(num_variables=-1))


def test_json_rejects_zero_labels():
    with pytest.raises(InvalidInputError, match="num_labels"):
        model_from_json(_problem(num_labels=0, unaries=[]))


@pytest.mark.parametrize("doc", [
    _problem(cliques=[{"members": [0, 1], "weight": "heavy"}]),
    _problem(unaries=["a", "b", "c", "d"]),
], ids=["text weight", "text unaries"])
def test_json_rejects_values_that_are_not_numbers(doc):
    with pytest.raises(InvalidInputError, match="malformed problem"):
        model_from_json(doc)


@pytest.mark.parametrize("unaries", [[[0.0, 1.0], [2.0]], [0.0] * 3],
                         ids=["ragged", "wrongly sized"])
def test_json_rejects_misshapen_unaries(unaries):
    with pytest.raises(InvalidInputError, match="malformed problem"):
        model_from_json(_problem(unaries=unaries))
