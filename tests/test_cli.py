"""Command-line interface: exit codes, reports, determinism."""

import csv
import json
import os
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from parsilab import cli, oracle
from parsilab.model import (Cliques, EnergyModel, PnPottsSpec, load_model,
                            save_model)
from parsilab.oracle import exhaustive_minimize
from parsilab.solver import theorem_bounds
from parsilab.tasks import write_raster
from reference import tree_to_json

DATA = os.path.join(os.path.dirname(__file__), "data")
TINY_PROBLEM = os.path.join(DATA, "tiny_problem.json")
# wrongly shaped "cliques"; CI also runs it through the installed script
MALFORMED_PROBLEM = os.path.join(DATA, "malformed_problem.json")
# tree nodes that are not objects; CI also runs it through the script
MALFORMED_TREE = os.path.join(DATA, "malformed_tree.json")
# a parent id out of range; CI also runs it through the script
BAD_PARENT_TREE = os.path.join(DATA, "bad_parent_tree.json")
# tiny_problem.json with a clique weight of 1e308; CI also runs it
OVERFLOW_PROBLEM = os.path.join(DATA, "overflow_problem.json")
# a diameter metric whose largest distance over its smallest (1e302 over
# 1e-8) overflows a double; CI also runs it
OVERFLOW_RATIO_PROBLEM = os.path.join(DATA, "overflow_ratio_problem.json")
# a diameter metric with distances 1e308 and 1e300 whose cliques all weigh
# 0, so its energies are the unaries alone; CI also runs it
ZERO_WEIGHT_WIDE_METRIC_PROBLEM = os.path.join(
    DATA, "zero_weight_wide_metric_problem.json")
# a two-label diversity table with an entry for label 5; CI also runs it
BAD_TABLE_LABEL_PROBLEM = os.path.join(DATA, "bad_table_label_problem.json")
# a two-label diversity table whose last entry, labels [1, 1], names the
# set {1} a second time; CI also runs it
DUPLICATE_TABLE_ENTRY_PROBLEM = os.path.join(
    DATA, "duplicate_table_entry_problem.json")
# tiny_problem.json with a clique weight of 10^400, an integer beyond the
# largest double; CI also runs it
HUGE_INT_PROBLEM = os.path.join(DATA, "huge_int_problem.json")
# a two-label tree whose root edge is 10^400; CI also runs it
HUGE_INT_TREE = os.path.join(DATA, "huge_int_tree.json")
# a PGM whose header claims 2^40 x 3 pixels over 9 bytes; CI also runs it
HUGE_HEADER_RASTER = os.path.join(DATA, "huge_header.pgm")
# two variables, one label and a diameter metric: every energy is 0; CI
# also runs it through the script
ZERO_ENERGY_PROBLEM = os.path.join(DATA, "zero_energy_problem.json")

# energy of the committed fixture at k=10, seed 0; equals the exhaustive
# optimum of that instance (verified when the fixture was generated)
GOLDEN_ENERGY = 10.7143


def test_solve_reports_golden_energy(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = cli.main(["solve", TINY_PROBLEM, "--report", str(report)])
    assert code == cli.EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["energy"] == pytest.approx(GOLDEN_ENERGY, abs=1e-9)
    assert "timings" not in doc
    out = capsys.readouterr().out
    assert "energy" in out


def test_solve_oracle_flag(tmp_path, capsys):
    code = cli.main(["solve", TINY_PROBLEM, "--oracle"])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "ratio=" in out
    assert "E_opt=" in out


def test_oracle_ratio_of_zero_energies_is_one(capsys):
    """Equal energies have ratio 1, also when both are 0; only a positive
    energy over an optimum of 0 reads inf."""
    assert cli.main(["solve", ZERO_ENERGY_PROBLEM, "--oracle"]) \
        == cli.EXIT_OK
    assert "E_alg=0 E_opt=0 ratio=1 " in capsys.readouterr().out
    zero = oracle.ExhaustiveResult(np.zeros(5, dtype=np.intp), 0.0, 0.0,
                                   0.0)
    with mock.patch.object(oracle, "exhaustive_minimize",
                           return_value=zero):
        assert cli.main(["solve", TINY_PROBLEM, "--oracle"]) \
            == cli.EXIT_SOLVER
    assert "E_opt=0 ratio=inf " in capsys.readouterr().out


def test_solve_reports_are_byte_identical(tmp_path):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["solve", TINY_PROBLEM, "--seed", "3",
                     "--report", str(r1)]) == cli.EXIT_OK
    assert cli.main(["solve", TINY_PROBLEM, "--seed", "3",
                     "--report", str(r2)]) == cli.EXIT_OK
    assert r1.read_bytes() == r2.read_bytes()


@pytest.mark.parametrize("problem,args,golden", [
    ("tiny_problem.json", ["--seed", "0"], "tiny_problem.seed0.report.json"),
    ("tiny_problem.json", ["--seed", "3", "-k", "3"],
     "tiny_problem.seed3_k3.report.json"),
    ("pn_problem.json", ["--seed", "0"], "pn_problem.seed0.report.json"),
    # a 6x6 lattice over 28 labels whose trees fuse several nodes of
    # mixed child counts at each height
    ("lattice_problem.json", ["--seed", "0", "-k", "3"],
     "lattice_problem.seed0_k3.report.json"),
])
def test_report_matches_golden_file(tmp_path, problem, args, golden):
    """Reports are compared byte for byte with committed ones, so a change
    of clique order or of summation order shows."""
    report = tmp_path / "report.json"
    assert cli.main(["solve", os.path.join(DATA, problem), *args,
                     "--report", str(report)]) == cli.EXIT_OK
    assert report.read_bytes() == Path(DATA, golden).read_bytes()


# a 6x6 horizontal ramp with a 2x2 hole, inpainted over 32 labels in 3x3
# blocks: each of its two trees fuses nodes of two to five children at
# one height
INPAINT_GOLDEN = ["inpaint", os.path.join(DATA, "ramp6.pgm"), "--mask",
                  os.path.join(DATA, "ramp6_hole.pgm"), "--labels", "32",
                  "--lam", "1", "--truncation", "16", "--block", "3",
                  "-k", "2", "--seed", "0"]


def assert_inpaint_report_matches(tmp_path, args, golden):
    report = tmp_path / "report.json"
    with pytest.warns(UserWarning, match="no superpixel map"):
        assert cli.main(args + ["--out", str(tmp_path / "out.pgm"),
                                "--report", str(report)]) == cli.EXIT_OK
    assert report.read_bytes() == Path(DATA, golden).read_bytes()


def test_inpaint_report_matches_golden_file(tmp_path):
    assert_inpaint_report_matches(tmp_path, INPAINT_GOLDEN,
                                  "ramp6.seed0_k2.report.json")


def test_stereo_report_matches_golden_file(tmp_path):
    """A 12x12 planted stereo pair over 8 labels, disparity 1 with a
    central 6x6 square at 4: pair arcs, superpixel gadgets and
    augmentations the greedy pass leaves over."""
    report = tmp_path / "report.json"
    with pytest.warns(UserWarning, match="no superpixel map"):
        assert cli.main([
            "stereo", os.path.join(DATA, "stereo12_left.ppm"),
            os.path.join(DATA, "stereo12_right.ppm"), "--labels", "8",
            "--block", "4", "-k", "2", "--seed", "0",
            "--out", str(tmp_path / "out.pgm"),
            "--report", str(report)]) == cli.EXIT_OK
    assert report.read_bytes() \
        == Path(DATA, "stereo12.seed0_k2.report.json").read_bytes()


def test_inpaint_h256_report_matches_golden_file(tmp_path):
    """The same ramp over 256 labels, as in the inpaint-h256 benchmark:
    each FRT tree has hundreds of nodes."""
    args = INPAINT_GOLDEN[:4] + ["--labels", "256", "--lam", "4",
                                 "--truncation", "40"] + INPAINT_GOLDEN[10:]
    assert_inpaint_report_matches(tmp_path, args,
                                  "ramp6.seed0_k2_h256.report.json")


def test_solve_timings_flag(tmp_path):
    report = tmp_path / "t.json"
    cli.main(["solve", TINY_PROBLEM, "--report", str(report), "--timings"])
    assert "timings" in json.loads(report.read_text())


def test_report_carries_the_bound_of_the_solver_that_ran(tmp_path, capsys):
    """A consistency-cost solve is one alpha-expansion, covered by
    lambda * min(M, H); a diversity solve runs the tree mixture, covered by
    the hierarchical and general-diversity bounds.  --oracle checks the
    bound that covers the solve."""
    problem, report = tmp_path / "pn.json", tmp_path / "report.json"
    model = EnergyModel(
        np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 1.0, 0.0],
                  [0.5, 0.5, 0.5]]),
        Cliques.from_lists([[0, 1, 2], [2, 3]], [1.0, 2.0]),
        PnPottsSpec([0.5, 1.0, 0.2], 2.0))
    save_model(model, problem)
    assert cli.main(["solve", str(problem), "--oracle",
                     "--report", str(report)]) == cli.EXIT_OK
    # lambda = 2.0 / 0.2, M = H = 3
    assert json.loads(report.read_text())["bounds"] == {"expansion": 30.0}
    opt = exhaustive_minimize(model)
    assert "bound_rhs=%.9g" % (opt.unary_term + 30.0 * opt.clique_term) \
        in capsys.readouterr().out

    assert cli.main(["solve", TINY_PROBLEM, "--report",
                     str(report)]) == cli.EXIT_OK
    hierarchical, general = theorem_bounds(load_model(TINY_PROBLEM))
    assert json.loads(report.read_text())["bounds"] == {
        "hierarchical": hierarchical, "general_diversity": general,
        "log_base": "natural"}


def test_oracle_without_a_finite_expansion_bound(tmp_path, capsys):
    """With a zero gamma the expansion has no multiplicative bound: the
    report says null and --oracle has nothing to check, whatever the
    scale of the costs."""
    problem, report = tmp_path / "pn.json", tmp_path / "report.json"
    model = EnergyModel(np.array([[0.0, 1.0], [1.0, 0.0]]),
                        Cliques.from_lists([[0, 1]], [1.0]),
                        PnPottsSpec([0.0, 0.0], 0.1))
    save_model(model, problem)
    assert cli.main(["solve", str(problem), "--oracle",
                     "--report", str(report)]) == cli.EXIT_OK
    assert json.loads(report.read_text())["bounds"] == {"expansion": None}
    out = capsys.readouterr().out
    assert "E_alg=0.1 E_opt=0.1" in out and "bound_rhs=inf" in out


def test_solve_writes_labeling(tmp_path):
    out = tmp_path / "lab.txt"
    cli.main(["solve", TINY_PROBLEM, "--labeling-out", str(out)])
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert all(l.isdigit() for l in lines)


def test_malformed_problem_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"unaries\": [[0, 1]]")       # truncated JSON
    assert cli.main(["solve", str(bad)]) == cli.EXIT_INPUT
    assert "error" in capsys.readouterr().err


def _tiny_with(**changes):
    doc = json.loads(Path(TINY_PROBLEM).read_text())
    doc.update(changes)
    return doc


def _huge_int(problem, path, potential=None):
    """The problem with the integer 10^400, beyond the largest double, at
    path, under the given potential."""
    doc = json.loads(Path(DATA, problem).read_text())
    if potential is not None:
        doc["potential"] = potential
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = 10 ** 400
    return doc


def _metric(**metric):
    return {"kind": "diameter_metric", "metric": metric}


MALFORMED = {
    "top-level list": [1, 2, 3],
    "cliques not a list": json.loads(Path(MALFORMED_PROBLEM).read_text()),
    "nested members": _tiny_with(cliques=[{"members": [[0], [1]],
                                           "weight": 1.0}]),
    "null weight": _tiny_with(cliques=[{"members": [0, 1], "weight": None}]),
    "potential not an object": _tiny_with(potential=[]),
    # every float field, not an OverflowError traceback
    "huge unary": _huge_int("tiny_problem.json", ["unaries", 0]),
    "huge clique weight": json.loads(Path(HUGE_INT_PROBLEM).read_text()),
    "huge table value": _huge_int("tiny_problem.json",
                                  ["potential", "entries", 2, "value"]),
    "huge gamma": _huge_int("pn_problem.json", ["potential", "gamma", 1]),
    "huge gamma_max": _huge_int("pn_problem.json",
                                ["potential", "gamma_max"]),
    "huge lam": _huge_int("tiny_problem.json", ["potential", "metric", "lam"],
                          _metric(kind="truncated_linear", lam=1.0, M=2)),
    "huge M": _huge_int("tiny_problem.json", ["potential", "metric", "M"],
                        _metric(kind="truncated_linear", lam=1.0, M=2)),
    "huge scale": _huge_int("tiny_problem.json",
                            ["potential", "metric", "scale"],
                            _metric(kind="uniform", scale=1.0)),
    "huge matrix entry": _huge_int(
        "tiny_problem.json", ["potential", "metric", "matrix", 0, 1],
        _metric(kind="explicit", matrix=[[0, 1, 1], [1, 0, 1], [1, 1, 0]])),
}


@pytest.mark.parametrize("command", ["solve", "validate"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_wrongly_shaped_problem_exits_2(tmp_path, capsys, command, name):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(MALFORMED[name]))
    assert cli.main([command, str(bad)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


def test_missing_field_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unaries": [[0.0, 1.0]]}))
    assert cli.main(["solve", str(bad)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err


@pytest.mark.parametrize("problem", ["tiny_problem.json", "pn_problem.json"])
def test_negative_seed_exits_2(capsys, problem):
    """Both solvers refuse a negative seed, also the expansion, which
    draws no trees."""
    assert cli.main(["solve", os.path.join(DATA, problem),
                     "--seed", "-1"]) == cli.EXIT_INPUT
    assert "seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("unary", float("nan")),
                                         ("weight", float("inf"))])
def test_non_finite_input_exits_2(tmp_path, capsys, field, value):
    with open(TINY_PROBLEM) as f:
        doc = json.load(f)
    if field == "unary":
        doc["unaries"][0] = value
    else:
        doc["cliques"][0]["weight"] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))               # writes NaN / Infinity
    assert cli.main(["solve", str(bad)]) == cli.EXIT_INPUT
    assert "finite" in capsys.readouterr().err


def _overflowing(problem, name):
    doc = json.loads(Path(DATA, problem).read_text())
    if name == "unaries":
        doc["unaries"] = [1e308] * len(doc["unaries"])
    else:
        doc["cliques"][0]["weight"] = 1e308
    return doc


OVERFLOWING = {
    "table weight": json.loads(Path(OVERFLOW_PROBLEM).read_text()),
    "consistency weight": _overflowing("pn_problem.json", "weight"),
    "unaries": _overflowing("tiny_problem.json", "unaries"),
}


@pytest.mark.parametrize("command", ["solve", "validate"])
@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_overflowing_finite_input_exits_2(tmp_path, capsys, command, name):
    """Finite costs whose energies could overflow a double are an input
    error, refused before any overflow warning."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(OVERFLOWING[name]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main([command, str(bad)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "costs too large" in err


def _table_label(label):
    doc = json.loads(Path(BAD_TABLE_LABEL_PROBLEM).read_text())
    doc["potential"]["entries"][-1]["labels"] = [label]
    return doc


BAD_TABLE_LABELS = {
    "out of range": _table_label(5),
    "fractional": _table_label(1.5),
    "negative": _table_label(-1),
}


@pytest.mark.parametrize("command", ["solve", "validate"])
@pytest.mark.parametrize("name", sorted(BAD_TABLE_LABELS))
def test_bad_diversity_table_label_exits_2(tmp_path, capsys, command, name):
    """A diversity-table entry whose labels are not integers 0..H-1 is an
    input error, not truncated or read past the table."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(BAD_TABLE_LABELS[name]))
    assert cli.main([command, str(bad)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "diversity table label" in err


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_repeated_diversity_table_entry_exits_2(capsys, command):
    """Two table entries for one label set are an input error, not a
    table where the last one silently wins."""
    assert cli.main([command, DUPLICATE_TABLE_ENTRY_PROBLEM]) \
        == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "repeats the label set [1]" in err


def test_overflowing_distance_ratio_exits_2(capsys):
    """A metric whose distances no FRT level can span is refused before
    the embedding, with no traceback; validate still accepts the file."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["solve", OVERFLOW_RATIO_PROBLEM]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: cannot embed") and "2^1023" in err
    assert cli.main(["validate", OVERFLOW_RATIO_PROBLEM]) == cli.EXIT_OK


def test_zero_weight_cliques_over_a_wide_metric_solve(tmp_path):
    """Cliques of weight 0 cost nothing, however large the potential's
    values: the energy bound does not read 0 * inf as nan, the metric
    check's overflowing sums raise no warning, and the solve returns the
    unary minimum."""
    report = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["validate", ZERO_WEIGHT_WIDE_METRIC_PROBLEM]) \
            == cli.EXIT_OK
        assert cli.main(["solve", ZERO_WEIGHT_WIDE_METRIC_PROBLEM,
                         "--report", str(report)]) == cli.EXIT_OK
    model = load_model(ZERO_WEIGHT_WIDE_METRIC_PROBLEM)
    doc = json.loads(report.read_text())
    assert doc["labeling"] == model.unaries.argmin(axis=1).tolist()
    assert doc["energy"] == model.unaries.min(axis=1).sum()


def test_failed_energy_recheck_exits_1(monkeypatch, capsys):
    """The energy rechecks are explicit, so they also run under python -O."""
    from parsilab.model import EnergyModel
    calls = iter(range(10 ** 6))
    monkeypatch.setattr(EnergyModel, "evaluate_energy",
                        lambda self, labeling: float(next(calls)))
    assert cli.main(["solve", TINY_PROBLEM, "-k", "2"]) == cli.EXIT_SOLVER
    assert "does not match" in capsys.readouterr().err


def test_validate_problem_ok(capsys):
    assert cli.main(["validate", TINY_PROBLEM]) == cli.EXIT_OK
    assert "problem ok" in capsys.readouterr().out


def test_validate_flags_bad_diversity(tmp_path, capsys):
    doc = json.loads(Path(TINY_PROBLEM).read_text())
    # break monotonicity: the full-set value drops below a pair value
    doc["potential"]["entries"][-1]["value"] = 0.001
    bad = tmp_path / "bad_div.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", str(bad)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert "violation" in captured.out


def test_validate_tree(tmp_path, capsys, reference_tree):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree_to_json(reference_tree)))
    assert cli.main(["validate", str(path)]) == cli.EXIT_OK
    assert "tree ok" in capsys.readouterr().out

    doc = tree_to_json(reference_tree)
    doc["nodes"][1]["edge_to_children"] = 100.0    # breaks the ratio rule
    bad = tmp_path / "bad_tree.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", str(bad)]) == cli.EXIT_INPUT


MALFORMED_TREES = {
    "nodes not a list": {"nodes": 5},
    "node not an object": {"nodes": [5]},
    "node missing fields": {"nodes": [{"parent": -1}], "r": 2.0},
    "committed file": json.loads(Path(MALFORMED_TREE).read_text()),
    "parent out of range": json.loads(Path(BAD_PARENT_TREE).read_text()),
    "fractional parent": {"r": 2.0, "nodes": [
        {"parent": -1, "edge_to_children": 1.0, "label": None},
        {"parent": 0.7, "edge_to_children": 0.0, "label": 0},
        {"parent": 0, "edge_to_children": 0.0, "label": 1}]},
    "fractional label": {"r": 2.0, "nodes": [
        {"parent": -1, "edge_to_children": 1.0, "label": None},
        {"parent": 0, "edge_to_children": 0.0, "label": 0},
        {"parent": 0, "edge_to_children": 0.0, "label": 1.5}]},
    "huge edge": json.loads(Path(HUGE_INT_TREE).read_text()),
    "huge r": {"r": 10 ** 400, "nodes": [
        {"parent": -1, "edge_to_children": 1.0, "label": None},
        {"parent": 0, "edge_to_children": 0.0, "label": 0},
        {"parent": 0, "edge_to_children": 0.0, "label": 1}]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_TREES))
def test_wrongly_shaped_tree_exits_2(tmp_path, capsys, name):
    bad = tmp_path / "bad_tree.json"
    bad.write_text(json.dumps(MALFORMED_TREES[name]))
    assert cli.main(["validate", str(bad)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith(
        "error: tree invalid: malformed tree: ")


def test_synth_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    code = cli.main(["synth-bench", "--csv", str(out), "--size", "5",
                     "--labels", "3", "--window", "3", "--truncation", "2",
                     "--trees", "1"])
    assert code == cli.EXIT_OK
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(cli.WC_GRID)
    assert [float(r["w_c"]) for r in rows] == cli.WC_GRID
    assert all(r["schema_version"] == "1" for r in rows)
    assert float(rows[-1]["unique_labels"]) == 1    # w_c = 100 collapses


@pytest.mark.parametrize("bad", [["--window", "4"], ["--trees", "0"],
                                 ["--labels", "0"], ["--labels", "-3"],
                                 ["--seed", "-1"]])
def test_synth_bench_bad_input_exits_2(tmp_path, capsys, bad):
    out = tmp_path / "bench.csv"
    assert cli.main(["synth-bench", "--csv", str(out), "--size", "3",
                     "--labels", "3", "--window", "2"] + bad) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_validate_diameter_problem_skips_subset_enumeration(tmp_path, capsys):
    """A metric's diameter is a diversity by construction, so validate does
    not enumerate the 2^64 label subsets."""
    doc = {"num_variables": 2, "num_labels": 64,
           "unaries": [0.0] * 128, "cliques": [{"members": [0, 1],
                                                "weight": 1.0}],
           "potential": {"kind": "diameter_metric",
                         "metric": {"kind": "truncated_linear", "lam": 1.0,
                                    "M": 4}}}
    problem = tmp_path / "h64.json"
    problem.write_text(json.dumps(doc))
    assert cli.main(["validate", str(problem)]) == cli.EXIT_OK
    assert "problem ok: 2 variables, 64 labels, 1 cliques" \
        in capsys.readouterr().out


def test_stereo_command(tmp_path, capsys):
    rng = np.random.default_rng(0)
    left = rng.integers(0, 255, size=(6, 8, 3)).astype(np.uint8)
    right = np.roll(left, -1, axis=1)               # planted shift of 1
    lp, rp = tmp_path / "l.ppm", tmp_path / "r.ppm"
    write_raster(lp, left)
    write_raster(rp, right)
    out = tmp_path / "disp.pgm"
    with pytest.warns(UserWarning):                 # block-partition fallback
        code = cli.main(["stereo", str(lp), str(rp), "--out", str(out),
                         "--labels", "3", "--trees", "2", "--block", "4"])
    assert code == cli.EXIT_OK
    assert out.exists()


def test_inpaint_command(tmp_path):
    img = np.full((6, 6), 9, dtype=np.uint8)
    mask = np.zeros((6, 6), dtype=np.uint8)
    mask[2:4, 2:4] = 255
    ip, mp = tmp_path / "img.pgm", tmp_path / "mask.pgm"
    write_raster(ip, img)
    write_raster(mp, mask)
    out = tmp_path / "fill.pgm"
    with pytest.warns(UserWarning):
        code = cli.main(["inpaint", str(ip), "--mask", str(mp), "--out",
                         str(out), "--labels", "16", "--truncation", "4",
                         "--trees", "2", "--block", "3"])
    assert code == cli.EXIT_OK
    assert out.exists()


def _image_files(tmp_path, flat):
    """A 6 x 8 stereo pair and a grayscale image, flat or random."""
    rng = np.random.default_rng(0)
    left = rng.integers(0, 255, size=(6, 8, 3)).astype(np.uint8)
    if flat:
        left[:] = 9
    gray = left[:, :, 0]
    paths = [tmp_path / "l.ppm", tmp_path / "r.ppm", tmp_path / "img.pgm"]
    for path, image in zip(paths, (left, np.roll(left, -1, axis=1), gray)):
        write_raster(path, image)
    return [str(p) for p in paths]


@pytest.mark.filterwarnings("ignore:no superpixel map given")
@pytest.mark.parametrize("command,bad,flat,message", [
    pytest.param("stereo", ["--labels", "0"], False, "at least one label",
                 id="stereo-labels-0"),
    pytest.param("inpaint", ["--labels", "-3"], False, "at least one label",
                 id="inpaint-labels-neg3"),
    pytest.param("stereo", ["--block", "0"], False, "block size",
                 id="stereo-block-0"),
    pytest.param("inpaint", ["--block", "0"], False, "block size",
                 id="inpaint-block-0"),
    pytest.param("stereo", ["--sigma", "0"], False, "sigma",
                 id="stereo-sigma-0"),
    pytest.param("inpaint", ["--sigma", "0"], True, "sigma",
                 id="inpaint-sigma-0-flat"),
    pytest.param("inpaint", ["--sigma", "nan"], False, "sigma",
                 id="inpaint-sigma-nan"),
    pytest.param("inpaint", ["--sigma", "-1"], False, "sigma",
                 id="inpaint-sigma-neg1"),
    pytest.param("stereo", ["--sigma", "inf"], False, "sigma",
                 id="stereo-sigma-inf"),
    pytest.param("stereo", ["--seed", "-1"], False, "seed",
                 id="stereo-seed-neg1"),
    pytest.param("stereo", ["--grad-threshold", "nan"], False,
                 "gradient threshold must be a number",
                 id="stereo-grad-threshold-nan"),
    pytest.param("stereo", ["--unary-truncation", "-1"], False,
                 "unary truncation must be non-negative",
                 id="stereo-unary-truncation-neg1"),
    pytest.param("stereo", ["--unary-truncation", "nan"], False,
                 "unary truncation must be non-negative",
                 id="stereo-unary-truncation-nan"),
    pytest.param("stereo", ["--superpixels", "/nonexistent/regions.pgm"],
                 False, "cannot read superpixel map",
                 id="stereo-superpixels-missing"),
    pytest.param("inpaint", ["--superpixels", "/nonexistent/regions.pgm"],
                 False, "cannot read superpixel map",
                 id="inpaint-superpixels-missing"),
])
def test_image_command_bad_input_exits_2(tmp_path, capsys, command, bad,
                                         flat, message):
    """Label counts below one, an empty fallback tile, a sigma that is
    not positive and finite, a negative seed, a NaN gradient threshold, a
    negative or NaN unary truncation and an unreadable superpixel map are
    input errors: exit 2 with a message, no traceback and no output."""
    left, right, gray = _image_files(tmp_path, flat)
    inputs = [left, right] if command == "stereo" else [gray]
    out = tmp_path / "out.pgm"
    code = cli.main([command] + inputs + ["--out", str(out), "--labels", "4",
                                          "--trees", "1"] + bad)
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:no superpixel map given")
@pytest.mark.parametrize("command,flag", [
    ("solve", "--report"), ("solve", "--labeling-out"),
    ("stereo", "--out"), ("stereo", "--report"),
    ("inpaint", "--out"), ("inpaint", "--report"),
    ("synth-bench", "--csv")])
def test_unwritable_output_exits_2(tmp_path, capsys, command, flag):
    """An output path that cannot be written is an input error: exit 2
    with one line naming it, no traceback."""
    left, right, gray = _image_files(tmp_path, False)
    argv = {"solve": [TINY_PROBLEM],
            "stereo": [left, right, "--labels", "3", "--trees", "1"],
            "inpaint": [gray, "--labels", "4", "--trees", "1"],
            "synth-bench": ["--size", "3", "--labels", "3", "--window", "2",
                            "--trees", "1"]}[command]
    if command in ("stereo", "inpaint") and flag != "--out":
        argv += ["--out", str(tmp_path / "out.pgm")]
    path = tmp_path / "missing" / "output"
    assert cli.main([command, *argv, flag, str(path)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err \
        == "error: cannot write %s: No such file or directory\n" % path


def test_malformed_raster_header_exits_2(tmp_path, capsys):
    image = tmp_path / "bad.pgm"
    image.write_bytes(b"P5\nsix 6\n255\n" + bytes(36))
    assert cli.main(["inpaint", str(image), "--out",
                     str(tmp_path / "out.pgm")]) == cli.EXIT_INPUT
    assert "cannot read image" in capsys.readouterr().err


@pytest.mark.parametrize("header,message", [
    (Path(HUGE_HEADER_RASTER).read_bytes()[:-9], "truncated raster data"),
    (b"P5\n%d 3\n255\n" % 10 ** 400, "truncated raster data"),
    (b"P5\n3 3\n65535\n", "truncated raster data"),
    (b"P5\n0 3\n255\n", "raster width and height must be positive"),
    (b"P5\n%d 0\n255\n" % 2 ** 62,
     "raster width and height must be positive"),
], ids=["2^40 wide", "10^400 wide", "odd 16-bit data", "0 wide",
        "2^62 wide, 0 high"])
def test_raster_header_beyond_its_data_exits_2(tmp_path, capsys, header,
                                               message):
    """A header is checked against the bytes the file holds (here 9), so a
    huge width sizes no read and overflows no index."""
    image = tmp_path / "bad.pgm"
    image.write_bytes(header + bytes(range(9)))
    assert cli.main(["inpaint", str(image), "--out",
                     str(tmp_path / "out.pgm")]) == cli.EXIT_INPUT
    assert capsys.readouterr().err \
        == "error: cannot read image: %s\n" % message


def test_missing_file_exits_2(capsys):
    assert cli.main(["solve", "/nonexistent/problem.json"]) == cli.EXIT_INPUT
