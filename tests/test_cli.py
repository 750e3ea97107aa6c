"""Command-line interface: exit codes, reports, determinism."""

import csv
import json
import os

import numpy as np
import pytest

from parsilab import cli
from parsilab.tasks import write_raster

DATA = os.path.join(os.path.dirname(__file__), "data")
TINY_PROBLEM = os.path.join(DATA, "tiny_problem.json")

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


def test_solve_reports_are_byte_identical(tmp_path):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["solve", TINY_PROBLEM, "--seed", "3",
                     "--report", str(r1)]) == cli.EXIT_OK
    assert cli.main(["solve", TINY_PROBLEM, "--seed", "3",
                     "--report", str(r2)]) == cli.EXIT_OK
    assert r1.read_bytes() == r2.read_bytes()


def test_solve_timings_flag(tmp_path):
    report = tmp_path / "t.json"
    cli.main(["solve", TINY_PROBLEM, "--report", str(report), "--timings"])
    assert "timings" in json.loads(report.read_text())


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


def test_missing_field_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unaries": [[0.0, 1.0]]}))
    assert cli.main(["solve", str(bad)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err


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
    doc = json.loads(open(TINY_PROBLEM).read())
    # break monotonicity: the full-set value drops below a pair value
    doc["potential"]["entries"][-1]["value"] = 0.001
    bad = tmp_path / "bad_div.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", str(bad)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert "violation" in captured.out


def test_validate_tree(tmp_path, capsys, reference_tree):
    path = tmp_path / "tree.json"
    reference_tree.save(path)
    assert cli.main(["validate", str(path)]) == cli.EXIT_OK
    assert "tree ok" in capsys.readouterr().out

    doc = reference_tree.to_json()
    doc["nodes"][1]["edge_to_children"] = 100.0    # breaks the ratio rule
    bad = tmp_path / "bad_tree.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", str(bad)]) == cli.EXIT_INPUT


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


def test_missing_file_exits_2(capsys):
    assert cli.main(["solve", "/nonexistent/problem.json"]) == cli.EXIT_INPUT
