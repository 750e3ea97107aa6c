"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest -q perfbench/smoke_test.py

Checks that every metric named in BENCHMARK.json prints with its unit,
that counts repeat exactly between runs of one seed, that the
correctness gate rejects corrupted output, so it cannot pass vacuously,
and that a traced layer that is gone or bypassed fails the run instead
of reporting 0 seconds.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from parsilab.cli import main as cli_main  # noqa: E402

TOY = {
    "lattice": {"side": 8, "labels": 5, "window": 4, "trees": 2},
    "stereo": {"side": 16, "labels": 8, "block": 8, "trees": 2},
    "pnpotts": {"side": 8, "labels": 4, "window": 4},
    "inpaint-h256": {"side": 4, "labels": 32, "block": 2, "trees": 2},
}
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def toy_run(name, trace, seed=1):
    return run.measure(name, seed, 0.0, trace, TOY[name])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_prints_with_its_unit(name, trace):
    doc, lines = toy_run(name, trace)
    assert doc["correct"], lines
    assert doc["failed"] == 0 and doc["attempted"] >= 2
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(doc["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = doc["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"] for line in lines)
    assert json.loads(json.dumps(doc)) == doc


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counts_repeat_exactly(name):
    first, _ = toy_run(name, 1)
    second, _ = toy_run(name, 1)
    counts = [m for m, unit in run.PER_LAYER.items() if unit != "s"]
    assert counts
    for metric in counts:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    energies = [toy_run(name, 0)[0]["metrics"]["energy"] for _ in range(2)]
    assert energies[0] == energies[1]


@pytest.fixture
def solved():
    """Solve a toy workload once: solved(name) -> (case, result)."""
    (run.WORK / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.WORK / "work"))

    def solve(name, seed=2):
        case = workloads.prepare(name, seed, workdir, TOY[name])
        assert cli_main(case.argv) == 0
        result = case.read_result()
        assert case.check(0, result) == []
        return case, result
    yield solve
    shutil.rmtree(workdir, ignore_errors=True)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_gate_rejects_corrupted_output(name, solved):
    case, (labeling, energy, written) = solved(name)
    h = case.model.num_labels

    changed = labeling.copy()
    changed[len(changed) // 2] = (changed[len(changed) // 2] + 1) % h
    # a changed label with the old energy and the old written file
    assert case.check(0, (changed, energy, written))
    # a changed label written consistently but with the old energy
    assert case.check(0, (changed, energy, case.encode(changed)))
    # a written file that disagrees with the report
    assert case.check(0, (labeling, energy, case.encode(changed)))
    out_of_range = labeling.copy()
    out_of_range[0] = h
    assert case.check(0, (out_of_range, energy, written))
    assert case.check(0, (labeling.astype(float), energy, written))
    assert case.check(1, None)


def consistent(case, labeling):
    return (labeling, case.model.evaluate_energy(labeling),
            case.encode(labeling))


def test_gate_rejects_wrong_disparities(solved):
    case, _ = solved("stereo")
    zeros = np.zeros(case.model.num_variables, dtype=np.int64)
    assert any("planted" in p for p in case.check(0, consistent(case, zeros)))


def test_gate_rejects_energy_above_start(solved):
    case, _ = solved("pnpotts")
    rng = np.random.default_rng(0)
    noisy = rng.integers(0, case.model.num_labels, case.model.num_variables)
    assert any("all-zero" in p for p in case.check(0, consistent(case, noisy)))


@pytest.mark.parametrize("name, variants",
                         [("stereo", 12), ("pnpotts", 8), ("inpaint-h256", 8)])
def test_symmetric_seeds_pose_one_problem(name, variants, solved):
    energies = [solved(name, seed)[1][1] for seed in range(variants)]
    assert max(energies) - min(energies) <= 1e-9 * abs(energies[0])


def test_missing_layer_fails_instead_of_reading_zero(solved):
    case, _ = solved("lattice")
    gone = run.SETUP + [tracing.Layer("parsilab.model", "no_such_function")]
    with pytest.raises(LookupError, match="no_such_function"):
        run.solve_once(case, cli_main, tracing.Tracer(), "traced", gone)


def test_bypassed_layer_fails_the_solve(solved):
    case, _ = solved("lattice")
    # lattice never calls the consistency-cost oracle: if it were declared
    # reached, its zero count must fail the solve rather than read as 0 s
    case.unreached = case.unreached - {workloads.ORACLE}
    solve = run.solve_once(case, cli_main, tracing.Tracer(), "traced",
                           tracing.LAYERS)
    assert any(workloads.ORACLE in p for p in solve.problems)


def test_cut_read_is_timed_once_per_flow(solved):
    case, _ = solved("stereo")
    solve = run.solve_once(case, cli_main, tracing.Tracer(), "traced",
                           tracing.LAYERS)
    assert not solve.problems
    flows = solve.counts["maxflow.FlowNetwork.compute_max_flow"]
    assert flows > 0
    assert solve.counts["maxflow.FlowNetwork._residual_reachable"] == flows
