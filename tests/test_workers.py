"""The mixture solve's forked workers: the same result as one worker, and
no child left behind, whether the solve succeeds or fails."""

import os
import pickle
import signal
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsilab import hst, solver
from conftest import forks, random_cliques, random_diversity_model
from parsilab.model import (Cliques, DiameterDiversity, EnergyModel,
                            InvalidInputError, LabelMetric, SolverError)
from parsilab.solver import solve_parsimonious

pytestmark = forks


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def solve_in(workers, model, k, seed=0):
    with mock.patch.object(solver, "_cpus", lambda: workers):
        return solve_parsimonious(model, k=k, seed=seed)


def diameter_model(rng):
    n = int(rng.integers(2, 9))
    h = int(rng.integers(2, 7))
    points = rng.uniform(0.0, 5.0, size=(h, 2))
    metric = LabelMetric(
        np.linalg.norm(points[:, None] - points[None, :], axis=-1))
    return EnergyModel(rng.uniform(0.0, 3.0, size=(n, h)),
                       random_cliques(n, rng), DiameterDiversity(metric))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([diameter_model, random_diversity_model]),
       st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(2, 3),
       st.integers(0, 3))
def test_forked_solve_matches_one_worker(make, draw, k, workers, seed):
    model = make(np.random.default_rng(draw))
    serial, serial_report = solve_in(1, model, k, seed)
    labeling, report = solve_in(workers, model, k, seed)
    assert_no_child()
    assert labeling.dtype == serial.dtype
    assert labeling.tobytes() == serial.tobytes()
    assert report.energy == serial_report.energy
    assert report.component_energies == serial_report.component_energies
    assert report.to_json(include_timings=False) \
        == serial_report.to_json(include_timings=False)


def small_model():
    metric = LabelMetric.truncated_linear(16, 1.0, 4)
    return EnergyModel(np.random.default_rng(5).uniform(0, 3, size=(6, 16)),
                       Cliques.from_lists([range(4), range(2, 6)], [1.0, 2.0]),
                       DiameterDiversity(metric))


@pytest.fixture
def before_fusing(monkeypatch):
    """before_fusing(act): call act(t) just before tree t is fused, in
    whichever worker fuses it."""
    embed, fuse = hst.frt_embed, solver.solve_hierarchical
    ids = []

    def embed_and_number(*args):
        trees = embed(*args)
        ids[:] = map(id, trees)
        return trees

    def install(act):
        def act_then_fuse(model, tree):
            act(ids.index(id(tree)))
            return fuse(model, tree)
        monkeypatch.setattr(hst, "frt_embed", embed_and_number)
        monkeypatch.setattr(solver, "solve_hierarchical", act_then_fuse)
    return install


@pytest.mark.parametrize("error", [InvalidInputError, SolverError])
def test_a_childs_typed_error_is_raised_here(before_fusing, error):
    def fail(t):
        if t == 1:
            raise error("tree %d does not fuse" % t)
    before_fusing(fail)
    # tree 1 is fused in the child
    with pytest.raises(error, match=r"^tree 1 does not fuse$") as raised:
        solve_in(2, small_model(), k=2)
    assert type(raised.value) is error
    assert_no_child()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_lowest_failing_tree_is_raised(before_fusing, workers):
    """Trees 3 and 4 fail, in different workers when there are several:
    every worker count raises tree 3's error, as the serial loop does."""
    def fail(t):
        if t == 3:
            raise InvalidInputError("tree 3 does not fuse")
        if t == 4:
            raise SolverError("tree 4 does not fuse")
    before_fusing(fail)
    with pytest.raises(InvalidInputError, match="^tree 3 does not fuse$"):
        solve_in(workers, small_model(), k=5)
    assert_no_child()


@pytest.mark.parametrize("die, why", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by SIGKILL"),
    (lambda: os._exit(3), "exited with code 3")])
def test_a_child_that_dies_without_a_result(before_fusing, die, why):
    parent = os.getpid()

    def die_in_child(t):
        if os.getpid() != parent:
            die()
    before_fusing(die_in_child)
    with pytest.raises(SolverError, match=r"trees \[1\] %s" % why):
        solve_in(2, small_model(), k=3)
    assert_no_child()


def test_an_interrupt_here_kills_the_children(before_fusing):
    parent = os.getpid()

    def interrupt(t):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
    before_fusing(interrupt)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        solve_in(3, small_model(), k=3)
    assert time.monotonic() - start < 30
    assert_no_child()


def test_results_larger_than_a_pipe_buffer():
    """A child's 20,000-variable labelings far exceed the 64 KB a pipe
    buffers, so this process reads them before it reaps the child."""
    metric = LabelMetric.truncated_linear(4, 1.0, 2)
    unaries = np.random.default_rng(2).uniform(0, 3, size=(20000, 4))
    model = EnergyModel(unaries, Cliques.from_lists([], []),
                        DiameterDiversity(metric))
    serial, serial_report = solve_in(1, model, k=4)
    assert len(pickle.dumps(serial)) > 65536

    def give_up(signum, frame):
        raise TimeoutError("the child's result was never read")
    # a solve that reaps the child before reading its pipe waits forever
    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(60)
    try:
        labeling, report = solve_in(2, model, k=4)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child()
    assert labeling.tobytes() == serial.tobytes()
    assert report.component_energies == serial_report.component_energies
    np.testing.assert_array_equal(labeling, unaries.argmin(axis=1))


def test_only_the_warning_about_forking_threads_is_silenced(monkeypatch):
    """Python 3.12 on warns, in the parent, when a process with threads
    forks: that one warning is silenced, any other still raises."""
    def fork_and_warn(message):
        def fork():
            warnings.warn(message, DeprecationWarning)
            return 12345
        return fork

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        monkeypatch.setattr(os, "fork", fork_and_warn(
            "This process (pid=7) is multi-threaded, use of fork() may lead "
            "to deadlocks in the child."))
        assert solver._fork() == 12345
        monkeypatch.setattr(os, "fork", fork_and_warn("another warning"))
        with pytest.raises(DeprecationWarning):
            solver._fork()
