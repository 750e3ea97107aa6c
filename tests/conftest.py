"""Shared fixtures and random-instance helpers."""

import os

import numpy as np
import pytest

from parsilab.expansion import PnPottsInstance
from parsilab.hst import RHst
from parsilab.model import (Cliques, EnergyModel, ExplicitTableDiversity,
                            PnPottsSpec)

# tests that need the mixture solve's forked workers
forks = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="the trees are fused in forked workers only on Linux")


@pytest.fixture
def reference_tree():
    """Four-leaf 2-HST used throughout: two internal clusters {0,1} and
    {2,3}, leaf edges 3, root edges 6.  Leaf-to-leaf distances are 6
    within a cluster and 18 across clusters."""
    parents = [-1, 0, 0, 1, 1, 2, 2]
    child_edge = [6.0, 3.0, 3.0, 0.0, 0.0, 0.0, 0.0]
    leaf_label = [None, None, None, 0, 1, 2, 3]
    return RHst(parents, child_edge, leaf_label, r=2.0)


def pn_instance(unaries, cliques):
    """PnPottsInstance from (members, gamma, gamma_max, weight) tuples, one
    per clique."""
    unaries = np.asarray(unaries, dtype=float)
    return PnPottsInstance(
        unaries, Cliques.from_lists([c[0] for c in cliques],
                                    [c[3] for c in cliques]),
        np.reshape([c[1] for c in cliques], (len(cliques), unaries.shape[1])),
        [c[2] for c in cliques])


def random_pn_instance(rng, n_max=8, h_max=4, clique_max=4):
    """Random consistency-cost instance for move-space tests."""
    n = int(rng.integers(1, n_max + 1))
    h = int(rng.integers(2, h_max + 1))
    unaries = rng.uniform(0.0, 5.0, size=(n, h))
    cliques = []
    for _ in range(int(rng.integers(0, 4))):
        size = int(rng.integers(1, min(n, clique_max) + 1))
        members = rng.choice(n, size=size, replace=False)
        gamma = rng.uniform(0.0, 2.0, size=h)
        gamma_max = float(gamma.max() + rng.uniform(0.1, 3.0))
        cliques.append((members, gamma, gamma_max,
                        float(rng.uniform(0.0, 2.0))))
    return pn_instance(unaries, cliques)


def random_table_diversity(h, rng):
    """A random valid diversity: conic combination of two diameter
    diversities plus a positive indicator of non-singleton subsets."""
    def rand_dist():
        pts = rng.uniform(0.0, 5.0, size=(h, 2))
        return np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)

    a, b, c = rng.uniform(0.2, 2.0, size=3)
    d1, d2 = rand_dist(), rand_dist()
    entries = []
    for mask in range(1, 1 << h):
        labs = [i for i in range(h) if mask >> i & 1]
        if len(labs) == 1:
            entries.append((labs, 0.0))
        else:
            diam1 = d1[np.ix_(labs, labs)].max()
            diam2 = d2[np.ix_(labs, labs)].max()
            entries.append((labs, a * diam1 + b * diam2 + c))
    return ExplicitTableDiversity.from_entries(h, entries)


def random_cliques(n, rng, count_max=3, size_max=5):
    members, weights = [], []
    for _ in range(int(rng.integers(1, count_max + 1))):
        size = int(rng.integers(2, min(n, size_max) + 1))
        members.append(rng.choice(n, size=size, replace=False).tolist())
        weights.append(float(rng.uniform(0.3, 2.0)))
    return Cliques.from_lists(members, weights)


def random_diversity_model(rng, n_max=8, h_max=4):
    """Random energy model with an explicit-table diversity potential."""
    n = int(rng.integers(3, n_max + 1))
    h = int(rng.integers(2, h_max + 1))
    diversity = random_table_diversity(h, rng)
    unaries = rng.uniform(0.0, 3.0, size=(n, h))
    return EnergyModel(unaries, random_cliques(n, rng),
                       diversity)


def random_pn_potts_model(rng, n_max=8, h_max=4):
    """Random energy model with a shared consistency-cost potential."""
    n = int(rng.integers(2, n_max + 1))
    h = int(rng.integers(2, h_max + 1))
    gamma = rng.uniform(0.0, 2.0, size=h)
    gamma_max = float(gamma.max() + rng.uniform(0.1, 3.0))
    unaries = rng.uniform(0.0, 3.0, size=(n, h))
    return EnergyModel(unaries, random_cliques(n, rng, size_max=4),
                       PnPottsSpec(gamma, gamma_max))
