"""Instance builders and raster I/O."""

import numpy as np
import pytest

from parsilab.model import InvalidInputError
from parsilab.solver import solve_parsimonious
from parsilab.tasks import (GridSpec, ImageTask, block_partition, build_inpaint,
                            build_stereo, generate_synthetic,
                            labeling_to_raster, pairwise_cliques,
                            read_raster, superpixel_cliques, window_cliques,
                            write_labeling_text, write_raster)
from reference import random_rhst


# ---------------------------------------------------------------------------
# synthetic lattices
# ---------------------------------------------------------------------------

def test_window_clique_count():
    cliques = window_cliques(100, 100, 10, 1, 1.0)
    assert len(cliques) == 8281
    assert np.all(cliques.sizes == 100)


def test_grid_spec_validation():
    with pytest.raises(InvalidInputError):
        GridSpec(width=3, height=3, window=4).validate()
    with pytest.raises(InvalidInputError):
        GridSpec(stride=0).validate()


def test_zero_weight_grid_solves_to_unary_argmin():
    spec = GridSpec(width=4, height=4, num_labels=3, window=2,
                    clique_weight=0.0, seed=0, truncation=2)
    model = generate_synthetic(spec)
    labeling, _ = solve_parsimonious(model, k=2, seed=0)
    np.testing.assert_array_equal(labeling, model.unaries.argmin(axis=1))


def test_grid_determinism():
    spec = GridSpec(width=4, height=4, num_labels=3, window=2, seed=5)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    np.testing.assert_array_equal(a.unaries, b.unaries)


# ---------------------------------------------------------------------------
# random trees
# ---------------------------------------------------------------------------

def test_random_tree_single_label():
    tree = random_rhst(1, seed=0)
    assert tree.num_nodes == 1
    assert tree.num_labels == 1


def test_random_tree_invariants():
    tree = random_rhst(4, r=2.0, depth=3, seed=1)
    assert tree.check() is None
    assert tree.num_labels == 4


def test_random_tree_determinism():
    a = random_rhst(6, r=2.0, depth=4, seed=3)
    b = random_rhst(6, r=2.0, depth=4, seed=3)
    np.testing.assert_allclose(a.metric().matrix, b.metric().matrix)


# ---------------------------------------------------------------------------
# stereo
# ---------------------------------------------------------------------------

def test_stereo_identical_images_zero_unary_at_zero():
    rng = np.random.default_rng(4)
    img = rng.integers(0, 255, size=(5, 6, 3)).astype(np.uint8)
    task = ImageTask(kind="stereo", left=img, right=img, num_labels=3,
                     superpixels=block_partition(5, 6, 3))
    model = build_stereo(task)
    assert np.all(model.unaries[:, 0] == 0.0)


def test_uniform_superpixel_weight_is_one():
    region = np.zeros((4, 4), dtype=np.int64)
    intensity = np.full((4, 4), 7.0)
    cliques = superpixel_cliques(region, intensity, sigma=100.0)
    assert len(cliques) == 1
    assert cliques.weights[0] == 1.0


def test_pairwise_clique_count():
    cliques = pairwise_cliques(3, 4, lambda p, q: np.ones(p.size))
    # 3 rows x 3 horizontal + 2 x 4 vertical
    assert len(cliques) == 9 + 8


def test_stereo_gradient_weights():
    left = np.zeros((1, 4), dtype=float)
    left[0, 2:] = 100.0                      # one sharp vertical edge
    task = ImageTask(kind="stereo", left=left, right=left, num_labels=2,
                     grad_threshold=8.0, w_low=1.0, w_high=2.0,
                     superpixels=np.zeros((1, 4), dtype=np.int64))
    model = build_stereo(task)
    pair_weights = model.cliques.weights[model.cliques.sizes == 2]
    assert sorted(pair_weights) == [1.0, 2.0, 2.0]


# ---------------------------------------------------------------------------
# inpainting
# ---------------------------------------------------------------------------

def test_inpaint_unaries_are_squared_differences():
    img = np.full((1, 1), 100, dtype=np.uint8)
    task = ImageTask(kind="inpaint", image=img, num_labels=128,
                     superpixels=np.zeros((1, 1), dtype=np.int64))
    model = build_inpaint(task)
    assert model.unaries[0, 100] == 0.0
    assert model.unaries[0, 110] == 100.0


def test_inpaint_masked_pixels_cost_nothing():
    img = np.full((2, 2), 9, dtype=np.uint8)
    mask = np.ones((2, 2), dtype=bool)
    task = ImageTask(kind="inpaint", image=img, mask=mask, num_labels=4,
                     superpixels=np.zeros((2, 2), dtype=np.int64))
    model = build_inpaint(task)
    assert np.all(model.unaries == 0.0)
    # any uniform labeling costs nothing
    for k in range(4):
        assert model.evaluate_energy([k] * 4) == 0.0


def test_missing_superpixels_falls_back_with_warning():
    img = np.zeros((4, 4), dtype=np.uint8)
    task = ImageTask(kind="inpaint", image=img, num_labels=2,
                     superpixel_block=2)
    with pytest.warns(UserWarning):
        model = build_inpaint(task)
    assert np.sum(model.cliques.sizes == 4) == 4      # 2x2 tiles


def test_block_partition_dense_ids():
    part = block_partition(5, 7, 3)
    assert part.shape == (5, 7)
    ids = np.unique(part)
    np.testing.assert_array_equal(ids, np.arange(ids.size))


# ---------------------------------------------------------------------------
# raster I/O
# ---------------------------------------------------------------------------

def test_gray_raster_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(6, 5)).astype(np.uint8)
    path = tmp_path / "img.pgm"
    write_raster(path, img)
    np.testing.assert_array_equal(read_raster(path), img)


def test_color_raster_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    img = rng.integers(0, 256, size=(4, 3, 3)).astype(np.uint8)
    path = tmp_path / "img.ppm"
    write_raster(path, img)
    np.testing.assert_array_equal(read_raster(path), img)


def test_sixteen_bit_roundtrip(tmp_path):
    img = np.array([[0, 300], [65535, 12]], dtype=np.uint16)
    path = tmp_path / "img16.pgm"
    write_raster(path, img)
    np.testing.assert_array_equal(read_raster(path), img)


def test_raster_comments_tolerated(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x07\x09")
    np.testing.assert_array_equal(read_raster(path), [[7, 9]])


def test_truncated_raster_rejected(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(InvalidInputError):
        read_raster(path)


def test_labeling_to_raster_scaling():
    out = labeling_to_raster([0, 1, 2, 3], 2, 2, 4)
    np.testing.assert_array_equal(out, [[0, 85], [170, 255]])


def test_write_labeling_text(tmp_path):
    path = tmp_path / "lab.txt"
    write_labeling_text(path, np.array([0, 2, 1]))
    assert path.read_text() == "0\n2\n1\n"
