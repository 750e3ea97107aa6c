"""Instance builders: synthetic lattices, stereo matching and inpainting
models, plus PGM/PPM raster I/O."""

import warnings
from dataclasses import dataclass

import numpy as np

from .model import (Cliques, DiameterDiversity, EnergyModel,
                    InvalidInputError, LabelMetric)


# ---------------------------------------------------------------------------
# synthetic lattices
# ---------------------------------------------------------------------------

@dataclass
class GridSpec:
    width: int = 100
    height: int = 100
    num_labels: int = 20
    window: int = 10
    clique_weight: float = 1.0
    seed: int = 0
    # potential: diameter of a truncated linear metric
    lam: float = 1.0
    truncation: int = 5

    def validate(self):
        _check_label_count(self.num_labels)
        if self.window > min(self.width, self.height):
            raise InvalidInputError("clique window does not fit in the grid")
        if self.seed < 0:
            raise InvalidInputError("seed must be non-negative")


def _check_label_count(num_labels):
    if num_labels < 1:
        raise InvalidInputError("need at least one label")


def window_cliques(width, height, window, stride, weight):
    """One clique per window x window square of a raster-ordered grid,
    corners stride apart, row by row; members row by row within."""
    corners = (np.arange(0, height - window + 1, stride)[:, None] * width
               + np.arange(0, width - window + 1, stride)).reshape(-1)
    square = (np.arange(window)[:, None] * width
              + np.arange(window)).reshape(-1)
    return Cliques(np.arange(corners.size + 1) * square.size,
                   (corners[:, None] + square).reshape(-1),
                   np.full(corners.size, float(weight)))


def generate_synthetic(spec):
    """Random lattice instance: U(0, 100) unaries, one clique per window
    position, diameter diversity over a truncated linear metric."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n = spec.width * spec.height
    unaries = rng.uniform(0.0, 100.0, size=(n, spec.num_labels))
    cliques = window_cliques(spec.width, spec.height, spec.window, 1,
                             spec.clique_weight)
    metric = LabelMetric.truncated_linear(spec.num_labels, spec.lam,
                                          spec.truncation)
    return EnergyModel(unaries, cliques, DiameterDiversity(metric))


# ---------------------------------------------------------------------------
# image tasks
# ---------------------------------------------------------------------------

@dataclass
class ImageTask:
    kind: str                         # "stereo" | "inpaint"
    left: np.ndarray = None           # H x W x 3 (stereo) or H x W (inpaint)
    right: np.ndarray = None
    image: np.ndarray = None
    mask: np.ndarray = None           # True where the pixel is obscured
    superpixels: np.ndarray = None    # int region id per pixel
    num_labels: int = 16
    lam: float = 20.0
    truncation: int = 10
    sigma: float = 100.0
    unary_truncation: float = None
    grad_threshold: float = 8.0
    w_low: float = 1.0
    w_high: float = 2.0
    superpixel_block: int = 8         # fallback partition tile size


def block_partition(height, width, block):
    """Fallback superpixel map: a raster of B x B tiles with dense ids."""
    if block < 1:
        raise InvalidInputError("superpixel block size must be at least one")
    ys = np.arange(height) // block
    xs = np.arange(width) // block
    per_row = (width + block - 1) // block
    return (ys[:, None] * per_row + xs[None, :]).astype(np.int64)


def _ensure_superpixels(task, height, width):
    if task.superpixels is not None:
        sp = np.asarray(task.superpixels)
        if sp.shape != (height, width):
            raise InvalidInputError("superpixel map size mismatch")
        return sp
    warnings.warn("no superpixel map given; falling back to a block partition")
    return block_partition(height, width, task.superpixel_block)


def superpixel_cliques(region_map, intensity, sigma):
    """One clique per region in ascending id order, its pixels in raster
    order, weighted by exp(-var(intensity)/sigma^2)."""
    if not 0 < sigma < np.inf:
        raise InvalidInputError("sigma must be positive and finite")
    members = np.argsort(region_map.reshape(-1), kind="stable")
    flat_int = intensity.reshape(-1).astype(float)
    _, sizes = np.unique(region_map, return_counts=True)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    bounds = offsets.tolist()
    weights = [np.exp(-flat_int[members[a:b]].var() / sigma ** 2)
               for a, b in zip(bounds[:-1], bounds[1:])]
    return Cliques(offsets, members, weights)


def pairwise_cliques(height, width, weight_fn):
    """One clique per pair of 4-neighbours p < q: per pixel p in raster
    order, its right then its lower neighbour.  weight_fn maps the arrays
    of the pairs' p and q to their weights."""
    p = np.arange(height * width).reshape(height, width, 1)
    q = p + [1, width]
    inside = np.stack(np.broadcast_arrays(
        np.arange(width) + 1 < width, np.arange(height)[:, None] + 1 < height),
        axis=-1)
    p, q = np.broadcast_to(p, q.shape)[inside], q[inside]
    return Cliques(np.arange(p.size + 1) * 2,
                   np.stack((p, q), axis=1).reshape(-1), weight_fn(p, q))


def _grid_model(task, unaries, pair_weight, intensity):
    """An image task's model: pairwise cliques weighted by pair_weight,
    then one clique per superpixel, truncated-linear diameter potential."""
    height, width = intensity.shape
    pairs = pairwise_cliques(height, width, pair_weight)
    regions = superpixel_cliques(_ensure_superpixels(task, height, width),
                                 intensity, task.sigma)
    cliques = Cliques(
        np.append(pairs.offsets, regions.offsets[1:] + pairs.offsets[-1]),
        np.append(pairs.members, regions.members),
        np.append(pairs.weights, regions.weights))
    metric = LabelMetric.truncated_linear(unaries.shape[1], task.lam,
                                          task.truncation)
    return EnergyModel(unaries, cliques, DiameterDiversity(metric))


def _intensity(img):
    img = np.asarray(img, dtype=float)
    return img.mean(axis=2) if img.ndim == 3 else img


def build_stereo(task):
    """Disparity model: L1 RGB matching unaries, gradient-weighted pairwise
    terms, superpixel cliques, truncated-linear diameter potential."""
    left = np.asarray(task.left, dtype=float)
    right = np.asarray(task.right, dtype=float)
    if left.ndim == 2:
        left = left[:, :, None]
        right = right[:, :, None]
    if left.shape != right.shape:
        raise InvalidInputError("stereo images must have the same shape")
    height, width = left.shape[:2]
    n = height * width
    h = task.num_labels
    _check_label_count(h)
    if np.isnan(task.grad_threshold):
        raise InvalidInputError("gradient threshold must be a number")
    if task.unary_truncation is not None and not task.unary_truncation >= 0:
        raise InvalidInputError("unary truncation must be non-negative")

    # right-image column is the left column minus the disparity, edge-clamped
    unaries = np.empty((n, h))
    cols = np.arange(width)
    for d in range(h):
        shifted = right[:, np.clip(cols - d, 0, width - 1), :]
        diff = np.abs(left - shifted).sum(axis=2)
        unaries[:, d] = diff.reshape(-1)
    if task.unary_truncation is not None:
        np.minimum(unaries, task.unary_truncation, out=unaries)

    intensity = _intensity(left)
    flat = intensity.reshape(-1)

    def pair_weight(p, q):
        return np.where(np.abs(flat[p] - flat[q]) < task.grad_threshold,
                        float(task.w_high), float(task.w_low))

    return _grid_model(task, unaries, pair_weight, intensity)


def build_inpaint(task):
    """Intensity restoration model: squared-difference unaries on observed
    pixels (zero on obscured ones), unit pairwise weights, superpixel
    cliques, truncated-linear diameter potential."""
    img = np.asarray(task.image)
    if img.ndim != 2:
        raise InvalidInputError("inpainting expects a grayscale image")
    height, width = img.shape
    n = height * width
    h = task.num_labels
    _check_label_count(h)
    mask = np.zeros((height, width), dtype=bool) if task.mask is None \
        else np.asarray(task.mask, dtype=bool)
    if mask.shape != img.shape:
        raise InvalidInputError("mask size mismatch")

    labels = np.arange(h, dtype=float)
    unaries = (labels[None, :] - img.reshape(-1, 1).astype(float)) ** 2
    unaries[mask.reshape(-1)] = 0.0

    return _grid_model(task, unaries, lambda p, q: np.ones(p.size),
                       img.astype(float))


# ---------------------------------------------------------------------------
# raster I/O: binary PGM (P5) / PPM (P6)
# ---------------------------------------------------------------------------

def _read_header_token(f):
    token = b""
    while True:
        ch = f.read(1)
        if not ch:
            raise InvalidInputError("truncated raster header")
        if ch.isspace():
            if token:
                return token
            continue
        if ch == b"#":                 # comments tolerated on read
            while f.read(1) not in (b"\n", b""):
                pass
            continue
        token += ch


def read_raster(path):
    """Read a binary PGM/PPM; returns a 2-D (gray) or 3-D (RGB) uint array."""
    with open(path, "rb") as f:
        magic = _read_header_token(f)
        if magic not in (b"P5", b"P6"):
            raise InvalidInputError("unsupported raster magic %r" % magic)
        width = int(_read_header_token(f))
        height = int(_read_header_token(f))
        maxval = int(_read_header_token(f))
        if width < 1 or height < 1:
            raise InvalidInputError("raster width and height must be positive")
        channels = 3 if magic == b"P6" else 1
        wide = maxval > 255               # two bytes per sample
        count = width * height * channels
        # the read takes what the file holds, so a huge header cannot size it
        data = f.read()
        if count > len(data) // (2 if wide else 1):
            raise InvalidInputError("truncated raster data")
        data = np.frombuffer(data, ">u2" if wide else np.uint8, count)
        if wide:
            data = data.astype(np.uint16)
    if channels == 3:
        return data.reshape(height, width, 3)
    return data.reshape(height, width)


def write_raster(path, image):
    """Write a binary PGM (2-D input) or PPM (3-D input); no comments."""
    image = np.asarray(image)
    if image.ndim == 2:
        magic, channels = b"P5", 1
    elif image.ndim == 3 and image.shape[2] == 3:
        magic, channels = b"P6", 3
    else:
        raise InvalidInputError("raster must be H x W or H x W x 3")
    maxval = 65535 if image.max(initial=0) > 255 else 255
    dtype = ">u2" if maxval == 65535 else np.uint8
    with open(path, "wb") as f:
        f.write(b"%s\n%d %d\n%d\n" % (magic, image.shape[1], image.shape[0],
                                      maxval))
        f.write(np.ascontiguousarray(image, dtype=dtype).tobytes())


def labeling_to_raster(labeling, height, width, num_labels):
    """Scale label indices into 0..255 for visualization."""
    lab = np.asarray(labeling).reshape(height, width)
    if num_labels <= 1:
        return np.zeros((height, width), dtype=np.uint8)
    return (lab * 255 // (num_labels - 1)).astype(np.uint8)


def write_labeling_text(path, labeling):
    with open(path, "w") as f:
        for l in labeling:
            f.write("%d\n" % int(l))
