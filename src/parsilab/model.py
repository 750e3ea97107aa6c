"""Data model for parsimonious labeling problems.

Holds the label metrics, diversities, cliques and the energy functional.
A model's clique potential is a consistency cost (PnPottsSpec) or a
Diversity: the diameter diversity of a label metric, an explicit subset
table, or a subclass.  Each has num_labels, value(subset) and
clique_values(labs, offsets).  Every model keeps its cliques as one
Cliques, CSR arrays of members and weights that also carry all clique
validation; potentials evaluate every clique at once from those arrays.
A LabelMetric is checked once, when it is built, or is a metric by
construction.  Everything here is immutable after construction and
evaluation is deterministic.
"""

import itertools
import json
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

AXIOM_TOL = 1e-9

# explicit subset tables are enumerated over all 2^H - 1 subsets
MAX_TABLE_LABELS = 20


class InvalidInputError(ValueError):
    pass


class SolverError(RuntimeError):
    """A solver result failed one of its runtime self-checks."""


def require_finite(values, what):
    """Raise InvalidInputError unless every entry of values is finite."""
    if not np.isfinite(values).all():
        raise InvalidInputError("%s must be finite" % what)


def per_clique(ufunc, values, offsets):
    """ufunc reduced over each clique's stretch of values' last axis, which
    lists the members of every clique in CSR order: clique c owns the
    entries offsets[c]:offsets[c + 1]."""
    if not values.shape[-1]:
        return np.zeros(values.shape[:-1] + (offsets.size - 1,), values.dtype)
    return ufunc.reduceat(values, offsets[:-1], axis=-1)


def uniform_label(labs, offsets):
    """Per clique, whether its members' labels (labs, in CSR order) are all
    equal, and its smallest label, which is that label when they are."""
    low = per_clique(np.minimum, labs, offsets)
    return low == per_clique(np.maximum, labs, offsets), low


def check_labeling(labeling, unaries):
    """labeling as an index array, checked against the N x H unaries: one
    label in 0..H-1 per variable, else InvalidInputError."""
    labeling = np.asarray(labeling, dtype=np.intp)
    n, h = unaries.shape
    if labeling.shape != (n,):
        raise InvalidInputError("labeling length does not match variable count")
    if labeling.size and (labeling.min() < 0 or labeling.max() >= h):
        raise InvalidInputError("label index out of range")
    return labeling


def ordered_sum(start, costs):
    """start plus the costs added one by one in order: the same
    floating-point result as a loop, unlike the pairwise sum of np.sum."""
    return float(np.cumsum(np.concatenate(([start], costs)))[-1])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class LabelMetric:
    """A metric d(l_i, l_j) over label indices, stored as a dense matrix.

    The axioms are checked when the metric is built; with validate=False
    the caller vouches that the matrix is a metric, and nothing later
    checks it again.
    """

    def __init__(self, matrix, validate=True):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInputError("metric matrix must be square")
        self.matrix = m
        self.matrix.setflags(write=False)
        if validate:
            err = self.check()
            if err is not None:
                raise InvalidInputError("not a metric: %s" % err)

    @property
    def num_labels(self):
        return self.matrix.shape[0]

    def check(self, tol=AXIOM_TOL):
        """Return a description of the first violated metric axiom, or None."""
        m = self.matrix
        if not np.isfinite(m).all():
            return "distances must be finite"
        if np.any(m < -tol):
            return "negative distance"
        if np.any(np.abs(np.diag(m)) > tol):
            return "nonzero self-distance"
        if np.any(np.abs(m - m.T) > tol):
            return "asymmetric"
        off = m + np.eye(m.shape[0]) * (m.max(initial=0.0) + 1.0)
        if m.shape[0] >= 2 and off.min() <= tol:
            return "zero distance between distinct labels"
        # triangle inequality, exhaustively over all i,k,j, one row i at a
        # time so memory stays O(H^2)
        for i in range(m.shape[0]):
            through = (m[i][:, None] + m).min(axis=0)   # min_k d(i,k)+d(k,j)
            if np.any(through < m[i] - tol):
                return "triangle inequality violated"
        return None

    @staticmethod
    def truncated_linear(num_labels, lam, truncation):
        """d(a, b) = lam * min(|a - b|, truncation)."""
        if not (0 < lam < math.inf) or truncation < 1:
            raise InvalidInputError("need finite lam > 0 and truncation >= 1")
        # d depends on a - b alone: row holds it for a - b = 1-H .. H-1 and
        # matrix row a is the window of row starting at H-1-a.  The matrix
        # is that read-only view of row, so it takes O(H) memory, and a
        # solve's set-up allocates no H x H array.  (H = 0 still yields one
        # empty window, hence the slice.)
        row = lam * np.minimum(np.abs(np.arange(1.0 - num_labels,
                                                num_labels)), truncation)
        windows = sliding_window_view(row, num_labels)[::-1]
        return LabelMetric(windows[:num_labels], validate=False)

    @staticmethod
    def uniform(num_labels, scale):
        """d(a, b) = scale for a != b, 0 on the diagonal."""
        if not 0 < scale < math.inf:
            raise InvalidInputError(
                "uniform metric scale must be positive and finite")
        m = scale * (1.0 - np.eye(num_labels))
        return LabelMetric(m, validate=False)


# ---------------------------------------------------------------------------
# diversities
# ---------------------------------------------------------------------------

def _subset_mask(subset):
    mask = 0
    for l in subset:
        mask |= 1 << int(l)
    return mask


class Diversity:
    """A set function over non-empty label subsets (see
    validate_diversity_axioms); as a model's potential, each clique pays
    the diversity of its label set."""

    num_labels = None

    def value(self, subset):
        raise NotImplementedError

    def clique_values(self, labs, offsets):
        """The value of each clique's label set, where labs holds the
        members' labels in CSR order (see per_clique)."""
        bounds = offsets.tolist()
        return np.array([self.value(tuple(sorted(set(labs[a:b].tolist()))))
                         for a, b in zip(bounds[:-1], bounds[1:])],
                        dtype=float)

    def induced_metric(self):
        """The pairwise restriction d(l_i, l_j) = delta({l_i, l_j})."""
        h = self.num_labels
        m = np.zeros((h, h))
        for i in range(h):
            for j in range(i + 1, h):
                m[i, j] = m[j, i] = self.value((i, j))
        try:
            return LabelMetric(m)
        except InvalidInputError as e:
            raise InvalidInputError(
                "diversity does not induce a metric: %s" % e) from e


class DiameterDiversity(Diversity):
    """delta(Gamma) = max pairwise metric distance within Gamma."""

    def __init__(self, metric):
        self.metric = metric
        self.num_labels = metric.num_labels

    def value(self, subset):
        idx = np.fromiter(set(subset), dtype=int)
        if idx.size == 0:
            raise InvalidInputError("diversity of the empty set is undefined")
        if idx.size == 1:
            return 0.0
        return float(self.metric.matrix[np.ix_(idx, idx)].max())

    # label x member entries of one block of cliques in clique_values
    block_entries = 1 << 20

    def clique_values(self, labs, offsets):
        # cliques go in blocks of at most block_entries // H members (one
        # larger clique goes alone), so the temporaries stay bounded
        cap = max(1, self.block_entries // self.num_labels)
        values, c, count = [], 0, offsets.size - 1
        while c < count:
            stop = max(c + 1, int(np.searchsorted(
                offsets, offsets[c] + cap, side="right")) - 1)
            a, b = offsets[c], offsets[stop]
            values.append(self._block_values(labs[a:b],
                                             offsets[c:stop + 1] - a))
            c = stop
        return np.concatenate(values) if values else np.zeros(0)

    def _block_values(self, labs, offsets):
        sizes = np.diff(offsets)
        clique_of = np.repeat(np.arange(sizes.size), sizes)
        present = np.zeros((self.num_labels, sizes.size), dtype=bool)
        present[labs, clique_of] = True
        # per member: its largest distance to a label of its clique, which
        # takes O(H x members) memory rather than O(H^2 x cliques); labels
        # run along the first axis, so the max is taken across long rows
        reach = np.where(np.take(present, clique_of, axis=1),
                         np.take(self.metric.matrix, labs, axis=1),
                         -np.inf).max(axis=0)
        return np.where(present.sum(axis=0) == 1, 0.0,
                        per_clique(np.maximum, reach, offsets))

    def induced_metric(self):
        # diameter of a pair is its distance
        return self.metric


class ExplicitTableDiversity(Diversity):
    """Diversity given by an explicit table over all non-empty subsets.

    The table is indexed by the subset bitmask; entry 0 (empty set) is unused.
    Only feasible for small label sets.
    """

    def __init__(self, num_labels, table):
        if num_labels > MAX_TABLE_LABELS:
            raise InvalidInputError(
                "explicit tables support at most %d labels" % MAX_TABLE_LABELS)
        table = np.asarray(table, dtype=float)
        if table.shape != (1 << num_labels,):
            raise InvalidInputError(
                "table must have 2^num_labels entries (bitmask-indexed)")
        require_finite(table[1:], "diversity values")
        self.num_labels = num_labels
        self.table = table
        self.table.setflags(write=False)

    @classmethod
    def from_entries(cls, num_labels, entries):
        """Build from (subset, value) pairs covering every non-empty subset."""
        table = np.full(1 << num_labels, np.nan)
        table[0] = 0.0
        for subset, v in entries:
            table[_subset_mask(subset)] = v
        if np.any(np.isnan(table)):
            raise InvalidInputError("table is missing some non-empty subsets")
        return cls(num_labels, table)

    def value(self, subset):
        mask = _subset_mask(set(subset))
        if mask == 0:
            raise InvalidInputError("diversity of the empty set is undefined")
        return float(self.table[mask])

    def clique_values(self, labs, offsets):
        return self.table[per_clique(np.bitwise_or, 1 << labs, offsets)]


def validate_diversity_axioms(diversity, num_labels=None, tol=AXIOM_TOL,
                              rng=None, num_samples=20000):
    """Check the diversity axioms, returning a list of violations.

    Each violation is a (axiom_name, witness_subsets) pair; an empty list
    means the function passed.  Non-negativity and monotonicity are checked
    over all subsets; the union triangle inequality needs a triple of
    subsets, so it is exhaustive only for small label sets (H <= 6) and
    randomly sampled otherwise.
    """
    h = num_labels if num_labels is not None else diversity.num_labels
    nsub = 1 << h
    vals = np.empty(nsub)
    vals[0] = 0.0
    members = [()] + [None] * (nsub - 1)
    for mask in range(1, nsub):
        sub = tuple(i for i in range(h) if mask >> i & 1)
        members[mask] = sub
        vals[mask] = diversity.value(sub)

    violations = []
    for mask in range(1, nsub):
        if vals[mask] < -tol:
            violations.append(("non-negativity", (members[mask],)))
        single = mask & (mask - 1) == 0
        if single and abs(vals[mask]) > tol:
            violations.append(("zero-on-singletons", (members[mask],)))
        if not single and vals[mask] <= tol:
            violations.append(("positive-on-multisets", (members[mask],)))
        # monotonicity against every superset reached by adding one label
        for i in range(h):
            sup = mask | (1 << i)
            if sup != mask and vals[mask] > vals[sup] + tol:
                violations.append(("monotonicity", (members[mask], members[sup])))

    def triangle_ok(g1, g2, g3):
        return vals[g1 | g2] + vals[g2 | g3] >= vals[g1 | g3] - tol

    if h <= 6:
        for g2 in range(1, nsub):
            for g1 in range(nsub):
                for g3 in range(nsub):
                    if not triangle_ok(g1, g2, g3):
                        violations.append(
                            ("triangle", (members[g1], members[g2], members[g3])))
    else:
        rng = np.random.default_rng(0) if rng is None else rng
        trip = rng.integers(0, nsub, size=(num_samples, 3))
        for g1, g2, g3 in trip:
            if g2 and not triangle_ok(g1, g2, g3):
                violations.append(
                    ("triangle", (members[g1], members[g2], members[g3])))
    return violations


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

class PnPottsSpec:
    """Clique potential: gamma[k] when the clique is uniformly labeled l_k,
    gamma_max otherwise."""

    def __init__(self, gamma, gamma_max):
        self.gamma = np.asarray(gamma, dtype=float)
        self.gamma_max = float(gamma_max)
        require_finite(self.gamma, "gamma values")
        require_finite(self.gamma_max, "gamma_max")
        if np.any(self.gamma < 0) or self.gamma_max < 0:
            raise InvalidInputError("gamma values must be non-negative")
        if np.any(self.gamma >= self.gamma_max):
            raise InvalidInputError("gamma_max must exceed every gamma[k]")
        self.gamma.setflags(write=False)

    @property
    def num_labels(self):
        return self.gamma.shape[0]

    def value(self, subset):
        subset = set(subset)
        if not subset:
            raise InvalidInputError("empty clique labeling")
        if len(subset) == 1:
            return float(self.gamma[next(iter(subset))])
        return self.gamma_max

    def clique_values(self, labs, offsets):
        """Per clique, gamma of its label if uniformly labeled, else
        gamma_max (labs in CSR order, see per_clique)."""
        uniform, low = uniform_label(labs, offsets)
        return np.where(uniform, self.gamma[low], self.gamma_max)


# ---------------------------------------------------------------------------
# the energy model
# ---------------------------------------------------------------------------

class Cliques:
    """Weighted cliques in CSR form: clique c has the members
    members[offsets[c]:offsets[c + 1]] and the weight weights[c].

    The arrays are read-only.  Each clique has distinct members and a
    finite non-negative weight; its model calls check_members.
    """

    def __init__(self, offsets, members, weights):
        offsets = _index_array(offsets, "clique offsets")
        members = _index_array(members, "clique members")
        weights = np.asarray(weights, dtype=float)
        count = weights.size
        if (weights.ndim != 1 or offsets.shape != (count + 1,)
                or offsets[0] != 0 or offsets[-1] != members.size):
            raise InvalidInputError("inconsistent clique arrays")
        sizes = np.diff(offsets)
        if np.any(sizes < 1):
            raise InvalidInputError("clique must have at least one member")
        if members.size and members.min() < 0:
            raise InvalidInputError("clique member out of range")
        keys = np.sort(np.repeat(np.arange(count), sizes)
                       * (members.max(initial=0) + 1) + members)
        if np.any(keys[1:] == keys[:-1]):
            raise InvalidInputError("clique members must be distinct")
        require_finite(weights, "clique weights")
        if np.any(weights < 0):
            raise InvalidInputError("clique weight must be non-negative")
        self._set(offsets, members, weights, sizes)

    def _set(self, offsets, members, weights, sizes):
        for a in (offsets, members, weights, sizes):
            a.setflags(write=False)
        self.offsets, self.members, self.weights = offsets, members, weights
        self.sizes, self.max_size = sizes, int(sizes.max(initial=0))

    @classmethod
    def from_lists(cls, members, weights):
        """Cliques from one member list and one weight per clique."""
        flat = np.array(list(itertools.chain.from_iterable(members)))
        return cls(np.cumsum([0] + [len(m) for m in members]), flat, weights)

    def select(self, keep):
        """The cliques where the boolean mask keep is True, in order.

        A subset of valid cliques is valid, so it is not checked again.
        """
        sizes = self.sizes[keep]
        offsets = np.zeros(sizes.size + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        subset = Cliques.__new__(Cliques)
        subset._set(offsets, self.members[np.repeat(keep, self.sizes)],
                    self.weights[keep], sizes)
        return subset

    def __len__(self):
        return self.weights.size

    def check_members(self, num_variables):
        """Raise InvalidInputError unless members < num_variables."""
        if self.members.size and self.members.max() >= num_variables:
            raise InvalidInputError("clique member out of range")


def _index_array(values, what):
    """values as a flat intp array; integral floats are taken, anything
    else but a flat list of integers raises InvalidInputError."""
    a = np.asarray(values)
    if a.dtype.kind == "f" and np.all(np.isfinite(a) & (a == np.trunc(a))):
        a = a.astype(np.intp)
    if a.ndim != 1 or a.dtype.kind not in "iu":
        raise InvalidInputError("%s must be a flat list of integers" % what)
    return a.astype(np.intp, copy=False)


class EnergyModel:
    """Unary costs plus weighted clique potentials over unique label sets."""

    def __init__(self, unaries, cliques, potential):
        unaries = np.asarray(unaries, dtype=float)
        if unaries.ndim != 2:
            raise InvalidInputError("unaries must be an N x H table")
        require_finite(unaries, "unaries")
        n, h = unaries.shape
        if potential.num_labels != h:
            raise InvalidInputError("potential label count does not match unaries")
        cliques.check_members(n)
        self.unaries = unaries
        self.unaries.setflags(write=False)
        self.cliques = cliques
        self.potential = potential

    @property
    def num_variables(self):
        return self.unaries.shape[0]

    @property
    def num_labels(self):
        return self.unaries.shape[1]

    def evaluate_energy(self, labeling):
        labeling = check_labeling(labeling, self.unaries)
        unary = self.unaries[np.arange(self.num_variables), labeling].sum()
        c = self.cliques
        clique = ordered_sum(0.0, c.weights * self.potential.clique_values(
            labeling[c.members], c.offsets))
        return float(unary) + clique


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

def _potential_from_json(spec, num_labels):
    kind = spec.get("kind")
    if kind == "pn_potts":
        return PnPottsSpec(spec["gamma"], spec["gamma_max"])
    if kind == "diversity_table":
        return ExplicitTableDiversity.from_entries(
            num_labels, [(e["labels"], e["value"]) for e in spec["entries"]])
    if kind == "diameter_metric":
        return DiameterDiversity(_metric_from_json(spec["metric"], num_labels))
    raise InvalidInputError("unknown potential kind: %r" % kind)


def _metric_from_json(spec, num_labels):
    kind = spec.get("kind")
    if kind == "explicit":
        m = LabelMetric(spec["matrix"])
        if m.num_labels != num_labels:
            raise InvalidInputError("metric size does not match num_labels")
        return m
    if kind == "truncated_linear":
        return LabelMetric.truncated_linear(num_labels, spec["lam"], spec["M"])
    if kind == "uniform":
        return LabelMetric.uniform(num_labels, spec["scale"])
    raise InvalidInputError("unknown metric kind: %r" % kind)


def _potential_to_json(potential):
    if isinstance(potential, PnPottsSpec):
        return {"kind": "pn_potts", "gamma": potential.gamma.tolist(),
                "gamma_max": potential.gamma_max}
    if isinstance(potential, DiameterDiversity):
        return {"kind": "diameter_metric",
                "metric": {"kind": "explicit",
                           "matrix": potential.metric.matrix.tolist()}}
    if isinstance(potential, ExplicitTableDiversity):
        h = potential.num_labels
        entries = []
        for mask in range(1, 1 << h):
            labels = [i for i in range(h) if mask >> i & 1]
            entries.append({"labels": labels,
                            "value": float(potential.table[mask])})
        return {"kind": "diversity_table", "entries": entries}
    raise InvalidInputError("only consistency costs, diameter and table "
                            "diversities serialize")


def model_from_json(doc):
    """Parse a problem document (dict) into an EnergyModel."""
    if not isinstance(doc, dict):
        raise InvalidInputError("problem must be a JSON object")
    try:
        n, h = doc["num_variables"], doc["num_labels"]
        if type(n) is not int or type(h) is not int or n < 0 or h < 1:
            raise InvalidInputError("num_variables must be an integer >= 0 "
                                    "and num_labels an integer >= 1")
        unaries = np.asarray(doc["unaries"], dtype=float).reshape(n, h)
        cliques = Cliques.from_lists(
            [c["members"] for c in doc["cliques"]],
            [c["weight"] for c in doc["cliques"]])
        potential = _potential_from_json(doc["potential"], h)
    except InvalidInputError:
        raise
    except KeyError as e:
        raise InvalidInputError("missing field: %s" % e) from e
    except (TypeError, AttributeError, ValueError) as e:
        # numpy raises ValueError for text, ragged or wrongly sized arrays
        raise InvalidInputError("malformed problem: %s" % e) from e
    return EnergyModel(unaries, cliques, potential)


def model_to_json(model):
    c = model.cliques
    return {
        "num_variables": model.num_variables,
        "num_labels": model.num_labels,
        "unaries": model.unaries.reshape(-1).tolist(),
        "cliques": [{"members": m.tolist(), "weight": w} for m, w in
                    zip(np.split(c.members, c.offsets[1:-1]),
                        c.weights.tolist())],
        "potential": _potential_to_json(model.potential),
    }


def load_model(path):
    with open(path) as f:
        doc = json.load(f)
    return model_from_json(doc)


def save_model(model, path):
    with open(path, "w") as f:
        json.dump(model_to_json(model), f)
