"""Data model for parsimonious labeling problems.

Holds the label set, metrics, diversity functions, cliques and the
energy functional.  Everything here is immutable after construction and
evaluation is deterministic.
"""

import functools
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


class LabelSet:
    """A dense, contiguous label index set 0..size-1."""

    def __init__(self, size):
        if size < 1:
            raise InvalidInputError("label set must contain at least one label")
        self.size = int(size)

    def __len__(self):
        return self.size

    def __iter__(self):
        return iter(range(self.size))

    def __eq__(self, other):
        return isinstance(other, LabelSet) and other.size == self.size

    def __repr__(self):
        return "LabelSet(%d)" % self.size


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class LabelMetric:
    """A metric d(l_i, l_j) over label indices, stored as a dense matrix."""

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

    def __call__(self, i, j):
        return float(self.matrix[i, j])

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
        # matrix row a is the window of row starting at H-1-a, so building
        # the matrix takes one H x H array instead of four.  (H = 0 still
        # yields one empty window, hence the slice.)
        row = lam * np.minimum(np.abs(np.arange(1 - num_labels, num_labels)),
                               truncation)
        windows = sliding_window_view(row, num_labels)[::-1]
        return LabelMetric(np.array(windows[:num_labels], dtype=float),
                           validate=False)

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
    """A set function over non-empty label subsets (see validate_diversity_axioms)."""

    num_labels = None

    def value(self, subset):
        raise NotImplementedError

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

    def induced_metric(self):
        # diameter of a pair is its distance
        return LabelMetric(self.metric.matrix)


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


def diameter_diversity(metric, subset):
    """Largest metric distance between any two labels of the subset."""
    return DiameterDiversity(metric).value(subset)


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

    kind = "pn_potts"

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

    def subset_value(self, subset):
        subset = set(subset)
        if not subset:
            raise InvalidInputError("empty clique labeling")
        if len(subset) == 1:
            return float(self.gamma[next(iter(subset))])
        return self.gamma_max


class DiversitySpec:
    """Clique potential: the diversity of the unique clique labels."""

    kind = "diversity_table"

    def __init__(self, diversity):
        self.diversity = diversity

    @property
    def num_labels(self):
        return self.diversity.num_labels

    def subset_value(self, subset):
        return self.diversity.value(subset)


class DiameterMetricSpec(DiversitySpec):
    """Clique potential: diameter diversity over a label metric."""

    kind = "diameter_metric"

    def __init__(self, metric):
        super().__init__(DiameterDiversity(metric))
        self.metric = metric


# ---------------------------------------------------------------------------
# the energy model
# ---------------------------------------------------------------------------

class Clique:
    def __init__(self, members, weight):
        members = tuple(map(int, members))
        if not members:
            raise InvalidInputError("clique must have at least one member")
        if len(set(members)) != len(members):
            raise InvalidInputError("clique members must be distinct")
        weight = float(weight)
        if not math.isfinite(weight):
            raise InvalidInputError("clique weight must be finite")
        if weight < 0:
            raise InvalidInputError("clique weight must be non-negative")
        self.members = members
        self.weight = weight
        self.members_arr = np.asarray(members, dtype=np.intp)
        self.members_arr.setflags(write=False)

    def __repr__(self):
        return "Clique(%r, w=%g)" % (list(self.members), self.weight)


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
        for c in cliques:
            if min(c.members) < 0 or max(c.members) >= n:
                raise InvalidInputError("clique member out of range")
        self.unaries = unaries
        self.unaries.setflags(write=False)
        self.cliques = tuple(cliques)
        self.potential = potential
        self.labels = LabelSet(h)

    @property
    def num_variables(self):
        return self.unaries.shape[0]

    @property
    def num_labels(self):
        return self.unaries.shape[1]

    @property
    def max_clique_size(self):
        return max((len(c.members) for c in self.cliques), default=0)

    @functools.cached_property
    def clique_arrays(self):
        """The cliques in CSR form, (offsets, members, weights): clique c
        is members[offsets[c]:offsets[c + 1]] with weight weights[c]."""
        offsets = np.zeros(len(self.cliques) + 1, dtype=np.intp)
        offsets[1:] = np.cumsum([len(c.members) for c in self.cliques],
                                dtype=np.intp)
        members = np.concatenate(
            [c.members_arr for c in self.cliques] or [np.zeros(0, np.intp)])
        weights = np.array([c.weight for c in self.cliques], dtype=float)
        for a in (offsets, members, weights):
            a.setflags(write=False)
        return offsets, members, weights

    def check_labeling(self, labeling):
        labeling = np.asarray(labeling, dtype=np.intp)
        if labeling.shape != (self.num_variables,):
            raise InvalidInputError("labeling length does not match variable count")
        if labeling.size and (labeling.min() < 0 or labeling.max() >= self.num_labels):
            raise InvalidInputError("label index out of range")
        return labeling

    def unary_energy(self, labeling):
        labeling = self.check_labeling(labeling)
        return float(self.unaries[np.arange(self.num_variables), labeling].sum())

    def clique_energy(self, labeling):
        labeling = self.check_labeling(labeling)
        total = 0.0
        for c in self.cliques:
            if c.weight == 0.0:
                continue
            total += c.weight * self.potential.subset_value(
                unique_labels(labeling, c))
        return total

    def evaluate_energy(self, labeling):
        return self.unary_energy(labeling) + self.clique_energy(labeling)


def unique_labels(labeling, clique):
    """The sorted set of unique labels the labeling assigns to a clique."""
    labeling = np.asarray(labeling)
    return tuple(sorted(set(int(l) for l in labeling[clique.members_arr])))


def evaluate_energy(model, labeling):
    return model.evaluate_energy(labeling)


def induced_metric(diversity):
    return diversity.induced_metric()


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

def _potential_from_json(spec, num_labels):
    kind = spec.get("kind")
    if kind == "pn_potts":
        return PnPottsSpec(spec["gamma"], spec["gamma_max"])
    if kind == "diversity_table":
        div = ExplicitTableDiversity.from_entries(
            num_labels, [(e["labels"], e["value"]) for e in spec["entries"]])
        return DiversitySpec(div)
    if kind == "diameter_metric":
        return DiameterMetricSpec(_metric_from_json(spec["metric"], num_labels))
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
    if isinstance(potential, DiameterMetricSpec):
        return {"kind": "diameter_metric",
                "metric": {"kind": "explicit",
                           "matrix": potential.metric.matrix.tolist()}}
    if isinstance(potential, DiversitySpec):
        div = potential.diversity
        if not isinstance(div, ExplicitTableDiversity):
            raise InvalidInputError("only table diversities serialize")
        h = div.num_labels
        entries = []
        for mask in range(1, 1 << h):
            labels = [i for i in range(h) if mask >> i & 1]
            entries.append({"labels": labels, "value": float(div.table[mask])})
        return {"kind": "diversity_table", "entries": entries}
    raise InvalidInputError("unknown potential type")


def model_from_json(doc):
    """Parse a problem document (dict) into an EnergyModel."""
    try:
        n = int(doc["num_variables"])
        h = int(doc["num_labels"])
        unaries = np.asarray(doc["unaries"], dtype=float).reshape(n, h)
        cliques = [Clique(c["members"], c["weight"]) for c in doc["cliques"]]
        potential = _potential_from_json(doc["potential"], h)
    except KeyError as e:
        raise InvalidInputError("missing field: %s" % e) from e
    return EnergyModel(unaries, cliques, potential)


def model_to_json(model):
    return {
        "num_variables": model.num_variables,
        "num_labels": model.num_labels,
        "unaries": model.unaries.reshape(-1).tolist(),
        "cliques": [{"members": list(c.members), "weight": c.weight}
                    for c in model.cliques],
        "potential": _potential_to_json(model.potential),
    }


def load_model(path):
    with open(path) as f:
        doc = json.load(f)
    return model_from_json(doc)


def save_model(model, path):
    with open(path, "w") as f:
        json.dump(model_to_json(model), f)
