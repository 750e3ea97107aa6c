"""Schema fuzzing: mutated input files exit 0 or 2, never with a traceback.

Valid problem files, tree documents and raster headers are mutated at
random (derandomized): a value swapped for one of another type, wrapped in
a list, turned into text or removed; NaN, infinities, integers beyond the
largest double, negative and empty values.  Every command that reads the
file must then succeed or refuse it as invalid input (exit 2).  A numpy
RuntimeWarning counts as a failure too: a refused input is refused before
it reaches arithmetic.
"""

import copy
import json
import math
import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsilab import cli
from parsilab.tasks import write_raster
from reference import random_rhst, tree_to_json

DATA = os.path.join(os.path.dirname(__file__), "data")
PROBLEMS = ["tiny_problem.json", "pn_problem.json", "lattice_problem.json",
            "zero_energy_problem.json",
            "zero_weight_wide_metric_problem.json"]
TREES = [tree_to_json(random_rhst(4, seed=0)),
         tree_to_json(random_rhst(7, depth=4, seed=1, chains=0.5))]

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

HUGE = 10 ** 400                       # an integer beyond the largest double
REPLACEMENTS = st.sampled_from([
    math.nan, math.inf, -math.inf, HUGE, -HUGE, -1, -0.5, 0, 2.5, True, None,
    "", "x", [], {}, [[]], [1, [2]], {"kind": None}])


@st.composite
def mutated(draw, doc):
    """doc with one to three values replaced, wrapped in a list, turned
    into text or removed, each found by a random walk from the root."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, value = None, None, doc
        while isinstance(value, (dict, list)) and value \
                and draw(st.integers(0, 4)):
            key = draw(st.sampled_from(
                sorted(value) if isinstance(value, dict)
                else range(len(value))))
            parent, value = value, value[key]
        how = draw(st.sampled_from(["replace", "wrap", "text", "remove"]))
        if how == "remove" and parent is not None:
            del parent[key]
            continue
        if how == "wrap":
            new = [value]
        elif how == "text":
            new = json.dumps(value)
        else:                          # a fresh copy: no value is shared
            new = copy.deepcopy(draw(REPLACEMENTS))
        if parent is None:
            doc = new
        else:
            parent[key] = new
    return doc


def _exit_code(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return cli.main(argv)


def _write_json(directory, doc):
    path = os.path.join(directory, "input.json")
    with open(path, "w") as f:
        json.dump(doc, f)              # NaN and the infinities as JS tokens
    return path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


@SETTINGS
@given(data=st.data())
def test_mutated_problem_exits_0_or_2(workdir, data):
    with open(os.path.join(DATA, data.draw(st.sampled_from(PROBLEMS)))) as f:
        doc = data.draw(mutated(json.load(f)))
    path = _write_json(workdir, doc)
    assert _exit_code(["validate", path]) in (cli.EXIT_OK, cli.EXIT_INPUT)
    assert _exit_code(["solve", path, "-k", "1"]) \
        in (cli.EXIT_OK, cli.EXIT_INPUT)


@SETTINGS
@given(data=st.data())
def test_mutated_tree_exits_0_or_2(workdir, data):
    doc = data.draw(mutated(data.draw(st.sampled_from(TREES))))
    path = _write_json(workdir, doc)
    assert _exit_code(["validate", path]) in (cli.EXIT_OK, cli.EXIT_INPUT)


HEADER_TOKENS = st.sampled_from([
    "0", "1", "2", "-1", "-3", "255", "256", "65535", "65536", "1e3",
    "nan", "x", "3.0", str(HUGE), str(2 ** 40)])


@pytest.mark.filterwarnings("ignore:no superpixel map given")
@SETTINGS
@given(command=st.sampled_from(["inpaint", "stereo"]),
       field=st.sampled_from(["width", "height", "maxval"]),
       token=HEADER_TOKENS)
def test_mutated_raster_header_exits_0_or_2(workdir, command, field, token):
    """One header field of a 3x3 image (the left one of a stereo pair)
    replaced."""
    header = {"width": "3", "height": "3", "maxval": "255"}
    header[field] = token
    magic, channels = (b"P5", 1) if command == "inpaint" else (b"P6", 3)
    image = os.path.join(workdir, "image")
    with open(image, "wb") as f:
        f.write(b"%s\n%s %s\n%s\n" % (magic, header["width"].encode(),
                                      header["height"].encode(),
                                      header["maxval"].encode()))
        f.write(bytes(range(9 * channels)))
    inputs = [image]
    if command == "stereo":
        inputs.append(os.path.join(workdir, "right.ppm"))
        write_raster(inputs[-1], [[[0, 1, 2]] * 3] * 3)
    argv = [command, *inputs, "--out", os.path.join(workdir, "out.pgm"),
            "--labels", "2", "--block", "3", "-k", "1"]
    assert _exit_code(argv) in (cli.EXIT_OK, cli.EXIT_INPUT)
