"""Problem files with one hostile edit fail loudly or run clean.

Each case starts from a bundled problem or, in its own test, a small random
problem whose symbols all have finite support (`conftest.finite_support_docs`),
and replaces one leaf with a hostile value, drops one key, or adds an unknown
key to one object (the top level, `problem`, a symbol, a series entry, a
generator, ...).  It writes the mutated problem file and runs check, solve, stats,
majorant and mc with both methods through `run_command`, at small orders,
64 samples and a 3-point grid.  Every command must return 0, 1 or 2 without
an exception escaping; an exit of 1 leaves exactly one `error:` line on
stderr; an exit of 0 from stats, majorant or mc writes only finite numbers.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randfrob.cli import run_command
from randfrob.specfile import bundled_problems
from conftest import BUNDLED, finite_support_docs

VALUES = [True, None, "", "nan", "inf", "1e400", 0, -1, 2**31, 2**64, [1], {"a": 1}]
GRID = "0:0.5:0.25"
DOCS = {name: json.loads(bundled_problems()[name].read_text()) for name in BUNDLED}


def nodes(node, path=()):
    """(path, node) for a JSON document and every value in it, list items included."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from nodes(value, path + (key,))


def mutated(doc, path, value, kind="leaf") -> dict:
    """A copy of `doc` with the value at `path` replaced ("leaf") or deleted
    ("drop"), or with an unknown key of that value added to the object at
    `path` ("add")."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path if kind == "add" else path[:-1]:
        node = node[key]
    if kind == "drop":
        del node[path[-1]]
    elif kind == "add":
        node["unknown"] = value
    else:
        node[path[-1]] = value
    return doc


def targets(doc, kind) -> list:
    """The paths in `doc` that an edit of `kind` can take."""
    found = list(nodes(doc))
    if kind == "leaf":
        return [path for path, node in found if not isinstance(node, (dict, list))]
    if kind == "drop":  # a key of an object; list items are indexed by int
        return [path for path, _ in found if path and isinstance(path[-1], str)]
    return [path for path, node in found if isinstance(node, dict)]


# (bundled problem, path) for every edit of each kind, so each path is equally likely
BUNDLED_TARGETS = {kind: [(name, path) for name in sorted(DOCS) for path in targets(DOCS[name], kind)]
                   for kind in ("leaf", "drop", "add")}


@st.composite
def finite_support_mutations(draw) -> dict:
    """A finite-support document with one edit of any kind."""
    doc = draw(finite_support_docs())
    kind = draw(st.sampled_from(["leaf", "drop", "add"]))
    return mutated(doc, draw(st.sampled_from(targets(doc, kind))), draw(st.sampled_from(VALUES)), kind)


def check_commands_on(doc):
    with tempfile.TemporaryDirectory() as tmp:
        spec = str(Path(tmp) / "mutated.spec")
        Path(spec).write_text(json.dumps(doc))
        mc = ["mc", spec, "--samples", "64", "--grid", GRID]
        commands = [
            (["check", spec], None),
            (["solve", spec, "--order", "4"], "solve.csv"),
            (["stats", spec, "--order", "4", "--grid", GRID], "stats.csv"),
            (["majorant", spec, "--s", "0.5", "--order", "6"], "majorant.csv"),
            (mc + ["--method", "series", "--order", "4"], "series.csv"),
            (mc + ["--method", "rk4", "--step", "0.05"], "rk4.csv"),
        ]
        for argv, out in commands:
            if out is not None:
                out = str(Path(tmp) / out)
                argv = argv + ["--out", out]
            out_text, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out_text), contextlib.redirect_stderr(err):
                code = run_command(argv)
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
            assert code in (0, 1, 2), argv
            if code == 1:
                assert len(errors) == 1, (argv, err.getvalue())
            if code == 0 and argv[0] != "solve" and out is not None:
                with open(out, newline="") as fp:
                    rows = list(csv.reader(fp))[1:]
                assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row), argv


# A mutated t0 or radius moves the grid out of the radius; that warning is expected.
@pytest.mark.filterwarnings("ignore:grid point")
@given(st.sampled_from(BUNDLED_TARGETS["leaf"]), st.sampled_from(VALUES))
@settings(max_examples=150, deadline=None)
def test_one_leaf_mutation(target, value):
    name, path = target
    check_commands_on(mutated(DOCS[name], path, value))


@pytest.mark.filterwarnings("ignore:grid point")
@given(st.sampled_from(["drop", "add"]), st.data())
@settings(max_examples=40, deadline=None)
def test_dropped_or_unknown_key(kind, data):
    name, path = data.draw(st.sampled_from(BUNDLED_TARGETS[kind]))
    check_commands_on(mutated(DOCS[name], path, data.draw(st.sampled_from(VALUES)), kind))


@pytest.mark.filterwarnings("ignore:grid point")
@given(finite_support_mutations())
@settings(max_examples=30, deadline=None)
def test_finite_support_mutation(doc):
    check_commands_on(doc)


@pytest.mark.parametrize("name,path,value", [
    ("hermite_forced", ("blocks", 0, "params", "trials"), 2**31),
    ("polynomial_data", ("symbols", 2, "params", "n"), 2**31),
    ("polynomial_data", ("symbols", 2, "params", "n"), "1e400"),
    ("beta_series", ("generators", "A", "M"), "1e400"),
    ("beta_series", ("generators", "A", "M"), 2**31),
    ("beta_series", ("generators", "B", "M"), "1e400"),
    ("beta_series", ("generators", "B", "M"), 2**31),
], ids=["multinomial-trials-2^31", "binomial-n-2^31", "binomial-n-1e400",
        "iid-M-1e400", "iid-M-2^31", "inverse-square-M-1e400", "inverse-square-M-2^31"])
def test_counting_and_generator_sizes_do_not_hang(name, path, value):
    # each of these enumerated a support or expanded a generator for minutes
    check_commands_on(mutated(DOCS[name], path, value))
