"""Bundled problems with one leaf replaced by a hostile value fail loudly or run clean.

Each case writes the mutated problem file and runs check, solve, stats,
majorant and mc with both methods through `run_command`, at small orders,
64 samples and a 3-point grid.  Every command must return 0, 1 or 2 without
an exception escaping; an exit of 1 leaves exactly one `error:` line on
stderr, unless it is a check verdict of "fail"; an exit of 0 from stats,
majorant or mc writes only finite numbers.
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
from conftest import BUNDLED

VALUES = [True, None, "", "nan", "inf", "1e400", 0, -1, 2**31, [1], {"a": 1}]
GRID = "0:0.5:0.25"
DOCS = {name: json.loads(bundled_problems()[name].read_text()) for name in BUNDLED}


def leaves(node, path=()):
    """Paths to every scalar in a JSON document, list items included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, path + (i,))
    else:
        yield path


LEAVES = [(name, path) for name, doc in DOCS.items() for path in leaves(doc)]


def mutated(name, path, value) -> dict:
    doc = json.loads(json.dumps(DOCS[name]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


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
            # a check whose hypotheses fail reports that verdict on stdout, not as an error
            verdict = argv[0] == "check" and out_text.getvalue().startswith("status: fail")
            if code == 1 and not verdict:
                assert len(errors) == 1, (argv, err.getvalue())
            if code == 0 and argv[0] != "solve" and out is not None:
                with open(out, newline="") as fp:
                    rows = list(csv.reader(fp))[1:]
                assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row), argv


# A mutated t0 or radius moves the grid out of the radius; that warning is expected.
@pytest.mark.filterwarnings("ignore:grid point")
@given(st.sampled_from(LEAVES), st.sampled_from(VALUES))
@settings(max_examples=150, deadline=None)
def test_one_leaf_mutation(leaf, value):
    check_commands_on(mutated(*leaf, value))


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
    check_commands_on(mutated(name, path, value))
