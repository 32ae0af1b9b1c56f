"""`compare` on mutated curve files fails loudly or runs clean.

Each case takes a `stats` or `mc` CSV written by the program, mutates its
text (short and long rows, blank lines, non-numeric and non-finite cells,
stray quotes, a cell past the csv module's field limit, dropped rows down
to a header-only file) and compares it with the unmutated file through
`run_command`, in either order.  Every run must
return 0 or 1 without an exception escaping, and an exit of 1 leaves
exactly one `error:` line on stderr.
"""

import contextlib
import functools
import io
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from randfrob.cli import run_command

GRID = "0:0.5:0.25"
SOURCES = {
    "stats": ["stats", "hermite_forced", "--order", "4", "--grid", GRID],
    "mc": ["mc", "hermite_forced", "--method", "series", "--order", "4", "--samples", "64",
           "--grid", GRID],
}
CELLS = ["", " ", "abc", "nan", "inf", "-inf", "1e400", "1e-400", "-0", "0x10", "1,5", '"', '"1"',
         "\x00", "1" * 400, "1" * 200_000]


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


@functools.cache
def source_text(name: str) -> str:
    """The CSV that `SOURCES[name]` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.csv"
        code, _, err = run(SOURCES[name] + ["--out", str(path)])
        assert code == 0, err
        return path.read_text()


@st.composite
def mutations(draw):
    """A list of edits to a CSV's rows of cells; row 0 is the header."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["short", "long", "cell", "drop", "header-only", "blank"]))
        edits.append((kind, draw(st.integers(0, 10)), draw(st.integers(0, 10)),
                      draw(st.sampled_from(CELLS))))
    return edits


def mutate(text: str, edits) -> str:
    """Apply `edits` to the rows of `text` and join the cells back unquoted."""
    rows = [line.split(",") for line in text.splitlines()]
    for kind, i, j, cell in edits:
        i %= len(rows)
        row = rows[i]
        j %= len(row) + 1
        if kind == "short" and row:
            row.pop(min(j, len(row) - 1))
        elif kind == "long":
            row.insert(j, cell)
        elif kind == "cell" and row:
            row[min(j, len(row) - 1)] = cell
        elif kind == "drop" and i > 0:
            del rows[i]
        elif kind == "header-only":
            del rows[1:]
        elif kind == "blank":
            rows.insert(i + 1, [])
    return "".join(",".join(row) + "\n" for row in rows)


def check_compare(source: str, edits, mutated_first: bool) -> None:
    text = source_text(source)
    with tempfile.TemporaryDirectory() as tmp:
        good, bad = Path(tmp) / "good.csv", Path(tmp) / "bad.csv"
        good.write_text(text)
        bad.write_text(mutate(text, edits))
        files = [str(bad), str(good)] if mutated_first else [str(good), str(bad)]
        code, out, err = run(["compare", *files])
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code in (0, 1), (code, err)
    if code == 1:
        assert len(errors) == 1, err
    else:
        assert out.startswith("compared") and not errors, (out, err)


@given(st.sampled_from(sorted(SOURCES)), mutations(), st.booleans())
@example("stats", [("header-only", 0, 0, "")], True).via("no data rows")
@example("mc", [("cell", 1, 3, "nan")], False).via("non-finite half-width")
@settings(max_examples=200, deadline=timedelta(seconds=2))
def test_mutated_curve_file(source, edits, mutated_first):
    check_compare(source, edits, mutated_first)


def test_unmutated_files_compare_clean(tmp_path):
    # the property's base files are valid curves, so an exit of 1 there comes from a mutation
    for source in SOURCES:
        path = tmp_path / f"{source}.csv"
        path.write_text(source_text(source))
        code, _, err = run(["compare", str(path), str(path)])
        assert code == 0, err
