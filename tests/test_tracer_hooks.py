"""The benchmark tracer still finds every randfrob name it wraps.

`perfbench/spans.py` raises from `Tracer.install()` when a function or
method it hooks is renamed or gone; this runs that lookup without a
benchmark run.  The module runs from its source text, which stays as it is.
"""

import types
from pathlib import Path

import randfrob.cli as cli
from randfrob import mcengine, uqstats
from randfrob.poly import Poly
from randfrob.randmodel import RandomModel

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """The module, run from its source text so no bytecode is written beside it."""
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def snapshot() -> dict[str, dict]:
    """The attributes of every module and class the tracer patches."""
    owners = {"cli": cli, "mcengine": mcengine, "uqstats": uqstats,
              "Poly": Poly, "RandomModel": RandomModel}
    return {name: dict(vars(owner)) for name, owner in owners.items()}


def test_install_wraps_every_hook_and_uninstall_restores():
    spans = load_spans()
    before = snapshot()
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises if a name it hooks is gone
        during = snapshot()
    finally:
        tracer.uninstall()
    assert snapshot() == before
    changed = {(name, attr) for name, attrs in before.items()
               for attr, value in attrs.items() if during[name][attr] is not value}
    assert changed == (
        {("cli", attr) for attr, _ in spans.CLI_NAMES}
        | {(cls, attr) for cls, attr, _ in spans.METHODS}
        | {("uqstats", "_pairwise_expect"), ("mcengine", "_steps_for"),
           ("mcengine", "_run_chunks")}
    )
