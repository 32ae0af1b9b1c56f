"""Problem-file loading, canonical serialization, and bundled problems.

Problem files are JSON documents (conventionally *.spec).  Numeric literals
are read with decimal semantics into exact rationals by `poly.to_fraction`,
so `0.35` means exactly 7/20; rationals may also be written as strings like
"7/20".  The canonical serialization renders every rational as such a string
with sorted keys, and round-trips: loading the canonical form yields the
same problem.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .errors import SpecError
from .poly import to_fraction

_PROBLEM_DIR = Path(__file__).resolve().parent / "problems"
_SUFFIX = ".spec"


def load_document(path) -> dict:
    """Parse a UTF-8 problem file into a document dict with exact rational numbers."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot read problem file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path}: {exc}") from exc
    return parse_document(text, source=str(path))


def parse_document(text: str, source: str = "<string>") -> dict:
    try:
        doc = json.loads(text, parse_float=to_fraction)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{source} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError(f"{source}: top level must be a JSON object")
    return doc


class _RationalEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, Fraction):
            return str(o)
        return super().default(o)


def canonical_json(doc: dict) -> str:
    """Deterministic text form: sorted keys, rationals as "p/q" strings."""
    return json.dumps(doc, cls=_RationalEncoder, sort_keys=True, indent=2) + "\n"


def bundled_problems() -> dict[str, Path]:
    """Name -> path map of the problem files shipped with the package."""
    return {
        p.stem: p for p in sorted(_PROBLEM_DIR.glob(f"*{_SUFFIX}"))
    }


def resolve_problem(arg: str) -> Path:
    """Resolve a CLI argument to a problem file: a path, or a bundled name."""
    path = Path(arg)
    if path.exists() and not path.is_dir():  # '' is '.', and ./airy/ must not hide bundled airy
        return path
    bundled = bundled_problems()
    name = arg[: -len(_SUFFIX)] if arg.endswith(_SUFFIX) else arg
    if name in bundled:
        return bundled[name]
    known = ", ".join(sorted(bundled))
    raise SpecError(
        f"no such problem file {arg!r} (bundled problems: {known})"
    )
