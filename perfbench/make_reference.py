"""Regenerate reference.json: the SHA-256 of every exact op's output.

    python3 perfbench/make_reference.py

Exact output is a contract (identical Fractions, identical CSV bytes), so
run this only for a new op, never to absorb a changed result.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

from run import OUT_DIR, REFERENCE, import_cli
from workloads import WORKLOADS


def main() -> None:
    cli = import_cli()
    OUT_DIR.mkdir(exist_ok=True)
    digests = {}
    for workload in WORKLOADS.values():
        for op in workload.ops + workload.smoke_ops:
            if op.is_mc:
                continue
            path = OUT_DIR / "reference.out"
            argv = [*op.argv, "--out", str(path)] if op.writes_file else list(op.argv)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.run_command(argv)
            if rc != 0:
                raise SystemExit(f"{op.key()} exited {rc}")
            data = path.read_bytes() if op.writes_file else buf.getvalue().encode()
            digests[op.key()] = hashlib.sha256(data).hexdigest()
            print(f"{op.key()}: {digests[op.key()]}")
    REFERENCE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
