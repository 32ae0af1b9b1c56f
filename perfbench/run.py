"""randfrob benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
Each op calls `randfrob.cli.run_command` in-process with a fresh spec, so it
pays what one CLI invocation pays apart from interpreter start-up, which
`setup_s` measures.  Rounds of the workload's ops repeat until `--seconds`
have passed (at least one round).  Every op's output is checked; a failed
check counts against `attempted`/`failed`.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds, at least two of each, prints the per-layer metrics derived
from the traced rounds' spans, and writes the spans to perfbench/out/.  A
traced op whose counts differ from its first traced round counts as failed.
The last stdout line is one JSON object with keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPEATS = 7

sys.path.insert(0, str(BENCH_DIR))
from workloads import (  # noqa: E402
    FLAGSHIP_ARGV, WORKLOADS, Op, check_flagship, check_mc, exact_means, read_rows,
)

SETUP_CODE = """
import sys
from time import perf_counter
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import randfrob
from randfrob.frobenius import build_problem
from randfrob.specfile import load_document, resolve_problem
for name in sys.argv[2:]:
    build_problem(load_document(resolve_problem(name)))
print(perf_counter() - t0)
"""


def import_cli():
    """Import randfrob from this checkout's src/, or exit 2 if it is absent."""
    if not (SRC / "randfrob" / "__init__.py").is_file():
        print(f"error: no randfrob package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import randfrob.cli

    return randfrob.cli


def measure_setup(specs) -> float:
    """Median time a fresh interpreter takes to import randfrob and build the specs.

    The child times itself, so process start-up and exit are left out.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *specs],
                              check=True, capture_output=True, text=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


class Runner:
    def __init__(self, cli, workload, ops, seed, digests):
        self.cli = cli
        self.workload = workload
        self.ops = ops
        self.seed = seed
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.exact = {}  # op label -> exact means for MC checks
        self.op_times = {op.label: [] for op in ops}
        self.failed_traced = set()  # tracer op ids of traced ops that failed their check

    def prepare(self) -> bool:
        """Run-level checks outside the timed ops; False if any fails."""
        ok = True
        if self.workload.flagship_check:
            path = OUT_DIR / "flagship.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.run_command([*FLAGSHIP_ARGV, "--out", str(path)])
            problem = f"exit status {rc}" if rc != 0 else check_flagship(read_rows(path))
            if problem:
                print(f"flagship check failed: {problem}", file=sys.stderr)
                ok = False
        for op in self.ops:
            if op.is_mc:
                try:
                    self.exact[op.label] = exact_means(op)
                except Exception:  # no reference: the MC checks below fail instead
                    traceback.print_exc()
        return ok

    def run_op(self, op: Op, tracer=None) -> float:
        """Run and check one op; return its wall time."""
        path = OUT_DIR / f"{op.label}.csv"
        argv = list(op.argv)
        if op.writes_file:
            argv += ["--out", str(path)]
        if op.is_mc:
            argv += ["--seed", str(self.seed)]
        buf = io.StringIO()
        self.attempted += 1
        problem = None
        gc.collect()  # start each op from a collected heap, as a fresh CLI process does
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.run_command(argv)
                else:
                    rc = tracer.run_op(op.label, self.cli.run_command, argv)
            except Exception:  # an op that raises is a failed op; keep measuring
                traceback.print_exc()
                rc = None
            elapsed = perf_counter() - t0
        if rc != 0:
            problem = f"exit status {rc}"
        else:
            try:
                problem = self.check_output(op, path, buf.getvalue())
            except (OSError, ValueError, KeyError) as exc:  # unreadable or malformed output
                problem = f"output check raised {exc!r}"
        if problem:
            self.failed += 1
            if tracer is not None:
                self.failed_traced.add(tracer.op_id)
            print(f"op failed: {op.key()}: {problem}", file=sys.stderr)
        return elapsed

    def check_output(self, op: Op, path: Path, stdout: str) -> str | None:
        if op.is_mc:
            if op.label not in self.exact:
                return "no exact mean to check against"
            return check_mc(read_rows(path), self.exact[op.label])
        data = path.read_bytes() if op.writes_file else stdout.encode()
        want = self.digests.get(op.key())
        if want is None:
            return "no reference digest"
        if hashlib.sha256(data).hexdigest() != want:
            return "output differs from the reference digest"
        return None

    def run_round(self, tracer=None) -> float:
        total = 0.0
        for op in self.ops:
            dt = self.run_op(op, tracer)
            if tracer is None:
                self.op_times[op.label].append(dt)
            total += dt
        return total


def end_to_end(runner: Runner, rounds: list[float], setup_s: float, ok: bool) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    error_rate = runner.failed / runner.attempted
    metrics = {
        "setup_s": (setup_s, "s"),
        "round_s": (statistics.median(rounds), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_rate": (1.0 - error_rate if ok else 0.0, "ratio"),
    }
    # The workload's own named metrics, for the report lines above the JSON.
    detail = {"error_rate": (error_rate if ok else 1.0, "ratio", runner.attempted)}
    for name, (kind, label) in runner.workload.named.items():
        if kind == "round_s":
            detail[name] = (statistics.median(rounds), "s", len(rounds))
        else:
            times = runner.op_times[label]
            med = statistics.median(times)
            if kind == "op_s":
                detail[name] = (med, "s", len(times))
            else:
                op = next(o for o in runner.ops if o.label == label)
                detail[name] = (op.samples / med, "draws/s", len(times))
    for label, times in runner.op_times.items():
        print(f"op {label}: median {statistics.median(times):.4f} s over {len(times)} ops")
    for name, (value, unit, n) in detail.items():
        print(f"{name}: {value:.6g} {unit} (n={n})")
    return metrics


def traced_metrics(runner, tracer, untraced, traced, workload_name) -> dict:
    metrics = tracer.layer_metrics(len(traced))
    metrics["trace_overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio")
    # Counts are deterministic: every traced round of an op must repeat them.
    first = {}
    for op, profile in tracer.count_profiles().items():
        label = tracer.op_labels[op]
        if first.setdefault(label, profile) != profile and op not in runner.failed_traced:
            runner.failed += 1
            print(f"op failed: {label}: counts differ from its first traced round",
                  file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    spans = OUT_DIR / f"spans-{workload_name}-seed{runner.seed}.jsonl"
    tracer.save(spans)
    print(f"spans written to {spans.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    cli = import_cli()
    workload = WORKLOADS[args.workload]
    ops = workload.smoke_ops if args.smoke else workload.ops
    digests = json.loads(REFERENCE.read_text())
    OUT_DIR.mkdir(exist_ok=True)
    os.environ["RANDFROB_THREADS"] = str(workload.threads)

    runner = Runner(cli, workload, ops, args.seed, digests)
    setup_s = measure_setup(workload.specs) if not args.trace else None
    ok = runner.prepare()

    untraced, traced = [], []
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        start = perf_counter()
        while len(traced) < 2 or perf_counter() - start < args.seconds:
            untraced.append(runner.run_round())
            tracer.install()
            try:
                traced.append(runner.run_round(tracer))
            finally:
                tracer.uninstall()
        metrics = traced_metrics(runner, tracer, untraced, traced, workload.name)
    else:
        start = perf_counter()
        while not untraced or perf_counter() - start < args.seconds:
            untraced.append(runner.run_round())
        metrics = end_to_end(runner, untraced, setup_s, ok)

    failed = runner.failed if ok else runner.attempted
    result = {
        "correct": ok and failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
