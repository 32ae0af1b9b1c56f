"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

For every workload it runs `run.py --smoke` untraced and traced, with two
seeds, and fails (exit 1) unless:
  - the metrics printed are exactly those BENCHMARK.json names, with units;
  - every op passes its output check;
  - the per-layer metrics layers.json names for the workload are non-zero,
    and the self times add up to trace.round_s;
  - the mc-series ops run more than one chunk, on two pool threads;
  - every count metric is identical across the two seeds;
  - a streaming moment matrix counts its streamed pairs;
  - a corrupted reference digest drives the error rate of the exact
    workloads to 1;
  - without src/ the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SEEDS = (1, 2)
# Streaming starts above uqstats.PAIR_THRESHOLD term pairs, which only the
# full-size beta_series stats reach; check_streamed_pairs covers it instead.
NOT_AT_SMOKE_SIZE = {"uqstats.streamed_pairs"}

problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc, result


def copy_tree(name: str, with_src: bool) -> Path:
    """A checkout holding BENCHMARK.json, perfbench/ and, if asked, src/ (linked)."""
    tree = OUT_DIR / name
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(BENCH_DIR, tree / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    if with_src:
        (tree / "src").symlink_to(ROOT / "src")
    return tree


def nonzero_layer_metrics(layers: dict, workload: str) -> set[str]:
    names = set()
    for entry in layers["moves"]:
        if workload in entry["workloads"] or "all" in entry["workloads"]:
            names.update(entry["metrics"])
    return names - NOT_AT_SMOKE_SIZE


def check_traced(name: str, metrics: dict, layers: dict) -> None:
    values = {k: v["value"] for k, v in metrics.items()}
    zero = sorted(m for m in nonzero_layer_metrics(layers, name) if not values.get(m))
    check(not zero, f"{name}: layer metrics are non-zero (zero: {', '.join(zero) or 'none'})")
    self_sum = sum(v["value"] for k, v in metrics.items()
                   if v["unit"] == "s" and not k.startswith("trace."))
    check(abs(self_sum - values["trace.round_s"]) <= 1e-6 * values["trace.round_s"],
          f"{name}: self times {self_sum:.6g} s add up to trace.round_s {values['trace.round_s']:.6g} s")
    if name == "mc-series":
        check(values["mcengine.chunks"] >= 2 and values["mcengine.workers"] == 2,
              f"{name}: {values['mcengine.chunks']:g} chunks on {values['mcengine.workers']:g} threads")


def check_streamed_pairs() -> None:
    """With pair_threshold=0 every term pair of moment_matrix is streamed and counted."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from randfrob import uqstats
    from randfrob.frobenius import build_problem, compute_coeffs
    from randfrob.specfile import load_document, resolve_problem
    from spans import Tracer

    spec = build_problem(load_document(resolve_problem("hermite_forced")))
    sol = compute_coeffs(spec, 4)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_op("streamed", lambda: uqstats.moment_matrix(sol, spec.model, pair_threshold=0))
    finally:
        tracer.uninstall()
    sizes = [len(p.terms) for p in sol.X]
    pairs = sum(a * b for n, a in enumerate(sizes) for b in sizes[n:])
    got = tracer.counts[0]["uqstats.streamed_pairs"]
    check(got == pairs > 0, f"a streaming moment matrix counts {got} of {pairs} pairs as streamed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH_DIR / "layers.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    OUT_DIR.mkdir(exist_ok=True)

    for w in spec["workloads"]:
        name = w["name"]
        counts = {}
        for trace in (0, 1):
            for seed in SEEDS:
                proc, result = run(name, seed, trace)
                tag = f"{name} trace={trace} seed={seed}"
                check(result is not None, f"{tag}: exits 0 with a JSON result")
                if result is None:
                    print(proc.stderr[-2000:])
                    continue
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == want[trace], f"{tag}: prints exactly the BENCHMARK.json metrics")
                check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                      f"{tag}: every op passes its check")
                if trace:
                    counts[seed] = {k: v["value"] for k, v in result["metrics"].items()
                                    if v["unit"] == "count"}
                    if seed == SEEDS[0]:
                        check_traced(name, result["metrics"], layers)
        if len(counts) == len(SEEDS):
            check(counts[SEEDS[0]] == counts[SEEDS[1]], f"{name}: counts repeat across seeds")

    check_streamed_pairs()

    corrupt = copy_tree("corrupt", with_src=True)
    reference = corrupt / "perfbench" / "reference.json"
    digests = json.loads(reference.read_text())
    flipped = {k: ("1" if v[0] == "0" else "0") + v[1:] for k, v in digests.items()}
    reference.write_text(json.dumps(flipped))
    for name in ("stats-exact", "solve-recursion"):
        _, result = run(name, 1, 0, cwd=corrupt)
        ok = (result is not None and result["failed"] == result["attempted"]
              and result["metrics"]["success_rate"]["value"] == 0.0)
        check(ok, f"{name}: a corrupted digest drives the error rate to 1")
    shutil.rmtree(corrupt)

    bare = copy_tree("bare", with_src=False)
    proc, _ = run("mc-rk4", 1, 0, cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without src/ it exits non-zero and prints nothing")
    shutil.rmtree(bare)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
