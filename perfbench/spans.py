"""Span recording around the public functions of each randfrob layer.

`Tracer.install()` replaces the names `randfrob.cli` imported from the other
layers, a few `RandomModel`/`Poly` methods and three `mcengine`/`uqstats`
internals with wrappers that record one span per call (name, start, end,
parent span, op id, thread) or observe a count.  It raises if any of them is
gone, so a renamed function breaks the traced run instead of zeroing its
metric.  `Tracer.uninstall()` puts the originals back.  Nothing under `src/`
changes.

Spans live in compact arrays in memory and are written out once, by
`Tracer.save`, when the benchmark ends.  Per-layer metrics are derived from
the spans afterwards: a span's self time is its duration minus the part of
its interval that its child spans cover.  Spans on pool threads also record
their thread CPU time; see `Tracer.self_times` for how the wall time an op
spends waiting on its pool is split among them.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from array import array
from collections import Counter, defaultdict
from time import perf_counter, thread_time

# Span names double as metric prefixes: "<layer>.<function>".
ROOT = "cli.run_command"
# One call of the worker `mcengine._run_chunks` hands a chunk of draws to.
CHUNK = "mcengine.chunk"

# span name -> per-layer self-time metric; CHUNK spans count towards the
# metric of their parent, the mc_series or mc_rk4 call that made them.
SELF_TIME_METRICS = {
    ROOT: "cli.self_s",
    "specfile.resolve_problem": "specfile.resolve_problem_s",
    "specfile.load_document": "specfile.load_document_s",
    "frobenius.build_problem": "frobenius.build_problem_s",
    "frobenius.compute_coeffs": "frobenius.compute_coeffs_s",
    "frobenius.validate_hypotheses": "frobenius.validate_hypotheses_s",
    "poly.format_poly": "poly.format_poly_s",
    "poly.mul": "poly.mul_s",
    "poly.add": "poly.add_s",
    "uqstats.moment_matrix": "uqstats.moment_matrix_s",
    "uqstats.stat_curves": "uqstats.stat_curves_s",
    "uqstats.majorant_sequence": "uqstats.majorant_sequence_s",
    "randmodel.expect_monomial": "randmodel.expect_monomial_s",
    "randmodel.draw": "randmodel.draw_s",
    "mcengine.mc_series": "mcengine.mc_series_self_s",
    "mcengine.mc_rk4": "mcengine.mc_rk4_self_s",
}

# span name -> call-count metric
CALL_COUNT_METRICS = {
    "poly.mul": "poly.mul_calls",
    "randmodel.expect_monomial": "randmodel.expect_monomial_calls",
    "randmodel.draw": "randmodel.draw_calls",
    CHUNK: "mcengine.chunks",
}

# counts observed from call arguments and results at the layer boundary
ARG_COUNT_METRICS = (
    "frobenius.coeff_terms",
    "uqstats.monomial_pairs",
    "uqstats.streamed_pairs",
    "uqstats.distinct_monomials",
    "randmodel.monomial_cache_hits",
    "mcengine.rk4_steps",
)

# (module attribute of randfrob.cli, span name)
CLI_NAMES = (
    ("resolve_problem", "specfile.resolve_problem"),
    ("load_document", "specfile.load_document"),
    ("build_problem", "frobenius.build_problem"),
    ("compute_coeffs", "frobenius.compute_coeffs"),
    ("validate_hypotheses", "frobenius.validate_hypotheses"),
    ("format_poly", "poly.format_poly"),
    ("moment_matrix", "uqstats.moment_matrix"),
    ("stat_curves", "uqstats.stat_curves"),
    ("majorant_sequence", "uqstats.majorant_sequence"),
    ("mc_series", "mcengine.mc_series"),
    ("mc_rk4", "mcengine.mc_rk4"),
)

# (class name, method, span name)
METHODS = (
    ("Poly", "__mul__", "poly.mul"),
    ("Poly", "__rmul__", "poly.mul"),
    ("Poly", "__add__", "poly.add"),
    ("Poly", "__radd__", "poly.add"),
    ("RandomModel", "expect_monomial", "randmodel.expect_monomial"),
    ("RandomModel", "draw", "randmodel.draw"),
)


def _lookup(owner, attr: str, own: bool = False):
    """`owner.attr`, or an error naming what the tracer can no longer find."""
    found = attr in vars(owner) if own else hasattr(owner, attr)
    if not found:
        raise RuntimeError(f"{owner.__name__}.{attr} is gone; update perfbench/spans.py")
    return vars(owner)[attr] if own else getattr(owner, attr)


def _union(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    covered = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return covered


class Tracer:
    """Records spans from wrapped layer functions; derives per-layer metrics."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self.main_thread = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []
        # one entry per finished span, in finishing order
        self.span_id = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cpu = array("d")  # thread CPU time of pool-thread spans; 0 on the main thread
        self.parent = array("q")
        self.op = array("i")
        self.thread = array("q")
        self.op_id = -1
        self.op_labels: list[str] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._op_steps = 0  # RK4 steps per draw in the current op
        self._op_draws = 0  # draws handed to chunk workers in the current op

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self.main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, on_return=None, before=None):
        """Return `fn` wrapped to record a span.

        `before(args)` runs just before the call and `on_return(args, kwargs,
        result)` just after it.
        """
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            pooled = stack is not tracer._main_stack
            # A pool thread's first span hangs under the span the main thread
            # has open, which is the call that started the pool.
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else -1
            if before is not None:
                before(args)
            sid = next(tracer._ids)
            stack.append(sid)
            c0 = thread_time() if pooled else 0.0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                c1 = thread_time() if pooled else 0.0
                stack.pop()
                tracer._record(sid, nid, t0, t1, c1 - c0, parent)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def _record(self, sid, nid, t0, t1, cpu, parent) -> None:
        with self._lock:
            self.span_id.append(sid)
            self.name.append(nid)
            self.start.append(t0)
            self.end.append(t1)
            self.cpu.append(cpu)
            self.parent.append(parent)
            self.op.append(self.op_id)
            self.thread.append(threading.get_ident())

    def run_op(self, label: str, fn, *args):
        """Run one op as a root span with a fresh op id."""
        self.op_id = len(self.op_labels)
        self.op_labels.append(label)
        self._op_steps = self._op_draws = 0
        return self.wrap(fn, ROOT)(*args)

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        import randfrob.cli as cli
        from randfrob import mcengine, uqstats
        from randfrob.poly import Poly
        from randfrob.randmodel import RandomModel

        hooks = {
            "frobenius.compute_coeffs": self._count_coeffs,
            "uqstats.moment_matrix": self._count_pairs,
            "mcengine.mc_rk4": self._count_rk4,
        }
        for attr, name in CLI_NAMES:
            self._patch(cli, attr, self.wrap(_lookup(cli, attr), name, hooks.get(name)))
        classes = {"Poly": Poly, "RandomModel": RandomModel}
        for cls_name, attr, name in METHODS:
            cls = classes[cls_name]
            before = self._note_cache_hit if attr == "expect_monomial" else None
            self._patch(cls, attr, self.wrap(_lookup(cls, attr, own=True), name, before=before))
        # Module globals, looked up at call time by moment_matrix and mc_*.
        self._patch(uqstats, "_pairwise_expect",
                    self._observe(_lookup(uqstats, "_pairwise_expect"), self._count_streamed))
        self._patch(mcengine, "_steps_for",
                    self._observe(_lookup(mcengine, "_steps_for"), self._count_steps))
        self._patch(mcengine, "_run_chunks", self._wrap_run_chunks(_lookup(mcengine, "_run_chunks")))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _observe(self, fn, on_return):
        """Wrap `fn` to call `on_return(args, result)`, recording no span."""

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_return(args, result)
            return result

        return observed

    def _wrap_run_chunks(self, run_chunks):
        """Wrap `_run_chunks` so each chunk its worker runs is a CHUNK span."""

        @functools.wraps(run_chunks)
        def traced_run_chunks(samples, worker):
            def note_draws(args, kwargs, result):
                with self._lock:
                    self._op_draws += args[1]

            return run_chunks(samples, self.wrap(worker, CHUNK, note_draws))

        return traced_run_chunks

    # -- boundary counts -----------------------------------------------------

    def _add(self, metric: str, value: int) -> None:
        with self._lock:
            self.counts[self.op_id][metric] += value

    def _note_cache_hit(self, args) -> None:
        model, mono = args[0], args[1]
        if mono in model._monomial_cache:
            self._add("randmodel.monomial_cache_hits", 1)

    def _count_coeffs(self, args, kwargs, sol) -> None:
        self._add("frobenius.coeff_terms", sum(len(p.terms) for p in sol.X))

    def _count_pairs(self, args, kwargs, result) -> None:
        # Problem size seen by moment_matrix: term pairs over n <= m.
        sizes = [len(p.terms) for p in args[0].X]
        pairs = sum(a * b for n, a in enumerate(sizes) for b in sizes[n:])
        self._add("uqstats.monomial_pairs", pairs)
        self._add("uqstats.distinct_monomials", len({m for p in args[0].X for m in p.terms}))

    def _count_streamed(self, args, result) -> None:
        p, q = args[1], args[2]
        self._add("uqstats.streamed_pairs", len(p.terms) * len(q.terms))

    def _count_steps(self, args, steps) -> None:
        self._op_steps += steps

    def _count_rk4(self, args, kwargs, result) -> None:
        self._add("mcengine.rk4_steps", self._op_steps * self._op_draws)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> tuple[list[float], float, float]:
        """Self time of every span in recording order, the pool wall time and the pool CPU time.

        A main-thread span's self time is its duration minus the union of its
        child intervals.  Children on pool threads run side by side and, in
        pure Python, take turns on the GIL, so their wall intervals overstate
        their cost.  Instead, the wall time the parent spent covered only by
        pool children is split among all the pool spans under it in
        proportion to their self CPU time (thread CPU minus that of their own
        children).  The self times of an op therefore add up to its wall time.
        """
        index = {sid: i for i, sid in enumerate(self.span_id)}
        kids = defaultdict(list)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                kids[index[parent]].append(i)
        main = self.main_thread
        out = [0.0] * len(self.span_id)
        pool_wall = pool_cpu = 0.0
        for i, tid in enumerate(self.thread):
            if tid == main:  # pool-thread spans are set through the span above them
                out[i] = self.end[i] - self.start[i]
        for i, ks in kids.items():
            if self.thread[i] != main:
                continue
            lo, hi = self.start[i], self.end[i]
            spans = {k: (max(self.start[k], lo), min(self.end[k], hi)) for k in ks}
            covered = _union(spans.values())
            out[i] -= covered
            pooled = [k for k in ks if self.thread[k] != main]
            if not pooled:
                continue
            share = covered - _union(spans[k] for k in ks if self.thread[k] == main)
            below, todo = [], list(pooled)
            while todo:
                d = todo.pop()
                below.append(d)
                todo.extend(kids.get(d, []))
            cpu_self = {
                d: self.cpu[d] - sum(self.cpu[k] for k in kids.get(d, [])
                                     if self.thread[k] == self.thread[d])
                for d in below
            }
            total = sum(cpu_self.values())
            for d in below:
                out[d] = share * cpu_self[d] / total
            pool_wall += share
            pool_cpu += total
        return out, pool_wall, pool_cpu

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round per-layer metrics over every recorded span."""
        selfs, pool_wall, pool_cpu = self.self_times()
        index = {sid: i for i, sid in enumerate(self.span_id)}
        self_total = Counter()
        calls = Counter()
        workers = defaultdict(set)
        root_total = 0.0
        for i, nid in enumerate(self.name):
            name = self._names[nid]
            calls[name] += 1
            if name == CHUNK:
                workers[self.op[i]].add(self.thread[i])
                self_total[self._names[self.name[index[self.parent[i]]]]] += selfs[i]
            else:
                self_total[name] += selfs[i]
            if name == ROOT:
                root_total += self.end[i] - self.start[i]
        counts = Counter()
        for per_op in self.counts.values():
            counts.update(per_op)

        out: dict[str, tuple[float, str]] = {}
        for span, metric in SELF_TIME_METRICS.items():
            out[metric] = (self_total[span] / rounds, "s")
        for span, metric in CALL_COUNT_METRICS.items():
            out[metric] = (calls[span] / rounds, "count")
        for metric in ARG_COUNT_METRICS:
            out[metric] = (counts[metric] / rounds, "count")
        expect_calls = calls["randmodel.expect_monomial"]
        hits = counts["randmodel.monomial_cache_hits"]
        out["randmodel.monomial_cache_hit_ratio"] = (
            hits / expect_calls if expect_calls else 0.0, "ratio")
        out["mcengine.workers"] = (
            max((len(t) for t in workers.values()), default=0), "count")
        out["trace.round_s"] = (root_total / rounds, "s")
        # Wall time ops spent waiting on pool threads, and the CPU time those
        # threads used meanwhile; their ratio is how far the pool ran in parallel.
        out["trace.pool_s"] = (pool_wall / rounds, "s")
        out["trace.pool_cpu_s"] = (pool_cpu / rounds, "s")
        return out

    def count_profiles(self) -> dict[int, dict[str, int]]:
        """Every count recorded per op id, for checking that rounds repeat."""
        profiles = {op: Counter(self.counts.get(op, {})) for op in range(len(self.op_labels))}
        for op, nid in zip(self.op, self.name):
            profiles[op]["calls:" + self._names[nid]] += 1
        return {op: dict(p) for op, p in profiles.items()}

    def save(self, path) -> None:
        """Write every span as JSON lines: one header line, then one span per line."""
        with open(path, "w") as fp:
            header = {
                "names": self._names, "ops": self.op_labels, "main_thread": self.main_thread,
                "fields": ["id", "name", "start", "end", "cpu", "parent", "op", "thread"],
            }
            fp.write(json.dumps(header) + "\n")
            for i in range(len(self.span_id)):
                fp.write(
                    f"[{self.span_id[i]},{self.name[i]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.cpu[i]!r},{self.parent[i]},{self.op[i]},{self.thread[i]}]\n"
                )
