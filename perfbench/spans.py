"""In-memory span tracing of qaoa_pca's public functions, installed from outside.

`Tracer.install` replaces each traced function with a timing wrapper in every
loaded ``qaoa_pca`` module that binds it, so calls through ``from .x import f``
names are caught too. A span is (name, start, end, parent index); the root
ancestor of a span identifies the request it belongs to. Self time is a span's
duration minus the durations of its direct children. Nothing is written while
the workload runs; `write` dumps the spans at the end.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute); "Class.attr" patches a class attribute.
TRACED = (
    ("engine.objective", "qaoa_pca.engine", "objective"),
    ("engine.param_vector", "qaoa_pca.engine", "ParameterVector.from_array"),
    ("pca.coeff_vector", "qaoa_pca.pca", "CoefficientVector.__init__"),
    ("pca.expand", "qaoa_pca.pca", "expand"),
    ("pca.fit", "qaoa_pca.pca", "fit"),
    ("pca.sample_coefficients", "qaoa_pca.pca", "sample_coefficients"),
    ("optimizer.minimize", "qaoa_pca.optimizer", "minimize"),
    ("maxcut.cost_diagonal", "qaoa_pca.maxcut", "cost_diagonal"),
    ("maxcut.brute_force_cmin", "qaoa_pca.maxcut", "brute_force_cmin"),
    ("graphs.enumerate", "qaoa_pca.graphs", "enumerate_connected_nonisomorphic"),
    ("graphs.sample", "qaoa_pca.graphs", "sample_connected_nonisomorphic"),
    ("graphs.is_connected", "qaoa_pca.graphs", "is_connected"),
    ("graphs.canonical_key", "qaoa_pca.graphs", "canonical_key"),
    ("stats.wilcoxon", "qaoa_pca.stats", "wilcoxon_signed_rank"),
    ("records.write", "qaoa_pca.records", "write_records"),
    ("records.write", "qaoa_pca.records", "write_matrix"),
    ("records.write", "qaoa_pca.records", "write_comparison"),
    ("records.read", "qaoa_pca.records", "read_records"),
    ("records.read", "qaoa_pca.records", "read_matrix"),
    ("records.read", "qaoa_pca.records", "read_comparison"),
    ("pipeline.stage.train", "qaoa_pca.pipeline", "run_training"),
    ("pipeline.stage.evaluate_pca", "qaoa_pca.pipeline", "evaluate_pca"),
    ("pipeline.stage.evaluate_standard", "qaoa_pca.pipeline", "evaluate_standard"),
    ("pipeline.stage.compare", "qaoa_pca.pipeline", "compare"),
    ("pipeline.checkpoint.load", "qaoa_pca.pipeline", "Checkpoint.__init__"),
    ("pipeline.checkpoint.add", "qaoa_pca.pipeline", "Checkpoint.add"),
)


class Tracer:
    """Collects spans and per-span observations while `active` is true."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, observe=None):
        """Timing wrapper for fn; observe(args, kwargs, result) runs after each traced call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every function in TRACED, in its own module and wherever it is re-bound."""
        observers = {
            "engine.objective": self._observe_objective,
            "optimizer.minimize": self._observe_minimize,
            "records.write": self._observe_write,
            "graphs.sample": self._observe_sample,
            "graphs.canonical_key": self._observe_canonical_key,
        }
        modules = [m for k, m in sys.modules.items() if k == "qaoa_pca" or k.startswith("qaoa_pca.")]
        for name, modname, attr in TRACED:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(name, raw.__func__, observers.get(name)))
                else:
                    patched = self.wrap(name, raw, observers.get(name))
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, patched)
                continue
            original = getattr(owner, attr)
            patched = self.wrap(name, original, observers.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, patched)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # observers: counts measured where the work happens

    def _observe_objective(self, args, kwargs, result):
        diag, params = args[0], args[1]
        size = len(diag)
        self.counts["amp_updates"] += params.p * (size.bit_length() - 1) * size

    def _observe_minimize(self, args, kwargs, result):
        self.counts["minimize_evals"] += result.evals
        self.counts["minimize_budget_hit"] += 0 if result.converged else 1

    def _observe_canonical_key(self, args, kwargs, result):
        self.counts["canonical_key_max_n"] = max(self.counts["canonical_key_max_n"], result.n)

    def _observe_sample(self, args, kwargs, result):
        self.counts["sampled"] += len(result)

    def _observe_write(self, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.counts["bytes_written"] += os.path.getsize(path)

    # aggregation

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, t0, t1, _) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that have a span called `ancestor` above them."""
        spans = self.spans
        hits = 0
        for span in spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if spans[parent][0] == ancestor:
                    hits += 1
                    break
                parent = spans[parent][3]
        return hits

    def write(self, path) -> None:
        """One line per span: index, parent, root (request id), name, start, end."""
        root = []
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\troot\tname\tstart_s\tend_s\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                root.append(i if parent < 0 else root[parent])
                fh.write(f"{i}\t{parent}\t{root[i]}\t{name}\t{t0:.9f}\t{t1:.9f}\n")


def span_cost_s(samples: int = 5, calls: int = 20000) -> float:
    """Median added cost of one recorded span, from a wrapped no-op against a bare one."""

    def noop(x):
        return x

    tracer = Tracer()
    traced = tracer.wrap("calibrate", noop)
    tracer.active = True
    costs = []
    for _ in range(samples):
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        bare = time.perf_counter() - t0
        tracer.spans.clear()
        t0 = time.perf_counter()
        for i in range(calls):
            traced(i)
        costs.append((time.perf_counter() - t0 - bare) / calls)
    return max(statistics.median(costs), 0.0)
