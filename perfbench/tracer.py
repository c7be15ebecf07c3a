"""Spans and counters recorded from outside covcast.

:meth:`Tracer.install` replaces public names at the module attribute where
their caller looks them up (``covcast.harness.estimate_downlink``,
``covcast.interp.solve_simplex_qp``, ...) with wrappers that record a span
per call, and wraps ``numpy.linalg.eigh``/``eigvalsh`` with a counter and a
clock.  Spans keep their parent and the trace id of the query they serve;
they stay in memory until :meth:`Tracer.write` stores them.  Pool workers
record into their own copy and send their spans back with each result.
"""

from __future__ import annotations

import json
import pickle
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

import covcast.baselines
import covcast.harness
import covcast.interp

# The tracer installed in this process, if any; pool workers look it up.
_ACTIVE: "Tracer | None" = None

# Spans that answer one query: a sweep's pool task and an online query.
# Eigendecompositions are counted only inside them, not in dictionary builds.
QUERY_SPANS = frozenset({"harness.task", "query"})


def _label(value) -> str:
    return getattr(value, "label", None) or getattr(value, "value", str(value))


def _scheme_metric(args) -> str:
    # estimate_downlink(dictionary, query, scheme, metric)
    return f"{args[2].kind.value}.{_label(args[3])}"


def _metric_of(position):
    return lambda args: _label(args[position])


# (module, attribute, span name, suffix from the call's arguments)
SPAN_TARGETS = (
    (covcast.harness, "build_dictionary", "harness.build_dictionary", None),
    (covcast.harness, "build_pair", "harness.build_pair", None),
    (covcast.harness, "distance", "harness.score", None),
    (covcast.harness, "estimate_downlink", "interp.estimate", _scheme_metric),
    (covcast.interp, "estimate_downlink", "interp.estimate", _scheme_metric),
    (covcast.harness, "model_covariance", "channel.model_covariance", None),
    (covcast.harness, "channel_realizations", "channel.realizations", None),
    (covcast.harness, "sample_covariance", "channel.sample_covariance", None),
    (covcast.baselines, "channel_realizations", "channel.realizations", None),
    (covcast.baselines, "sample_covariance", "channel.sample_covariance", None),
    (covcast.harness, "no_conversion", "baselines.no_conversion", None),
    (covcast.harness, "spline_convert", "baselines.spline", None),
    (covcast.harness, "perfect_feedback", "baselines.perfect_feedback", None),
    (covcast.interp, "nearest_neighbor_weights", "interp.nn_weights", _metric_of(2)),
    (covcast.interp, "mirror_weights", "interp.mirror_weights", _metric_of(2)),
    (covcast.interp, "select_bandwidth", "interp.bandwidth", _metric_of(2)),
    (covcast.interp, "kernel_weights", "interp.kernel_weights", _metric_of(2)),
    (covcast.interp, "solve_simplex_qp", "interp.qp", None),
    (covcast.interp, "barycenter", "spd.barycenter", _metric_of(0)),
    (covcast.interp, "distance", "spd.distance", None),
    (covcast.interp, "log_map", "spd.log_map", None),
    (covcast.interp, "whitened_log_map", "spd.log_map", None),
)


class Tracer:
    """In-memory spans, eigendecomposition counts and pool-task sizes."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, trace, name, start_ns, end_ns)
        self.stack: list[int] = []
        self.trace_id = 0
        self.query_depth = 0
        self.counts: Counter = Counter()
        self.task_bytes: list[int] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def call(self, name: str, fn, args, kwargs):
        span_id = self._new_id()
        parent = self.stack[-1] if self.stack else 0
        in_query = name in QUERY_SPANS
        self.query_depth += in_query
        self.stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.query_depth -= in_query
            self.spans.append((span_id, parent, self.trace_id, name, start, end))

    def _span_wrapper(self, fn, name: str, suffix):
        def wrapper(*args, **kwargs):
            label = f"{name}.{suffix(args)}" if suffix else name
            result = self.call(label, fn, args, kwargs)
            if name == "spd.barycenter" and _label(args[0]) == "affine_invariant":
                self.counts["spd.karcher_iterations"] += result.iterations
                self.counts["spd.karcher_nonconverged"] += not result.converged
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _eigh_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            if not self.query_depth:
                return fn(*args, **kwargs)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.counts["spd.eigh_ns"] += time.perf_counter_ns() - start
                self.counts["spd.eigh_calls"] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        global _ACTIVE
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, suffix in SPAN_TARGETS:
            if hasattr(owner, attr):
                self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name, suffix))
        for attr in ("eigh", "eigvalsh"):
            self._patch(np.linalg, attr, self._eigh_wrapper(getattr(np.linalg, attr)))
        if hasattr(covcast.harness, "ProcessPoolExecutor"):
            self._patch(covcast.harness, "ProcessPoolExecutor", _traced_pool(self))
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        _ACTIVE = None

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- pool workers ----------------------------------------------------

    def reset(self) -> None:
        self.spans, self.stack, self.counts = [], [], Counter()
        self.query_depth = 0

    def payload(self) -> tuple:
        return self.spans, dict(self.counts)

    def merge(self, payload: tuple) -> None:
        """Adopt a worker's spans under the current span, with fresh ids."""
        spans, counts = payload
        parent = self.stack[-1] if self.stack else 0
        ids = {0: parent}
        for span_id, span_parent, _, name, start, end in spans:
            ids[span_id] = self._new_id()
        self.trace_id += 1
        for span_id, span_parent, _, name, start, end in spans:
            self.spans.append(
                (ids[span_id], ids[span_parent], self.trace_id, name, start, end)
            )
        self.counts.update(counts)

    # -- output ----------------------------------------------------------

    def durations(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = defaultdict(list)
        for _, _, _, name, start, end in self.spans:
            out[name].append(end - start)
        return out

    def self_times(self) -> dict[str, int]:
        """Total self time per span name: duration minus the union of the
        intervals its direct children cover."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _, parent, _, _, start, end in self.spans:
            children[parent].append((start, end))
        out: Counter = Counter()
        for span_id, _, _, name, start, end in self.spans:
            covered, reach = 0, start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[name] += end - start - covered
        return dict(out)

    def write(self, path: Path) -> None:
        """Spans as JSON lines, then one summary line per span name."""
        path.parent.mkdir(parents=True, exist_ok=True)
        durations = self.durations()
        self_ns = self.self_times()
        with path.open("w") as handle:
            for span_id, parent, trace, name, start, end in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "trace": trace,
                     "name": name, "start_ns": start, "end_ns": end}) + "\n")
            for name in sorted(durations):
                handle.write(json.dumps(
                    {"summary": name, "calls": len(durations[name]),
                     "total_ns": sum(durations[name]), "self_ns": self_ns[name]}) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _traced_call(packed):
    """Run one pool task under the worker's tracer and return its spans."""
    fn, args = packed
    tracer = _ACTIVE or Tracer().install()
    tracer.reset()
    result = tracer.call("harness.task", fn, args, {})
    return result, tracer.payload()


def _traced_pool(tracer: Tracer):
    class TracedPool(ProcessPoolExecutor):
        """Process pool that records each task's pickled size and collects
        the spans its workers record."""

        def map(self, fn, *iterables, timeout=None, chunksize=1):
            tasks = list(zip(*iterables))
            tracer.task_bytes.extend(len(pickle.dumps(task)) for task in tasks)
            results = super().map(
                _traced_call, [(fn, task) for task in tasks],
                timeout=timeout, chunksize=chunksize,
            )
            for result, payload in results:
                tracer.merge(payload)
                yield result

    return TracedPool
