"""Dapper-style spans recorded from outside the program.

The traced run patches the public methods each layer exposes with a
wrapper that records one :class:`Span` per call (name, start, end, the
span that caused it, optional counts) and puts the originals back when
the ``with instrument(...)`` block exits, even on error.  No file of
the program changes; spans inside the program are a later change.

A span's *self time* is its duration minus the time its child spans
cover.  The untraced run never imports the wrappers into the call
path, so end-to-end metrics are measured with tracing off.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import common


@dataclass(eq=False)
class Span:
    name: str
    parent: "Span | None"
    start: int = 0
    end: int = 0
    child_ns: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


class Tracer:
    """Collects spans in memory; per-thread stacks give each span its
    parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, function: Callable,
             counts: Callable | None = None) -> Callable:
        """``function`` recording a span per call.

        ``name`` is a string or ``name(args, kwargs)``; ``counts(args,
        kwargs, result)`` returns a dict of counts kept on the span.
        """
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name if isinstance(name, str)
                        else name(args, kwargs),
                        stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_ns += span.duration_ns
                tracer.spans.append(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced

    # -- queries -------------------------------------------------------
    def named(self, prefix: str) -> list[Span]:
        """Spans whose name is ``prefix`` or starts with ``prefix.``."""
        return [s for s in self.spans
                if s.name == prefix or s.name.startswith(prefix + ".")]

    def under(self, roots: tuple[str, ...]) -> list[Span]:
        """Spans whose root span is named in ``roots``."""
        return [s for s in self.spans if s.root.name in roots]


@contextmanager
def instrument(tracer: Tracer, targets):
    """Patch every ``(owner, attribute, name, counts)`` target.

    ``owner`` is a class or a module; class- and static methods keep
    their kind.  The originals are restored on exit, in reverse order,
    whether the block returns or raises.
    """
    saved = []
    try:
        for owner, attribute, name, counts in targets:
            original = vars(owner)[attribute]
            if isinstance(original, (classmethod, staticmethod)):
                patched = type(original)(
                    tracer.wrap(name, original.__func__, counts))
            else:
                patched = tracer.wrap(name, original, counts)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, patched)
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def overhead_ratio(operation: Callable, repeats: int) -> float:
    """Traced / untraced median time of ``operation()``, the two
    interleaved so that host noise hits both alike."""
    times = {False: [], True: []}
    for _ in range(repeats):
        for traced in (False, True):
            targets = layer_targets() if traced else []
            with instrument(Tracer(), targets):
                start = time.perf_counter()
                operation()
                times[traced].append(time.perf_counter() - start)
    return float(np.median(times[True]) / np.median(times[False]))


# ----------------------------------------------------------------------
# The program's layers
# ----------------------------------------------------------------------
def layer_targets():
    """The calls into each layer the traced run records, by module."""
    from repro.core import costream, ensemble
    from repro.data import collection
    from repro.placement import enumeration, optimizer, repair
    from repro.query import generator
    from repro.serving import batcher, monitor
    from repro.simulator import runtime, selectivity
    from repro.training import corpus

    return [
        # query
        (generator.QueryGenerator, "generate", "query.generate", None),
        # hardware: churn mutations reach the Cluster through here
        (monitor, "apply_event", "churn.apply_event", None),
        (collection, "sample_cluster", "hardware.sample_cluster", None),
        # simulator, data
        (runtime.DSPSSimulator, "run", "simulator.run", None),
        (collection.BenchmarkCollector, "collect", "data.collect",
         lambda a, k, r: {"traces": len(r)}),
        (selectivity.SelectivityEstimator, "estimate",
         "selectivity.estimate", None),
        # placement.enumeration
        (enumeration.HeuristicPlacementEnumerator, "__init__",
         "enumeration.init", None),
        (enumeration.HeuristicPlacementEnumerator, "enumerate_indices",
         "enumeration.enumerate", None),
        (enumeration.HeuristicPlacementEnumerator, "sample",
         "enumeration.sample", None),
        # core.graph
        (costream.Costream, "collate_placements", "collate",
         lambda a, k, r: {"rows": sum(b.n_graphs for b in r)}),
        (costream.Costream, "merged_inference_batches", "merge",
         lambda a, k, r: {"batches_in": len(a[1]),
                          "batches_out": len(r)}),
        (batcher, "featurize_hosts", "featurize_hosts", None),
        # core.ensemble / core.model / nn
        (costream.Costream, "predict_metric",
         lambda a, k: f"forward.{a[1]}",
         lambda a, k, r: {"rows": int(np.size(r))}),
        # placement.optimizer
        (optimizer.PlacementOptimizer, "optimize", "optimize", None),
        (optimizer.PlacementOptimizer, "select", "select", None),
        # placement.repair
        (repair.PlacementRepairer, "repair_candidates",
         "repair.candidates", None),
        # serving.batcher
        (batcher.DecisionBatcher, "decide", "batcher.decide",
         lambda a, k, r: {"requests": len(r)}),
        # serving.monitor
        (monitor.ClusterMonitor, "observe", "monitor.observe",
         lambda a, k, r: {"replaced": len(r[1])}),
        # training
        (corpus.TrainingCorpus, "from_traces", "corpus.featurize", None),
        (ensemble.MetricEnsemble, "fit",
         lambda a, k: f"fit.{a[0].metric}",
         lambda a, k, r: {"epochs": sum(len(m.history.train_loss)
                                        for m in r.members)}),
        (costream.Costream, "fit", "costream.fit", None),
    ]


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _median(spans: list[Span], per_ns: float = 1e6) -> float:
    """Median duration (ms by default; ``per_ns=1e9`` for seconds)."""
    if not spans:
        return 0.0
    return float(np.median([s.duration_ns for s in spans])) / per_ns


def _mean(spans: list[Span], count: str) -> float:
    return float(np.mean([s.counts[count] for s in spans])) if spans else 0.0


def _share(part: list[Span], whole: list[Span]) -> float:
    total = sum(s.duration_ns for s in whole)
    return sum(s.duration_ns for s in part) / total if total else 0.0


def layer_metrics(tracer: Tracer, decision_roots: tuple[str, ...],
                  coverage_roots: tuple[str, ...] | None = None
                  ) -> dict[str, float]:
    """Per-layer numbers from the spans.

    ``decision_roots`` names the spans that are one decision of the
    workload (``batcher.decide`` waves, ``optimize`` calls); shares are
    fractions of the time spent in them.  ``stages.coverage`` is the
    share of the ``coverage_roots`` spans (default: the decisions) that
    their child spans account for.
    """
    decisions = [s for s in tracer.spans if s.name in decision_roots
                 and s.parent is None]
    inside = tracer.under(decision_roots)

    def share(prefix: str) -> float:
        return _share([s for s in inside if s.name == prefix
                       or s.name.startswith(prefix + ".")], decisions)

    decides = tracer.named("batcher.decide")
    requests = sum(s.counts["requests"] for s in decides)
    merges = [s for s in tracer.named("merge")
              if s.counts["batches_out"] == 1]
    collates = tracer.named("collate")
    forwards = tracer.named("forward")
    observes = [s for s in tracer.named("monitor.observe")
                if s.counts["replaced"]]
    fits = tracer.named("costream.fit")
    collects = tracer.named("data.collect")
    roots = [s for s in tracer.spans if s.parent is None
             and s.name in (coverage_roots or decision_roots)]
    metrics = {
        "batcher.decide_p50_ms": _median(decides),
        "batcher.decide_ms_per_request":
            (sum(s.duration_ns for s in decides) / 1e6 / requests
             if requests else 0.0),
        "merge.p50_ms": _median(merges),
        "merge.batches_per_merged": _mean(merges, "batches_in"),
        "collate.p50_ms": _median(collates),
        "collate.rows": _mean(collates, "rows"),
        "collate.share": share("collate"),
        "enumeration.p50_ms": _median(
            tracer.named("enumeration.enumerate")),
        "enumeration.share": share("enumeration"),
        "forward.rows_per_call": _mean(forwards, "rows"),
        "forward.share": share("forward"),
        "select.share": share("select"),
        "repair.candidates_p50_ms": _median(
            tracer.named("repair.candidates")),
        "monitor.observe_p50_ms": _median(observes),
        "monitor.observe_p90_ms":
            (common.tail_percentile([s.duration_ns for s in observes], 90)
             / 1e6 if observes else 0.0),
        "monitor.repair_wave_size_mean": _mean(observes, "replaced"),
        "collect.traces_per_s": (
            sum(s.counts["traces"] for s in collects)
            / (sum(s.duration_ns for s in collects) / 1e9)
            if collects else 0.0),
        "simulator.run_p50_ms": _median(tracer.named("simulator.run")),
        "simulator.share": _share(
            [s for s in tracer.under(("data.collect",))
             if s.name == "simulator.run"], collects),
        "selectivity.estimate_p50_ms": _median(
            tracer.named("selectivity.estimate")),
        "corpus.featurize_s": _median(tracer.named("corpus.featurize"),
                                      per_ns=1e9),
        "fit.total_s": _median(fits, per_ns=1e9),
        "fit.epochs_run": (sum(s.counts["epochs"]
                               for s in tracer.named("fit")) / len(fits)
                           if fits else 0.0),
        "stages.coverage": (sum(s.child_ns for s in roots)
                            / sum(s.duration_ns for s in roots)
                            if roots else 0.0),
    }
    for head in ("processing_latency", "success", "backpressure"):
        metrics[f"forward.{head}.p50_ms"] = _median(
            tracer.named(f"forward.{head}"))
        metrics[f"fit.{head}_s"] = _median(tracer.named(f"fit.{head}"),
                                           per_ns=1e9)
    return metrics


def complete(metrics: dict[str, float], declared) -> dict[str, float]:
    """Every ``declared`` metric, 0 for the layers a workload never
    reached; a measured metric that is not declared is an error."""
    undeclared = set(metrics) - set(declared)
    if undeclared:
        raise KeyError(f"undeclared per-layer metrics: "
                       f"{sorted(undeclared)}")
    return {name: float(metrics.get(name, 0.0)) for name in declared}
