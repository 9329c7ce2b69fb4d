"""Tests of the benchmark's own code (not of the program it measures)."""

from __future__ import annotations

import json
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import common, compare, deploy_churn  # noqa: E402
from perfbench import serve_open, spans  # noqa: E402
from repro.serving import ServingLoop  # noqa: E402


def _plan_key(plan):
    return (plan.name, [(op_id, repr(op))
                        for op_id, op in plan.operators.items()],
            plan.edges)


# -- seeded workload generators ----------------------------------------
def test_serve_open_requests_are_deterministic():
    clusters = serve_open.make_clusters()
    first = serve_open.make_requests(3, 12, clusters)
    again = serve_open.make_requests(3, 12, serve_open.make_clusters())
    other = serve_open.make_requests(4, 12, clusters)

    def key(requests):
        return [(_plan_key(r.plan), r.cluster.node_ids,
                 [repr(n) for n in r.cluster.nodes], r.selectivities,
                 r.seed, r.n_candidates) for r in requests]

    assert key(first) == key(again)
    assert key(first) != key(other)
    np.testing.assert_array_equal(serve_open.arrival_offsets(3, 100, 50),
                                  serve_open.arrival_offsets(3, 100, 50))


def test_deploy_churn_steps_are_deterministic_and_stationary():
    def key(steps):
        return [(s.cluster, _plan_key(s.plan), s.selectivities, s.seed,
                 repr(s.event)) for s in steps]

    first = deploy_churn.make_steps(5, 400)
    assert key(first) == key(deploy_churn.make_steps(5, 400))
    assert key(first) != key(deploy_churn.make_steps(6, 400))
    assert ([[repr(n) for n in c.nodes] for c in deploy_churn.make_fleet()]
            == [[repr(n) for n in c.nodes]
                for c in deploy_churn.make_fleet()])
    # Joins balance leaves and fails: every cluster stays within one
    # host of its target size.
    from repro.hardware.churn import apply_event

    fleet = deploy_churn.make_fleet()
    for step in first:
        if step.event is not None:
            target, event = step.event
            assert apply_event(fleet[target], event).applied
            assert abs(len(fleet[target])
                       - deploy_churn.TARGET_SIZE) <= 1


def test_fig9_queries_are_deterministic():
    def key(queries):
        return [(_plan_key(p), c.node_ids, s, h.assignment)
                for p, c, s, h in queries]

    assert key(common.make_queries(1, 2)) == key(common.make_queries(1, 2))
    assert key(common.make_queries(1, 2)) != key(common.make_queries(2, 2))


# -- open-loop timing ---------------------------------------------------
class SleepyBatcher:
    """Takes ``delay`` seconds per wave; logs waves like ``WaveLog``."""

    def __init__(self, delay: float):
        self.delay = delay
        self.waves = []

    def decide(self, requests):
        requests = list(requests)
        start = time.perf_counter()
        time.sleep(self.delay)
        self.waves.append((start, time.perf_counter(), requests))
        return [object() for _ in requests]


def test_open_loop_latency_counts_queue_wait_from_due_time():
    batcher = SleepyBatcher(0.03)
    requests = [types.SimpleNamespace(index=i) for i in range(8)]
    offsets = np.arange(8) * 0.005   # arrivals far faster than service
    with ServingLoop(batcher, max_wave=1, deadline_s=0.0,
                     max_queue=16) as loop:
        due, submitted, done, futures = serve_open.open_loop(
            loop, requests, offsets)
    assert all(f is not None for f in futures)
    due_of = {id(r): d for r, d in zip(requests, due)}
    waits = serve_open.queue_waits(batcher.waves, due_of)
    latency = done - due
    assert np.all(submitted >= due)
    for request, wait in zip(requests, waits):
        index = request.index
        assert latency[index] >= wait + batcher.delay - 1e-4
    # The queue grows: the last request waited behind seven services.
    assert waits[-1] >= 5 * batcher.delay
    assert latency[-1] >= 6 * batcher.delay


# -- the percentile picker ------------------------------------------------
def test_tail_percentile_needs_ten_samples_beyond():
    assert common.tail_percentile(np.arange(1000), 99) == pytest.approx(
        np.percentile(np.arange(1000), 99))
    with pytest.raises(common.InsufficientSamples):
        common.tail_percentile(np.arange(999), 99)
    assert common.tail_percentile(np.arange(100), 90) == pytest.approx(
        89.1)
    with pytest.raises(common.InsufficientSamples):
        common.tail_percentile(np.arange(99), 90)


def test_repair_percentiles_need_ten_samples_beyond():
    assert deploy_churn.repair_latency(np.arange(100.0))[
        "repair_p90_ms"] == pytest.approx(89.1)
    with pytest.raises(common.InsufficientSamples):
        deploy_churn.repair_latency(np.arange(40.0))
    tracer = spans.Tracer()
    for index in range(40):
        tracer.spans.append(spans.Span("monitor.observe", None, 0,
                                       index + 1, counts={"replaced": 1}))
    with pytest.raises(common.InsufficientSamples):
        spans.layer_metrics(tracer, ("optimize",))


# -- timings scaled to the reference host speed --------------------------
def test_host_clock_scales_each_chunk_by_the_references_around_it(
        monkeypatch):
    readings = iter([4.0, 8.0, 8.0, 6.0, 2.0])
    monkeypatch.setattr(common, "host_reference_ms",
                        lambda: next(readings))
    reference = common.REFERENCE_MS
    clock = common.HostClock()
    clock.start()
    assert clock.lap() == pytest.approx(2 * reference / 12.0)
    assert clock.lap() == pytest.approx(2 * reference / 16.0)
    # A new stretch starts from its own reference, not the last lap's.
    clock.start()
    assert clock.lap() == pytest.approx(2 * reference / 8.0)
    assert clock.properties()["host_reference_ms"] == 6.0


def test_capacity_counts_full_waves_after_the_first():
    full = [None] * serve_open.MAX_WAVE
    waves = [(0.0, 1.0, full), (1.0, 1.1, full), (1.1, 1.3, [None] * 3),
             (1.3, 1.6, full)]
    assert serve_open.full_wave_cycles(waves) == pytest.approx([0.1, 0.3])
    assert serve_open.full_wave_cycles(waves[:1]) == []


# -- span wrappers ------------------------------------------------------
class Layer:
    def outer(self, fail=False):
        return self.inner(fail) + 1

    def inner(self, fail):
        if fail:
            raise RuntimeError("boom")
        return 1

    @classmethod
    def build(cls):
        return cls()


def _module():
    module = types.ModuleType("fake_layer")
    module.helper = lambda x: x * 2
    return module


def test_instrument_records_nested_spans_and_restores():
    module = _module()
    originals = (vars(Layer)["outer"], vars(Layer)["inner"],
                 vars(Layer)["build"], module.helper)
    tracer = spans.Tracer()
    targets = [(Layer, "outer", "layer.outer", None),
               (Layer, "inner", "layer.inner", None),
               (Layer, "build", "layer.build", None),
               (module, "helper", "helper",
                lambda a, k, r: {"value": r})]
    with spans.instrument(tracer, targets):
        assert Layer.build().outer() == 2
        assert module.helper(3) == 6
    names = [s.name for s in tracer.spans]
    assert names == ["layer.build", "layer.inner", "layer.outer",
                     "helper"]
    inner, outer = tracer.spans[1], tracer.spans[2]
    assert inner.parent is outer and outer.parent is None
    assert outer.child_ns == inner.duration_ns
    assert outer.self_ns == outer.duration_ns - inner.duration_ns
    assert tracer.spans[3].counts == {"value": 6}
    assert (vars(Layer)["outer"], vars(Layer)["inner"],
            vars(Layer)["build"], module.helper) == originals


def test_instrument_restores_on_error():
    module = _module()
    original = module.helper
    methods = (vars(Layer)["outer"], vars(Layer)["inner"])
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.instrument(tracer, [
                (Layer, "outer", "layer.outer", None),
                (Layer, "inner", "layer.inner", None),
                (module, "helper", "helper", None)]):
            Layer().outer(fail=True)
    assert (vars(Layer)["outer"], vars(Layer)["inner"]) == methods
    assert module.helper is original
    # A span is still recorded for the calls that raised.
    assert [s.name for s in tracer.spans] == ["layer.inner",
                                             "layer.outer"]


def test_layer_targets_are_restored_after_an_error():
    targets = spans.layer_targets()
    before = [vars(owner)[attribute] for owner, attribute, _, _ in targets]
    with pytest.raises(KeyError):
        with spans.instrument(spans.Tracer(), targets):
            assert all(vars(owner)[attribute] is not original
                       for (owner, attribute, _, _), original
                       in zip(targets, before))
            raise KeyError("stop")
    assert [vars(owner)[attribute]
            for owner, attribute, _, _ in targets] == before


def test_spans_keep_threads_apart():
    tracer = spans.Tracer()
    barrier = threading.Barrier(2)

    def work():
        barrier.wait(timeout=5)
        return 1

    wrapped = tracer.wrap("work", work)
    outer = tracer.wrap("outer", lambda: wrapped())
    thread = threading.Thread(target=wrapped)
    thread.start()
    outer()
    thread.join(timeout=5)
    assert not thread.is_alive()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    parents = sorted(s.parent is not None for s in by_name["work"])
    assert parents == [False, True]


def test_layer_metrics_are_declared_in_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [metric["name"] for metric in spec["per_layer"]]
    metrics = spans.complete(spans.layer_metrics(spans.Tracer(),
                                                 ("optimize",)), declared)
    assert list(metrics) == declared
    with pytest.raises(KeyError):
        spans.complete({"no.such_metric": 1.0}, declared)


# -- the comparison tool ------------------------------------------------
def _record(tmp_path, name, host, value, gauge=50.0):
    record = {"workload": "train", "trace": 0, "host": host,
              "properties": {"host_reference_ms": gauge},
              "correct": True, "attempted": 1, "failed": 0,
              "metrics": {"fit_s": {"value": value, "unit": "s"}}}
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return path


def test_compare_refuses_runs_from_different_hosts(tmp_path):
    host = {"cpu_count": 2, "blas_threads": 2, "numpy": "2.0",
            "python": "3.11", "seed": 1, "git_revision": "a"}
    base = [_record(tmp_path, "a.json", host, 1.0)]
    pinned = [_record(tmp_path, "b.json", {**host, "blas_threads": 1},
                      1.0)]
    with pytest.raises(compare.HostMismatch):
        compare.compare(base, pinned, {"fit_s": 0.1})
    same = [_record(tmp_path, "c.json", {**host, "seed": 2,
                                         "git_revision": "b"}, 1.5,
                    gauge=75.0)]
    rows = compare.compare(base, same, {"fit_s": 0.1},
                           better={"fit_s": "lower"})
    assert rows[0]["verdict"] == "regression"
    # The host itself ran 1.5x slower under the change.
    assert rows[0]["host_ratio"] == pytest.approx(1.5)
