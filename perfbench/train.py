"""``train``: collect a corpus, fit the placement model, use it.

Why: it is the only workload whose set-up is the paper's full training
recipe — ``BenchmarkCollector`` corpus collection on the simulator and
the placement model (``processing_latency``/``success``/``backpressure``,
K=3, the default per-member training, a fixed epoch budget early
stopping cannot cut) — and whose timed work uses the freshly fitted
model: it places a Fig. 9-style query set with sequential ``optimize``
calls.  The serving layers are untouched, so a training-engine change
should move this workload's ``setup_s`` (and the serving workloads'
smaller one) and nothing else; a forward-kernel change that slows
backward shows up in ``setup_s`` here, where the fit is largest, and in
the per-layer ``fit.*`` times.

Every set-up trains from the same seed and must reproduce the first
model bit for bit; ``qerror_p50`` and ``placement_speedup_p50`` (on
the fixed query set the serving workloads use) then read the same on
every run.
"""

from __future__ import annotations

import time

import numpy as np

from repro import (BenchmarkCollector, PlacementOptimizer, TrainingConfig,
                   q_error)

from . import common, spans

CORPUS = 400
EPOCHS = 4
CONFIG = TrainingConfig(hidden_dim=32, epochs=EPOCHS, patience=EPOCHS + 1)
N_CANDIDATES = 30
#: Queries placed per second of --seconds: a fixed amount of work sized
#: to the run, enough for a p99 with ten samples beyond it.
PLACE_RATE = 100
#: Queries timed between two host references (about 50 ms).
CHUNK = 10


def run(seed: int, seconds: float, traced: bool) -> common.Outcome:
    """Three parts — set up, then place a third of the queries in
    chunks between host references — so every metric samples the whole
    run (one part when traced)."""
    outcome = common.Outcome()
    tracer = spans.Tracer()
    queries = common.make_queries(
        seed, int(seconds * PLACE_RATE) // len(common.QUERY_TYPES))
    parts = 1 if traced else common.SETUP_REPEATS
    setups = common.SetupSeries(CORPUS, CONFIG, outcome)
    clock = common.HostClock()
    raw, latencies, decisions = [], [], []
    decide_s = cpu = 0.0
    targets = spans.layer_targets() if traced else []
    with spans.instrument(tracer, targets):
        for part in range(parts):
            optimizer = PlacementOptimizer(setups.build())
            mine = queries[part * len(queries) // parts:
                           (part + 1) * len(queries) // parts]
            start_cpu = time.process_time()
            began = time.perf_counter()
            clock.start()
            for first in range(0, len(mine), CHUNK):
                chunk = []
                for plan, cluster, selectivities, _ in mine[
                        first:first + CHUNK]:
                    start = time.perf_counter()
                    decisions.append(optimizer.optimize(
                        plan, cluster, n_candidates=N_CANDIDATES,
                        selectivities=selectivities, seed=len(decisions)))
                    chunk.append((time.perf_counter() - start) * 1e3)
                factor = clock.lap()
                raw += chunk
                latencies += [ms * factor for ms in chunk]
            decide_s += time.perf_counter() - began
            cpu += time.process_time() - start_cpu

    # Peak memory of set-up and timed work, before any check runs.
    peak_rss_mb = common.peak_rss_mb()

    # -- checks: finite predictions (bitwise refits: SetupSeries) -----
    outcome.attempted += 1
    labels, predicted = common.heldout_predictions(
        setups.model, common.heldout_traces())
    if not np.all(np.isfinite(predicted)):
        outcome.fail("non-finite held-out predictions")
    outcome.attempted += len(decisions)
    for decision in decisions:
        if not np.isfinite(decision.predicted_objective):
            outcome.fail("non-finite predicted objective")
    outcome.properties.update({
        "decisions": len(decisions),
        "decision_p99_ms": common.tail_percentile(latencies, 99),
        "raw_decision_p50_ms": common.median(raw),
        "raw_decisions_per_s": len(raw) / (sum(raw) / 1e3),
        **clock.properties(), **setups.phases()})

    if traced:
        metrics = spans.layer_metrics(
            tracer, ("optimize",),
            coverage_roots=("costream.fit", "data.collect", "optimize"))
        metrics.update({
            "process.cpu_util": cpu / decide_s,
            "trace.overhead_ratio": spans.overhead_ratio(
                lambda: BenchmarkCollector(seed=common.MODEL_SEED).collect(80),
                repeats=9),
        })
        outcome.metrics = metrics
        return outcome

    outcome.metrics = {
        "setup_s": setups.setup_s(),
        "peak_rss_mb": peak_rss_mb,
        "decision_p50_ms": common.median(latencies),
        "decision_p90_ms": common.tail_percentile(latencies, 90),
        "decisions_per_s": len(latencies) / (sum(latencies) / 1e3),
        "qerror_p50": common.median(q_error(labels, predicted)),
        "placement_speedup_p50": common.fixed_speedup_p50(setups.model),
    }
    return outcome
