"""``serve_open``: open-loop Poisson traffic into a ``ServingLoop``.

Why: it is the only workload that forms waves from arriving traffic
and merges many small requests into one mega-batch.  Requests carry
few candidates (6) and share 8 clusters, so queueing, deadline-driven
wave formation and the merge are a large share of a decision; a wave
or merge change should move this workload and leave ``deploy_churn``
unchanged.

Two phases, one generator thread (this one) and one dispatcher:

* nominal: arrivals at a fixed rate well below capacity, submitted
  without blocking; each decision is timed from its *due* time, so a
  stall that delays later submits is charged to them, and the
  generator's own lag is reported;
* overload: chunks of four waves' worth of requests, submitted at
  once, so every wave fills and runs back to back; the rate of those
  waves, scaled to the reference host speed (``common.HostClock``), is
  the capacity.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from repro import (PlacementOptimizer, QueryGenerator, SelectivityEstimator,
                   sample_cluster)
from repro.serving import DecisionBatcher, DecisionRequest, ServingLoop
from repro.serving.service import BackpressureError

from . import common, spans

#: Nominal arrival rate (requests/s).  On a two-core host it keeps the
#: dispatcher busy about a quarter of the nominal phase (the
#: ``nominal_utilisation`` property every run prints) against a
#: full-wave capacity of 450-750 requests/s as measured
#: (``raw_capacity_per_s``).
NOMINAL_RATE = 100.0
NOMINAL_SHARE = 0.6       # of --seconds; the rest is the overload phase
N_CLUSTERS = 8
N_CANDIDATES = 6
MAX_WAVE = 16
DEADLINE_S = 0.02
MAX_QUEUE = 64
#: Overload requests per second of the phase's share of --seconds:
#: about the capacity on a two-core host.
OVERLOAD_RATE = 500
#: Overload requests submitted at once between two host references.
OVERLOAD_CHUNK = 4 * MAX_WAVE
#: A nominal run whose generator lagged more than this at p99 measured
#: the generator, not the program, and is invalid.  Below it the lag is
#: harmless to the figures, which are timed from due times; on a shared
#: host the p99 lag reaches about 20 ms when the dispatcher holds the
#: interpreter lock.
LAG_P99_BOUND_MS = 100.0


def make_clusters() -> list:
    """The ``N_CLUSTERS`` shared clusters of 5 to 8 hosts."""
    rng = np.random.default_rng([common.ENVIRONMENT_SEED, 2])
    return [sample_cluster(rng, int(rng.integers(5, 9)),
                           prefix=f"s{index}h")
            for index in range(N_CLUSTERS)]


def make_requests(seed: int, count: int, clusters, stream: int = 0
                  ) -> list[DecisionRequest]:
    """``count`` requests over the shared ``clusters``.

    The same ``(seed, stream)`` gives the same requests; plans follow
    the paper's Table II template mix.
    """
    rng = np.random.default_rng([seed, stream, 1])
    generator = QueryGenerator(seed=rng)
    estimator = SelectivityEstimator(seed=rng)
    requests = []
    for index in range(count):
        plan = generator.generate()
        requests.append(DecisionRequest(
            plan=plan, cluster=clusters[int(rng.integers(N_CLUSTERS))],
            n_candidates=N_CANDIDATES,
            selectivities=estimator.estimate(plan),
            seed=stream * 1_000_000 + index))
    return requests


def arrival_offsets(seed: int, rate: float, count: int) -> np.ndarray:
    """Poisson arrival times (s from the phase start)."""
    rng = np.random.default_rng([seed, 3])
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


class WaveLog(DecisionBatcher):
    """A ``DecisionBatcher`` that logs each wave it is handed: the
    client's view of wave formation (start and end in ``perf_counter``
    seconds, requests)."""

    def __init__(self, model):
        super().__init__(model)
        self.waves: list[tuple[float, float, list]] = []

    def decide(self, requests):
        requests = list(requests)
        start = time.perf_counter()
        decisions = super().decide(requests)
        self.waves.append((start, time.perf_counter(), requests))
        return decisions


def _stamp(done: np.ndarray, index: int, future) -> None:
    done[index] = time.perf_counter()


def open_loop(loop, requests, offsets):
    """Submit ``requests[i]`` at ``offsets[i]`` without blocking.

    Returns ``(due, submitted, done, futures)``; ``done`` is NaN and
    the future ``None`` for a request the loop refused.
    """
    n = len(requests)
    due = np.empty(n)
    submitted = np.empty(n)
    done = np.full(n, np.nan)
    futures = [None] * n
    start = time.perf_counter() + 0.005
    for index, (request, offset) in enumerate(zip(requests, offsets)):
        due[index] = start + offset
        delay = due[index] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        submitted[index] = time.perf_counter()
        try:
            future = loop.submit(request)
        except BackpressureError:
            continue
        future.add_done_callback(functools.partial(_stamp, done, index))
        futures[index] = future
    for future in futures:
        if future is not None:
            future.exception()
    return due, submitted, done, futures


def saturate(loop, requests):
    """Blocking submits of every request; returns the futures once all
    are done."""
    futures = [loop.submit(request, block=True) for request in requests]
    for future in futures:
        future.exception()
    return futures


def full_wave_cycles(waves) -> list[float]:
    """For each full wave after the first: the time from the previous
    wave's end to its own end (s)."""
    return [end - before
            for (_, before, _), (_, end, requests) in zip(waves, waves[1:])
            if len(requests) == MAX_WAVE]


def queue_waits(waves, due_of: dict[int, float]) -> list[float]:
    """Due time to the start of ``decide`` for every logged request."""
    return [start - due_of[id(request)]
            for start, _, requests in waves for request in requests
            if id(request) in due_of]


def featurized_share(waves) -> float:
    """Share of requests whose cluster an earlier request of the same
    wave already featurized (the per-wave host cache hits)."""
    repeats = total = 0
    for _, _, requests in waves:
        seen = set()
        for request in requests:
            key = (id(request.cluster), request.cluster.version)
            repeats += key in seen
            seen.add(key)
            total += 1
    return repeats / total if total else 0.0


def _warm_up(model) -> None:
    batcher = DecisionBatcher(model)
    warm = make_requests(0, 4 * MAX_WAVE, make_clusters(), stream=9)
    for start in range(0, len(warm), MAX_WAVE):
        batcher.decide(warm[start:start + MAX_WAVE])
    for request in warm[:8]:
        batcher.decide([request])


def run(seed: int, seconds: float, traced: bool) -> common.Outcome:
    """The untraced run is three parts — set-up, a third of each phase,
    the check of its decisions — so every metric samples the whole
    run."""
    outcome = common.Outcome()
    tracer = spans.Tracer()
    parts = 1 if traced else common.SETUP_REPEATS
    nominal_s = NOMINAL_SHARE * seconds
    n_nominal = int(nominal_s * NOMINAL_RATE)
    clusters = make_clusters()
    nominal = make_requests(seed, n_nominal, clusters, stream=0)
    offsets = arrival_offsets(seed, NOMINAL_RATE, n_nominal)
    overload_s = seconds - nominal_s
    overload = make_requests(seed, int(overload_s * OVERLOAD_RATE),
                             clusters, stream=1)

    setups = common.SetupSeries(common.SERVING_CORPUS,
                                common.SERVING_CONFIG, outcome, _warm_up)
    due = np.empty(n_nominal)
    submitted = np.empty(n_nominal)
    done = np.empty(n_nominal)
    waves = []               # nominal waves
    overload_waves = []
    clock = common.HostClock()
    cycles = []              # full overload waves, scaled, per part
    raw_cycles = []          # the same, as measured
    stats = []               # loop counters after each nominal slice
    n_overload = 0
    wall = cpu = 0.0
    targets = spans.layer_targets() if traced else []
    for part in range(parts):
        lo = part * n_nominal // parts
        hi = (part + 1) * n_nominal // parts
        extra = overload[part * len(overload) // parts:
                         (part + 1) * len(overload) // parts]
        with spans.instrument(tracer, targets):
            batcher = WaveLog(setups.build())
            with ServingLoop(batcher, max_wave=MAX_WAVE,
                             deadline_s=DEADLINE_S,
                             max_queue=MAX_QUEUE) as loop:
                start_wall, start_cpu = (time.perf_counter(),
                                         time.process_time())
                (due[lo:hi], submitted[lo:hi], done[lo:hi],
                 futures) = open_loop(loop, nominal[lo:hi],
                                      offsets[lo:hi] - offsets[lo])
                n_waves = len(batcher.waves)
                stats.append(loop.stats.as_dict())
                overload_futures, part_cycles = [], []
                clock.start()
                for first in range(0, len(extra), OVERLOAD_CHUNK):
                    before = len(batcher.waves)
                    overload_futures += saturate(
                        loop, extra[first:first + OVERLOAD_CHUNK])
                    factor = clock.lap()
                    measured = full_wave_cycles(batcher.waves[before:])
                    raw_cycles += measured
                    part_cycles += [cycle * factor for cycle in measured]
                wall += time.perf_counter() - start_wall
                cpu += time.process_time() - start_cpu
        # Peak memory of set-up and timed work (the checks need less).
        peak_rss_mb = common.peak_rss_mb()
        waves += batcher.waves[:n_waves]
        overload_waves += batcher.waves[n_waves:]
        cycles.append(part_cycles)
        n_overload += len(overload_futures)
        _check(outcome, setups.model,
               list(zip(nominal[lo:hi], futures))
               + list(zip(extra, overload_futures)))

    # -- measurements (untimed) -------------------------------------
    latencies_ms = (done - due) * 1e3
    served_ok = ~np.isnan(latencies_ms)
    due_of = {id(r): d for r, d in zip(nominal, due)}
    capacity = (MAX_WAVE * sum(len(part) for part in cycles)
                / sum(sum(part) for part in cycles))
    lag_p99_ms = common.tail_percentile((submitted - due) * 1e3, 99)
    n_waves = sum(s["waves"] for s in stats)
    busy_s = sum(end - start for start, end, _ in waves)
    outcome.properties.update({
        "nominal_requests": n_nominal,
        "overload_requests": n_overload,
        "requests_per_wave": n_nominal / max(n_waves, 1),
        "featurized_share": featurized_share(waves),
        # Dispatcher busy share of the nominal phase, and the rate that
        # waves of the nominal size could sustain back to back.
        "nominal_utilisation": busy_s / nominal_s,
        "nominal_wave_rate_per_s": n_nominal / busy_s,
        "overload_featurized_share": featurized_share(
            [w for w in overload_waves if len(w[2]) == MAX_WAVE]),
        "generator_lag_p99_ms": lag_p99_ms,
        "full_waves_overload": len(raw_cycles),
        "capacity_by_part": [MAX_WAVE * len(part) / sum(part)
                             for part in cycles],
        "raw_capacity_per_s": MAX_WAVE * len(raw_cycles) / sum(raw_cycles),
        **clock.properties(),
    })
    if lag_p99_ms > LAG_P99_BOUND_MS:
        outcome.fail(f"invalid run: generator lag p99 {lag_p99_ms:.1f} "
                     f"ms exceeds {LAG_P99_BOUND_MS} ms")

    if traced:
        metrics = spans.layer_metrics(tracer, ("batcher.decide",))
        probe = DecisionBatcher(setups.model)
        overhead = spans.overhead_ratio(lambda: probe.decide(nominal[:8]),
                                        repeats=15)
        waits = queue_waits(waves, due_of)
        # Served waves are the decide spans after the loop started, in
        # order; a request's decision time is covered by its queue wait
        # plus the child stages of its wave.
        first = waves[0][0] * 1e9
        wave_spans = [s for s in tracer.named("batcher.decide")
                      if s.start >= first][:len(waves)]
        covered = [start - due_of[id(request)] + span.child_ns / 1e9
                   for (start, _, requests), span in zip(waves, wave_spans)
                   for request in requests]
        metrics.update({
            "service.queue_wait_p50_ms": common.median(waits) * 1e3,
            "service.queue_wait_p99_ms":
                common.tail_percentile(waits, 99) * 1e3,
            "service.wave_size_mean":
                outcome.properties["requests_per_wave"],
            "service.deadline_wave_ratio":
                sum(s["deadline_waves"] for s in stats) / max(n_waves, 1),
            "service.max_queue_depth":
                max(s["max_queue_depth"] for s in stats),
            "service.rejected": sum(s["rejected"] for s in stats),
            "serve.featurized_share":
                outcome.properties["featurized_share"],
            "generator.lag_p99_ms": lag_p99_ms,
            "process.cpu_util": cpu / wall,
            "stages.coverage": (sum(covered)
                                / (latencies_ms[served_ok].sum() / 1e3)),
            "trace.overhead_ratio": overhead,
        })
        outcome.metrics = metrics
        return outcome

    outcome.properties.update(setups.phases())
    outcome.properties["decision_p99_ms"] = common.tail_percentile(
        latencies_ms[served_ok], 99)
    outcome.metrics = {
        "setup_s": setups.setup_s(),
        "peak_rss_mb": peak_rss_mb,
        "decision_p50_ms": common.median(latencies_ms[served_ok]),
        "decision_p90_ms": common.tail_percentile(
            latencies_ms[served_ok], 90),
        "decisions_per_s": capacity,
        "qerror_p50": common.qerror_p50(setups.model,
                                        common.heldout_traces()),
        "placement_speedup_p50": common.fixed_speedup_p50(setups.model),
    }
    return outcome


def _check(outcome, model, served) -> None:
    """Every served decision vs a sequential ``optimize`` replay."""
    optimizer = PlacementOptimizer(model)
    for request, future in served:
        outcome.attempted += 1
        if future is None or future.exception() is not None:
            outcome.fail(f"request {request.seed} refused or failed")
            continue
        replay = optimizer.optimize(
            request.plan, request.cluster, n_candidates=N_CANDIDATES,
            selectivities=request.selectivities, seed=request.seed)
        if not common.same_decision(future.result(), replay):
            outcome.fail(f"request {request.seed}: served decision "
                         "differs from the sequential replay")
