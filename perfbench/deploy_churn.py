"""``deploy_churn``: closed-loop placement on a churning fleet.

Why: it is the paper's product operation — one caller placing queries
with ``PlacementOptimizer.optimize`` (30 candidates each) — plus the
write path: a ``ClusterMonitor`` over a bare ``DecisionBatcher`` keeps
the live deployments placed while hosts join, leave, fail and degrade.
It never touches ``ServingLoop`` or the cross-request merge, so a wave
or merge change should leave it unchanged, while enumeration,
collation and the GNN forward set its pace.  Churn mutations also
invalidate the version-keyed enumerator and host-feature caches, so
writes run beside the reads.

Churn is stationary: every ``EVENT_EVERY`` deployments one event hits
the next cluster, and the kind is drawn so that a cluster's size walks
between ``TARGET_SIZE - 1`` and ``TARGET_SIZE + 1`` (joins balance
leaves and fails).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import (Cluster, PlacementOptimizer, QueryGenerator,
                   SelectivityEstimator, sample_cluster)
from repro.hardware import sample_node
from repro.hardware.churn import ChurnEvent
from repro.placement.repair import PlacementRepairer
from repro.serving import ClusterMonitor, DecisionBatcher

from . import common, spans

N_CLUSTERS = 4
TARGET_SIZE = 6
N_CANDIDATES = 30
LIVE_PER_CLUSTER = 6     # deployments tracked per cluster at most
EVENT_EVERY = 5          # deployments between churn events
#: Deployments per second of --seconds: a fixed amount of work sized
#: to the run (a little under the loop's rate on a two-core host), so
#: every run makes enough decisions for a p99 with ten samples beyond
#: it.
DEPLOY_RATE = 85
#: Deployments timed between two host references (about 50 ms).
CHUNK = 8


@dataclass(frozen=True)
class Step:
    """One input of the loop: a deployment, maybe followed by churn."""

    cluster: int
    plan: object
    selectivities: dict
    seed: int
    event: tuple[int, ChurnEvent] | None = None


def make_fleet() -> list[Cluster]:
    """The fleet as it starts: ``N_CLUSTERS`` clusters of
    ``TARGET_SIZE`` hosts."""
    rng = np.random.default_rng([common.ENVIRONMENT_SEED, 4])
    return [sample_cluster(rng, TARGET_SIZE, prefix=f"c{index}h")
            for index in range(N_CLUSTERS)]


def make_steps(seed: int, count: int) -> list[Step]:
    """``count`` deployments with their churn, from ``seed`` alone."""
    rng = np.random.default_rng([seed, 5])
    generator = QueryGenerator(seed=rng)
    estimator = SelectivityEstimator(seed=rng)
    sizes = [TARGET_SIZE] * N_CLUSTERS
    steps = []
    n_events = 0
    for index in range(count):
        plan = generator.generate()
        event = None
        if (index + 1) % EVENT_EVERY == 0:
            target = n_events % N_CLUSTERS
            kind = _kind(rng, sizes[target])
            sizes[target] += {"join": 1, "leave": -1, "fail": -1}.get(
                kind, 0)
            if kind == "join":
                node = sample_node(rng, f"c{target}j{n_events}")
                event = ChurnEvent("join", n_events, node=node)
            else:
                event = ChurnEvent(
                    kind, n_events, node_index=int(rng.integers(1 << 16)),
                    severity=float(rng.choice((0.5, 0.75))))
            event = (target, event)
            n_events += 1
        steps.append(Step(cluster=int(rng.integers(N_CLUSTERS)),
                          plan=plan,
                          selectivities=estimator.estimate(plan),
                          seed=index, event=event))
    return steps


def _kind(rng, size: int) -> str:
    if size < TARGET_SIZE:
        return "join"
    if size > TARGET_SIZE:
        return ("leave", "fail")[int(rng.integers(2))]
    return ("join", "leave", "fail", "degrade", "join", "degrade")[
        int(rng.integers(6))]


def _snapshot(cluster: Cluster) -> Cluster:
    """A frozen copy for the replay (the live cluster keeps mutating)."""
    return Cluster(cluster.nodes)


def _warm_up(model) -> None:
    fleet = make_fleet()
    optimizer = PlacementOptimizer(model)
    for step in make_steps(10_007, 12):
        optimizer.optimize(step.plan, fleet[step.cluster],
                           n_candidates=N_CANDIDATES,
                           selectivities=step.selectivities,
                           seed=step.seed)


def repair_latency(repair_ms) -> dict[str, float]:
    """p50 and p90 of the ``ClusterMonitor.observe`` calls that
    re-placed a deployment (raises ``InsufficientSamples`` when fewer
    than ten lie beyond the p90)."""
    return {"repair_p50_ms": common.median(repair_ms),
            "repair_p90_ms": common.tail_percentile(repair_ms, 90),
            "repair_samples": len(repair_ms)}


def run(seed: int, seconds: float, traced: bool) -> common.Outcome:
    outcome = common.Outcome()
    tracer = spans.Tracer()
    steps = make_steps(seed, int(seconds * DEPLOY_RATE))
    fleet = make_fleet()

    decisions = []      # (step, cluster snapshot, decision)
    repairs = []        # (snapshot, event node, previous, outcomes)
    sizes = []          # size of the churned cluster after each event
    clock = common.HostClock()
    raw = []            # decision ms as measured
    raw_step_s = 0.0
    latencies, step_ms, repair_ms = [], [], []      # scaled
    chunk = ([], [], [])                            # as measured
    setups = common.SetupSeries(common.SERVING_CORPUS,
                                common.SERVING_CONFIG, outcome, _warm_up)
    parts = 1 if traced else common.SETUP_REPEATS
    loop_s = cpu_s = 0.0
    targets = spans.layer_targets() if traced else []
    for part in range(parts):
        checked = len(decisions), len(repairs)
        with spans.instrument(tracer, targets):
            # The loop keeps the first model throughout; the later
            # set-ups are timed between the parts, so that every metric
            # samples the whole run.
            setups.build()
            if not part:
                optimizer = PlacementOptimizer(setups.model)
                monitor = ClusterMonitor(DecisionBatcher(setups.model))
                live = [deque() for _ in fleet]
                snapshots = [_snapshot(c) for c in fleet]
            mine = steps[part * len(steps) // parts:
                         (part + 1) * len(steps) // parts]
            wall, cpu = time.perf_counter(), time.process_time()
            clock.start()
            for index, step in enumerate(mine):
                cluster = fleet[step.cluster]
                began = start = time.perf_counter()
                decision = optimizer.optimize(
                    step.plan, cluster, n_candidates=N_CANDIDATES,
                    selectivities=step.selectivities, seed=step.seed)
                chunk[0].append((time.perf_counter() - start) * 1e3)
                decisions.append((step, snapshots[step.cluster],
                                  decision))
                tracked = live[step.cluster]
                tracked.append(monitor.track(
                    step.plan, cluster, decision, step.selectivities,
                    N_CANDIDATES, step.seed))
                if len(tracked) > LIVE_PER_CLUSTER:
                    monitor.untrack(tracked.popleft())
                if step.event is not None:
                    target, event = step.event
                    cluster = fleet[target]
                    previous = {d.deployment_id: (d.plan, d.placement,
                                                  d.selectivities, d.seed)
                                for d in monitor.deployments
                                if d.cluster is cluster}
                    start = time.perf_counter()
                    record, outcomes = monitor.observe(cluster, event)
                    elapsed = time.perf_counter() - start
                    snapshots[target] = _snapshot(cluster)
                    sizes.append(len(cluster))
                    if outcomes:
                        repairs.append((snapshots[target], record.node_id,
                                        previous, outcomes))
                        chunk[2].append(elapsed * 1e3)
                chunk[1].append((time.perf_counter() - began) * 1e3)
                if (index + 1) % CHUNK == 0 or index + 1 == len(mine):
                    factor = clock.lap()
                    raw += chunk[0]
                    raw_step_s += sum(chunk[1]) / 1e3
                    for scaled, measured in zip(
                            (latencies, step_ms, repair_ms), chunk):
                        scaled += [ms * factor for ms in measured]
                        measured.clear()
            loop_s += time.perf_counter() - wall
            cpu_s += time.process_time() - cpu
        # Peak memory of set-up and timed work (the checks need less).
        peak_rss_mb = common.peak_rss_mb()
        _check(outcome, setups.model, decisions[checked[0]:],
               repairs[checked[1]:])

    n_events = len(sizes)
    outcome.properties.update({
        "decisions": len(decisions),
        "churn_events": n_events,
        "repair_event_share": len(repairs) / max(n_events, 1),
        "cluster_size_min": min(sizes, default=TARGET_SIZE),
        "cluster_size_p50": common.median(sizes or [TARGET_SIZE]),
        "cluster_size_max": max(sizes, default=TARGET_SIZE),
        "cluster_sizes_final": [len(c) for c in fleet],
    })
    outcome.properties.update(repair_latency(repair_ms))

    if traced:
        metrics = spans.layer_metrics(tracer, ("optimize",))
        probe, step = make_fleet()[0], steps[0]
        overhead = spans.overhead_ratio(
            lambda: optimizer.optimize(step.plan, probe,
                                       n_candidates=N_CANDIDATES,
                                       selectivities=step.selectivities),
            repeats=41)
        health = monitor.health
        metrics.update({
            "repair.incremental_ratio":
                health.repairs / max(health.replaced_deployments, 1),
            "repair.infeasible": health.infeasible,
            "churn.skipped_events": health.skipped_events,
            "churn.cluster_size_p50":
                outcome.properties["cluster_size_p50"],
            "churn.repair_event_share":
                outcome.properties["repair_event_share"],
            "process.cpu_util": cpu_s / loop_s,
            "trace.overhead_ratio": overhead,
        })
        outcome.metrics = metrics
        return outcome

    outcome.properties.update({
        "decision_p99_ms": common.tail_percentile(latencies, 99),
        "raw_decision_p50_ms": common.median(raw),
        "raw_decisions_per_s": len(decisions) / raw_step_s,
        **clock.properties(), **setups.phases()})
    outcome.metrics = {
        "setup_s": setups.setup_s(),
        "peak_rss_mb": peak_rss_mb,
        "decision_p50_ms": common.median(latencies),
        "decision_p90_ms": common.tail_percentile(latencies, 90),
        # The loop's rate: each step is a decision, its tracking and
        # the repair of any churn event that follows it.
        "decisions_per_s": len(step_ms) / (sum(step_ms) / 1e3),
        "qerror_p50": common.qerror_p50(setups.model,
                                        common.heldout_traces()),
        "placement_speedup_p50": common.fixed_speedup_p50(setups.model),
    }
    return outcome


def _check(outcome, model, decisions, repairs) -> None:
    """Every decision and repair vs a sequential ``optimize`` replay on
    a snapshot of the cluster it saw."""
    optimizer = PlacementOptimizer(model)
    for step, snapshot, decision in decisions:
        outcome.attempted += 1
        replay = optimizer.optimize(
            step.plan, snapshot, n_candidates=N_CANDIDATES,
            selectivities=step.selectivities, seed=step.seed)
        if not common.same_decision(decision, replay):
            outcome.fail(f"deployment {step.seed}: decision differs "
                         "from the sequential replay")
    repairer = PlacementRepairer(model)
    for snapshot, node_id, previous, outcomes in repairs:
        for deployment_id, repaired in outcomes.items():
            outcome.attempted += 1
            plan, placement, selectivities, seed = previous[deployment_id]
            candidates, _ = repairer.repair_candidates(
                plan, snapshot, placement, {node_id},
                n_candidates=N_CANDIDATES, seed=seed)
            enumerator = (common.FixedCandidates(candidates)
                          if len(candidates) else None)
            replay = optimizer.optimize(
                plan, snapshot, n_candidates=N_CANDIDATES,
                selectivities=selectivities, enumerator=enumerator,
                seed=seed)
            if not common.same_decision(repaired.decision, replay):
                outcome.fail(f"deployment {deployment_id}: repair "
                             "differs from the sequential replay")
