"""Shared pieces of the benchmark: statistics, host facts, model set-up
and the bitwise decision check.

Everything here runs outside the timed windows except the model
set-up, which *is* the timed ``setup_s`` of the serving workloads.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import (BenchmarkCollector, Costream, DSPSSimulator,
                   GraphDataset, HeuristicPlacementEnumerator,
                   QueryGenerator, SelectivityEstimator, TrainingConfig,
                   q_error, sample_cluster)
from repro.serving import DecisionBatcher, DecisionRequest

#: The placement model's heads (paper Section V): the objective and the
#: two feasibility classifiers the optimizer filters candidates with.
PLACEMENT_METRICS = ("processing_latency", "success", "backpressure")

#: Times the model set-up is repeated per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Seed of everything that builds or judges the model (corpus, fit,
#: held-out traces) and of the hosts traffic is placed on.  ``--seed``
#: drives the traffic only: the queries, arrivals and churn.  So a run's
#: numbers vary with the traffic it samples, not with how good a model
#: a seed happened to train, and a change to training numerics moves
#: ``qerror_p50`` on every seed alike.
MODEL_SEED = 0
ENVIRONMENT_SEED = 0

#: Serving-model recipe: small enough that three set-ups fit in a run,
#: large enough that the ensemble has K=3 members per head like the
#: paper's placement model.
SERVING_CORPUS = 300
SERVING_CONFIG = TrainingConfig(hidden_dim=32, epochs=3, patience=4)
ENSEMBLE_SIZE = 3

#: Held-out traces for ``qerror_p50``, collected from their own stream.
HELDOUT_TRACES = 150

#: Fig. 9 query types: (generator method, with aggregation).
QUERY_TYPES = (("generate_linear", False), ("generate_linear", True),
               ("generate_two_way", False), ("generate_two_way", True),
               ("generate_three_way", False), ("generate_three_way", True))

#: Queries per type of the fixed set every workload's model is judged
#: on for ``placement_speedup_p50``.
SPEEDUP_PER_TYPE = 24


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to be reported."""


def tail_percentile(samples, percent: float) -> float:
    """The ``percent``-th percentile, if at least ten samples lie beyond.

    A percentile with fewer than ten samples above it is one or two
    outliers, not a tail; such a request raises instead of reporting
    a number that will not repeat.
    """
    values = np.asarray(samples, dtype=np.float64)
    n = values.size
    beyond = n - math.ceil(n * percent / 100.0 - 1e-9)
    if beyond < 10:
        raise InsufficientSamples(
            f"p{percent:g} of {n} samples leaves {beyond} beyond it; "
            "at least 10 are needed")
    return float(np.percentile(values, percent))


def median(samples) -> float:
    return float(np.median(np.asarray(samples, dtype=np.float64)))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Host facts
# ----------------------------------------------------------------------
def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS runs with (read, never set)."""
    from repro.nn import backend

    control = backend._blas_thread_control()
    return int(control[1]()) if control else None


#: :func:`host_reference_ms` on a two-core x86 host (2 vCPUs) in its
#: faster stretches: the host speed scaled timings are reported at.
REFERENCE_MS = 4.0


def host_reference_ms() -> float:
    """Time of a fixed task of the benchmark's own — an interpreter loop
    and small matrix products, like a decision's mix — that no change
    to the program can speed up: a gauge of how fast the host ran at
    that moment."""
    matrix = np.full((48, 48), 0.01)
    start = time.perf_counter()
    total = 0
    for index in range(20_000):
        total += index % 7
    for _ in range(300):
        matrix = np.tanh(matrix @ matrix + 0.01)
    return (time.perf_counter() - start) * 1e3


class HostClock:
    """Scales timings to the host speed at which :func:`host_reference_ms`
    reads ``REFERENCE_MS``.

    A shared host runs the same work up to 1.7x slower, in stretches
    from a fraction of a second to minutes, and the slowdown hits the
    program and the fixed reference task alike: timed next to each
    other they keep the same ratio to within a few percent, while each
    alone swings by half.  So timed work runs in chunks of about 50 ms
    with the reference task before and after each chunk, and every
    timing in a chunk is scaled by ``REFERENCE_MS`` over the mean of the
    two references around it.
    """

    def __init__(self):
        self.references: list[float] = []
        self.factors: list[float] = []
        self._previous: float | None = None

    def start(self) -> None:
        """Take the reference before the first chunk of a stretch."""
        self._previous = host_reference_ms()
        self.references.append(self._previous)

    def lap(self) -> float:
        """End the chunk timed since the last reference; its factor."""
        now = host_reference_ms()
        factor = 2.0 * REFERENCE_MS / (self._previous + now)
        self._previous = now
        self.references.append(now)
        self.factors.append(factor)
        return factor

    def properties(self) -> dict[str, float]:
        return {"host_reference_ms": median(self.references),
                "host_factor_p50": median(self.factors)}


def git_revision(root: Path) -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside
    a git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts(seed: int, root: Path) -> dict:
    """Facts two runs must share before their numbers are compared
    (``cpu_count``, ``blas_threads``, versions), plus the run's seed
    and revision."""
    return {"cpu_count": os.cpu_count(),
            "blas_threads": blas_threads(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "seed": seed,
            "git_revision": git_revision(root)}


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    properties: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


# ----------------------------------------------------------------------
# Model set-up
# ----------------------------------------------------------------------
def settle() -> None:
    """Collect garbage and freeze what set-up and input generation left,
    so collector passes in the timed window do not rescan it."""
    gc.collect()
    gc.freeze()


def parameter_bytes(model: Costream) -> list[bytes]:
    """Every member's parameters, for bit-for-bit model comparison."""
    return [tensor.data.tobytes()
            for ensemble in model.ensembles.values()
            for member in ensemble.members
            for tensor in member.network.parameters()]


class SetupSeries:
    """A workload's set-up: collect a ``corpus``-trace corpus, fit the
    placement model with ``config``, run ``warm_up(model)`` if given —
    timed every time, each phase scaled by the host references around
    it (:class:`HostClock`).

    A run sets up ``SETUP_REPEATS`` times, spread between the parts of
    its timed window, so that the repetitions meet different stretches
    of host noise.  Every repetition trains from ``MODEL_SEED`` (never
    a loaded model) and must reproduce the first model bit for bit;
    :attr:`model` is the first one.
    """

    def __init__(self, corpus: int, config: TrainingConfig,
                 outcome: Outcome, warm_up=None):
        self.corpus = corpus
        self.config = config
        self.warm_up = warm_up
        self.outcome = outcome
        self.model: Costream | None = None
        self.clock = HostClock()
        self.totals: list[float] = []        # scaled
        self.raw_totals: list[float] = []    # as measured
        self.collects: list[float] = []
        self.fits: list[float] = []

    def build(self) -> Costream:
        phases = []     # (s as measured, factor)

        def timed(step):
            start = time.perf_counter()
            result = step()
            phases.append((time.perf_counter() - start, self.clock.lap()))
            return result

        self.clock.start()
        traces = timed(lambda: BenchmarkCollector(
            seed=MODEL_SEED).collect(self.corpus))
        model = timed(lambda: Costream(
            metrics=PLACEMENT_METRICS, ensemble_size=ENSEMBLE_SIZE,
            config=self.config, seed=MODEL_SEED).fit(traces))
        if self.warm_up is not None:
            timed(lambda: self.warm_up(model))
        self.totals.append(sum(s * factor for s, factor in phases))
        self.raw_totals.append(sum(s for s, _ in phases))
        self.collects.append(phases[0][0])
        self.fits.append(phases[1][0])
        if self.model is None:
            self.model = model
        else:
            self.outcome.attempted += 1
            if parameter_bytes(model) != parameter_bytes(self.model):
                self.outcome.fail("a set-up trained a different model "
                                  "from the same seed")
        settle()
        return model

    def setup_s(self) -> float:
        return median(self.totals)

    def phases(self) -> dict[str, float]:
        """The set-up as measured: its median and its phases, fastest
        repetition (workload properties)."""
        return {"raw_setup_s": median(self.raw_totals),
                "collect_traces_per_s": self.corpus / min(self.collects),
                "fit_s": min(self.fits)}


def heldout_traces(count: int = HELDOUT_TRACES):
    """Traces from a stream disjoint from every training corpus."""
    return BenchmarkCollector(seed=MODEL_SEED + 7_919).collect(count)


def heldout_predictions(model: Costream, traces) -> tuple[np.ndarray,
                                                          np.ndarray]:
    """(labels, predictions) of ``processing_latency`` on ``traces``."""
    graphs, labels = GraphDataset.from_traces(
        traces, model.featurizer).metric_view("processing_latency")
    return labels, model.predict_metric("processing_latency", graphs)


def qerror_p50(model: Costream, traces) -> float:
    labels, predicted = heldout_predictions(model, traces)
    return median(q_error(labels, predicted))


def make_queries(seed: int, per_type: int):
    """A Fig. 9-style query set: (plan, cluster, selectivities,
    heuristic placement), ``per_type`` queries of each query type on
    clusters of 5 to 8 hosts."""
    rng = np.random.default_rng([seed, 6])
    estimator = SelectivityEstimator(seed=rng)
    generator = QueryGenerator(seed=rng)
    queries = []
    for _ in range(per_type):
        # Types take turns, so any prefix of the set mixes all six.
        for method, with_aggregation in QUERY_TYPES:
            plan = getattr(generator, method)(
                with_aggregation=with_aggregation)
            cluster = sample_cluster(rng, int(rng.integers(5, 9)))
            heuristic = HeuristicPlacementEnumerator(
                cluster, seed=rng).default_placement(plan)
            queries.append((plan, cluster, estimator.estimate(plan),
                            heuristic))
    return queries


def speedup_p50(queries, decisions) -> float:
    """Median simulated processing-latency ratio of the heuristic
    placement to the chosen one (the paper's Fig. 9 speed-up).

    Simulator seeds depend on the query's position only, so the ratio
    is a deterministic function of the decisions.
    """
    simulator = DSPSSimulator()
    ratios = []
    for index, ((plan, cluster, _, heuristic), decision) in enumerate(
            zip(queries, decisions)):
        base = simulator.run(plan, heuristic, cluster, seed=1000 + index)
        mine = simulator.run(plan, decision.placement, cluster,
                             seed=2000 + index)
        ratios.append(max(base.processing_latency_ms, 1e-3)
                      / max(mine.processing_latency_ms, 1e-3))
    return median(ratios)


def fixed_speedup_p50(model: Costream) -> float:
    """:func:`speedup_p50` of ``model`` on a fixed query set, decided
    in waves (outside any timed window)."""
    queries = make_queries(ENVIRONMENT_SEED + 1, SPEEDUP_PER_TYPE)
    requests = [DecisionRequest(plan=plan, cluster=cluster,
                                selectivities=selectivities, seed=index)
                for index, (plan, cluster, selectivities, _)
                in enumerate(queries)]
    batcher = DecisionBatcher(model)
    decisions = [decision for start in range(0, len(requests), 50)
                 for decision in batcher.decide(requests[start:start + 50])]
    return speedup_p50(queries, decisions)


# ----------------------------------------------------------------------
# The bitwise decision check
# ----------------------------------------------------------------------
def same_decision(served, replayed) -> bool:
    """Placement, predicted objective and feasible count all equal."""
    return (served.placement == replayed.placement
            and np.float64(served.predicted_objective).tobytes()
            == np.float64(replayed.predicted_objective).tobytes()
            and served.feasible_candidates
            == replayed.feasible_candidates)


class FixedCandidates:
    """An enumerator that hands ``PlacementOptimizer.optimize`` a
    candidate set drawn elsewhere (the pinned repair candidates)."""

    def __init__(self, candidates):
        self.candidates = candidates

    def enumerate_indices(self, plan, k):
        return self.candidates
