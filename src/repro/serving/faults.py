"""Deterministic fault injection for the serving pool.

Chaos testing a process pool is usually flaky: a test kills a random
worker at a random time and hopes the recovery path it wanted to
exercise is the one that ran.  This module makes the chaos *seeded and
addressable* instead.  A :class:`FaultPlan` names exactly which shard
of which dispatch fails, how (crash, hang, corrupt result), and for
how many attempts; a :class:`FaultInjector` hands those faults to
:class:`~repro.serving.pool.WorkerPool` at dispatch time, so a chaos
test replays the identical failure sequence on every run — and the
repo's bitwise-equivalence discipline supplies the recovery oracle:
whatever faults are injected, the recovered wave must be
bit-identical to the no-fault serial reference.

Addressing: every pool dispatch stream is counted per operation kind
(``"wave"`` waves).  A fault matches an ``(op, step, shard, attempt)``
coordinate — step is the wave ordinal since the pool was created,
shard is the index within
that dispatch, and ``attempts`` is how many consecutive attempts of
that shard fail (so a plan can exhaust the retry budget on purpose).

Fault classes:

* ``"crash"`` — the worker process dies (``os._exit``) before
  computing its shard; the serial backend raises
  :class:`WorkerCrash` at the same coordinate.  The parent sees a
  ``BrokenProcessPool``.
* ``"hang"`` — the worker sleeps ``hang_s`` seconds before answering;
  the serial backend raises :class:`ShardTimeout` immediately (no
  real sleeping in serial chaos tests).  The parent sees a per-shard
  timeout.
* ``"corrupt"`` — the worker computes the real result and then
  damages it (NaN objectives), exercising the
  parent's shard-result validation.

The degraded-mode fallback (the parent recomputing a shard in-process
after the retry budget is spent) is deliberately *not* injectable —
it is the trusted path of last resort.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["FaultSpec", "FaultPlan", "FaultInjector",
           "WorkerCrash", "ShardTimeout", "CorruptShard",
           "DegradedModeReport", "PoolHealth",
           "FAULT_KINDS", "run_with_fault", "apply_worker_fault"]

FAULT_KINDS = ("crash", "hang", "corrupt")


class WorkerCrash(RuntimeError):
    """Serial-backend stand-in for a worker process dying."""


class ShardTimeout(RuntimeError):
    """Serial-backend stand-in for a shard blowing its deadline."""


class CorruptShard(RuntimeError):
    """A shard result failed validation (shape / finiteness)."""


@dataclass(frozen=True)
class FaultSpec:
    """One addressable fault.

    ``step`` / ``shard`` may be ``None`` to match any step / any shard
    of the operation; ``attempts`` is the number of consecutive
    attempts (starting at attempt 0) that fail before the shard is
    allowed to succeed.
    """

    kind: str                  # "crash" | "hang" | "corrupt"
    op: str = "any"            # "wave" | "any"
    step: int | None = 0       # dispatch ordinal (None = every step)
    shard: int | None = 0      # shard index within the dispatch
    attempts: int = 1          # consecutive failing attempts
    hang_s: float = 30.0       # worker-side sleep for "hang"

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {FAULT_KINDS}")
        if self.op not in ("wave", "any"):
            raise ValueError(f"unknown fault op {self.op!r}")
        if self.attempts < 1:
            raise ValueError("a fault must fail at least one attempt")

    def matches(self, op: str, step: int, shard: int,
                attempt: int) -> bool:
        return ((self.op == "any" or self.op == op)
                and (self.step is None or self.step == step)
                and (self.shard is None or self.shard == shard)
                and attempt < self.attempts)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, reproducible set of :class:`FaultSpec`."""

    faults: tuple[FaultSpec, ...] = ()

    @classmethod
    def of(cls, *faults: FaultSpec) -> "FaultPlan":
        return cls(tuple(faults))

    @classmethod
    def random(cls, seed: int, n_faults: int,
               kinds: tuple[str, ...] = FAULT_KINDS,
               max_step: int = 4, max_shard: int = 4,
               attempts: int = 1, hang_s: float = 30.0) -> "FaultPlan":
        """A seeded random plan — different seeds give different chaos,
        the same seed always gives the same chaos."""
        rng = np.random.default_rng(seed)
        faults = tuple(
            FaultSpec(kind=kinds[int(rng.integers(len(kinds)))],
                      op="any",
                      step=int(rng.integers(max_step)),
                      shard=int(rng.integers(max_shard)),
                      attempts=attempts, hang_s=hang_s)
            for _ in range(n_faults))
        return cls(faults)

    def lookup(self, op: str, step: int, shard: int,
               attempt: int) -> FaultSpec | None:
        for spec in self.faults:
            if spec.matches(op, step, shard, attempt):
                return spec
        return None


class FaultInjector:
    """Hands a plan's faults to the pool and logs what it injected.

    The injector lives in the parent process: the pool asks it for the
    fault (if any) at every ``(op, step, shard, attempt)`` coordinate
    it dispatches, ships the matched :class:`FaultSpec` to the worker
    with the task (specs are small frozen dataclasses, cheap to
    pickle), and the worker applies it.  ``injected`` records every
    hit so chaos tests can assert the planned faults actually fired.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        #: Log of (op, step, shard, attempt, kind) coordinates hit.
        self.injected: list[tuple[str, int, int, int, str]] = []

    def fault_for(self, op: str, step: int, shard: int,
                  attempt: int) -> FaultSpec | None:
        spec = self.plan.lookup(op, step, shard, attempt)
        if spec is not None:
            self.injected.append((op, step, shard, attempt, spec.kind))
        return spec


# ----------------------------------------------------------------------
# Fault application (worker side and serial backend)
# ----------------------------------------------------------------------
def apply_worker_fault(fault: FaultSpec | None, compute, corrupt):
    """Run ``compute`` inside a worker process under ``fault``.

    ``crash`` kills the process before computing (the parent observes a
    broken pool), ``hang`` sleeps past the parent's deadline and then
    answers correctly (so a missed timeout still yields a valid —
    merely late — result), ``corrupt`` damages the computed result via
    ``corrupt(result)``.
    """
    if fault is None:
        return compute()
    if fault.kind == "crash":
        os._exit(13)
    if fault.kind == "hang":
        time.sleep(fault.hang_s)
        return compute()
    return corrupt(compute())


def run_with_fault(fault: FaultSpec | None, compute, corrupt):
    """The serial backend's fault simulation (no processes, no sleep).

    Crash and hang become immediate exceptions so serial chaos tests
    exercise the same retry machinery in microseconds.
    """
    if fault is None:
        return compute()
    if fault.kind == "crash":
        raise WorkerCrash("injected crash")
    if fault.kind == "hang":
        raise ShardTimeout(f"injected hang ({fault.hang_s:.1f}s)")
    return corrupt(compute())


def corrupt_wave_shard(decisions: list) -> list:
    """Damage a wave shard: NaN out every predicted objective."""
    return [dataclasses.replace(decision,
                                predicted_objective=float("nan"))
            for decision in decisions]


# ----------------------------------------------------------------------
# Health accounting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DegradedModeReport:
    """One shard that exhausted its retry budget and fell back to the
    in-parent serial path (completing the wave regardless)."""

    op: str
    step: int
    shard: int
    attempts: int
    reason: str  # "crash" | "timeout" | "corrupt"


@dataclass
class PoolHealth:
    """Per-pool failure/recovery counters (all zero on a healthy run).

    ``bench_hotpaths.py`` snapshots these after the no-fault pool run
    and the CI perf gate asserts the degraded counters stayed at zero —
    the fault machinery must be free on the happy path.
    """

    waves: int = 0
    shards_dispatched: int = 0
    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    corrupt_shards: int = 0
    restarts: int = 0
    degraded_shards: int = 0
    degraded_waves: int = 0
    reports: list[DegradedModeReport] = field(default_factory=list)

    def record_failure(self, reason: str) -> None:
        if reason == "crash":
            self.crashes += 1
        elif reason == "timeout":
            self.timeouts += 1
        else:
            self.corrupt_shards += 1

    def as_dict(self) -> dict:
        """JSON-safe counter snapshot (reports collapse to a count)."""
        counters = dataclasses.asdict(self)
        counters["reports"] = len(self.reports)
        return counters
