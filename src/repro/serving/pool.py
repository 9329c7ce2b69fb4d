"""Persistent worker pool for waves of decisions.

The numpy substrate holds the GIL for most of a forward, so scaling
past one core needs processes.  :class:`WorkerPool` wraps a persistent
``concurrent.futures.ProcessPoolExecutor`` (``fork`` start method),
with **shared-memory parameter arrays** so serving never pickles
weights: the model is registered in a module-level table *before* the
executor forks its workers (inherited through fork's copy-on-write
memory), and its parameter values live in an anonymous-``mmap``
:class:`_SharedBlock` both sides map.  A staleness refresh — ``fit`` /
``load_state_dict`` replacing the parameter arrays — does not refork
the workers: the parent copies the new values into the shared block
and bumps its generation counter; each worker syncs its copy-on-write
model in place (and invalidates its member stacks) when it sees the
bump.  Only a *different* model/objective (or changed parameter
shapes) still reforks.

Determinism: every request's decision is independent of how a wave is
sharded (the mega-batch forward is bitwise row-invariant), so pooled
waves equal single-process waves bitwise; the serial fallback
(``serial=True``, the ``REPRO_SERIAL=1`` environment variable, or
platforms without ``fork``) computes the same shards in-process and is
bitwise identical to the pooled run — the CI-stable mode.

**Fault tolerance** (PERFORMANCE.md §13).  Worker processes crash,
hang and return garbage in production; the pool recovers from all
three without ever changing a result:

* every shard is dispatched with a bounded **retry-and-backoff**
  budget (``max_retries``), and an optional per-shard ``timeout``
  turns a hung worker into a retriable failure;
* a ``BrokenProcessPool`` (worker death) or a shard timeout
  **restarts the executor automatically** — hung workers are
  terminated, the fork registrations are preserved, and only the
  still-missing shards are re-dispatched;
* shard results are **validated** (shape + finiteness) before they
  are accepted; a corrupt shard counts as a fault and is retried;
* a shard that exhausts its budget **degrades** to the in-parent
  serial path — the wave still completes, bitwise identical to the
  no-fault run (every shard is deterministic), and a
  :class:`~repro.serving.faults.DegradedModeReport` is recorded in
  :attr:`WorkerPool.health` instead of an exception escaping.

Recovery is deterministic because every shard's computation is: a
retried or degraded shard recomputes exactly the same bits.  Chaos
tests drive the machinery with a seeded
:class:`~repro.serving.faults.FaultInjector` (``injector=``) so every
failure sequence is reproducible; see ``tests/test_faults.py``.
"""

from __future__ import annotations

import itertools
import mmap
import multiprocessing as mp
import os
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..nn import autodiff
from ..nn.backend import active_backend_spec, compute_backend
from .faults import (CorruptShard, DegradedModeReport, FaultInjector,
                     PoolHealth, ShardTimeout, apply_worker_fault,
                     corrupt_wave_shard, run_with_fault)

if TYPE_CHECKING:
    from ..placement.optimizer import PlacementDecision
    from .batcher import DecisionBatcher, DecisionRequest

__all__ = ["WorkerPool"]

#: Models registered for fork inheritance, keyed by pool token.  Set in
#: the parent before its executor starts, copied into every worker by
#: ``fork``; entries are dropped when the owning pool closes.
_FORK_MODELS: dict[int, tuple] = {}
_TOKENS = itertools.count(1)

#: Worker-side caches (live only inside worker processes).
_WORKER_BATCHERS: dict[int, object] = {}
_WORKER_GENERATIONS: dict[int, int] = {}


class _SharedBlock:
    """Parameter arrays in anonymous shared memory, plus a generation.

    One ``mmap.mmap(-1, ...)`` segment (``MAP_SHARED | MAP_ANONYMOUS``)
    holds an ``int64`` generation counter followed by every parameter
    array; processes forked *after* construction inherit the mapping,
    so a parent-side :meth:`write` is immediately visible to every
    worker — no pickling, no named segments, no cleanup protocol.

    Write ordering: :meth:`write` copies every parameter array into
    the block *before* bumping the generation counter, so a worker
    that observes the new generation is guaranteed to read the new
    values (a worker reading mid-write sees the old generation and
    syncs on its next wave — decisions are never half-updated because
    the sync itself re-copies every array under the new generation).
    """

    def __init__(self, arrays: list[np.ndarray]):
        offsets = []
        cursor = 8  # the int64 generation counter leads the block
        for array in arrays:
            offsets.append(cursor)
            cursor += array.nbytes
        self._mmap = mmap.mmap(-1, max(cursor, 8))
        self._generation = np.frombuffer(self._mmap, dtype=np.int64,
                                         count=1, offset=0)
        self.views = [
            np.frombuffer(self._mmap, dtype=array.dtype,
                          count=array.size,
                          offset=offset).reshape(array.shape)
            for array, offset in zip(arrays, offsets)]
        #: Generation at the owning pool's last fork: workers inherit
        #: this plain attribute through copy-on-write and use it as
        #: their starting point for staleness checks.
        self.forked_generation = 0
        self.write(arrays)

    @property
    def generation(self) -> int:
        return int(self._generation[0])

    def write(self, arrays: list[np.ndarray]) -> None:
        """Copy fresh parameter values in and bump the generation."""
        for view, array in zip(self.views, arrays):
            view[:] = array
        self._generation[0] += 1

    def matches(self, arrays: list[np.ndarray]) -> bool:
        """Whether ``arrays`` fit this block slot-for-slot (shapes and
        dtypes, not identities — a block is reusable across any
        parameter replacement that keeps the network architecture)."""
        return (len(arrays) == len(self.views)
                and all(view.shape == array.shape
                        and view.dtype == array.dtype
                        for view, array in zip(self.views, arrays)))


def _fork_available() -> bool:
    return "fork" in mp.get_all_start_methods()


def _serial_env_forced() -> bool:
    """``REPRO_SERIAL=1``: force the deterministic serial fallback.

    The escape hatch for platforms where ``fork`` exists but
    misbehaves (e.g. fork + threads on macOS): the pool keeps its
    shard math — and therefore its results — but never starts worker
    processes.  An explicit ``serial=`` argument still wins.
    """
    return os.environ.get("REPRO_SERIAL", "").strip().lower() \
        not in ("", "0", "false")


def _release(token: int | None, executor: ProcessPoolExecutor) -> None:
    """Finalizer target: must not reference the pool object itself.

    Runs from ``close()``, from GC, or from the interpreter's atexit
    sweep — every step is guarded so a half-torn-down interpreter (or
    an executor that never finished starting) can never leak the fork
    registration that pins the model and its ``_SharedBlock`` mmap.
    """
    if token is not None:
        _FORK_MODELS.pop(token, None)
    try:
        executor.shutdown(wait=False)
    except Exception:
        pass  # interpreter shutdown / already-broken executor


def _model_parameters(model) -> list:
    """Every parameter Tensor of a Costream model, in a fixed order."""
    return [param
            for ensemble in model.ensembles.values()
            for member in ensemble.members
            for param in member.network.parameters()]


def _sync_worker_model(token: int) -> object:
    """Worker-side staleness sync; returns the cached batcher.

    The worker's model is a fork-time copy-on-write snapshot; when the
    parent has since written newer weights into the shared block, the
    worker copies them into its parameter arrays *in place* and drops
    the ensembles' member-stack caches (in-place writes are invisible
    to the identity-based staleness sweep, so the invalidation is
    explicit here).  Decisions after a sync are exactly what a fresh
    fork would produce.
    """
    model, objective, block = _FORK_MODELS[token]
    batcher = _WORKER_BATCHERS.get(token)
    if batcher is None:
        from .batcher import DecisionBatcher

        batcher = DecisionBatcher(model, objective)
        _WORKER_BATCHERS[token] = batcher
        _WORKER_GENERATIONS[token] = block.forked_generation
    if _WORKER_GENERATIONS[token] != block.generation:
        for param, view in zip(_model_parameters(model), block.views):
            param.data[:] = view
        for ensemble in model.ensembles.values():
            ensemble.invalidate_stacks()
        _WORKER_GENERATIONS[token] = block.generation
    return batcher


def _wave_shard(token: int, requests: list, dtype_str: str,
                backend_spec: str = "numpy", fault=None) -> list:
    """Worker entry point: serve one shard of a wave serially.

    ``dtype_str`` carries the parent's active inference dtype: the
    :class:`repro.nn.float32_inference` context is a per-process
    global, so without it a forked worker would keep whatever dtype
    was active at fork time and pooled waves would diverge from the
    serial path.  ``backend_spec`` forwards the parent's active
    compute backend the same way (the :class:`repro.nn.compute_backend`
    selection is also per-process).  ``fault`` is an injected
    :class:`~repro.serving.faults.FaultSpec` (chaos tests only).
    """
    batcher = _sync_worker_model(token)
    previous = autodiff._INFERENCE_DTYPE[0]
    autodiff._INFERENCE_DTYPE[0] = np.dtype(dtype_str)
    try:
        with compute_backend(backend_spec):
            return apply_worker_fault(
                fault, lambda: batcher.decide_serial(requests),
                corrupt_wave_shard)
    finally:
        autodiff._INFERENCE_DTYPE[0] = previous


def _validate_wave_shard(result, requests) -> None:
    """Accept a wave shard only if it is structurally sound."""
    if not isinstance(result, list) or len(result) != len(requests):
        raise CorruptShard(
            f"wave shard returned {type(result).__name__} of length "
            f"{len(result) if isinstance(result, list) else '?'}, "
            f"expected {len(requests)} decisions")
    for decision in result:
        if not np.isfinite(decision.predicted_objective):
            raise CorruptShard(
                "wave shard returned a non-finite predicted objective")


def _classify_failure(error: BaseException) -> str:
    if isinstance(error, (_FuturesTimeout, ShardTimeout)):
        return "timeout"
    if isinstance(error, CorruptShard):
        return "corrupt"
    return "crash"  # BrokenProcessPool, WorkerCrash, OSError, ...


class WorkerPool:
    """Persistent process pool with a deterministic serial fallback.

    ``processes`` is the shard count *and* the worker count; the serial
    fallback keeps the shard count, so results are independent of the
    backend.  Use as a context manager, or call :meth:`close` (both
    are idempotent and safe at interpreter shutdown).

    Fault-tolerance knobs (see the module docstring):

    * ``timeout`` — per-shard deadline in seconds (``None`` waits
      forever: the conservative default for machines of unknown
      speed; the serving front door sets one);
    * ``max_retries`` — attempts per shard beyond the first before it
      degrades to the in-parent serial path;
    * ``backoff`` — base sleep between pooled retry rounds (grows
      exponentially per attempt, capped at 1 s; the serial backend
      never sleeps);
    * ``injector`` — a :class:`~repro.serving.faults.FaultInjector`
      for deterministic chaos tests; ``None`` (the default) adds no
      overhead to any dispatch.

    :attr:`health` aggregates every failure and recovery the pool ever
    observed (:class:`~repro.serving.faults.PoolHealth`).
    """

    def __init__(self, processes: int = 2, serial: bool | None = None,
                 timeout: float | None = None, max_retries: int = 2,
                 backoff: float = 0.05,
                 injector: FaultInjector | None = None):
        self.processes = max(1, int(processes))
        #: ``True`` runs every shard in-process (same shard math, no
        #: workers) — the deterministic fallback, forced automatically
        #: on platforms without ``fork`` or under ``REPRO_SERIAL=1``.
        self.serial = ((_serial_env_forced() or not _fork_available())
                       if serial is None else bool(serial))
        self.timeout = timeout
        self.max_retries = max(0, int(max_retries))
        self.backoff = max(0.0, float(backoff))
        self.injector = injector
        self.health = PoolHealth()
        self._executor: ProcessPoolExecutor | None = None
        self._token: int | None = None
        self._wave_entry: tuple | None = None  # pending (model, objective)
        self._wave_key: tuple | None = None
        self._wave_params: list[np.ndarray] | None = None
        self._wave_block: _SharedBlock | None = None
        #: Dispatch ordinals per operation kind — the coordinates the
        #: fault injector addresses.
        self._steps = {"wave": 0}
        # Safety net for pools dropped without close(): releases the
        # fork registration (which pins the model) and shuts the
        # workers down when the pool object is garbage collected.
        self._finalizer: weakref.finalize | None = None

    @property
    def size(self) -> int:
        return self.processes

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down and drop the fork registrations.

        Idempotent: safe to call any number of times, from ``__exit__``
        after a partial construction, or at interpreter shutdown — the
        teardown itself runs through the ``weakref.finalize`` callback,
        which fires exactly once however many paths reach it.
        """
        finalizer, self._finalizer = self._finalizer, None
        if finalizer is not None:
            try:
                finalizer()  # idempotent; runs _release once
            except Exception:
                pass  # interpreter shutdown: registries may be gone
        self._executor = None
        self._token = None
        self._wave_entry = None
        self._wave_key = None
        self._wave_params = None
        self._wave_block = None

    def restart(self) -> None:
        """Refork the workers (e.g. after in-place weight writes)."""
        self.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def shard_indices(self, n: int) -> list[np.ndarray]:
        """Near-equal contiguous index shards (at most ``processes``)."""
        parts = np.array_split(np.arange(n), min(self.processes, n))
        return [part for part in parts if part.size]

    # ------------------------------------------------------------------
    # Resilient shard dispatch
    # ------------------------------------------------------------------
    def _next_step(self, op: str) -> int:
        step = self._steps[op]
        self._steps[op] = step + 1
        return step

    def _run_resilient(self, op: str, payloads: list,
                       submit: Callable, compute: Callable,
                       validate: Callable, degrade: Callable
                       ) -> tuple[list, int]:
        """Dispatch every payload shard; recover until all complete.

        ``submit(payload, fault)`` submits one shard to the executor
        (pooled backend); ``compute(payload, fault)`` computes it
        in-process (serial backend, simulated faults); ``validate``
        raises :class:`CorruptShard` on a bad result; ``degrade``
        recomputes a shard on the trusted in-parent path (never
        injected).  Returns ``(results in shard order, n degraded)``.
        """
        health = self.health
        injector = self.injector
        step = self._next_step(op)
        n = len(payloads)
        results: list = [None] * n
        missing = [True] * n
        attempts = [0] * n
        pending = list(range(n))
        degraded = 0
        health.shards_dispatched += n
        while pending:
            failures: list[tuple[int, str]] = []
            needs_restart = False
            if self.serial:
                for index in pending:
                    fault = (injector.fault_for(op, step, index,
                                                attempts[index])
                             if injector else None)
                    try:
                        result = compute(payloads[index], fault)
                        validate(result, payloads[index])
                    except Exception as error:
                        failures.append((index,
                                         _classify_failure(error)))
                    else:
                        results[index] = result
                        missing[index] = False
            else:
                futures: list[tuple[int, object]] = []
                try:
                    for index in pending:
                        fault = (injector.fault_for(op, step, index,
                                                    attempts[index])
                                 if injector else None)
                        futures.append((index, submit(payloads[index],
                                                      fault)))
                except Exception:
                    # The executor broke while we were submitting;
                    # everything not yet submitted fails this round.
                    submitted = {index for index, _ in futures}
                    needs_restart = True
                    for index in pending:
                        if index not in submitted:
                            failures.append((index, "crash"))
                for index, future in futures:
                    try:
                        result = future.result(timeout=self.timeout)
                        validate(result, payloads[index])
                    except Exception as error:
                        reason = _classify_failure(error)
                        failures.append((index, reason))
                        if reason in ("crash", "timeout"):
                            needs_restart = True
                    else:
                        results[index] = result
                        missing[index] = False
            still_pending: list[int] = []
            for index, reason in failures:
                attempts[index] += 1
                health.record_failure(reason)
                if attempts[index] > self.max_retries:
                    # Retry budget spent: the trusted in-parent path
                    # finishes the shard (bitwise identical — every
                    # shard computation is deterministic).
                    results[index] = degrade(payloads[index])
                    missing[index] = False
                    degraded += 1
                    health.degraded_shards += 1
                    health.reports.append(DegradedModeReport(
                        op=op, step=step, shard=index,
                        attempts=attempts[index], reason=reason))
                else:
                    health.retries += 1
                    still_pending.append(index)
            pending = still_pending
            if needs_restart:
                # A dead or wedged worker poisons the whole executor:
                # refork it (registrations preserved) and re-dispatch
                # only the shards still missing.
                self._restart_workers()
            if pending and not self.serial and self.backoff:
                worst = max(attempts[index] for index in pending)
                time.sleep(min(self.backoff * (2.0 ** (worst - 1)),
                               1.0))
        return results, degraded

    def _restart_workers(self) -> None:
        """Kill and refork the workers, keeping every registration.

        Unlike :meth:`close`, the wave entry survives: the fresh
        executor re-registers it pre-fork, so the
        next dispatch round proceeds as if the pool had just started —
        including hung workers, which are terminated outright
        (``shutdown`` alone would wait for their sleep to finish).
        """
        executor = self._executor
        if executor is not None:
            workers = getattr(executor, "_processes", None) or {}
            for process in list(workers.values()):
                try:
                    process.terminate()
                except Exception:
                    pass
            try:
                # The workers are dead; joining the executor here lets
                # its management thread deregister its atexit wakeup
                # cleanly instead of erroring at interpreter exit.
                executor.shutdown(wait=True, cancel_futures=True)
            except Exception:
                pass
        finalizer, self._finalizer = self._finalizer, None
        if finalizer is not None:
            try:
                finalizer()
            except Exception:
                pass
        self._executor = None
        self._token = None
        self.health.restarts += 1
        self._start_executor()

    # ------------------------------------------------------------------
    # Decision waves
    # ------------------------------------------------------------------
    def run_wave(self, batcher: "DecisionBatcher",
                 requests: "Sequence[DecisionRequest]"
                 ) -> "list[PlacementDecision]":
        """Shard one wave across the workers (or serve it serially)."""
        if self.processes == 1 or len(requests) < 2:
            return batcher.decide_serial(requests)
        if self.serial and self.injector is None:
            # The zero-overhead happy path of the serial backend: one
            # in-process wave, no dispatch machinery at all.
            return batcher.decide_serial(requests)
        if not self.serial:
            self._ensure_wave_workers(batcher)
        shards = self.shard_indices(len(requests))
        payloads = [[requests[i] for i in shard] for shard in shards]
        dtype_str = autodiff.inference_dtype().str
        backend_spec = active_backend_spec()

        def submit(payload, fault):
            return self._executor.submit(_wave_shard, self._token,
                                         payload, dtype_str,
                                         backend_spec, fault)

        def compute(payload, fault):
            return run_with_fault(
                fault, lambda: batcher.decide_serial(payload),
                corrupt_wave_shard)

        shard_results, degraded = self._run_resilient(
            "wave", payloads, submit, compute, _validate_wave_shard,
            batcher.decide_serial)
        self.health.waves += 1
        if degraded:
            self.health.degraded_waves += 1
        decisions = [None] * len(requests)
        for shard, shard_decisions in zip(shards, shard_results):
            for index, decision in zip(shard, shard_decisions):
                decisions[index] = decision
        return decisions

    def _model_params(self, model) -> list[np.ndarray]:
        return [param.data for param in _model_parameters(model)]

    def _ensure_wave_workers(self, batcher: "DecisionBatcher") -> None:
        """Make the workers hold the batcher's current weights.

        Staleness detection follows ``MetricEnsemble.member_stack``
        (strong references + identity sweep over the parameter
        arrays), but the *refresh* is in place: replaced parameter
        arrays of the same model are written into the shared block
        (one memcpy + a generation bump the workers observe) instead
        of reforking the pool.  Only a different model/objective or
        changed parameter shapes still restart the workers.
        """
        params = self._model_params(batcher.model)
        key = (id(batcher.model), batcher.objective)
        if self._executor is not None and key == self._wave_key \
                and self._wave_block is not None \
                and self._wave_block.matches(params):
            stale = (len(params) != len(self._wave_params)
                     or any(a is not b for a, b
                            in zip(params, self._wave_params)))
            if stale:
                self._wave_block.write(params)
                self._wave_params = params
            return
        if self._executor is not None:
            self.close()
        self._wave_entry = (batcher.model, batcher.objective)
        self._wave_key = key
        self._wave_params = params
        self._wave_block = _SharedBlock(params)
        self._start_executor()

    def _start_executor(self) -> None:
        """Fork the workers, registering everything they must inherit.

        Exception-safe: if the executor cannot start, every
        registration made here is rolled back before the error
        propagates, so a failed start leaks no model pin.
        """
        token = next(_TOKENS)
        self._token = token
        try:
            if self._wave_entry is not None:
                model, objective = self._wave_entry
                self._wave_block.forked_generation = \
                    self._wave_block.generation
                _FORK_MODELS[token] = (model, objective,
                                       self._wave_block)
            self._executor = ProcessPoolExecutor(
                max_workers=self.processes,
                mp_context=mp.get_context("fork"))
        except BaseException:
            _FORK_MODELS.pop(token, None)
            self._token = None
            self._executor = None
            raise
        self._finalizer = weakref.finalize(self, _release, token,
                                           self._executor)

