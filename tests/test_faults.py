"""Chaos suite: deterministic fault injection and crash recovery.

The recovery oracle is the repo's bitwise-equivalence discipline: for
EVERY injected fault class (crash, hang/timeout, corrupt shard) the
wave must complete successfully and produce decisions bit-identical
to the no-fault serial reference — retries and the degraded fallback
recompute deterministic shards, so recovery is exact, not
approximate.  Likewise a training run killed
mid-fit and resumed must be bitwise identical (losses, early stopping,
final parameters) to the uninterrupted run.

Serial-backend chaos simulates crashes and hangs as immediate
exceptions (microseconds per test); fork-backend chaos kills and hangs
real worker processes.  The heavier randomized sweeps run in the
nightly chaos lane (``REPRO_CHAOS=1``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.training import CostModel, TrainingConfig
from repro.serving import (DecisionBatcher, FaultInjector, FaultPlan,
                           FaultSpec, WorkerPool)
from repro.serving.faults import (ShardTimeout, WorkerCrash,
                                  run_with_fault)
from repro.serving.pool import _fork_available
from repro.training.stacked import StackedTrainer

from test_serving import _assert_decisions_equal, _model, _requests

# Hang-injection tests must never wedge CI: pytest-timeout (installed
# in CI, optional locally) turns a wedged test into a failure.
pytestmark = pytest.mark.timeout(120)

needs_fork = pytest.mark.skipif(not _fork_available(),
                                reason="fork start method unavailable")
nightly_chaos = pytest.mark.skipif(
    os.environ.get("REPRO_CHAOS") != "1",
    reason="nightly chaos lane (set REPRO_CHAOS=1)")


@pytest.fixture(scope="module")
def model():
    return _model()


@pytest.fixture(scope="module")
def requests():
    return _requests(8, seed=23)


@pytest.fixture(scope="module")
def reference(model, requests):
    return DecisionBatcher(model).decide_serial(requests)


@pytest.fixture(scope="module")
def train_data():
    from repro.core.dataset import GraphDataset
    from repro.data.collection import BenchmarkCollector

    traces = BenchmarkCollector(seed=5).collect(60)
    return GraphDataset.from_traces(traces).metric_view(
        "processing_latency")


def _injected_pool(*faults, serial=True, **kwargs):
    injector = FaultInjector(FaultPlan.of(*faults))
    kwargs.setdefault("backoff", 0.0)
    return WorkerPool(processes=2, serial=serial, injector=injector,
                      **kwargs), injector


class TestFaultPlan:
    def test_random_plan_is_seeded(self):
        first = FaultPlan.random(seed=7, n_faults=5)
        again = FaultPlan.random(seed=7, n_faults=5)
        other = FaultPlan.random(seed=8, n_faults=5)
        assert first == again
        assert first != other

    def test_spec_addressing(self):
        spec = FaultSpec(kind="crash", op="wave", step=1, shard=2,
                         attempts=2)
        assert spec.matches("wave", 1, 2, 0)
        assert spec.matches("wave", 1, 2, 1)
        assert not spec.matches("wave", 1, 2, 2)  # attempts exhausted
        assert not spec.matches("grad", 1, 2, 0)
        assert not spec.matches("wave", 0, 2, 0)
        assert not spec.matches("wave", 1, 0, 0)

    def test_wildcards(self):
        spec = FaultSpec(kind="hang", op="any", step=None, shard=None)
        assert spec.matches("wave", 9, 3, 0)
        assert spec.matches("grad", 0, 0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="explode")
        with pytest.raises(ValueError):
            FaultSpec(kind="crash", op="warp")
        with pytest.raises(ValueError):
            FaultSpec(kind="crash", attempts=0)

    def test_injector_logs_hits(self):
        injector = FaultInjector(FaultPlan.of(
            FaultSpec(kind="crash", op="wave", step=0, shard=1)))
        assert injector.fault_for("wave", 0, 0, 0) is None
        assert injector.fault_for("wave", 0, 1, 0).kind == "crash"
        assert injector.injected == [("wave", 0, 1, 0, "crash")]

    def test_serial_fault_simulation(self):
        compute = lambda: "ok"  # noqa: E731
        assert run_with_fault(None, compute, None) == "ok"
        with pytest.raises(WorkerCrash):
            run_with_fault(FaultSpec(kind="crash"), compute, None)
        with pytest.raises(ShardTimeout):
            run_with_fault(FaultSpec(kind="hang"), compute, None)


class TestSerialChaos:
    """Every fault class, recovered on the serial backend (fast)."""

    @pytest.mark.parametrize("kind", ["crash", "hang", "corrupt"])
    def test_single_fault_recovers_bitwise(self, kind, model, requests,
                                           reference):
        pool, injector = _injected_pool(
            FaultSpec(kind=kind, op="wave", step=0, shard=0))
        with pool:
            decisions = DecisionBatcher(model, pool=pool).decide(
                requests)
        _assert_decisions_equal(decisions, reference)
        assert injector.injected == [("wave", 0, 0, 0, kind)]
        assert pool.health.retries == 1
        assert pool.health.degraded_shards == 0

    def test_every_shard_faulted_at_once(self, model, requests,
                                         reference):
        pool, _ = _injected_pool(
            FaultSpec(kind="crash", op="wave", step=0, shard=0),
            FaultSpec(kind="hang", op="wave", step=0, shard=1),
            FaultSpec(kind="corrupt", op="wave", step=1, shard=None))
        with pool:
            batcher = DecisionBatcher(model, pool=pool)
            _assert_decisions_equal(batcher.decide(requests), reference)
            _assert_decisions_equal(batcher.decide(requests), reference)
        assert pool.health.crashes == 1
        assert pool.health.timeouts == 1
        assert pool.health.corrupt_shards == 2  # both shards, step 1
        assert pool.health.degraded_shards == 0

    def test_retry_exhaustion_degrades_not_raises(self, model, requests,
                                                  reference):
        pool, _ = _injected_pool(
            FaultSpec(kind="crash", op="wave", step=None, shard=0,
                      attempts=99),
            max_retries=2)
        with pool:
            decisions = DecisionBatcher(model, pool=pool).decide(
                requests)
        _assert_decisions_equal(decisions, reference)
        assert pool.health.degraded_shards == 1
        assert pool.health.degraded_waves == 1
        report = pool.health.reports[0]
        assert (report.op, report.shard, report.reason) == \
            ("wave", 0, "crash")
        assert report.attempts == 3  # initial try + 2 retries

    def test_no_fault_run_has_clean_health(self, model, requests):
        with WorkerPool(processes=2, serial=True) as pool:
            DecisionBatcher(model, pool=pool).decide(requests)
        health = pool.health.as_dict()
        # The serial happy path bypasses the dispatch machinery
        # entirely — every counter stays zero.
        assert all(value == 0 for value in health.values())

    def test_injector_routes_through_engine_and_counts(self, model,
                                                       requests):
        pool, _ = _injected_pool()  # empty plan, but engine active
        with pool:
            reference = DecisionBatcher(model).decide_serial(requests)
            decisions = DecisionBatcher(model, pool=pool).decide(
                requests)
        _assert_decisions_equal(decisions, reference)
        assert pool.health.waves == 1
        assert pool.health.shards_dispatched == 2
        assert pool.health.retries == 0

@needs_fork
class TestForkChaos:
    """Real worker processes: kills, hangs, and corrupt results."""

    def test_worker_crash_restarts_and_recovers(self, model, requests,
                                                reference):
        pool, injector = _injected_pool(
            FaultSpec(kind="crash", op="wave", step=0, shard=0),
            serial=False)
        with pool:
            batcher = DecisionBatcher(model, pool=pool)
            _assert_decisions_equal(batcher.decide(requests), reference)
            # The restarted pool keeps serving subsequent waves.
            _assert_decisions_equal(batcher.decide(requests), reference)
        assert injector.injected[0][4] == "crash"
        assert pool.health.restarts >= 1
        assert pool.health.degraded_shards == 0

    def test_hung_worker_times_out_and_recovers(self, model, requests,
                                                reference):
        pool, _ = _injected_pool(
            FaultSpec(kind="hang", op="wave", step=0, shard=0,
                      hang_s=30.0),
            serial=False, timeout=0.5)
        with pool:
            decisions = DecisionBatcher(model, pool=pool).decide(
                requests)
        _assert_decisions_equal(decisions, reference)
        assert pool.health.timeouts == 1
        assert pool.health.restarts >= 1  # the hung worker was killed
        assert pool.health.degraded_shards == 0

    def test_corrupt_shard_detected_and_recovered(self, model, requests,
                                                  reference):
        pool, _ = _injected_pool(
            FaultSpec(kind="corrupt", op="wave", step=0, shard=1),
            serial=False)
        with pool:
            decisions = DecisionBatcher(model, pool=pool).decide(
                requests)
        _assert_decisions_equal(decisions, reference)
        assert pool.health.corrupt_shards == 1
        assert pool.health.restarts == 0  # validation needs no refork

    def test_degraded_wave_on_fork_backend(self, model, requests,
                                           reference):
        """A permanently crashing worker breaks the whole executor, so
        the innocent shard in flight can fail collaterally — both may
        degrade, but the wave still completes bitwise identical."""
        pool, _ = _injected_pool(
            FaultSpec(kind="crash", op="wave", step=0, shard=1,
                      attempts=99),
            serial=False, max_retries=1)
        with pool:
            decisions = DecisionBatcher(model, pool=pool).decide(
                requests)
        _assert_decisions_equal(decisions, reference)
        assert pool.health.degraded_shards >= 1
        assert pool.health.degraded_waves == 1
        assert any(report.shard == 1 and report.reason == "crash"
                   for report in pool.health.reports)


class TestCheckpointResume:
    """Kill-anywhere training resume, bitwise identical."""

    def _corpus(self, train_data):
        return train_data

    @staticmethod
    def _kill_at(epoch_to_kill):
        class Killed(BaseException):
            pass

        def hook(epoch):
            if epoch == epoch_to_kill:
                raise Killed()
        return hook, Killed

    @staticmethod
    def _assert_same_model(reference, resumed):
        assert reference.history.train_loss == resumed.history.train_loss
        assert reference.history.val_loss == resumed.history.val_loss
        assert reference.history.best_epoch == resumed.history.best_epoch
        ref_state = reference.network.state_dict()
        res_state = resumed.network.state_dict()
        for key in ref_state:
            np.testing.assert_array_equal(ref_state[key],
                                          res_state[key])

    def test_costmodel_kill_and_resume_bitwise(self, train_data,
                                               tmp_path):
        graphs, labels = train_data
        config = TrainingConfig(hidden_dim=12, epochs=6, patience=3)
        reference = CostModel("processing_latency", config=config,
                              seed=3)
        reference.fit(graphs, labels)

        ckpt = tmp_path / "fit.npz"
        hook, Killed = self._kill_at(2)
        killed = CostModel("processing_latency", config=config, seed=3)
        with pytest.raises(Killed):
            killed.fit(graphs, labels, checkpoint_path=ckpt,
                       on_epoch_end=hook)
        resumed = CostModel("processing_latency", config=config, seed=3)
        resumed.fit(graphs, labels, checkpoint_path=ckpt, resume=True)
        self._assert_same_model(reference, resumed)

    def test_costmodel_mid_epoch_kill_replays_epoch(self, train_data,
                                                    tmp_path):
        """checkpoint_every=2 and a kill on an off epoch: the resume
        starts from an OLDER checkpoint and replays the lost epochs —
        the restored RNG state regenerates their exact batch order."""
        graphs, labels = train_data
        config = TrainingConfig(hidden_dim=12, epochs=6, patience=3)
        reference = CostModel("processing_latency", config=config,
                              seed=3)
        reference.fit(graphs, labels)

        ckpt = tmp_path / "fit.npz"
        hook, Killed = self._kill_at(2)  # last checkpoint: epoch 1
        killed = CostModel("processing_latency", config=config, seed=3)
        with pytest.raises(Killed):
            killed.fit(graphs, labels, checkpoint_path=ckpt,
                       checkpoint_every=2, on_epoch_end=hook)
        resumed = CostModel("processing_latency", config=config, seed=3)
        resumed.fit(graphs, labels, checkpoint_path=ckpt,
                    checkpoint_every=2, resume=True)
        self._assert_same_model(reference, resumed)

    def test_resume_after_completion_is_idempotent(self, train_data,
                                                   tmp_path):
        graphs, labels = train_data
        config = TrainingConfig(hidden_dim=12, epochs=4, patience=3)
        ckpt = tmp_path / "fit.npz"
        done = CostModel("processing_latency", config=config, seed=3)
        done.fit(graphs, labels, checkpoint_path=ckpt)
        again = CostModel("processing_latency", config=config, seed=3)
        again.fit(graphs, labels, checkpoint_path=ckpt, resume=True)
        self._assert_same_model(done, again)

    def test_mismatched_checkpoint_rejected(self, train_data, tmp_path):
        graphs, labels = train_data
        config = TrainingConfig(hidden_dim=12, epochs=3, patience=3)
        ckpt = tmp_path / "fit.npz"
        CostModel("processing_latency", config=config, seed=3).fit(
            graphs, labels, checkpoint_path=ckpt)
        other_seed = CostModel("processing_latency", config=config,
                               seed=4)
        with pytest.raises(ValueError, match="does not match"):
            other_seed.fit(graphs, labels, checkpoint_path=ckpt,
                           resume=True)

    def test_checkpoint_write_is_atomic(self, train_data, tmp_path):
        """No ``.tmp`` residue, and the file is loadable after every
        epoch — the replace-into-place pattern never exposes a torn
        checkpoint."""
        from repro.core.persistence import load_checkpoint

        graphs, labels = train_data
        config = TrainingConfig(hidden_dim=12, epochs=3, patience=3)
        ckpt = tmp_path / "fit.npz"

        def verify(epoch):
            assert ckpt.exists()
            assert not ckpt.with_name(ckpt.name + ".tmp").exists()
            header, arrays = load_checkpoint(ckpt)
            assert header["epoch"] == epoch + 1
        CostModel("processing_latency", config=config, seed=3).fit(
            graphs, labels, checkpoint_path=ckpt, on_epoch_end=verify)

    def test_stacked_kill_and_resume_bitwise(self, train_data,
                                             tmp_path):
        graphs, labels = train_data
        config = TrainingConfig(hidden_dim=12, epochs=6, patience=3,
                                member_training="stacked")

        def members():
            return [CostModel("processing_latency", config=config,
                              seed=seed) for seed in (1, 2)]

        reference = members()
        StackedTrainer(reference).fit(graphs, labels)

        ckpt = tmp_path / "stacked.npz"
        hook, Killed = self._kill_at(2)
        killed = members()
        with pytest.raises(Killed):
            StackedTrainer(killed).fit(graphs, labels,
                                       checkpoint_path=ckpt,
                                       on_epoch_end=hook)
        resumed = members()
        StackedTrainer(resumed).fit(graphs, labels,
                                    checkpoint_path=ckpt, resume=True)
        for ref_member, res_member in zip(reference, resumed):
            self._assert_same_model(ref_member, res_member)

    def test_stacked_mismatch_rejected(self, train_data, tmp_path):
        graphs, labels = train_data
        config = TrainingConfig(hidden_dim=12, epochs=3, patience=3)
        ckpt = tmp_path / "stacked.npz"
        StackedTrainer([CostModel("processing_latency", config=config,
                                  seed=s) for s in (1, 2)]).fit(
            graphs, labels, checkpoint_path=ckpt)
        other = [CostModel("processing_latency", config=config, seed=s)
                 for s in (5, 6)]
        with pytest.raises(ValueError, match="does not match"):
            StackedTrainer(other).fit(graphs, labels,
                                      checkpoint_path=ckpt, resume=True)


@nightly_chaos
class TestNightlyChaos:
    """Randomized (but seeded) chaos sweeps for the nightly lane."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_plan_serial_sweep(self, seed, model, requests,
                                      reference):
        plan = FaultPlan.random(seed=seed, n_faults=6, max_step=3,
                                max_shard=2)
        pool = WorkerPool(processes=2, serial=True, backoff=0.0,
                          injector=FaultInjector(plan))
        with pool:
            batcher = DecisionBatcher(model, pool=pool)
            for _ in range(3):
                _assert_decisions_equal(batcher.decide(requests),
                                        reference)

    @needs_fork
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_plan_fork_sweep(self, seed, model, requests,
                                    reference):
        plan = FaultPlan.random(seed=seed, n_faults=4, max_step=2,
                                max_shard=2, hang_s=30.0)
        pool = WorkerPool(processes=2, serial=False, backoff=0.0,
                          timeout=2.0, injector=FaultInjector(plan))
        with pool:
            batcher = DecisionBatcher(model, pool=pool)
            for _ in range(2):
                _assert_decisions_equal(batcher.decide(requests),
                                        reference)
