"""K-member stacked training: the one training loop.

:class:`StackedTrainer` trains K same-metric models at once: member
weights fold into one :class:`~repro.core.model.MemberStack`, every
mini-batch runs ONE stacked forward/backward
(:meth:`~repro.core.model.MemberStack.loss_and_grad`), gradients clip
per member (:func:`repro.nn.stacked_clip_grad_norm`) and one
:class:`repro.nn.StackedAdam` steps every member's slice.  A single
:class:`~repro.core.training.CostModel` trains as K=1, so there is
exactly one split, early-stopping and checkpoint implementation.

**Equivalence contract.**  Every batched kernel replays the per-member
kernel per slice, so under a shared
:class:`~repro.training.BatchSchedule` a K-member run is bitwise
identical to K one-member runs (K ``CostModel.fit`` calls): per-member
loss trajectories (train and validation), early-stopping epochs, and
final parameters all match field for field.  Per-member state is
preserved end to end: each member keeps its own seed-derived
initialization, its own best-state snapshot and patience counter; a
member whose patience runs out stops recording history at exactly the
epoch a one-member run would have stopped (its slice keeps stepping —
harmless, since its final weights come from its best-state snapshot).

What a shared schedule changes: the members draw one split and one
per-epoch shuffle sequence from the *ensemble* seed instead of K
member-seed streams.  That is a different (equally valid) training
run than the historical per-member default, so stacked ensemble
training is opt-in: ``TrainingConfig(member_training="stacked")``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from ..core.graph import collate
from ..core.model import MemberStack
from ..core.training import (CostModel, TrainingHistory,
                             _oversampled_pool, holdout_size,
                             resolve_loss_kind)
from ..nn.optim import StackedAdam, stacked_clip_grad_norm
from .corpus import BatchSchedule

__all__ = ["StackedTrainer"]


def _jsonable(value):
    """Normalize through JSON so in-memory fingerprints compare equal
    to checkpoint headers read back from disk (tuples become lists,
    dict keys become strings)."""
    return json.loads(json.dumps(value))


class StackedTrainer:
    """Trains every member of one metric ensemble in lock-step."""

    def __init__(self, members: list[CostModel]):
        if not members:
            raise ValueError("cannot train an empty member list")
        self.members = members
        self.config = members[0].config

    # ------------------------------------------------------------------
    def fit(self, graphs, labels: np.ndarray,
            val_graphs=None, val_labels=None,
            epochs: int | None = None,
            schedule: BatchSchedule | None = None,
            checkpoint_path=None, checkpoint_every: int = 1,
            resume: bool = False, on_epoch_end=None
            ) -> list[TrainingHistory]:
        """Train all members; returns their histories.

        ``schedule`` defaults to ``BatchSchedule(members[0].seed)``.
        Without ``val_graphs`` the schedule's split holds out
        :func:`~repro.core.training.holdout_size` graphs; binary
        metrics with ``balance_classes`` sample from the oversampled
        pool; the learning rate decays every ``lr_decay_every``
        epochs; each member early-stops on its own validation loss
        and ends with its best-epoch weights loaded.  Histories append
        to each member's ``CostModel.history``.

        ``checkpoint_path`` enables epoch-granular, atomically written
        crash recovery: every ``checkpoint_every`` epochs the complete
        training state — weight stacks, best-state snapshots, Adam
        moments, early-stopping counters and histories — is saved, and
        a run killed at any point and re-invoked with ``resume=True``
        (same data, same arguments) finishes bitwise identical to the
        uninterrupted one (PERFORMANCE.md §13).  A kill mid-epoch
        replays that epoch from its start.  The schedule needs no
        serialized state — a fresh :class:`~repro.training.
        BatchSchedule` with the same seed replays the split and every
        epoch's shuffle deterministically.  ``on_epoch_end(epoch)`` is
        called after each epoch's checkpoint; exceptions propagate.
        """
        members = self.members
        config = self.config
        size = len(members)
        labels = np.asarray(labels, dtype=np.float64)
        schedule = schedule or BatchSchedule(members[0].seed)
        if val_graphs is None:
            n_val = holdout_size(len(graphs), config.val_fraction)
            order = schedule.split_order(len(graphs))
            val_rows, train_rows = order[:n_val], order[n_val:]
            val_graphs = [graphs[i] for i in val_rows]
            val_labels = labels[val_rows]
            graphs = [graphs[i] for i in train_rows]
            labels = labels[train_rows]
        else:
            val_labels = np.asarray(val_labels, dtype=np.float64)

        stack = MemberStack([m.network for m in members])
        params = stack.parameters()
        optimizer = StackedAdam(params, size,
                                lr=config.learning_rate,
                                weight_decay=config.weight_decay)
        best_val = np.full(size, np.inf)
        best_state = [stack.member_state(k) for k in range(size)]
        epochs_since_best = [0] * size
        active = [True] * size
        budget = epochs if epochs is not None else config.epochs

        sample_pool = np.arange(len(graphs))
        if not members[0].is_regression and config.balance_classes:
            sample_pool = _oversampled_pool(labels)

        val_pairs = schedule.val_pairs(val_graphs, val_labels,
                                       config.batch_size)
        loss_kind = resolve_loss_kind(config, members[0].is_regression)
        histories = [member.history for member in members]

        checkpointing = checkpoint_path is not None
        if checkpointing:
            # Imported here: persistence builds on the core modules.
            from ..core.persistence import (load_checkpoint,
                                            save_checkpoint)

            fingerprint = _jsonable({
                "kind": "stacked_fit",
                "metrics": [member.metric for member in members],
                "seeds": [member.seed for member in members],
                "size": size,
                "n_train": len(graphs),
                "n_val": len(val_graphs),
                "budget": budget,
                "loss_kind": loss_kind,
                "schedule_seed": getattr(schedule, "seed", None),
                "config": dataclasses.asdict(config),
            })

            def save_fit_state(next_epoch: int, completed: bool):
                arrays = {}
                for i, param in enumerate(params):
                    arrays[f"stack/{i}"] = param.data
                for k, state in enumerate(best_state):
                    for key, value in state.items():
                        arrays[f"best/{k}/{key}"] = value
                for i, (m, v) in enumerate(zip(optimizer._m,
                                               optimizer._v)):
                    arrays[f"adam_m/{i}"] = m
                    arrays[f"adam_v/{i}"] = v
                arrays["best_val"] = best_val
                for k, history in enumerate(histories):
                    arrays[f"hist/{k}/train"] = np.asarray(
                        history.train_loss, dtype=np.float64)
                    arrays[f"hist/{k}/val"] = np.asarray(
                        history.val_loss, dtype=np.float64)
                save_checkpoint(checkpoint_path, {
                    "kind": "stacked_fit", "version": 1,
                    "fingerprint": fingerprint,
                    "epoch": next_epoch,
                    "completed": completed,
                    "epochs_since_best": list(epochs_since_best),
                    "active": [bool(flag) for flag in active],
                    "best_epoch": [history.best_epoch
                                   for history in histories],
                    "adam_step": optimizer._step,
                }, arrays)

        start_epoch = 0
        if checkpointing and resume and Path(checkpoint_path).exists():
            header, arrays = load_checkpoint(checkpoint_path)
            if header.get("fingerprint") != fingerprint:
                raise ValueError(
                    "checkpoint does not match this training run "
                    "(different members, data, or configuration)")
            for i, param in enumerate(params):
                param.data[:] = arrays[f"stack/{i}"]
            best_state = [
                {key: arrays[f"best/{k}/{key}"].copy()
                 for key in best_state[k]}
                for k in range(size)]
            best_val = arrays["best_val"].astype(np.float64)
            optimizer._step = int(header["adam_step"])
            for i in range(len(params)):
                optimizer._m[i][:] = arrays[f"adam_m/{i}"]
                optimizer._v[i][:] = arrays[f"adam_v/{i}"]
            epochs_since_best = [int(n) for n
                                 in header["epochs_since_best"]]
            active = [bool(flag) for flag in header["active"]]
            for k, history in enumerate(histories):
                history.train_loss[:] = [
                    float(x) for x in arrays[f"hist/{k}/train"]]
                history.val_loss[:] = [
                    float(x) for x in arrays[f"hist/{k}/val"]]
                history.best_epoch = int(header["best_epoch"][k])
            start_epoch = int(header["epoch"])
            if header["completed"]:
                for k, member in enumerate(members):
                    member.network.load_state_dict(best_state[k])
                return histories

        for epoch in range(start_epoch, budget):
            if not any(active):
                break
            optimizer.lr = config.learning_rate * (
                config.lr_decay ** (epoch // config.lr_decay_every))
            order = schedule.epoch_order(epoch, sample_pool)
            epoch_loss = np.zeros(size)
            n_batches = 0
            for start in range(0, len(order), config.batch_size):
                rows = order[start:start + config.batch_size]
                batch = collate([graphs[i] for i in rows])
                optimizer.zero_grad()
                losses = stack.loss_and_grad(batch, labels[rows],
                                             loss_kind)
                stacked_clip_grad_norm(params, config.grad_clip, size)
                optimizer.step()
                epoch_loss += losses
                n_batches += 1
            mean_loss = epoch_loss / max(n_batches, 1)
            val_losses = stack.loss_over_batches(val_pairs, loss_kind)
            for k in range(size):
                if not active[k]:
                    continue
                histories[k].train_loss.append(float(mean_loss[k]))
                histories[k].val_loss.append(float(val_losses[k]))
                if val_losses[k] < best_val[k] - 1e-6:
                    best_val[k] = val_losses[k]
                    best_state[k] = stack.member_state(k)
                    histories[k].best_epoch = epoch
                    epochs_since_best[k] = 0
                else:
                    epochs_since_best[k] += 1
                    if epochs_since_best[k] >= config.patience:
                        active[k] = False
            stop = not any(active)
            if checkpointing and (stop or epoch + 1 == budget
                                  or (epoch + 1) % checkpoint_every
                                  == 0):
                save_fit_state(epoch + 1,
                               completed=stop or epoch + 1 == budget)
            if on_epoch_end is not None:
                on_epoch_end(epoch)

        for k, member in enumerate(members):
            member.network.load_state_dict(best_state[k])
        return histories
