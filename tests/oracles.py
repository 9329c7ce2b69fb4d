"""Reference implementations the production engine is tested against.

Production training and inference run on one engine, the
:class:`~repro.core.model.MemberStack` (K members, or K=1 for a single
``CostModel``).  The oracles here are independent of it: they drive
each member's taped :meth:`~repro.core.model.CostreamGNN.forward` and
``loss.backward()``, so every bitwise check compares the stack with
the autodiff tape rather than with itself.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import as_batches, collate
from repro.core.training import TrainingHistory, resolve_loss_kind
from repro.nn import (Adam, bce_with_logits_loss, clip_grad_norm,
                      mse_loss, msle_loss, no_grad)
from repro.training import BatchSchedule

#: The taped loss of each ``resolve_loss_kind`` value.
TAPED_LOSSES = {"msle": msle_loss, "mse": mse_loss,
                "bce": bce_with_logits_loss}


def member_predictions_reference(ensemble, graphs) -> np.ndarray:
    """``(size, n_graphs)`` label-space predictions, one taped forward
    per member and batch (no merged batches: the taped readout runs
    one GEMM over the whole batch)."""
    batches = as_batches(graphs, ensemble.members[0].config.batch_size)
    with no_grad():
        raw = np.stack([
            np.concatenate([member.network(batch).numpy()
                            for batch in batches])
            for member in ensemble.members])
    return ensemble.members[0].to_label_space(raw)


def fit_members_sequential(members, graphs, labels, val_graphs=None,
                           val_labels=None, epochs=None, schedule=None
                           ) -> list[TrainingHistory]:
    """``CostModel.fit`` per member under one shared schedule — the
    sequential counterpart of one K-member ``StackedTrainer`` run."""
    schedule = schedule or BatchSchedule(members[0].seed)
    return [member.fit(graphs, labels, val_graphs, val_labels,
                       epochs=epochs, schedule=schedule)
            for member in members]


def _oversampled_rows(labels: np.ndarray) -> np.ndarray:
    positive = labels >= 0.5
    pos, neg = np.nonzero(positive)[0], np.nonzero(~positive)[0]
    if pos.size == 0 or neg.size == 0:
        return np.arange(labels.size)
    minority, majority = sorted((pos, neg), key=len)
    return np.concatenate([majority]
                          + [minority] * (majority.size // minority.size))


def tape_fit(model, graphs, labels) -> TrainingHistory:
    """``CostModel.fit`` written on the autodiff tape.

    One ``np.random.default_rng(model.seed)`` stream draws the
    train/val split and then one permutation per epoch over the
    (oversampled, for balanced binary metrics) sample pool; each
    mini-batch is collated, run through the taped forward and
    ``loss.backward()``, clipped and stepped with Adam under the
    decayed learning rate; validation runs the taped forward, and the
    best-epoch weights are restored once patience runs out.
    """
    config = model.config
    network = model.network
    labels = np.asarray(labels, dtype=np.float64)
    rng = np.random.default_rng(model.seed)
    n_val = max(1, int(len(graphs) * config.val_fraction),
                min(20, len(graphs) // 5))
    order = rng.permutation(len(graphs))
    val_graphs = [graphs[i] for i in order[:n_val]]
    val_labels = labels[order[:n_val]]
    train_graphs = [graphs[i] for i in order[n_val:]]
    train_labels = labels[order[n_val:]]

    loss_fn = TAPED_LOSSES[resolve_loss_kind(config, model.is_regression)]
    params = network.parameters()
    optimizer = Adam(params, lr=config.learning_rate,
                     weight_decay=config.weight_decay)
    sample_pool = np.arange(len(train_graphs))
    if not model.is_regression and config.balance_classes:
        sample_pool = _oversampled_rows(train_labels)
    size = config.batch_size
    val_batches = [(collate(val_graphs[start:start + size]),
                    val_labels[start:start + size])
                   for start in range(0, len(val_graphs), size)]

    history = model.history
    best_val = float("inf")
    best_state = network.state_dict()
    since_best = 0
    for epoch in range(config.epochs):
        optimizer.lr = config.learning_rate * (
            config.lr_decay ** (epoch // config.lr_decay_every))
        epoch_order = sample_pool[rng.permutation(len(sample_pool))]
        total, n_batches = 0.0, 0
        for start in range(0, len(epoch_order), size):
            rows = epoch_order[start:start + size]
            loss = loss_fn(network(collate([train_graphs[i]
                                            for i in rows])),
                           train_labels[rows])
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(params, config.grad_clip)
            optimizer.step()
            total += loss.item()
            n_batches += 1
        history.train_loss.append(total / max(n_batches, 1))

        val_total, count = 0.0, 0
        with no_grad():
            for batch, chunk_labels in val_batches:
                val_total += (loss_fn(network(batch), chunk_labels).item()
                              * batch.n_graphs)
                count += batch.n_graphs
        val_loss = val_total / max(count, 1)
        history.val_loss.append(val_loss)
        if val_loss < best_val - 1e-6:
            best_val = val_loss
            best_state = network.state_dict()
            history.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    network.load_state_dict(best_state)
    return history
