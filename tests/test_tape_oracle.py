"""The member stack against the autodiff tape, bit for bit.

Every production forward and training step runs on
:class:`repro.core.model.MemberStack`; the taped
:meth:`repro.core.model.CostreamGNN.forward` is kept as the oracle.
A one-member stack must reproduce the tape's loss and every parameter
gradient exactly, for both message-passing schemes and every loss,
and ``CostModel.fit`` must reproduce a training loop written on the
tape (``oracles.tape_fit``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import GraphDataset
from repro.core.graph import collate
from repro.core.model import MESSAGE_SCHEMES, CostreamGNN, MemberStack
from repro.core.training import CostModel, TrainingConfig

from oracles import TAPED_LOSSES, tape_fit


@pytest.fixture(scope="module")
def dataset(tiny_corpus):
    return GraphDataset.from_traces(tiny_corpus[:120])


@pytest.mark.parametrize("scheme", MESSAGE_SCHEMES)
@pytest.mark.parametrize("loss_kind", ["msle", "bce", "mse"])
def test_one_member_step_equals_tape(dataset, scheme, loss_kind):
    metric = "success" if loss_kind == "bce" else "processing_latency"
    graphs, labels = dataset.metric_view(metric)
    batch, chunk = collate(graphs[:24]), labels[:24]
    network = CostreamGNN(hidden_dim=12, seed=4, scheme=scheme)
    stack = MemberStack([network])
    losses = stack.loss_and_grad(batch, chunk, loss_kind)

    loss = TAPED_LOSSES[loss_kind](network(batch), chunk)
    loss.backward()
    assert losses[0] == loss.item()
    for param, stacked in zip(network.parameters(), stack.parameters()):
        # Bytes, not values: signed zeros must match too.
        assert stacked.grad[0].reshape(param.grad.shape).tobytes() \
            == param.grad.tobytes()
    np.testing.assert_array_equal(stack.forward(batch)[0],
                                  network(batch).numpy())


@pytest.mark.parametrize("metric,scheme,loss", [
    ("processing_latency", "staged", "auto"),
    ("success", "staged", "auto"),
    ("throughput", "traditional", "mse"),
])
def test_fit_equals_tape_fit(dataset, metric, scheme, loss):
    graphs, labels = dataset.metric_view(metric)
    config = TrainingConfig(hidden_dim=10, epochs=6, patience=2,
                            lr_decay_every=2, batch_size=32,
                            scheme=scheme, loss=loss)
    model = CostModel(metric, config=config, seed=3)
    model.fit(graphs, labels)
    reference = CostModel(metric, config=config, seed=3)
    tape_fit(reference, graphs, labels)

    assert model.history.train_loss == reference.history.train_loss
    assert model.history.val_loss == reference.history.val_loss
    assert model.history.best_epoch == reference.history.best_epoch
    state = model.network.state_dict()
    for key, value in reference.network.state_dict().items():
        np.testing.assert_array_equal(state[key], value)
