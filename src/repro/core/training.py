"""Training of single-metric COSTREAM cost models.

Each of the five cost metrics gets its own GNN (Section IV-A): MSLE
loss for the regression metrics (throughput, latencies), binary cross
entropy for backpressure occurrence and query success.  Training uses
Adam with gradient clipping, mini-batched graph collation, and early
stopping on a validation split; a :class:`CostModel` trains and
predicts as a one-member :class:`~repro.core.model.MemberStack`
through the same loop as an ensemble
(:class:`repro.training.StackedTrainer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..simulator.result import METRIC_NAMES, REGRESSION_METRICS
from .features import Featurizer
from .graph import GraphBatch, QueryGraph, as_batches
from .model import CostreamGNN, MemberStack, StackCache

__all__ = ["TrainingConfig", "CostModel", "TrainingHistory",
           "paired_batches", "holdout_size", "resolve_loss_kind"]


def _oversampled_pool(labels: np.ndarray) -> np.ndarray:
    """Row indices with the minority class replicated to near parity."""
    labels = np.asarray(labels) >= 0.5
    positives = np.nonzero(labels)[0]
    negatives = np.nonzero(~labels)[0]
    if positives.size == 0 or negatives.size == 0:
        return np.arange(labels.size)
    minority, majority = sorted((positives, negatives), key=len)
    repeats = max(1, majority.size // max(minority.size, 1))
    return np.concatenate([majority] + [minority] * repeats)


def paired_batches(graphs, labels: np.ndarray, batch_size: int
                   ) -> list[tuple["GraphBatch", np.ndarray]]:
    """Collate (graphs, labels) into aligned evaluation batches.

    Shared by :meth:`CostModel.evaluate_loss` and the validation pairs
    :class:`repro.training.BatchSchedule` caches.
    """
    batches = as_batches(graphs, batch_size)
    pairs = []
    start = 0
    for batch in batches:
        pairs.append((batch, labels[start:start + batch.n_graphs]))
        start += batch.n_graphs
    return pairs


def holdout_size(n_graphs: int, val_fraction: float) -> int:
    """Validation rows held out of ``n_graphs`` training graphs.

    A too-small validation split makes early stopping pick an
    arbitrary epoch; hold out at least ~20 graphs when the dataset
    affords it.
    """
    return max(1, int(n_graphs * val_fraction),
               min(20, n_graphs // 5))


def resolve_loss_kind(config: "TrainingConfig",
                      is_regression: bool) -> str:
    """The concrete loss behind ``config.loss`` (``"auto"`` resolves
    by metric kind)."""
    if config.loss == "auto":
        return "msle" if is_regression else "bce"
    return config.loss


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters for one cost-model training run."""

    hidden_dim: int = 48
    epochs: int = 60
    batch_size: int = 64
    learning_rate: float = 3e-3
    lr_decay: float = 0.5       # multiplier applied every lr_decay_every
    lr_decay_every: int = 20    # epochs between learning-rate decays
    weight_decay: float = 1e-5
    grad_clip: float = 5.0
    patience: int = 12          # early-stopping patience, in epochs
    val_fraction: float = 0.1   # used when no explicit val set is given
    scheme: str = "staged"      # or "traditional" (Exp 7b)
    loss: str = "auto"          # "msle" | "mse" | "bce" | "auto"
    balance_classes: bool = True  # oversample minority class (binary)
    #: How :class:`~repro.core.ensemble.MetricEnsemble` trains its
    #: members: ``"per_member"`` (the historical default: K sequential
    #: ``CostModel.fit`` runs, each drawing its own member-seeded
    #: schedule) or ``"stacked"`` (one
    #: :class:`repro.training.StackedTrainer` run: one shared
    #: ensemble-seeded schedule, all K members stepped in one
    #: batched-GEMM forward/backward per mini-batch — bitwise
    #: identical to K ``CostModel.fit`` runs under that shared
    #: schedule).
    member_training: str = "per_member"


@dataclass
class TrainingHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1


class CostModel:
    """One trained GNN predicting one cost metric."""

    def __init__(self, metric: str, config: TrainingConfig | None = None,
                 featurizer: Featurizer | None = None, seed: int = 0):
        if metric not in METRIC_NAMES:
            raise ValueError(f"unknown metric {metric!r}")
        self.metric = metric
        self.config = config or TrainingConfig()
        self.featurizer = featurizer or Featurizer()
        self.seed = seed
        self.network = CostreamGNN(self.featurizer,
                                   hidden_dim=self.config.hidden_dim,
                                   seed=seed, scheme=self.config.scheme)
        self.history = TrainingHistory()
        self._stacks = StackCache([self.network])

    # ------------------------------------------------------------------
    @property
    def is_regression(self) -> bool:
        return self.metric in REGRESSION_METRICS

    # ------------------------------------------------------------------
    def fit(self, graphs: list[QueryGraph], labels: np.ndarray,
            val_graphs: list[QueryGraph] | None = None,
            val_labels: np.ndarray | None = None,
            epochs: int | None = None, schedule=None,
            checkpoint_path=None, checkpoint_every: int = 1,
            resume: bool = False, on_epoch_end=None) -> TrainingHistory:
        """Train until convergence or the epoch budget is exhausted.

        Runs as a one-member :class:`repro.training.StackedTrainer`.
        Without a ``schedule`` the trainer draws
        ``BatchSchedule(self.seed)``: the train/val split and the
        per-epoch shuffles of one ``np.random.default_rng(self.seed)``
        stream.  A shared schedule is how K ensemble members train
        comparably: K ``fit`` calls under one schedule are bitwise
        identical to one K-member stacked run.

        ``checkpoint_path`` enables epoch-granular crash recovery
        (PERFORMANCE.md §13): a run killed at any point and re-invoked
        with ``resume=True`` (same data, same arguments) finishes
        **bitwise identical** to the uninterrupted run.
        ``on_epoch_end(epoch)`` is called after each epoch's
        checkpoint; exceptions propagate.
        """
        # Imported here: repro.training builds on repro.core.
        from ..training.stacked import StackedTrainer

        return StackedTrainer([self]).fit(
            graphs, labels, val_graphs, val_labels, epochs=epochs,
            schedule=schedule, checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every, resume=resume,
            on_epoch_end=on_epoch_end)[0]

    def fine_tune(self, graphs: list[QueryGraph], labels: np.ndarray,
                  epochs: int = 15) -> TrainingHistory:
        """Few-shot adaptation on a small extra corpus (Exp 5b)."""
        return self.fit(graphs, labels, epochs=epochs)

    # ------------------------------------------------------------------
    def member_stack(self) -> MemberStack:
        """The network as a cached one-member float64 stack, rebuilt
        when its parameter arrays are replaced (see
        :class:`~repro.core.model.StackCache`)."""
        return self._stacks.get()

    def evaluate_loss(self, graphs: list[QueryGraph] | GraphBatch,
                      labels: np.ndarray) -> float:
        """Mean loss on (graphs, labels); also accepts pre-collated
        batches."""
        labels = np.asarray(labels, dtype=np.float64)
        pairs = paired_batches(graphs, labels, self.config.batch_size)
        loss_kind = resolve_loss_kind(self.config, self.is_regression)
        return float(self.member_stack().loss_over_batches(
            pairs, loss_kind)[0])

    def predict_raw(self, graphs) -> np.ndarray:
        """Network outputs: log1p costs (regression) or logits.

        ``graphs`` may be a list of :class:`QueryGraph` (collated here),
        one :class:`GraphBatch`, or a list of pre-collated batches —
        sharing one collation across ensemble members and metrics.
        """
        stack = self.member_stack()
        return np.concatenate(
            [stack.forward(batch)[0]
             for batch in as_batches(graphs, self.config.batch_size)])

    def predict(self, graphs) -> np.ndarray:
        """Predictions in label space: costs, or class probabilities."""
        return self.to_label_space(self.predict_raw(graphs))

    def to_label_space(self, raw: np.ndarray) -> np.ndarray:
        """Map raw network outputs (log1p costs or logits) to labels.

        Shared by :meth:`predict` and the ensemble fast path so the
        transform has exactly one definition.
        """
        if self.is_regression and self.config.loss != "mse":
            return np.expm1(np.clip(raw, 0.0, 30.0))
        if self.is_regression:
            return np.maximum(raw, 0.0)
        return 1.0 / (1.0 + np.exp(-raw))
