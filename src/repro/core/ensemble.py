"""Ensembles of cost models (paper Section IV-A, 'Model Implementation').

To reduce prediction uncertainty, COSTREAM trains several models per
metric that differ only in their random initialization seed, and
combines them at inference time: the mean for regression metrics, a
majority vote for the binary metrics.

Inference runs on a *member stack* (:class:`repro.core.model.
MemberStack`): the K members' weights are stacked into 3-D tensors and
one batched-GEMM forward computes every member's prediction at once.
The float64 stack is bitwise identical to each member's own
``predict`` (a one-member stack) and to the per-member taped forward
the tests keep as the oracle; :class:`repro.nn.float32_inference` opts
in to a float32 stack with a documented tolerance (see
PERFORMANCE.md).
"""

from __future__ import annotations

import numpy as np

from ..nn.autodiff import inference_dtype
from .features import Featurizer
from .graph import GraphBatch, QueryGraph, as_batches
from .model import MemberStack, StackCache
from .training import CostModel, TrainingConfig

__all__ = ["MetricEnsemble"]


class MetricEnsemble:
    """Several same-metric models trained from different seeds."""

    def __init__(self, metric: str, size: int = 3,
                 config: TrainingConfig | None = None,
                 featurizer: Featurizer | None = None, seed: int = 0):
        if size < 1:
            raise ValueError("ensemble size must be at least 1")
        self.metric = metric
        self.members = [CostModel(metric, config=config,
                                  featurizer=featurizer,
                                  seed=seed + 1000 * i)
                        for i in range(size)]
        self._stacks = StackCache([m.network for m in self.members])

    @property
    def is_regression(self) -> bool:
        return self.members[0].is_regression

    @property
    def size(self) -> int:
        return len(self.members)

    def fit(self, graphs: list[QueryGraph], labels: np.ndarray,
            val_graphs: list[QueryGraph] | None = None,
            val_labels: np.ndarray | None = None) -> "MetricEnsemble":
        self._train(graphs, labels, val_graphs, val_labels)
        self.invalidate_stacks()
        return self

    def fine_tune(self, graphs: list[QueryGraph], labels: np.ndarray,
                  epochs: int = 15) -> "MetricEnsemble":
        self._train(graphs, labels, epochs=epochs)
        self.invalidate_stacks()
        return self

    def _train(self, graphs, labels, val_graphs=None, val_labels=None,
               epochs=None) -> None:
        """Train the members: one stacked run over a shared
        ensemble-seeded schedule when opted in
        (``TrainingConfig.member_training == "stacked"``), the
        historical member-seeded ``member.fit`` loop otherwise."""
        if self._stacked_training_supported():
            # Imported here: repro.training builds on repro.core.
            from ..training.stacked import StackedTrainer

            StackedTrainer(self.members).fit(graphs, labels,
                                             val_graphs, val_labels,
                                             epochs=epochs)
            return
        for member in self.members:
            member.fit(graphs, labels, val_graphs, val_labels,
                       epochs=epochs)

    def _stacked_training_supported(self) -> bool:
        """Whether the ensemble trains as one stacked run."""
        return self.members[0].config.member_training == "stacked"

    # ------------------------------------------------------------------
    # Batched-GEMM member stack
    # ------------------------------------------------------------------
    def invalidate_stacks(self) -> None:
        """Drop the cached weight stacks (forcing a rebuild).

        Called automatically by :meth:`fit` / :meth:`fine_tune`; the
        identity check in :meth:`member_stack` additionally catches any
        flow that *replaces* parameter arrays (``load_state_dict``, and
        therefore member-level ``fit`` and persistence loading).  Only
        external **in-place** writes to ``param.data`` — which nothing
        in this repository does between predictions — require calling
        this explicitly: until then the cached stack keeps serving the
        snapshot weights (the regression test
        ``tests/test_ensemble_batched.py::TestStackCacheInvalidation::
        test_in_place_mutation_requires_invalidate`` pins both the
        stale-without and fresh-with behavior).  The fork-backed
        :class:`repro.serving.WorkerPool` mirrors these rules for its
        worker snapshots (``WorkerPool.restart`` is its hatch).
        """
        self._stacks.clear()

    def member_stack(self, dtype=None) -> MemberStack:
        """The cached :class:`MemberStack` for ``dtype`` (current
        inference dtype when ``None``), rebuilt when stale (see
        :class:`~repro.core.model.StackCache`)."""
        return self._stacks.get(dtype or inference_dtype())

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _shared_batches(self, graphs) -> list[GraphBatch]:
        """Collate once; every member predicts from the same batches.

        Accepts graphs, one :class:`GraphBatch`, or pre-collated
        batches (shared further across metrics by the callers).
        """
        return as_batches(graphs, self.members[0].config.batch_size)

    def _member_predictions(self, graphs) -> np.ndarray:
        """(size, n_graphs) member predictions from one shared collation.

        ONE batched-GEMM forward per batch over the stacked member
        weights — float64 stacks are bitwise equivalent to the
        per-member forwards, float32 stacks (under
        :class:`repro.nn.float32_inference`) are within the documented
        tolerance.  Raw outputs are mapped to label space in float64
        either way.
        """
        batches = self._shared_batches(graphs)
        stack = self.member_stack()
        if len(batches) == 1:
            raw = stack.forward(batches[0])
        else:
            raw = np.concatenate(
                [stack.forward(batch) for batch in batches], axis=1)
        raw = raw.astype(np.float64, copy=False)
        return self.members[0].to_label_space(raw)

    def predict(self, graphs: list[QueryGraph] | GraphBatch) -> np.ndarray:
        """Combined prediction: mean (regression) / majority (binary)."""
        stacked = self._member_predictions(graphs)
        if self.is_regression:
            return stacked.mean(axis=0)
        votes = (stacked >= 0.5).sum(axis=0)
        return (votes * 2 > len(self.members)).astype(np.float64)

    def predict_proba(self, graphs: list[QueryGraph] | GraphBatch
                      ) -> np.ndarray:
        """Mean class probability (binary metrics only)."""
        if self.is_regression:
            raise ValueError(f"{self.metric} is a regression metric")
        return self._member_predictions(graphs).mean(axis=0)
