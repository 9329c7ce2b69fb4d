"""The training engine (see PERFORMANCE.md).

Every cost model trains through ONE loop over a
:class:`~repro.core.model.MemberStack` — one batched-GEMM
forward/backward per mini-batch for all K members of a metric
ensemble, and K=1 for a single :class:`~repro.core.training.CostModel`:

* :class:`TrainingCorpus` — featurizes a trace corpus once and serves
  cached metric views to every ensemble (``Costream.fit`` and
  ``fine_tune`` both route through it);
* :class:`BatchSchedule` — one deterministic split/shuffle source,
  shared by all members that should train on the same draws;
* :class:`StackedTrainer` — the K-member lock-step trainer; under a
  shared schedule each member is bitwise identical to its own
  one-member ``CostModel.fit`` run.

Ensembles opt in to one shared schedule with
``TrainingConfig(member_training="stacked")``.
"""

from .corpus import BatchSchedule, TrainingCorpus
from .stacked import StackedTrainer

__all__ = ["BatchSchedule", "TrainingCorpus", "StackedTrainer"]
