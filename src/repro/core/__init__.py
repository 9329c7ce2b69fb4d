"""COSTREAM core: featurization, joint graph, GNN, training, ensembles."""

from .costream import Costream
from .dataset import GraphDataset, split_traces
from .ensemble import MetricEnsemble
from .features import FEATURE_MODES, Featurizer, NODE_TYPES
from .graph import (GraphBatch, HostFeatures, PlanFeatures, QueryGraph,
                    as_batches, batches_equal, build_graph, collate,
                    collate_candidates, collate_candidates_reference,
                    collate_chunks, collate_reference, featurize_hosts,
                    featurize_plan, mega_mergeable, merge_batches)
from .metrics import (balance_classes, classification_accuracy, q_error,
                      q_error_percentiles)
from .model import CostreamGNN, MemberStack, MESSAGE_SCHEMES, StackCache
from .persistence import load_costream, save_costream
from .training import CostModel, TrainingConfig, TrainingHistory

__all__ = [
    "Costream", "GraphDataset", "split_traces", "MetricEnsemble",
    "FEATURE_MODES", "Featurizer", "NODE_TYPES", "GraphBatch", "QueryGraph",
    "build_graph", "collate", "collate_candidates",
    "collate_candidates_reference", "collate_chunks",
    "collate_reference", "HostFeatures", "batches_equal",
    "as_batches", "PlanFeatures", "featurize_plan", "featurize_hosts",
    "mega_mergeable", "merge_batches",
    "balance_classes", "classification_accuracy",
    "q_error", "q_error_percentiles", "CostreamGNN", "MemberStack",
    "StackCache", "MESSAGE_SCHEMES",
    "CostModel", "TrainingConfig", "TrainingHistory", "load_costream",
    "save_costream",
]
