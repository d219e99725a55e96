"""Training regimes, optimizer plumbing, evaluation, and random search."""

from langlab.optim import AdamState, adam_step
from langlab.training.batching import Batch, CyclingBatches, TaskSpec, make_batch, task_spec_for
from langlab.training.network import EmbeddedData, composite_step, embed_examples
from langlab.training.regimes import (
    ExperimentConfig,
    ProbeRun,
    TrainingRun,
    retrain_language_probe,
    run_regime,
    train_frozen_probe,
)
from langlab.training.evaluate import (
    bag_of_tokens_lid_f1,
    evaluate_lid,
    evaluate_task,
    macro_f1_ids,
)
from langlab.training.search import TABLE_GRIDS, SearchResult, grids_for_regime, random_search

__all__ = [
    "AdamState",
    "adam_step",
    "Batch",
    "CyclingBatches",
    "TaskSpec",
    "make_batch",
    "task_spec_for",
    "EmbeddedData",
    "composite_step",
    "embed_examples",
    "ExperimentConfig",
    "ProbeRun",
    "TrainingRun",
    "retrain_language_probe",
    "run_regime",
    "train_frozen_probe",
    "bag_of_tokens_lid_f1",
    "evaluate_lid",
    "evaluate_task",
    "macro_f1_ids",
    "TABLE_GRIDS",
    "SearchResult",
    "grids_for_regime",
    "random_search",
]
