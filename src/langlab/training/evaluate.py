"""Macro-F1 evaluation of heads over frozen eval-mode embeddings."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from langlab.analysis.metrics import macro_f1
from langlab.heads import ClassifierHead, head_logits
from langlab.training.network import EmbeddedData, embed_examples

if TYPE_CHECKING:   # pipeline.py imports this module
    from langlab.pipeline import RunData


def macro_f1_ids(preds, golds, n_classes: int) -> float:
    return macro_f1(list(preds), list(golds), list(range(n_classes)))


def head_predictions(head: ClassifierHead, X: np.ndarray) -> np.ndarray:
    return head_logits(head, X).argmax(axis=-1)


def cached_task_f1(head: ClassifierHead, emb: EmbeddedData, n_classes: int) -> float:
    return macro_f1_ids(head_predictions(head, emb.X), emb.task_y, n_classes)


def cached_lid_f1(head: ClassifierHead, emb: EmbeddedData, n_languages: int) -> float:
    return macro_f1_ids(head_predictions(head, emb.X), emb.lang_y, n_languages)


def per_language_task_f1(head: ClassifierHead, emb: EmbeddedData,
                         n_classes: int, languages) -> dict[str, float]:
    """Task F1 per language plus the overall pooled score."""
    preds = head_predictions(head, emb.X)
    report = {"overall": macro_f1_ids(preds, emb.task_y, n_classes)}
    for lang_id, lang in enumerate(languages):
        rows = emb.lang_y == lang_id
        if rows.any():
            report[lang] = macro_f1_ids(preds[rows], emb.task_y[rows], n_classes)
    return report


def evaluate_task(encoder, head: ClassifierHead, examples,
                  data: RunData) -> dict[str, float]:
    """Task F1 per language and overall, under the run's corpus indexes."""
    spec = data.task_spec
    emb = embed_examples(encoder, examples, spec.level, data.lang_to_id,
                         spec.label_to_id)
    return per_language_task_f1(head, emb, spec.n_classes, data.languages)


def evaluate_lid(encoder, head: ClassifierHead, examples, level: str,
                 lang_to_id: dict) -> float:
    """Macro F1 of language prediction at the dataset's granularity."""
    emb = embed_examples(encoder, examples, level, lang_to_id)
    return cached_lid_f1(head, emb, len(lang_to_id))
