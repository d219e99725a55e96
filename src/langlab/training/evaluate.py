"""Macro-F1 evaluation of heads over frozen eval-mode embeddings."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from langlab.analysis.metrics import macro_f1
from langlab.heads import ClassifierHead, head_logits
from langlab.training.network import EmbeddedData, embed_examples

if TYPE_CHECKING:   # pipeline.py imports this module
    from langlab.pipeline import RunData


def head_f1(head: ClassifierHead, X: np.ndarray, y, n_classes: int) -> float:
    """Macro F1 of the head's argmax over ids 0..n_classes-1."""
    return macro_f1(head_logits(head, X).argmax(axis=-1), y, range(n_classes))


def per_language_task_f1(head: ClassifierHead, emb: EmbeddedData,
                         n_classes: int, languages) -> dict[str, float]:
    """Task F1 per language plus the overall pooled score."""
    preds = head_logits(head, emb.X).argmax(axis=-1)
    classes = range(n_classes)
    report = {"overall": macro_f1(preds, emb.task_y, classes)}
    for lang_id, lang in enumerate(languages):
        rows = emb.lang_y == lang_id
        if rows.any():
            report[lang] = macro_f1(preds[rows], emb.task_y[rows], classes)
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
    return head_f1(head, emb.X, emb.lang_y, len(lang_to_id))
