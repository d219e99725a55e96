"""Macro-F1 evaluation of heads over frozen eval-mode embeddings."""

from __future__ import annotations

import numpy as np

from langlab.analysis.metrics import macro_f1
from langlab.heads import ClassifierHead, head_logits
from langlab.training.network import EmbeddedData, embed_examples


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


def evaluate_task(encoder, head: ClassifierHead, examples, task_spec,
                  lang_to_id: dict) -> dict[str, float]:
    emb = embed_examples(encoder, examples, task_spec.level, lang_to_id,
                         task_spec.label_to_id)
    languages = [l for l, _ in sorted(lang_to_id.items(), key=lambda kv: kv[1])]
    return per_language_task_f1(head, emb, task_spec.n_classes, languages)


def evaluate_lid(encoder, head: ClassifierHead, examples, level: str,
                 lang_to_id: dict) -> float:
    """Macro F1 of language prediction at the dataset's granularity."""
    emb = embed_examples(encoder, examples, level, lang_to_id)
    return cached_lid_f1(head, emb, len(lang_to_id))


def token_count_features(examples, vocab_size: int) -> np.ndarray:
    """Length-normalized token count vectors, one row per example."""
    X = np.zeros((len(examples), vocab_size))
    for i, ex in enumerate(examples):
        for t in ex.sequence.tokens:
            X[i, t] += 1.0
        X[i] /= len(ex.sequence.tokens)
    return X


def bag_of_tokens_lid_f1(lid_split, vocab_size: int, lang_to_id: dict, *,
                         head_lr: float = 1e-1, batch_size: int = 32,
                         epochs: int = 5, init_std: float = 1e-2,
                         seed: int = 0) -> float:
    """Text-level LID baseline: linear head over raw token counts.

    Trains on the train part with best-epoch selection on val, then scores
    the test part. Measures how much language identity is recoverable from
    surface statistics alone, without any encoder.
    """
    # imported here because regimes imports this module
    from langlab.training.regimes import _train_head_on_cached

    parts = (lid_split.train, lid_split.val, lid_split.test)
    X = [token_count_features(part, vocab_size) for part in parts]
    y = [np.array([lang_to_id[ex.language] for ex in part]) for part in parts]
    probe = _train_head_on_cached(
        X[0], y[0], X[1], y[1], len(lang_to_id), init_std=init_std,
        head_lr=head_lr, batch_size=batch_size, epochs=epochs, seed=seed,
        dropout=0.0, tag="bag-of-tokens")
    return macro_f1_ids(head_predictions(probe.head, X[2]), y[2],
                        len(lang_to_id))
