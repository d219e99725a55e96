"""Macro-averaged F1 and the V-measure clustering score."""

from __future__ import annotations

import numpy as np


def macro_f1(predictions, golds, n_classes: int) -> float:
    """Unweighted mean per-class F1 over the class ids 0..n_classes-1.

    A class absent from both predictions and golds contributes F1 = 0,
    which keeps scores comparable across languages with missing classes.
    """
    predictions = np.asarray(predictions)
    golds = np.asarray(golds)
    if not len(golds):
        raise ValueError("macro_f1 needs at least one example")
    if len(predictions) != len(golds):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions, {len(golds)} golds"
        )
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    # confusion counts over the classes, plus one slot (index k) for ids
    # outside them
    k = n_classes
    g = np.where((golds >= 0) & (golds < k), golds, k)
    p = np.where((predictions >= 0) & (predictions < k), predictions, k)
    confusion = np.bincount(g * (k + 1) + p,
                            minlength=(k + 1) ** 2).reshape(k + 1, k + 1)
    tp = confusion.diagonal().tolist()
    predicted = confusion.sum(axis=0).tolist()
    gold = confusion.sum(axis=1).tolist()
    total = 0.0
    for i in range(k):
        if predicted[i] + gold[i] == 0:    # = 2tp + fp + fn
            continue  # F1 = 0 for this class
        total += 2 * tp[i] / (predicted[i] + gold[i])
    return total / k


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def v_measure(gold_classes, clusters) -> float:
    """V = 2hc/(h+c) from conditional-entropy homogeneity/completeness.

    Natural-log entropies (the ratio form makes the result base
    invariant).  Conventions: h = 1 when H(C) = 0, c = 1 when H(K) = 0,
    V = 0 when h + c = 0.
    """
    gold_classes = list(gold_classes)
    clusters = list(clusters)
    if not gold_classes:
        raise ValueError("v_measure needs at least one point")
    if len(gold_classes) != len(clusters):
        raise ValueError(
            f"length mismatch: {len(gold_classes)} classes, {len(clusters)} clusters"
        )
    class_ids = {c: i for i, c in enumerate(dict.fromkeys(gold_classes))}
    cluster_ids = {k: i for i, k in enumerate(dict.fromkeys(clusters))}
    table = np.zeros((len(class_ids), len(cluster_ids)))
    for g, k in zip(gold_classes, clusters):
        table[class_ids[g], cluster_ids[k]] += 1
    n = table.sum()

    h_c = _entropy(table.sum(axis=1))
    h_k = _entropy(table.sum(axis=0))
    # H(C|K) = sum_k p(k) H(C | K=k), and symmetrically
    h_c_given_k = sum(
        (col.sum() / n) * _entropy(col) for col in table.T if col.sum() > 0
    )
    h_k_given_c = sum(
        (row.sum() / n) * _entropy(row) for row in table if row.sum() > 0
    )
    h = 1.0 if h_c == 0.0 else 1.0 - h_c_given_k / h_c
    c = 1.0 if h_k == 0.0 else 1.0 - h_k_given_c / h_k
    if h + c == 0.0:
        return 0.0
    return 2.0 * h * c / (h + c)
