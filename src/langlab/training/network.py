"""Composite encoder+heads step and embedding caching.

One step function serves plain fine-tuning, gradient reversal, and the
entropy-maximisation even phase, so the reduction identities (lambda=0
and w=0 recover plain fine-tuning) hold by construction: the same code
path executes with the extra terms contributing exact zeros.

The heads read the rows a Batch names (batching.make_batch decides
them); the encoder returns them as the (M, d) classified vectors X, in
the order of the batch's task_y and lang_y, and the (M, d) gradient at
X goes straight back to backward_batch.

Dropout layout per step: one training-mode forward (_train_forward)
serves the task batch and the language-data batch alike.  It draws the
encoder-internal masks, then one output-dropout mask shared by every
head reading those embeddings, all from the rng it is given, through the
encoder's one mask helper (dropout_mask).  The language-data forward
draws from its own rng so optional branches never perturb the task-side
stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from langlab.encoder import EncoderModel, backward_batch, dropout_mask, forward_batch
from langlab.heads import (
    ClassifierHead,
    ce_loss_and_dlogits,
    grad_reversal_backward,
    head_backward,
    head_logits,
    language_term_and_dlogits,
)
from langlab.training.batching import Batch, make_batch

if TYPE_CHECKING:   # config.py imports regimes.py, which imports this module
    from langlab.config import PipelineConfig


def _train_forward(encoder: EncoderModel, batch: Batch, rng):
    """Training-mode forward plus output dropout, all masks from rng.

    Returns (tape, mask, X after mask) at the batch's read rows; mask is
    None when the encoder has no dropout.
    """
    X, tape = forward_batch(encoder, batch.ids, batch.lengths, rng=rng,
                            want_tape=True, read=batch.read)
    mask = dropout_mask(X.shape, encoder.config.dropout, rng)
    return tape, mask, (X * mask if mask is not None else X)


def composite_step(encoder: EncoderModel, task_head: ClassifierHead,
                   lang_head: ClassifierHead | None, batch: Batch,
                   lid_batch: Batch | None, cfg: PipelineConfig,
                   rng_task, rng_lid) -> tuple[dict, dict[str, float]]:
    """Forward/backward for one update under cfg.regime: (grads, losses),
    each keyed by name ("enc/<param>", "task/w", "lang/b"; "task",
    "lang_term", "lang").

    finetune: the task CE alone; lang_head, lid_batch and rng_lid are
    unused.  entropy_max (the even phase): cfg.w weighs the confusion
    term (cfg.language_term_variant), evaluated on the task batch
    through the frozen lang_head, against the task CE.  grad_reversal:
    the language CE on lid_batch, with dropout from rng_lid, trains
    lang_head normally and reaches the encoder scaled by
    -cfg.grl_lambda.
    """
    tape, mask, Xd = _train_forward(encoder, batch, rng_task)

    losses = {}
    losses["task"], d_logits_t = ce_loss_and_dlogits(
        head_logits(task_head, Xd), batch.task_y)
    dw_t, db_t, dXd = head_backward(task_head, Xd, d_logits_t)

    if cfg.regime == "entropy_max":
        w = cfg.w
        losses["lang_term"], d_logits_l = language_term_and_dlogits(
            head_logits(lang_head, Xd), cfg.language_term_variant
        )
        dXd = (1.0 - w) * dXd + w * (d_logits_l @ lang_head.w.T)
        dw_t = (1.0 - w) * dw_t
        db_t = (1.0 - w) * db_t

    dX = dXd * mask if mask is not None else dXd
    grads_enc = backward_batch(encoder, tape, dX)
    grads = {f"enc/{k}": v for k, v in grads_enc.items()}
    grads["task/w"] = dw_t
    grads["task/b"] = db_t

    if cfg.regime == "grad_reversal":
        tape2, mask2, X2d = _train_forward(encoder, lid_batch, rng_lid)
        losses["lang"], d_logits = ce_loss_and_dlogits(
            head_logits(lang_head, X2d), lid_batch.lang_y
        )
        dw_l, db_l, dX2d = head_backward(lang_head, X2d, d_logits)
        dX2 = dX2d * mask2 if mask2 is not None else dX2d
        # the reversal layer sits between encoder and language head
        grads2 = backward_batch(encoder, tape2,
                                grad_reversal_backward(dX2, cfg.grl_lambda))
        for k, v in grads2.items():
            grads[f"enc/{k}"] += v
        grads["lang/w"] = dw_l
        grads["lang/b"] = db_l

    return grads, losses


# ----------------------------------------------------------------------------
# Eval-mode embedding cache: probes and evaluation reuse fixed encoder
# outputs instead of re-running the encoder every epoch.
# ----------------------------------------------------------------------------

EMBED_BATCH = 64


@dataclass
class EmbeddedData:
    X: np.ndarray                  # (M, d) one row per classified vector
    task_y: np.ndarray | None      # (M,)
    lang_y: np.ndarray             # (M,)


def embed_examples(encoder: EncoderModel, examples, level: str,
                   lang_to_id: dict, label_to_id: dict | None = None) -> EmbeddedData:
    """Eval-mode embeddings for every classified vector in the examples."""
    xs, tys, lys = [], [], []
    for start in range(0, len(examples), EMBED_BATCH):
        chunk = list(examples[start:start + EMBED_BATCH])
        batch = make_batch(chunk, label_to_id, lang_to_id, level)
        X, _ = forward_batch(encoder, batch.ids, batch.lengths, read=batch.read)
        xs.append(X)
        tys.append(batch.task_y)
        lys.append(batch.lang_y)
    return EmbeddedData(
        X=np.concatenate(xs),
        task_y=np.concatenate(tys) if label_to_id is not None else None,
        lang_y=np.concatenate(lys),
    )
