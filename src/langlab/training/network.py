"""Composite encoder+heads step and embedding caching.

One step function serves plain fine-tuning, gradient reversal, and the
entropy-maximisation even phase, so the reduction identities (lambda=0
and w=0 recover plain fine-tuning) hold by construction: the same code
path executes with the extra terms contributing exact zeros.

read_index picks the rows the heads read; the encoder returns them as
the (M, d) classified vectors X, and the (M, d) gradient at X goes
straight back to backward_batch.

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


def read_index(batch: Batch):
    """The (rows, cols) the heads read: every real token, or position 0."""
    B, T = batch.ids.shape
    if batch.level == "token":
        return np.nonzero(np.arange(T)[None, :] < batch.lengths[:, None])
    return np.arange(B), np.zeros(B, dtype=np.int64)


def _gold_at_level(batch: Batch, where):
    if batch.level == "token":
        return batch.task_y[where]
    return batch.task_y


def _forward(encoder: EncoderModel, batch: Batch, **kwargs):
    """Encoder forward at the rows the heads read; returns (X, tape,
    where), X the (M, d) classified vectors at where = read_index."""
    where = read_index(batch)
    X, tape = forward_batch(encoder, batch.ids, batch.lengths, read=where,
                            **kwargs)
    return X, tape, where


def _train_forward(encoder: EncoderModel, batch: Batch, rng):
    """Training-mode forward plus output dropout, all masks from rng.

    Returns (tape, where, mask, X after mask); mask is None when the
    encoder has no dropout.
    """
    X, tape, where = _forward(encoder, batch, rng=rng, want_tape=True)
    mask = dropout_mask(X.shape, encoder.config.dropout, rng)
    return tape, where, mask, (X * mask if mask is not None else X)


@dataclass
class StepResult:
    task_loss: float
    lang_loss: float | None      # CE on the language-data batch (grad reversal)
    lang_term: float | None      # confusion term on the task batch (entropy max)
    grads: dict[str, np.ndarray]


def composite_step(encoder: EncoderModel, task_head: ClassifierHead,
                   batch: Batch, rng_task, *,
                   lang_head: ClassifierHead | None = None,
                   w: float | None = None,
                   language_term_variant: str = "as_written",
                   grl_lambda: float | None = None,
                   lid_batch: Batch | None = None,
                   rng_lid=None) -> StepResult:
    """Forward/backward for one update.

    Plain fine-tuning: leave w, grl_lambda, lid_batch unset.
    Entropy-max even phase: pass w and a (frozen) lang_head; the
    confusion term is evaluated on the task batch through that head.
    Gradient reversal: pass grl_lambda, lid_batch, rng_lid, lang_head;
    the language CE trains the head normally and reaches the encoder
    scaled by -lambda.
    """
    tape, where, mask, Xd = _train_forward(encoder, batch, rng_task)

    golds = _gold_at_level(batch, where)
    task_loss, d_logits_t = ce_loss_and_dlogits(head_logits(task_head, Xd), golds)
    dw_t, db_t, dXd_t = head_backward(task_head, Xd, d_logits_t)

    lang_term = None
    if w is not None:
        if lang_head is None:
            raise ValueError("entropy-max step needs a language head")
        lang_term, d_logits_l = language_term_and_dlogits(
            head_logits(lang_head, Xd), language_term_variant
        )
        dXd_l = d_logits_l @ lang_head.w.T
        dXd = (1.0 - w) * dXd_t + w * dXd_l
        dw_t = (1.0 - w) * dw_t
        db_t = (1.0 - w) * db_t
    else:
        dXd = dXd_t

    dX = dXd * mask if mask is not None else dXd
    grads_enc = backward_batch(encoder, tape, dX)
    grads = {f"enc/{k}": v for k, v in grads_enc.items()}
    grads["task/w"] = dw_t
    grads["task/b"] = db_t

    lang_loss = None
    if lid_batch is not None:
        if grl_lambda is None or lang_head is None or rng_lid is None:
            raise ValueError(
                "gradient-reversal step needs grl_lambda, lang_head and rng_lid"
            )
        tape2, _, mask2, X2d = _train_forward(encoder, lid_batch, rng_lid)
        lang_loss, d_logits = ce_loss_and_dlogits(
            head_logits(lang_head, X2d), lid_batch.lang_y
        )
        dw_l, db_l, dX2d = head_backward(lang_head, X2d, d_logits)
        dX2 = dX2d * mask2 if mask2 is not None else dX2d
        # the reversal layer sits between encoder and language head
        grads2 = backward_batch(encoder, tape2,
                                grad_reversal_backward(dX2, grl_lambda))
        for k, v in grads2.items():
            grads[f"enc/{k}"] += v
        grads["lang/w"] = dw_l
        grads["lang/b"] = db_l

    return StepResult(task_loss=task_loss, lang_loss=lang_loss,
                      lang_term=lang_term, grads=grads)


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

    def __len__(self) -> int:
        return self.X.shape[0]


def embed_examples(encoder: EncoderModel, examples, level: str,
                   lang_to_id: dict, label_to_id: dict | None = None) -> EmbeddedData:
    """Eval-mode embeddings for every classified vector in the examples."""
    xs, tys, lys = [], [], []
    for start in range(0, len(examples), EMBED_BATCH):
        chunk = list(examples[start:start + EMBED_BATCH])
        batch = make_batch(chunk, label_to_id, lang_to_id, level)
        X, _, where = _forward(encoder, batch)
        xs.append(X)
        if batch.task_y is not None:
            tys.append(_gold_at_level(batch, where))
        lys.append(batch.lang_y[where[0]])
    return EmbeddedData(
        X=np.concatenate(xs),
        task_y=np.concatenate(tys) if tys else None,
        lang_y=np.concatenate(lys),
    )
