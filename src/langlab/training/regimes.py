"""The four training regimes and the from-scratch language probe.

run_regime is the one entry point.  frozen_probe trains a task head over
the unchanged encoder through _probe, the language probe's path too
(retrain_language_probe).  finetune, grad_reversal and entropy_max run
one loop (_fine_tune) around the one step implementation
(network.composite_step), which adds the extra loss term cfg.regime
names.  With the same named RNG streams, the reduction identities hold
exactly: grad_reversal with lambda=0 and entropy_max with w=0 walk the
encoder through the same parameter trajectory as plain fine-tuning
under the same seed.  Every head over fixed feature rows (task probe,
LID probe, the entropy-max language phase) trains one epoch at a time
through _head_epoch.

Each returns a TrainingRun read off its earliest best validation epoch
(TrainingRun.score_epoch) that holds only what it trained: the encoder
and the task head ("task"), the language head ("lang") that
grad_reversal and entropy_max train against, or the LID probe ("probe")
that the pipeline trains once per experiment on the final encoder.

run_regime and retrain_language_probe read the run's corpus facts (the
splits, the language index, the task spec, the pivot-language train and
val) from the RunData the pipeline's corpus stage prepared, and their
settings (regime, init_std, batch size, rates, regime weight, epochs,
seed) from the run's PipelineConfig, which checks them when it is built.

Task-head training and task validation consume pivot-language examples
only, in every regime (zero-shot contract); language-head training sees
all languages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from langlab.encoder import EncoderModel, dropout_mask
from langlab.heads import ClassifierHead, ce_loss_and_dlogits, head_backward, head_logits
from langlab.optim import AdamState, adam_step
from langlab.rng import stream
from langlab.training.batching import cycling_indices, epoch_batches, make_batch
from langlab.training.evaluate import head_f1
from langlab.training.network import composite_step, embed_examples

if TYPE_CHECKING:   # config.py and pipeline.py import this module
    from langlab.config import PipelineConfig
    from langlab.pipeline import RunData

REGIMES = ("frozen_probe", "finetune", "grad_reversal", "entropy_max")


@dataclass
class TrainingRun:
    """What a regime or a probe trained, from its best validation epoch:
    heads by name ("task", "lang", "probe"), and losses by name ("task",
    "lang", "lang_term") with one value per optimizer step."""
    encoder: EncoderModel
    heads: dict[str, ClassifierHead]
    epoch_val_f1: list[float] = field(default_factory=list)
    selected_epoch: int = 0
    losses: dict[str, list[float]] = field(default_factory=dict)

    def score_epoch(self, f1: float) -> bool:
        """Record the next epoch's validation F1; True when the caller
        copies out what it trains: at the first epoch, then only when one
        beats the best, so the earliest best wins and a NaN never does."""
        best = not self.epoch_val_f1 or f1 > self.epoch_val_f1[self.selected_epoch]
        if best:
            self.selected_epoch = len(self.epoch_val_f1)
        self.epoch_val_f1.append(f1)
        return best


def _head_epoch(head: ClassifierHead, params, state: AdamState, X, y, *,
                batch_size: int, lr: float, dropout: float, batch_rng,
                drop_rng, losses: list[float]) -> None:
    """One epoch of minibatch Adam on a head over fixed feature rows.

    Output dropout is applied to each minibatch in training mode; every
    minibatch loss is appended to losses.
    """
    for idx in epoch_batches(len(y), batch_size, batch_rng):
        Xb = X[idx]
        mask = dropout_mask(Xb.shape, dropout, drop_rng)
        if mask is not None:
            Xb = Xb * mask
        loss, d_logits = ce_loss_and_dlogits(head_logits(head, Xb), y[idx])
        dw, db, _ = head_backward(head, Xb, d_logits)
        adam_step(params, {"w": dw, "b": db}, state, lr)
        losses.append(loss)


def _probe(encoder: EncoderModel, data: RunData, cfg: PipelineConfig,
           train, val, name: str) -> TrainingRun:
    """Best-epoch training of a fresh head over the frozen encoder's
    embeddings of train (rows are tokens for token-level tasks), scored on
    val: the "task" head learns the task labels, the "probe" head each
    text's language.  cfg gives init_std, head_lr, batch_size, epochs and
    seed."""
    task, spec = name == "task", data.task_spec
    tag = "task-probe" if task else "lid-probe"     # names the RNG streams
    if not train or not val:
        raise ValueError(f"empty {tag} corpus for head training")
    level, label_to_id = (spec.level, spec.label_to_id) if task else ("text", None)
    emb, emb_val = (embed_examples(encoder, part, level, data.lang_to_id,
                                   label_to_id) for part in (train, val))
    y, y_val = (e.task_y if task else e.lang_y for e in (emb, emb_val))
    n_classes = spec.n_classes if task else len(data.languages)

    head = ClassifierHead.init(encoder.config.d_model, n_classes, cfg.init_std,
                               seed=cfg.seed, tag=tag)
    params = {"w": head.w, "b": head.b}
    state = AdamState()
    batch_rng = stream(cfg.seed, tag, "batches")
    drop_rng = stream(cfg.seed, tag, "dropout")
    run = TrainingRun(encoder, {name: head})
    for _ in range(cfg.epochs):
        _head_epoch(head, params, state, emb.X, y, batch_size=cfg.batch_size,
                    lr=cfg.head_lr, dropout=encoder.config.dropout,
                    batch_rng=batch_rng, drop_rng=drop_rng,
                    losses=run.losses.setdefault("task" if task else "lang", []))
        if run.score_epoch(head_f1(head, emb_val.X, y_val, n_classes)):
            run.heads = {name: head.copy()}
    return run


def retrain_language_probe(encoder: EncoderModel, data: RunData,
                           cfg: PipelineConfig) -> TrainingRun:
    """Fresh language head ("probe") on the frozen encoder, best epoch by
    LID val F1."""
    return _probe(encoder, data, cfg, data.lid_split.train, data.lid_split.val,
                  "probe")


def _fine_tune(encoder: EncoderModel, data: RunData,
               cfg: PipelineConfig) -> TrainingRun:
    """Encoder + task head under composite_step, best epoch by pivot val F1.

    finetune trains the two alone.  grad_reversal adds a cycled
    same-size language batch to every step; the language CE reaches the
    encoder through the reversal layer, and the language head shares the
    one optimizer.  entropy_max opens every epoch with a language-head
    epoch against the current encoder (its own optimizer), then runs the
    task epoch under the combined confusion loss with that head frozen.
    The encoder and both heads are copied out together when an epoch's
    F1 beats the best so far.
    """
    task_spec, lang_to_id = data.task_spec, data.lang_to_id
    train, lid_train = data.pivot_train, data.lid_split.train
    reversal = cfg.regime == "grad_reversal"
    entropy = cfg.regime == "entropy_max"
    if entropy and not lid_train:
        raise ValueError("empty language-data training split")

    enc = encoder.copy()
    task_head = ClassifierHead.init(enc.config.d_model, task_spec.n_classes,
                                    cfg.init_std, seed=cfg.seed, tag="task")
    heads = {"task": task_head}
    params = {f"enc/{k}": v for k, v in enc.params.items()}
    params["task/w"] = task_head.w
    params["task/b"] = task_head.b
    lang_head = lid_batch = lid_drop_rng = None
    if reversal or entropy:
        lang_head = heads["lang"] = ClassifierHead.init(
            enc.config.d_model, len(data.languages), cfg.init_std,
            seed=cfg.seed, tag="lang")
    if reversal:
        params["lang/w"] = lang_head.w
        params["lang/b"] = lang_head.b
        cycler = cycling_indices(len(lid_train), stream(cfg.seed, "lid-batches"))
        lid_drop_rng = stream(cfg.seed, "lid-dropout")
    if entropy:
        lang_params = {"w": lang_head.w, "b": lang_head.b}
        lang_state = AdamState()
        lang_batch_rng = stream(cfg.seed, "em-lang-batches")
        lang_drop_rng = stream(cfg.seed, "em-lang-dropout")

    state = AdamState()
    lr = lambda name: cfg.encoder_lr if name.startswith("enc/") else cfg.head_lr
    batch_rng = stream(cfg.seed, "task-batches")
    drop_rng = stream(cfg.seed, "task-dropout")

    run = TrainingRun(enc, heads)
    for _ in range(cfg.epochs):
        if entropy:
            # language phase: head alone against the frozen current encoder
            emb = embed_examples(enc, lid_train, "text", lang_to_id)
            _head_epoch(lang_head, lang_params, lang_state, emb.X, emb.lang_y,
                        batch_size=cfg.batch_size, lr=cfg.head_lr,
                        dropout=enc.config.dropout, batch_rng=lang_batch_rng,
                        drop_rng=lang_drop_rng,
                        losses=run.losses.setdefault("lang", []))

        for idx in epoch_batches(len(train), cfg.batch_size, batch_rng):
            batch = make_batch([train[i] for i in idx], task_spec.label_to_id,
                               lang_to_id, task_spec.level)
            if reversal:
                lid_idx = np.fromiter(cycler, dtype=int, count=len(idx))
                lid_batch = make_batch([lid_train[i] for i in lid_idx],
                                       None, lang_to_id, "text")
            grads, losses = composite_step(enc, task_head, lang_head, batch,
                                           lid_batch, cfg, drop_rng,
                                           lid_drop_rng)
            adam_step(params, grads, state, lr)
            for name, loss in losses.items():
                run.losses.setdefault(name, []).append(loss)
        val = embed_examples(enc, data.pivot_val, task_spec.level, lang_to_id,
                             task_spec.label_to_id)
        if run.score_epoch(head_f1(task_head, val.X, val.task_y,
                                   task_spec.n_classes)):
            run.encoder = enc.copy()
            run.heads = {name: head.copy() for name, head in heads.items()}
    return run


def run_regime(encoder: EncoderModel, data: RunData,
               cfg: PipelineConfig) -> TrainingRun:
    """Train one regime: the one entry point for all four."""
    if cfg.regime == "frozen_probe":
        return _probe(encoder, data, cfg, data.pivot_train, data.pivot_val,
                      "task")
    return _fine_tune(encoder, data, cfg)
