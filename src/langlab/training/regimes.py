"""The four training regimes and the from-scratch language probe.

run_regime is the one entry point.  frozen_probe trains a task head over
fixed features; finetune, grad_reversal and entropy_max run one loop
(_fine_tune) that differs only in the extra loss term it hands the one
step implementation (network.composite_step).  With the same named RNG
streams, the reduction identities hold exactly: grad_reversal with
lambda=0 and entropy_max with w=0 walk the encoder through the same
parameter trajectory as plain fine-tuning under the same seed.

Every head over fixed feature rows (task probe, LID probe, the
entropy-max language phase) trains one epoch at a time through
_head_epoch.

A regime returns only what it trains: the encoder, the task head, and
the language head that grad_reversal and entropy_max train against.
The LID probe on the final encoder is retrain_language_probe's job, run
once per experiment by the pipeline.

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

from langlab.encoder import EncoderModel, dropout_mask
from langlab.heads import ClassifierHead, ce_loss_and_dlogits, head_backward, head_logits
from langlab.optim import AdamState, adam_step
from langlab.rng import stream
from langlab.training.batching import CyclingBatches, epoch_batches, make_batch
from langlab.training.evaluate import head_f1
from langlab.training.network import composite_step, embed_examples

if TYPE_CHECKING:   # config.py and pipeline.py import this module
    from langlab.config import PipelineConfig
    from langlab.pipeline import RunData

REGIMES = ("frozen_probe", "finetune", "grad_reversal", "entropy_max")
TASKS = ("token_tag", "pair_inference")


@dataclass
class ProbeRun:
    head: ClassifierHead
    epoch_val_f1: list[float]
    selected_epoch: int
    losses: list[float]


@dataclass
class TrainingRun:
    epoch_val_f1: list[float]
    selected_epoch: int
    encoder: EncoderModel
    task_head: ClassifierHead
    lang_head: ClassifierHead | None
    task_losses: list[float] = field(default_factory=list)
    lang_losses: list[float] = field(default_factory=list)
    lang_terms: list[float] = field(default_factory=list)


def _select_best(scores: list[float]) -> int:
    """Index of the maximum score, earliest on ties."""
    best = 0
    for i, s in enumerate(scores):
        if s > scores[best]:
            best = i
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


def _train_head_on_cached(X_train, y_train, X_val, y_val, n_classes: int, *,
                          init_std: float, head_lr: float, batch_size: int,
                          epochs: int, seed: int, dropout: float,
                          tag: str) -> ProbeRun:
    """Best-epoch training of a fresh head over fixed feature rows.

    Minibatches are rows of X_train (tokens for token-level tasks), with
    output dropout applied in training mode; the head with the best
    macro F1 on (X_val, y_val) is kept.  tag names the head's RNG streams.
    """
    if len(y_train) == 0 or len(y_val) == 0:
        raise ValueError(f"empty {tag} corpus for head training")

    head = ClassifierHead.init(X_train.shape[1], n_classes, init_std,
                               seed=seed, tag=tag)
    params = {"w": head.w, "b": head.b}
    state = AdamState()
    batch_rng = stream(seed, tag, "batches")
    drop_rng = stream(seed, tag, "dropout")

    losses: list[float] = []
    scores: list[float] = []
    snapshots: list[ClassifierHead] = []
    for _ in range(epochs):
        _head_epoch(head, params, state, X_train, y_train,
                    batch_size=batch_size, lr=head_lr, dropout=dropout,
                    batch_rng=batch_rng, drop_rng=drop_rng, losses=losses)
        scores.append(head_f1(head, X_val, y_val, n_classes))
        snapshots.append(head.copy())
    best = _select_best(scores)
    return ProbeRun(head=snapshots[best], epoch_val_f1=scores,
                    selected_epoch=best, losses=losses)


def retrain_language_probe(encoder: EncoderModel, data: RunData,
                           cfg: PipelineConfig) -> ProbeRun:
    """Fresh language head on the frozen encoder, best epoch by LID val F1."""
    emb_train = embed_examples(encoder, data.lid_split.train, "text",
                               data.lang_to_id)
    emb_val = embed_examples(encoder, data.lid_split.val, "text",
                             data.lang_to_id)
    return _train_head_on_cached(
        emb_train.X, emb_train.lang_y, emb_val.X, emb_val.lang_y,
        len(data.languages), init_std=cfg.init_std, head_lr=cfg.head_lr,
        batch_size=cfg.batch_size, epochs=cfg.epochs, seed=cfg.seed,
        dropout=encoder.config.dropout, tag="lid-probe")


def train_frozen_probe(encoder: EncoderModel, data: RunData,
                       cfg: PipelineConfig) -> TrainingRun:
    """A task head trained over the unchanged encoder."""
    task_spec = data.task_spec
    emb_train = embed_examples(encoder, data.pivot_train, task_spec.level,
                               data.lang_to_id, task_spec.label_to_id)
    emb_val = embed_examples(encoder, data.pivot_val, task_spec.level,
                             data.lang_to_id, task_spec.label_to_id)
    task_probe = _train_head_on_cached(
        emb_train.X, emb_train.task_y, emb_val.X, emb_val.task_y,
        task_spec.n_classes, init_std=cfg.init_std, head_lr=cfg.head_lr,
        batch_size=cfg.batch_size, epochs=cfg.epochs, seed=cfg.seed,
        dropout=encoder.config.dropout, tag="task-probe")
    return TrainingRun(
        epoch_val_f1=task_probe.epoch_val_f1,
        selected_epoch=task_probe.selected_epoch,
        encoder=encoder,
        task_head=task_probe.head,
        lang_head=None,
        task_losses=task_probe.losses,
    )


def _fine_tune(encoder: EncoderModel, data: RunData,
               cfg: PipelineConfig) -> TrainingRun:
    """Encoder + task head under composite_step, best epoch by pivot val F1.

    finetune trains the two alone.  grad_reversal adds a cycled
    same-size language batch to every step; the language CE reaches the
    encoder through the reversal layer, and the language head shares the
    one optimizer.  entropy_max opens every epoch with a language-head
    epoch against the current encoder (its own optimizer), then runs the
    task epoch under the combined confusion loss with that head frozen.
    Each epoch snapshots the encoder and both heads together.
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
    params = {f"enc/{k}": v for k, v in enc.params.items()}
    params["task/w"] = task_head.w
    params["task/b"] = task_head.b
    lang_head = lid_batch = lid_drop_rng = None
    if reversal or entropy:
        lang_head = ClassifierHead.init(enc.config.d_model,
                                        len(data.languages), cfg.init_std,
                                        seed=cfg.seed, tag="lang")
    if reversal:
        params["lang/w"] = lang_head.w
        params["lang/b"] = lang_head.b
        cycler = CyclingBatches(len(lid_train), stream(cfg.seed, "lid-batches"))
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

    run = TrainingRun(epoch_val_f1=[], selected_epoch=0, encoder=enc,
                      task_head=task_head, lang_head=lang_head)
    snapshots = []
    for _ in range(cfg.epochs):
        if entropy:
            # language phase: head alone against the frozen current encoder
            emb = embed_examples(enc, lid_train, "text", lang_to_id)
            _head_epoch(lang_head, lang_params, lang_state, emb.X, emb.lang_y,
                        batch_size=cfg.batch_size, lr=cfg.head_lr,
                        dropout=enc.config.dropout, batch_rng=lang_batch_rng,
                        drop_rng=lang_drop_rng, losses=run.lang_losses)

        for idx in epoch_batches(len(train), cfg.batch_size, batch_rng):
            batch = make_batch([train[i] for i in idx], task_spec.label_to_id,
                               lang_to_id, task_spec.level)
            if reversal:
                lid_idx = cycler.take(len(idx))
                lid_batch = make_batch([lid_train[i] for i in lid_idx],
                                       None, lang_to_id, "text")
            res = composite_step(enc, task_head, batch, drop_rng,
                                 lang_head=lang_head, w=cfg.w,
                                 language_term_variant=cfg.language_term_variant,
                                 grl_lambda=cfg.grl_lambda,
                                 lid_batch=lid_batch, rng_lid=lid_drop_rng)
            adam_step(params, res.grads, state, lr)
            run.task_losses.append(res.task_loss)
            if res.lang_loss is not None:
                run.lang_losses.append(res.lang_loss)
            if res.lang_term is not None:
                run.lang_terms.append(res.lang_term)
        val = embed_examples(enc, data.pivot_val, task_spec.level, lang_to_id,
                             task_spec.label_to_id)
        run.epoch_val_f1.append(head_f1(task_head, val.X, val.task_y,
                                        task_spec.n_classes))
        snapshots.append((enc.copy(), task_head.copy(),
                          lang_head.copy() if lang_head is not None else None))
    run.selected_epoch = _select_best(run.epoch_val_f1)
    run.encoder, run.task_head, run.lang_head = snapshots[run.selected_epoch]
    return run


def run_regime(encoder: EncoderModel, data: RunData,
               cfg: PipelineConfig) -> TrainingRun:
    """Train one regime: the one entry point for all four."""
    trainer = train_frozen_probe if cfg.regime == "frozen_probe" else _fine_tune
    return trainer(encoder, data, cfg)
