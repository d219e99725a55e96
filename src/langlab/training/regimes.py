"""The four training regimes and the from-scratch language probe.

Regimes share one step implementation (network.composite_step) and named
RNG streams, so the reduction identities hold exactly: grad_reversal
with lambda=0 and entropy_max with w=0 walk the encoder through the same
parameter trajectory as plain fine-tuning under the same seed.

A regime returns only what it trains: the encoder, the task head, and
the language head that grad_reversal and entropy_max train against.
The LID probe on the final encoder is retrain_language_probe's job, run
once per experiment by the pipeline.

Task-head training and task validation consume pivot-language examples
only, in every regime (zero-shot contract); language-head training sees
all languages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from langlab.data.split import filter_language
from langlab.encoder import EncoderModel
from langlab.heads import (
    ClassifierHead,
    ce_loss_and_dlogits,
    head_backward,
    head_logits,
)
from langlab.optim import AdamState, adam_step
from langlab.rng import stream
from langlab.training.batching import (
    CyclingBatches,
    TaskSpec,
    epoch_batches,
    make_batch,
    task_spec_for,
)
from langlab.training.evaluate import cached_task_f1, head_predictions, macro_f1_ids
from langlab.training.network import composite_step, embed_examples

REGIMES = ("frozen_probe", "finetune", "grad_reversal", "entropy_max")
TASKS = ("token_tag", "pair_inference")


@dataclass
class ExperimentConfig:
    regime: str
    task: str
    pivot_language: str
    init_std: float = 1e-2
    batch_size: int = 32
    head_lr: float = 1e-2
    encoder_lr: float = 1e-4
    grl_lambda: float | None = None
    w: float | None = None
    language_term_variant: str = "as_written"
    epochs: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if (self.grl_lambda is not None) != (self.regime == "grad_reversal"):
            raise ValueError("grl_lambda is set iff regime is grad_reversal")
        if (self.w is not None) != (self.regime == "entropy_max"):
            raise ValueError("w is set iff regime is entropy_max")
        if self.grl_lambda is not None and self.grl_lambda < 0:
            raise ValueError("grl_lambda must be >= 0")
        if self.w is not None and not 0.0 <= self.w <= 1.0:
            raise ValueError("w must be in [0,1]")


@dataclass
class ProbeRun:
    head: ClassifierHead
    epoch_val_f1: list[float]
    selected_epoch: int
    losses: list[float]


@dataclass
class TrainingRun:
    regime: str
    epoch_val_f1: list[float]
    selected_epoch: int
    encoder: EncoderModel
    task_head: ClassifierHead
    lang_head: ClassifierHead | None
    task_losses: list[float] = field(default_factory=list)
    lang_losses: list[float] = field(default_factory=list)
    lang_terms: list[float] = field(default_factory=list)


def corpus_languages(lid_split) -> tuple[str, ...]:
    return tuple(sorted({ex.language for part in lid_split.parts for ex in part}))


def language_index(languages) -> dict[str, int]:
    return {lang: i for i, lang in enumerate(languages)}


def task_spec_from_split(task: str, task_split) -> TaskSpec:
    every = [ex for part in task_split.parts for ex in part]
    return task_spec_for(task, every)


def _pivot_train_val(task_split, cfg: ExperimentConfig):
    train = filter_language(task_split.train, cfg.pivot_language)
    val = filter_language(task_split.val, cfg.pivot_language)
    if not train or not val:
        raise ValueError(
            f"no pivot-language ({cfg.pivot_language!r}) examples in task train/val"
        )
    return train, val


def _select_best(scores: list[float]) -> int:
    """Index of the maximum score, earliest on ties."""
    best = 0
    for i, s in enumerate(scores):
        if s > scores[best]:
            best = i
    return best


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
        for idx in epoch_batches(len(y_train), batch_size, batch_rng):
            X = X_train[idx]
            if dropout > 0.0:
                X = X * ((drop_rng.random(X.shape) >= dropout) / (1.0 - dropout))
            loss, d_logits = ce_loss_and_dlogits(head_logits(head, X), y_train[idx])
            dw, db, _ = head_backward(head, X, d_logits)
            adam_step(params, {"w": dw, "b": db}, state, head_lr)
            losses.append(loss)
        scores.append(macro_f1_ids(head_predictions(head, X_val), y_val,
                                   n_classes))
        snapshots.append(head.copy())
    best = _select_best(scores)
    return ProbeRun(head=snapshots[best], epoch_val_f1=scores,
                    selected_epoch=best, losses=losses)


def retrain_language_probe(encoder: EncoderModel, lid_split,
                           cfg: ExperimentConfig) -> ProbeRun:
    """Fresh language head on the frozen encoder, best epoch by LID val F1."""
    languages = corpus_languages(lid_split)
    lang_to_id = language_index(languages)
    emb_train = embed_examples(encoder, lid_split.train, "text", lang_to_id)
    emb_val = embed_examples(encoder, lid_split.val, "text", lang_to_id)
    return _train_head_on_cached(
        emb_train.X, emb_train.lang_y, emb_val.X, emb_val.lang_y,
        len(languages), init_std=cfg.init_std, head_lr=cfg.head_lr,
        batch_size=cfg.batch_size, epochs=cfg.epochs, seed=cfg.seed,
        dropout=encoder.config.dropout, tag="lid-probe")


def train_frozen_probe(encoder: EncoderModel, task_split, lid_split,
                       cfg: ExperimentConfig) -> TrainingRun:
    """A task head trained over the unchanged encoder."""
    task_spec = task_spec_from_split(cfg.task, task_split)
    lang_to_id = language_index(corpus_languages(lid_split))
    train, val = _pivot_train_val(task_split, cfg)

    emb_train = embed_examples(encoder, train, task_spec.level, lang_to_id,
                               task_spec.label_to_id)
    emb_val = embed_examples(encoder, val, task_spec.level, lang_to_id,
                             task_spec.label_to_id)
    task_probe = _train_head_on_cached(
        emb_train.X, emb_train.task_y, emb_val.X, emb_val.task_y,
        task_spec.n_classes, init_std=cfg.init_std, head_lr=cfg.head_lr,
        batch_size=cfg.batch_size, epochs=cfg.epochs, seed=cfg.seed,
        dropout=encoder.config.dropout, tag="task-probe")
    return TrainingRun(
        regime=cfg.regime,
        epoch_val_f1=task_probe.epoch_val_f1,
        selected_epoch=task_probe.selected_epoch,
        encoder=encoder,
        task_head=task_probe.head,
        lang_head=None,
        task_losses=task_probe.losses,
    )


def _val_task_f1(encoder, task_head, val_examples, task_spec, lang_to_id) -> float:
    emb = embed_examples(encoder, val_examples, task_spec.level, lang_to_id,
                         task_spec.label_to_id)
    return cached_task_f1(task_head, emb, task_spec.n_classes)


def _joint_phase(encoder, task_split, lid_split, cfg, *, reversal: bool):
    """Encoder+task training; with reversal, a language batch rides along."""
    task_spec = task_spec_from_split(cfg.task, task_split)
    languages = corpus_languages(lid_split)
    lang_to_id = language_index(languages)
    train, val = _pivot_train_val(task_split, cfg)
    label_to_id = task_spec.label_to_id

    enc = encoder.copy()
    task_head = ClassifierHead.init(enc.config.d_model, task_spec.n_classes,
                                    cfg.init_std, seed=cfg.seed, tag="task")
    params = {f"enc/{k}": v for k, v in enc.params.items()}
    params["task/w"] = task_head.w
    params["task/b"] = task_head.b
    lang_head = None
    if reversal:
        lang_head = ClassifierHead.init(enc.config.d_model, len(languages),
                                        cfg.init_std, seed=cfg.seed, tag="lang")
        params["lang/w"] = lang_head.w
        params["lang/b"] = lang_head.b

    state = AdamState()
    lr = lambda name: cfg.encoder_lr if name.startswith("enc/") else cfg.head_lr
    batch_rng = stream(cfg.seed, "task-batches")
    drop_rng = stream(cfg.seed, "task-dropout")
    if reversal:
        cycler = CyclingBatches(len(lid_split.train), stream(cfg.seed, "lid-batches"))
        lid_drop_rng = stream(cfg.seed, "lid-dropout")

    task_losses: list[float] = []
    lang_losses: list[float] = []
    scores: list[float] = []
    snapshots = []
    for _ in range(cfg.epochs):
        for idx in epoch_batches(len(train), cfg.batch_size, batch_rng):
            batch = make_batch([train[i] for i in idx], label_to_id,
                               lang_to_id, task_spec.level)
            if reversal:
                lid_idx = cycler.take(len(idx))
                lid_batch = make_batch([lid_split.train[i] for i in lid_idx],
                                       None, lang_to_id, "text")
                res = composite_step(enc, task_head, batch, drop_rng,
                                     lang_head=lang_head,
                                     grl_lambda=cfg.grl_lambda,
                                     lid_batch=lid_batch, rng_lid=lid_drop_rng)
                lang_losses.append(res.lang_loss)
            else:
                res = composite_step(enc, task_head, batch, drop_rng)
            adam_step(params, res.grads, state, lr)
            task_losses.append(res.task_loss)
        scores.append(_val_task_f1(enc, task_head, val, task_spec, lang_to_id))
        snapshots.append((enc.copy(), task_head.copy(),
                          lang_head.copy() if reversal else None))
    best = _select_best(scores)
    best_enc, best_head, best_lang = snapshots[best]
    return (best_enc, best_head, best_lang, scores, best,
            task_losses, lang_losses)


def train_finetune(encoder: EncoderModel, task_split, lid_split,
                   cfg: ExperimentConfig) -> TrainingRun:
    """Joint encoder+task training; no language head."""
    (enc, task_head, _, scores, best,
     task_losses, _) = _joint_phase(encoder, task_split, lid_split, cfg,
                                    reversal=False)
    return TrainingRun(
        regime=cfg.regime, epoch_val_f1=scores, selected_epoch=best,
        encoder=enc, task_head=task_head, lang_head=None,
        task_losses=task_losses,
    )


def train_grad_reversal(encoder: EncoderModel, task_split, lid_split,
                        cfg: ExperimentConfig) -> TrainingRun:
    """Task batch plus same-size language batch per step; the language CE
    reaches the encoder through the reversal layer."""
    (enc, task_head, lang_head, scores, best,
     task_losses, lang_losses) = _joint_phase(encoder, task_split, lid_split,
                                              cfg, reversal=True)
    return TrainingRun(
        regime=cfg.regime, epoch_val_f1=scores, selected_epoch=best,
        encoder=enc, task_head=task_head, lang_head=lang_head,
        task_losses=task_losses, lang_losses=lang_losses,
    )


def train_entropy_max(encoder: EncoderModel, task_split, lid_split,
                      cfg: ExperimentConfig) -> TrainingRun:
    """Alternating one-epoch phases: language head alone, then encoder +
    task head under the combined confusion loss with the head frozen."""
    task_spec = task_spec_from_split(cfg.task, task_split)
    languages = corpus_languages(lid_split)
    lang_to_id = language_index(languages)
    train, val = _pivot_train_val(task_split, cfg)
    label_to_id = task_spec.label_to_id
    if not lid_split.train:
        raise ValueError("empty language-data training split")

    enc = encoder.copy()
    task_head = ClassifierHead.init(enc.config.d_model, task_spec.n_classes,
                                    cfg.init_std, seed=cfg.seed, tag="task")
    lang_head = ClassifierHead.init(enc.config.d_model, len(languages),
                                    cfg.init_std, seed=cfg.seed, tag="lang")
    enc_params = {f"enc/{k}": v for k, v in enc.params.items()}
    enc_params["task/w"] = task_head.w
    enc_params["task/b"] = task_head.b
    lang_params = {"w": lang_head.w, "b": lang_head.b}
    enc_state = AdamState()
    lang_state = AdamState()
    lr = lambda name: cfg.encoder_lr if name.startswith("enc/") else cfg.head_lr

    batch_rng = stream(cfg.seed, "task-batches")
    drop_rng = stream(cfg.seed, "task-dropout")
    lang_batch_rng = stream(cfg.seed, "em-lang-batches")
    lang_drop_rng = stream(cfg.seed, "em-lang-dropout")
    dropout = enc.config.dropout

    task_losses: list[float] = []
    lang_losses: list[float] = []
    lang_terms: list[float] = []
    scores: list[float] = []
    snapshots = []
    for _ in range(cfg.epochs):
        # language phase: head alone against the frozen current encoder
        emb = embed_examples(enc, lid_split.train, "text", lang_to_id)
        for idx in epoch_batches(len(emb), cfg.batch_size, lang_batch_rng):
            X = emb.X[idx]
            if dropout > 0.0:
                X = X * ((lang_drop_rng.random(X.shape) >= dropout)
                         / (1.0 - dropout))
            loss, d_logits = ce_loss_and_dlogits(head_logits(lang_head, X),
                                                 emb.lang_y[idx])
            dw, db, _ = head_backward(lang_head, X, d_logits)
            adam_step(lang_params, {"w": dw, "b": db}, lang_state, cfg.head_lr)
            lang_losses.append(loss)

        # task phase: encoder + task head under the combined loss
        for idx in epoch_batches(len(train), cfg.batch_size, batch_rng):
            batch = make_batch([train[i] for i in idx], label_to_id,
                               lang_to_id, task_spec.level)
            res = composite_step(enc, task_head, batch, drop_rng,
                                 lang_head=lang_head, w=cfg.w,
                                 language_term_variant=cfg.language_term_variant)
            adam_step(enc_params, res.grads, enc_state, lr)
            task_losses.append(res.task_loss)
            lang_terms.append(res.lang_term)
        scores.append(_val_task_f1(enc, task_head, val, task_spec, lang_to_id))
        snapshots.append((enc.copy(), task_head.copy()))
    best = _select_best(scores)
    best_enc, best_head = snapshots[best]
    return TrainingRun(
        regime=cfg.regime, epoch_val_f1=scores, selected_epoch=best,
        encoder=best_enc, task_head=best_head, lang_head=lang_head,
        task_losses=task_losses, lang_losses=lang_losses,
        lang_terms=lang_terms,
    )


def run_regime(encoder: EncoderModel, task_split, lid_split,
               cfg: ExperimentConfig) -> TrainingRun:
    trainer = {
        "frozen_probe": train_frozen_probe,
        "finetune": train_finetune,
        "grad_reversal": train_grad_reversal,
        "entropy_max": train_entropy_max,
    }[cfg.regime]
    return trainer(encoder, task_split, lid_split, cfg)
