"""Batching, the composite step, regimes, probes, and the random search.

The composite-step gradient is finite-difference checked per parameter
group; the lambda=0 / w=0 reduction identities are asserted bitwise
against plain fine-tuning.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from langlab.config import PRESETS, PipelineConfig
from langlab.encoder import EncoderConfig, EncoderModel, forward_batch
from langlab.heads import (
    ClassifierHead,
    ce_loss_and_dlogits,
    head_logits,
    language_term_and_dlogits,
)
from langlab.pipeline import prepare_data
from langlab.rng import stream
from langlab.training.batching import (
    TaskSpec,
    cycling_indices,
    epoch_batches,
    make_batch,
    task_spec_for,
)
from langlab.training.evaluate import evaluate_lid
from langlab.training import regimes
from langlab.training.network import (
    EMBED_BATCH,
    composite_step,
    embed_examples,
)
from langlab.training.regimes import (
    REGIMES,
    retrain_language_probe,
    run_regime,
)
from langlab.training.search import (
    GRIDS,
    REGIME_SETTINGS,
    grids_for_regime,
    random_search,
)

FD_H = 1e-5
FD_TOL = 1e-4


# ---------------------------------------------------------------------------
# batching


def test_task_spec_for():
    class Ex:
        def __init__(self, labels):
            self.task_labels = labels

    spec = task_spec_for("token_tag", [Ex(("VERB", "NOUN")), Ex(("FUNC",))])
    assert spec.level == "token"
    assert spec.labels == ("FUNC", "NOUN", "VERB")
    assert spec.label_to_id == {"FUNC": 0, "NOUN": 1, "VERB": 2}
    assert spec.n_classes == 3
    assert task_spec_for("pair_inference", []).level == "text"
    with pytest.raises(ValueError, match="unknown task"):
        task_spec_for("parsing", [])


def test_make_batch_token_level(tiny_task_corpus, tiny_vocab):
    examples = tiny_task_corpus[:3]
    spec = task_spec_for("token_tag", examples)
    lang_to_id = {"aa": 0, "ab": 1, "ac": 2}
    batch = make_batch(examples, spec.label_to_id, lang_to_id, "token")
    T = max(len(ex.sequence) for ex in examples)
    assert batch.ids.shape == (3, T)
    rows, cols = batch.read
    n_tokens = sum(len(ex.sequence) for ex in examples)
    assert rows.shape == batch.task_y.shape == batch.lang_y.shape == (n_tokens,)
    for r, ex in enumerate(examples):
        n = len(ex.sequence)
        assert batch.lengths[r] == n
        assert np.array_equal(batch.ids[r, :n], ex.sequence.tokens)
        assert np.all(batch.ids[r, n:] == 0)       # PAD
        assert list(cols[rows == r]) == list(range(n))
        labels = [spec.label_to_id[l] for l in ex.task_labels]
        assert list(batch.task_y[rows == r]) == labels
        assert np.all(batch.lang_y[rows == r] == lang_to_id[ex.language])


def test_make_batch_text_level_and_validation(tiny_pair_corpus):
    examples = tiny_pair_corpus[:4]
    spec = task_spec_for("pair_inference", examples)
    batch = make_batch(examples, spec.label_to_id, {"aa": 0, "ab": 1, "ac": 2},
                       "text")
    assert batch.task_y.shape == (4,)
    assert batch.task_y[0] == spec.label_to_id[examples[0].task_labels[0]]
    assert np.array_equal(batch.read[0], np.arange(4))
    assert np.array_equal(batch.read[1], np.zeros(4))
    none_batch = make_batch(examples, None, {"aa": 0, "ab": 1, "ac": 2}, "text")
    assert none_batch.task_y is None
    with pytest.raises(ValueError, match="empty batch"):
        make_batch([], None, {}, "text")
    # one label per pair cannot label every token
    with pytest.raises(IndexError):
        make_batch(examples, spec.label_to_id, {"aa": 0, "ab": 1, "ac": 2},
                   "token")


@pytest.mark.parametrize("corpus, task, level", [
    ("tiny_task_corpus", "token_tag", "token"),
    ("tiny_pair_corpus", "pair_inference", "text"),
    ("tiny_lid_corpus", None, "text")], ids=["token", "pair", "lid"])
def test_make_batch_reads_match_a_per_example_reference(request, corpus, task,
                                                        level):
    examples = request.getfixturevalue(corpus)[::23][:6]
    assert len({ex.language for ex in examples}) > 1
    lang_to_id = {"aa": 0, "ab": 1, "ac": 2}
    label_to_id = task_spec_for(task, examples).label_to_id if task else None
    batch = make_batch(examples, label_to_id, lang_to_id, level)
    rows, cols, task_y, lang_y = [], [], [], []
    for r, ex in enumerate(examples):
        for c in range(len(ex.sequence)) if level == "token" else [0]:
            rows.append(r)
            cols.append(c)
            lang_y.append(lang_to_id[ex.language])
            if task:
                task_y.append(label_to_id[ex.task_labels[c]])
    assert np.array_equal(batch.read[0], rows)
    assert np.array_equal(batch.read[1], cols)
    assert np.array_equal(batch.lang_y, lang_y)
    if task:
        assert np.array_equal(batch.task_y, task_y)
    else:
        assert batch.task_y is None


def test_epoch_batches_cover_everything():
    batches = epoch_batches(10, 4, stream(0, "eb"))
    assert [len(b) for b in batches] == [4, 4, 2]
    assert sorted(np.concatenate(batches).tolist()) == list(range(10))
    again = epoch_batches(10, 4, stream(0, "eb"))
    assert all(np.array_equal(a, b) for a, b in zip(batches, again))


def test_cycling_indices():
    # passes are rng.permutation(n) draws from the same stream, and a take
    # may cross from one pass into the next
    cyc, ref = cycling_indices(5, stream(0, "cyc")), stream(0, "cyc")
    assert np.array_equal(np.fromiter(cyc, dtype=int, count=10),
                          np.concatenate([ref.permutation(5),
                                          ref.permutation(5)]))
    drawn = np.concatenate([np.fromiter(cyc, dtype=int, count=3)
                            for _ in range(5)])
    assert np.array_equal(drawn, np.concatenate(
        [ref.permutation(5) for _ in range(3)]))
    # an empty dataset fails when the iterator is made, before any draw
    rng = stream(0, "cyc")
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="empty"):
        cycling_indices(0, rng)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# composite step: finite-difference oracles per parameter group

FD_PARAMS = ["tok_emb", "pos_emb", "L0_wq", "L0_wo", "L0_w1", "final_ln_g"]


def _fd_grad(loss, arr, picks):
    out = {}
    flat = arr.reshape(-1)
    for i in picks:
        orig = flat[i]
        flat[i] = orig + FD_H
        up = loss()
        flat[i] = orig - FD_H
        down = loss()
        flat[i] = orig
        out[i] = (up - down) / (2.0 * FD_H)
    return out


def _assert_fd(loss, arrays_and_grads, n_coords=4, seed=0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for arr, grad in arrays_and_grads:
        flat_g = grad.reshape(-1)
        picks = rng.choice(flat_g.size, size=min(n_coords, flat_g.size),
                           replace=False)
        for i, fd in _fd_grad(loss, arr, picks).items():
            rel = abs(fd - flat_g[i]) / max(abs(fd), 1e-6)
            worst = max(worst, rel)
    assert worst <= FD_TOL, f"max FD relative error {worst:.2e}"


@pytest.fixture()
def fd_setup(tiny_vocab, tiny_task_corpus, tiny_lid_corpus):
    cfg = EncoderConfig(vocab_size=len(tiny_vocab), d_model=8, n_layers=1,
                        n_heads=2, d_ff=16, max_len=128, dropout=0.0)
    enc = EncoderModel.init(cfg, seed=0)
    task_examples = tiny_task_corpus[:3]
    spec = task_spec_for("token_tag", task_examples)
    lang_to_id = {"aa": 0, "ab": 1, "ac": 2}
    batch = make_batch(task_examples, spec.label_to_id, lang_to_id, "token")
    lid_batch = make_batch(tiny_lid_corpus[:3], None, lang_to_id, "text")
    task_head = ClassifierHead.init(8, spec.n_classes, 0.1, seed=1, tag="t")
    lang_head = ClassifierHead.init(8, 3, 0.1, seed=2, tag="l")
    return enc, task_head, lang_head, batch, lid_batch


def _classified(enc, batch):
    """The vectors at batch.read, picked from a forward over every real
    token, so the objectives do not share the composite step's read-row
    path."""
    hidden, _ = forward_batch(enc, batch.ids, batch.lengths)
    rows, cols = batch.read
    return hidden[(np.cumsum(batch.lengths) - batch.lengths)[rows] + cols]


def _task_ce(enc, head, batch):
    X = _classified(enc, batch)
    loss, _ = ce_loss_and_dlogits(head_logits(head, X), batch.task_y)
    return loss


def _lang_ce(enc, head, lid_batch):
    X = _classified(enc, lid_batch)
    loss, _ = ce_loss_and_dlogits(head_logits(head, X), lid_batch.lang_y)
    return loss


def _lang_term(enc, head, batch):
    X = _classified(enc, batch)
    return language_term_and_dlogits(head_logits(head, X))[0]


def test_composite_step_plain_matches_fd(fd_setup):
    enc, task_head, _, batch, _ = fd_setup
    grads, losses = composite_step(enc, task_head, None, batch, None,
                                   tiny_cfg("finetune"), stream(0, "fd"), None)
    assert set(losses) == {"task"}
    assert losses["task"] == pytest.approx(_task_ce(enc, task_head, batch))
    pairs = [(enc.params[n], grads[f"enc/{n}"]) for n in FD_PARAMS]
    pairs += [(task_head.w, grads["task/w"]),
              (task_head.b, grads["task/b"])]
    _assert_fd(lambda: _task_ce(enc, task_head, batch), pairs)


def test_composite_step_entropy_max_matches_fd(fd_setup):
    enc, task_head, lang_head, batch, _ = fd_setup
    w = 0.3
    grads, losses = composite_step(enc, task_head, lang_head, batch, None,
                                   tiny_cfg("entropy_max", w=w),
                                   stream(0, "fd"), None)
    assert set(losses) == {"task", "lang_term"}
    assert losses["lang_term"] == pytest.approx(_lang_term(enc, lang_head,
                                                           batch))

    def loss():
        return ((1 - w) * _task_ce(enc, task_head, batch)
                + w * _lang_term(enc, lang_head, batch))

    pairs = [(enc.params[n], grads[f"enc/{n}"]) for n in FD_PARAMS]
    pairs += [(task_head.w, grads["task/w"]),
              (task_head.b, grads["task/b"])]
    _assert_fd(loss, pairs)
    assert "lang/w" not in grads   # the language head is frozen here


def test_composite_step_grad_reversal_matches_fd(fd_setup):
    enc, task_head, lang_head, batch, lid_batch = fd_setup
    lam = 0.5
    grads, losses = composite_step(enc, task_head, lang_head, batch,
                                   lid_batch,
                                   tiny_cfg("grad_reversal", grl_lambda=lam),
                                   stream(0, "fd"), stream(1, "fd"))
    assert set(losses) == {"task", "lang"}
    assert losses["lang"] == pytest.approx(_lang_ce(enc, lang_head, lid_batch))

    # encoder sees task CE minus lambda times the language CE
    def enc_loss():
        return (_task_ce(enc, task_head, batch)
                - lam * _lang_ce(enc, lang_head, lid_batch))

    pairs = [(enc.params[n], grads[f"enc/{n}"]) for n in FD_PARAMS]
    pairs += [(task_head.w, grads["task/w"])]
    _assert_fd(enc_loss, pairs)
    # the language head itself trains against the plain (unreversed) CE
    _assert_fd(lambda: _lang_ce(enc, lang_head, lid_batch),
               [(lang_head.w, grads["lang/w"]),
                (lang_head.b, grads["lang/b"])])


def test_grad_reversal_step_frees_the_task_tape(tiny_data):
    # the task batch's tape is consumed by its backward pass before the
    # language batch's forward builds its own: a step that kept both
    # alive peaked at 21.2 MiB traced here, one that frees the task tape
    # as it goes at 14.3 MiB
    enc = EncoderModel.init(EncoderConfig(vocab_size=len(tiny_data.vocab)),
                            seed=0)
    spec, lang_to_id = tiny_data.task_spec, tiny_data.lang_to_id
    batch = make_batch(tiny_data.task_split.train[:32], spec.label_to_id,
                       lang_to_id, spec.level)
    lid_batch = make_batch(tiny_data.lid_split.train[:32], None, lang_to_id,
                           "text")
    task_head = ClassifierHead.init(64, spec.n_classes, 1e-2, seed=0,
                                    tag="task")
    lang_head = ClassifierHead.init(64, len(tiny_data.languages), 1e-2,
                                    seed=0, tag="lang")
    cfg = tiny_cfg("grad_reversal", grl_lambda=0.5)
    tracemalloc.start()
    try:
        composite_step(enc, task_head, lang_head, batch, lid_batch, cfg,
                       stream(0, "task"), stream(0, "lid"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


# ---------------------------------------------------------------------------
# regime settings and regime plumbing


def test_pipeline_config_regime_validation():
    ok = dict(task="token_tag", pivot_language="aa")
    PipelineConfig(regime="finetune", **ok)
    PipelineConfig(regime="grad_reversal", grl_lambda=0.1, **ok)
    PipelineConfig(regime="entropy_max", w=0.5, **ok)
    with pytest.raises(ValueError, match="unknown regime"):
        PipelineConfig(regime="adapter", **ok)
    with pytest.raises(ValueError, match="unknown task"):
        PipelineConfig(regime="finetune", task="parsing", pivot_language="aa")
    with pytest.raises(ValueError, match="epochs"):
        PipelineConfig(regime="finetune", epochs=0, **ok)
    with pytest.raises(ValueError, match="batch_size"):
        PipelineConfig(regime="finetune", batch_size=0, **ok)
    with pytest.raises(ValueError, match="iff"):
        PipelineConfig(regime="finetune", grl_lambda=0.1, **ok)
    with pytest.raises(ValueError, match="iff"):
        PipelineConfig(regime="grad_reversal", **ok)
    with pytest.raises(ValueError, match="iff"):
        PipelineConfig(regime="finetune", w=0.5, **ok)
    with pytest.raises(ValueError, match="iff"):
        PipelineConfig(regime="entropy_max", **ok)
    with pytest.raises(ValueError, match=">= 0"):
        PipelineConfig(regime="grad_reversal", grl_lambda=-0.1, **ok)
    with pytest.raises(ValueError, match="in \\[0,1\\]"):
        PipelineConfig(regime="entropy_max", w=1.5, **ok)


def test_pivot_filtering(tiny_data):
    # the corpus stage keeps the pivot language's task train and val
    assert tiny_data.pivot_train and tiny_data.pivot_val
    assert all(ex.language == "aa"
               for ex in tiny_data.pivot_train + tiny_data.pivot_val)
    assert list(map(id, tiny_data.pivot_train)) == [
        id(ex) for ex in tiny_data.task_split.train if ex.language == "aa"]
    missing = PipelineConfig(n_languages=3, n_concepts=30,
                             task_examples_per_language=40,
                             lid_examples_per_language=40,
                             pivot_language="zz")
    with pytest.raises(ValueError, match="no pivot-language \\('zz'\\)"):
        prepare_data(missing)


def test_corpus_languages_and_index(tiny_data):
    assert tiny_data.languages == ("aa", "ab", "ac")
    assert tiny_data.lang_to_id == {"aa": 0, "ab": 1, "ac": 2}
    assert tiny_data.task_spec.labels == ("FUNC", "NOUN", "VERB")


# ---------------------------------------------------------------------------
# embedding cache


def assert_rows_match_lone_embeds(emb, encoder, examples, level, *maps):
    """Each example's rows, in order, are its own one-example embed."""
    lone = [embed_examples(encoder, [ex], level, *maps) for ex in examples]
    assert np.allclose(emb.X, np.concatenate([e.X for e in lone]), atol=1e-12)
    assert np.array_equal(emb.lang_y, np.concatenate([e.lang_y for e in lone]))
    if emb.task_y is not None:
        assert np.array_equal(emb.task_y,
                              np.concatenate([e.task_y for e in lone]))


def test_embed_examples_token_level(small_pretrained, tiny_data):
    encoder, _ = small_pretrained
    examples = tiny_data.task_split.train
    assert len(examples) > EMBED_BATCH          # at least two chunks
    maps = tiny_data.lang_to_id, tiny_data.task_spec.label_to_id
    emb = embed_examples(encoder, examples, "token", *maps)
    n_tokens = sum(len(ex.sequence) for ex in examples)
    assert emb.X.shape == (n_tokens, encoder.config.d_model)
    assert emb.task_y.shape == emb.lang_y.shape == (n_tokens,)
    assert_rows_match_lone_embeds(emb, encoder, examples, "token", *maps)


def test_embed_examples_text_level(small_pretrained, tiny_lid_split):
    encoder, _ = small_pretrained
    examples = tiny_lid_split.train
    assert len(examples) > EMBED_BATCH
    lang_to_id = {"aa": 0, "ab": 1, "ac": 2}
    emb = embed_examples(encoder, examples, "text", lang_to_id)
    assert emb.X.shape == (len(examples), encoder.config.d_model)
    assert emb.task_y is None
    assert_rows_match_lone_embeds(emb, encoder, examples, "text", lang_to_id)


# ---------------------------------------------------------------------------
# regimes: identities, determinism, contracts


def tiny_cfg(regime, **kw):
    base = dict(task="token_tag", pivot_language="aa", init_std=1e-2,
                batch_size=16, head_lr=1e-2, encoder_lr=1e-3, epochs=2, seed=0)
    base.update(kw)
    return PipelineConfig(regime=regime, **base)


def params_equal(a: EncoderModel, b: EncoderModel) -> bool:
    return all(np.array_equal(a.params[k], b.params[k]) for k in a.params)


def test_frozen_probe_leaves_encoder_untouched(small_pretrained,
                                               tiny_data):
    encoder, _ = small_pretrained
    before = {k: v.copy() for k, v in encoder.params.items()}
    run = run_regime(encoder, tiny_data, tiny_cfg("frozen_probe"))
    assert run.encoder is encoder
    assert all(np.array_equal(encoder.params[k], before[k]) for k in before)
    assert set(run.heads) == {"task"}    # the LID probe is the pipeline's job
    assert len(run.epoch_val_f1) == 2
    assert run.epoch_val_f1[run.selected_epoch] == max(run.epoch_val_f1)
    assert set(run.losses) == {"task"}


def n_steps(n_rows, cfg):
    """Minibatch steps over n_rows rows in cfg.epochs epochs."""
    return cfg.epochs * -(-n_rows // cfg.batch_size)


@pytest.mark.parametrize("regime, weights, trains_lang_head", [
    ("frozen_probe", {}, False), ("finetune", {}, False),
    ("grad_reversal", {"grl_lambda": 0.5}, True),
    ("entropy_max", {"w": 0.5}, True)],
    ids=["frozen_probe", "finetune", "grad_reversal", "entropy_max"])
def test_regimes_return_only_what_they_train(small_pretrained, tiny_data, regime, weights,
                                             trains_lang_head):
    encoder, _ = small_pretrained
    cfg = tiny_cfg(regime, epochs=1, **weights)
    run = run_regime(encoder, tiny_data, cfg)
    assert set(run.heads) == ({"task", "lang"} if trains_lang_head else {"task"})
    # one loss per optimizer step: a fine-tuning step per pivot-train
    # minibatch, a frozen-probe step per minibatch of pivot-train tokens,
    # an entropy-max language-phase step per LID-train minibatch
    pivot = tiny_data.pivot_train
    steps = n_steps(sum(len(ex.sequence) for ex in pivot)
                    if regime == "frozen_probe" else len(pivot), cfg)
    expected = {"task": steps}
    if regime == "grad_reversal":
        expected["lang"] = steps
    if regime == "entropy_max":
        expected["lang"] = n_steps(len(tiny_data.lid_split.train), cfg)
        expected["lang_term"] = steps
    assert {name: len(losses) for name, losses in run.losses.items()} == expected


def test_run_regime_deterministic(small_pretrained, tiny_data):
    encoder, _ = small_pretrained
    a = run_regime(encoder, tiny_data, tiny_cfg("finetune"))
    b = run_regime(encoder, tiny_data, tiny_cfg("finetune"))
    assert params_equal(a.encoder, b.encoder)
    assert np.array_equal(a.heads["task"].w, b.heads["task"].w)
    assert a.epoch_val_f1 == b.epoch_val_f1
    assert a.losses == b.losses


def test_finetune_moves_encoder(small_pretrained, tiny_data):
    encoder, _ = small_pretrained
    run = run_regime(encoder, tiny_data, tiny_cfg("finetune"))
    assert run.encoder is not encoder
    assert not params_equal(run.encoder, encoder)
    assert run.epoch_val_f1[run.selected_epoch] == max(run.epoch_val_f1)


def test_reduction_identities_match_finetune(small_pretrained,
                                             tiny_data):
    # lambda=0 and w=0 must retrace plain fine-tuning bitwise
    encoder, _ = small_pretrained
    ft = run_regime(encoder, tiny_data, tiny_cfg("finetune"))
    gr = run_regime(encoder, tiny_data,
                    tiny_cfg("grad_reversal", grl_lambda=0.0))
    em = run_regime(encoder, tiny_data, tiny_cfg("entropy_max", w=0.0))
    for other in (gr, em):
        assert params_equal(ft.encoder, other.encoder)
        assert np.array_equal(ft.heads["task"].w, other.heads["task"].w)
        assert np.array_equal(ft.heads["task"].b, other.heads["task"].b)
        assert ft.epoch_val_f1 == other.epoch_val_f1
        assert ft.selected_epoch == other.selected_epoch


def test_grad_reversal_with_positive_lambda_diverges(small_pretrained,
                                                     tiny_data):
    encoder, _ = small_pretrained
    ft = run_regime(encoder, tiny_data, tiny_cfg("finetune"))
    gr = run_regime(encoder, tiny_data,
                    tiny_cfg("grad_reversal", grl_lambda=0.5))
    assert not params_equal(ft.encoder, gr.encoder)
    assert gr.losses["lang"]    # the language CE is tracked


def test_entropy_max_tracks_language_term(small_pretrained, tiny_data):
    encoder, _ = small_pretrained
    em = run_regime(encoder, tiny_data, tiny_cfg("entropy_max", w=0.5))
    terms = em.losses["lang_term"]
    assert terms and all(np.isfinite(t) for t in terms)
    assert em.losses["lang"]


def test_entropy_max_returns_the_selected_epochs_language_head(
        small_pretrained, tiny_data, monkeypatch):
    # encoder, task head and language head all come from the selected epoch
    encoder, _ = small_pretrained
    one = run_regime(encoder, tiny_data,
                     tiny_cfg("entropy_max", w=0.5, epochs=1))
    scores = iter([1.0, 0.0, 0.0])
    monkeypatch.setattr(regimes, "head_f1", lambda *args: next(scores))
    run = run_regime(encoder, tiny_data,
                     tiny_cfg("entropy_max", w=0.5, epochs=3))
    assert run.selected_epoch == 0 and run.epoch_val_f1 == [1.0, 0.0, 0.0]
    assert params_equal(run.encoder, one.encoder)
    assert np.array_equal(run.heads["task"].w, one.heads["task"].w)
    assert np.array_equal(run.heads["lang"].w, one.heads["lang"].w)
    assert np.array_equal(run.heads["lang"].b, one.heads["lang"].b)


def script_head_f1(monkeypatch, scores):
    """Make regimes.head_f1 return scores in turn; returns the list of
    the heads it was handed, each copied as it was when scored."""
    scored, it = [], iter(scores)

    def head_f1(head, X, y, n_classes):
        scored.append(head.copy())
        return next(it)

    monkeypatch.setattr(regimes, "head_f1", head_f1)
    return scored


@pytest.mark.parametrize("scores, best", [
    ([0.3, 0.5, 0.5, 0.4], 1), ([np.nan, 0.5, 0.6], 0),
    ([0.3, np.nan, 0.5], 2), ([0.2, 0.2], 0)],
    ids=["tie", "nan-first", "nan-between", "all-equal"])
def test_head_training_keeps_the_earliest_best_epoch(tiny_encoder, tiny_data,
                                                     monkeypatch, scores,
                                                     best):
    scored = script_head_f1(monkeypatch, scores)
    run = retrain_language_probe(tiny_encoder, tiny_data,
                                 tiny_cfg("frozen_probe", epochs=len(scores)))
    assert run.selected_epoch == best
    assert run.epoch_val_f1 == scores     # the same objects, NaN included
    head = run.heads["probe"]
    assert np.array_equal(head.w, scored[best].w)
    assert np.array_equal(head.b, scored[best].b)
    if best < len(scores) - 1:              # the last epoch's head moved on
        assert not np.array_equal(head.w, scored[-1].w)


def test_fine_tune_returns_the_selected_epochs_encoder_and_heads(
        small_pretrained, tiny_data, monkeypatch):
    # the tie at epochs 1 and 2 keeps epoch 1: a two-epoch run that ends
    # there trains the same encoder and heads
    encoder, _ = small_pretrained
    cfg = lambda epochs: tiny_cfg("grad_reversal", grl_lambda=0.5,
                                  epochs=epochs)
    script_head_f1(monkeypatch, [0.3, 0.5])
    two = run_regime(encoder, tiny_data, cfg(2))
    scored = script_head_f1(monkeypatch, [0.3, 0.5, 0.5, 0.4])
    run = run_regime(encoder, tiny_data, cfg(4))
    assert run.selected_epoch == 1
    assert run.epoch_val_f1 == [0.3, 0.5, 0.5, 0.4]
    assert params_equal(run.encoder, two.encoder)
    for head, ref in ((run.heads["task"], two.heads["task"]),
                      (run.heads["lang"], two.heads["lang"]),
                      (run.heads["task"], scored[1])):
        assert np.array_equal(head.w, ref.w)
        assert np.array_equal(head.b, ref.b)
    assert not np.array_equal(run.heads["task"].w, scored[-1].w)


def test_retrain_language_probe_deterministic(small_pretrained, tiny_data):
    encoder, _ = small_pretrained
    cfg = tiny_cfg("frozen_probe")
    a = retrain_language_probe(encoder, tiny_data, cfg)
    b = retrain_language_probe(encoder, tiny_data, cfg)
    assert set(a.heads) == {"probe"} and a.encoder is encoder
    assert np.array_equal(a.heads["probe"].w, b.heads["probe"].w)
    assert a.epoch_val_f1 == b.epoch_val_f1
    assert a.epoch_val_f1[a.selected_epoch] == max(a.epoch_val_f1)
    # one language CE per minibatch of LID-train texts
    assert list(a.losses) == ["lang"] and a.losses == b.losses
    assert len(a.losses["lang"]) == n_steps(len(tiny_data.lid_split.train), cfg)


def test_pretraining_helps_language_probe(small_pretrained, tiny_encoder,
                                          tiny_data):
    pretrained, _ = small_pretrained
    cfg = tiny_cfg("frozen_probe")
    scores = {}
    for name, enc in (("random", tiny_encoder), ("pretrained", pretrained)):
        probe = retrain_language_probe(enc, tiny_data, cfg)
        scores[name] = evaluate_lid(enc, probe.heads["probe"],
                                    tiny_data.lid_split.test,
                                    "text", tiny_data.lang_to_id)
    assert scores["pretrained"] >= 0.9
    assert scores["pretrained"] > scores["random"]


# ---------------------------------------------------------------------------
# hyperparameter search


def test_grids_for_regime():
    g = grids_for_regime("frozen_probe")
    assert g == {name: GRIDS[name]
                 for name in ("init_std", "batch_size", "head_lr")}
    assert "encoder_lr" in grids_for_regime("finetune")
    assert "grl_lambda" in grids_for_regime("grad_reversal")
    assert "w" in grids_for_regime("entropy_max")
    g["init_std"] = ()
    assert grids_for_regime("frozen_probe")["init_std"]   # caller got a copy
    with pytest.raises(ValueError, match="unknown regime"):
        grids_for_regime("adapters")


def test_regime_settings_cover_every_regime_and_grid():
    assert set(REGIME_SETTINGS) == set(REGIMES)
    head = {"init_std", "batch_size", "head_lr"}
    weights = {"grad_reversal": {"grl_lambda"}, "entropy_max": {"w"}}
    for regime, settings in REGIME_SETTINGS.items():
        encoder = set() if regime == "frozen_probe" else {"encoder_lr"}
        assert sorted(settings) == sorted(head | encoder
                                          | weights.get(regime, set()))
    # no grid that no regime searches
    assert set(GRIDS) == {n for names in REGIME_SETTINGS.values()
                          for n in names}


def test_presets_set_only_what_their_regime_searches():
    # a preset is a search outcome: each value it sets lies on the grid
    for name, keys in PRESETS.items():
        grids = grids_for_regime(keys["regime"])
        for key, value in keys.items():
            if key not in ("task", "regime"):
                assert key in grids and value in grids[key], (name, key)


def test_every_grid_value_builds_a_config():
    for regime in REGIME_SETTINGS:
        grid = grids_for_regime(regime)
        base = PipelineConfig(regime=regime,
                              **{name: values[0] for name, values in grid.items()})
        for name, values in grid.items():
            for value in values:
                assert getattr(dataclasses.replace(base, **{name: value}),
                               name) == value


def test_random_search_samples_on_grid():
    # ranked best first, ties in draw order
    grids = {"a": (1, 2, 3), "b": (0.1, 0.2)}
    drawn = []

    def evaluate(sample):
        drawn.append(dict(sample))
        return float(sample["a"])   # many ties

    ranked = random_search(grids, evaluate, n_samples=16)
    assert len(ranked) == 16 == len(drawn)
    for config, score in ranked:
        assert config["a"] in grids["a"] and config["b"] in grids["b"]
        assert score == config["a"]
    order = sorted(range(16), key=lambda i: (-drawn[i]["a"], i))
    assert [config for config, _ in ranked] == [drawn[i] for i in order]


def test_random_search_deterministic_and_copying():
    grids = {"y": (5, 6, 7), "x": (1, 2)}
    drawn = []

    def evaluate(sample):
        drawn.append(dict(sample))
        sample["x"] = -99   # must not leak into the ranking
        return 0.0

    ranked = random_search(grids, evaluate, n_samples=4, seed=3)
    # one draw per setting, in sorted-name order
    rng = stream(3, "hp-search")
    assert drawn == [{name: grids[name][int(rng.integers(len(grids[name])))]
                      for name in ("x", "y")} for _ in range(4)]
    # all tied at 0.0: draw order is the ranking
    assert ranked == [(config, 0.0) for config in drawn]
    assert random_search(grids, lambda s: 0.0, n_samples=4, seed=3) == ranked


def test_random_search_validation():
    with pytest.raises(ValueError, match="n_samples"):
        random_search({"a": (1,)}, lambda s: 0.0, n_samples=0)
    with pytest.raises(ValueError, match="empty hyperparameter"):
        random_search({}, lambda s: 0.0)
    with pytest.raises(ValueError, match="empty grid for 'a'"):
        random_search({"a": ()}, lambda s: 0.0)
