"""Batching, the composite step, regimes, probes, and the random search.

The composite-step gradient is finite-difference checked per parameter
group; the lambda=0 / w=0 reduction identities are asserted bitwise
against plain fine-tuning.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from langlab.config import PipelineConfig
from langlab.encoder import EncoderConfig, EncoderModel, forward_batch
from langlab.heads import ce_loss_and_dlogits, head_logits, language_term_and_dlogits
from langlab.pipeline import prepare_data
from langlab.rng import stream
from langlab.training.batching import (
    CyclingBatches,
    TaskSpec,
    epoch_batches,
    make_batch,
    task_spec_for,
)
from langlab.training.evaluate import evaluate_lid
from langlab.training import regimes
from langlab.training.network import (
    StepResult,
    _gold_at_level,
    composite_step,
    embed_examples,
    read_index,
)
from langlab.training.regimes import _select_best, retrain_language_probe, run_regime
from langlab.training.search import TABLE_GRIDS, grids_for_regime, random_search

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
    assert batch.ids.shape == batch.task_y.shape == (3, T)
    for r, ex in enumerate(examples):
        n = len(ex.sequence)
        assert batch.lengths[r] == n
        assert np.array_equal(batch.ids[r, :n], ex.sequence.tokens)
        assert np.all(batch.ids[r, n:] == 0)       # PAD
        assert np.all(batch.task_y[r, n:] == -1)
        labels = [spec.label_to_id[l] for l in ex.task_labels]
        assert list(batch.task_y[r, :n]) == labels
        assert batch.lang_y[r] == lang_to_id[ex.language]


def test_make_batch_text_level_and_validation(tiny_pair_corpus):
    examples = tiny_pair_corpus[:4]
    spec = task_spec_for("pair_inference", examples)
    batch = make_batch(examples, spec.label_to_id, {"aa": 0, "ab": 1, "ac": 2},
                       "text")
    assert batch.task_y.shape == (4,)
    assert batch.task_y[0] == spec.label_to_id[examples[0].task_labels[0]]
    none_batch = make_batch(examples, None, {"aa": 0, "ab": 1, "ac": 2}, "text")
    assert none_batch.task_y is None
    with pytest.raises(ValueError, match="empty batch"):
        make_batch([], None, {}, "text")


def test_epoch_batches_cover_everything():
    batches = epoch_batches(10, 4, stream(0, "eb"))
    assert [len(b) for b in batches] == [4, 4, 2]
    assert sorted(np.concatenate(batches).tolist()) == list(range(10))
    again = epoch_batches(10, 4, stream(0, "eb"))
    assert all(np.array_equal(a, b) for a, b in zip(batches, again))


def test_cycling_batches():
    cyc = CyclingBatches(5, stream(0, "cyc"))
    first = cyc.take(5)
    assert sorted(first.tolist()) == list(range(5))
    drawn = np.concatenate([cyc.take(3) for _ in range(5)])
    assert len(drawn) == 15
    # two full passes follow the first; every element appears each pass
    assert sorted(drawn[:5].tolist()) == list(range(5))
    with pytest.raises(ValueError, match="empty"):
        CyclingBatches(0, stream(0, "cyc"))


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
    from langlab.heads import ClassifierHead
    task_head = ClassifierHead.init(8, spec.n_classes, 0.1, seed=1, tag="t")
    lang_head = ClassifierHead.init(8, 3, 0.1, seed=2, tag="l")
    return enc, task_head, lang_head, batch, lid_batch


def _classified(enc, batch):
    """(X, where): the vectors at read_index, picked from a forward over
    every real token, so the objectives do not share the composite
    step's read-row path."""
    hidden, _ = forward_batch(enc, batch.ids, batch.lengths)
    if batch.level != "token":      # position 0: each sequence's first row
        hidden = hidden[np.cumsum(batch.lengths) - batch.lengths]
    return hidden, read_index(batch)


def _task_ce(enc, head, batch):
    X, where = _classified(enc, batch)
    loss, _ = ce_loss_and_dlogits(head_logits(head, X),
                                  _gold_at_level(batch, where))
    return loss


def _lang_ce(enc, head, lid_batch):
    X, _ = _classified(enc, lid_batch)
    loss, _ = ce_loss_and_dlogits(head_logits(head, X), lid_batch.lang_y)
    return loss


def _lang_term(enc, head, batch):
    X, _ = _classified(enc, batch)
    return language_term_and_dlogits(head_logits(head, X))[0]


def test_composite_step_plain_matches_fd(fd_setup):
    enc, task_head, _, batch, _ = fd_setup
    res = composite_step(enc, task_head, batch, stream(0, "fd"))
    assert res.lang_loss is None and res.lang_term is None
    assert res.task_loss == pytest.approx(_task_ce(enc, task_head, batch))
    pairs = [(enc.params[n], res.grads[f"enc/{n}"]) for n in FD_PARAMS]
    pairs += [(task_head.w, res.grads["task/w"]),
              (task_head.b, res.grads["task/b"])]
    _assert_fd(lambda: _task_ce(enc, task_head, batch), pairs)


def test_composite_step_entropy_max_matches_fd(fd_setup):
    enc, task_head, lang_head, batch, _ = fd_setup
    w = 0.3
    res = composite_step(enc, task_head, batch, stream(0, "fd"),
                         lang_head=lang_head, w=w)
    assert res.lang_term == pytest.approx(_lang_term(enc, lang_head, batch))

    def loss():
        return ((1 - w) * _task_ce(enc, task_head, batch)
                + w * _lang_term(enc, lang_head, batch))

    pairs = [(enc.params[n], res.grads[f"enc/{n}"]) for n in FD_PARAMS]
    pairs += [(task_head.w, res.grads["task/w"]),
              (task_head.b, res.grads["task/b"])]
    _assert_fd(loss, pairs)
    assert "lang/w" not in res.grads   # the language head is frozen here


def test_composite_step_grad_reversal_matches_fd(fd_setup):
    enc, task_head, lang_head, batch, lid_batch = fd_setup
    lam = 0.5
    res = composite_step(enc, task_head, batch, stream(0, "fd"),
                         lang_head=lang_head, grl_lambda=lam,
                         lid_batch=lid_batch, rng_lid=stream(1, "fd"))
    assert res.lang_loss == pytest.approx(_lang_ce(enc, lang_head, lid_batch))

    # encoder sees task CE minus lambda times the language CE
    def enc_loss():
        return (_task_ce(enc, task_head, batch)
                - lam * _lang_ce(enc, lang_head, lid_batch))

    pairs = [(enc.params[n], res.grads[f"enc/{n}"]) for n in FD_PARAMS]
    pairs += [(task_head.w, res.grads["task/w"])]
    _assert_fd(enc_loss, pairs)
    # the language head itself trains against the plain (unreversed) CE
    _assert_fd(lambda: _lang_ce(enc, lang_head, lid_batch),
               [(lang_head.w, res.grads["lang/w"]),
                (lang_head.b, res.grads["lang/b"])])


def test_composite_step_argument_validation(fd_setup):
    enc, task_head, lang_head, batch, lid_batch = fd_setup
    with pytest.raises(ValueError, match="language head"):
        composite_step(enc, task_head, batch, stream(0, "fd"), w=0.3)
    with pytest.raises(ValueError, match="grl_lambda"):
        composite_step(enc, task_head, batch, stream(0, "fd"),
                       lang_head=lang_head, lid_batch=lid_batch)


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
    with pytest.raises(ValueError, match="unknown language term variant 'renyi'"):
        PipelineConfig(regime="finetune", language_term_variant="renyi", **ok)


def test_select_best_earliest_max():
    assert _select_best([0.2]) == 0
    assert _select_best([0.3, 0.5, 0.4]) == 1
    assert _select_best([0.3, 0.5, 0.5]) == 1
    assert _select_best([0.5, 0.5, 0.5]) == 0


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


def test_embed_examples_token_level(small_pretrained, tiny_data):
    encoder, _ = small_pretrained
    examples = tiny_data.task_split.val
    emb = embed_examples(encoder, examples, "token", tiny_data.lang_to_id,
                         tiny_data.task_spec.label_to_id, batch_size=5)
    n_tokens = sum(len(ex.sequence) for ex in examples)
    assert emb.X.shape == (n_tokens, encoder.config.d_model)
    assert emb.task_y.shape == emb.lang_y.shape == (n_tokens,)
    assert len(emb) == n_tokens
    # rows group by example, in order, with per-example counts = lengths
    counts = np.bincount(emb.example_index, minlength=len(examples))
    assert counts.tolist() == [len(ex.sequence) for ex in examples]
    assert np.all(np.diff(emb.example_index) >= 0)


def test_embed_examples_text_level(small_pretrained, tiny_lid_split):
    encoder, _ = small_pretrained
    examples = tiny_lid_split.val
    emb = embed_examples(encoder, examples, "text", {"aa": 0, "ab": 1, "ac": 2},
                         batch_size=7)
    assert emb.X.shape == (len(examples), encoder.config.d_model)
    assert emb.task_y is None
    assert np.array_equal(emb.example_index, np.arange(len(examples)))


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
    assert run.lang_head is None    # the LID probe is the pipeline's job
    assert len(run.epoch_val_f1) == 2
    assert run.epoch_val_f1[run.selected_epoch] == max(run.epoch_val_f1)
    assert run.lang_losses == []


@pytest.mark.parametrize("regime, weights, trains_lang_head", [
    ("frozen_probe", {}, False), ("finetune", {}, False),
    ("grad_reversal", {"grl_lambda": 0.5}, True),
    ("entropy_max", {"w": 0.5}, True)],
    ids=["frozen_probe", "finetune", "grad_reversal", "entropy_max"])
def test_regimes_return_only_what_they_train(small_pretrained, tiny_data, regime, weights,
                                             trains_lang_head):
    encoder, _ = small_pretrained
    run = run_regime(encoder, tiny_data, tiny_cfg(regime, epochs=1, **weights))
    assert (run.lang_head is not None) == trains_lang_head


def test_run_regime_deterministic(small_pretrained, tiny_data):
    encoder, _ = small_pretrained
    a = run_regime(encoder, tiny_data, tiny_cfg("finetune"))
    b = run_regime(encoder, tiny_data, tiny_cfg("finetune"))
    assert params_equal(a.encoder, b.encoder)
    assert np.array_equal(a.task_head.w, b.task_head.w)
    assert a.epoch_val_f1 == b.epoch_val_f1
    assert a.task_losses == b.task_losses


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
        assert np.array_equal(ft.task_head.w, other.task_head.w)
        assert np.array_equal(ft.task_head.b, other.task_head.b)
        assert ft.epoch_val_f1 == other.epoch_val_f1
        assert ft.selected_epoch == other.selected_epoch


def test_grad_reversal_with_positive_lambda_diverges(small_pretrained,
                                                     tiny_data):
    encoder, _ = small_pretrained
    ft = run_regime(encoder, tiny_data, tiny_cfg("finetune"))
    gr = run_regime(encoder, tiny_data,
                    tiny_cfg("grad_reversal", grl_lambda=0.5))
    assert not params_equal(ft.encoder, gr.encoder)
    assert gr.lang_losses    # the language CE is tracked


def test_entropy_max_tracks_language_term(small_pretrained, tiny_data):
    encoder, _ = small_pretrained
    em = run_regime(encoder, tiny_data, tiny_cfg("entropy_max", w=0.5))
    assert em.lang_terms and all(np.isfinite(t) for t in em.lang_terms)
    assert em.lang_losses


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
    assert np.array_equal(run.task_head.w, one.task_head.w)
    assert np.array_equal(run.lang_head.w, one.lang_head.w)
    assert np.array_equal(run.lang_head.b, one.lang_head.b)


def test_retrain_language_probe_deterministic(small_pretrained, tiny_data):
    encoder, _ = small_pretrained
    cfg = tiny_cfg("frozen_probe")
    a = retrain_language_probe(encoder, tiny_data, cfg)
    b = retrain_language_probe(encoder, tiny_data, cfg)
    assert np.array_equal(a.head.w, b.head.w)
    assert a.epoch_val_f1 == b.epoch_val_f1
    assert a.epoch_val_f1[a.selected_epoch] == max(a.epoch_val_f1)


def test_pretraining_helps_language_probe(small_pretrained, tiny_encoder,
                                          tiny_data):
    pretrained, _ = small_pretrained
    cfg = tiny_cfg("frozen_probe")
    scores = {}
    for name, enc in (("random", tiny_encoder), ("pretrained", pretrained)):
        probe = retrain_language_probe(enc, tiny_data, cfg)
        scores[name] = evaluate_lid(enc, probe.head, tiny_data.lid_split.test,
                                    "text", tiny_data.lang_to_id)
    assert scores["pretrained"] >= 0.9
    assert scores["pretrained"] > scores["random"]


# ---------------------------------------------------------------------------
# hyperparameter search


def test_grids_for_regime():
    g = grids_for_regime("frozen_probe")
    assert set(g) == {"init_std", "batch_size", "head_lr"}
    assert "encoder_lr" in grids_for_regime("finetune")
    assert "grl_lambda" in grids_for_regime("grad_reversal")
    assert "w" in grids_for_regime("entropy_max")
    g["init_std"] = ()
    assert TABLE_GRIDS["frozen_probe"]["init_std"]   # caller got a copy
    with pytest.raises(ValueError, match="unknown regime"):
        grids_for_regime("adapters")


def test_every_grid_value_builds_a_config():
    for regime, grid in TABLE_GRIDS.items():
        base = PipelineConfig(regime=regime,
                              **{name: values[0] for name, values in grid.items()})
        for name, values in grid.items():
            for value in values:
                assert getattr(dataclasses.replace(base, **{name: value}),
                               name) == value


def test_random_search_samples_on_grid():
    grids = {"a": (1, 2, 3), "b": (0.1, 0.2)}
    result = random_search(grids, lambda s: s["a"] + s["b"], n_samples=16)
    assert len(result.samples) == 16
    for s in result.samples:
        assert s["a"] in grids["a"] and s["b"] in grids["b"]
    scores = result.dev_scores
    assert scores[result.ranking[0]] == max(scores)
    # ranking is by descending score with draw order breaking ties
    for i, j in zip(result.ranking, result.ranking[1:]):
        assert (scores[i], -i) >= (scores[j], -j)


def test_random_search_deterministic_and_copying():
    grids = {"x": (1, 2)}
    seen = []

    def evaluate(sample):
        seen.append(sample)
        sample["x"] = -99   # must not leak into stored samples
        return 0.0

    result = random_search(grids, evaluate, n_samples=4, seed=3)
    assert all(s["x"] in (1, 2) for s in result.samples)
    rerun = random_search(grids, lambda s: 0.0, n_samples=4, seed=3)
    assert rerun.samples == result.samples
    # all tied at 0.0: draw order is the ranking
    assert result.ranking == [0, 1, 2, 3]


def test_random_search_validation():
    with pytest.raises(ValueError, match="n_samples"):
        random_search({"a": (1,)}, lambda s: 0.0, n_samples=0)
    with pytest.raises(ValueError, match="empty hyperparameter"):
        random_search({}, lambda s: 0.0)
    with pytest.raises(ValueError, match="empty grid for 'a'"):
        random_search({"a": ()}, lambda s: 0.0)
