"""Encoder forward/backward correctness, masking, dropout, MLM, Adam, rng.

Gradient checks compare analytical gradients with central finite
differences; relative error uses a 1e-6 denominator floor so structural
zeros (e.g. key biases) don't divide by zero.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import erf, ndtr

from langlab.encoder import (
    EncoderConfig,
    EncoderModel,
    backward_batch,
    encode,
    encode_batch,
    forward_batch,
    mlm_masked_accuracy,
    mlm_pretrain,
    mlm_step_loss,
    text_embedding,
)
from langlab.optim import ADAM_EPS, AdamState, adam_step
from langlab.rng import stream
from langlab.vocab import SEP_ID

FD_H = 1e-5
FD_TOL = 1e-4


def small_model(vocab_size=12, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                dropout=0.0, seed=0):
    cfg = EncoderConfig(vocab_size=vocab_size, d_model=d_model,
                        n_layers=n_layers, n_heads=n_heads, d_ff=d_ff,
                        max_len=16, dropout=dropout)
    return EncoderModel.init(cfg, seed=seed)


def small_batch(vocab_size=12, B=2, T=6, seed=1):
    rng = np.random.default_rng(seed)
    ids = rng.integers(4, vocab_size, size=(B, T))
    lengths = np.array([T, T - 2])
    cols = np.arange(T)
    real = cols[None, :] < lengths[:, None]
    ids = np.where(real, ids, 0)
    return ids, lengths, real


def fd_max_rel_err(model, loss_fn, grads, names, n_coords=4, seed=0):
    """Central finite differences on sampled coordinates of each param."""
    worst = 0.0
    rng = np.random.default_rng(seed)
    for name in names:
        flat = model.params[name].reshape(-1)
        g = grads[name].reshape(-1)
        picks = rng.choice(flat.size, size=min(n_coords, flat.size),
                           replace=False)
        for i in picks:
            orig = flat[i]
            flat[i] = orig + FD_H
            up = loss_fn(model)
            flat[i] = orig - FD_H
            down = loss_fn(model)
            flat[i] = orig
            fd = (up - down) / (2.0 * FD_H)
            rel = abs(fd - g[i]) / max(abs(fd), 1e-6)
            worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# config and initialization


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        EncoderConfig(vocab_size=10, d_model=6, n_heads=4)
    with pytest.raises(ValueError, match="dropout"):
        EncoderConfig(vocab_size=10, dropout=1.0)
    with pytest.raises(ValueError, match=">= 1"):
        EncoderConfig(vocab_size=0)


def test_init_deterministic():
    a = small_model(seed=3)
    b = small_model(seed=3)
    assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
    c = small_model(seed=4)
    assert not np.array_equal(a.params["tok_emb"], c.params["tok_emb"])


def test_copy_is_deep():
    a = small_model()
    b = a.copy()
    b.params["tok_emb"][0, 0] += 1.0
    assert a.params["tok_emb"][0, 0] != b.params["tok_emb"][0, 0]


# ---------------------------------------------------------------------------
# forward pass contracts


def test_forward_shapes_and_determinism():
    model = small_model()
    ids, lengths, _ = small_batch()
    h1, tape = forward_batch(model, ids, lengths, want_tape=True)
    h2, _ = forward_batch(model, ids, lengths)
    assert h1.shape == (2, 6, 8)
    assert np.array_equal(h1, h2)
    assert tape is not None and len(tape.layers) == 1


def test_ndtr_gelu_matches_erf_form():
    # absolute bounds, not ulps: the erf form cancels for x << 0
    x = np.linspace(-40.0, 40.0, 400_001)
    cdf_erf = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    assert np.abs(ndtr(x) - cdf_erf).max() <= 2.3e-16
    gelu_gap = np.abs(x * ndtr(x) - x * cdf_erf)
    assert (gelu_gap <= 4e-16 * np.maximum(1.0, np.abs(x))).all()


def test_tape_keeps_phi_in_place_of_the_activation():
    model = small_model(n_layers=2, d_ff=16)
    ids, lengths, _ = small_batch()
    _, tape = forward_batch(model, ids, lengths, want_tape=True)
    assert len(tape.layers) == 2
    for cache in tape.layers:
        assert set(cache) == {"ln1", "att", "ln2", "ff"}
        ff = cache["ff"]
        assert np.array_equal(ff["cdf"], ndtr(ff["pre"]))
        # the pre-activation and Phi are the only (B, T, d_ff) arrays kept
        wide = [a for block in cache.values() for a in block.values()
                if isinstance(a, np.ndarray) and a.shape == (2, 6, 16)]
        assert len(wide) == 2


def test_forward_validation():
    model = small_model(vocab_size=12)
    ids, lengths, _ = small_batch()
    with pytest.raises(ValueError, match="out of range"):
        forward_batch(model, ids + 12, lengths)
    long_ids = np.zeros((1, 17), dtype=int)
    with pytest.raises(ValueError, match="exceeds max"):
        forward_batch(model, long_ids, np.array([17]))
    drop_model = small_model(dropout=0.1)
    with pytest.raises(ValueError, match="rng"):
        forward_batch(drop_model, ids, lengths, train=True)


def test_train_mode_dropout_reproducible():
    model = small_model(dropout=0.2)
    ids, lengths, _ = small_batch()
    h1, _ = forward_batch(model, ids, lengths, train=True, rng=stream(0, "d"))
    h2, _ = forward_batch(model, ids, lengths, train=True, rng=stream(0, "d"))
    h3, _ = forward_batch(model, ids, lengths, train=True, rng=stream(1, "d"))
    assert np.array_equal(h1, h2)
    assert not np.array_equal(h1, h3)


def test_padding_content_is_invisible():
    # changing token ids under the padding must not move real positions
    model = small_model()
    ids, lengths, real = small_batch()
    ids_b = np.where(real, ids, 7)
    ha, _ = forward_batch(model, ids, lengths)
    hb, _ = forward_batch(model, ids_b, lengths)
    assert np.array_equal(ha[real], hb[real])


def test_encode_matches_batch():
    model = small_model()
    rng = np.random.default_rng(0)
    seqs = [rng.integers(4, 12, size=n) for n in (3, 6)]
    T = 6
    ids = np.zeros((2, T), dtype=int)
    for r, s in enumerate(seqs):
        ids[r, : s.size] = s
    batch = encode_batch(model, ids, np.array([3, 6]))
    for r, s in enumerate(seqs):
        single = encode(model, s)
        assert single.shape == (s.size, 8)
        assert np.allclose(single, batch[r, : s.size], atol=1e-12)
    emb = text_embedding(model, seqs[0])
    assert emb.shape == (8,)
    assert np.allclose(emb, batch[0, 0], atol=1e-12)


def test_encode_rejects_empty():
    model = small_model()
    with pytest.raises(ValueError, match="nonempty"):
        encode(model, np.array([], dtype=int))


# ---------------------------------------------------------------------------
# backward pass


def projection_loss(ids, lengths, real, W, *, train=False, drop_seed=0):
    """Scalar loss: fixed random projection of all real-position outputs."""
    def loss(model):
        rng = stream(drop_seed, "fd-dropout") if train else None
        hidden, _ = forward_batch(model, ids, lengths, train=train, rng=rng)
        return float((hidden[real] * W).sum())
    return loss


def projection_grads(model, ids, lengths, real, W, *, train=False, drop_seed=0):
    rng = stream(drop_seed, "fd-dropout") if train else None
    hidden, tape = forward_batch(model, ids, lengths, train=train, rng=rng,
                                 want_tape=True)
    d_hidden = np.zeros_like(hidden)
    d_hidden[real] = W
    return backward_batch(model, tape, d_hidden)


def test_gradients_match_finite_differences_eval_mode():
    model = small_model(n_layers=2)
    ids, lengths, real = small_batch()
    W = np.random.default_rng(5).normal(size=(8,))
    loss = projection_loss(ids, lengths, real, W)
    grads = projection_grads(model, ids, lengths, real, W)
    worst = fd_max_rel_err(model, loss, grads, sorted(model.params))
    assert worst <= FD_TOL, f"max FD relative error {worst:.2e}"


def test_gradients_match_finite_differences_with_dropout():
    model = small_model(dropout=0.1)
    ids, lengths, real = small_batch()
    W = np.random.default_rng(6).normal(size=(8,))
    loss = projection_loss(ids, lengths, real, W, train=True, drop_seed=3)
    grads = projection_grads(model, ids, lengths, real, W, train=True,
                             drop_seed=3)
    worst = fd_max_rel_err(model, loss, grads, sorted(model.params))
    assert worst <= FD_TOL, f"max FD relative error {worst:.2e}"


def test_key_bias_and_mlm_bias_gradients_are_structural_zeros():
    # softmax rows are shift invariant, so the key bias cannot move the
    # loss; its analytical gradient only carries float cancellation noise
    model = small_model(n_layers=2)
    ids, lengths, real = small_batch()
    W = np.random.default_rng(7).normal(size=(8,))
    grads = projection_grads(model, ids, lengths, real, W)
    other_scale = max(np.abs(grads["L0_wk"]).max(), 1.0)
    for name in ("L0_bk", "L1_bk"):
        assert np.abs(grads[name]).max() <= 1e-10 * other_scale
    assert np.array_equal(grads["mlm_bias"], np.zeros_like(grads["mlm_bias"]))
    # and the loss itself is invariant under a key-bias shift
    loss = projection_loss(ids, lengths, real, W)
    base = loss(model)
    model.params["L0_bk"] += 0.37
    assert abs(loss(model) - base) <= 1e-9 * max(abs(base), 1.0)
    model.params["L0_bk"] -= 0.37


def test_padded_upstream_gradient_is_ignored():
    model = small_model()
    ids, lengths, real = small_batch()
    W = np.random.default_rng(8).normal(size=(8,))
    d_clean = np.zeros((2, 6, 8))
    d_clean[real] = W
    d_dirty = d_clean.copy()
    d_dirty[~real] = 123.0
    _, tape1 = forward_batch(model, ids, lengths, want_tape=True)
    _, tape2 = forward_batch(model, ids, lengths, want_tape=True)
    g1 = backward_batch(model, tape1, d_clean)
    g2 = backward_batch(model, tape2, d_dirty)
    assert all(np.array_equal(g1[k], g2[k]) for k in g1)


def test_tape_is_single_use():
    model = small_model()
    ids, lengths, _ = small_batch()
    hidden, tape = forward_batch(model, ids, lengths, want_tape=True)
    backward_batch(model, tape, np.zeros_like(hidden))
    with pytest.raises(RuntimeError, match="consumed"):
        backward_batch(model, tape, np.zeros_like(hidden))


# ---------------------------------------------------------------------------
# dropout site statistics


def test_dropout_mask_expectation():
    from langlab.encoder import _dropout_mask

    p = 0.1
    mask = _dropout_mask((1000, 1000), p, stream(0, "mask-test"))
    keep = 1.0 / (1.0 - p)
    assert set(np.unique(mask)) == {0.0, keep}
    # E[mask] = 1 with var p/(1-p); check the sample mean within 3 SE
    se = np.sqrt(p / (1.0 - p) / mask.size)
    assert abs(mask.mean() - 1.0) <= 3.0 * se


# ---------------------------------------------------------------------------
# masked-token pretraining


def test_mlm_step_loss_gradients_match_fd():
    model = small_model(n_layers=1)
    ids, lengths, _ = small_batch()

    def loss_and_grads(m):
        return mlm_step_loss(m, ids, lengths, 0.3, stream(4, "fd-mlm"))

    _, grads = loss_and_grads(model)
    loss = lambda m: loss_and_grads(m)[0]
    names = ["tok_emb", "mlm_bias", "pos_emb", "L0_wq", "L0_w1", "final_ln_g"]
    worst = fd_max_rel_err(model, loss, grads, names)
    assert worst <= FD_TOL, f"max FD relative error {worst:.2e}"


def test_mlm_forces_one_mask():
    model = small_model()
    ids, lengths, _ = small_batch()
    loss, _ = mlm_step_loss(model, ids, lengths, 1e-12, stream(0, "force"))
    assert np.isfinite(loss) and loss > 0.0


def test_mlm_memorizes_tiny_corpus():
    rng = np.random.default_rng(0)
    seqs = [rng.integers(4, 12, size=8) for _ in range(6)]
    model = small_model(d_model=32, n_heads=4, d_ff=64)
    trained, losses = mlm_pretrain(model, seqs, mask_rate=0.2, steps=400,
                                   batch_size=6, lr=3e-3, seed=0)
    assert len(losses) == 400
    assert losses[-1] < 0.5 * losses[0]
    acc = mlm_masked_accuracy(trained, seqs, mask_rate=0.2, seed=1)
    assert acc >= 0.9, f"masked accuracy {acc:.3f}"
    # the input model is left untouched
    assert np.array_equal(model.params["tok_emb"],
                          small_model(d_model=32, n_heads=4, d_ff=64)
                          .params["tok_emb"])


def test_mlm_accuracy_nan_without_eligible_positions():
    model = small_model()
    acc = mlm_masked_accuracy(model, [np.array([SEP_ID, SEP_ID])],
                              mask_rate=0.5)
    assert np.isnan(acc)


def test_mlm_pretrain_validation():
    model = small_model()
    with pytest.raises(ValueError, match="mask_rate"):
        mlm_pretrain(model, [np.array([5, 6])], mask_rate=0.0, steps=1)
    with pytest.raises(ValueError, match="empty"):
        mlm_pretrain(model, [], steps=1)
    same, losses = mlm_pretrain(model, [np.array([5, 6])], steps=0)
    assert losses == []
    assert all(np.array_equal(same.params[k], model.params[k])
               for k in model.params)


def test_small_pretraining_reduces_loss(small_pretrained):
    _, losses = small_pretrained
    head = float(np.mean(losses[:20]))
    tail = float(np.mean(losses[-20:]))
    assert tail < head


# ---------------------------------------------------------------------------
# optimizer


def test_adam_single_step_matches_formula():
    p = {"x": np.array([1.0, -2.0])}
    g = {"x": np.array([2.0, -0.5])}
    state = AdamState()
    adam_step(p, g, state, 0.1)
    # after one step mhat = g, vhat = g^2
    expect = np.array([1.0, -2.0]) - 0.1 * g["x"] / (np.abs(g["x"]) + ADAM_EPS)
    assert np.allclose(p["x"], expect, atol=1e-12)
    assert state.t == 1


def test_adam_per_name_learning_rates():
    p = {"enc/w": np.zeros(3), "head/w": np.zeros(3)}
    g = {"enc/w": np.ones(3), "head/w": np.ones(3)}
    adam_step(p, g, AdamState(),
              lambda name: 1e-4 if name.startswith("enc/") else 1e-1)
    assert np.allclose(p["enc/w"], -1e-4 * np.ones(3) / (1 + ADAM_EPS))
    assert np.allclose(p["head/w"], -1e-1 * np.ones(3) / (1 + ADAM_EPS))


def test_adam_rejects_non_finite():
    p = {"x": np.zeros(2)}
    with pytest.raises(FloatingPointError, match="x"):
        adam_step(p, {"x": np.array([1.0, np.nan])}, AdamState(), 0.1)


def test_adam_moment_state_per_name():
    p = {"a": np.zeros(2), "b": np.zeros((2, 2))}
    state = AdamState()
    adam_step(p, {"a": np.ones(2), "b": np.ones((2, 2))}, state, 0.1)
    adam_step(p, {"a": np.ones(2)}, state, 0.1)   # partial update allowed
    assert state.m["a"].shape == (2,) and state.m["b"].shape == (2, 2)
    assert state.t == 2


# ---------------------------------------------------------------------------
# named rng streams


def test_stream_reproducible_and_distinct():
    a = stream(0, "alpha").random(4)
    b = stream(0, "alpha").random(4)
    c = stream(0, "beta").random(4)
    d = stream(1, "alpha").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_stream_mixed_tag_types():
    a = stream(0, "epoch", 3).random(2)
    b = stream(0, "epoch", 3).random(2)
    c = stream(0, "epoch", 4).random(2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
