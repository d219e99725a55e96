"""Encoder forward/backward correctness, masking, dropout, MLM, Adam, rng.

Gradient checks compare analytical gradients with central finite
differences; relative error uses a 1e-6 denominator floor so structural
zeros (e.g. key biases) don't divide by zero.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erf, ndtr

from langlab.data.types import LabeledExample, TokenSequence
from langlab.encoder import (
    LN_EPS,
    EncoderConfig,
    EncoderModel,
    backward_batch,
    dropout_mask,
    forward_batch,
    mlm_pretrain,
    mlm_step_loss,
)
from langlab.optim import ADAM_EPS, AdamState, adam_step
from langlab.rng import stream
from langlab.vocab import MASK_ID, N_SPECIAL

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
    ids, lengths, real = small_batch()
    h1, tape = forward_batch(model, ids, lengths, want_tape=True)
    h2, _ = forward_batch(model, ids, lengths)
    assert h1.shape == (real.sum(), 8)          # one row per real token
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
    ids, lengths, real = small_batch()
    _, tape = forward_batch(model, ids, lengths, want_tape=True)
    assert len(tape.layers) == 2
    for cache in tape.layers:
        assert set(cache) == {"ln1", "att", "ln2", "ff"}
        ff = cache["ff"]
        assert np.array_equal(ff["cdf"], ndtr(ff["pre"]))
        # the pre-activation and Phi are the only (real tokens, d_ff)
        # arrays kept
        wide = [a for block in cache.values() for a in block.values()
                if isinstance(a, np.ndarray) and a.shape == (real.sum(), 16)]
        assert len(wide) == 2


def test_forward_validation():
    model = small_model(vocab_size=12)
    ids, lengths, _ = small_batch()
    with pytest.raises(ValueError, match="out of range"):
        forward_batch(model, ids + 12, lengths)
    long_ids = np.zeros((1, 17), dtype=int)
    with pytest.raises(ValueError, match="exceeds max"):
        forward_batch(model, long_ids, np.array([17]))


def test_train_mode_dropout_reproducible():
    model = small_model(dropout=0.2)
    ids, lengths, _ = small_batch()
    h1, _ = forward_batch(model, ids, lengths, rng=stream(0, "d"))
    h2, _ = forward_batch(model, ids, lengths, rng=stream(0, "d"))
    h3, _ = forward_batch(model, ids, lengths, rng=stream(1, "d"))
    assert np.array_equal(h1, h2)
    assert not np.array_equal(h1, h3)


def test_padding_content_is_invisible():
    # changing token ids under the padding must not move real positions,
    # in either mode and whichever rows are read
    model = small_model(n_layers=2, dropout=0.2)
    ids, lengths, real = small_batch()
    ids_b = np.where(real, ids, 7)
    for train in (False, True):
        for read in (None, ([0, 1, 1], [4, 0, 3])):
            ha, _ = forward_batch(model, ids, lengths, read=read,
                                  rng=stream(2, "pad") if train else None)
            hb, _ = forward_batch(model, ids_b, lengths, read=read,
                                  rng=stream(2, "pad") if train else None)
            assert np.array_equal(ha, hb)


# ---------------------------------------------------------------------------
# row-selective forward: packed real tokens, last layer at the read rows


def reference_forward(model, ids, lengths, rng=None):
    """Every block at every padded (B, T) position; masks drawn in the
    encoder's order (embedding, then attention and feed-forward per
    layer) when rng is given."""
    cfg, p = model.config, model.params
    B, T = ids.shape
    d, H = cfg.d_model, cfg.n_heads

    def drop(x):
        m = None if rng is None else dropout_mask((B, T, d), cfg.dropout, rng)
        return x if m is None else x * m

    def norm(x, prefix):
        xc = x - x.mean(axis=-1, keepdims=True)
        var = (xc * xc).mean(axis=-1, keepdims=True)
        return xc / np.sqrt(var + LN_EPS) * p[prefix + "g"] + p[prefix + "b"]

    def heads(x):
        return x.reshape(B, T, H, d // H).transpose(0, 2, 1, 3)

    real = np.arange(T)[None, :] < lengths[:, None]
    bias = np.where(real, 0.0, -1e30)[:, None, None, :]
    x = drop(p["tok_emb"][ids] + p["pos_emb"][:T])
    for i in range(cfg.n_layers):
        L = f"L{i}_"
        h = norm(x, L + "ln1_")
        q, k, v = (heads(h @ p[L + "w" + n] + p[L + "b" + n]) for n in "qkv")
        s = q @ k.swapaxes(-1, -2) * (1.0 / np.sqrt(d // H)) + bias
        a = np.exp(s - s.max(axis=-1, keepdims=True))
        a /= a.sum(axis=-1, keepdims=True)
        ctx = (a @ v).transpose(0, 2, 1, 3).reshape(B, T, d)
        x = x + drop(ctx @ p[L + "wo"] + p[L + "bo"])
        pre = norm(x, L + "ln2_") @ p[L + "w1"] + p[L + "b1"]
        x = x + drop((pre * ndtr(pre)) @ p[L + "w2"] + p[L + "b2"])
    return norm(x, "final_ln_")


def read_rows(kind, real):
    """A text-level (position 0), token-level (None: every real token) or
    sparse masked-token style read index."""
    if kind == "text":
        return np.arange(real.shape[0]), np.zeros(real.shape[0], dtype=int)
    if kind == "token":
        return None
    pick = real & (np.random.default_rng(9).random(real.shape) < 0.3)
    return np.nonzero(pick)


@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("kind", ["text", "token", "sparse"])
def test_read_rows_match_full_forward_and_keep_rng_stream(kind, train):
    model = small_model(n_layers=2, dropout=0.2, seed=3)
    for name, value in model.params.items():    # move biases and gains off init
        value += np.random.default_rng(len(name)).normal(0.0, 0.1, value.shape)
    ids, lengths, real = small_batch()
    read = read_rows(kind, real)
    rng, ref_rng = stream(6, "rows"), stream(6, "rows")
    hidden, _ = forward_batch(model, ids, lengths,
                              rng=rng if train else None, read=read)
    ref = reference_forward(model, ids, lengths, ref_rng if train else None)
    at = np.nonzero(real) if read is None else read
    # the returned rows are the read positions, in row-major order
    assert hidden.shape == (at[0].size, 8)
    err = np.abs(hidden - ref[at]).max() / np.abs(ref[at]).max()
    assert err <= 1e-15, f"read rows differ from the full forward by {err:.1e}"
    # the masks are drawn at full (B, T, d) shape, so the stream moves as
    # if every row were computed
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_read_index_must_name_real_positions():
    model = small_model()
    ids, lengths, _ = small_batch()
    with pytest.raises(ValueError, match="padding"):
        forward_batch(model, ids, lengths, read=([1], [5]))


@pytest.mark.parametrize("read", [([1, 0], [0, 2]), ([0, 0], [3, 1]),
                                  ([0, 1, 1], [2, 1, 1])],
                         ids=["rows-out-of-order", "cols-out-of-order",
                              "repeated"])
def test_read_index_must_be_unique_and_row_major(read):
    # the returned rows follow the read index, so it may not be reordered
    # or de-duplicated behind the caller's back
    model = small_model()
    ids, lengths, _ = small_batch()
    with pytest.raises(ValueError, match="row-major"):
        forward_batch(model, ids, lengths, read=read)


def test_last_layer_caches_only_read_rows():
    # earlier layers keep packed real tokens; the last layer keeps its
    # queries, attention output and feed-forward at the M read rows only
    model = small_model(n_layers=3, d_ff=16)
    ids, lengths, real = small_batch()
    read = read_rows("sparse", real)
    N, M = int(real.sum()), read[0].size
    assert 0 < M < N
    _, tape = forward_batch(model, ids, lengths, want_tape=True, read=read)
    for i, cache in enumerate(tape.layers):
        rows = M if i == len(tape.layers) - 1 else N
        assert cache["ff"]["pre"].shape == cache["ff"]["cdf"].shape == (rows, 16)
        assert cache["ln2"]["xhat"].shape == (rows, 8)
        assert cache["att"]["hq"].shape == cache["att"]["ctx"].shape == (rows, 8)
        # layer norm 1, K and V still cover every real token
        assert cache["ln1"]["xhat"].shape == cache["att"]["h"].shape == (N, 8)
    assert tape.final["xhat"].shape == (M, 8)
    # the last layer's attention rows: one query slot per read row of the
    # fullest sequence, not one per position
    assert tape.layers[-1]["att"]["attn"].shape[2] == np.bincount(read[0]).max()


@pytest.mark.parametrize("kind", ["sparse", "all-listed", "none"])
def test_layers_reading_every_row_query_h_without_a_copy(kind):
    # a layer whose queries are every real token indexes h with
    # slice(None), a view: no (N, d) copy per layer
    model = small_model(n_layers=3)
    ids, lengths, real = small_batch()
    read = {"sparse": read_rows("sparse", real), "all-listed": np.nonzero(real),
            "none": None}[kind]
    _, tape = forward_batch(model, ids, lengths, want_tape=True, read=read)
    last = len(tape.layers) - 1
    for i, cache in enumerate(tape.layers):
        att = cache["att"]
        every = i < last or kind != "sparse"
        assert np.shares_memory(att["hq"], att["h"]) == every, i


def test_lone_sequence_matches_its_padded_row():
    model = small_model()
    rng = np.random.default_rng(0)
    seqs = [rng.integers(4, 12, size=n) for n in (3, 6)]
    T = 6
    ids = np.zeros((2, T), dtype=int)
    for r, s in enumerate(seqs):
        ids[r, : s.size] = s
    batch, _ = forward_batch(model, ids, np.array([3, 6]))
    assert batch.shape == (9, 8)                # real tokens only, packed
    for s, rows in zip(seqs, (batch[:3], batch[3:])):
        lone, _ = forward_batch(model, s[None, :], np.array([s.size]))
        assert lone.shape == (s.size, 8)
        assert np.allclose(lone, rows, atol=1e-12)


# ---------------------------------------------------------------------------
# backward pass


def projection_loss(ids, lengths, W, *, train=False, drop_seed=0):
    """Scalar loss: fixed random projection of all real-position outputs."""
    def loss(model):
        rng = stream(drop_seed, "fd-dropout") if train else None
        hidden, _ = forward_batch(model, ids, lengths, rng=rng)
        return float((hidden * W).sum())
    return loss


def projection_grads(model, ids, lengths, W, *, train=False, drop_seed=0):
    rng = stream(drop_seed, "fd-dropout") if train else None
    hidden, tape = forward_batch(model, ids, lengths, rng=rng, want_tape=True)
    return backward_batch(model, tape, np.broadcast_to(W, hidden.shape))


def test_gradients_match_finite_differences_eval_mode():
    model = small_model(n_layers=2)
    ids, lengths, _ = small_batch()
    W = np.random.default_rng(5).normal(size=(8,))
    loss = projection_loss(ids, lengths, W)
    grads = projection_grads(model, ids, lengths, W)
    worst = fd_max_rel_err(model, loss, grads, sorted(model.params))
    assert worst <= FD_TOL, f"max FD relative error {worst:.2e}"


def test_gradients_match_finite_differences_with_dropout():
    model = small_model(dropout=0.1)
    ids, lengths, _ = small_batch()
    W = np.random.default_rng(6).normal(size=(8,))
    loss = projection_loss(ids, lengths, W, train=True, drop_seed=3)
    grads = projection_grads(model, ids, lengths, W, train=True,
                             drop_seed=3)
    worst = fd_max_rel_err(model, loss, grads, sorted(model.params))
    assert worst <= FD_TOL, f"max FD relative error {worst:.2e}"


def test_key_bias_and_mlm_bias_gradients_are_structural_zeros():
    # softmax rows are shift invariant, so the key bias cannot move the
    # loss; its analytical gradient only carries float cancellation noise
    model = small_model(n_layers=2)
    ids, lengths, _ = small_batch()
    W = np.random.default_rng(7).normal(size=(8,))
    grads = projection_grads(model, ids, lengths, W)
    other_scale = max(np.abs(grads["L0_wk"]).max(), 1.0)
    for name in ("L0_bk", "L1_bk"):
        assert np.abs(grads[name]).max() <= 1e-10 * other_scale
    assert np.array_equal(grads["mlm_bias"], np.zeros_like(grads["mlm_bias"]))
    # and the loss itself is invariant under a key-bias shift
    loss = projection_loss(ids, lengths, W)
    base = loss(model)
    model.params["L0_bk"] += 0.37
    assert abs(loss(model) - base) <= 1e-9 * max(abs(base), 1.0)
    model.params["L0_bk"] -= 0.37


def test_tape_is_single_use():
    model = small_model()
    ids, lengths, real = small_batch()
    hidden, tape = forward_batch(model, ids, lengths, want_tape=True)
    # the upstream gradient has one row per returned row, not the grid
    with pytest.raises(ValueError, match="upstream gradient shape"):
        backward_batch(model, tape, np.zeros(real.shape + (8,)))
    backward_batch(model, tape, np.zeros_like(hidden))
    with pytest.raises(RuntimeError, match="consumed"):
        backward_batch(model, tape, np.zeros_like(hidden))


def test_backward_consumes_the_tape_as_it_goes():
    model = small_model(n_layers=2)
    ids, lengths, _ = small_batch()
    hidden, tape = forward_batch(model, ids, lengths, want_tape=True)
    backward_batch(model, tape, np.ones_like(hidden))
    # no layer or final-norm cache outlives the backward pass
    assert tape.layers == [] and tape.final == {}
    with pytest.raises(RuntimeError, match="gradient tape already consumed"):
        backward_batch(model, tape, np.ones_like(hidden))


def test_untaped_forward_keeps_no_layer_caches():
    # a probe-sized LID batch (64 x 30 tokens, first position read) at the
    # default width: a forward that kept every block's caches until the
    # next block replaced them peaked at 23.4 MiB traced, one that drops
    # them as soon as they are spent at 16.0 MiB
    model = EncoderModel.init(EncoderConfig(vocab_size=300), seed=0)
    ids = np.random.default_rng(0).integers(N_SPECIAL, 300, size=(64, 30))
    lengths = np.full(64, 30)
    read = (np.arange(64), np.zeros(64, dtype=np.int64))
    tracemalloc.start()
    try:
        forward_batch(model, ids, lengths, read=read)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 19 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


# ---------------------------------------------------------------------------
# dropout site statistics


def test_dropout_mask_expectation():
    from langlab.encoder import dropout_mask as _dropout_mask

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
    # the step reads the last layer at the masked rows only: a few of
    # them, several, or the one position forced when none is drawn
    ids, lengths, _ = small_batch()
    for n_layers, mask_rate, least_drawn in ((1, 0.3, 1), (2, 0.5, 3),
                                             (2, 1e-12, 0)):
        model = small_model(n_layers=n_layers)
        drawn = ((stream(4, "fd-mlm").random(ids.shape) < mask_rate)
                 & (ids >= N_SPECIAL)).sum()
        assert drawn >= least_drawn if least_drawn else drawn == 0

        def loss_and_grads(m):
            return mlm_step_loss(m, ids, lengths, mask_rate, stream(4, "fd-mlm"))

        _, grads = loss_and_grads(model)
        worst = fd_max_rel_err(model, lambda m: loss_and_grads(m)[0], grads,
                               sorted(model.params))
        assert worst <= FD_TOL, f"{n_layers} layers, mask rate {mask_rate}: " \
                                f"max FD relative error {worst:.2e}"


def test_mlm_step_runs_without_dropout():
    # pretraining runs the encoder in eval mode: the configured dropout
    # neither changes the loss and gradients nor draws from the rng
    plain = small_model(dropout=0.0)
    dropped = EncoderModel(config=replace(plain.config, dropout=0.5),
                           params={k: v.copy() for k, v in plain.params.items()})
    ids, lengths, _ = small_batch()
    rng_a, rng_b = stream(5, "mlm-drop"), stream(5, "mlm-drop")
    loss_a, grads_a = mlm_step_loss(plain, ids, lengths, 0.3, rng_a)
    loss_b, grads_b = mlm_step_loss(dropped, ids, lengths, 0.3, rng_b)
    assert loss_a == loss_b
    assert grads_a.keys() == grads_b.keys()
    assert all(np.array_equal(grads_a[k], grads_b[k]) for k in grads_a)
    assert rng_a.random() == rng_b.random()


def test_mlm_forces_one_mask():
    model = small_model()
    ids, lengths, _ = small_batch()
    loss, _ = mlm_step_loss(model, ids, lengths, 1e-12, stream(0, "force"))
    assert np.isfinite(loss) and loss > 0.0


def _masked_accuracy(model, seqs, mask_rate, seed):
    """Fraction of masked positions of equal-length sequences that the
    tied output projection predicts correctly."""
    ids = np.stack(seqs)
    mask = (ids >= N_SPECIAL) & (stream(seed, "mlm-eval").random(ids.shape)
                                 < mask_rate)
    read = np.nonzero(mask)
    h, _ = forward_batch(model, np.where(mask, MASK_ID, ids),
                         np.full(len(seqs), ids.shape[1]), read=read)
    logits = h @ model.params["tok_emb"].T + model.params["mlm_bias"]
    return float((logits.argmax(axis=-1) == ids[read]).mean())


def test_mlm_memorizes_tiny_corpus():
    rng = np.random.default_rng(0)
    seqs = [rng.integers(4, 12, size=8) for _ in range(6)]
    model = small_model(d_model=32, n_heads=4, d_ff=64)
    corpus = [LabeledExample(TokenSequence(s)) for s in seqs]
    trained, losses = mlm_pretrain(model, corpus, mask_rate=0.2, steps=400,
                                   batch_size=6, lr=3e-3, seed=0)
    assert len(losses) == 400
    assert losses[-1] < 0.5 * losses[0]
    acc = _masked_accuracy(trained, seqs, mask_rate=0.2, seed=1)
    assert acc >= 0.9, f"masked accuracy {acc:.3f}"
    # the input model is left untouched
    assert np.array_equal(model.params["tok_emb"],
                          small_model(d_model=32, n_heads=4, d_ff=64)
                          .params["tok_emb"])


def test_mlm_pretrain_validation():
    model = small_model()
    kw = dict(mask_rate=0.15, steps=1, batch_size=4, lr=1e-3, seed=0)
    corpus = [LabeledExample(TokenSequence([5, 6]))]
    with pytest.raises(ValueError, match="mask_rate"):
        mlm_pretrain(model, corpus, **{**kw, "mask_rate": 0.0})
    with pytest.raises(ValueError, match="empty"):
        mlm_pretrain(model, [], **kw)
    same, losses = mlm_pretrain(model, corpus, **{**kw, "steps": 0})
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
