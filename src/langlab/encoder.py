"""A small trainable transformer encoder with hand-written backprop.

Stands in for the pre-trained multilingual encoder: masked-token
pretraining on the synthetic corpus gives it language clusters before any
fine-tuning.  Pre-layer-norm residual blocks, learned position
embeddings, exact GELU x * Phi(x) with the normal CDF Phi computed once
by ``scipy.special.ndtr`` and cached on the tape, additive key masking.
Everything runs in float64; forward passes record a GradientTape from
which backward_batch produces exact analytical parameter gradients.

Parameter names: ``tok_emb``, ``pos_emb``, ``mlm_bias``,
``final_ln_{g,b}`` and per layer i ``L{i}_ln1_{g,b}``,
``L{i}_{wq,bq,wk,bk,wv,bv,wo,bo}``, ``L{i}_ln2_{g,b}``,
``L{i}_{w1,b1,w2,b2}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from langlab.optim import AdamState, adam_step
from langlab.rng import stream
from langlab.vocab import MASK_ID, N_SPECIAL, PAD_ID

LN_EPS = 1e-6
KEY_MASK_BIAS = -1e30
INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@dataclass
class EncoderConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    max_len: int = 128
    dropout: float = 0.1

    def __post_init__(self):
        if min(self.vocab_size, self.d_model, self.n_layers,
               self.n_heads, self.d_ff, self.max_len) < 1:
            raise ValueError("all encoder dimensions must be >= 1")
        if self.d_model % self.n_heads:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0,1), got {self.dropout}")

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size, "d_model": self.d_model,
            "n_layers": self.n_layers, "n_heads": self.n_heads,
            "d_ff": self.d_ff, "max_len": self.max_len,
            "dropout": self.dropout,
        }


@dataclass
class EncoderModel:
    config: EncoderConfig
    params: dict[str, np.ndarray]

    @classmethod
    def init(cls, config: EncoderConfig, seed: int = 0,
             init_std: float = 0.02) -> "EncoderModel":
        rng = stream(seed, "encoder-init")
        d, ff, v = config.d_model, config.d_ff, config.vocab_size
        p: dict[str, np.ndarray] = {}

        def w(name, *shape):
            p[name] = rng.normal(0.0, init_std, size=shape)

        def zeros(name, *shape):
            p[name] = np.zeros(shape)

        def ones(name, *shape):
            p[name] = np.ones(shape)

        w("tok_emb", v, d)
        w("pos_emb", config.max_len, d)
        zeros("mlm_bias", v)
        for i in range(config.n_layers):
            L = f"L{i}_"
            ones(L + "ln1_g", d); zeros(L + "ln1_b", d)
            for nm in ("wq", "wk", "wv", "wo"):
                w(L + nm, d, d)
            for nm in ("bq", "bk", "bv", "bo"):
                zeros(L + nm, d)
            ones(L + "ln2_g", d); zeros(L + "ln2_b", d)
            w(L + "w1", d, ff); zeros(L + "b1", ff)
            w(L + "w2", ff, d); zeros(L + "b2", d)
        ones("final_ln_g", d); zeros("final_ln_b", d)
        return cls(config=config, params=p)

    def copy(self) -> "EncoderModel":
        return EncoderModel(self.config,
                            {k: v.copy() for k, v in self.params.items()})


@dataclass
class GradientTape:
    """Forward intermediates for one minibatch; consumed once by backward.

    ``layers[i]`` holds layer i's block caches under ``ln1``, ``att``,
    ``ln2`` and ``ff``; ``final`` is the final layer norm's cache."""

    ids: np.ndarray
    lengths: np.ndarray
    key_bias: np.ndarray
    emb_drop_mask: np.ndarray | None
    layers: list = field(default_factory=list)
    final: dict = field(default_factory=dict)
    used: bool = False


def _layer_norm(x, p, prefix):
    """Returns (g * xhat + b, cache); means are sums times 1/d."""
    inv_d = 1.0 / x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) * inv_d
    var = (xhat * xhat).sum(axis=-1, keepdims=True) * inv_d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    out = xhat * p[prefix + "g"]
    out += p[prefix + "b"]
    return out, {"xhat": xhat, "inv": inv}


def _layer_norm_backward(dy, p, prefix, cache, grads):
    xhat, inv = cache["xhat"], cache["inv"]
    inv_d = 1.0 / xhat.shape[-1]
    tmp = dy * xhat
    grads[prefix + "g"] = tmp.reshape(-1, xhat.shape[-1]).sum(axis=0)
    grads[prefix + "b"] = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    dx = dy * p[prefix + "g"]
    np.multiply(dx, xhat, out=tmp)
    m2 = tmp.sum(axis=-1, keepdims=True) * inv_d
    dx -= dx.sum(axis=-1, keepdims=True) * inv_d
    dx -= np.multiply(xhat, m2, out=tmp)
    dx *= inv
    return dx


def _dropout_mask(shape, rate, rng):
    return (rng.random(shape) >= rate) / (1.0 - rate)


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _attention(h, p, L, key_bias, n_heads, mask):
    """Self-attention over the normed input h; returns (output, cache)."""
    q = _split_heads(h @ p[L + "wq"] + p[L + "bq"], n_heads)
    k = _split_heads(h @ p[L + "wk"] + p[L + "bk"], n_heads)
    v = _split_heads(h @ p[L + "wv"] + p[L + "bv"], n_heads)
    attn = q @ k.swapaxes(-1, -2)
    attn *= 1.0 / np.sqrt(q.shape[-1])
    attn += key_bias
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    ctx = _merge_heads(attn @ v)
    out = ctx @ p[L + "wo"] + p[L + "bo"]
    if mask is not None:
        out *= mask
    return out, {"h": h, "q": q, "k": k, "v": v, "attn": attn, "ctx": ctx,
                 "mask": mask}


def _attention_backward(dy, p, L, c, grads):
    dy = dy if c["mask"] is None else dy * c["mask"]
    B, T, d = dy.shape
    dy2d = dy.reshape(-1, d)
    grads[L + "wo"] = c["ctx"].reshape(-1, d).T @ dy2d
    grads[L + "bo"] = dy2d.sum(axis=0)
    attn, q, k, v = c["attn"], c["q"], c["k"], c["v"]
    scale = 1.0 / np.sqrt(q.shape[-1])
    d_ctx = _split_heads(dy @ p[L + "wo"].T, q.shape[1])
    d_scores = d_ctx @ v.swapaxes(-1, -2)
    d_v = attn.swapaxes(-1, -2) @ d_ctx
    d_scores -= (d_scores * attn).sum(axis=-1, keepdims=True)
    d_scores *= attn
    d_q = d_scores @ k * scale
    d_k = d_scores.swapaxes(-1, -2) @ q * scale
    h2d = c["h"].reshape(-1, d)
    dh = None
    for nm, d_proj in (("q", d_q), ("k", d_k), ("v", d_v)):
        d_proj = _merge_heads(d_proj).reshape(-1, d)
        grads[L + "w" + nm] = h2d.T @ d_proj
        grads[L + "b" + nm] = d_proj.sum(axis=0)
        part = d_proj @ p[L + "w" + nm].T
        dh = part if dh is None else dh + part
    return dh.reshape(B, T, d)


def _feed_forward(h, p, L, mask):
    """GELU feed-forward; the cache keeps Phi(pre), not the activation."""
    pre = h @ p[L + "w1"] + p[L + "b1"]
    cdf = ndtr(pre)
    out = (pre * cdf) @ p[L + "w2"] + p[L + "b2"]
    if mask is not None:
        out *= mask
    return out, {"h": h, "pre": pre, "cdf": cdf, "mask": mask}


def _feed_forward_backward(dy, p, L, c, grads):
    dy = dy if c["mask"] is None else dy * c["mask"]
    pre, cdf = c["pre"], c["cdf"]
    d, d_ff = p[L + "w1"].shape
    dy2d = dy.reshape(-1, d)
    grads[L + "w2"] = (pre * cdf).reshape(-1, d_ff).T @ dy2d
    grads[L + "b2"] = dy2d.sum(axis=0)
    # GELU'(x) = Phi(x) + x * phi(x), built in place
    slope = np.multiply(pre, pre)
    slope *= -0.5
    np.exp(slope, out=slope)
    slope *= INV_SQRT_2PI
    slope *= pre
    slope += cdf
    d_pre = dy @ p[L + "w2"].T
    d_pre *= slope
    dpre2d = d_pre.reshape(-1, d_ff)
    grads[L + "w1"] = c["h"].reshape(-1, d).T @ dpre2d
    grads[L + "b1"] = dpre2d.sum(axis=0)
    return d_pre @ p[L + "w1"].T


def forward_batch(model: EncoderModel, ids: np.ndarray, lengths: np.ndarray,
                  *, train: bool = False, rng=None, want_tape: bool = False):
    """Run the encoder over a padded id batch.

    ids: (B, T) int array padded with PAD; lengths: (B,) true lengths.
    Returns (hidden (B, T, d_model), tape or None).  Dropout is active
    only when train=True, drawing masks from rng.
    """
    cfg, p = model.config, model.params
    ids = np.asarray(ids)
    lengths = np.asarray(lengths)
    B, T = ids.shape
    if T > cfg.max_len:
        raise ValueError(f"sequence length {T} exceeds max {cfg.max_len}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError("token id out of range")
    drop = train and cfg.dropout > 0.0
    if drop and rng is None:
        raise ValueError("training-mode forward needs an rng for dropout")

    def mask():
        return _dropout_mask((B, T, cfg.d_model), cfg.dropout, rng) if drop else None

    # additive bias over keys: 0 for real positions, -1e30 for padding
    cols = np.arange(T)
    key_bias = np.where(cols[None, :] < lengths[:, None], 0.0, KEY_MASK_BIAS)
    key_bias = key_bias[:, None, None, :]

    x = p["tok_emb"][ids] + p["pos_emb"][:T]
    emb_mask = mask()
    if emb_mask is not None:
        x *= emb_mask

    tape = GradientTape(ids=ids, lengths=lengths, key_bias=key_bias,
                        emb_drop_mask=emb_mask) if want_tape else None
    for i in range(cfg.n_layers):
        L = f"L{i}_"
        h, ln1 = _layer_norm(x, p, L + "ln1_")
        x_att, att = _attention(h, p, L, key_bias, cfg.n_heads, mask())
        x_att += x                                      # residual
        h, ln2 = _layer_norm(x_att, p, L + "ln2_")
        x, ff = _feed_forward(h, p, L, mask())
        x += x_att                                      # residual
        if want_tape:
            tape.layers.append({"ln1": ln1, "att": att, "ln2": ln2, "ff": ff})

    hidden, fin = _layer_norm(x, p, "final_ln_")
    if want_tape:
        tape.final = fin
    return hidden, tape


def backward_batch(model: EncoderModel, tape: GradientTape,
                   d_hidden: np.ndarray) -> dict[str, np.ndarray]:
    """Exact parameter gradients for the forward pass recorded in tape.

    Upstream gradient at padded positions is zeroed (padding is not part
    of the sequence).  The tape is single-use.
    """
    if tape.used:
        raise RuntimeError("gradient tape already consumed")
    tape.used = True

    p = model.params
    T = tape.ids.shape[1]
    real = (np.arange(T)[None, :] < tape.lengths[:, None])[..., None]
    grads: dict[str, np.ndarray] = {}
    dx = _layer_norm_backward(d_hidden * real, p, "final_ln_", tape.final, grads)
    for i in reversed(range(model.config.n_layers)):
        L, t = f"L{i}_", tape.layers[i]
        d_x_att = _feed_forward_backward(dx, p, L, t["ff"], grads)
        d_x_att = _layer_norm_backward(d_x_att, p, L + "ln2_", t["ln2"], grads)
        d_x_att += dx                                   # residual
        dx = _attention_backward(d_x_att, p, L, t["att"], grads)
        dx = _layer_norm_backward(dx, p, L + "ln1_", t["ln1"], grads)
        dx += d_x_att                                   # residual

    if tape.emb_drop_mask is not None:
        dx *= tape.emb_drop_mask
    grads["tok_emb"] = np.zeros_like(p["tok_emb"])
    np.add.at(grads["tok_emb"], tape.ids, dx)
    grads["pos_emb"] = np.zeros_like(p["pos_emb"])
    grads["pos_emb"][:T] = dx.sum(axis=0)
    grads["mlm_bias"] = np.zeros_like(p["mlm_bias"])
    return {name: grads[name] for name in p}


# ----------------------------------------------------------------------------
# Single-sequence evaluation interface
# ----------------------------------------------------------------------------

def _sequence_ids(sequence) -> np.ndarray:
    tokens = getattr(sequence, "tokens", sequence)
    return np.asarray(tokens, dtype=np.int64)


def encode(model: EncoderModel, sequence) -> np.ndarray:
    """Final-layer embedding per token, eval mode (deterministic)."""
    ids = _sequence_ids(sequence)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("encode expects a nonempty token sequence")
    hidden, _ = forward_batch(model, ids[None, :], np.array([ids.size]))
    return hidden[0]


def text_embedding(model: EncoderModel, sequence) -> np.ndarray:
    """Embedding of position 0, used as the whole-text representation."""
    return encode(model, sequence)[0]


def encode_batch(model: EncoderModel, ids, lengths) -> np.ndarray:
    """Eval-mode batch encode; returns (B, T, d_model)."""
    hidden, _ = forward_batch(model, ids, lengths)
    return hidden


# ----------------------------------------------------------------------------
# Masked-token pretraining
# ----------------------------------------------------------------------------

def _pad_id_batch(seqs: list[np.ndarray]):
    lengths = np.array([s.size for s in seqs])
    T = int(lengths.max())
    ids = np.full((len(seqs), T), PAD_ID, dtype=np.int64)
    for r, s in enumerate(seqs):
        ids[r, : s.size] = s
    return ids, lengths


def mlm_step_loss(model, ids, lengths, mask_rate, rng):
    """One masked-prediction forward/backward; returns (loss, grads).

    Eligible positions (non-special ids) are replaced by MASK with
    probability mask_rate; if none get drawn, one eligible position is
    forced so every step has a defined loss.
    """
    p = model.params
    eligible = ids >= N_SPECIAL
    mask = eligible & (rng.random(ids.shape) < mask_rate)
    if not mask.any():
        rows, colz = np.nonzero(eligible)
        pick = rng.integers(rows.size)
        mask[rows[pick], colz[pick]] = True

    masked_ids = np.where(mask, MASK_ID, ids)
    hidden, tape = forward_batch(model, masked_ids, lengths, want_tape=True)

    rows, colz = np.nonzero(mask)
    h = hidden[rows, colz]                      # (M, d)
    gold = ids[rows, colz]                      # (M,)
    logits = h @ p["tok_emb"].T + p["mlm_bias"]
    logits -= logits.max(axis=-1, keepdims=True)
    e = np.exp(logits)
    probs = e / e.sum(axis=-1, keepdims=True)
    n = gold.size
    loss = -np.log(np.maximum(probs[np.arange(n), gold], 1e-300)).mean()

    d_logits = probs.copy()
    d_logits[np.arange(n), gold] -= 1.0
    d_logits /= n
    d_hidden = np.zeros_like(hidden)
    d_hidden[rows, colz] = d_logits @ p["tok_emb"]
    grads = backward_batch(model, tape, d_hidden)
    grads["tok_emb"] += d_logits.T @ h          # tied output projection
    grads["mlm_bias"] += d_logits.sum(axis=0)
    return loss, grads


def mlm_masked_accuracy(model, sequences, mask_rate, seed=0):
    """Fraction of masked positions predicted correctly (eval check)."""
    rng = stream(seed, "mlm-eval")
    p = model.params
    seqs = [_sequence_ids(s) for s in sequences]
    ids, lengths = _pad_id_batch(seqs)
    eligible = (ids >= N_SPECIAL)
    mask = eligible & (rng.random(ids.shape) < mask_rate)
    if not mask.any():
        return float("nan")
    masked_ids = np.where(mask, MASK_ID, ids)
    hidden, _ = forward_batch(model, masked_ids, lengths)
    rows, colz = np.nonzero(mask)
    logits = hidden[rows, colz] @ p["tok_emb"].T + p["mlm_bias"]
    return float((logits.argmax(axis=-1) == ids[rows, colz]).mean())


def mlm_pretrain(model: EncoderModel, corpus, *, mask_rate: float = 0.15,
                 steps: int = 2000, batch_size: int = 32, lr: float = 1e-3,
                 seed: int = 0) -> tuple[EncoderModel, list[float]]:
    """Masked-token pretraining; returns (trained model, per-step losses).

    Each step samples a batch with replacement, masks a mask_rate
    fraction of non-special tokens, and minimizes cross-entropy of the
    original ids under the tied-weight output projection.
    """
    if not 0.0 < mask_rate < 1.0:
        raise ValueError(f"mask_rate must be in (0,1), got {mask_rate}")
    seqs = [_sequence_ids(getattr(ex, "sequence", ex)) for ex in corpus]
    if not seqs:
        raise ValueError("empty pretraining corpus")
    if steps == 0:
        return model, []

    model = model.copy()
    state = AdamState()
    losses: list[float] = []
    batch_rng = stream(seed, "mlm-batch")
    mask_rng = stream(seed, "mlm-mask")
    for step in range(steps):
        pick = batch_rng.integers(len(seqs), size=min(batch_size, len(seqs)))
        ids, lengths = _pad_id_batch([seqs[i] for i in pick])
        loss, grads = mlm_step_loss(model, ids, lengths, mask_rate, mask_rng)
        if not np.isfinite(loss):
            raise FloatingPointError(
                f"masked-prediction loss became non-finite at step {step}"
            )
        adam_step(model.params, grads, state, lr)
        losses.append(float(loss))
    return model, losses
