"""A small trainable transformer encoder with hand-written backprop.

Stands in for the pre-trained multilingual encoder: masked-token
pretraining on the synthetic corpus gives it language clusters before any
fine-tuning.  Pre-layer-norm residual blocks, learned position
embeddings, exact GELU x * Phi(x) with the normal CDF Phi computed once
by ``scipy.special.ndtr`` and cached on the tape, additive key masking.
Everything runs in float64; forward passes record a GradientTape from
which backward_batch produces exact analytical parameter gradients.

Only rows whose output is read are computed.  forward_batch takes a
read index, the (rows, cols) of the positions whose final hidden state
the caller reads, each once and in increasing row-major order (None:
every real token).  Every layer but the last runs layer norm, the
projections and the feed-forward over the real tokens packed into
(N, d) rows; Q, K and V are scattered into a zeroed (B, T, d) grid only
for the (B, H, T, T) attention core, so padding is never computed.  The
last layer computes layer norm 1, K and V for every real token, but Q,
the attention rows, the output projection, layer norm 2, the
feed-forward and the final layer norm only at the read rows.
forward_batch returns those M rows as an (M, d) array in the order of
the read index, and backward_batch takes their (M, d) gradient.
Dropout masks (drawn only when an rng is given) are drawn at full
(B, T, d) shape from that stream and then gathered, so the stream moves
as if every row were computed.

A pass holds only what a later step reads.  Without a tape, each
block's layer-norm-1 and attention caches are dropped as soon as the
attention returns, and its layer-norm-2 and feed-forward caches after
the block, so no attention grid outlives its layer.  backward_batch
consumes the tape as it goes: the final layer norm's cache and each
layer's caches leave it once their gradients are taken, so a training
step's tape is gone before the next forward builds its own.

Parameter names: ``tok_emb``, ``pos_emb``, ``mlm_bias``,
``final_ln_{g,b}`` and per layer i ``L{i}_ln1_{g,b}``,
``L{i}_{wq,bq,wk,bk,wv,bv,wo,bo}``, ``L{i}_ln2_{g,b}``,
``L{i}_{w1,b1,w2,b2}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from langlab.heads import ce_loss_and_dlogits
from langlab.optim import AdamState, adam_step
from langlab.rng import stream
from langlab.vocab import MASK_ID, N_SPECIAL, pad_ids

LN_EPS = 1e-6
KEY_MASK_BIAS = -1e30
INIT_STD = 0.02
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


@dataclass
class EncoderModel:
    config: EncoderConfig
    params: dict[str, np.ndarray]

    @classmethod
    def init(cls, config: EncoderConfig, seed: int = 0) -> "EncoderModel":
        rng = stream(seed, "encoder-init")
        d, ff, v = config.d_model, config.d_ff, config.vocab_size
        p: dict[str, np.ndarray] = {}

        def w(name, *shape):
            p[name] = rng.normal(0.0, INIT_STD, size=shape)

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

    ``real`` places the packed real tokens in the (B, T) grid.
    ``layers[i]`` holds layer i's block caches under ``ln1``, ``att``,
    ``ln2`` and ``ff``; ``final`` is the final layer norm's cache, one
    row per read row.  backward_batch empties ``final`` first and then
    pops the layers from the last down, each cache as its gradients are
    taken; a consumed tape holds no cache and ``used`` is set."""

    ids: np.ndarray
    real: tuple
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
    grads[prefix + "g"] = tmp.sum(axis=0)
    grads[prefix + "b"] = dy.sum(axis=0)
    dx = dy * p[prefix + "g"]
    np.multiply(dx, xhat, out=tmp)
    m2 = tmp.sum(axis=-1, keepdims=True) * inv_d
    dx -= dx.sum(axis=-1, keepdims=True) * inv_d
    dx -= np.multiply(xhat, m2, out=tmp)
    dx *= inv
    return dx


def dropout_mask(shape, rate, rng):
    """Inverted-dropout mask drawn from rng, or None (and no draw) at rate 0."""
    if rate <= 0.0:
        return None
    return (rng.random(shape) >= rate) / (1.0 - rate)


def _grid(x, at, shape, n_heads):
    """Packed rows x scattered into a zeroed (B, S, d) grid at the (rows,
    cols) pair at, split into heads: (B, n_heads, S, d / n_heads)."""
    buf = np.zeros(shape + x.shape[-1:])
    buf[at] = x
    b, s, d = buf.shape
    return buf.reshape(b, s, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _attention(h, p, L, key_at, queries, key_bias, n_heads, mask):
    """Self-attention of the query rows over every real token.

    h is the normed input of every real token, packed, and key_at places
    it in the (B, T) grid of key_bias.  queries = (pos, at, S): the query
    rows' index in h (slice(None), a view, for all of them) and their
    place in a (B, S) grid.  Returns (output at the query rows, cache)."""
    pos, q_at, S = queries
    B, T = key_bias.shape[0], key_bias.shape[-1]
    hq = h[pos]
    q = _grid(hq @ p[L + "wq"] + p[L + "bq"], q_at, (B, S), n_heads)
    k = _grid(h @ p[L + "wk"] + p[L + "bk"], key_at, (B, T), n_heads)
    v = _grid(h @ p[L + "wv"] + p[L + "bv"], key_at, (B, T), n_heads)
    attn = q @ k.swapaxes(-1, -2)
    attn *= 1.0 / np.sqrt(q.shape[-1])
    attn += key_bias
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    ctx = _merge_heads(attn @ v)[q_at]
    out = ctx @ p[L + "wo"] + p[L + "bo"]
    if mask is not None:
        out *= mask
    return out, {"h": h, "hq": hq, "key_at": key_at, "pos": pos, "q_at": q_at,
                 "q": q, "k": k, "v": v, "attn": attn, "ctx": ctx, "mask": mask}


def _attention_backward(dy, p, L, c, grads):
    """Gradient at h, every real token packed, from dy at the query rows."""
    dy = dy if c["mask"] is None else dy * c["mask"]
    grads[L + "wo"] = c["ctx"].T @ dy
    grads[L + "bo"] = dy.sum(axis=0)
    attn, q, k, v = c["attn"], c["q"], c["k"], c["v"]
    scale = 1.0 / np.sqrt(q.shape[-1])
    B, H, S, _ = q.shape
    d_ctx = _grid(dy @ p[L + "wo"].T, c["q_at"], (B, S), H)
    d_scores = d_ctx @ v.swapaxes(-1, -2)
    d_v = attn.swapaxes(-1, -2) @ d_ctx
    d_scores -= (d_scores * attn).sum(axis=-1, keepdims=True)
    d_scores *= attn
    d_q = _merge_heads(d_scores @ k * scale)[c["q_at"]]
    d_k = _merge_heads(d_scores.swapaxes(-1, -2) @ q * scale)[c["key_at"]]
    d_v = _merge_heads(d_v)[c["key_at"]]
    for nm, x, d_proj in (("q", c["hq"], d_q), ("k", c["h"], d_k),
                          ("v", c["h"], d_v)):
        grads[L + "w" + nm] = x.T @ d_proj
        grads[L + "b" + nm] = d_proj.sum(axis=0)
    dh = d_k @ p[L + "wk"].T
    dh[c["pos"]] += d_q @ p[L + "wq"].T
    dh += d_v @ p[L + "wv"].T
    return dh


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
    grads[L + "w2"] = (pre * cdf).T @ dy
    grads[L + "b2"] = dy.sum(axis=0)
    # GELU'(x) = Phi(x) + x * phi(x), built in place
    slope = np.multiply(pre, pre)
    slope *= -0.5
    np.exp(slope, out=slope)
    slope *= INV_SQRT_2PI
    slope *= pre
    slope += cdf
    d_pre = dy @ p[L + "w2"].T
    d_pre *= slope
    grads[L + "w1"] = c["h"].T @ d_pre
    grads[L + "b1"] = d_pre.sum(axis=0)
    return d_pre @ p[L + "w1"].T


def forward_batch(model: EncoderModel, ids: np.ndarray, lengths: np.ndarray,
                  *, rng=None, want_tape: bool = False, read=None):
    """Run the encoder over a padded id batch.

    ids: (B, T) int array padded with PAD; lengths: (B,) true lengths;
    read: a (rows, cols) pair naming the real positions whose final
    hidden state is wanted, each once and in increasing row-major order,
    or None for every real token.  Returns (out, tape or None), out the
    (M, d_model) final hidden states at the M read positions, in read
    order.  Dropout is active exactly when rng is given, drawing masks
    from it.
    """
    cfg, p = model.config, model.params
    ids = np.asarray(ids)
    lengths = np.asarray(lengths)
    B, T = ids.shape
    if T > cfg.max_len:
        raise ValueError(f"sequence length {T} exceeds max {cfg.max_len}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError("token id out of range")

    real = np.arange(T)[None, :] < lengths[:, None]
    at = np.nonzero(real)                       # packed order: row-major
    every = (slice(None), at, T)                # every row queries; a view
    read_at, queries = at, every
    if read is not None:
        read_at = tuple(np.asarray(a) for a in read)
        if (np.diff(read_at[0] * T + read_at[1]) <= 0).any():
            raise ValueError("read index must name each position once, "
                             "in increasing row-major order")
        if not real[read_at].all():
            raise ValueError("read index names a padding position")
        if read_at[0].size < at[0].size:
            read_pos = (np.cumsum(real).reshape(B, T) - 1)[read_at]
            # each read row's query slot within its own sequence
            counts = np.bincount(read_at[0], minlength=B)
            slots = np.arange(read_pos.size) - (np.cumsum(counts) - counts)[read_at[0]]
            queries = (read_pos, (read_at[0], slots), int(counts.max()))

    def mask(rows):
        """A full (B, T, d) mask from the stream, kept at rows only."""
        m = None if rng is None else dropout_mask((B, T, cfg.d_model),
                                                  cfg.dropout, rng)
        return None if m is None else m[rows]

    # additive bias over keys: 0 for real positions, -1e30 for padding
    key_bias = np.where(real, 0.0, KEY_MASK_BIAS)[:, None, None, :]

    x = p["tok_emb"][ids[at]] + p["pos_emb"][at[1]]
    emb_mask = mask(at)
    if emb_mask is not None:
        x *= emb_mask

    tape = GradientTape(ids=ids, real=at,
                        emb_drop_mask=emb_mask) if want_tape else None
    last = cfg.n_layers - 1
    for i in range(cfg.n_layers):
        # the last layer computes its queries and everything after them
        # at the read rows only
        L = f"L{i}_"
        qs, rows = (queries, read_at) if i == last else (every, at)
        caches = {}                         # this layer's tape entry
        h, caches["ln1"] = _layer_norm(x, p, L + "ln1_")
        x_att, caches["att"] = _attention(h, p, L, at, qs, key_bias,
                                          cfg.n_heads, mask(rows))
        if want_tape:
            tape.layers.append(caches)      # ln2 and ff join it below
        else:
            caches.clear()                  # no tape: nothing reads them
        x_att += x[qs[0]]                               # residual
        h, caches["ln2"] = _layer_norm(x_att, p, L + "ln2_")
        x, caches["ff"] = _feed_forward(h, p, L, mask(rows))
        x += x_att                                      # residual

    out, fin = _layer_norm(x, p, "final_ln_")
    if want_tape:
        tape.final = fin
    return out, tape


def backward_batch(model: EncoderModel, tape: GradientTape,
                   d_out: np.ndarray) -> dict[str, np.ndarray]:
    """Exact parameter gradients for the forward pass recorded in tape.

    d_out is the (M, d_model) upstream gradient at the rows forward_batch
    returned, in the same order.  The tape is single-use: its caches are
    released layer by layer as the gradients are taken.
    """
    if tape.used:
        raise RuntimeError("gradient tape already consumed")
    if d_out.shape != tape.final["xhat"].shape:
        raise ValueError(f"upstream gradient shape {d_out.shape} does not "
                         f"match the read rows {tape.final['xhat'].shape}")
    tape.used = True

    p = model.params
    grads: dict[str, np.ndarray] = {}
    dx = _layer_norm_backward(d_out, p, "final_ln_", tape.final, grads)
    tape.final = {}
    # each cache leaves the tape as its gradients are taken
    for i in reversed(range(model.config.n_layers)):
        L, t = f"L{i}_", tape.layers.pop()
        d_x_att = _feed_forward_backward(dx, p, L, t.pop("ff"), grads)
        d_x_att = _layer_norm_backward(d_x_att, p, L + "ln2_", t.pop("ln2"),
                                       grads)
        d_x_att += dx                                   # residual
        pos = t["att"]["pos"]
        dx = _attention_backward(d_x_att, p, L, t.pop("att"), grads)
        dx = _layer_norm_backward(dx, p, L + "ln1_", t.pop("ln1"), grads)
        dx[pos] += d_x_att                              # residual

    if tape.emb_drop_mask is not None:
        dx *= tape.emb_drop_mask
    grads["tok_emb"] = np.zeros_like(p["tok_emb"])
    np.add.at(grads["tok_emb"], tape.ids[tape.real], dx)
    B, T = tape.ids.shape
    d_grid = np.zeros((B, T, dx.shape[-1]))
    d_grid[tape.real] = dx
    grads["pos_emb"] = np.zeros_like(p["pos_emb"])
    grads["pos_emb"][:T] = d_grid.sum(axis=0)
    grads["mlm_bias"] = np.zeros_like(p["mlm_bias"])
    return {name: grads[name] for name in p}


# ----------------------------------------------------------------------------
# Masked-token pretraining
# ----------------------------------------------------------------------------

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
    read = np.nonzero(mask)
    h, tape = forward_batch(model, masked_ids, lengths, want_tape=True,
                            read=read)
    loss, d_logits = ce_loss_and_dlogits(h @ p["tok_emb"].T + p["mlm_bias"],
                                         ids[read])
    grads = backward_batch(model, tape, d_logits @ p["tok_emb"])
    grads["tok_emb"] += d_logits.T @ h          # tied output projection
    grads["mlm_bias"] += d_logits.sum(axis=0)
    return loss, grads


def mlm_pretrain(model: EncoderModel, corpus, *, mask_rate: float,
                 steps: int, batch_size: int, lr: float,
                 seed: int) -> tuple[EncoderModel, list[float]]:
    """Masked-token pretraining; returns (trained model, per-step losses).

    Each step samples a batch of the corpus's LabeledExamples with
    replacement, masks a mask_rate fraction of non-special tokens, and
    minimizes cross-entropy of the original ids under the tied-weight
    output projection.  The forward pass gets no rng, so config.dropout
    does not apply here; this is kept on purpose, since turning it on
    would move every pretrained encoder and every result built on one.
    """
    if not 0.0 < mask_rate < 1.0:
        raise ValueError(f"mask_rate must be in (0,1), got {mask_rate}")
    if not corpus:
        raise ValueError("empty pretraining corpus")
    if steps == 0:
        return model, []

    model = model.copy()
    state = AdamState()
    losses: list[float] = []
    batch_rng = stream(seed, "mlm-batch")
    mask_rng = stream(seed, "mlm-mask")
    for step in range(steps):
        pick = batch_rng.integers(len(corpus), size=min(batch_size, len(corpus)))
        ids, lengths = pad_ids([corpus[i].sequence.tokens for i in pick])
        loss, grads = mlm_step_loss(model, ids, lengths, mask_rate, mask_rng)
        if not np.isfinite(loss):
            raise FloatingPointError(
                f"masked-prediction loss became non-finite at step {step}"
            )
        adam_step(model.params, grads, state, lr)
        losses.append(float(loss))
    return model, losses
