"""Single-layer softmax classifier heads, their batch losses, and the
gradient-reversal layer.

The training loops run two batch losses over (N, K) logits, each
returning the mean over rows and its gradient w.r.t. the logits:
ce_loss_and_dlogits (cross-entropy) and language_term_and_dlogits (the
language-confusion term).  composite_step combines them exactly as
written in the source formulation: L = (1-w) * XE(y_a) + w * (-sum_k ln
y_b[k]).  The language term sums negative log-probabilities over *all*
classes, which is minimized (value K ln K) at the uniform distribution.
A Shannon entropy variant (-H(y_b) as the term) is selected by the
``language_term_variant`` config field (one of LANGUAGE_TERM_VARIANTS);
both agree on the minimizer.  The reversal layer is the identity going
forward, so only its backward, grad_reversal_backward, exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from langlab.rng import stream

LOG_EPS = 1e-12
LANGUAGE_TERM_VARIANTS = ("as_written", "shannon")


@dataclass
class ClassifierHead:
    w: np.ndarray  # (d_model, n_classes)
    b: np.ndarray  # (n_classes,)

    def __post_init__(self):
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise ValueError("head weight/bias shapes inconsistent")
        if self.w.shape[1] < 2:
            raise ValueError("a classifier head needs >= 2 classes")

    @classmethod
    def init(cls, d_model: int, n_classes: int, init_std: float,
             seed: int = 0, tag: str = "head") -> "ClassifierHead":
        rng = stream(seed, "head-init", tag)
        return cls(
            w=rng.normal(0.0, init_std, size=(d_model, n_classes)),
            b=rng.normal(0.0, init_std, size=(n_classes,)),
        )

    def copy(self) -> "ClassifierHead":
        return ClassifierHead(self.w.copy(), self.b.copy())


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def head_logits(head: ClassifierHead, x: np.ndarray) -> np.ndarray:
    if x.shape[-1] != head.w.shape[0]:
        raise ValueError(
            f"embedding dim {x.shape[-1]} does not match head dim {head.w.shape[0]}"
        )
    return x @ head.w + head.b


def grad_reversal_backward(upstream: np.ndarray, lam: float) -> np.ndarray:
    """The reversal layer's backward: the upstream gradient times -lam."""
    if lam < 0:
        raise ValueError(f"gradient reversal lambda must be >= 0, got {lam}")
    return -lam * upstream


# ----------------------------------------------------------------------------
# Batch loss/gradient helpers used by the training loops.  All losses are
# means over the batch; logits-level softmax+CE keeps them stable.
# ----------------------------------------------------------------------------

def ce_loss_and_dlogits(logits: np.ndarray, golds: np.ndarray):
    """Mean cross-entropy and its gradient w.r.t. logits, (N, K) batch."""
    probs = softmax(logits)
    n = logits.shape[0]
    picked = np.maximum(probs[np.arange(n), golds], LOG_EPS)
    loss = float(-np.log(picked).mean())
    d = probs.copy()
    d[np.arange(n), golds] -= 1.0
    return loss, d / n


def language_term_and_dlogits(logits: np.ndarray, variant: str = "as_written"):
    """Mean language-confusion term and gradient w.r.t. logits (N, K)."""
    probs = softmax(logits)
    n, k = logits.shape
    if variant == "as_written":
        loss = float(-np.log(np.maximum(probs, LOG_EPS)).sum(axis=1).mean())
        d = (k * probs - 1.0) / n
    elif variant == "shannon":
        logp = np.log(np.maximum(probs, LOG_EPS))
        loss = float((probs * logp).sum(axis=1).mean())
        ent = -(probs * logp).sum(axis=1, keepdims=True)
        d = probs * (logp + ent) / n
    else:
        raise ValueError(f"unknown language term variant {variant!r}")
    return loss, d


def head_backward(head: ClassifierHead, x: np.ndarray, d_logits: np.ndarray):
    """Gradients (dw, db, dx) of a loss whose logits-gradient is d_logits,
    over (M, d) rows x and (M, K) d_logits."""
    return x.T @ d_logits, d_logits.sum(axis=0), d_logits @ head.w.T
