"""Classifier heads, losses, gradient reversal, and the language term."""

from __future__ import annotations

import numpy as np
import pytest

from langlab.heads import (
    LOG_EPS,
    ClassifierHead,
    ce_loss_and_dlogits,
    grad_reversal_backward,
    head_backward,
    head_logits,
    language_term_and_dlogits,
    softmax,
)

FD_H = 1e-6
FD_TOL = 1e-6


# Per-row references the batch losses are checked against.

def _cross_entropy(probabilities: np.ndarray, gold: int) -> float:
    """-ln p[gold], with a 1e-12 floor inside the log."""
    p = np.asarray(probabilities)
    if not 0 <= gold < p.shape[-1]:
        raise ValueError(f"gold class {gold} out of range for {p.shape[-1]} classes")
    return float(-np.log(max(float(p[gold]), LOG_EPS)))


def _language_term(lang_probs: np.ndarray) -> float:
    """The language-confusion term for one probability vector."""
    p = np.maximum(np.asarray(lang_probs, dtype=float), LOG_EPS)
    return float(-np.log(p).sum())


def fd_logits_grad(fn, logits):
    """Central differences of a scalar fn(logits) at every coordinate."""
    g = np.zeros_like(logits)
    it = np.nditer(logits, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = logits[i]
        logits[i] = orig + FD_H
        up = fn(logits)
        logits[i] = orig - FD_H
        down = fn(logits)
        logits[i] = orig
        g[i] = (up - down) / (2.0 * FD_H)
        it.iternext()
    return g


# ---------------------------------------------------------------------------
# head construction


def test_head_validation():
    with pytest.raises(ValueError, match="inconsistent"):
        ClassifierHead(np.zeros((4, 3)), np.zeros(2))
    with pytest.raises(ValueError, match=">= 2"):
        ClassifierHead(np.zeros((4, 1)), np.zeros(1))


def test_head_init_distribution():
    head = ClassifierHead.init(400, 250, init_std=0.02, seed=0)
    draws = head.w.reshape(-1)
    n = draws.size
    assert n == 100_000
    assert abs(draws.mean()) <= 3.0 * 0.02 / np.sqrt(n)
    assert abs(draws.std() - 0.02) <= 4.0 * 0.02 / np.sqrt(2 * n)
    assert head.b.shape == (250,)


def test_head_init_seed_and_tag():
    a = ClassifierHead.init(8, 3, 0.1, seed=0, tag="task-probe")
    b = ClassifierHead.init(8, 3, 0.1, seed=0, tag="task-probe")
    c = ClassifierHead.init(8, 3, 0.1, seed=0, tag="lid-probe")
    d = ClassifierHead.init(8, 3, 0.1, seed=1, tag="task-probe")
    assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)
    assert not np.array_equal(a.w, c.w)
    assert not np.array_equal(a.w, d.w)


def test_head_copy_is_deep():
    a = ClassifierHead.init(4, 2, 0.1)
    b = a.copy()
    b.w[0, 0] += 1.0
    assert a.w[0, 0] != b.w[0, 0]


# ---------------------------------------------------------------------------
# softmax and cross entropy


def test_softmax_rows_and_stability():
    logits = np.array([[1e4, 1e4 - 1.0], [-1e4, -1e4 + 2.0]])
    p = softmax(logits)
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.allclose(p[0], softmax(np.array([0.0, -1.0])))


def test_head_forward_and_dim_check():
    head = ClassifierHead(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
    x = np.array([2.0, 0.0])
    assert np.allclose(head_logits(head, x), [2.0, 0.0])
    with pytest.raises(ValueError, match="does not match"):
        head_logits(head, np.zeros(3))


def test_cross_entropy_value_floor_and_range():
    assert _cross_entropy(np.array([0.25, 0.75]), 1) == pytest.approx(
        -np.log(0.75))
    assert _cross_entropy(np.array([0.0, 1.0]), 0) == pytest.approx(
        -np.log(LOG_EPS))
    with pytest.raises(ValueError, match="out of range"):
        _cross_entropy(np.array([0.5, 0.5]), 2)


# ---------------------------------------------------------------------------
# gradient reversal


def test_grad_reversal_layer():
    up = np.random.default_rng(1).normal(size=(3, 4))
    assert np.array_equal(grad_reversal_backward(up, 0.5), -0.5 * up)
    assert np.array_equal(grad_reversal_backward(up, 0.0),
                          np.zeros_like(up) * -0.0)
    assert not grad_reversal_backward(up, 0.0).any()
    with pytest.raises(ValueError, match=">= 0"):
        grad_reversal_backward(up, -0.1)


# ---------------------------------------------------------------------------
# language-confusion term


def test_language_term_uniform_minimum():
    k = 33
    uniform = np.full(k, 1.0 / k)
    assert _language_term(uniform) == pytest.approx(k * np.log(k), rel=1e-12)
    # any non-uniform vector sits strictly above the minimum
    tilted = np.full(k, 1.0 / k)
    tilted[0] += 0.01
    tilted[1] -= 0.01
    assert _language_term(tilted) > k * np.log(k)


def test_language_term_hand_values():
    p = np.array([0.5, 0.5])
    assert _language_term(p) == pytest.approx(2 * np.log(2))


# ---------------------------------------------------------------------------
# batch losses: values and gradients


def test_ce_loss_is_mean_of_rows():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(5, 4))
    golds = rng.integers(0, 4, size=5)
    loss, _ = ce_loss_and_dlogits(logits, golds)
    rows = [_cross_entropy(softmax(logits[i]), int(golds[i])) for i in range(5)]
    assert loss == pytest.approx(np.mean(rows), rel=1e-12)


def test_ce_dlogits_matches_fd():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(4, 3))
    golds = rng.integers(0, 3, size=4)
    _, d = ce_loss_and_dlogits(logits, golds)
    fd = fd_logits_grad(lambda z: ce_loss_and_dlogits(z, golds)[0], logits)
    assert np.abs(fd - d).max() <= FD_TOL


def test_language_term_is_mean_of_rows():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(6, 5))
    loss, _ = language_term_and_dlogits(logits)
    rows = [_language_term(softmax(logits[i])) for i in range(6)]
    assert loss == pytest.approx(np.mean(rows), rel=1e-12)


def test_language_term_dlogits_matches_fd():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(4, 5))
    _, d = language_term_and_dlogits(logits)
    fd = fd_logits_grad(lambda z: language_term_and_dlogits(z)[0], logits)
    assert np.abs(fd - d).max() <= FD_TOL


def test_gd_on_language_term_reaches_uniform():
    # descending the as-written term drives the row to the uniform point
    logits = np.random.default_rng(6).normal(size=(1, 7))
    for _ in range(2000):
        _, d = language_term_and_dlogits(logits)
        logits -= 0.5 * d
    probs = softmax(logits)
    assert np.abs(probs - 1.0 / 7).max() <= 1e-6


def test_head_backward_matches_fd():
    rng = np.random.default_rng(7)
    head = ClassifierHead.init(6, 3, 0.1, seed=1)
    x = rng.normal(size=(4, 6))
    golds = rng.integers(0, 3, size=4)

    def loss_for(w, b, xx):
        logits = xx @ w + b
        return ce_loss_and_dlogits(logits, golds)[0]

    _, d_logits = ce_loss_and_dlogits(head_logits(head, x), golds)
    dw, db, dx = head_backward(head, x, d_logits)

    for arr, grad in ((head.w, dw), (head.b, db), (x, dx)):
        fd = fd_logits_grad(lambda _z: loss_for(head.w, head.b, x), arr)
        assert np.abs(fd - grad).max() <= FD_TOL
