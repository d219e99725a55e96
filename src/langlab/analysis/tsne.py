"""Exact t-SNE (no tree approximation).

Per-row Gaussian bandwidths are found by bisection until each row of the
conditional distribution hits the target perplexity within 1e-3; the
joint P is the symmetrized average.  The 2-d map minimizes KL(P||Q) with
a Student-t Q by gradient descent with momentum (0.5, then 0.8 after the
early-exaggeration window), per-parameter gains, and early exaggeration
of P for the first 250 iterations.  O(N^2) memory and time; fine at desk
scale, and exactness removes approximation as a confound.

The bisection runs on blocks of AFFINITY_BLOCK rows at once: every row
of a block starts at precision 1, and a row leaves the block's active
set once its perplexity is within PERP_TOL or after MAX_BISECTION_STEPS
updates.  Each row's probabilities are computed with the same float64
operations as a row-at-a-time search, so P does not depend on the block
size.  A row's entropy is log S - sum(p * z) for the shifted logits z
and their exp-sum S, one log per row instead of one per entry.  The
gradient loop allocates its three N x N arrays (Student-t kernel, Q and
the gradient weights) once and rebuilds them in place every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from langlab.rng import stream

P_FLOOR = 1e-12
PERP_TOL = 1e-3
EXAGGERATION_ITERS = 250
MOMENTUM_SWITCH = 250
AFFINITY_BLOCK = 64
MAX_BISECTION_STEPS = 200
_LOWEST = np.finfo(float).min


@dataclass
class TsneResult:
    coords: np.ndarray          # (N, 2)
    kl_initial: float
    kl_final: float
    row_perplexities: np.ndarray
    settings: dict = field(default_factory=dict)


def _pairwise_sq_dists(x: np.ndarray, out: np.ndarray,
                       scratch: np.ndarray) -> np.ndarray:
    """Write sq_i + sq_j - 2 x_i.x_j into out, with a zero diagonal and
    clamped at 0; scratch (same shape) is overwritten."""
    sq = (x * x).sum(axis=1)
    np.add(sq[:, None], sq[None, :], out=scratch)
    np.matmul(x, x.T, out=out)
    out *= 2.0
    np.subtract(scratch, out, out=out)
    np.fill_diagonal(out, 0.0)
    return np.maximum(out, 0.0, out=out)


def _bisect_block(d2: np.ndarray, first: int, target: float,
                  p_out: np.ndarray, perp_out: np.ndarray) -> None:
    """Bandwidth search for rows first..first+len(d2)-1 of the distances.

    d2 holds those rows' full distance rows; p_out and perp_out receive
    each row's conditional distribution and achieved perplexity.
    """
    m = d2.shape[0]
    self_col = first + np.arange(m)
    # the largest logit -beta*d2_ij (j != i) is -beta times the nearest d2
    masked = d2.copy()
    masked[np.arange(m), self_col] = np.inf
    nearest = masked.min(axis=1)

    beta = np.ones(m)
    lo = np.zeros(m)
    hi = np.full(m, np.inf)
    active = np.arange(m)
    for step in range(MAX_BISECTION_STEPS + 1):
        neg_beta = -beta[active]
        z = neg_beta[:, None] * d2[active]
        # logits stay finite, so p * z is 0 (not NaN) where p is 0: the
        # clamp only replaces an overflowed -inf, whose exp is 0 anyway,
        # and the diagonal gets a finite logit before its p is zeroed
        np.maximum(z, _LOWEST, out=z)
        z -= (neg_beta * nearest[active])[:, None]
        at_self = (np.arange(active.size), self_col[active])
        z[at_self] = 0.0
        e = np.exp(z)
        e[at_self] = 0.0
        s = e.sum(axis=1)
        p = e / s[:, None]
        perp = np.exp(np.log(s) - (p * z).sum(axis=1))

        done = np.abs(perp - target) <= PERP_TOL
        if step == MAX_BISECTION_STEPS:
            done[:] = True
        p_out[active[done]] = p[done]
        perp_out[active[done]] = perp[done]
        active, perp = active[~done], perp[~done]
        if not active.size:
            return
        # too flat: raise precision; too peaked: lower it
        flat = perp > target
        b = beta[active]
        low = np.where(flat, b, lo[active])
        high = np.where(flat, hi[active], b)
        mid = 0.5 * (low + high)
        beta[active] = np.where(flat, np.where(high == np.inf, b * 2.0, mid),
                                np.where(low == 0.0, b / 2.0, mid))
        lo[active], hi[active] = low, high


def joint_probabilities(points: np.ndarray, perplexity: float):
    """Symmetrized t-SNE joint P plus per-row achieved perplexities."""
    n = points.shape[0]
    d2 = _pairwise_sq_dists(points, np.empty((n, n)), np.empty((n, n)))
    p_cond = np.empty((n, n))
    perps = np.empty(n)
    for first in range(0, n, AFFINITY_BLOCK):
        last = min(first + AFFINITY_BLOCK, n)
        _bisect_block(d2[first:last], first, perplexity,
                      p_cond[first:last], perps[first:last])
    p = (p_cond + p_cond.T) / (2.0 * n)
    return p, perps


def _student_t_q(y: np.ndarray, num: np.ndarray, q: np.ndarray) -> None:
    """Fill num with the Student-t kernel 1/(1 + d2) (zero diagonal) and q
    with num normalised to sum 1 and floored at P_FLOOR."""
    _pairwise_sq_dists(y, num, q)
    num += 1.0
    np.divide(1.0, num, out=num)
    np.fill_diagonal(num, 0.0)
    np.divide(num, num.sum(), out=q)
    np.maximum(q, P_FLOOR, out=q)


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def tsne(points, perplexity: float = 30.0, iterations: int = 1000,
         learning_rate: float = 200.0, early_exaggeration: float = 12.0,
         seed: int = 0) -> TsneResult:
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if perplexity >= n:
        raise ValueError(f"perplexity {perplexity} must be < n points {n}")
    if perplexity > n - 1:
        raise ValueError(f"row perplexity {perplexity} unreachable with {n} points")

    p, row_perps = joint_probabilities(points, perplexity)
    np.maximum(p, P_FLOOR, out=p)
    p_exaggerated = p * early_exaggeration

    rng = stream(seed, "tsne-init")
    y = rng.normal(0.0, 1e-4, size=(n, 2))
    update = np.zeros_like(y)
    gains = np.ones_like(y)

    num, q, w = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
    _student_t_q(y, num, q)
    kl_initial = _kl(p, q)

    for it in range(iterations):
        pp = p_exaggerated if it < EXAGGERATION_ITERS else p
        _student_t_q(y, num, q)
        np.subtract(pp, q, out=w)
        w *= num
        # w's diagonal is exactly 0, so -w with the row sums written on
        # its diagonal is diag(rowsum w) - w
        row_sums = w.sum(axis=1)
        np.negative(w, out=w)
        np.fill_diagonal(w, row_sums)
        grad = 4.0 * (w @ y)
        if not np.isfinite(grad).all():
            raise FloatingPointError(
                f"non-finite t-SNE gradient at iteration {it}"
            )
        momentum = 0.5 if it < MOMENTUM_SWITCH else 0.8
        same_sign = np.sign(grad) == np.sign(update)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        gains = np.maximum(gains, 0.01)
        update = momentum * update - learning_rate * gains * grad
        y = y + update
        y = y - y.mean(axis=0)

    _student_t_q(y, num, q)
    kl_final = _kl(p, q)
    if not np.isfinite(y).all():
        raise FloatingPointError("non-finite t-SNE coordinates")
    return TsneResult(
        coords=y, kl_initial=kl_initial, kl_final=kl_final,
        row_perplexities=row_perps,
        settings={
            "perplexity": perplexity, "iterations": iterations,
            "learning_rate": learning_rate,
            "early_exaggeration": early_exaggeration,
            "exaggeration_iters": EXAGGERATION_ITERS,
            "momentum_switch": MOMENTUM_SWITCH, "seed": seed,
        },
    )
