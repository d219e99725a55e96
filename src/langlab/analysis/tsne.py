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
search holds one N x N array: a row's distances are read only by its
own search, so each finished row's conditional distribution is written
over them, and P is symmetrized in place one row panel at a time.  Its
other work arrays are a few AFFINITY_BLOCK x N blocks.

The gradient loop works on row panels of the upper triangle: rows
a..a+PANEL-1 against columns a..N-1.  P and the Student-t kernel are
symmetric, so each pair i < j is computed once, and each panel's
entries on and below the diagonal are zero.  Pass 1 builds every kernel
panel 1/(1 + d2) into one packed store, with 1 + d2 from a single
(n, 4) x (4, n) product, and sums it; Z is twice the sum of the panel
sums, taken in panel order.  Pass 2 reads the panels back, forms the
weights w = (e p - max(num / Z, P_FLOOR)) num in a PANEL x N scratch
buffer, and adds w @ [y, 1] to the panel's rows and w.T @ [y, 1] to
rows a..N-1: the gradient sums and the row sums of the full symmetric
w.  The KL divergence uses the same panels; its diagonal terms are
exactly 0, since p_ii = q_ii = P_FLOOR.  Besides P the loop holds the
store (about N^2 / 2 entries, kept because rebuilding the panels in
pass 2 was slower) and the scratch buffer; no N x N work array, so
t-SNE's peak is about 1.5 N^2 floats.  Z and the gradient are summed
in another order than a dense N x N loop, so coordinates agree with
one only to rounding, amplified by the sign-based gains over many
iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from langlab.rng import stream

P_FLOOR = 1e-12
PERP_TOL = 1e-3
EARLY_EXAGGERATION = 12.0
EXAGGERATION_ITERS = 250
MOMENTUM_SWITCH = 250
AFFINITY_BLOCK = 64
MAX_BISECTION_STEPS = 200
# rows per panel: 64 beat 32, 96, 128 and 256 at N = 269, 992 and 2000
PANEL = 64
_STRICT_UPPER = np.triu(np.ones((PANEL, PANEL)), 1)
_STRICT_UPPER.flags.writeable = False
_LOWEST = np.finfo(float).min


@dataclass
class TsneResult:
    coords: np.ndarray          # (N, 2)
    kl_initial: float
    kl_final: float
    row_perplexities: np.ndarray


def _pairwise_sq_dists(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write sq_i + sq_j - 2 x_i.x_j into out, with a zero diagonal and
    clamped at 0; sq_i + sq_j is formed one row block at a time."""
    sq = (x * x).sum(axis=1)
    np.matmul(x, x.T, out=out)
    out *= 2.0
    for first in range(0, len(x), AFFINITY_BLOCK):
        rows = out[first:first + AFFINITY_BLOCK]
        np.subtract(sq[first:first + len(rows), None] + sq[None, :], rows,
                    out=rows)
    np.fill_diagonal(out, 0.0)
    return np.maximum(out, 0.0, out=out)


def _bisect_block(rows: np.ndarray, first: int, target: float,
                  perp_out: np.ndarray) -> None:
    """Bandwidth search for rows first..first+len(rows)-1 of the distances.

    rows holds those rows' full distance rows on entry; each row is
    overwritten with its conditional distribution once its search ends,
    and perp_out receives the achieved perplexities.  A row's distances
    are read only by its own search, so no other row needs them.
    """
    m = rows.shape[0]
    self_col = first + np.arange(m)
    # the largest logit -beta*d2_ij (j != i) is -beta times the nearest d2
    masked = rows.copy()
    masked[np.arange(m), self_col] = np.inf
    nearest = masked.min(axis=1)
    del masked

    beta = np.ones(m)
    lo = np.zeros(m)
    hi = np.full(m, np.inf)
    active = np.arange(m)
    for step in range(MAX_BISECTION_STEPS + 1):
        neg_beta = -beta[active]
        z = rows[active]
        z *= neg_beta[:, None]
        # logits stay finite, so p * z is 0 (not NaN) where p is 0: the
        # clamp only replaces an overflowed -inf, whose exp is 0 anyway,
        # and the diagonal gets a finite logit before its p is zeroed
        np.maximum(z, _LOWEST, out=z)
        z -= (neg_beta * nearest[active])[:, None]
        at_self = (np.arange(active.size), self_col[active])
        z[at_self] = 0.0
        p = np.exp(z)
        p[at_self] = 0.0
        s = p.sum(axis=1)
        p /= s[:, None]
        z *= p
        perp = np.exp(np.log(s) - z.sum(axis=1))
        del z               # at most two blocks are alive at once

        done = np.abs(perp - target) <= PERP_TOL
        if step == MAX_BISECTION_STEPS:
            done[:] = True
        rows[active[done]] = p[done]
        perp_out[active[done]] = perp[done]
        del p
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
    """Symmetrized t-SNE joint P plus per-row achieved perplexities.

    One N x N array carries the distances, then the conditional rows,
    then P."""
    n = points.shape[0]
    p = _pairwise_sq_dists(points, np.empty((n, n)))
    perps = np.empty(n)
    for first in range(0, n, AFFINITY_BLOCK):
        _bisect_block(p[first:first + AFFINITY_BLOCK], first, perplexity,
                      perps[first:first + AFFINITY_BLOCK])
    # symmetrize in place, one row panel at a time: the panel's rows from
    # column `first` on, and the same columns from row `first` down, are
    # still conditional rows, since earlier panels wrote only rows and
    # columns before `first`; c_ij + c_ji == c_ji + c_ij, so P[i, j] and
    # P[j, i] get the value a dense (C + C.T) / 2n gives them
    for first in range(0, n, AFFINITY_BLOCK):
        last = min(first + AFFINITY_BLOCK, n)
        panel = p[first:last, first:] + p[first:, first:last].T
        panel /= 2.0 * n
        p[first:last, first:] = panel
        p[first:, first:last] = panel.T
    return p, perps


def _panels(store: np.ndarray, n: int):
    """(a, b, view) for each row panel of the upper triangle: rows a..b-1
    against columns a..n-1, packed one after another in store."""
    offset = 0
    for a in range(0, n, PANEL):
        b = min(a + PANEL, n)
        size = (b - a) * (n - a)
        yield a, b, store[offset:offset + size].reshape(b - a, n - a)
        offset += size


def _panel_buffers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The kernel panels' store and one PANEL x n scratch buffer."""
    store = sum((min(a + PANEL, n) - a) * (n - a) for a in range(0, n, PANEL))
    return np.empty(store), np.empty(min(PANEL, n) * n)


def _kernel_panels(y: np.ndarray, buffers) -> float:
    """Write the Student-t kernel 1/(1 + d2) of each panel, zero on and
    below the diagonal, into the store; return Z, the kernel summed over
    all i != j: twice the panel sums, taken in panel order."""
    store = buffers[0]
    n = len(y)
    sq = (y * y).sum(axis=1)
    # 1 + d2 = (1 + sq_i) + sq_j - 2 y_i.y_j as one product of (n, 4)
    # factors, clamped at 1 against cancellation
    rows = np.column_stack([-2.0 * y, 1.0 + sq, np.ones(n)])
    cols = np.column_stack([y, np.ones(n), sq])
    z = 0.0
    for a, b, num in _panels(store, n):
        np.matmul(rows[a:b], cols[a:].T, out=num)
        np.maximum(num, 1.0, out=num)
        np.divide(1.0, num, out=num)
        num[:, :b - a] *= _STRICT_UPPER[:b - a, :b - a]
        z += float(num.sum())
    return 2.0 * z


def _gradient(p: np.ndarray, y: np.ndarray, exaggeration: float,
              buffers) -> np.ndarray:
    """The exact gradient of KL(e P || Q) at y.

    Each panel's weights are w = (p - max(num / (e Z), P_FLOOR / e)) num,
    the dense (e p - max(num / Z, P_FLOOR)) num over e; the factor e goes
    into the final scale, so no exaggerated copy of P is made.
    """
    n = len(y)
    z = _kernel_panels(y, buffers)
    store, scratch = buffers
    # acc[:, :2] collects sum_j w_ij y_j and acc[:, 2] the row sums of w
    y1 = np.hstack([y, np.ones((n, 1))])
    acc = np.zeros((n, 3))
    for a, b, num in _panels(store, n):
        w = scratch[:num.size].reshape(num.shape)
        np.divide(num, exaggeration * z, out=w)
        np.maximum(w, P_FLOOR / exaggeration, out=w)
        np.subtract(p[a:b, a:], w, out=w)
        w *= num
        # w holds the pairs i < j; the transposed product adds j > i
        acc[a:b] += w @ y1[a:]
        acc[a:] += w.T @ y1[a:b]
    return 4.0 * exaggeration * (acc[:, 2:] * y - acc[:, :2])


def _kl(p: np.ndarray, y: np.ndarray, buffers) -> float:
    """KL(P || Q) at y.  Its diagonal terms are exactly 0, since
    p_ii = q_ii = P_FLOOR, so the pairs i < j are summed and doubled."""
    z = _kernel_panels(y, buffers)
    store, scratch = buffers
    total = 0.0
    for a, b, num in _panels(store, len(y)):
        t = scratch[:num.size].reshape(num.shape)
        np.divide(num, z, out=t)
        np.maximum(t, P_FLOOR, out=t)
        np.divide(p[a:b, a:], t, out=t)
        np.log(t, out=t)
        t *= p[a:b, a:]
        t[:, :b - a] *= _STRICT_UPPER[:b - a, :b - a]
        total += float(t.sum())
    return 2.0 * total


def tsne(points, perplexity: float = 30.0, iterations: int = 1000,
         learning_rate: float = 200.0, seed: int = 0) -> TsneResult:
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if perplexity > n - 1:
        raise ValueError(f"row perplexity {perplexity} unreachable with {n} points")

    p, row_perps = joint_probabilities(points, perplexity)
    np.maximum(p, P_FLOOR, out=p)

    rng = stream(seed, "tsne-init")
    y = rng.normal(0.0, 1e-4, size=(n, 2))
    update = np.zeros_like(y)
    gains = np.ones_like(y)

    buffers = _panel_buffers(n)
    kl_initial = _kl(p, y, buffers)

    for it in range(iterations):
        e = EARLY_EXAGGERATION if it < EXAGGERATION_ITERS else 1.0
        grad = _gradient(p, y, e, buffers)
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

    kl_final = _kl(p, y, buffers)
    if not np.isfinite(y).all():
        raise FloatingPointError("non-finite t-SNE coordinates")
    return TsneResult(
        coords=y, kl_initial=kl_initial, kl_final=kl_final,
        row_perplexities=row_perps)
