"""Lloyd's k-means with k-means++ seeding.

The reference distance from point x to center c is the row reduction
``ref = ((x - c) ** 2).sum()``. Each assignment step estimates all
N x k distances from one matrix product, center-major (k, N):

    est = (-2 C) @ X.T + |c|^2 + |x|^2

By the gamma_n bounds for dot products and for sums of non-negative
terms, which hold in any summation order (so BLAS blocking and thread
count do not matter), |est - ref| <= 4 (d + 3) eps (|x|^2 + |c|^2)
while nothing underflows or overflows. So a point is settled when
exactly one center has

    est <= min(est) + 8 (d + 3) (eps (|x|^2 + max |c|^2) + tiny)

where tiny, the least normal float, covers products that underflow:
every other center's ref is then strictly larger, and that center is
the reference argmin. The other points (near ties, or any non-finite
estimate) take the reference reduction over all k centers, the lowest
index winning a tie. Each point's distance to its assigned center is
the reference reduction too. Assignments, centers and the SSE trace
are therefore bit-identical to computing ref for every pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from langlab.rng import stream

MAX_ITERS = 300
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


@dataclass
class KMeansResult:
    assignments: np.ndarray   # (N,) cluster index per point
    centers: np.ndarray       # (k, d)
    sse_trace: list[float]    # SSE after each assignment step
    n_iter: int


def _plus_plus_init(points: np.ndarray, k: int, rng) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    # D^2 may overflow to inf; the draw then takes rescaled weights
    with np.errstate(over="ignore"):
        d2 = ((points - centers[0]) ** 2).sum(axis=1)
        for j in range(1, k):
            total = d2.sum()
            if total <= 0.0:
                centers[j] = points[rng.integers(n)]
            else:
                w = d2 if np.isfinite(total) else _d2_in_range(points, centers[:j])
                centers[j] = points[rng.choice(n, p=w / w.sum())]
            d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _d2_in_range(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """D^2 to the nearest of centers, on points scaled by a power of two
    into [-1, 1]: the same weights up to that scale, but a finite sum."""
    scale = np.ldexp(1.0, -np.frexp(np.abs(points).max())[1])
    diff = (points * scale)[:, None, :] - (centers * scale)[None, :, :]
    return (diff ** 2).sum(axis=2).min(axis=1)


def _assign(points, sq, centers, diff):
    """Each point's nearest center and its reference distance to it."""
    k, d = centers.shape
    # an estimate that overflows is re-checked below, so it warns nothing
    with np.errstate(over="ignore", invalid="ignore"):
        csq = np.einsum("ij,ij->i", centers, centers)
        est = (-2.0 * centers) @ points.T
        est += csq[:, None]
        est += sq
        cutoff = est.min(axis=0)
        cutoff += 8 * (d + 3) * (_EPS * (sq + csq.max()) + _TINY)
    near = est <= cutoff
    assign = near.argmax(axis=0)
    # past overflow the bound fails: NaN leaves a row no candidate, but
    # an estimate of -inf could leave it exactly one
    unsettled = np.flatnonzero((near.sum(axis=0) != 1)
                               | ~np.isfinite(est).all(axis=0))
    if unsettled.size:
        rows = points[unsettled]
        ref = np.empty((k, unsettled.size))
        for j in range(k):
            ref[j] = ((rows - centers[j]) ** 2).sum(axis=1)
        assign[unsettled] = ref.argmin(axis=0)
    # assign is in range, so mode="clip" only skips take's checked copy
    np.take(centers, assign, axis=0, out=diff, mode="clip")
    np.subtract(points, diff, out=diff)
    np.square(diff, out=diff)
    return assign, diff.sum(axis=1)


def kmeans(points, k: int, seed: int = 0, max_iters: int = MAX_ITERS) -> KMeansResult:
    """Cluster points into k groups; SSE is non-increasing across iterations.

    An empty cluster is re-seeded at the point farthest from its current
    center, which cannot increase SSE.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = stream(seed, "kmeans")
    centers = _plus_plus_init(points, k, rng)

    assignments = None
    sse_trace: list[float] = []
    with np.errstate(over="ignore"):
        sq = np.einsum("ij,ij->i", points, points)
    diff = np.empty(points.shape)
    for it in range(max_iters):
        new_assign, point_d2 = _assign(points, sq, centers, diff)

        # reseeding can orphan the donor's cluster, so rescan until stable;
        # a reseed moves the farthest point's cost to 0, never raising SSE
        for _ in range(k):
            empty = np.flatnonzero(np.bincount(new_assign, minlength=k) == 0)
            if not empty.size or point_d2.max() <= 0.0:
                break
            for j in empty:
                if point_d2.max() <= 0.0:
                    break
                far = point_d2.argmax()
                centers[j] = points[far]
                new_assign[far] = j
                point_d2[far] = 0.0

        sse_trace.append(float(point_d2.sum()))
        if assignments is not None and np.array_equal(new_assign, assignments):
            assignments = new_assign
            break
        assignments = new_assign
        for j in range(k):
            members = points[assignments == j]
            if members.size:
                centers[j] = members.mean(axis=0)

    return KMeansResult(assignments=assignments, centers=centers,
                        sse_trace=sse_trace, n_iter=len(sse_trace))
