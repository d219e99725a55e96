"""Lloyd's k-means with k-means++ seeding.

Each assignment step writes the squared distances to one center at a
time into an (N, k) array allocated once per call, through an (N, d)
difference buffer that is also reused; no (N, k, d) array is formed.
Every distance is the same row reduction over d as a broadcast would
give, so assignments, centers and the SSE trace do not depend on the
layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from langlab.rng import stream

MAX_ITERS = 300


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
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[j] = points[rng.integers(n)]
        else:
            centers[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


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
    d2 = np.empty((n, k))
    diff = np.empty(points.shape)
    rows = np.arange(n)
    for it in range(max_iters):
        for j in range(k):
            np.subtract(points, centers[j], out=diff)
            np.square(diff, out=diff)
            d2[:, j] = diff.sum(axis=1)
        new_assign = d2.argmin(axis=1)
        point_d2 = d2[rows, new_assign]

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
