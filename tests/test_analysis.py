"""Metrics, k-means, t-SNE, clustering reports, sampling, file formats.

macro_f1 and v_measure are checked against independent reference
implementations (precision/recall form and mutual-information form) on
randomized instances.  k-means, the t-SNE affinities and the dump
writers are checked bit for bit against the straight row-at-a-time and
broadcast forms they replace.  The t-SNE gradient, Z and KL, which sum
over upper-triangle panels, are checked against a dense N x N reference
to rounding and against finite differences.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from langlab.analysis.kmeans import kmeans
from langlab.analysis.metrics import macro_f1, v_measure
from langlab.analysis.reports import (
    EmbeddingSample,
    clustering_report,
    write_embedding_dump,
    write_projection_csv,
)
from langlab.analysis.sampling import DEFAULT_QUOTAS, plot_sample
from langlab.analysis.tsne import joint_probabilities, tsne
from langlab.rng import stream

# the package re-exports the functions under the modules' names
kmeans_module = importlib.import_module("langlab.analysis.kmeans")
tsne_module = importlib.import_module("langlab.analysis.tsne")

FD_TOL = 1e-4


# ---------------------------------------------------------------------------
# reference implementations


def reference_macro_f1(preds, golds, classes):
    f1s = []
    for c in classes:
        tp = sum(1 for p, g in zip(preds, golds) if p == c and g == c)
        fp = sum(1 for p, g in zip(preds, golds) if p == c and g != c)
        fn = sum(1 for p, g in zip(preds, golds) if p != c and g == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return sum(f1s) / len(f1s)


def reference_v_measure(golds, clusters):
    """h = MI/H(C), c = MI/H(K): an independent route to the same score."""
    n = len(golds)
    pc = Counter(golds)
    pk = Counter(clusters)
    joint = Counter(zip(golds, clusters))
    h_c = -sum(v / n * math.log(v / n) for v in pc.values())
    h_k = -sum(v / n * math.log(v / n) for v in pk.values())
    mi = sum(
        v / n * math.log((v / n) / ((pc[c] / n) * (pk[k] / n)))
        for (c, k), v in joint.items()
    )
    h = 1.0 if h_c == 0.0 else mi / h_c
    c = 1.0 if h_k == 0.0 else mi / h_k
    return 0.0 if h + c == 0.0 else 2 * h * c / (h + c)


def reference_kmeans(points, k, seed=0, max_iters=kmeans_module.MAX_ITERS):
    """Broadcast (N, k, d) k-means with a k-scan empty-cluster search;
    also returns how many times a cluster was re-seeded."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    centers = kmeans_module._plus_plus_init(points, k, stream(seed, "kmeans"))
    assignments, sse_trace, reseeds = None, [], 0
    for _ in range(max_iters):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        point_d2 = d2[np.arange(n), new_assign]
        for _ in range(k):
            empty = [j for j in range(k) if not (new_assign == j).any()]
            if not empty or point_d2.max() <= 0.0:
                break
            for j in empty:
                if point_d2.max() <= 0.0:
                    break
                far = point_d2.argmax()
                centers[j] = points[far]
                new_assign[far] = j
                point_d2[far] = 0.0
                reseeds += 1
        sse_trace.append(float(point_d2.sum()))
        if assignments is not None and np.array_equal(new_assign, assignments):
            assignments = new_assign
            break
        assignments = new_assign
        for j in range(k):
            members = points[assignments == j]
            if members.size:
                centers[j] = members.mean(axis=0)
    return assignments, centers, sse_trace, reseeds


def reference_sq_dists(x):
    sq = (x * x).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def reference_row_probs(d2_row, beta, i):
    z = -beta * d2_row
    z[i] = -np.inf
    z -= z[np.isfinite(z)].max()
    e = np.exp(z)
    e[i] = 0.0
    p = e / e.sum()
    nz = p[p > 0]
    return p, float(np.exp(-(nz * np.log(nz)).sum()))


def reference_joint_probabilities(points, perplexity, max_steps=200):
    """One row at a time: bisect beta from 1 until the row's perplexity
    is within PERP_TOL or max_steps updates were made; also returns the
    number of updates per row."""
    n = points.shape[0]
    d2 = reference_sq_dists(points)
    p_cond, perps, steps = np.zeros((n, n)), np.zeros(n), np.zeros(n, int)
    for i in range(n):
        beta, lo, hi = 1.0, 0.0, np.inf
        p, perp = reference_row_probs(d2[i], beta, i)
        for _ in range(max_steps):
            if abs(perp - perplexity) <= tsne_module.PERP_TOL:
                break
            if perp > perplexity:
                lo = beta
                beta = beta * 2.0 if hi == np.inf else 0.5 * (lo + hi)
            else:
                hi = beta
                beta = beta / 2.0 if lo == 0.0 else 0.5 * (lo + hi)
            p, perp = reference_row_probs(d2[i], beta, i)
            steps[i] += 1
        p_cond[i], perps[i] = p, perp
    return (p_cond + p_cond.T) / (2.0 * n), perps, steps


def reference_gradient(p, y, exaggeration):
    """The dense t-SNE gradient of KL(e P || Q) at y, with Z and KL(P || Q)."""
    num = 1.0 / (1.0 + reference_sq_dists(y))
    np.fill_diagonal(num, 0.0)
    z = num.sum()
    q = np.maximum(num / z, tsne_module.P_FLOOR)
    w = (exaggeration * p - q) * num
    grad = 4.0 * ((np.diag(w.sum(axis=1)) - w) @ y)
    return grad, z, float((p * np.log(p / q)).sum())


def reference_tsne(points, perplexity, iterations, learning_rate=200.0,
                   early_exaggeration=12.0, seed=0):
    """The gradient loop with fresh N x N arrays every iteration; returns
    (coords, kl_initial, kl_final, steps), where steps holds each
    iteration's (y, exaggeration, gradient)."""
    p = np.maximum(reference_joint_probabilities(points, perplexity)[0],
                   tsne_module.P_FLOOR)
    y = stream(seed, "tsne-init").normal(0.0, 1e-4, size=(len(points), 2))
    update, gains = np.zeros_like(y), np.ones_like(y)
    kl_initial = reference_gradient(p, y, 1.0)[2]
    steps = []
    for it in range(iterations):
        early = it < tsne_module.EXAGGERATION_ITERS
        exaggeration = early_exaggeration if early else 1.0
        grad = reference_gradient(p, y, exaggeration)[0]
        steps.append((y, exaggeration, grad))
        momentum = 0.5 if it < tsne_module.MOMENTUM_SWITCH else 0.8
        same_sign = np.sign(grad) == np.sign(update)
        gains = np.maximum(np.where(same_sign, gains * 0.8, gains + 0.2), 0.01)
        update = momentum * update - learning_rate * gains * grad
        y = y + update
        y = y - y.mean(axis=0)
    return y, kl_initial, reference_gradient(p, y, 1.0)[2], steps


def random_affinities(n, rng):
    """A symmetric P over n points, zero diagonal, floored as tsne uses it."""
    p = rng.random((n, n)) ** 4
    p = p + p.T
    np.fill_diagonal(p, 0.0)
    return np.maximum(p / p.sum(), tsne_module.P_FLOOR)


def blobs(n_per, centers, std=0.3, d=2, seed=0):
    rng = np.random.default_rng(seed)
    points, labels = [], []
    for i, c in enumerate(centers):
        pts = rng.normal(0.0, std, size=(n_per, d))
        pts[:, 0] += c
        points.append(pts)
        labels.extend([i] * n_per)
    return np.concatenate(points), labels


# ---------------------------------------------------------------------------
# macro F1


def test_macro_f1_hand_case():
    score = macro_f1([0, 1, 1], [0, 1, 2], 3)
    assert score == pytest.approx((1.0 + 2.0 / 3.0 + 0.0) / 3.0, abs=1e-12)


def test_macro_f1_absent_class_contributes_zero():
    # class 2 never appears: per-class F1s are 1, 1, 0 over 3 classes
    assert macro_f1([0, 1], [0, 1], 3) == pytest.approx(2.0 / 3.0)


def test_macro_f1_validation():
    with pytest.raises(ValueError, match="at least one"):
        macro_f1([], [], 1)
    with pytest.raises(ValueError, match="length mismatch"):
        macro_f1([0], [0, 1], 2)
    with pytest.raises(ValueError, match="n_classes must be >= 1"):
        macro_f1([0], [0], 0)


def test_macro_f1_matches_reference_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(300):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 30))
        golds = rng.integers(0, k, size=n).tolist()
        preds = rng.integers(0, k + 1, size=n).tolist()  # some out-of-set
        assert macro_f1(preds, golds, k) == pytest.approx(
            reference_macro_f1(preds, golds, range(k)), abs=1e-12)


# ---------------------------------------------------------------------------
# V-measure


def test_v_measure_conventions():
    assert v_measure([0, 1, 2], [2, 0, 1]) == 1.0          # relabeled identity
    assert v_measure([0, 0, 1, 1], [0, 0, 0, 0]) == 0.0    # one cluster
    assert v_measure([0, 0, 0], [0, 0, 0]) == 1.0          # both degenerate
    a = v_measure([0, 0, 1, 1], [0, 1, 1, 1])
    b = v_measure([0, 1, 1, 1], [0, 0, 1, 1])
    assert a == pytest.approx(b)                           # symmetric
    assert v_measure(["x", "y"], [5, 7]) == 1.0            # any hashables


def test_v_measure_validation():
    with pytest.raises(ValueError, match="at least one"):
        v_measure([], [])
    with pytest.raises(ValueError, match="length mismatch"):
        v_measure([0], [0, 1])


def test_v_measure_matches_reference_on_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        golds = rng.integers(0, int(rng.integers(1, 5)), size=n).tolist()
        clusters = rng.integers(0, int(rng.integers(1, 5)), size=n).tolist()
        got = v_measure(golds, clusters)
        want = reference_v_measure(golds, clusters)
        assert abs(got - want) <= 1e-9, (golds, clusters)
        assert -1e-12 <= got <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# k-means


def test_kmeans_sse_non_increasing_on_random_instances():
    rng = np.random.default_rng(2)
    for trial in range(100):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(n, 5) + 1))
        points = rng.normal(size=(n, d))
        result = kmeans(points, k, seed=trial)
        trace = result.sse_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:])), trial
        assert result.assignments.shape == (n,)
        assert set(result.assignments.tolist()) <= set(range(k))
        assert result.centers.shape == (k, d)


def test_kmeans_validation_and_edges():
    points = np.random.default_rng(3).normal(size=(5, 2))
    with pytest.raises(ValueError, match="k must be"):
        kmeans(points, 0)
    with pytest.raises(ValueError, match="k must be"):
        kmeans(points, 6)
    one = kmeans(points, 1)
    assert np.allclose(one.centers[0], points.mean(axis=0))
    full = kmeans(points, 5)
    assert sorted(full.assignments.tolist()) == list(range(5))
    assert full.sse_trace[-1] == pytest.approx(0.0)


def test_kmeans_handles_duplicate_points():
    points = np.array([[0.0], [0.0], [0.0], [1.0], [1.0]])
    result = kmeans(points, 3, seed=0)
    assert np.isfinite(result.sse_trace).all()
    assert result.sse_trace[-1] == pytest.approx(0.0)


def test_kmeans_deterministic_and_separates_blobs():
    points, labels = blobs(50, centers=(0.0, 10.0, 20.0), seed=4)
    a = kmeans(points, 3, seed=7)
    b = kmeans(points, 3, seed=7)
    assert np.array_equal(a.assignments, b.assignments)
    assert v_measure(labels, a.assignments.tolist()) >= 0.95


def test_kmeans_matches_broadcast_reference():
    rng = np.random.default_rng(21)
    for trial in range(60):
        n = int(rng.integers(2, 80))
        d = int(rng.integers(1, 7))
        k = int(rng.integers(1, min(n, 9) + 1))
        points = rng.normal(size=(n, d))
        if trial % 3 == 0:
            points = np.round(points)          # duplicate points
        got = kmeans(points, k, seed=trial)
        assignments, centers, sse_trace, _ = reference_kmeans(points, k,
                                                              seed=trial)
        assert np.array_equal(got.assignments, assignments), trial
        assert np.array_equal(got.centers, centers), trial
        assert got.sse_trace == sse_trace, trial


def assert_kmeans_matches_reference(points, k, seed):
    got = kmeans(points, k, seed=seed)
    assignments, centers, sse_trace, _ = reference_kmeans(points, k, seed=seed)
    assert np.array_equal(got.assignments, assignments), (k, seed)
    assert np.array_equal(got.centers, centers, equal_nan=True), (k, seed)
    assert got.sse_trace == sse_trace, (k, seed)


def _workload_shape(rng):
    # the frozen-analysis sample: about 1000 points, d=64, 8 languages
    means = rng.normal(size=(8, 64))
    return means[rng.integers(8, size=992)] + 0.8 * rng.normal(size=(992, 64))


def _offset(rng):
    # |x|^2 - 2 x.c + |c|^2 cancels all but the last few bits of est
    d = int(rng.choice([2, 16, 64]))
    means = 1e-3 * rng.normal(size=(4, d))
    labels = rng.integers(4, size=300)
    return 1e6 + means[labels] + 1e-3 * rng.normal(size=(300, d))


def _lattice(rng):
    # small integers: many points lie exactly midway between two centers
    d = int(rng.integers(1, 5))
    return rng.integers(-2, 3, size=(200, d)).astype(float)


def _rounded(rng):
    # rounded duplicate points, at the workload's width and at d=3
    d = int(rng.choice([3, 64]))
    return np.round(rng.normal(size=(400, d)), 1 if d == 3 else 0)


@pytest.mark.parametrize("make", [_workload_shape, _offset, _lattice, _rounded])
def test_kmeans_screen_matches_reference(make):
    rng = np.random.default_rng(23)
    for trial in range(10):
        points = make(rng)
        assert_kmeans_matches_reference(points, int(rng.integers(2, 10)), trial)


def test_kmeans_exact_midpoints_take_lowest_center(monkeypatch):
    # each of the last 20 points is exactly equidistant from centers 0
    # and 1, so the first assignment step must break 20 ties by index
    rng = np.random.default_rng(24)
    a, b = np.round(rng.normal(size=(2, 64)) * 8)
    points = np.concatenate([a + rng.normal(size=(30, 64)),
                             b + rng.normal(size=(30, 64)),
                             np.tile((a + b) / 2, (20, 1))])
    monkeypatch.setattr(kmeans_module, "_plus_plus_init",
                        lambda pts, k, rng: np.stack([a, b]))
    assert_kmeans_matches_reference(points, 2, 0)
    d2 = ((points[-1] - np.stack([a, b])) ** 2).sum(axis=1)
    assert d2[0] == d2[1]


@pytest.mark.parametrize("scale", [1e155, -1e155])
def test_kmeans_non_finite_estimates_match_reference(scale):
    # |x|^2 overflows to inf while (x - c)^2 does not, so every estimate
    # is NaN and every row takes the reference reduction
    rng = np.random.default_rng(25)
    for trial in range(4):
        means = rng.normal(size=(3, 3))
        unit = means[rng.integers(3, size=60)] + 0.3 * rng.normal(size=(60, 3))
        points = scale * (1.0 + 1e-3 * unit)
        assert np.isinf(np.einsum("ij,ij->i", points, points)).all()
        assert np.isfinite(((points - points[0]) ** 2).sum(axis=1)).all()
        assert_kmeans_matches_reference(points, 3, trial)


# the broadcast reference's squares overflow; kmeans itself must not warn
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_kmeans_plus_plus_draws_past_overflowing_distances():
    # the squared distances from the 40 points near 0 to the 20 near
    # 1e155 overflow, so their sum is inf; the seeding must still draw
    rng = np.random.default_rng(27)
    points = np.concatenate([1e155 * (1.0 + 1e-3 * rng.normal(size=(20, 3))),
                             rng.normal(size=(40, 3))])
    groups = [0] * 20 + [1] * 40
    for trial in range(4):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = kmeans(points, 2, seed=trial)
        assert v_measure(groups, got.assignments.tolist()) == 1.0, trial
        assert np.isfinite(got.sse_trace).all(), trial
        assert_kmeans_matches_reference(points, 2, trial)


def test_kmeans_plus_plus_finite_draws_unchanged():
    # with a finite D^2 sum, the draws are rng.choice over D^2 / sum
    rng = np.random.default_rng(28)
    points = rng.normal(size=(50, 4))
    centers = kmeans_module._plus_plus_init(points, 4, stream(3, "kmeans"))
    draw = stream(3, "kmeans")
    want = [points[draw.integers(50)]]
    d2 = ((points - want[0]) ** 2).sum(axis=1)
    for _ in range(3):
        want.append(points[draw.choice(50, p=d2 / d2.sum())])
        d2 = np.minimum(d2, ((points - want[-1]) ** 2).sum(axis=1))
    assert np.array_equal(centers, np.stack(want))


def test_kmeans_underflowing_estimates_match_reference():
    # near 1e-162 the squares are subnormal, so rounding error is absolute
    # and only the slack's floor covers it
    rng = np.random.default_rng(26)
    for trial in range(10):
        d = int(rng.integers(1, 20))
        means = rng.normal(size=(3, d))
        unit = means[rng.integers(3, size=80)] + 0.5 * rng.normal(size=(80, d))
        points = 10.0 ** rng.uniform(-163, -161) * unit
        assert_kmeans_matches_reference(points, int(rng.integers(2, 6)), trial)


def test_kmeans_reseeds_empty_cluster_like_reference(monkeypatch):
    # k-means++ never picks a point twice, so start from two equal
    # centers: the second owns no point and must be re-seeded
    points = np.random.default_rng(22).normal(size=(40, 3))
    monkeypatch.setattr(kmeans_module, "_plus_plus_init",
                        lambda pts, k, rng: pts[[0, 0, 5, 9]].copy())
    got = kmeans(points, 4, seed=0)
    assignments, centers, sse_trace, reseeds = reference_kmeans(points, 4)
    assert reseeds >= 1
    assert np.array_equal(got.assignments, assignments)
    assert np.array_equal(got.centers, centers)
    assert got.sse_trace == sse_trace


# ---------------------------------------------------------------------------
# t-SNE


def test_joint_probabilities_are_a_distribution():
    points, _ = blobs(15, centers=(0.0, 6.0), d=4, seed=5)
    p, perps = joint_probabilities(points, perplexity=8.0)
    assert np.abs(perps - 8.0).max() <= 1e-3
    assert np.allclose(p, p.T)
    assert p.sum() == pytest.approx(1.0)
    assert np.all(p >= 0.0)
    assert np.all(np.diag(p) == 0.0)


def test_joint_probabilities_match_row_reference():
    rng = np.random.default_rng(23)
    block = tsne_module.AFFINITY_BLOCK
    spread = rng.normal(size=(2 * block + 7, 6)) * 4.0
    # 41 copies of one point: their rows stay above perplexity 30 at any
    # precision, so their bisection stops at the 200-update cap
    dup = np.concatenate([rng.normal(size=(block + 20, 4)),
                          np.repeat(rng.normal(size=(1, 4)), 41, axis=0)])
    # 41 copies of the origin 1e131 away from 30 points: once beta passes
    # 2^154 their logits -beta*d2 for those points overflow to -inf; a
    # point at d2 = 1e-60 from them still changes their P at the cap
    far = np.concatenate([
        np.zeros((41, 4)), [[1e-30, 0.0, 0.0, 0.0]],
        1e130 * ([10.0, 0.0, 0.0, 0.0] + 0.1 * rng.normal(size=(30, 4)))])
    for points, perplexity in ((spread, 30.0), (spread[:block - 3], 9.0),
                               (far, 30.0), (dup, 30.0)):
        with np.errstate(over="ignore", invalid="raise"):   # no 0 * -inf
            p, perps = joint_probabilities(points, perplexity)
        with np.errstate(over="ignore"):
            p_ref, perps_ref, steps = reference_joint_probabilities(
                points, perplexity)
        assert len(points) % block
        assert np.array_equal(p, p_ref)
        # the entropy is log S - sum(p z) here and -sum(p log p) there
        assert np.allclose(perps, perps_ref, rtol=1e-13, atol=0.0)
    assert (steps[-41:] == 200).all() and (steps < 200).any()
    assert (np.abs(perps[-41:] - 30.0) > tsne_module.PERP_TOL).all()


def test_joint_probabilities_hold_one_square_array():
    # the distances, the conditional rows and P share one N x N array;
    # with the bisection's row blocks the traced peak stays under 1.25
    # N^2 floats (separate distance and conditional arrays peaked at
    # 2.57 N^2 at this N)
    n = 700
    points = np.random.default_rng(34).normal(size=(n, 16))
    tracemalloc.start()
    try:
        joint_probabilities(points, 30.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n * n, f"peak {peak / (8 * n * n):.3f} N^2 floats"


def _openblas_config():
    """numpy's bundled OpenBLAS build string, or None."""
    try:
        umath = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get_config = umath.scipy_openblas_get_config64_
    except (OSError, AttributeError):
        return None
    get_config.restype = ctypes.c_char_p
    return get_config().decode()


# tsne on criterion 06's 2,000 points, 30 iterations: the sha256 of the
# coordinates and the initial KL, recorded while the affinity search
# still kept separate distance and conditional arrays, with this numpy
# and OpenBLAS build at one thread; other BLAS kernels may round the
# distance and gradient products differently
CRITERION_06_NUMERICS = (
    "2.4.6", "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
             "SkylakeX MAX_THREADS=64")
CRITERION_06_COORDS = ("69dd35c5a736018289789a1f289fede4"
                       "f87d80d9d165a65d058f4e48d679a1d1")
CRITERION_06_KL_INITIAL = 3.9693694668932364


def test_tsne_coords_unchanged_on_criterion_06_points():
    if (np.__version__, _openblas_config()) != CRITERION_06_NUMERICS:
        pytest.skip("digest recorded with another numpy or OpenBLAS build")
    labels = np.repeat(np.arange(3), [667, 667, 666])
    centers = stream(6, "accept-tsne-centers").normal(0.0, 1.0, (3, 16)) * 10.0
    points = centers[labels] + stream(6, "accept-tsne-noise").normal(
        0.0, 1.0, (2000, 16))
    result = tsne(points, perplexity=30.0, iterations=30, seed=0)
    assert result.kl_initial == CRITERION_06_KL_INITIAL
    assert hashlib.sha256(result.coords.tobytes()).hexdigest() == CRITERION_06_COORDS


def test_tsne_matches_loop_reference():
    # the panels sum Z and the gradient in another order than the dense
    # loop, and the sign-based gains amplify last-bit differences over 300
    # iterations, so the gradient is checked at each of the reference's
    # iterates instead of comparing end coordinates; 300 iterations cross
    # the exaggeration and momentum switch at 250
    points, _ = blobs(25, centers=(0.0, 6.0, 12.0), d=5, seed=24)
    points[5] = points[6]
    got = tsne(points, perplexity=12.0, iterations=300, seed=2)
    coords, kl_initial, kl_final, steps = reference_tsne(points, 12.0, 300,
                                                         seed=2)
    p = np.maximum(joint_probabilities(points, 12.0)[0], tsne_module.P_FLOOR)
    buffers = tsne_module._panel_buffers(len(points))
    assert [e for _, e, _ in steps] == [12.0] * 250 + [1.0] * 50
    for it, (y, exaggeration, grad) in enumerate(steps):
        g = tsne_module._gradient(p, y, exaggeration, buffers)
        assert np.abs(g - grad).max() <= 1e-12 * np.abs(grad).max(), it
    assert got.kl_initial == pytest.approx(kl_initial, rel=1e-13, abs=0.0)
    assert tsne_module._kl(p, coords, buffers) == pytest.approx(
        kl_final, rel=1e-13, abs=0.0)


def test_tsne_panels_match_dense_reference():
    panel = tsne_module.PANEL
    rng = np.random.default_rng(31)
    for n in (2, 3, panel - 1, panel, panel + 1, 2 * panel + 5):
        p = random_affinities(n, rng)
        for scale in (1e-4, 10.0):
            y = rng.normal(0.0, scale, size=(n, 2))
            # duplicate pairs (d2 = 0) that leave distinct points; the
            # second spans two panels when n > PANEL
            if n > 2:
                y[1] = y[0]
            if n > 4:
                y[-1] = y[n // 2]
            buffers = tsne_module._panel_buffers(n)
            for exaggeration in (12.0, 1.0):
                grad, z, kl = reference_gradient(p, y, exaggeration)
                g = tsne_module._gradient(p, y, exaggeration, buffers)
                assert np.abs(g - grad).max() <= 1e-12 * np.abs(grad).max(), \
                    (n, scale, exaggeration)
                assert tsne_module._kernel_panels(y, buffers) == pytest.approx(
                    z, rel=1e-13, abs=0.0)
                assert tsne_module._kl(p, y, buffers) == pytest.approx(
                    kl, rel=1e-13, abs=1e-15)


def test_tsne_gradient_matches_finite_differences():
    rng = np.random.default_rng(32)
    n = tsne_module.PANEL + 9
    p = random_affinities(n, rng)
    y = rng.normal(0.0, 2.0, size=(n, 2))
    buffers = tsne_module._panel_buffers(n)
    grad = tsne_module._gradient(p, y, 1.0, buffers)
    h, worst = 1e-5, 0.0
    for i in rng.choice(n, size=8, replace=False):
        for d in range(2):
            y_step = y.copy()
            y_step[i, d] += h
            up = tsne_module._kl(p, y_step, buffers)
            y_step[i, d] -= 2.0 * h
            down = tsne_module._kl(p, y_step, buffers)
            fd = (up - down) / (2.0 * h)
            worst = max(worst, abs(fd - grad[i, d]) / max(abs(fd), 1e-6))
    assert worst <= FD_TOL, f"max FD relative error {worst:.2e}"


def test_tsne_gradient_allocates_no_square_array():
    n = 1000
    rng = np.random.default_rng(33)
    p, y = random_affinities(n, rng), rng.normal(size=(n, 2))
    tracemalloc.start()
    try:
        tsne_module._gradient(p, y, 12.0, tsne_module._panel_buffers(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8, f"peak {peak} B"


def test_tsne_on_blobs():
    points, labels = blobs(20, centers=(0.0, 8.0, 16.0), d=5, seed=6)
    result = tsne(points, perplexity=10.0, iterations=1000, seed=0)
    assert result.coords.shape == (60, 2)
    assert np.abs(result.row_perplexities - 10.0).max() <= 1e-3
    assert result.kl_final < result.kl_initial
    # blob structure survives the projection
    clusters = kmeans(result.coords, 3, seed=1).assignments.tolist()
    assert v_measure(labels, clusters) >= 0.9


def test_tsne_deterministic():
    points, _ = blobs(10, centers=(0.0, 5.0), d=3, seed=7)
    a = tsne(points, perplexity=5.0, iterations=60, seed=3)
    b = tsne(points, perplexity=5.0, iterations=60, seed=3)
    assert np.array_equal(a.coords, b.coords)
    c = tsne(points, perplexity=5.0, iterations=60, seed=4)
    assert not np.array_equal(a.coords, c.coords)


def test_tsne_perplexity_must_fit():
    points = np.random.default_rng(8).normal(size=(10, 3))
    with pytest.raises(ValueError, match="perplexity"):
        tsne(points, perplexity=10.0)


# ---------------------------------------------------------------------------
# samples, reports, sampling


def test_embedding_sample_validation():
    vecs = np.zeros((3, 2))
    with pytest.raises(ValueError, match="language annotations"):
        EmbeddingSample(vecs, ["a", "b"], ["x", "y", "z"])
    with pytest.raises(ValueError, match="label annotations"):
        EmbeddingSample(vecs, ["a", "b", "c"], labels=["x"])
    sample = EmbeddingSample(vecs, ["a", "b", "c"], ["x", "y", "z"])
    assert sample.annotation("language") == ["a", "b", "c"]
    assert sample.annotation("label") == ["x", "y", "z"]
    with pytest.raises(ValueError, match="unknown annotation"):
        sample.annotation("speaker")


def test_clustering_report_separated_languages():
    points, labels = blobs(10, centers=(0.0, 10.0, 20.0), seed=9)
    sample = EmbeddingSample(points, [f"l{i}" for i in labels],
                             ["X"] * len(labels))
    report = clustering_report(sample, "language", n_runs=10, seed=0)
    assert set(report) == {"annotation", "k", "per_run", "mean", "degenerate"}
    assert report["annotation"] == "language"
    assert report["k"] == 3
    assert len(report["per_run"]) == 10
    assert report["mean"] == pytest.approx(np.mean(report["per_run"]))
    assert report["mean"] >= 0.95
    assert not report["degenerate"]
    again = clustering_report(sample, "language", n_runs=10, seed=0)
    assert report["per_run"] == again["per_run"]


def test_clustering_report_single_value_is_degenerate():
    sample = EmbeddingSample(np.random.default_rng(10).normal(size=(8, 3)),
                             ["aa"] * 8, ["X", "Y"] * 4)
    report = clustering_report(sample, "language", n_runs=3)
    assert report["degenerate"] and report["k"] == 1
    # one class, one cluster: h = c = 1 by convention
    assert report["per_run"] == [1.0, 1.0, 1.0]


def test_plot_sample_quota_and_small_cells():
    rng = np.random.default_rng(11)
    languages = ["aa"] * 20 + ["ab"] * 2
    labels = ["X"] * 10 + ["Y"] * 10 + ["X"] * 2
    sample = EmbeddingSample(rng.normal(size=(22, 3)), languages, labels)
    picked = plot_sample(sample, "label_language", quota=4, seed=0)
    counts = Counter(zip(picked.labels, picked.languages))
    assert counts[("X", "aa")] == 4   # capped
    assert counts[("Y", "aa")] == 4   # capped
    assert counts[("X", "ab")] == 2   # kept whole
    by_lang = plot_sample(sample, "language", quota=4, seed=0)
    assert Counter(by_lang.languages) == {"aa": 4, "ab": 2}
    # sampled rows are original rows
    orig = {tuple(v) for v in sample.vectors}
    assert all(tuple(v) in orig for v in picked.vectors)


def test_plot_sample_deterministic_and_validated():
    rng = np.random.default_rng(12)
    sample = EmbeddingSample(rng.normal(size=(30, 2)), ["aa"] * 30, ["X"] * 30)
    a = plot_sample(sample, "language", quota=5, seed=0)
    b = plot_sample(sample, "language", quota=5, seed=0)
    assert np.array_equal(a.vectors, b.vectors)
    c = plot_sample(sample, "language", quota=5, seed=1)
    assert not np.array_equal(a.vectors, c.vectors)
    with pytest.raises(ValueError, match="quota"):
        plot_sample(sample, "language", quota=0)
    with pytest.raises(ValueError, match="unknown grouping"):
        plot_sample(sample, "speaker", quota=5)


def test_default_quotas_cover_all_tasks():
    assert set(DEFAULT_QUOTAS) == {"token_tag", "pair_inference", "lid"}
    assert all(q >= 1 for q in DEFAULT_QUOTAS.values())


# ---------------------------------------------------------------------------
# interop formats


def test_writers_match_per_value_repr(tmp_path):
    values = np.array([[0.1, -0.0, 1e-7, 3.0], [1e300, -2.5e-310, 7.0, 1 / 3]])
    sample = EmbeddingSample(values, ["aa", "ab"], ["X", "Y"])
    write_embedding_dump(tmp_path / "dump.txt", sample)
    want = "dim=4\n" + "".join(
        " ".join(repr(float(v)) for v in row) + f"\t{label}\t{lang}\n"
        for row, label, lang in zip(values, ["X", "Y"], ["aa", "ab"]))
    assert (tmp_path / "dump.txt").read_text() == want
    proj = EmbeddingSample(values[:, :2], ["aa", "ab"], ["X", "Y"])
    write_projection_csv(tmp_path / "proj.csv", proj)
    want = "x,y,label,language\n" + "".join(
        f"{float(x)!r},{float(y)!r},{label},{lang}\n"
        for (x, y), label, lang in zip(values[:, :2], ["X", "Y"], ["aa", "ab"]))
    assert (tmp_path / "proj.csv").read_text() == want
