"""Acceptance checks, one printed pass/fail line per criterion.

Each test exercises one end-to-end guarantee and prints
``criterion NN [PASS|FAIL] name: detail`` before asserting, so a full
run reports the status of every criterion even when one fails.

The two directional experiments (criteria 7 and 8) share one
module-scoped protocol: an 8-language synthetic corpus, MLM
pretraining, then all four regimes over three paired seeds.  Language
identification is scored the way the probing protocol defines it: the
probe is retrained on the final encoder and evaluated on the task test
data at the task's granularity, i.e. on the representations that
fine-tuning actually reshapes.  (LID on the held-out monolingual
paragraphs themselves stays near ceiling under every regime, because a
128-token paragraph over a language-specific vocabulary is trivially
identifiable; that number does not track the representation shift.)
"""

from __future__ import annotations

import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from langlab.analysis.kmeans import kmeans
from langlab.analysis.metrics import macro_f1, v_measure
from langlab.analysis.reports import EmbeddingSample, clustering_report
from langlab.analysis.sampling import plot_sample
from langlab.analysis.tsne import tsne
from langlab.config import PipelineConfig
from langlab.data.split import stratified_split
from langlab.data.synthetic import (
    build_vocabulary,
    generate_corpus,
    make_language_specs,
)
from langlab.encoder import (
    EncoderConfig,
    EncoderModel,
    backward_batch,
    forward_batch,
)
from langlab.heads import (
    ClassifierHead,
    ce_loss_and_dlogits,
    grad_reversal_backward,
    head_backward,
    head_logits,
    language_term_and_dlogits,
    softmax,
)
from langlab.pipeline import prepare_data, pretrain_encoder, run_experiment
from langlab.rng import stream
from langlab.training.batching import make_batch, task_spec_for
from langlab.training.evaluate import evaluate_lid, evaluate_task
from langlab.training.network import composite_step, embed_examples
from langlab.training.regimes import retrain_language_probe, run_regime

FD_H = 1e-5
FD_TOL = 1e-4
REGIMES = ("frozen_probe", "finetune", "grad_reversal", "entropy_max")


def _report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line, flush=True)
    return ok


# ----------------------------------------------------------------------------
# Shared scalar objectives (eval-mode forward; the checked configs use
# dropout 0.0, where the training forward computes identical values).
# ----------------------------------------------------------------------------

def _classified(enc, batch):
    """The vectors at batch.read, picked from a forward over every real
    token, so the objectives do not share the composite step's read-row
    path."""
    hidden, _ = forward_batch(enc, batch.ids, batch.lengths)
    rows, cols = batch.read
    return hidden[(np.cumsum(batch.lengths) - batch.lengths)[rows] + cols]


def _task_ce(enc, head, batch):
    X = _classified(enc, batch)
    loss, _ = ce_loss_and_dlogits(head_logits(head, X), batch.task_y)
    return loss


def _lang_ce(enc, head, lid_batch):
    X = _classified(enc, lid_batch)
    loss, _ = ce_loss_and_dlogits(head_logits(head, X), lid_batch.lang_y)
    return loss


def _lang_term(enc, head, batch):
    X = _classified(enc, batch)
    return language_term_and_dlogits(head_logits(head, X))[0]


def _tiny_world(n_layers: int, seed: int):
    """A 3-language corpus plus a d_model=8 encoder and both heads."""
    specs = make_language_specs(3, 12, 0.25, seed=7)
    vocab = build_vocabulary(specs)
    task_corpus = generate_corpus(specs, 6, "token_tag", seed=0, vocab=vocab)
    lid_corpus = generate_corpus(specs, 6, "lid", seed=1, vocab=vocab)
    lang_to_id = {l: i for i, l in
                  enumerate(sorted({ex.language for ex in lid_corpus}))}
    spec = task_spec_for("token_tag", task_corpus)

    pick = stream(seed, "accept-pick")
    task_batch = make_batch(
        [task_corpus[i] for i in pick.permutation(len(task_corpus))[:4]],
        spec.label_to_id, lang_to_id, spec.level)
    lid_batch = make_batch(
        [lid_corpus[i] for i in pick.permutation(len(lid_corpus))[:4]],
        None, lang_to_id, "text")

    cfg = EncoderConfig(vocab_size=len(vocab), d_model=8, n_layers=n_layers,
                        n_heads=2, d_ff=16, max_len=128, dropout=0.0)
    enc = EncoderModel.init(cfg, seed=seed)
    task_head = ClassifierHead.init(8, spec.n_classes, 1e-2, seed=seed + 20)
    lang_head = ClassifierHead.init(8, len(lang_to_id), 1e-2, seed=seed + 10,
                                    tag="lang")
    return enc, task_head, lang_head, task_batch, lid_batch


# ----------------------------------------------------------------------------
# Criterion 1: finite-difference gradient checks on the full model.
# ----------------------------------------------------------------------------

def _fd_worst_rel(pairs, objective) -> float:
    worst = 0.0
    for arr, grad in pairs:
        flat_a, flat_g = arr.ravel(), grad.ravel()
        for j in range(flat_a.size):
            orig = flat_a[j]
            flat_a[j] = orig + FD_H
            up = objective()
            flat_a[j] = orig - FD_H
            down = objective()
            flat_a[j] = orig
            fd = (up - down) / (2.0 * FD_H)
            worst = max(worst, abs(fd - flat_g[j]) / max(abs(fd), 1e-6))
    return worst


def test_criterion_01_gradient_finite_differences():
    enc, th, lh, task_batch, lid_batch = _tiny_world(n_layers=2, seed=0)
    t0 = time.time()

    def enc_task_pairs(grads):
        pairs = [(enc.params[k], grads[f"enc/{k}"]) for k in enc.params]
        return pairs + [(th.w, grads["task/w"]), (th.b, grads["task/b"])]

    plain = composite_step(enc, th, None, task_batch, None,
                           PipelineConfig(regime="finetune"),
                           stream(0, "c1"), None)[0]
    worst_plain = _fd_worst_rel(enc_task_pairs(plain),
                                lambda: _task_ce(enc, th, task_batch))

    lam, w = 0.5, 0.3
    grl = composite_step(enc, th, lh, task_batch, lid_batch,
                         PipelineConfig(regime="grad_reversal", grl_lambda=lam),
                         stream(0, "c1"), stream(0, "c1l"))[0]
    worst_grl = _fd_worst_rel(
        enc_task_pairs(grl),
        lambda: _task_ce(enc, th, task_batch) - lam * _lang_ce(enc, lh, lid_batch))
    worst_grl = max(worst_grl, _fd_worst_rel(
        [(lh.w, grl["lang/w"]), (lh.b, grl["lang/b"])],
        lambda: _lang_ce(enc, lh, lid_batch)))

    em = composite_step(enc, th, lh, task_batch, None,
                        PipelineConfig(regime="entropy_max", w=w),
                        stream(0, "c1"), None)[0]
    assert "lang/w" not in em
    worst_em = _fd_worst_rel(
        enc_task_pairs(em),
        lambda: (1.0 - w) * _task_ce(enc, th, task_batch)
                + w * _lang_term(enc, lh, task_batch))

    elapsed = time.time() - t0
    coords = sum(a.size for a, _ in enc_task_pairs(grl)) + lh.w.size + lh.b.size
    worst = max(worst_plain, worst_grl, worst_em)
    ok = worst <= FD_TOL and elapsed < 60.0
    detail = (f"worst rel {worst:.2e} (plain {worst_plain:.2e}, "
              f"grl {worst_grl:.2e}, entropy-max {worst_em:.2e}, tol 1e-4), "
              f"{coords} coordinates, {elapsed:.1f}s (budget 60)")
    assert _report(1, "gradient finite differences", ok, detail), detail


# ----------------------------------------------------------------------------
# Criterion 2: reversal-layer semantics.  The composite encoder gradient
# contribution of the language branch equals -lambda times its no-reversal
# gradient: bitwise for power-of-two lambdas (pure exponent shifts), and to
# 1e-12 of the gradient scale otherwise (analytically-zero coordinates such
# as key biases carry ~1e-16 cancellation noise that no relative
# per-coordinate bound survives).
# ----------------------------------------------------------------------------

def _lang_branch_grads(enc, lang_head, lid_batch, scale: float):
    # the branch reads position 0 only, as composite_step's forward does
    X, tape = forward_batch(enc, lid_batch.ids, lid_batch.lengths,
                            want_tape=True, read=lid_batch.read)
    _, d_logits = ce_loss_and_dlogits(head_logits(lang_head, X),
                                      lid_batch.lang_y)
    _, _, dX = head_backward(lang_head, X, d_logits)
    return backward_batch(enc, tape, scale * dX)


def test_criterion_02_gradient_reversal_semantics():
    lambdas = (0.0, 0.1, 0.5, 0.7)
    exact_lambdas = {0.0, 0.5}
    worst_ratio, failures = 0.0, []

    for seed in (0, 1, 2):
        enc, th, lh, task_batch, lid_batch = _tiny_world(n_layers=1, seed=seed)
        u = stream(seed, "accept-upstream").normal(size=(5, 8))
        g1 = _lang_branch_grads(enc, lh, lid_batch, 1.0)
        gscale = max(np.abs(g).max() for g in g1.values())

        for lam in lambdas:
            if not np.array_equal(grad_reversal_backward(u, lam), -lam * u):
                failures.append(f"layer op lambda={lam} seed {seed}")
            g2 = _lang_branch_grads(enc, lh, lid_batch, -lam)
            if lam in exact_lambdas:
                if not all(np.array_equal(g2[k], -lam * g1[k]) for k in g1):
                    failures.append(f"scaling lambda={lam} seed {seed}")
            else:
                err = max(np.abs(g2[k] - (-lam) * g1[k]).max() for k in g1)
                worst_ratio = max(worst_ratio, err / gscale)
                if err > 1e-12 * gscale:
                    failures.append(f"scaling lambda={lam} seed {seed}")

        full = composite_step(enc, th, lh, task_batch, lid_batch,
                              PipelineConfig(regime="grad_reversal",
                                             grl_lambda=0.5),
                              stream(9, "c2"), stream(9, "c2l"))[0]
        plain = composite_step(enc, th, None, task_batch, None,
                               PipelineConfig(regime="finetune"),
                               stream(9, "c2"), None)[0]
        rev = _lang_branch_grads(enc, lh, lid_batch, -0.5)
        if not all(np.array_equal(full[f"enc/{k}"], plain[f"enc/{k}"] + rev[k])
                   for k in rev):
            failures.append(f"composite assembly seed {seed}")

    ok = not failures
    detail = (f"3 nets x lambda {lambdas}: exact at {{0, 0.5}}, noise "
              f"{worst_ratio:.1e} of gradient scale elsewhere (tol 1e-12), "
              f"composite assembly bitwise"
              + (f"; FAILED {failures}" if failures else ""))
    assert _report(2, "gradient reversal semantics", ok, detail), detail


# ----------------------------------------------------------------------------
# Criterion 3: gradient descent on the language term alone reaches the
# uniform optimum, whose value is K ln K.
# ----------------------------------------------------------------------------

def test_criterion_03_language_term_optimum():
    K = 33
    logits = stream(3, "accept-logits").normal(0.0, 1.0, (1, K))
    for _ in range(5000):
        _, d_logits = language_term_and_dlogits(logits)
        logits = logits - 0.1 * d_logits

    gap = float(np.abs(softmax(logits) - 1.0 / K).max())
    term = language_term_and_dlogits(logits)[0]
    target = K * math.log(K)
    ok = gap <= 1e-3 and abs(term - target) <= 1e-3
    detail = (f"K={K}, 5000 steps at lr 0.1: max prob gap {gap:.1e} "
              f"(tol 1e-3), term {term:.9f} vs K ln K {target:.9f}")
    assert _report(3, "language term optimum", ok, detail), detail


# ----------------------------------------------------------------------------
# Criterion 4: metric oracles.  Brute-force reimplementations, written
# independently of the shipped metrics: macro F1 from per-class
# precision/recall counts, V-measure from mutual information.
# ----------------------------------------------------------------------------

def _reference_macro_f1(predictions, golds, class_set) -> float:
    f1s = []
    for cls in class_set:
        tp = sum(1 for p, g in zip(predictions, golds) if p == cls and g == cls)
        fp = sum(1 for p, g in zip(predictions, golds) if p == cls and g != cls)
        fn = sum(1 for p, g in zip(predictions, golds) if p != cls and g == cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2.0 * precision * recall / (precision + recall)
                   if precision + recall else 0.0)
    return sum(f1s) / len(f1s)


def _reference_v_measure(gold_classes, clusters) -> float:
    n = len(gold_classes)
    class_counts = Counter(gold_classes)
    cluster_counts = Counter(clusters)
    joint = Counter(zip(gold_classes, clusters))

    def entropy(counts):
        return -sum((c / n) * math.log(c / n) for c in counts.values())

    mi = sum((c / n) * math.log(c * n / (class_counts[a] * cluster_counts[b]))
             for (a, b), c in joint.items())
    h_class, h_cluster = entropy(class_counts), entropy(cluster_counts)
    homogeneity = 1.0 if h_class == 0 else mi / h_class
    completeness = 1.0 if h_cluster == 0 else mi / h_cluster
    if homogeneity + completeness == 0:
        return 0.0
    return 2.0 * homogeneity * completeness / (homogeneity + completeness)


def test_criterion_04_metric_oracles():
    rng = stream(4, "accept-oracles")
    worst_v, worst_f1 = 0.0, 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        n_classes = int(rng.integers(1, 5))
        n_clusters = int(rng.integers(1, 5))
        golds = [int(g) for g in rng.integers(0, n_classes, n)]
        preds = [int(p) for p in rng.integers(0, n_clusters, n)]
        worst_v = max(worst_v, abs(v_measure(golds, preds)
                                   - _reference_v_measure(golds, preds)))
        worst_f1 = max(worst_f1, abs(macro_f1(preds, golds, n_classes)
                                     - _reference_macro_f1(
                                         preds, golds, tuple(range(n_classes)))))
    ok = worst_v <= 1e-9 and worst_f1 <= 1e-9
    detail = (f"1000 instances (n<=12, <=4 classes, <=4 clusters): "
              f"v-measure max diff {worst_v:.1e}, macro-F1 max diff "
              f"{worst_f1:.1e} (tol 1e-9)")
    assert _report(4, "metric oracles", ok, detail), detail


# ----------------------------------------------------------------------------
# Criterion 5: k-means convergence behavior and blob recovery.
# ----------------------------------------------------------------------------

def test_criterion_05_kmeans_behavior():
    rng = stream(5, "accept-kmeans")
    worst_increase = -np.inf
    for i in range(100):
        n = int(rng.integers(5, 41))
        k = int(rng.integers(1, min(n, 6) + 1))
        points = rng.normal(0.0, 1.0, (n, int(rng.integers(1, 7))))
        trace = kmeans(points, k, seed=i).sse_trace
        if len(trace) > 1:
            worst_increase = max(worst_increase, float(np.max(np.diff(trace))))

    labels = np.repeat(np.arange(3), 60)
    centers = stream(5, "accept-blob-centers").normal(0.0, 1.0, (3, 64)) * 10.0
    points = centers[labels] + stream(5, "accept-blob-noise").normal(
        0.0, 1.0, (180, 64))
    mean_v = float(np.mean([v_measure(labels, kmeans(points, 3, seed=s).assignments)
                            for s in range(10)]))

    ok = worst_increase <= 1e-9 and mean_v > 0.95
    detail = (f"SSE max increase {worst_increase:.1e} over 100 instances "
              f"(tol 1e-9), separable-blob 10-run mean V {mean_v:.3f} "
              f"(need > 0.95)")
    assert _report(5, "kmeans behavior", ok, detail), detail


# ----------------------------------------------------------------------------
# Criterion 6: t-SNE calibration, objective decrease, and blob recovery
# at 2,000 points.
# ----------------------------------------------------------------------------

def test_criterion_06_tsne_behavior():
    labels = np.repeat(np.arange(3), [667, 667, 666])
    centers = stream(6, "accept-tsne-centers").normal(0.0, 1.0, (3, 16)) * 10.0
    points = centers[labels] + stream(6, "accept-tsne-noise").normal(
        0.0, 1.0, (2000, 16))

    t0 = time.time()
    result = tsne(points, perplexity=30.0, iterations=1000, seed=0)
    elapsed = time.time() - t0

    perp_gap = float(np.abs(result.row_perplexities - 30.0).max())
    blob_v = v_measure(labels, kmeans(result.coords, 3, seed=0).assignments)
    ok = (perp_gap <= 1e-3 and result.kl_final < result.kl_initial
          and blob_v > 0.9 and elapsed < 300.0)
    detail = (f"2000 points: perplexity gap {perp_gap:.1e} (tol 1e-3), "
              f"KL {result.kl_initial:.3f}->{result.kl_final:.3f}, "
              f"blob V {blob_v:.3f} (need > 0.9), {elapsed:.0f}s (budget 300)")
    assert _report(6, "tsne behavior", ok, detail), detail


# ----------------------------------------------------------------------------
# Criteria 7 and 8: the directional experiment, shared by both tests.
# ----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def protocol():
    timings = {}
    t0 = time.time()
    # the CLI defaults: 8 languages x 60 concepts, 480 token-tagging and
    # 240 LID examples per language, pivot "aa", a 64-wide 2-layer
    # encoder pretrained for 1500 masked-token steps
    base = PipelineConfig()
    data = prepare_data(base)
    task_split, task_spec = data.task_split, data.task_spec
    languages, lang_to_id = data.languages, data.lang_to_id
    timings["data"] = time.time() - t0

    t0 = time.time()
    pretrained, _ = pretrain_encoder(base, data)
    timings["pretrain"] = time.time() - t0

    def experiment(regime, seed):
        kw = dict(task="token_tag", pivot_language="aa", init_std=1e-2,
                  batch_size=32, head_lr=1e-1, encoder_lr=7e-3, epochs=5,
                  seed=seed)
        if regime == "grad_reversal":
            kw["grl_lambda"] = 0.1
        if regime == "entropy_max":
            kw["w"] = 0.7
        return PipelineConfig(regime=regime, **kw)

    def vmeasure_pair(encoder, seed):
        emb = embed_examples(encoder, task_split.test, "token", lang_to_id,
                             task_spec.label_to_id)
        sample = plot_sample(
            EmbeddingSample(emb.X,
                            [languages[int(y)] for y in emb.lang_y],
                            [task_spec.labels[int(y)] for y in emb.task_y]),
            "label_language", 10, seed=seed)
        return (clustering_report(sample, "label", n_runs=10, seed=seed)["mean"],
                clustering_report(sample, "language", n_runs=10,
                                  seed=seed)["mean"])

    rows = {}
    for seed in (0, 1, 2):
        for regime in REGIMES:
            cfg = experiment(regime, seed)
            t0 = time.time()
            run = run_regime(pretrained, data, cfg)
            probe = retrain_language_probe(run.encoder, data, cfg).heads["probe"]
            row = {
                "task_f1": evaluate_task(run.encoder, run.heads["task"],
                                         task_split.test, data)["overall"],
                "lid_f1": evaluate_lid(run.encoder, probe, task_split.test,
                                       task_spec.level, lang_to_id),
            }
            if regime in ("frozen_probe", "finetune"):
                row["v_label"], row["v_lang"] = vmeasure_pair(run.encoder,
                                                              seed)
            timings[f"{regime}-{seed}"] = time.time() - t0
            rows[(regime, seed)] = row
    return {"rows": rows, "timings": timings, "seeds": (0, 1, 2)}


def test_criterion_07_finetuning_shifts_representations(protocol):
    rows, timings = protocol["rows"], protocol["timings"]
    checks, details = [], []
    for seed in protocol["seeds"]:
        frozen = rows[("frozen_probe", seed)]
        tuned = rows[("finetune", seed)]
        d_task = tuned["task_f1"] - frozen["task_f1"]
        d_lid = frozen["lid_f1"] - tuned["lid_f1"]
        checks += [d_task >= 0.05, d_lid >= 0.10,
                   tuned["v_lang"] < frozen["v_lang"],
                   tuned["v_label"] > frozen["v_label"]]
        details.append(
            f"seed {seed} dTask {d_task:+.3f} dLID {d_lid:+.3f} "
            f"vLang {frozen['v_lang']:.2f}->{tuned['v_lang']:.2f} "
            f"vLabel {frozen['v_label']:.2f}->{tuned['v_label']:.2f}")
    elapsed = timings["data"] + timings["pretrain"] + sum(
        timings[f"{r}-{s}"] for r in ("frozen_probe", "finetune")
        for s in protocol["seeds"])
    checks.append(elapsed < 900.0)
    ok = all(checks)
    detail = ("; ".join(details)
              + f"; need dTask >= +0.05, dLID >= +0.10; "
              + f"{elapsed:.0f}s (budget 900)")
    assert _report(7, "finetuning shifts representations", ok, detail), detail


def test_criterion_08_adversarial_regimes(protocol):
    rows, timings = protocol["rows"], protocol["timings"]
    checks, details = [], []
    for seed in protocol["seeds"]:
        tuned = rows[("finetune", seed)]
        for regime, short in (("grad_reversal", "gr"), ("entropy_max", "em")):
            row = rows[(regime, seed)]
            checks += [row["lid_f1"] <= tuned["lid_f1"],
                       row["task_f1"] <= tuned["task_f1"]]
            details.append(
                f"seed {seed} {short} lid {row['lid_f1']:.3f}<="
                f"{tuned['lid_f1']:.3f} task {row['task_f1']:.3f}<="
                f"{tuned['task_f1']:.3f}")
    elapsed = timings["data"] + timings["pretrain"] + sum(
        timings[f"{r}-{s}"]
        for r in ("finetune", "grad_reversal", "entropy_max")
        for s in protocol["seeds"])
    checks.append(elapsed < 1200.0)
    ok = all(checks)
    detail = "; ".join(details) + f"; {elapsed:.0f}s (budget 1200)"
    assert _report(8, "adversarial regimes", ok, detail), detail


# ----------------------------------------------------------------------------
# Criterion 9: exact stratified splitting at scale.
# ----------------------------------------------------------------------------

def test_criterion_09_stratified_splitter():
    specs = make_language_specs(8, 60, 0.25, seed=0)
    corpus = generate_corpus(specs, 5000, "lid", seed=2,
                             vocab=build_vocabulary(specs))
    languages = sorted({ex.language for ex in corpus})
    corpus_ids = Counter(map(id, corpus))

    ok = True
    for seed in range(100):
        split = stratified_split(corpus, seed=seed)
        for part, want in zip(split.parts, (3500, 500, 500, 500)):
            counts = Counter(ex.language for ex in part)
            ok = ok and all(counts[l] == want for l in languages)
            ok = ok and len(part) == want * len(languages)
        seen = Counter(id(ex) for part in split.parts for ex in part)
        ok = ok and seen == corpus_ids
        if not ok:
            break

    detail = ("8 languages x 5000: every language 3500/500/500/500 and "
              "exact partition of the corpus, 100 seeds")
    assert _report(9, "stratified splitter", ok, detail), detail


# ----------------------------------------------------------------------------
# Criterion 10: byte-identical pipeline reruns.
# ----------------------------------------------------------------------------

def _accept_pipeline_cfg(out_dir: str) -> PipelineConfig:
    return PipelineConfig(
        regime="frozen_probe", task="token_tag", pivot_language="aa",
        init_std=1e-2, batch_size=16, head_lr=1e-2, encoder_lr=1e-3,
        epochs=2, seed=0,
        d_model=16, n_layers=1, n_heads=2, d_ff=32, dropout=0.1,
        mlm_steps=40, mlm_batch_size=16,
        n_languages=3, n_concepts=30,
        task_examples_per_language=40, lid_examples_per_language=30,
        out_dir=out_dir,
        kmeans_runs=3, tsne_perplexity=5.0, tsne_iterations=60,
    )


def _dir_bytes(root) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def test_criterion_10_pipeline_determinism(tmp_path):
    out = tmp_path / "run"
    run_experiment(_accept_pipeline_cfg(str(out)))
    first = _dir_bytes(out)
    run_experiment(_accept_pipeline_cfg(str(out)))
    second = _dir_bytes(out)

    ok = (sorted(first) == sorted(second)
          and all(first[k] == second[k] for k in first)
          and len(first) >= 9)
    detail = f"{len(first)} artifact files byte-identical across reruns"
    assert _report(10, "pipeline determinism", ok, detail), detail
