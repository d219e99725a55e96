"""Spans around langlab's public functions, from outside the program.

``Tracer.install`` replaces each target function, in every ``langlab``
module that holds it (``from x import y`` copies the name), with a
wrapper that records a span: name, start, end, parent span and a few
shape attributes.  Spans stay in memory; ``layer_metrics`` turns them
into the per-layer metrics.  A span's self time is its duration minus
the durations of its child spans.

``install_taps`` wraps two pipeline-level calls in every run, traced or
not, to keep values no run file holds for every workload: the t-SNE KL
divergences, the points t-SNE was given, and the final MLM loss.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import statistics
import sys
import time

# (module, function) -> span name.  The span name's first part is the
# layer the metrics report it under.
TARGETS = {
    ("langlab.pipeline", "prepare_data"): "pipeline.prepare_data",
    ("langlab.pipeline", "pretrain_encoder"): "pipeline.pretrain_encoder",
    ("langlab.data.synthetic", "make_language_specs"): "data.make_language_specs",
    ("langlab.data.synthetic", "build_vocabulary"): "data.build_vocabulary",
    ("langlab.data.synthetic", "generate_corpus"): "data.generate_corpus",
    ("langlab.data.split", "stratified_split"): "data.stratified_split",
    ("langlab.data.split", "filter_language"): "data.filter_language",
    ("langlab.data.io", "load_conllu"): "data.load_conllu",
    ("langlab.data.io", "load_nli_tsv"): "data.load_nli_tsv",
    ("langlab.data.io", "load_lid_paragraphs"): "data.load_lid_paragraphs",
    ("langlab.encoder", "mlm_step_loss"): "encoder.mlm_step_loss",
    ("langlab.encoder", "forward_batch"): "encoder.forward_batch",
    ("langlab.encoder", "backward_batch"): "encoder.backward_batch",
    ("langlab.optim", "adam_step"): "optim.adam_step",
    ("langlab.heads", "head_logits"): "heads.head_logits",
    ("langlab.heads", "head_backward"): "heads.head_backward",
    ("langlab.heads", "ce_loss_and_dlogits"): "heads.ce_loss_and_dlogits",
    ("langlab.heads", "language_term_and_dlogits"): "heads.language_term_and_dlogits",
    ("langlab.training.network", "composite_step"): "training.composite_step",
    ("langlab.training.network", "embed_examples"): "training.embed_examples",
    ("langlab.training.regimes", "run_regime"): "training.run_regime",
    ("langlab.training.regimes", "retrain_language_probe"): "training.retrain_language_probe",
    ("langlab.training.search", "random_search"): "training.random_search",
    ("langlab.training.evaluate", "evaluate_task"): "training.evaluate_task",
    ("langlab.training.evaluate", "evaluate_lid"): "training.evaluate_lid",
    ("langlab.analysis.tsne", "tsne"): "analysis.tsne",
    ("langlab.analysis.tsne", "joint_probabilities"): "analysis.joint_probabilities",
    ("langlab.analysis.kmeans", "kmeans"): "analysis.kmeans",
    ("langlab.analysis.metrics", "v_measure"): "analysis.v_measure",
    ("langlab.analysis.metrics", "macro_f1"): "analysis.macro_f1",
    ("langlab.analysis.sampling", "plot_sample"): "analysis.plot_sample",
    ("langlab.analysis.reports", "clustering_report"): "analysis.clustering_report",
    ("langlab.analysis.reports", "write_embedding_dump"): "analysis.write_embedding_dump",
    ("langlab.analysis.reports", "write_projection_csv"): "analysis.write_projection_csv",
    ("langlab.checkpoint", "save_checkpoint"): "checkpoint.save_checkpoint",
    ("langlab.checkpoint", "load_checkpoint"): "checkpoint.load_checkpoint",
    ("langlab.checkpoint", "save_encoder"): "checkpoint.save_encoder",
    ("langlab.checkpoint", "load_encoder"): "checkpoint.load_encoder",
}

# Pipeline stage of a top-level span (one with no traced parent).
STAGES = {
    "corpus": ("pipeline.prepare_data",),
    "pretrain": ("pipeline.pretrain_encoder",),
    "train": ("training.run_regime", "training.random_search"),
    "probe": ("training.retrain_language_probe",),
    "evaluate": ("training.evaluate_task", "training.evaluate_lid"),
    "analyze": ("training.embed_examples", "analysis.plot_sample",
                "analysis.clustering_report", "analysis.tsne",
                "analysis.write_embedding_dump", "analysis.write_projection_csv"),
}


def _replace_everywhere(original, replacement) -> int:
    """Point every langlab module's reference to original at replacement."""
    count = 0
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("langlab") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


# ----------------------------------------------------------------------------
# Shape attributes, computed before (describe) or after (finish) a call
# ----------------------------------------------------------------------------

def encoder_flops(cfg, B: int, T: int) -> int:
    """Matmul FLOPs of one encoder forward pass at batch shape (B, T):
    Q/K/V/output projections, scores and context, and the feed-forward."""
    d, ff = cfg.d_model, cfg.d_ff
    per_layer = 2 * B * T * (4 * d * d + 2 * d * ff) + 4 * B * T * T * d
    return cfg.n_layers * per_layer


# Full N x N float64 arrays the current exact t-SNE allocates in one
# gradient iteration: pairwise distances (5), Student-t numerator and Q
# (4), exaggerated P, P - Q, W and diag(rowsum W) - W (4 after the
# exaggeration window).
TSNE_NXN_ARRAYS_PER_ITER = 14


def _forward_attrs(args, kwargs):
    model, ids, lengths = args[0], args[1], args[2]
    B, T = ids.shape
    return {"B": B, "T": T, "real": int(sum(int(n) for n in lengths)),
            "tape": bool(kwargs.get("want_tape", False)),
            "flops": encoder_flops(model.config, B, T)}


def _backward_attrs(args, kwargs):
    model, d_hidden = args[0], args[2]
    B, T = d_hidden.shape[:2]
    return {"flops": 2 * encoder_flops(model.config, B, T)}


def _adam_attrs(args, kwargs):
    grads = args[1]
    return {"elements": int(sum(g.size for g in grads.values()))}


def _embed_attrs(args, kwargs):
    model, examples, level = args[0], args[1], args[2]
    digest = hashlib.blake2b(digest_size=16)
    for name in sorted(model.params):
        digest.update(name.encode())
        digest.update(model.params[name].tobytes())
    key = (digest.hexdigest(), level, tuple(id(ex) for ex in examples))
    return {"examples": len(examples), "key": hash(key)}


def _tsne_attrs(args, kwargs):
    iterations = kwargs.get("iterations", args[2] if len(args) > 2 else 1000)
    return {"N": len(args[0]), "iterations": int(iterations)}


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


DESCRIBE = {
    "encoder.forward_batch": _forward_attrs,
    "encoder.backward_batch": _backward_attrs,
    "optim.adam_step": _adam_attrs,
    "training.embed_examples": _embed_attrs,
    "analysis.tsne": _tsne_attrs,
    "checkpoint.load_checkpoint": lambda args, kwargs: {"bytes": _file_size(args[0])},
}
FINISH = {
    "analysis.kmeans": lambda args, result: {"iters": int(result.n_iter)},
    "checkpoint.save_checkpoint": lambda args, result: {"bytes": _file_size(args[0])},
}


class Tracer:
    """Records spans in memory: [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        describe, finish = DESCRIBE.get(name), FINISH.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = describe(args, kwargs) if describe else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if finish:
                span[4] = finish(args, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target; return those the program no longer has, whose
        metrics then read 0."""
        missing = []
        for (modname, fname), name in TARGETS.items():
            try:
                original = getattr(importlib.import_module(modname), fname)
            except (ImportError, AttributeError):
                missing.append(f"{modname}.{fname}")
                continue
            _replace_everywhere(original, self.wrap(name, original))
        return missing


def install_taps(taps: dict, samples: list) -> None:
    """Keep t-SNE KL values and the final MLM loss of the timed command in
    taps, and the points of each t-SNE call in samples."""
    import langlab.pipeline as pipeline

    taps["tsne"] = []
    taps["mlm_final_loss"] = None
    tsne, pretrain = pipeline.tsne, pipeline.pretrain_encoder

    def tapped_tsne(*args, **kwargs):
        result = tsne(*args, **kwargs)
        samples.append(args[0])
        taps["tsne"].append({"N": len(args[0]), "kl_initial": result.kl_initial,
                             "kl_final": result.kl_final})
        return result

    def tapped_pretrain(*args, **kwargs):
        encoder, losses = pretrain(*args, **kwargs)
        if losses:
            taps["mlm_final_loss"] = float(losses[-1])
        return encoder, losses

    pipeline.tsne = tapped_tsne
    pipeline.pretrain_encoder = tapped_pretrain


# ----------------------------------------------------------------------------
# Spans -> per-layer metrics
# ----------------------------------------------------------------------------

def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[list], wall: float) -> dict:
    """Per-layer metrics of one traced command from its spans."""
    dur = [s[2] - s[1] for s in spans]
    child_s = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_s[s[3]] += dur[i]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(*names):
        return [i for n in names for i in by_name.get(n, [])]

    def outer(*names):
        """Spans of these names not nested in another span of them."""
        keep = []
        for i in idx(*names):
            p = spans[i][3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                keep.append(i)
        return keep

    def total(*names):
        return sum(dur[i] for i in outer(*names))

    def attr(indices, key):
        return sum(spans[i][4][key] for i in indices)

    m: dict[str, float] = {}
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    for stage, names in STAGES.items():
        m[f"pipeline.{stage}_s"] = sum(dur[i] for i in roots if spans[i][0] in names)
    # checkpoint saves sit at top level between the stages that call them
    m["pipeline.checkpoint_s"] = sum(
        dur[i] for i in roots if spans[i][0].startswith("checkpoint."))
    m["pipeline.untraced_s"] = wall - sum(dur[i] for i in roots)

    steps = idx("encoder.mlm_step_loss")
    step_ms = [1e3 * dur[i] for i in steps]
    m["encoder.mlm_step_ms_p50"] = _percentile(step_ms, 50)
    m["encoder.mlm_step_ms_p95"] = _percentile(step_ms, 95)
    m["encoder.mlm_steps"] = len(steps)
    m["encoder.mlm_step_self_ms"] = _percentile(
        [1e3 * (dur[i] - child_s[i]) for i in steps], 50)

    forwards = idx("encoder.forward_batch")
    taped = [i for i in forwards if spans[i][4]["tape"]]
    untaped = [i for i in forwards if not spans[i][4]["tape"]]
    backwards = idx("encoder.backward_batch")
    m["encoder.forward_train_s"] = sum(dur[i] for i in taped)
    m["encoder.forward_train_calls"] = len(taped)
    m["encoder.backward_s"] = sum(dur[i] for i in backwards)
    m["encoder.backward_calls"] = len(backwards)
    m["encoder.forward_eval_s"] = sum(dur[i] for i in untaped)
    m["encoder.forward_eval_calls"] = len(untaped)
    real = attr(forwards, "real")
    padded = sum(spans[i][4]["B"] * spans[i][4]["T"] for i in forwards)
    m["encoder.real_tokens"] = real
    m["encoder.padded_tokens"] = padded
    m["encoder.pad_efficiency"] = real / padded if padded else 0.0
    gflop = (attr(forwards, "flops") + attr(backwards, "flops")) / 1e9
    busy = sum(dur[i] for i in forwards + backwards)
    m["encoder.gflop"] = gflop
    m["encoder.gflop_per_s"] = gflop / busy if busy else 0.0

    adam = idx("optim.adam_step")
    elements = attr(adam, "elements")
    m["optim.adam_s"] = sum(dur[i] for i in adam)
    m["optim.adam_calls"] = len(adam)
    m["optim.adam_elements"] = elements
    m["optim.adam_ns_per_elem"] = 1e9 * m["optim.adam_s"] / elements if elements else 0.0

    m["heads.s"] = total("heads.head_logits", "heads.head_backward",
                         "heads.ce_loss_and_dlogits",
                         "heads.language_term_and_dlogits")

    comp = idx("training.composite_step")
    comp_ms = [1e3 * dur[i] for i in comp]
    m["training.composite_step_ms_p50"] = _percentile(comp_ms, 50)
    m["training.composite_step_ms_p95"] = _percentile(comp_ms, 95)
    m["training.composite_steps"] = len(comp)
    m["training.composite_step_self_ms"] = _percentile(
        [1e3 * (dur[i] - child_s[i]) for i in comp], 50)

    embeds = idx("training.embed_examples")
    m["training.embed_s"] = total("training.embed_examples")
    m["training.embed_calls"] = len(embeds)
    m["training.embedded_examples"] = attr(embeds, "examples")
    unique = len({spans[i][4]["key"] for i in embeds})
    m["training.embed_unique_share"] = unique / len(embeds) if embeds else 0.0
    m["training.probe_trainings"] = len(idx("training.retrain_language_probe"))

    tsne = outer("analysis.tsne")
    iters = attr(tsne, "iterations")
    m["analysis.tsne_s"] = sum(dur[i] for i in tsne)
    m["analysis.tsne_points"] = attr(tsne, "N")
    m["analysis.tsne_affinity_s"] = total("analysis.joint_probabilities")
    m["analysis.tsne_iter_ms"] = (
        1e3 * (m["analysis.tsne_s"] - m["analysis.tsne_affinity_s"]) / iters
        if iters else 0.0)
    m["analysis.tsne_bytes_per_iter"] = (
        sum(spans[i][4]["iterations"] * 8 * TSNE_NXN_ARRAYS_PER_ITER
            * spans[i][4]["N"] ** 2 for i in tsne) / iters if iters else 0.0)

    km = idx("analysis.kmeans")
    m["analysis.kmeans_s"] = sum(dur[i] for i in km)
    m["analysis.kmeans_calls"] = len(km)
    m["analysis.kmeans_iters"] = attr(km, "iters")
    m["analysis.v_measure_s"] = total("analysis.v_measure")
    m["analysis.macro_f1_s"] = total("analysis.macro_f1")
    m["analysis.macro_f1_calls"] = len(idx("analysis.macro_f1"))
    m["analysis.sample_s"] = total("analysis.plot_sample")
    m["analysis.dump_s"] = total("analysis.write_embedding_dump",
                                 "analysis.write_projection_csv")

    m["data.generate_s"] = total("data.make_language_specs",
                                 "data.build_vocabulary", "data.generate_corpus")
    m["data.split_s"] = total("data.stratified_split", "data.filter_language")
    m["data.load_s"] = total("data.load_conllu", "data.load_nli_tsv",
                             "data.load_lid_paragraphs")

    m["checkpoint.save_s"] = total("checkpoint.save_encoder",
                                   "checkpoint.save_checkpoint")
    m["checkpoint.load_s"] = total("checkpoint.load_encoder",
                                   "checkpoint.load_checkpoint")
    m["checkpoint.bytes"] = attr(idx("checkpoint.save_checkpoint",
                                     "checkpoint.load_checkpoint"), "bytes")
    return m
