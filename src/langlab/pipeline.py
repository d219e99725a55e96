"""End-to-end experiment orchestration.

Every command that touches the encoder runs here as a sequence of named
stages; the CLI only parses arguments and prints what these return:

    train      run_experiment         corpus, pretrain, train, probe,
                                      manifest, evaluate, analyze, bundle
    pretrain   run_pretraining        corpus, pretrain, manifest
    probe-lid  run_language_probe     corpus, pretrain, probe
    hpsearch   hyperparameter_search  corpus, pretrain, search
    analyze    reanalyze              analyze, corpus, checkpoints,
                                      evaluate, analyze, bundle

A PipelineConfig checks its own values, the encoder shape included,
when it is built; hpsearch checks its sample count before any stage.
The corpus stage (prepare_data) builds the corpora and splits and works
out, once per run, every corpus fact the later stages share: the
language index, the task spec and the pivot-language train/val, failing
on a pivot language the task corpus lacks.  Only then is the output
directory made.  The pretrain stage loads the configured checkpoint or
pretrains a fresh encoder (pretrain_encoder).  Artifacts go under the
configured output directory.  Any stage failure raises StageError
carrying the stage name; artifacts written before the failure stay on
disk for inspection.

The whole pipeline is a pure function of (input files, config): output
files are byte-identical across reruns with the same resolved config.
Stored scores are fractions in [0,1]; formatting as percentages happens
only at presentation time (format_delta_table).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

from langlab.analysis.reports import (
    EmbeddingSample,
    clustering_report,
    write_embedding_dump,
    write_projection_csv,
)
from langlab.analysis.sampling import plot_sample
from langlab.analysis.tsne import tsne
from langlab.checkpoint import load_checkpoint, load_encoder, save_checkpoint, save_encoder
from langlab.config import PipelineConfig, config_from_dict, manifest_id
from langlab.data.io import load_conllu, load_lid_paragraphs, load_nli_tsv
from langlab.data.split import filter_language, stratified_split
from langlab.data.synthetic import build_vocabulary, generate_corpus, make_language_specs
from langlab.data.types import CorpusSplit
from langlab.encoder import EncoderModel, mlm_pretrain
from langlab.heads import ClassifierHead
from langlab.training.batching import TaskSpec, task_spec_for
from langlab.training.evaluate import evaluate_task, head_f1, per_language_task_f1
from langlab.training.network import embed_examples
from langlab.training.regimes import ProbeRun, retrain_language_probe, run_regime
from langlab.training.search import grids_for_regime, random_search
from langlab.vocab import Vocabulary

BUNDLE_SCHEMA_VERSION = 1
PROJECTION_FILES = {"task": "projection-task.csv", "lid": "projection-lid.csv"}
EXPORT_KINDS = ("labels-task", "labels-lid", "languages-task", "languages-lid")
PRETRAINED_CHECKPOINT = "encoder-pretrained.ckpt"


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
                    + "\n", encoding="utf-8")


@dataclass
class ResultsBundle:
    data: dict
    root: Path

    @classmethod
    def load(cls, run_dir) -> "ResultsBundle":
        root = Path(run_dir)
        path = root / "bundle.json"
        if not path.exists():
            raise FileNotFoundError(f"no bundle.json under {root}")
        return cls(data=json.loads(path.read_text(encoding="utf-8")), root=root)

    def metric(self, path: str):
        """Dig a dotted path out of the metrics tree; None when absent.

        Leaf metric cells are {"value": v, "manifest": id}; returns v.
        """
        node = self.data.get("metrics", {})
        for part in path.split("."):
            if not isinstance(node, dict) or part not in node:
                return None
            node = node[part]
        if isinstance(node, dict) and "value" in node:
            return node["value"]
        return node if isinstance(node, (int, float)) else None


def load_corpora(cfg: PipelineConfig):
    """Return (vocab, task examples, lid examples) from files or synthesis."""
    if cfg.task_corpus_path or cfg.lid_corpus_path:
        if not (cfg.task_corpus_path and cfg.lid_corpus_path and cfg.vocab_path):
            raise ValueError(
                "file-based corpora need task_corpus_path, lid_corpus_path "
                "and vocab_path together"
            )
        vocab = Vocabulary.load(cfg.vocab_path)
        if cfg.task == "token_tag":
            task_examples = load_conllu(cfg.task_corpus_path, vocab)
        else:
            task_examples = load_nli_tsv(cfg.task_corpus_path, vocab)
        lid_examples = load_lid_paragraphs(cfg.lid_corpus_path, vocab)
        return vocab, task_examples, lid_examples
    specs = make_language_specs(cfg.n_languages, cfg.n_concepts,
                                cfg.overlap_fraction, seed=cfg.corpus_seed)
    vocab = build_vocabulary(specs)
    task_examples = generate_corpus(specs, cfg.task_examples_per_language,
                                    cfg.task, seed=cfg.corpus_seed, vocab=vocab)
    lid_examples = generate_corpus(specs, cfg.lid_examples_per_language,
                                   "lid", seed=cfg.corpus_seed + 1, vocab=vocab)
    return vocab, task_examples, lid_examples


class RunData(NamedTuple):
    """What the corpus stage hands every later stage: the corpus facts
    every regime, probe and evaluation of the run shares."""
    vocab: Vocabulary
    task_split: CorpusSplit
    lid_split: CorpusSplit
    task_spec: TaskSpec              # labels over every task example
    languages: tuple[str, ...]       # sorted LID-corpus languages
    lang_to_id: dict[str, int]
    pivot_train: tuple               # pivot-language task train
    pivot_val: tuple                 # pivot-language task val


def prepare_data(cfg: PipelineConfig) -> RunData:
    """Corpora, stratified splits and their indexes (split seed ties to
    the corpus, not the run, so paired runs see identical partitions).
    A pivot language with no task train or val examples fails here."""
    vocab, task_examples, lid_examples = load_corpora(cfg)
    task_split = stratified_split(task_examples, seed=cfg.corpus_seed)
    lid_split = stratified_split(lid_examples, seed=cfg.corpus_seed + 1)
    languages = tuple(sorted({ex.language for part in lid_split.parts
                              for ex in part}))
    task_spec = task_spec_for(cfg.task, [ex for part in task_split.parts
                                         for ex in part])
    pivot_train = filter_language(task_split.train, cfg.pivot_language)
    pivot_val = filter_language(task_split.val, cfg.pivot_language)
    if not pivot_train or not pivot_val:
        raise ValueError(f"no pivot-language ({cfg.pivot_language!r}) "
                         f"examples in task train/val")
    return RunData(vocab, task_split, lid_split, task_spec, languages,
                   {lang: i for i, lang in enumerate(languages)},
                   pivot_train, pivot_val)


def pretrain_encoder(cfg: PipelineConfig, data: RunData):
    """Load the configured checkpoint, checked against the corpus
    vocabulary, or MLM-pretrain on LID train data; (encoder, losses)."""
    if cfg.encoder_checkpoint:
        encoder = load_encoder(cfg.encoder_checkpoint)
        if encoder.config.vocab_size != len(data.vocab):
            raise ValueError(
                f"checkpoint vocab size {encoder.config.vocab_size} != "
                f"corpus vocab size {len(data.vocab)}"
            )
        return encoder, []
    fresh = EncoderModel.init(cfg.encoder_config(len(data.vocab)), seed=cfg.seed)
    return mlm_pretrain(fresh, data.lid_split.train, mask_rate=cfg.mask_rate,
                        steps=cfg.mlm_steps, batch_size=cfg.mlm_batch_size,
                        lr=cfg.mlm_lr, seed=cfg.seed)


def _cell(value: float, mid: str) -> dict:
    return {"value": float(value), "manifest": mid}


def _analyze_dataset(cfg: PipelineConfig, sample: EmbeddingSample, mid: str):
    reports = {a: clustering_report(sample, a, n_runs=cfg.kmeans_runs,
                                    seed=cfg.seed) | {"manifest": mid}
               for a in ("label", "language")}
    # perplexity must stay below the sample size; small toy samples clamp
    perplexity = min(cfg.tsne_perplexity, max(1.0, (len(sample) - 1) / 3.0))
    result = tsne(sample.vectors, perplexity=perplexity,
                  iterations=cfg.tsne_iterations, seed=cfg.seed)
    return reports, replace(sample, vectors=result.coords)


def _corpus_and_encoder(cfg: PipelineConfig, out: Path | None = None,
                        save: bool = False):
    """The first stages of train, pretrain, probe-lid and hpsearch: the
    corpus stage, then out is made (when given), then the pretrain
    stage; with save set, the encoder is saved as
    out / PRETRAINED_CHECKPOINT."""
    with _stage("corpus"):
        data = prepare_data(cfg)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    with _stage("pretrain"):
        encoder, losses = pretrain_encoder(cfg, data)
        if save:
            save_encoder(out / PRETRAINED_CHECKPOINT, encoder)
    return data, encoder, losses


def run_pretraining(cfg: PipelineConfig) -> tuple[Path, list]:
    """Pretrain (or load) the encoder, save it with pretrain-manifest.json;
    return the checkpoint path and the MLM losses."""
    out = Path(cfg.out_dir)
    _, _, losses = _corpus_and_encoder(cfg, out, save=True)
    with _stage("manifest"):
        cfg_dict = cfg.to_dict()
        _write_json(out / "pretrain-manifest.json", {
            "manifest_id": manifest_id(cfg_dict),
            "config": cfg_dict,
            "mlm_steps": len(losses),
            "mlm_final_loss": losses[-1] if losses else None,
            "checkpoint": PRETRAINED_CHECKPOINT,
        })
    return out / PRETRAINED_CHECKPOINT, losses


def run_language_probe(cfg: PipelineConfig) -> tuple[ProbeRun, tuple]:
    """Retrain the language probe against cfg.encoder_checkpoint; writes
    nothing.  Returns the ProbeRun and the corpus languages."""
    if not cfg.encoder_checkpoint:
        raise StageError("probe", "probe-lid needs --encoder-checkpoint "
                                  "(or encoder_checkpoint in the config)")
    data, encoder, _ = _corpus_and_encoder(cfg)
    with _stage("probe"):
        probe = retrain_language_probe(encoder, data, cfg)
    return probe, data.languages


def run_experiment(cfg: PipelineConfig) -> ResultsBundle:
    out = Path(cfg.out_dir)
    data, encoder, mlm_losses = _corpus_and_encoder(cfg, out, save=True)
    cfg_dict = cfg.to_dict()
    mid = manifest_id(cfg_dict)

    with _stage("train"):
        run = run_regime(encoder, data, cfg)
        save_encoder(out / "encoder-final.ckpt", run.encoder)

    with _stage("probe"):
        probe = retrain_language_probe(run.encoder, data, cfg)
        heads = {"task/w": run.task_head.w, "task/b": run.task_head.b,
                 "probe/w": probe.head.w, "probe/b": probe.head.b}
        if run.lang_head is not None:
            heads["lang/w"] = run.lang_head.w
            heads["lang/b"] = run.lang_head.b
        save_checkpoint(out / "heads.ckpt", heads,
                        meta={"d_model": run.encoder.config.d_model})

    with _stage("manifest"):
        manifest = {
            "manifest_id": mid,
            "config": cfg_dict,
            "seed": cfg.seed,
            "epoch_val_f1": [float(s) for s in run.epoch_val_f1],
            "selected_epoch": run.selected_epoch,
            "probe_epoch_val_f1": [float(s) for s in probe.epoch_val_f1],
            "probe_selected_epoch": probe.selected_epoch,
            "mlm_final_loss": float(mlm_losses[-1]) if mlm_losses else None,
            "checkpoint": "encoder-final.ckpt",
            "pretrained_checkpoint": PRETRAINED_CHECKPOINT,
            "heads_checkpoint": "heads.ckpt",
        }
        _write_json(out / "manifest.json", manifest)

    bundle_data = _measure_and_analyze(cfg, out, mid, run.encoder,
                                       run.task_head, probe.head, data,
                                       manifest)
    return ResultsBundle(data=bundle_data, root=out)


def _measure_and_analyze(cfg, out: Path, mid: str, encoder, task_head,
                         probe_head, data: RunData, manifest) -> dict:
    """Evaluation + analysis + bundle stages (shared by train and analyze).

    Each test split goes through the encoder once; F1 scores and plot
    samples are all read off those embeddings.
    """
    task_spec, languages = data.task_spec, data.languages
    with _stage("evaluate"):
        emb_task = embed_examples(encoder, data.task_split.test,
                                  task_spec.level, data.lang_to_id,
                                  task_spec.label_to_id)
        emb_lid = embed_examples(encoder, data.lid_split.test, "text",
                                 data.lang_to_id)
        task_f1 = per_language_task_f1(task_head, emb_task,
                                       task_spec.n_classes, languages)
        lid_task = head_f1(probe_head, emb_task.X, emb_task.lang_y,
                           len(languages))
        lid_lid = head_f1(probe_head, emb_lid.X, emb_lid.lang_y, len(languages))

    with _stage("analyze"):
        task_langs = [languages[int(y)] for y in emb_task.lang_y]
        full_task = EmbeddingSample(
            vectors=emb_task.X, languages=task_langs,
            labels=[task_spec.labels[int(y)] for y in emb_task.task_y])
        sample_task = plot_sample(full_task, "label_language",
                                  cfg.quota_task, seed=cfg.seed)
        lid_langs = [languages[int(y)] for y in emb_lid.lang_y]
        # a paragraph's task label is its language
        full_lid = EmbeddingSample(vectors=emb_lid.X, languages=lid_langs,
                                   labels=list(lid_langs))
        sample_lid = plot_sample(full_lid, "language", cfg.quota_lid,
                                 seed=cfg.seed)
        reports_task, proj_task = _analyze_dataset(cfg, sample_task, mid)
        reports_lid, proj_lid = _analyze_dataset(cfg, sample_lid, mid)
        write_projection_csv(out / PROJECTION_FILES["task"], proj_task)
        write_projection_csv(out / PROJECTION_FILES["lid"], proj_lid)
        write_embedding_dump(out / "embeddings-task.tsv", sample_task)
        write_embedding_dump(out / "embeddings-lid.tsv", sample_lid)

    with _stage("bundle"):
        column = "initial" if cfg.regime == "frozen_probe" else cfg.regime
        bundle = {
            "schema_version": BUNDLE_SCHEMA_VERSION,
            "manifest": mid,
            "column": column,
            "regime": cfg.regime,
            "task": cfg.task,
            "pivot_language": cfg.pivot_language,
            "languages": list(languages),
            "task_labels": list(task_spec.labels),
            "metrics": {
                "task_f1": {
                    "overall": _cell(task_f1["overall"], mid),
                    "per_language": {
                        lang: _cell(task_f1[lang], mid)
                        for lang in languages if lang in task_f1
                    },
                },
                "lid_f1_task_data": _cell(lid_task, mid),
                "lid_f1_lid_data": _cell(lid_lid, mid),
                "vmeasure": {
                    "task": {a: _cell(reports_task[a]["mean"], mid)
                             for a in ("label", "language")},
                    "lid": {a: _cell(reports_lid[a]["mean"], mid)
                            for a in ("label", "language")},
                },
            },
            "training": {
                "epoch_val_f1": manifest["epoch_val_f1"],
                "selected_epoch": manifest["selected_epoch"],
                "probe_epoch_val_f1": manifest["probe_epoch_val_f1"],
                "probe_selected_epoch": manifest["probe_selected_epoch"],
            },
            "cluster_reports": {"task": reports_task, "lid": reports_lid},
            "projections": dict(PROJECTION_FILES),
            "embedding_dumps": {"task": "embeddings-task.tsv",
                                "lid": "embeddings-lid.tsv"},
            "files": {"manifest": "manifest.json",
                      "encoder_final": "encoder-final.ckpt",
                      "encoder_pretrained": PRETRAINED_CHECKPOINT,
                      "heads": "heads.ckpt"},
        }
        _write_json(out / "bundle.json", bundle)
    return bundle


def reanalyze(run_dir) -> ResultsBundle:
    """Recompute evaluation + analysis + bundle from a finished run's
    checkpoints and manifest; byte-identical to the original bundle."""
    root = Path(run_dir)
    with _stage("analyze"):
        manifest_path = root / "manifest.json"
        if not manifest_path.exists():
            raise FileNotFoundError(f"no manifest.json under {root}")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    cfg = config_from_dict(manifest["config"])
    mid = manifest["manifest_id"]
    with _stage("corpus"):
        data = prepare_data(cfg)
    with _stage("checkpoints"):
        encoder = load_encoder(root / manifest["checkpoint"])
        arrays, _ = load_checkpoint(root / manifest["heads_checkpoint"])
        task_head = ClassifierHead(w=arrays["task/w"], b=arrays["task/b"])
        probe_head = ClassifierHead(w=arrays["probe/w"], b=arrays["probe/b"])
    bundle_data = _measure_and_analyze(cfg, root, mid, encoder, task_head,
                                       probe_head, data, manifest)
    return ResultsBundle(data=bundle_data, root=root)


METRIC_PATHS = (
    "task_f1.overall",
    "lid_f1_task_data",
    "lid_f1_lid_data",
    "vmeasure.task.label",
    "vmeasure.task.language",
    "vmeasure.lid.label",
    "vmeasure.lid.language",
)


def compare_runs(bundles: list[ResultsBundle]) -> dict:
    """Per-metric deltas against the first bundle, with provenance.

    Metrics absent from a bundle yield null deltas (an explicit gap
    marker), never zero.
    """
    if len(bundles) < 2:
        raise ValueError("need at least two bundles to compare")
    first = bundles[0].data
    for b in bundles[1:]:
        for key in ("task", "languages", "task_labels"):
            if b.data.get(key) != first.get(key):
                raise ValueError(
                    f"mismatched schemas: bundles disagree on {key!r}"
                )
    paths = list(METRIC_PATHS)
    per_lang = sorted(first.get("metrics", {})
                      .get("task_f1", {}).get("per_language", {}))
    paths.extend(f"task_f1.per_language.{lang}" for lang in per_lang)

    rows = []
    for path in paths:
        values = [b.metric(path) for b in bundles]
        base = values[0]
        deltas = [
            None if (v is None or base is None) else float(v) - float(base)
            for v in values[1:]
        ]
        rows.append({"metric": path, "values": values, "deltas": deltas})
    return {
        "baseline": first.get("manifest"),
        "manifests": [b.data.get("manifest") for b in bundles],
        "columns": [b.data.get("column") for b in bundles],
        "rows": rows,
    }


def format_delta_table(table: dict) -> str:
    """Plain-text rendering; fractions shown as percentages, one decimal."""
    def fmt(v):
        return "  --  " if v is None else f"{100.0 * v:6.1f}"

    cols = table["columns"]
    header = f"{'metric':34s} {cols[0] or 'base':>8s} " + " ".join(
        f"d:{c or '?':>6s}" for c in cols[1:]
    )
    lines = [header]
    for row in table["rows"]:
        cells = " ".join(fmt(d) for d in row["deltas"])
        lines.append(f"{row['metric']:34s} {fmt(row['values'][0]):>8s} {cells}")
    return "\n".join(lines)


def export_plot_data(bundle: ResultsBundle, which: str,
                     out_path=None) -> Path:
    """Copy the projection CSV for an annotation-dataset pair.

    which is one of labels-task, labels-lid, languages-task,
    languages-lid; the two annotations share one projection per dataset
    (same sampled points, different plot coloring downstream).
    """
    if which not in EXPORT_KINDS:
        raise StageError("export", f"unknown plot kind {which!r}; "
                                   f"expected one of {', '.join(EXPORT_KINDS)}")
    dataset = which.split("-")[1]
    rel = bundle.data.get("projections", {}).get(dataset)
    if rel is None:
        raise StageError("export", f"bundle has no {dataset!r} projection")
    src = bundle.root / rel
    if not src.exists():
        raise StageError("export", f"projection file missing: {src}")
    dest = Path(out_path) if out_path else bundle.root / f"plot-{which}.csv"
    dest.write_bytes(src.read_bytes())
    return dest


def hyperparameter_search(cfg: PipelineConfig, n_samples: int = 20) -> dict:
    """Random search for cfg.regime; candidates ranked by dev-set task F1.

    Corpus and pretraining are shared across candidates; only the
    regime-level hyperparameters vary.  Only the task head's score ranks
    candidates; cfg.seed seeds the draws and every candidate's training.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    out = Path(cfg.out_dir)
    data, encoder, _ = _corpus_and_encoder(cfg, out)

    def evaluate(sample: dict) -> float:
        run = run_regime(encoder, data, replace(cfg, **sample))
        scores = evaluate_task(run.encoder, run.task_head, data.task_split.dev,
                               data)
        return scores["overall"]

    with _stage("search"):
        grids = grids_for_regime(cfg.regime)
        result = random_search(grids, evaluate, n_samples=n_samples,
                               seed=cfg.seed)
        report = {
            "regime": cfg.regime,
            "grids": {k: list(v) for k, v in grids.items()},
            "n_samples": n_samples,
            "ranking": [
                {"rank": i + 1, "config": result.samples[j],
                 "dev_task_f1": result.dev_scores[j]}
                for i, j in enumerate(result.ranking)
            ],
        }
        _write_json(out / "hpsearch.json", report)
    return report
