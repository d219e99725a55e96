"""End-to-end experiment orchestration.

Every command that touches the encoder runs here as a sequence of named
stages; the CLI only parses arguments and prints what these return:

    train      run_experiment         out_dir, corpus, pretrain, train,
                                      probe, manifest, evaluate, analyze,
                                      bundle
    pretrain   run_pretraining        out_dir, corpus, pretrain, manifest
    hpsearch   hyperparameter_search  out_dir, corpus, pretrain, search
    analyze    reanalyze              analyze, corpus, checkpoints,
                                      evaluate, analyze, bundle

A PipelineConfig checks its own values, the encoder shape included, when
it is built; hpsearch checks its sample count before any stage.  The
corpus stage (prepare_data) builds the corpora and splits and works out,
once per run, every corpus fact the later stages share: the language
index, the task spec and the pivot-language train/val, failing on a
pivot language the task corpus lacks or a task-corpus language the LID
corpus lacks.  The pretrain stage (pretrain_encoder) checks the run's
encoder config against the corpora's longest sequence, then pretrains a
fresh encoder of that config or loads the configured checkpoint through
checkpoint.load_encoder, which refuses one of another config or
vocabulary.  Artifacts go under the configured output directory, which
is made only when the first of them is written: the pretrained
checkpoint (train, pretrain) or hpsearch.json, so a corpus- or
pretrain-stage failure leaves nothing on disk.  One directory holds one
run: before the corpus stage, train, pretrain and hpsearch refuse an
output directory that is a file (or lies under one), or whose
manifest.json, pretrain-manifest.json or hpsearch.json holds another
manifest id ([out_dir]).  Run records are read back through
files.read_json, which names a file that is not a JSON object.  analyze
reads the manifest's config and manifest id ([analyze]), rebuilds the
corpus from that config and loads the final encoder through the same
load_encoder ([checkpoints]).  A run record holds each fact once: file
names are fixed here, not recorded.  manifest.json and
pretrain-manifest.json name the numerics the run computed with (the
numpy and scipy versions and the BLAS thread count, process.numerics);
they are not part of the manifest id.  A bundle is the dict bundle.json
holds: train and analyze return it, and compare reads it back through
load_bundle, which names a bundle.json whose metrics tree is not made
of JSON objects; compare_runs checks the bundles it is given the same
way.  Every file is written whole (files.write_file).  Any
stage failure raises StageError carrying the stage name; artifacts
written before the failure stay on disk for inspection.

The whole pipeline is a pure function of (input files, config): output
files are byte-identical across reruns with the same resolved config.
Stored scores are fractions in [0,1]; formatting as percentages happens
only at presentation time (format_delta_table).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
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
from langlab.files import read_json, write_json
from langlab.heads import ClassifierHead
from langlab.process import numerics
from langlab.training.batching import TaskSpec, task_spec_for
from langlab.training.evaluate import evaluate_task, head_f1, per_language_task_f1
from langlab.training.network import embed_examples
from langlab.training.regimes import retrain_language_probe, run_regime
from langlab.training.search import grids_for_regime, random_search
from langlab.vocab import Vocabulary

BUNDLE_SCHEMA_VERSION = 1
PROJECTION_FILES = {"task": "projection-task.csv", "lid": "projection-lid.csv"}
EMBEDDING_FILES = {"task": "embeddings-task.tsv", "lid": "embeddings-lid.tsv"}
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


def _claim_out_dir(cfg: PipelineConfig) -> str:
    """The run's manifest id, once cfg.out_dir is known to be a directory
    (or to be one that can be made) holding no other run: each run record
    there must carry the same id (a rerun of the same config).  Reads
    only, before the corpus stage."""
    mid = manifest_id(cfg.to_dict())
    out = Path(cfg.out_dir)
    with _stage("out_dir"):
        nearest = next(p for p in (out, *out.parents) if p.exists())
        if not nearest.is_dir():
            raise ValueError(f"{nearest} is not a directory")
        for name in ("manifest.json", "pretrain-manifest.json", "hpsearch.json"):
            path = out / name
            if path.exists():
                other = read_json(path).get("manifest_id")
                if other != mid:
                    raise ValueError(f"{cfg.out_dir} holds another run: its "
                                     f"{name} has manifest_id {other}")
    return mid


def _check_metrics_tree(bundle: dict, name) -> None:
    """A bundle's metrics, metrics.task_f1 and metrics.task_f1.per_language
    must each be a JSON object; a ValueError names the bundle otherwise."""
    node = bundle
    for key in ("metrics", "metrics.task_f1", "metrics.task_f1.per_language"):
        node = node.get(key.rpartition(".")[2])
        if not isinstance(node, dict):
            raise ValueError(f"{name} does not hold a JSON object at {key}")


def load_bundle(run_dir) -> dict:
    """The bundle a finished run wrote: the dict its bundle.json holds,
    whose metrics tree is checked (a ValueError names the file)."""
    path = Path(run_dir) / "bundle.json"
    if not path.exists():
        raise FileNotFoundError(f"no bundle.json under {Path(run_dir)}")
    bundle = read_json(path)
    _check_metrics_tree(bundle, path)
    return bundle


def bundle_metric(bundle: dict, path: str):
    """The value of the metric cell ({"value": v, "manifest": id}) at a
    dotted path of the bundle's metrics tree; None when absent."""
    node = bundle.get("metrics", {})
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node.get("value") if isinstance(node, dict) else None


def load_corpora(cfg: PipelineConfig):
    """Return (vocab, task examples, lid examples) from files or synthesis."""
    if cfg.task_corpus_path:     # the config holds all three paths or none
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
    A task-corpus language the LID corpus lacks (the language index
    has no id for it), or a pivot language with no task train or val
    examples, fails here."""
    vocab, task_examples, lid_examples = load_corpora(cfg)
    task_split = stratified_split(task_examples, seed=cfg.corpus_seed)
    lid_split = stratified_split(lid_examples, seed=cfg.corpus_seed + 1)
    languages = tuple(sorted({ex.language for ex in lid_examples}))
    unindexed = sorted({ex.language for ex in task_examples} - set(languages))
    if unindexed:
        raise ValueError(f"task corpus languages missing from the LID "
                         f"corpus: {', '.join(unindexed)}")
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
    """MLM-pretrain a fresh encoder on LID train data, or load the
    configured checkpoint; (encoder, losses).  The run's encoder config
    is checked first: the corpora's longest sequence must fit its
    max_len.  load_encoder refuses a checkpoint of another config or
    vocabulary."""
    want = cfg.encoder_config(len(data.vocab))
    longest = max(len(ex.sequence) for split in (data.task_split, data.lid_split)
                  for part in split.parts for ex in part)
    if longest > want.max_len:
        raise ValueError(f"corpus sequence length {longest} exceeds encoder "
                         f"max_len {want.max_len}")
    if not cfg.encoder_checkpoint:
        return mlm_pretrain(EncoderModel.init(want, seed=cfg.seed),
                            data.lid_split.train, mask_rate=cfg.mask_rate,
                            steps=cfg.mlm_steps, batch_size=cfg.mlm_batch_size,
                            lr=cfg.mlm_lr, seed=cfg.seed)
    return load_encoder(cfg.encoder_checkpoint, want, data.vocab), []


def _cell(value: float, mid: str) -> dict:
    return {"value": float(value), "manifest": mid}


def _corpus_and_encoder(cfg: PipelineConfig, save_to: Path | None = None):
    """The first stages of train, pretrain and hpsearch: the
    corpus stage, then the pretrain stage.  When save_to is given, it is
    made once the encoder is ready and the encoder is saved there as
    PRETRAINED_CHECKPOINT."""
    with _stage("corpus"):
        data = prepare_data(cfg)
    with _stage("pretrain"):
        encoder, losses = pretrain_encoder(cfg, data)
        if save_to is not None:
            save_to.mkdir(parents=True, exist_ok=True)
            save_encoder(save_to / PRETRAINED_CHECKPOINT, encoder, data.vocab)
    return data, encoder, losses


def run_pretraining(cfg: PipelineConfig) -> tuple[Path, list]:
    """Pretrain (or load) the encoder, save it with pretrain-manifest.json;
    return the checkpoint path and the MLM losses."""
    mid = _claim_out_dir(cfg)
    out = Path(cfg.out_dir)
    _, _, losses = _corpus_and_encoder(cfg, out)
    with _stage("manifest"):
        write_json(out / "pretrain-manifest.json", {
            "manifest_id": mid,
            "config": cfg.to_dict(),
            "mlm_steps": len(losses),
            "mlm_final_loss": losses[-1] if losses else None,
            "numerics": numerics(),
        })
    return out / PRETRAINED_CHECKPOINT, losses


def run_experiment(cfg: PipelineConfig) -> dict:
    mid = _claim_out_dir(cfg)
    out = Path(cfg.out_dir)
    data, encoder, mlm_losses = _corpus_and_encoder(cfg, out)

    with _stage("train"):
        run = run_regime(encoder, data, cfg)
        save_encoder(out / "encoder-final.ckpt", run.encoder, data.vocab)

    with _stage("probe"):
        probe = retrain_language_probe(run.encoder, data, cfg)
        heads = run.heads | probe.heads
        save_checkpoint(out / "heads.ckpt",
                        {f"{name}/{part}": array for name, head in heads.items()
                         for part, array in (("w", head.w), ("b", head.b))})

    with _stage("manifest"):
        write_json(out / "manifest.json", {
            "manifest_id": mid,
            "config": cfg.to_dict(),
            "epoch_val_f1": [float(s) for s in run.epoch_val_f1],
            "selected_epoch": run.selected_epoch,
            "probe_epoch_val_f1": [float(s) for s in probe.epoch_val_f1],
            "probe_selected_epoch": probe.selected_epoch,
            "mlm_final_loss": float(mlm_losses[-1]) if mlm_losses else None,
            "numerics": numerics(),
        })

    return _measure_and_analyze(cfg, out, mid, run.encoder, heads, data)


def _measure_and_analyze(cfg, out: Path, mid: str, encoder, heads: dict,
                         data: RunData) -> dict:
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
        task_f1 = per_language_task_f1(heads["task"], emb_task,
                                       task_spec.n_classes, languages)
        lid_task = head_f1(heads["probe"], emb_task.X, emb_task.lang_y,
                           len(languages))
        lid_lid = head_f1(heads["probe"], emb_lid.X, emb_lid.lang_y,
                          len(languages))

    with _stage("analyze"):
        task_langs = [languages[int(y)] for y in emb_task.lang_y]
        lid_langs = [languages[int(y)] for y in emb_lid.lang_y]
        samples = {
            "task": plot_sample(EmbeddingSample(
                vectors=emb_task.X, languages=task_langs,
                labels=[task_spec.labels[int(y)] for y in emb_task.task_y]),
                "label_language", cfg.quota_task, seed=cfg.seed),
            # a paragraph's task label is its language
            "lid": plot_sample(EmbeddingSample(
                vectors=emb_lid.X, languages=lid_langs, labels=list(lid_langs)),
                "language", cfg.quota_lid, seed=cfg.seed),
        }
        reports = {}
        for dataset, sample in samples.items():
            reports[dataset] = {
                a: clustering_report(sample, a, n_runs=cfg.kmeans_runs,
                                     seed=cfg.seed) | {"manifest": mid}
                for a in ("label", "language")}
            # perplexity must stay below the sample size; toy samples clamp
            perplexity = min(cfg.tsne_perplexity,
                             max(1.0, (len(sample) - 1) / 3.0))
            result = tsne(sample.vectors, perplexity=perplexity,
                          iterations=cfg.tsne_iterations, seed=cfg.seed)
            write_projection_csv(out / PROJECTION_FILES[dataset],
                                 replace(sample, vectors=result.coords))
            write_embedding_dump(out / EMBEDDING_FILES[dataset], sample)

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
                    dataset: {a: _cell(report[a]["mean"], mid)
                              for a in ("label", "language")}
                    for dataset, report in reports.items()
                },
            },
            "cluster_reports": reports,
        }
        write_json(out / "bundle.json", bundle)
    return bundle


def reanalyze(run_dir) -> dict:
    """Recompute evaluation + analysis + bundle from a finished run's
    checkpoints and manifest (its manifest_id and config); byte-identical
    to the original bundle.  The final encoder must have the config's
    encoder shape and name the vocabulary the corpus stage rebuilt."""
    root = Path(run_dir)
    with _stage("analyze"):
        manifest_path = root / "manifest.json"
        if not manifest_path.exists():
            raise FileNotFoundError(f"no manifest.json under {root}")
        manifest = read_json(manifest_path)
        if not isinstance(manifest.get("config"), dict) or "manifest_id" not in manifest:
            raise ValueError(f"{manifest_path} does not hold a config object "
                             f"and a manifest_id")
        cfg = config_from_dict(manifest["config"])
        mid = manifest["manifest_id"]
    with _stage("corpus"):
        data = prepare_data(cfg)
    with _stage("checkpoints"):
        encoder = load_encoder(root / "encoder-final.ckpt",
                               cfg.encoder_config(len(data.vocab)), data.vocab)
        arrays, _ = load_checkpoint(root / "heads.ckpt")
        heads = {name: ClassifierHead(w=arrays[f"{name}/w"], b=arrays[f"{name}/b"])
                 for name in ("task", "probe")}
    return _measure_and_analyze(cfg, root, mid, encoder, heads, data)


METRIC_PATHS = (
    "task_f1.overall",
    "lid_f1_task_data",
    "lid_f1_lid_data",
    "vmeasure.task.label",
    "vmeasure.task.language",
    "vmeasure.lid.label",
    "vmeasure.lid.language",
)


def compare_runs(bundles: list[dict]) -> dict:
    """Per-metric deltas against the first bundle, with provenance.

    Every bundle's metrics tree is checked as load_bundle checks it (a
    ValueError names the bundle's position).  Metrics absent from a
    bundle yield null deltas (an explicit gap marker), never zero.
    """
    if len(bundles) < 2:
        raise ValueError("need at least two bundles to compare")
    for i, bundle in enumerate(bundles):
        _check_metrics_tree(bundle, f"bundles[{i}]")
    first = bundles[0]
    for b in bundles[1:]:
        for key in ("task", "languages", "task_labels"):
            if b.get(key) != first.get(key):
                raise ValueError(
                    f"mismatched schemas: bundles disagree on {key!r}"
                )
    paths = list(METRIC_PATHS)
    per_lang = sorted(first["metrics"]["task_f1"]["per_language"])
    paths.extend(f"task_f1.per_language.{lang}" for lang in per_lang)

    rows = []
    for path in paths:
        values = [bundle_metric(b, path) for b in bundles]
        base = values[0]
        deltas = [
            None if (v is None or base is None) else float(v) - float(base)
            for v in values[1:]
        ]
        rows.append({"metric": path, "values": values, "deltas": deltas})
    return {
        "baseline": first.get("manifest"),
        "manifests": [b.get("manifest") for b in bundles],
        "columns": [b.get("column") for b in bundles],
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


def hyperparameter_search(cfg: PipelineConfig, n_samples: int) -> dict:
    """Random search for cfg.regime; candidates ranked by dev-set task F1.

    Corpus and pretraining are shared across candidates; only the
    regime-level hyperparameters vary.  Only the task head's score ranks
    candidates; cfg.seed seeds the draws and every candidate's training.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    mid = _claim_out_dir(cfg)
    data, encoder, _ = _corpus_and_encoder(cfg)

    def evaluate(sample: dict) -> float:
        run = run_regime(encoder, data, replace(cfg, **sample))
        scores = evaluate_task(run.encoder, run.heads["task"],
                               data.task_split.dev, data)
        return scores["overall"]

    with _stage("search"):
        grids = grids_for_regime(cfg.regime)
        ranked = random_search(grids, evaluate, n_samples=n_samples,
                               seed=cfg.seed)
        report = {
            "manifest_id": mid,
            "regime": cfg.regime,
            "grids": {k: list(v) for k, v in grids.items()},
            "n_samples": n_samples,
            "ranking": [
                {"rank": rank, "config": config, "dev_task_f1": score}
                for rank, (config, score) in enumerate(ranked, start=1)
            ],
        }
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "hpsearch.json", report)
    return report
