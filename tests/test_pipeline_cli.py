"""Config resolution, the end-to-end pipeline, bundles, and the CLI.

Pipeline tests run a miniature 3-language world end to end and check
artifact layout, provenance stamping, byte-determinism of reruns, and
the comparison/export paths the CLI exposes.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import dataclasses
import hashlib
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy
import pytest
import scipy

import langlab
from langlab import cli, pipeline, process
from langlab.checkpoint import load_checkpoint, save_checkpoint, save_encoder
from langlab.cli import main
from langlab.config import (
    PRESETS,
    SAMPLE_QUOTAS,
    PipelineConfig,
    canonical_json,
    config_from_dict,
    load_config,
    manifest_id,
)
from langlab.data.io import load_conllu, load_lid_paragraphs, load_nli_tsv
from langlab.encoder import EncoderConfig, EncoderModel
from langlab.files import write_json
from langlab.pipeline import (
    METRIC_PATHS,
    StageError,
    bundle_metric,
    compare_runs,
    format_delta_table,
    hyperparameter_search,
    load_bundle,
    prepare_data,
    reanalyze,
    run_experiment,
)
from langlab.training import network, regimes
from langlab.training.regimes import REGIMES
from langlab.vocab import Vocabulary


def tiny_pipeline_cfg(out_dir: str, **kw) -> PipelineConfig:
    base = dict(
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
    base.update(kw)
    return PipelineConfig(**base)


def dir_bytes(root) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def pipe_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("pipe")


@pytest.fixture(scope="module")
def frozen_bundle(pipe_dir):
    cfg = tiny_pipeline_cfg(str(pipe_dir / "frozen"))
    return cfg, run_experiment(cfg)


@pytest.fixture(scope="module")
def finetune_bundle(pipe_dir):
    cfg = tiny_pipeline_cfg(str(pipe_dir / "finetune"), regime="finetune")
    return cfg, run_experiment(cfg)


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_are_the_reference_protocol():
    cfg = PipelineConfig()
    assert cfg.regime == "finetune" and cfg.task == "token_tag"
    assert cfg.pivot_language == "aa"
    assert cfg.head_lr == 1e-1 and cfg.encoder_lr == 7e-3
    assert cfg.d_model == 64 and cfg.n_layers == 2 and cfg.n_heads == 4
    assert cfg.mlm_steps == 1500
    assert cfg.n_languages == 8
    assert cfg.task_examples_per_language == 480
    assert cfg.lid_examples_per_language == 240
    assert cfg.epochs == 5
    assert cfg.quota_task == SAMPLE_QUOTAS["token_tag"]
    assert cfg.quota_lid == SAMPLE_QUOTAS["lid"]


def test_config_quota_follows_task():
    assert PipelineConfig(task="pair_inference").quota_task == 50
    assert PipelineConfig(task="token_tag", quota_task=7).quota_task == 7


@pytest.mark.parametrize("field, bad", [
    ("kmeans_runs", 0), ("mlm_steps", -3), ("tsne_iterations", -1),
    ("epochs", 0), ("quota_lid", 0), ("quota_task", 0)])
def test_config_rejects_bad_counts_by_name(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be >= "):
        PipelineConfig(**{field: bad})


@pytest.mark.parametrize("field, bad, message", [
    ("head_lr", -0.5, "head_lr must be > 0, got -0.5"),
    ("encoder_lr", 0.0, "encoder_lr must be > 0, got 0.0"),
    ("mlm_lr", -1.0, "mlm_lr must be > 0, got -1.0"),
    ("init_std", -0.1, "init_std must be > 0, got -0.1"),
    ("init_std", float("nan"), "init_std must be > 0, got nan"),
    ("mask_rate", 0.0, "mask_rate must be in (0,1), got 0.0"),
    ("mask_rate", 1.0, "mask_rate must be in (0,1), got 1.0")])
def test_config_rejects_bad_rates_by_name(field, bad, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PipelineConfig(**{field: bad})


def test_config_accepts_zero_pretraining_and_tsne_steps():
    cfg = PipelineConfig(mlm_steps=0, tsne_iterations=0)
    assert cfg.mlm_steps == 0 and cfg.tsne_iterations == 0


def test_json_writer_refuses_nan(tmp_path):
    with pytest.raises(ValueError):
        write_json(tmp_path / "bundle.json", {"v": float("nan")})
    assert not (tmp_path / "bundle.json").exists()


def test_json_writer_replaces_target_whole(tmp_path, monkeypatch):
    path = tmp_path / "bundle.json"
    write_json(path, {"v": 1})
    before = path.read_bytes()

    def failing_replace(src, dst):
        # the new file is complete beside the target, which is untouched
        assert Path(src).parent == path.parent and Path(dst) == path
        assert json.loads(Path(src).read_text(encoding="utf-8")) == {"v": 2}
        assert path.read_bytes() == before
        raise OSError("disk full")

    monkeypatch.setattr("langlab.files.os.replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write_json(path, {"v": 2})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["bundle.json"]


# a non-default value of every EncoderConfig field
SUB_CONFIG_VALUES = dict(d_model=24, n_layers=3, n_heads=3, d_ff=40,
                         max_len=64, dropout=0.2)


def test_config_sub_configs():
    for f in dataclasses.fields(EncoderConfig):
        if f.default is not dataclasses.MISSING:
            assert SUB_CONFIG_VALUES[f.name] != f.default, f.name
    sub = PipelineConfig(**SUB_CONFIG_VALUES).encoder_config(vocab_size=100)
    assert type(sub) is EncoderConfig
    assert dataclasses.asdict(sub) == {"vocab_size": 100, **SUB_CONFIG_VALUES}


def test_config_from_dict_round_trip_and_unknown_keys():
    cfg = tiny_pipeline_cfg("x")
    assert config_from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError, match="unknown config keys: colour, size"):
        config_from_dict({"colour": 1, "size": 2})


def test_load_config_precedence(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"task": "token_tag", "head_lr": 0.5,
                                "out_dir": "from-file"}))
    cfg = load_config(path)
    assert cfg.head_lr == 0.5 and cfg.out_dir == "from-file"
    # preset beats file
    cfg = load_config(path, preset="udpos-frozen")
    assert cfg.head_lr == PRESETS["udpos-frozen"]["head_lr"]
    assert cfg.regime == "frozen_probe"
    assert cfg.out_dir == "from-file"
    # explicit overrides beat both
    cfg = load_config(path, preset="udpos-frozen", overrides={"head_lr": 0.25})
    assert cfg.head_lr == 0.25
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(bad))} does not hold a JSON object$"):
        load_config(bad)


def test_presets_all_names_valid():
    for name in PRESETS:
        # the regime/weight combination is checked as the config is built
        cfg = load_config(None, preset=name)
        assert cfg.regime == PRESETS[name]["regime"]
    with pytest.raises(ValueError, match="unknown preset"):
        load_config(None, preset="udpos-adapters")


def test_preset_resets_other_regime_weights_and_quota(tmp_path):
    cfg = load_config(None, preset="udpos-gradrev")
    assert cfg.grl_lambda == 0.1 and cfg.w is None
    gradrev = tmp_path / "gradrev.json"
    gradrev.write_text(json.dumps({"regime": "grad_reversal", "grl_lambda": 0.1}))
    back = load_config(gradrev, preset="udpos-frozen")
    assert back.grl_lambda is None and back.w is None
    # switching task re-derives the default quota
    xnli = load_config(None, preset="xnli-finetuned")
    assert xnli.quota_task == SAMPLE_QUOTAS["pair_inference"]


def test_every_preset_takes_every_regime_flag():
    # --regime drops the weight of the preset's regime when it leaves
    # it; a regime that needs a weight gets it by its own flag
    weights = {"grad_reversal": "grl_lambda", "entropy_max": "w"}
    for name, preset in PRESETS.items():
        for regime in REGIMES:
            argv = ["train", "--preset", name, "--regime", regime]
            want = {"grl_lambda": None, "w": None}
            if regime == preset["regime"]:
                want |= {k: preset[k] for k in want if k in preset}
            elif regime in weights:
                argv += [f"--{weights[regime].replace('_', '-')}", "0.3"]
                want[weights[regime]] = 0.3
            cfg = cli._resolve_config(cli.build_parser().parse_args(argv))
            got = {k: getattr(cfg, k) for k in want}
            assert (cfg.regime, got) == (regime, want), name
            assert all(getattr(cfg, k) == v for k, v in preset.items()
                       if k not in ("regime", *want)), (name, regime)


def test_task_override_rederives_default_quota(tmp_path):
    def resolved(*argv):
        return cli._resolve_config(cli.build_parser().parse_args(["train", *argv]))

    pair = SAMPLE_QUOTAS["pair_inference"]
    from_file = tmp_path / "pair.json"
    from_file.write_text(json.dumps({"task": "pair_inference"}))
    assert resolved("--config", str(from_file)).quota_task == pair
    assert resolved("--preset", "xnli-frozen").quota_task == pair
    assert resolved("--task", "pair_inference").quota_task == pair
    assert load_config(None, overrides={"task": "pair_inference"}).quota_task == pair
    # an explicit non-default quota survives a task change
    kept = tmp_path / "kept.json"
    kept.write_text(json.dumps({"quota_task": 7}))
    assert resolved("--config", str(kept), "--task", "pair_inference").quota_task == 7
    assert load_config(from_file, overrides={"task": "token_tag",
                                             "quota_task": 12}).quota_task == 12


def test_explicit_quota_survives_a_task_change(tmp_path):
    # a given quota_task equal to the old task's default is still given
    def resolved(*argv):
        return cli._resolve_config(cli.build_parser().parse_args(["train", *argv]))

    given = tmp_path / "given.json"
    given.write_text(json.dumps({"task": "token_tag", "quota_task": 10}))
    assert SAMPLE_QUOTAS["token_tag"] == 10
    assert resolved("--config", str(given), "--preset", "xnli-frozen").quota_task == 10
    assert resolved("--config", str(given), "--task", "pair_inference").quota_task == 10
    derived = tmp_path / "derived.json"
    derived.write_text(json.dumps({"task": "token_tag"}))
    assert resolved("--config", str(derived), "--preset",
                    "xnli-frozen").quota_task == SAMPLE_QUOTAS["pair_inference"]


def test_canonical_json_and_manifest_id():
    obj = {"b": 1, "a": [1, 2], "c": {"y": 0.5, "x": None}}
    text = canonical_json(obj)
    assert text == '{"a":[1,2],"b":1,"c":{"x":null,"y":0.5}}'
    assert manifest_id(obj) == hashlib.sha256(text.encode()).hexdigest()
    # any field change moves the id, including the output directory
    cfg = tiny_pipeline_cfg("a")
    other = dataclasses.replace(cfg, out_dir="b")
    assert manifest_id(cfg.to_dict()) != manifest_id(other.to_dict())


def test_stage_error_format():
    err = StageError("corpus", "file not found")
    assert str(err) == "[corpus] file not found"
    assert err.stage == "corpus"


def test_config_needs_all_three_corpus_paths(tmp_path):
    with pytest.raises(ValueError, match="together"):
        tiny_pipeline_cfg(str(tmp_path), task_corpus_path="x.conllu")
    # a vocabulary alone would leave the synthetic corpus in use
    with pytest.raises(ValueError, match="together"):
        tiny_pipeline_cfg(str(tmp_path), vocab_path="no/such/vocab.txt")


# ---------------------------------------------------------------------------
# end-to-end runs

RUN_FILES = (
    "manifest.json", "bundle.json",
    "encoder-pretrained.ckpt", "encoder-final.ckpt", "heads.ckpt",
    "projection-task.csv", "projection-lid.csv",
    "embeddings-task.tsv", "embeddings-lid.tsv",
)


def test_run_writes_all_artifacts(frozen_bundle):
    cfg, _ = frozen_bundle
    for name in RUN_FILES:
        assert (Path(cfg.out_dir) / name).exists(), name


def test_bundle_schema_and_metrics(frozen_bundle):
    cfg, bundle = frozen_bundle
    assert bundle["schema_version"] == 1
    assert bundle["column"] == "initial"     # frozen probe reports "initial"
    assert bundle["regime"] == "frozen_probe"
    assert bundle["languages"] == ["aa", "ab", "ac"]
    assert bundle["task_labels"] == ["FUNC", "NOUN", "VERB"]
    for path in METRIC_PATHS:
        value = bundle_metric(bundle, path)
        assert value is not None and 0.0 <= value <= 1.0, path
    assert bundle_metric(bundle, "task_f1.per_language.aa") is not None
    assert bundle_metric(bundle, "no.such.metric") is None
    manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
    assert len(manifest["epoch_val_f1"]) == cfg.epochs


# A run record holds each fact once: no file name the code fixes, no seed
# beside the config, no copy of the manifest's epoch scores in the bundle
MANIFEST_KEYS = {"manifest_id", "config", "epoch_val_f1", "selected_epoch",
                 "probe_epoch_val_f1", "probe_selected_epoch", "mlm_final_loss",
                 "numerics"}
BUNDLE_KEYS = {"schema_version", "manifest", "column", "regime", "task",
               "pivot_language", "languages", "task_labels", "metrics",
               "cluster_reports"}


def test_run_record_keys(frozen_bundle):
    cfg, bundle = frozen_bundle
    root = Path(cfg.out_dir)
    manifest = json.loads((root / "manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["numerics"] == process.numerics()
    assert set(bundle) == BUNDLE_KEYS
    # the head arrays' shapes are the only record of d_model they need
    _, meta = load_checkpoint(root / "heads.ckpt")
    assert meta == {}


def test_every_metric_cell_carries_the_manifest_id(frozen_bundle):
    cfg, bundle = frozen_bundle
    mid = manifest_id(cfg.to_dict())
    assert bundle["manifest"] == mid

    def walk(node):
        if isinstance(node, dict):
            if "value" in node and "manifest" in node:
                yield node
            else:
                for v in node.values():
                    yield from walk(v)

    cells = list(walk(bundle["metrics"]))
    assert cells
    assert all(c["manifest"] == mid for c in cells)


def test_frozen_probe_run_keeps_encoder_bytes(frozen_bundle):
    cfg, _ = frozen_bundle
    pre = (Path(cfg.out_dir) / "encoder-pretrained.ckpt").read_bytes()
    final = (Path(cfg.out_dir) / "encoder-final.ckpt").read_bytes()
    assert pre == final


def test_finetune_run_moves_encoder(finetune_bundle):
    cfg, bundle = finetune_bundle
    assert bundle["column"] == "finetune"
    pre = (Path(cfg.out_dir) / "encoder-pretrained.ckpt").read_bytes()
    final = (Path(cfg.out_dir) / "encoder-final.ckpt").read_bytes()
    assert pre != final


def test_manifest_round_trips_config(frozen_bundle):
    cfg, _ = frozen_bundle
    manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
    assert manifest["manifest_id"] == manifest_id(cfg.to_dict())
    assert config_from_dict(manifest["config"]) == cfg
    assert manifest["mlm_final_loss"] > 0.0
    assert 0 <= manifest["selected_epoch"] < cfg.epochs


def test_bundle_load_matches_returned(frozen_bundle):
    cfg, bundle = frozen_bundle
    assert load_bundle(cfg.out_dir) == bundle
    with pytest.raises(FileNotFoundError, match="bundle.json"):
        load_bundle(Path(cfg.out_dir) / "nowhere")


def test_rerun_is_byte_identical(frozen_bundle):
    cfg, bundle = frozen_bundle
    before = dir_bytes(cfg.out_dir)
    again = run_experiment(cfg)
    after = dir_bytes(cfg.out_dir)
    assert sorted(before) == sorted(after)
    for name in before:
        assert before[name] == after[name], name
    assert again == bundle


def test_reanalyze_is_byte_identical(frozen_bundle):
    cfg, bundle = frozen_bundle
    root = Path(cfg.out_dir)
    watched = ("bundle.json", "projection-task.csv", "projection-lid.csv",
               "embeddings-task.tsv", "embeddings-lid.tsv")
    before = {n: (root / n).read_bytes() for n in watched}
    re_bundle = reanalyze(root)
    for n in watched:
        assert (root / n).read_bytes() == before[n], n
    assert re_bundle == bundle
    with pytest.raises(StageError, match="\\[analyze\\].*manifest.json"):
        reanalyze(root / "nowhere")


def test_cli_analyze_refuses_a_run_with_the_dropped_term_variant(
        frozen_bundle, tmp_path, capsys):
    # runs written while the language term had two variants record
    # language_term_variant in their config
    cfg, _ = frozen_bundle
    old = tmp_path / "old"
    shutil.copytree(cfg.out_dir, old)
    manifest = json.loads((old / "manifest.json").read_text())
    manifest["config"]["language_term_variant"] = "as_written"
    write_json(old / "manifest.json", manifest)
    before = dir_bytes(old)
    assert main(["analyze", "--run", str(old)]) == 2
    assert capsys.readouterr().err == (
        "error [analyze] unknown config keys: language_term_variant\n")
    assert dir_bytes(old) == before


def test_reanalyze_reads_a_run_of_the_old_record_format(frozen_bundle,
                                                         tmp_path):
    # runs written before the records lost their echoed fields carry a
    # seed and checkpoint names in the manifest and d_model in heads.ckpt;
    # analyze reads only the manifest's id and config
    cfg, bundle = frozen_bundle
    old = tmp_path / "old"
    shutil.copytree(cfg.out_dir, old)
    manifest = json.loads((old / "manifest.json").read_text())
    write_json(old / "manifest.json", manifest | {
        "seed": cfg.seed, "checkpoint": "encoder-final.ckpt",
        "pretrained_checkpoint": "encoder-pretrained.ckpt",
        "heads_checkpoint": "heads.ckpt"})
    arrays, _ = load_checkpoint(old / "heads.ckpt")
    save_checkpoint(old / "heads.ckpt", arrays, {"d_model": cfg.d_model})
    assert reanalyze(old) == bundle
    for name in ("bundle.json", "projection-task.csv", "embeddings-lid.tsv"):
        assert (old / name).read_bytes() == (Path(cfg.out_dir) / name).read_bytes()


def _on_call(monkeypatch, module, name, hook):
    """Run hook(*args) before every call of module.name, wherever a
    langlab module holds the name."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        hook(*args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("langlab") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)


@pytest.mark.parametrize("regime, weights", [
    ("frozen_probe", {}), ("finetune", {}),
    ("grad_reversal", {"grl_lambda": 0.5}), ("entropy_max", {"w": 0.5})],
    ids=["frozen_probe", "finetune", "grad_reversal", "entropy_max"])
def test_one_language_probe_and_one_pass_per_split(pipe_dir, monkeypatch,
                                                   regime, weights):
    embedded, probes = [], []

    def on_embed(encoder, examples, *rest):
        digest = hashlib.sha256()
        for name in sorted(encoder.params):
            digest.update(encoder.params[name].tobytes())
        embedded.append((digest.hexdigest(), tuple(map(id, examples))))

    _on_call(monkeypatch, network, "embed_examples", on_embed)
    _on_call(monkeypatch, regimes, "retrain_language_probe",
             lambda *args: probes.append(args))
    cfg = tiny_pipeline_cfg(str(pipe_dir / f"once-{regime}"), regime=regime,
                            mlm_steps=10, tsne_iterations=30, kmeans_runs=2,
                            **weights)
    run_experiment(cfg)
    assert len(probes) == 1
    if regime in ("frozen_probe", "finetune"):
        # no (encoder parameters, examples) pair goes through the encoder twice
        assert len(set(embedded)) == len(embedded)
    arrays, _ = load_checkpoint(Path(cfg.out_dir) / "heads.ckpt")
    # only grad_reversal and entropy_max train a language head of their own
    lang = {"lang/w", "lang/b"} if weights else set()
    assert set(arrays) == {"task/w", "task/b", "probe/w", "probe/b"} | lang


# ---------------------------------------------------------------------------
# comparison and export


def test_compare_runs_deltas(frozen_bundle, finetune_bundle):
    _, frozen = frozen_bundle
    _, finetuned = finetune_bundle
    table = compare_runs([frozen, finetuned])
    assert table["baseline"] == frozen["manifest"]
    assert table["columns"] == ["initial", "finetune"]
    by_metric = {r["metric"]: r for r in table["rows"]}
    assert set(METRIC_PATHS) <= set(by_metric)
    assert "task_f1.per_language.aa" in by_metric
    row = by_metric["task_f1.overall"]
    assert row["deltas"][0] == pytest.approx(
        bundle_metric(finetuned, "task_f1.overall")
        - bundle_metric(frozen, "task_f1.overall"))
    # self-comparison: all deltas zero
    self_table = compare_runs([frozen, frozen])
    assert all(d == 0.0 for r in self_table["rows"] for d in r["deltas"])


def test_compare_runs_validation(frozen_bundle, finetune_bundle):
    _, frozen = frozen_bundle
    _, finetuned = finetune_bundle
    with pytest.raises(ValueError, match="at least two"):
        compare_runs([frozen])
    doctored = copy.deepcopy(finetuned)
    doctored["task"] = "pair_inference"
    with pytest.raises(ValueError, match="disagree on 'task'"):
        compare_runs([frozen, doctored])
    # the metrics tree is checked as load_bundle checks it, by position
    for key, tree in (("metrics", []), ("metrics.task_f1", {"task_f1": []}),
                      ("metrics.task_f1.per_language",
                       {"task_f1": {"per_language": []}})):
        for pos in (0, 1):
            bundles = [frozen, finetuned]
            bundles[pos] = copy.deepcopy(bundles[pos]) | {"metrics": tree}
            with pytest.raises(ValueError, match=re.escape(
                    f"bundles[{pos}] does not hold a JSON object at {key}")):
                compare_runs(bundles)


def test_compare_runs_marks_missing_metrics_null(frozen_bundle,
                                                 finetune_bundle):
    _, frozen = frozen_bundle
    _, finetuned = finetune_bundle
    gappy = copy.deepcopy(finetuned)
    del gappy["metrics"]["lid_f1_lid_data"]
    table = compare_runs([frozen, gappy])
    row = next(r for r in table["rows"] if r["metric"] == "lid_f1_lid_data")
    assert row["values"][1] is None
    assert row["deltas"] == [None]
    rendered = format_delta_table(table)
    assert "--" in rendered


def test_format_delta_table_scales_to_percent(frozen_bundle, finetune_bundle):
    _, frozen = frozen_bundle
    _, finetuned = finetune_bundle
    table = compare_runs([frozen, finetuned])
    rendered = format_delta_table(table)
    lines = rendered.splitlines()
    assert lines[0].startswith("metric")
    row = next(r for r in table["rows"] if r["metric"] == "task_f1.overall")
    base_pct = f"{100.0 * row['values'][0]:6.1f}"
    assert any(base_pct in line for line in lines[1:])


# ---------------------------------------------------------------------------
# hyperparameter search


def test_hyperparameter_search_report(pipe_dir):
    cfg = tiny_pipeline_cfg(str(pipe_dir / "hp"), mlm_steps=20)
    report = hyperparameter_search(cfg, n_samples=2)
    assert report["regime"] == "frozen_probe"
    assert set(report["grids"]) == {"init_std", "batch_size", "head_lr"}
    assert len(report["ranking"]) == 2
    ranks = [e["rank"] for e in report["ranking"]]
    assert ranks == [1, 2]
    scores = [e["dev_task_f1"] for e in report["ranking"]]
    assert scores == sorted(scores, reverse=True)
    for entry in report["ranking"]:
        for key, value in entry["config"].items():
            assert value in report["grids"][key]
    on_disk = json.loads((pipe_dir / "hp" / "hpsearch.json").read_text())
    assert on_disk == report
    assert set(report) == {"manifest_id", "regime", "grids", "n_samples",
                           "ranking"}
    assert report["manifest_id"] == manifest_id(cfg.to_dict())


# ---------------------------------------------------------------------------
# command line


def test_cli_offers_exactly_the_kept_commands(capsys):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == ["gen-corpus", "pretrain", "train", "analyze",
                                 "hpsearch", "compare"]
    for argv in (["export", "--run", "r", "--which", "labels-task"],
                 ["probe-lid", "--encoder-checkpoint", "k.ckpt"]):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_cli_override_flags_are_config_fields_of_their_types():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    fields = {"regime", "task", "pivot_language", "init_std", "batch_size",
              "head_lr", "encoder_lr", "grl_lambda", "w", "epochs", "seed",
              "out_dir", "encoder_checkpoint"}
    for command, own in (("train", set()), ("pretrain", set()),
                         ("hpsearch", {"samples"})):
        dests = {a.dest for a in sub.choices[command]._actions} - {"help"}
        assert dests == fields | own | {"config", "preset"}, command
    assert fields <= {f.name for f in dataclasses.fields(PipelineConfig)}
    args = cli.build_parser().parse_args(
        ["train", "--grl-lambda", "0.3", "--seed", "2"])
    assert type(args.grl_lambda) is float and args.grl_lambda == 0.3
    assert type(args.seed) is int and args.seed == 2


def test_cli_gen_corpus_round_trips(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen-corpus", "--out", str(out), "--languages", "3",
                 "--per-language", "6", "--concepts", "30", "--seed", "0"]) == 0
    assert capsys.readouterr().out.startswith("wrote")
    vocab = Vocabulary.load(out / "vocab.txt")
    assert len(load_conllu(out / "token_tag.conllu", vocab)) == 18
    assert len(load_nli_tsv(out / "pair_inference.tsv", vocab)) == 18
    assert len(load_lid_paragraphs(out / "lid.tsv", vocab)) == 18
    assert sorted(p.name for p in out.iterdir()) == [
        "corpus-manifest.json", "lid.tsv", "pair_inference.tsv",
        "token_tag.conllu", "vocab.txt"]
    # the file names are fixed by the command, so the record leaves them out
    manifest = json.loads((out / "corpus-manifest.json").read_text())
    assert manifest == {"languages": 3, "per_language": 6, "concepts": 30,
                        "overlap": 0.25, "seed": 0}


@pytest.mark.parametrize("command, tag", [("gen-corpus", "cli"),
                                          ("train", "corpus")])
def test_cli_overlap_outside_unit_interval_fails_by_name(cli_cfg_path, capsys,
                                                         command, tag):
    path, cfg = cli_cfg_path
    if command == "gen-corpus":
        argv = ["gen-corpus", "--out", cfg.out_dir, "--overlap", "1.5"]
    else:
        path.write_text(json.dumps(cfg.to_dict() | {"overlap_fraction": 1.5}))
        argv = ["train", "--config", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error [{tag}] overlap_fraction must be in [0, 1], got 1.5\n")
    assert not Path(cfg.out_dir).exists()


@pytest.fixture()
def cli_cfg_path(tmp_path):
    cfg = tiny_pipeline_cfg(str(tmp_path / "run"), epochs=1, mlm_steps=10,
                            lid_examples_per_language=24,
                            task_examples_per_language=30,
                            tsne_iterations=30, kmeans_runs=2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path, cfg


def test_cli_train_analyze_compare(cli_cfg_path, tmp_path, capsys):
    path, cfg = cli_cfg_path
    assert main(["train", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "task F1 overall" in out
    assert (Path(cfg.out_dir) / "bundle.json").exists()

    assert main(["analyze", "--run", cfg.out_dir]) == 0
    assert "recomputed bundle" in capsys.readouterr().out

    second = tmp_path / "run2"
    assert main(["train", "--config", str(path), "--regime", "finetune",
                 "--encoder-lr", "1e-3", "--out-dir", str(second)]) == 0
    capsys.readouterr()
    table_out = tmp_path / "table.json"
    assert main(["compare", "--runs", cfg.out_dir, str(second),
                 "--out", str(table_out)]) == 0
    assert "metric" in capsys.readouterr().out
    table = json.loads(table_out.read_text())
    assert table["columns"] == ["initial", "finetune"]


def test_cli_hpsearch(cli_cfg_path, capsys):
    path, cfg = cli_cfg_path
    assert main(["hpsearch", "--config", str(path), "--samples", "2"]) == 0
    out = capsys.readouterr().out
    assert "rank" in out and "dev F1" in out
    assert (Path(cfg.out_dir) / "hpsearch.json").exists()


def test_cli_rejects_bad_config_before_any_stage(cli_cfg_path, capsys):
    path, cfg = cli_cfg_path
    path.write_text(json.dumps(cfg.to_dict() | {"kmeans_runs": 0}))
    assert main(["train", "--config", str(path)]) == 2
    assert "kmeans_runs must be >= 1" in capsys.readouterr().err
    assert not Path(cfg.out_dir).exists()


@pytest.mark.parametrize("field, bad, message", [
    ("epochs", "5", "epochs must be int, got '5'"),
    ("mlm_steps", None, "mlm_steps must be int, got None"),
    ("epochs", 1.5, "epochs must be int, got 1.5"),
    ("tsne_iterations", None, "tsne_iterations must be int, got None"),
    ("dropout", True, "dropout must be float, got True")],
    ids=["str-epochs", "null-mlm-steps", "float-epochs", "null-tsne-iterations",
         "bool-dropout"])
def test_cli_rejects_mistyped_config_values_before_any_stage(
        cli_cfg_path, capsys, field, bad, message):
    path, cfg = cli_cfg_path
    path.write_text(json.dumps(cfg.to_dict() | {field: bad}))
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error [cli] {message}\n"
    assert not Path(cfg.out_dir).exists()


@pytest.mark.parametrize("command", ["train", "hpsearch", "pretrain"])
# PipelineConfig's own checks, the encoder shape included, fail at load
@pytest.mark.parametrize("bad, tag, message", [
    ({"regime": "bogus"}, "cli", "unknown regime 'bogus'"),
    ({"grl_lambda": 0.1}, "cli", "grl_lambda is set iff regime is grad_reversal"),
    ({"d_model": 60, "n_heads": 7}, "cli",
     "d_model 60 not divisible by n_heads 7"),
    # the dropped language-term switch is no config key any more
    ({"language_term_variant": "as_written"}, "cli",
     "unknown config keys: language_term_variant"),
    ({"head_lr": -0.5}, "cli", "head_lr must be > 0, got -0.5"),
    ({"init_std": -0.1}, "cli", "init_std must be > 0, got -0.1"),
    ({"mask_rate": 0.0}, "cli", "mask_rate must be in (0,1), got 0.0"),
    ({"vocab_path": "no/such/vocab.txt"}, "cli",
     "need task_corpus_path, lid_corpus_path and vocab_path together")],
    ids=["unknown-regime", "misplaced-weight", "encoder-heads",
         "unknown-term-variant", "negative-head-lr", "negative-init-std",
         "zero-mask-rate", "vocab-path-alone"])
def test_cli_rejects_bad_regime_config_before_pretraining(cli_cfg_path, capsys,
                                                          command, bad, tag,
                                                          message):
    path, cfg = cli_cfg_path
    path.write_text(json.dumps(cfg.to_dict() | bad))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error [{tag}]") and message in err
    assert not Path(cfg.out_dir).exists()    # no checkpoint, no run dir


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_cli_hpsearch_rejects_bad_sample_count_before_any_stage(
        cli_cfg_path, capsys, samples):
    path, cfg = cli_cfg_path
    assert main(["hpsearch", "--config", str(path), "--samples", samples]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [cli]") and "n_samples must be >= 1" in err
    assert not Path(cfg.out_dir).exists()


@pytest.mark.parametrize("command", ["train", "hpsearch", "pretrain"])
def test_cli_bad_pivot_fails_in_corpus_stage_and_writes_nothing(
        cli_cfg_path, capsys, command):
    path, cfg = cli_cfg_path
    path.write_text(json.dumps(cfg.to_dict() | {"pivot_language": "zz"}))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [corpus] no pivot-language ('zz') ")
    assert not Path(cfg.out_dir).exists()    # no checkpoint, no run dir


def test_cli_task_language_the_lid_corpus_lacks_fails_in_corpus_stage(
        cli_cfg_path, monkeypatch, capsys):
    # the language index comes from the LID corpus, so a task-corpus
    # language outside it has no id; it must fail before pretraining, not
    # in [evaluate] after every checkpoint is written
    path, cfg = cli_cfg_path
    corpus = path.parent / "corpus"
    assert main(["gen-corpus", "--out", str(corpus), "--languages", "3",
                 "--per-language", "40", "--concepts", "30"]) == 0
    capsys.readouterr()
    conllu = corpus / "token_tag.conllu"
    text = conllu.read_text(encoding="utf-8")
    assert "# language = ab\n" in text
    conllu.write_text(text.replace("# language = ab\n", "# language = zz\n"),
                      encoding="utf-8")
    path.write_text(json.dumps(cfg.to_dict() | {
        "task_corpus_path": str(conllu), "lid_corpus_path": str(corpus / "lid.tsv"),
        "vocab_path": str(corpus / "vocab.txt")}))
    monkeypatch.setattr(pipeline, "mlm_pretrain",
                        lambda *args, **kwargs: pytest.fail("an MLM step ran"))
    assert main(["train", "--preset", "udpos-finetuned", "--config",
                 str(path)]) == 2
    assert capsys.readouterr().err == (
        "error [corpus] task corpus languages missing from the LID corpus: "
        "zz\n")
    assert not Path(cfg.out_dir).exists()


def test_cli_commands_enter_the_same_stages(cli_cfg_path, monkeypatch, capsys):
    path, cfg = cli_cfg_path
    entered: list[str] = []
    real_stage = pipeline._stage

    def recording_stage(name):
        entered.append(name)
        return real_stage(name)

    monkeypatch.setattr(pipeline, "_stage", recording_stage)
    commands = {
        "train": ["train", "--config", str(path)],
        "analyze": ["analyze", "--run", cfg.out_dir],
        "hpsearch": ["hpsearch", "--config", str(path), "--samples", "1"],
        "pretrain": ["pretrain", "--config", str(path)],
    }
    stages = {}
    for name, argv in commands.items():
        entered.clear()
        assert main(argv) == 0
        capsys.readouterr()
        stages[name] = list(entered)
    head = ["corpus", "pretrain"]
    assert stages == {
        "train": ["out_dir", *head, "train", "probe", "manifest", "evaluate",
                  "analyze", "bundle"],
        "analyze": ["analyze", "corpus", "checkpoints", "evaluate", "analyze",
                    "bundle"],
        "hpsearch": ["out_dir", *head, "search"],
        "pretrain": ["out_dir", *head, "manifest"],
    }


@pytest.fixture()
def foreign_checkpoint(tmp_path):
    """An encoder checkpoint whose vocabulary no tiny corpus has."""
    path = tmp_path / "foreign.ckpt"
    enc_cfg = EncoderConfig(vocab_size=7, d_model=16, n_layers=1, n_heads=2,
                            d_ff=32)
    save_encoder(path, EncoderModel.init(enc_cfg, seed=0),
                 Vocabulary(["x", "y", "z"]))
    return str(path)


@pytest.mark.parametrize("command", ["train", "hpsearch", "pretrain"])
@pytest.mark.parametrize("fault, tag", [
    ("missing-corpus-file", "error [corpus] "),
    ("checkpoint-vocab", "error [pretrain] checkpoint encoder config does "
                         "not match the run's: vocab_size 7 (run ")],
    ids=["missing-corpus-file", "checkpoint-vocab"])
def test_cli_input_faults_carry_the_same_stage(cli_cfg_path, foreign_checkpoint,
                                               capsys, command, fault, tag):
    path, cfg = cli_cfg_path
    keys = {"encoder_checkpoint": foreign_checkpoint}
    if fault == "missing-corpus-file":
        missing = str(path.parent / "absent")
        keys |= {"task_corpus_path": f"{missing}.conllu",
                 "lid_corpus_path": f"{missing}.tsv",
                 "vocab_path": f"{missing}.txt"}
    path.write_text(json.dumps(cfg.to_dict() | keys))
    argv = [command, "--config", str(path)]
    if command == "hpsearch":
        argv += ["--samples", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(tag)
    assert not Path(cfg.out_dir).exists()    # no checkpoint, no run dir


@pytest.mark.parametrize("source", ["fresh", "checkpoint"])
def test_cli_corpus_longer_than_max_len_fails_before_any_mlm_step(
        cli_cfg_path, monkeypatch, capsys, source):
    # a sequence any split holds must fit the encoder, loaded or fresh,
    # before the first MLM step, not in a later stage
    # (a checkpoint of another max_len than the run's fails as a config
    # mismatch)
    path, cfg = cli_cfg_path
    data = prepare_data(cfg)
    longest = max(len(ex.sequence) for split in (data.task_split, data.lid_split)
                  for part in split.parts for ex in part)
    keys = {"max_len": longest - 1}
    message = (f"corpus sequence length {longest} exceeds encoder "
               f"max_len {longest - 1}")
    if source == "checkpoint":
        short = dataclasses.replace(cfg, max_len=longest - 1)
        keys = {"encoder_checkpoint": str(path.parent / "short.ckpt")}
        save_encoder(keys["encoder_checkpoint"], EncoderModel.init(
            short.encoder_config(len(data.vocab)), seed=0), data.vocab)
        message = (f"checkpoint encoder config does not match the run's: "
                   f"max_len {longest - 1} (run {cfg.max_len})")
    monkeypatch.setattr(pipeline, "mlm_pretrain",
                        lambda *args, **kwargs: pytest.fail("an MLM step ran"))
    path.write_text(json.dumps(cfg.to_dict() | keys))
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error [pretrain] {message}\n"
    assert not Path(cfg.out_dir).exists()


def test_cli_checkpoint_of_another_shape_fails_before_any_mlm_step(
        cli_cfg_path, monkeypatch, capsys):
    # the loaded encoder must be the one the run's config names, or the
    # manifest would record a shape and dropout the run never used
    path, cfg = cli_cfg_path
    shape = {f.name for f in dataclasses.fields(EncoderConfig)}
    base = {k: v for k, v in cfg.to_dict().items() if k not in shape}
    pretrain_cfg = path.parent / "pretrain.json"
    pretrain_cfg.write_text(json.dumps(base | {
        "out_dir": str(path.parent / "pretrained"), "d_model": 32,
        "n_heads": 2, "d_ff": 48, "dropout": 0.3}))
    assert main(["pretrain", "--config", str(pretrain_cfg)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(pipeline, "mlm_pretrain",
                        lambda *args, **kwargs: pytest.fail("an MLM step ran"))
    path.write_text(json.dumps(base))
    ckpt = path.parent / "pretrained" / "encoder-pretrained.ckpt"
    assert main(["train", "--preset", "udpos-frozen", "--config", str(path),
                 "--encoder-checkpoint", str(ckpt)]) == 2
    default = PipelineConfig()
    assert capsys.readouterr().err == (
        f"error [pretrain] checkpoint encoder config does not match the "
        f"run's: d_model 32 (run {default.d_model}), n_heads 2 (run "
        f"{default.n_heads}), d_ff 48 (run {default.d_ff}), dropout 0.3 "
        f"(run {default.dropout})\n")
    assert not Path(cfg.out_dir).exists()


@pytest.mark.parametrize("checkpoint", ["other-corpus", "no-digest"])
def test_cli_checkpoint_of_another_vocabulary_fails_and_writes_nothing(
        cli_cfg_path, monkeypatch, capsys, checkpoint):
    # a checkpoint pretrained on corpus_seed 1 has the run's vocabulary
    # size (78) but 78-entry token lists differ: its ids name other tokens.
    # A checkpoint that names no vocabulary is refused as well.
    path, cfg = cli_cfg_path
    pretrain = dataclasses.replace(
        cfg, out_dir=str(path.parent / "pretrained"),
        corpus_seed=1 if checkpoint == "other-corpus" else cfg.corpus_seed)
    pretrain_cfg = path.parent / "pretrain.json"
    pretrain_cfg.write_text(json.dumps(pretrain.to_dict()))
    assert main(["pretrain", "--config", str(pretrain_cfg)]) == 0
    capsys.readouterr()
    ckpt = Path(pretrain.out_dir) / "encoder-pretrained.ckpt"
    if checkpoint == "no-digest":
        arrays, meta = load_checkpoint(ckpt)
        meta.pop("vocab_sha256", None)
        save_checkpoint(ckpt, arrays, meta)
    monkeypatch.setattr(pipeline, "mlm_pretrain",
                        lambda *args, **kwargs: pytest.fail("an MLM step ran"))
    assert main(["train", "--preset", "udpos-frozen", "--config", str(path),
                 "--encoder-checkpoint", str(ckpt)]) == 2
    theirs = (prepare_data(pretrain).vocab.sha256()
              if checkpoint == "other-corpus" else "(none recorded)")
    ours = prepare_data(cfg).vocab.sha256()
    assert theirs != ours
    assert capsys.readouterr().err == (
        f"error [pretrain] checkpoint vocabulary sha256 {theirs} is not the "
        f"run's {ours}\n")
    assert not Path(cfg.out_dir).exists()


RUN_RECORD = {"train": "manifest.json", "pretrain": "pretrain-manifest.json",
              "hpsearch": "hpsearch.json"}


@pytest.mark.parametrize("first", list(RUN_RECORD))
def test_cli_out_dir_of_another_run_is_refused_before_the_corpus_stage(
        cli_cfg_path, monkeypatch, capsys, first):
    # one directory holds one run: another config (here another seed) may
    # not write into it, while a rerun of the same config may
    path, cfg = cli_cfg_path

    def argv(command, *extra):
        samples = ["--samples", "1"] if command == "hpsearch" else []
        return [command, "--config", str(path), *samples, *extra]

    assert main(argv(first)) == 0
    capsys.readouterr()
    before = dir_bytes(cfg.out_dir)
    monkeypatch.setattr(pipeline, "prepare_data",
                        lambda cfg: pytest.fail("the corpus stage ran"))
    for command in RUN_RECORD:
        assert main(argv(command, "--seed", "5")) == 2
        assert capsys.readouterr().err == (
            f"error [out_dir] {cfg.out_dir} holds another run: its "
            f"{RUN_RECORD[first]} has manifest_id {manifest_id(cfg.to_dict())}\n")
        assert dir_bytes(cfg.out_dir) == before
    monkeypatch.undo()
    assert main(argv(first)) == 0
    assert dir_bytes(cfg.out_dir) == before


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command", list(RUN_RECORD))
def test_cli_out_dir_that_is_a_file_is_refused_before_the_corpus_stage(
        cli_cfg_path, monkeypatch, capsys, command, under):
    # it used to fail only when the first artifact was written: after
    # pretraining (train, pretrain) or after the whole search (hpsearch)
    path, cfg = cli_cfg_path
    blocker = Path(cfg.out_dir)
    blocker.write_text("not a run\n")
    out_dir = blocker / "run" if under else blocker
    before = dir_bytes(path.parent)
    monkeypatch.setattr(pipeline, "prepare_data",
                        lambda cfg: pytest.fail("the corpus stage ran"))
    samples = ["--samples", "1"] if command == "hpsearch" else []
    assert main([command, "--config", str(path), *samples,
                 "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == (
        f"error [out_dir] {blocker} is not a directory\n")
    assert dir_bytes(path.parent) == before


# (command, the run record it reads, what that record holds, the stage
# its error names)
BAD_RECORDS = {
    "train-manifest-list": ("train", "manifest.json", "[]", "out_dir"),
    "train-manifest-not-json": ("train", "manifest.json", '{"manifest_id": 1,}',
                                "out_dir"),
    "analyze-manifest-list": ("analyze", "manifest.json", "[]", "analyze"),
    "analyze-manifest-without-config": ("analyze", "manifest.json",
                                        '{"manifest_id": "x"}', "analyze"),
    "compare-bundle-list": ("compare", "bundle.json", "[]", "cli"),
    "compare-metrics-list": ("compare", "bundle.json", '{"metrics": []}', "cli"),
    "compare-task-f1-list": ("compare", "bundle.json",
                             '{"metrics": {"task_f1": []}}', "cli"),
    "compare-per-language-list": (
        "compare", "bundle.json",
        '{"metrics": {"task_f1": {"per_language": []}}}', "cli"),
}


@pytest.mark.parametrize("case", list(BAD_RECORDS))
def test_cli_bad_run_records_fail_by_file_name(cli_cfg_path, capsys, case):
    # each used to end in a traceback (exit 1), in a message naming no
    # file or in no error at all: an AttributeError or TypeError on a
    # list, a bare "Expecting property name", "error [cli] 'config'", or
    # a compare table over a per_language list
    command, name, text, stage = BAD_RECORDS[case]
    path, cfg = cli_cfg_path
    run = Path(cfg.out_dir)
    run.mkdir()
    record = run / name
    record.write_text(text)
    argv = {
        "train": ["train", "--config", str(path)],
        "analyze": ["analyze", "--run", str(run)],
        "compare": ["compare", "--runs", str(run), str(run), "--out",
                    str(path.parent / "table.json")],
    }[command]
    before = dir_bytes(path.parent)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error [{stage}] {record} "), err
    assert err.count("\n") == 1
    assert dir_bytes(path.parent) == before


@pytest.mark.parametrize("ours, theirs", [
    ({}, {"corpus_seed": 1}), ({"n_layers": 2}, {"n_layers": 1})],
    ids=["other-corpus", "other-shape"])
def test_cli_analyze_refuses_a_final_encoder_of_another_run(
        cli_cfg_path, capsys, ours, theirs):
    # an encoder pretrained on corpus_seed 1 has the run's shape and
    # vocabulary size, but its ids name other tokens; one pretrained on
    # the run's corpus at another n_layers has the run's vocabulary
    path, cfg = cli_cfg_path
    cfg = dataclasses.replace(cfg, **ours)
    path.write_text(json.dumps(cfg.to_dict()))
    assert main(["train", "--config", str(path)]) == 0
    other = dataclasses.replace(cfg, out_dir=str(path.parent / "other"),
                                **theirs)
    other_cfg = path.parent / "other.json"
    other_cfg.write_text(json.dumps(other.to_dict()))
    assert main(["pretrain", "--config", str(other_cfg)]) == 0
    capsys.readouterr()
    run = Path(cfg.out_dir)
    shutil.copyfile(Path(other.out_dir) / "encoder-pretrained.ckpt",
                    run / "encoder-final.ckpt")
    before = dir_bytes(run)
    assert main(["analyze", "--run", cfg.out_dir]) == 2
    if "corpus_seed" in theirs:
        their_sha = prepare_data(other).vocab.sha256()
        our_sha = prepare_data(cfg).vocab.sha256()
        assert their_sha != our_sha
        message = (f"checkpoint vocabulary sha256 {their_sha} is not the "
                   f"run's {our_sha}")
    else:
        message = ("checkpoint encoder config does not match the run's: "
                   "n_layers 1 (run 2)")
    assert capsys.readouterr().err == f"error [checkpoints] {message}\n"
    assert dir_bytes(run) == before


def test_pretrain_manifest_keys(cli_cfg_path, capsys):
    path, cfg = cli_cfg_path
    assert main(["pretrain", "--config", str(path)]) == 0
    out = Path(cfg.out_dir)
    assert capsys.readouterr().out.startswith(
        f"pretrained encoder -> {out / 'encoder-pretrained.ckpt'}")
    manifest = json.loads((out / "pretrain-manifest.json").read_text())
    assert set(manifest) == {"manifest_id", "config", "mlm_steps",
                             "mlm_final_loss", "numerics"}
    assert manifest["numerics"] == {"numpy": numpy.__version__,
                                    "scipy": scipy.__version__,
                                    "blas_threads": process.thread_count()}
    assert manifest["manifest_id"] == manifest_id(cfg.to_dict())
    assert manifest["config"] == cfg.to_dict()
    assert manifest["mlm_steps"] == cfg.mlm_steps
    assert isinstance(manifest["mlm_final_loss"], float)
    assert sorted(p.name for p in out.iterdir()) == [
        "encoder-pretrained.ckpt", "pretrain-manifest.json"]


def test_keep_heap_sets_both_thresholds(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(process.ctypes, "CDLL",
                        lambda name: types.SimpleNamespace(mallopt=mallopt))
    process.keep_heap()
    assert dict(calls) == {
        process._M_MMAP_THRESHOLD: process._MMAP_THRESHOLD_BYTES,
        process._M_TRIM_THRESHOLD: process._TRIM_THRESHOLD_BYTES}
    assert mallopt.argtypes == [ctypes.c_int, ctypes.c_int]


@pytest.mark.parametrize("libc", ["unloadable", "without-mallopt"])
def test_keep_heap_is_silent_without_mallopt(libc, monkeypatch, tmp_path,
                                             capsys):
    def cdll(name):
        if libc == "unloadable":
            raise OSError("no C library")
        return object()

    monkeypatch.setattr(process.ctypes, "CDLL", cdll)
    assert process.keep_heap() is None
    importlib.reload(langlab)
    assert main(["gen-corpus", "--out", str(tmp_path), "--languages", "2",
                 "--per-language", "4", "--concepts", "30"]) == 0
    assert capsys.readouterr().err == ""


def test_one_blas_thread_sets_numpys_blas_to_one_thread(monkeypatch):
    loaded, calls = [], []

    def set_threads(n):
        calls.append(n)

    def cdll(name):
        loaded.append(name)
        return types.SimpleNamespace(
            scipy_openblas_set_num_threads64_=set_threads)

    monkeypatch.setattr(process.ctypes, "CDLL", cdll)
    process.pin_one_thread()
    assert loaded == [numpy._core._multiarray_umath.__file__]
    assert calls == [1]
    assert set_threads.argtypes == [ctypes.c_int]


@pytest.mark.parametrize("umath", ["unloadable", "without-setter"])
def test_one_blas_thread_is_silent_without_the_setter(umath, monkeypatch,
                                                      tmp_path, capsys):
    def cdll(name):
        if umath == "unloadable":
            raise OSError("cannot load")
        return object()

    monkeypatch.setattr(process.ctypes, "CDLL", cdll)
    assert process.pin_one_thread() is None
    importlib.reload(langlab)
    assert main(["gen-corpus", "--out", str(tmp_path), "--languages", "2",
                 "--per-language", "4", "--concepts", "30"]) == 0
    assert capsys.readouterr().err == ""


def test_suite_runs_blas_on_one_thread():
    # importing langlab pins BLAS, so this holds before any test calls
    # cli.main
    if process.thread_count() is None:
        pytest.skip("numpy's BLAS has no thread-count getter")
    assert process.thread_count() == 1


def _subprocess_env(threads: str) -> dict:
    """The environment of a child process at the given BLAS thread count
    that imports langlab from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return os.environ | {
        "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
        "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def test_cli_run_records_one_blas_thread(tmp_path):
    # a fresh process started at 2 threads: importing langlab makes it 1
    if process.thread_count() is None:
        pytest.skip("numpy's BLAS has no thread-count getter")
    (tmp_path / "cfg.json").write_text(json.dumps({
        "n_languages": 2, "task_examples_per_language": 10,
        "lid_examples_per_language": 10, "mlm_steps": 2}))
    proc = subprocess.run(
        [sys.executable, "-m", "langlab.cli", "pretrain", "--config",
         "cfg.json", "--out-dir", "run"],
        cwd=tmp_path, env=_subprocess_env("2"), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads(
        (tmp_path / "run" / "pretrain-manifest.json").read_text())
    assert manifest["numerics"] == {"numpy": numpy.__version__,
                                    "scipy": scipy.__version__,
                                    "blas_threads": 1}


# A gradient-reversal run at the default encoder shape, once through the
# command and once through the library; the same relative out_dir, so
# every run has one manifest id.
THREADS_CONFIG = {"mlm_steps": 10, "task_examples_per_language": 80,
                  "lid_examples_per_language": 40, "epochs": 1,
                  "tsne_iterations": 50}
THREADS_ENTRY = {
    "cli": [sys.executable, "-m", "langlab.cli", "train", "--config",
            "cfg.json", "--preset", "udpos-gradrev", "--encoder-lr", "7e-3",
            "--out-dir", "run"],
    "library": [sys.executable, "-c",
                "from langlab.config import load_config\n"
                "from langlab.pipeline import run_experiment\n"
                "run_experiment(load_config('cfg.json', preset='udpos-gradrev',"
                " overrides={'encoder_lr': 7e-3, 'out_dir': 'run'}))\n"],
}


def _thread_run_digests(cwd: Path, entry: str, threads: str) -> dict:
    """sha256 of each file a gradient-reversal run writes through the
    entry point at the given BLAS thread count."""
    cwd.mkdir()
    (cwd / "cfg.json").write_text(json.dumps(THREADS_CONFIG))
    proc = subprocess.run(THREADS_ENTRY[entry], cwd=cwd,
                          env=_subprocess_env(threads), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in dir_bytes(cwd / "run").items()}


@pytest.fixture(scope="module")
def cli_run_at_one_thread(tmp_path_factory):
    digests = _thread_run_digests(tmp_path_factory.mktemp("threads") / "cli",
                                  "cli", "1")
    assert len(digests) == 9
    return digests


@pytest.mark.parametrize("entry, threads",
                         [("cli", "2"), ("library", "1"), ("library", "2")],
                         ids=["cli-2", "library-1", "library-2"])
def test_run_files_do_not_depend_on_the_blas_thread_count(
        cli_run_at_one_thread, tmp_path, entry, threads):
    # threaded BLAS can sum a product in another order: at the default
    # encoder shape a gradient-reversal run at 2 threads wrote both
    # checkpoints, heads.ckpt, the dumps and the projections differently
    # from one at 1 thread.  A library caller runs under the command's
    # regime too: while only cli.main set it, a run_experiment at 2
    # threads wrote 8 of 9 files differently from the command's.
    assert (_thread_run_digests(tmp_path / "run-dir", entry, threads)
            == cli_run_at_one_thread)


def test_cli_error_paths(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("error [cli]")
    assert main(["analyze", "--run", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error [analyze]")
