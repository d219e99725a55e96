"""Config resolution, the end-to-end pipeline, bundles, and the CLI.

Pipeline tests run a miniature 3-language world end to end and check
artifact layout, provenance stamping, byte-determinism of reruns, and
the comparison/export paths the CLI exposes.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

import pytest

from langlab import cli
from langlab.cli import main
from langlab.config import (
    PRESETS,
    SAMPLE_QUOTAS,
    PipelineConfig,
    apply_preset,
    canonical_json,
    config_from_dict,
    load_config,
    manifest_id,
)
from langlab.data.io import load_conllu, load_lid_paragraphs, load_nli_tsv
from langlab.pipeline import (
    EXPORT_KINDS,
    METRIC_PATHS,
    ResultsBundle,
    StageError,
    _write_json,
    compare_runs,
    export_plot_data,
    format_delta_table,
    hyperparameter_search,
    load_corpora,
    reanalyze,
    run_experiment,
)
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


def test_config_accepts_zero_pretraining_and_tsne_steps():
    cfg = PipelineConfig(mlm_steps=0, tsne_iterations=0)
    assert cfg.mlm_steps == 0 and cfg.tsne_iterations == 0


def test_json_writer_refuses_nan(tmp_path):
    with pytest.raises(ValueError):
        _write_json(tmp_path / "bundle.json", {"v": float("nan")})
    assert not (tmp_path / "bundle.json").exists()


def test_config_sub_configs():
    cfg = PipelineConfig(regime="entropy_max", w=0.7)
    exp = cfg.experiment_config()
    assert exp.regime == "entropy_max" and exp.w == 0.7
    assert exp.head_lr == cfg.head_lr and exp.epochs == cfg.epochs
    enc = cfg.encoder_config(vocab_size=100)
    assert enc.vocab_size == 100 and enc.d_model == cfg.d_model
    assert enc.dropout == cfg.dropout


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
    with pytest.raises(ValueError, match="flat JSON object"):
        load_config(bad)


def test_apply_preset_all_names_valid():
    for name in PRESETS:
        cfg = apply_preset(PipelineConfig(), name)
        exp = cfg.experiment_config()   # regime/weight combination validates
        assert exp.regime == PRESETS[name]["regime"]
    with pytest.raises(ValueError, match="unknown preset"):
        apply_preset(PipelineConfig(), "udpos-adapters")


def test_apply_preset_resets_other_regime_weights_and_quota():
    cfg = apply_preset(PipelineConfig(), "udpos-gradrev")
    assert cfg.grl_lambda == 0.1 and cfg.w is None
    back = apply_preset(cfg, "udpos-frozen")
    assert back.grl_lambda is None and back.w is None
    # switching task re-derives the default quota
    xnli = apply_preset(PipelineConfig(), "xnli-finetuned")
    assert xnli.quota_task == SAMPLE_QUOTAS["pair_inference"]


def test_canonical_json_and_manifest_id():
    obj = {"b": 1, "a": [1, 2], "c": {"y": 0.5, "x": None}}
    text = canonical_json(obj)
    assert text == '{"a":[1,2],"b":1,"c":{"x":null,"y":0.5}}'
    assert manifest_id(obj) == hashlib.sha256(text.encode()).hexdigest()
    # any field change moves the id, including the output directory
    cfg = tiny_pipeline_cfg("a")
    other = cfg.replaced(out_dir="b")
    assert manifest_id(cfg.to_dict()) != manifest_id(other.to_dict())


def test_stage_error_format():
    err = StageError("corpus", "file not found")
    assert str(err) == "[corpus] file not found"
    assert err.stage == "corpus"


def test_load_corpora_needs_all_three_paths(tmp_path):
    cfg = tiny_pipeline_cfg(str(tmp_path), task_corpus_path="x.conllu")
    with pytest.raises(ValueError, match="together"):
        load_corpora(cfg)


# ---------------------------------------------------------------------------
# end-to-end runs

RUN_FILES = (
    "manifest.json", "bundle.json",
    "encoder-pretrained.ckpt", "encoder-final.ckpt", "heads.ckpt",
    "projection-task.csv", "projection-lid.csv",
    "embeddings-task.tsv", "embeddings-lid.tsv",
)


def test_run_writes_all_artifacts(frozen_bundle):
    _, bundle = frozen_bundle
    for name in RUN_FILES:
        assert (bundle.root / name).exists(), name


def test_bundle_schema_and_metrics(frozen_bundle):
    cfg, bundle = frozen_bundle
    data = bundle.data
    assert data["schema_version"] == 1
    assert data["column"] == "initial"       # frozen probe reports "initial"
    assert data["regime"] == "frozen_probe"
    assert data["languages"] == ["aa", "ab", "ac"]
    assert data["task_labels"] == ["FUNC", "NOUN", "VERB"]
    for path in METRIC_PATHS:
        value = bundle.metric(path)
        assert value is not None and 0.0 <= value <= 1.0, path
    assert bundle.metric("task_f1.per_language.aa") is not None
    assert bundle.metric("no.such.metric") is None
    assert len(data["training"]["epoch_val_f1"]) == cfg.epochs


def test_every_metric_cell_carries_the_manifest_id(frozen_bundle):
    cfg, bundle = frozen_bundle
    mid = manifest_id(cfg.to_dict())
    assert bundle.data["manifest"] == mid

    def walk(node):
        if isinstance(node, dict):
            if "value" in node and "manifest" in node:
                yield node
            else:
                for v in node.values():
                    yield from walk(v)

    cells = list(walk(bundle.data["metrics"]))
    assert cells
    assert all(c["manifest"] == mid for c in cells)


def test_frozen_probe_run_keeps_encoder_bytes(frozen_bundle):
    _, bundle = frozen_bundle
    pre = (bundle.root / "encoder-pretrained.ckpt").read_bytes()
    final = (bundle.root / "encoder-final.ckpt").read_bytes()
    assert pre == final


def test_finetune_run_moves_encoder(finetune_bundle):
    _, bundle = finetune_bundle
    assert bundle.data["column"] == "finetune"
    pre = (bundle.root / "encoder-pretrained.ckpt").read_bytes()
    final = (bundle.root / "encoder-final.ckpt").read_bytes()
    assert pre != final


def test_manifest_round_trips_config(frozen_bundle):
    cfg, bundle = frozen_bundle
    manifest = json.loads((bundle.root / "manifest.json").read_text())
    assert manifest["manifest_id"] == manifest_id(cfg.to_dict())
    assert config_from_dict(manifest["config"]) == cfg
    assert manifest["mlm_final_loss"] > 0.0
    assert 0 <= manifest["selected_epoch"] < cfg.epochs


def test_bundle_load_matches_returned(frozen_bundle):
    _, bundle = frozen_bundle
    loaded = ResultsBundle.load(bundle.root)
    assert loaded.data == bundle.data
    with pytest.raises(FileNotFoundError, match="bundle.json"):
        ResultsBundle.load(bundle.root / "nowhere")


def test_rerun_is_byte_identical(frozen_bundle):
    cfg, bundle = frozen_bundle
    before = dir_bytes(bundle.root)
    again = run_experiment(cfg)
    after = dir_bytes(bundle.root)
    assert sorted(before) == sorted(after)
    for name in before:
        assert before[name] == after[name], name
    assert again.data == bundle.data


def test_reanalyze_is_byte_identical(frozen_bundle):
    _, bundle = frozen_bundle
    watched = ("bundle.json", "projection-task.csv", "projection-lid.csv",
               "embeddings-task.tsv", "embeddings-lid.tsv")
    before = {n: (bundle.root / n).read_bytes() for n in watched}
    re_bundle = reanalyze(bundle.root)
    for n in watched:
        assert (bundle.root / n).read_bytes() == before[n], n
    assert re_bundle.data == bundle.data
    with pytest.raises(StageError, match="\\[analyze\\].*manifest.json"):
        reanalyze(bundle.root / "nowhere")


# ---------------------------------------------------------------------------
# comparison and export


def test_compare_runs_deltas(frozen_bundle, finetune_bundle):
    _, frozen = frozen_bundle
    _, finetuned = finetune_bundle
    table = compare_runs([frozen, finetuned])
    assert table["baseline"] == frozen.data["manifest"]
    assert table["columns"] == ["initial", "finetune"]
    by_metric = {r["metric"]: r for r in table["rows"]}
    assert set(METRIC_PATHS) <= set(by_metric)
    assert "task_f1.per_language.aa" in by_metric
    row = by_metric["task_f1.overall"]
    assert row["deltas"][0] == pytest.approx(
        finetuned.metric("task_f1.overall") - frozen.metric("task_f1.overall"))
    # self-comparison: all deltas zero
    self_table = compare_runs([frozen, frozen])
    assert all(d == 0.0 for r in self_table["rows"] for d in r["deltas"])


def test_compare_runs_validation(frozen_bundle, finetune_bundle):
    _, frozen = frozen_bundle
    _, finetuned = finetune_bundle
    with pytest.raises(ValueError, match="at least two"):
        compare_runs([frozen])
    doctored = copy.deepcopy(finetuned)
    doctored.data["task"] = "pair_inference"
    with pytest.raises(ValueError, match="disagree on 'task'"):
        compare_runs([frozen, doctored])


def test_compare_runs_marks_missing_metrics_null(frozen_bundle,
                                                 finetune_bundle):
    _, frozen = frozen_bundle
    _, finetuned = finetune_bundle
    gappy = copy.deepcopy(finetuned)
    del gappy.data["metrics"]["lid_f1_lid_data"]
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


def test_export_plot_data(frozen_bundle, tmp_path):
    _, bundle = frozen_bundle
    for which in EXPORT_KINDS:
        dest = export_plot_data(bundle, which)
        assert dest == bundle.root / f"plot-{which}.csv"
        dataset = which.split("-")[1]
        src = bundle.root / f"projection-{dataset}.csv"
        assert dest.read_bytes() == src.read_bytes()
    custom = tmp_path / "custom.csv"
    assert export_plot_data(bundle, "labels-task", custom) == custom
    assert custom.exists()
    with pytest.raises(StageError, match="\\[export\\] unknown plot kind"):
        export_plot_data(bundle, "labels-parsing")


# ---------------------------------------------------------------------------
# hyperparameter search


def test_hyperparameter_search_report(pipe_dir):
    cfg = tiny_pipeline_cfg(str(pipe_dir / "hp"), mlm_steps=20)
    report = hyperparameter_search(cfg, n_samples=2, seed=1)
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


# ---------------------------------------------------------------------------
# command line


def test_cli_gen_corpus_round_trips(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen-corpus", "--out", str(out), "--languages", "3",
                 "--per-language", "6", "--concepts", "30", "--seed", "0"]) == 0
    assert capsys.readouterr().out.startswith("wrote")
    vocab = Vocabulary.load(out / "vocab.txt")
    assert len(load_conllu(out / "token_tag.conllu", vocab)) == 18
    assert len(load_nli_tsv(out / "pair_inference.tsv", vocab)) == 18
    assert len(load_lid_paragraphs(out / "lid.tsv", vocab)) == 18
    manifest = json.loads((out / "corpus-manifest.json").read_text())
    assert manifest["languages"] == 3
    assert set(manifest["files"]) == {"vocab", "token_tag", "pair_inference",
                                      "lid"}


@pytest.fixture()
def cli_cfg_path(tmp_path):
    cfg = tiny_pipeline_cfg(str(tmp_path / "run"), epochs=1, mlm_steps=10,
                            lid_examples_per_language=24,
                            task_examples_per_language=30,
                            tsne_iterations=30, kmeans_runs=2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path, cfg


def test_cli_train_analyze_export_compare(cli_cfg_path, tmp_path, capsys):
    path, cfg = cli_cfg_path
    assert main(["train", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "task F1 overall" in out
    assert (Path(cfg.out_dir) / "bundle.json").exists()

    assert main(["analyze", "--run", cfg.out_dir]) == 0
    assert "recomputed bundle" in capsys.readouterr().out

    assert main(["export", "--run", cfg.out_dir, "--which",
                 "languages-lid"]) == 0
    assert (Path(cfg.out_dir) / "plot-languages-lid.csv").exists()

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


def test_cli_probe_lid(cli_cfg_path, capsys):
    path, cfg = cli_cfg_path
    # no checkpoint: stage-tagged failure, exit 2
    assert main(["probe-lid", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error [probe]")

    assert main(["pretrain", "--config", str(path)]) == 0
    capsys.readouterr()
    ckpt = Path(cfg.out_dir) / "encoder-pretrained.ckpt"
    assert ckpt.exists()
    assert main(["probe-lid", "--config", str(path),
                 "--encoder-checkpoint", str(ckpt)]) == 0
    assert "language probe val F1" in capsys.readouterr().out


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


def test_keep_heap_sets_both_thresholds(monkeypatch):
    calls = []

    class Libc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
    cli._keep_heap()
    assert dict(calls) == {cli._M_MMAP_THRESHOLD: cli._MMAP_THRESHOLD_BYTES,
                           cli._M_TRIM_THRESHOLD: cli._TRIM_THRESHOLD_BYTES}


@pytest.mark.parametrize("libc", ["unloadable", "without-mallopt"])
def test_keep_heap_is_silent_without_mallopt(libc, monkeypatch, tmp_path,
                                             capsys):
    def cdll(name):
        if libc == "unloadable":
            raise OSError("no C library")
        return object()

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert cli._keep_heap() is None
    assert main(["gen-corpus", "--out", str(tmp_path), "--languages", "2",
                 "--per-language", "4", "--concepts", "30"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_error_paths(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("error [cli]")
    assert main(["analyze", "--run", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error [analyze]")
    assert main(["export", "--run", str(tmp_path), "--which",
                 "labels-task"]) == 2
    assert capsys.readouterr().err.startswith("error [cli]")
    with pytest.raises(SystemExit):
        main(["export", "--run", str(tmp_path), "--which", "labels-parsing"])
