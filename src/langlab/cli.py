"""Command-line entry points.

Subcommands: gen-corpus, pretrain, train, probe-lid, analyze, hpsearch,
export, compare.  All configuration is explicit (flat JSON config file,
presets, flag overrides); no environment variables.  Exit code 0 on
success; failures print a stage-tagged diagnostic to stderr and exit
nonzero.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path

from langlab.config import (
    PRESETS,
    PipelineConfig,
    apply_preset,
    load_config,
    manifest_id,
)
from langlab.data.io import write_conllu, write_lid_tsv, write_nli_tsv
from langlab.data.synthetic import build_vocabulary, generate_corpus, make_language_specs
from langlab.pipeline import (
    EXPORT_KINDS,
    ResultsBundle,
    StageError,
    _write_json,
    compare_runs,
    export_plot_data,
    format_delta_table,
    hyperparameter_search,
    prepare_data,
    pretrain_encoder,
    reanalyze,
    run_experiment,
    retrain_language_probe,
)
from langlab.checkpoint import load_encoder, save_encoder
from langlab.training.regimes import corpus_languages

# ExperimentConfig fields exposed as flag overrides on config-driven
# subcommands; flags mirror config field names.
_OVERRIDE_FLAGS = (
    ("regime", str), ("task", str), ("pivot-language", str),
    ("init-std", float), ("batch-size", int), ("head-lr", float),
    ("encoder-lr", float), ("grl-lambda", float), ("w", float),
    ("language-term-variant", str), ("epochs", int), ("seed", int),
    ("out-dir", str), ("encoder-checkpoint", str),
)


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat JSON config file")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named hyperparameter preset applied over the config")
    for flag, typ in _OVERRIDE_FLAGS:
        p.add_argument(f"--{flag}", type=typ, default=None,
                       help=argparse.SUPPRESS)


def _resolve_config(args) -> PipelineConfig:
    overrides = {}
    for flag, _ in _OVERRIDE_FLAGS:
        value = getattr(args, flag.replace("-", "_"))
        if value is not None:
            overrides[flag.replace("-", "_")] = value
    if args.config:
        return load_config(args.config, preset=args.preset, overrides=overrides)
    cfg = PipelineConfig()
    if args.preset:
        cfg = apply_preset(cfg, args.preset)
    if overrides:
        cfg = cfg.replaced(**overrides)
        cfg.__post_init__()
    return cfg


def _cmd_gen_corpus(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    specs = make_language_specs(args.languages, args.concepts,
                                args.overlap, seed=args.seed)
    vocab = build_vocabulary(specs)
    vocab.save(out / "vocab.txt")
    written = {"vocab": "vocab.txt"}
    tasks = (["token_tag", "pair_inference", "lid"]
             if args.task == "all" else [args.task])
    for task in tasks:
        examples = generate_corpus(specs, args.per_language, task,
                                   seed=args.seed, vocab=vocab)
        if task == "token_tag":
            write_conllu(examples, vocab, out / "token_tag.conllu")
            written[task] = "token_tag.conllu"
        elif task == "pair_inference":
            write_nli_tsv(examples, vocab, out / "pair_inference.tsv")
            written[task] = "pair_inference.tsv"
        else:
            write_lid_tsv(examples, vocab, out / "lid.tsv")
            written[task] = "lid.tsv"
    settings = {"languages": args.languages, "per_language": args.per_language,
                "concepts": args.concepts, "overlap": args.overlap,
                "seed": args.seed, "files": written}
    _write_json(out / "corpus-manifest.json", settings)
    print(f"wrote {', '.join(sorted(written.values()))} to {out}")
    return 0


def _cmd_pretrain(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab, task_split, lid_split = prepare_data(cfg)
    encoder, losses = pretrain_encoder(cfg, vocab, lid_split)
    path = out / "encoder-pretrained.ckpt"
    save_encoder(path, encoder)
    manifest = {
        "manifest_id": manifest_id(cfg.to_dict()),
        "config": cfg.to_dict(),
        "mlm_steps": len(losses),
        "mlm_final_loss": losses[-1] if losses else None,
        "checkpoint": path.name,
    }
    _write_json(out / "pretrain-manifest.json", manifest)
    final = f"{losses[-1]:.4f}" if losses else "n/a"
    print(f"pretrained encoder -> {path} (final masked loss {final})")
    return 0


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    bundle = run_experiment(cfg)
    m = bundle.metric
    print(f"run {bundle.data['manifest'][:12]} ({bundle.data['column']}) "
          f"-> {bundle.root}")
    print(f"task F1 overall      {m('task_f1.overall'):.4f}")
    print(f"LID F1 on task data  {m('lid_f1_task_data'):.4f}")
    print(f"LID F1 on LID data   {m('lid_f1_lid_data'):.4f}")
    print(f"V task label/lang    {m('vmeasure.task.label'):.4f} / "
          f"{m('vmeasure.task.language'):.4f}")
    return 0


def _cmd_probe_lid(args) -> int:
    cfg = _resolve_config(args)
    if not cfg.encoder_checkpoint:
        raise StageError("probe", "probe-lid needs --encoder-checkpoint "
                                  "(or encoder_checkpoint in the config)")
    vocab, task_split, lid_split = prepare_data(cfg)
    encoder = load_encoder(cfg.encoder_checkpoint)
    if encoder.config.vocab_size != len(vocab):
        raise StageError("probe", f"checkpoint vocab size "
                                  f"{encoder.config.vocab_size} != corpus "
                                  f"vocab size {len(vocab)}")
    probe = retrain_language_probe(encoder, lid_split, cfg.experiment_config())
    best = probe.epoch_val_f1[probe.selected_epoch]
    print(f"language probe val F1 per epoch: "
          f"{' '.join(f'{s:.4f}' for s in probe.epoch_val_f1)}")
    print(f"selected epoch {probe.selected_epoch} (F1 {best:.4f}) over "
          f"{len(corpus_languages(lid_split))} languages")
    return 0


def _cmd_analyze(args) -> int:
    bundle = reanalyze(args.run)
    print(f"recomputed bundle {bundle.data['manifest'][:12]} under {bundle.root}")
    return 0


def _cmd_hpsearch(args) -> int:
    cfg = _resolve_config(args)
    report = hyperparameter_search(cfg, n_samples=args.samples)
    print(f"{'rank':>4s} {'dev F1':>8s}  config")
    for entry in report["ranking"]:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(entry["config"].items()))
        print(f"{entry['rank']:>4d} {entry['dev_task_f1']:8.4f}  {pairs}")
    return 0


def _cmd_export(args) -> int:
    bundle = ResultsBundle.load(args.run)
    dest = export_plot_data(bundle, args.which, args.out)
    print(f"wrote {dest}")
    return 0


def _cmd_compare(args) -> int:
    bundles = [ResultsBundle.load(d) for d in args.runs]
    table = compare_runs(bundles)
    if args.out:
        _write_json(Path(args.out), table)
    print(format_delta_table(table))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="langlab",
        description="Desk-scale testbed for language-specific vs. "
                    "language-neutral representations in a small "
                    "multilingual encoder.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="write synthetic corpora to disk")
    p.add_argument("--out", required=True)
    p.add_argument("--task", default="all",
                   choices=["all", "token_tag", "pair_inference", "lid"])
    p.add_argument("--languages", type=int, default=8)
    p.add_argument("--per-language", type=int, default=240)
    p.add_argument("--concepts", type=int, default=60)
    p.add_argument("--overlap", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_corpus)

    p = sub.add_parser("pretrain", help="masked-token pretraining only")
    _add_config_args(p)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("train", help="full pipeline: corpus, pretrain, "
                                     "regime training, probe, analysis")
    _add_config_args(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("probe-lid", help="retrain the language probe "
                                         "against a frozen checkpoint")
    _add_config_args(p)
    p.set_defaults(func=_cmd_probe_lid)

    p = sub.add_parser("analyze", help="recompute analysis outputs for a "
                                       "finished run directory")
    p.add_argument("--run", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("hpsearch", help="random hyperparameter search")
    _add_config_args(p)
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=_cmd_hpsearch)

    p = sub.add_parser("export", help="export plot data from a bundle")
    p.add_argument("--run", required=True)
    p.add_argument("--which", required=True, choices=list(EXPORT_KINDS))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("compare", help="delta table across run bundles")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

    return parser


# glibc mallopt parameters and the values main() gives them
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 256 << 20
_TRIM_THRESHOLD_BYTES = 1 << 30


def _keep_heap() -> None:
    """Keep freed arrays in the heap for reuse instead of returning them.

    By default glibc serves arrays above its (dynamic) mmap threshold
    with fresh mmaps and trims the heap once the gradient tape is freed,
    so every training step page-faults its working set in again.  Both
    thresholds are set: setting either alone freezes the mmap threshold
    at its 128 KiB start.  A libc without mallopt leaves the defaults.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    _keep_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print(f"error [cli] {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
