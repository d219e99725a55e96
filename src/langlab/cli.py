"""Command-line entry points.

Subcommands: gen-corpus, pretrain, train, analyze, hpsearch, compare.
The CLI only parses arguments and prints results: every command that
touches the encoder runs through langlab.pipeline's stages.
All configuration is explicit (flat JSON config file, presets, flag
overrides); no environment variables.  The process regime (BLAS on one
thread, the heap kept for reuse) is set when langlab is imported, the
same for the command as for any library caller.  Exit code 0 on success;
failures print a stage-tagged diagnostic to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from functools import partial
from pathlib import Path

from langlab.config import PRESETS, PipelineConfig, load_config
from langlab.data.io import write_conllu, write_lid_tsv, write_nli_tsv
from langlab.data.synthetic import (
    DEFAULT_N_CONCEPTS,
    DEFAULT_OVERLAP,
    build_vocabulary,
    generate_corpus,
    make_language_specs,
)
from langlab.files import write_json
from langlab.pipeline import (
    StageError,
    bundle_metric,
    compare_runs,
    format_delta_table,
    hyperparameter_search,
    load_bundle,
    reanalyze,
    run_experiment,
    run_pretraining,
)

# PipelineConfig fields exposed as flag overrides on config-driven
# subcommands: the regime settings plus out_dir and encoder_checkpoint.
# A flag is its field's name with dashes; "float | None" parses as float.
_OVERRIDE_FLAGS = ("regime", "task", "pivot_language", "init_std",
                   "batch_size", "head_lr", "encoder_lr", "grl_lambda", "w",
                   "epochs", "seed", "out_dir", "encoder_checkpoint")
_FIELD_TYPES = {f.name: {"int": int, "float": float, "str": str}[
    f.type.partition(" | ")[0]] for f in dataclasses.fields(PipelineConfig)}


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat JSON config file")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named hyperparameter preset applied over the config")
    for name in _OVERRIDE_FLAGS:
        p.add_argument(f"--{name.replace('_', '-')}", type=_FIELD_TYPES[name],
                       default=None, help=argparse.SUPPRESS)


def _resolve_config(args) -> PipelineConfig:
    overrides = {name: getattr(args, name) for name in _OVERRIDE_FLAGS
                 if getattr(args, name) is not None}
    return load_config(args.config, preset=args.preset, overrides=overrides)


# gen-corpus: each task's writer and file name
CORPUS_FILES = {
    "token_tag": (write_conllu, "token_tag.conllu"),
    "pair_inference": (write_nli_tsv, "pair_inference.tsv"),
    "lid": (write_lid_tsv, "lid.tsv"),
}


def _cmd_gen_corpus(args) -> int:
    specs = make_language_specs(args.languages, args.concepts,
                                args.overlap, seed=args.seed)
    vocab = build_vocabulary(specs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vocab.save(out / "vocab.txt")
    written = ["vocab.txt"]
    for task in CORPUS_FILES if args.task == "all" else [args.task]:
        write, name = CORPUS_FILES[task]
        write(generate_corpus(specs, args.per_language, task, seed=args.seed,
                              vocab=vocab), vocab, out / name)
        written.append(name)
    write_json(out / "corpus-manifest.json", {
        "languages": args.languages, "per_language": args.per_language,
        "concepts": args.concepts, "overlap": args.overlap, "seed": args.seed})
    print(f"wrote {', '.join(sorted(written))} to {out}")
    return 0


def _cmd_pretrain(args) -> int:
    path, losses = run_pretraining(_resolve_config(args))
    final = f"{losses[-1]:.4f}" if losses else "n/a"
    print(f"pretrained encoder -> {path} (final masked loss {final})")
    return 0


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    bundle = run_experiment(cfg)
    m = partial(bundle_metric, bundle)
    print(f"run {bundle['manifest'][:12]} ({bundle['column']}) "
          f"-> {Path(cfg.out_dir)}")
    print(f"task F1 overall      {m('task_f1.overall'):.4f}")
    print(f"LID F1 on task data  {m('lid_f1_task_data'):.4f}")
    print(f"LID F1 on LID data   {m('lid_f1_lid_data'):.4f}")
    print(f"V task label/lang    {m('vmeasure.task.label'):.4f} / "
          f"{m('vmeasure.task.language'):.4f}")
    return 0


def _cmd_analyze(args) -> int:
    bundle = reanalyze(args.run)
    print(f"recomputed bundle {bundle['manifest'][:12]} under {Path(args.run)}")
    return 0


def _cmd_hpsearch(args) -> int:
    cfg = _resolve_config(args)
    report = hyperparameter_search(cfg, n_samples=args.samples)
    print(f"{'rank':>4s} {'dev F1':>8s}  config")
    for entry in report["ranking"]:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(entry["config"].items()))
        print(f"{entry['rank']:>4d} {entry['dev_task_f1']:8.4f}  {pairs}")
    return 0


def _cmd_compare(args) -> int:
    table = compare_runs([load_bundle(d) for d in args.runs])
    if args.out:
        write_json(Path(args.out), table)
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
    p.add_argument("--task", default="all", choices=["all", *CORPUS_FILES])
    p.add_argument("--languages", type=int, default=8)
    p.add_argument("--per-language", type=int, default=240)
    p.add_argument("--concepts", type=int, default=DEFAULT_N_CONCEPTS)
    p.add_argument("--overlap", type=float, default=DEFAULT_OVERLAP)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_corpus)

    p = sub.add_parser("pretrain", help="masked-token pretraining only")
    _add_config_args(p)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("train", help="full pipeline: corpus, pretrain, "
                                     "regime training, probe, analysis")
    _add_config_args(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("analyze", help="recompute analysis outputs for a "
                                       "finished run directory")
    p.add_argument("--run", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("hpsearch", help="random hyperparameter search")
    _add_config_args(p)
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=_cmd_hpsearch)

    p = sub.add_parser("compare", help="delta table across run bundles")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
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
