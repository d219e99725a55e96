"""The benchmark's three workloads: inputs, timed command, result checks.

A workload is built from the workload seed, which becomes the
``corpus_seed`` and ``seed`` of the generated config.  ``setup`` runs in
the child process before the clock starts and writes every input the
timed command reads (config files, and for ``frozen-analysis`` corpus
files and an encoder checkpoint).  Paths in the configs are relative to
the repeat directory, so every repeat writes a byte-identical run
directory.

Sizes: ``full`` is what the benchmark measures; ``tiny`` only exercises
the code paths, for the smoke test.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RUN_DIR = "run"

SIZES = {
    "udpos-finetune": {
        "full": dict(mlm_steps=20, epochs=1, tsne_iterations=100,
                     task_examples_per_language=80,
                     lid_examples_per_language=40),
        "tiny": dict(mlm_steps=2, epochs=1, tsne_iterations=5, kmeans_runs=1,
                     task_examples_per_language=40,
                     lid_examples_per_language=40),
    },
    "xnli-gradrev-search": {
        "full": dict(mlm_steps=5, epochs=1, samples=8,
                     task_examples_per_language=80,
                     lid_examples_per_language=40),
        "tiny": dict(mlm_steps=2, epochs=1, samples=1,
                     task_examples_per_language=40,
                     lid_examples_per_language=40),
    },
    "frozen-analysis": {
        "full": dict(setup_mlm_steps=5, epochs=2, quota_task=40,
                     tsne_iterations=30, task_per_language=320,
                     lid_per_language=40),
        "tiny": dict(setup_mlm_steps=2, epochs=1, quota_task=3,
                     tsne_iterations=5, kmeans_runs=1, task_per_language=40,
                     lid_per_language=40),
    },
}

NAMES = tuple(SIZES)

# Least share of its initial KL that the untimed check t-SNE (child.py)
# must shed, for any seed.
MIN_CHECK_KL_DROP = 0.4


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


def _run_cli(main, argv) -> None:
    rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"set-up command {' '.join(argv)} exited {rc}")


def setup(name: str, size: str, seed: int, main) -> list[str]:
    """Write the workload's inputs into the cwd; return the timed argv.

    ``main`` is ``langlab.cli.main``: set-up goes through the same entry
    point as the timed command.
    """
    knobs = dict(SIZES[name][size])
    seeds = {"corpus_seed": seed, "seed": seed, "out_dir": RUN_DIR}
    if name == "udpos-finetune":
        _write_json("config.json", {**seeds, **knobs})
        return ["train", "--preset", "udpos-finetuned", "--config", "config.json"]
    if name == "xnli-gradrev-search":
        samples = knobs.pop("samples")
        _write_json("config.json", {**seeds, **knobs})
        return ["hpsearch", "--preset", "xnli-gradrev", "--config",
                "config.json", "--samples", str(samples)]
    if name == "frozen-analysis":
        for task, per_lang in (("token_tag", knobs.pop("task_per_language")),
                               ("lid", knobs.pop("lid_per_language"))):
            _run_cli(main, ["gen-corpus", "--out", f"corpus/{task}", "--task",
                            task, "--per-language", str(per_lang),
                            "--seed", str(seed)])
        files = {"task_corpus_path": "corpus/token_tag/token_tag.conllu",
                 "lid_corpus_path": "corpus/lid/lid.tsv",
                 "vocab_path": "corpus/token_tag/vocab.txt",
                 "corpus_seed": seed, "seed": seed}
        _write_json("pretrain.json", {**files, "out_dir": "pretrained",
                                      "mlm_steps": knobs.pop("setup_mlm_steps")})
        _run_cli(main, ["pretrain", "--config", "pretrain.json"])
        _write_json("config.json", {
            **files, **knobs, "out_dir": RUN_DIR,
            "encoder_checkpoint": "pretrained/encoder-pretrained.ckpt"})
        return ["train", "--preset", "udpos-frozen", "--config", "config.json"]
    raise ValueError(f"unknown workload {name!r}")


# ----------------------------------------------------------------------------
# Result checks (run in the parent on a finished repeat directory)
# ----------------------------------------------------------------------------

def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(path: Path):
    """Parse JSON, refusing NaN and +-Infinity."""
    return json.loads(path.read_text(encoding="utf-8"),
                      parse_constant=_reject_constant)


def _metric(bundle: dict, dotted: str) -> float:
    node = bundle["metrics"]
    for part in dotted.split("."):
        node = node[part]
    return float(node["value"])


BUNDLE_RESULTS = ("task_f1.overall", "lid_f1_task_data", "lid_f1_lid_data",
                  "vmeasure.task.label", "vmeasure.task.language",
                  "vmeasure.lid.label", "vmeasure.lid.language")


def main_results(name: str, rep_dir: Path, taps: dict) -> dict:
    """The results the reference check compares, from the run's files and
    the values the child tapped (t-SNE KL and MLM loss, which no file
    holds for every workload, and the KL of the untimed check run)."""
    run = rep_dir / RUN_DIR
    out: dict = {}
    if name == "xnli-gradrev-search":
        report = strict_json(run / "hpsearch.json")
        out["mlm_final_loss"] = taps["mlm_final_loss"]
        out["ranking"] = [[entry["config"], float(entry["dev_task_f1"])]
                          for entry in report["ranking"]]
        return out
    bundle = strict_json(run / "bundle.json")
    manifest = strict_json(run / "manifest.json")
    if name == "frozen-analysis":   # pretrained in set-up
        manifest = strict_json(rep_dir / "pretrained" / "pretrain-manifest.json")
    out["mlm_final_loss"] = float(manifest["mlm_final_loss"])
    for key in BUNDLE_RESULTS:
        out[key] = _metric(bundle, key)
    for i, sample in enumerate(("task", "lid")):
        out[f"tsne.{sample}.kl_initial"] = taps["tsne"][i]["kl_initial"]
        out[f"tsne.{sample}.kl_final"] = taps["tsne"][i]["kl_final"]
    if "tsne_check" in taps:
        out["tsne.check.kl_initial"] = taps["tsne_check"]["kl_initial"]
        out["tsne.check.kl_final"] = taps["tsne_check"]["kl_final"]
    return out


def invariants(name: str, size: str, rep_dir: Path, results: dict,
               checked: bool) -> list[str]:
    """Checks that hold for every seed; returns the failures.  ``checked``
    says whether the repeat ran the check t-SNE."""
    bad = []
    loss = results["mlm_final_loss"]
    if not (math.isfinite(loss) and loss > 0.0):
        bad.append(f"MLM final loss {loss!r} is not a finite positive number")
    if name == "xnli-gradrev-search":
        grids = strict_json(rep_dir / RUN_DIR / "hpsearch.json")["grids"]
        ranking = results["ranking"]
        if len(ranking) != SIZES[name][size]["samples"]:
            bad.append(f"ranking has {len(ranking)} entries")
        scores = [f1 for _, f1 in ranking]
        if scores != sorted(scores, reverse=True):
            bad.append("ranking is not sorted by dev F1")
        if not all(0.0 <= f1 <= 1.0 for f1 in scores):
            bad.append("dev F1 outside [0, 1]")
        for config, _ in ranking:
            if any(config.get(k) not in grids[k] for k in grids):
                bad.append(f"candidate {config} is not on the grid")
        return bad
    for key in BUNDLE_RESULTS:
        if not 0.0 <= results[key] <= 1.0:
            bad.append(f"{key} = {results[key]!r} outside [0, 1]")
    kl_keys = ["tsne.task.kl_initial", "tsne.task.kl_final",
               "tsne.lid.kl_initial", "tsne.lid.kl_final"]
    if checked:
        kl_keys += ["tsne.check.kl_initial", "tsne.check.kl_final"]
    for key in kl_keys:
        if not (math.isfinite(results.get(key, math.nan)) and results[key] >= 0.0):
            bad.append(f"{key} = {results.get(key)!r} is not a finite "
                       f"non-negative number")
    if checked:
        kl_start, kl_end = (results.get("tsne.check.kl_initial", math.nan),
                            results.get("tsne.check.kl_final", math.nan))
        if not kl_end <= (1.0 - MIN_CHECK_KL_DROP) * kl_start:
            bad.append(f"check t-SNE took KL from {kl_start!r} to {kl_end!r}, "
                       f"a fall of less than {MIN_CHECK_KL_DROP} of its start")
    if name == "frozen-analysis":
        frozen = (rep_dir / "pretrained" / "encoder-pretrained.ckpt").read_bytes()
        for ckpt in ("encoder-pretrained.ckpt", "encoder-final.ckpt"):
            if (rep_dir / RUN_DIR / ckpt).read_bytes() != frozen:
                bad.append(f"{ckpt} differs from the set-up checkpoint")
    return bad


def compare_reference(results: dict, reference: dict, tol: dict) -> list[str]:
    """Differences beyond the tolerance between results and a reference.

    A final t-SNE KL depends on the sign of every gradient entry along the
    way, so it gets ``rel_kl``; the check run's KL must instead fall from
    its initial value by at least ``kl_drop_share`` of the reference's
    fall.  Every other value, initial KLs included, gets ``abs + rel``.
    """
    def close(a, b, key):
        rel = tol["rel_kl"] if "kl_final" in key else tol["rel"]
        return abs(a - b) <= tol["abs"] + rel * abs(b)

    bad = []
    for key, want in reference.items():
        got = results.get(key)
        if key.startswith("tsne.check.") and "tsne.check.kl_final" not in results:
            continue    # the check t-SNE runs in the first repeat only
        if key == "tsne.check.kl_final":
            fell = results["tsne.check.kl_initial"] - got
            want_fall = reference["tsne.check.kl_initial"] - want
            if not fell >= tol["kl_drop_share"] * want_fall:
                bad.append(f"check t-SNE lowered KL by {fell!r}, reference "
                           f"{want_fall!r}")
        elif key == "ranking":
            if [c for c, _ in got] != [c for c, _ in want]:
                bad.append("hpsearch ranking order differs from the reference")
            elif not all(close(g, w, key) for (_, g), (_, w) in zip(got, want)):
                bad.append("hpsearch dev F1 differs from the reference")
        elif got is None or not close(got, want, key):
            bad.append(f"{key} = {got!r}, reference {want!r}")
    return bad
