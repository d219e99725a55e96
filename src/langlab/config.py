"""Flat pipeline configuration, named presets, and manifest digests.

One flat JSON object configures the whole pipeline; defaults are filled
in at load time and the fully resolved config is echoed into the run
manifest, so every run is self-describing.  The manifest id is the
sha256 of the canonical JSON form of that resolved config.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from langlab.analysis.sampling import DEFAULT_QUOTAS as SAMPLE_QUOTAS
from langlab.data.synthetic import DEFAULT_N_CONCEPTS, DEFAULT_OVERLAP
from langlab.encoder import EncoderConfig
from langlab.training.regimes import ExperimentConfig

# least accepted value of each count field; checked at construction so a
# bad config fails before pretraining instead of writing NaN or nothing
_MINIMUMS = {"epochs": 1, "mlm_steps": 0, "quota_task": 1, "quota_lid": 1,
             "kmeans_runs": 1, "tsne_iterations": 0}


@dataclass
class PipelineConfig:
    # experiment
    regime: str = "finetune"
    task: str = "token_tag"
    pivot_language: str = "aa"
    init_std: float = 1e-2
    batch_size: int = 32
    head_lr: float = 1e-1
    encoder_lr: float = 7e-3
    grl_lambda: float | None = None
    w: float | None = None
    language_term_variant: str = "as_written"
    epochs: int = 5
    seed: int = 0

    # encoder architecture
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    max_len: int = 128
    dropout: float = 0.1

    # masked-token pretraining
    mlm_steps: int = 1500
    mlm_batch_size: int = 32
    mlm_lr: float = 1e-3
    mask_rate: float = 0.15

    # synthetic corpus (used when the corpus paths below are null)
    n_languages: int = 8
    n_concepts: int = DEFAULT_N_CONCEPTS
    overlap_fraction: float = DEFAULT_OVERLAP
    task_examples_per_language: int = 480
    lid_examples_per_language: int = 240
    corpus_seed: int = 0

    # inputs (null task/lid corpus path -> synthesize; null checkpoint
    # -> pretrain in-run); corpus files additionally need vocab_path
    task_corpus_path: str | None = None
    lid_corpus_path: str | None = None
    vocab_path: str | None = None
    encoder_checkpoint: str | None = None
    out_dir: str = "runs/exp"

    # analysis
    quota_task: int | None = None   # default: by task, see SAMPLE_QUOTAS
    quota_lid: int = SAMPLE_QUOTAS["lid"]
    kmeans_runs: int = 10
    tsne_perplexity: float = 30.0
    tsne_iterations: int = 1000

    def __post_init__(self):
        if self.quota_task is None and self.task in SAMPLE_QUOTAS:
            self.quota_task = SAMPLE_QUOTAS[self.task]
        for name, least in _MINIMUMS.items():
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def replaced(self, **overrides) -> "PipelineConfig":
        return dataclasses.replace(self, **overrides)

    def experiment_config(self) -> ExperimentConfig:
        return ExperimentConfig(
            regime=self.regime,
            task=self.task,
            pivot_language=self.pivot_language,
            init_std=self.init_std,
            batch_size=self.batch_size,
            head_lr=self.head_lr,
            encoder_lr=self.encoder_lr,
            grl_lambda=self.grl_lambda,
            w=self.w,
            language_term_variant=self.language_term_variant,
            epochs=self.epochs,
            seed=self.seed,
        )

    def encoder_config(self, vocab_size: int) -> EncoderConfig:
        return EncoderConfig(
            vocab_size=vocab_size,
            d_model=self.d_model,
            n_layers=self.n_layers,
            n_heads=self.n_heads,
            d_ff=self.d_ff,
            max_len=self.max_len,
            dropout=self.dropout,
        )


# Selected hyperparameters shipped as named presets: task + regime plus
# (init_std, batch_size, encoder_lr, head_lr) and the regime weight.
# "udpos" presets target the token tagging task, "xnli" the pair task.
PRESETS: dict[str, dict] = {
    "udpos-frozen": dict(task="token_tag", regime="frozen_probe",
                         init_std=1e-1, batch_size=16, head_lr=1e-3),
    "udpos-finetuned": dict(task="token_tag", regime="finetune",
                            init_std=1e-2, batch_size=64,
                            encoder_lr=1e-4, head_lr=1e-1),
    "udpos-gradrev": dict(task="token_tag", regime="grad_reversal",
                          init_std=1e-3, batch_size=32,
                          encoder_lr=1e-6, head_lr=1e-3, grl_lambda=0.1),
    "udpos-entmax": dict(task="token_tag", regime="entropy_max",
                         init_std=1e-2, batch_size=32,
                         encoder_lr=1e-6, head_lr=1e-2, w=0.7),
    "xnli-frozen": dict(task="pair_inference", regime="frozen_probe",
                        init_std=1e-2, batch_size=64, head_lr=1e-2),
    "xnli-finetuned": dict(task="pair_inference", regime="finetune",
                           init_std=1e-3, batch_size=64,
                           encoder_lr=1e-5, head_lr=1e-2),
    "xnli-gradrev": dict(task="pair_inference", regime="grad_reversal",
                         init_std=1e-3, batch_size=32,
                         encoder_lr=1e-6, head_lr=1e-3, grl_lambda=0.1),
    "xnli-entmax": dict(task="pair_inference", regime="entropy_max",
                        init_std=1e-1, batch_size=32,
                        encoder_lr=1e-6, head_lr=1e-4, w=0.1),
}

_FIELD_NAMES = {f.name for f in dataclasses.fields(PipelineConfig)}


def apply_preset(cfg: PipelineConfig, name: str) -> PipelineConfig:
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r} (known: {known})")
    overrides = dict(PRESETS[name])
    # a regime change invalidates the other regimes' weights
    overrides.setdefault("grl_lambda", None)
    overrides.setdefault("w", None)
    if cfg.quota_task == SAMPLE_QUOTAS.get(cfg.task):
        overrides.setdefault("quota_task", None)
    out = cfg.replaced(**overrides)
    out.__post_init__()
    return out


def config_from_dict(raw: dict) -> PipelineConfig:
    unknown = sorted(set(raw) - _FIELD_NAMES)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return PipelineConfig(**raw)


def load_config(path, preset: str | None = None,
                overrides: dict | None = None) -> PipelineConfig:
    """Read a flat JSON config file; preset and overrides win, in that order."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a flat JSON object")
    cfg = config_from_dict(raw)
    if preset:
        cfg = apply_preset(cfg, preset)
    if overrides:
        cfg = cfg.replaced(**overrides)
        cfg.__post_init__()
    return cfg


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def manifest_id(config_dict: dict) -> str:
    return hashlib.sha256(canonical_json(config_dict).encode("utf-8")).hexdigest()
