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
import numbers
from dataclasses import dataclass

from langlab.analysis.sampling import DEFAULT_QUOTAS as SAMPLE_QUOTAS
from langlab.data.synthetic import DEFAULT_N_CONCEPTS, DEFAULT_OVERLAP
from langlab.encoder import EncoderConfig
from langlab.files import read_json
from langlab.heads import LANGUAGE_TERM_VARIANTS
from langlab.training.batching import TASK_LEVELS
from langlab.training.regimes import REGIMES

# least accepted value of each bounded field; checked at construction so
# a bad config fails before pretraining instead of writing NaN or nothing
_MINIMUMS = {"epochs": 1, "batch_size": 1, "mlm_steps": 0, "quota_task": 1,
             "quota_lid": 1, "kmeans_runs": 1, "tsne_iterations": 0,
             "grl_lambda": 0}
# fields that must be > 0: a zero or negative rate trains nothing or
# trains by gradient ascent, and a negative init_std fails mid-run
_POSITIVE = ("init_std", "head_lr", "encoder_lr", "mlm_lr")
# the accepted values of each named-choice field
_CHOICES = {"regime": REGIMES, "task": TASK_LEVELS,
            "language_term_variant": LANGUAGE_TERM_VARIANTS}
# what each declared field type accepts; bool is refused for both numbers,
# and null only where the type says "| None"
_KINDS = {"int": numbers.Integral, "float": numbers.Real, "str": str}


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

    # inputs (null corpus paths -> synthesize; the three paths come all
    # together or not at all; null checkpoint -> pretrain in-run)
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
        for f in dataclasses.fields(self):
            kind, _, nullable = f.type.partition(" | ")
            value = getattr(self, f.name)
            if not (value is None and nullable) and (
                    isinstance(value, bool)
                    or not isinstance(value, _KINDS[kind])):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        if self.quota_task is None and self.task in SAMPLE_QUOTAS:
            self.quota_task = SAMPLE_QUOTAS[self.task]
        for name, least in _MINIMUMS.items():
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        for name in _POSITIVE:
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if not 0.0 < self.mask_rate < 1.0:
            raise ValueError(f"mask_rate must be in (0,1), got {self.mask_rate}")
        for name, known in _CHOICES.items():
            if getattr(self, name) not in known:
                raise ValueError(f"unknown {name.replace('_', ' ')} "
                                 f"{getattr(self, name)!r}")
        if (self.grl_lambda is not None) != (self.regime == "grad_reversal"):
            raise ValueError("grl_lambda is set iff regime is grad_reversal")
        if (self.w is not None) != (self.regime == "entropy_max"):
            raise ValueError("w is set iff regime is entropy_max")
        if self.w is not None and not 0.0 <= self.w <= 1.0:
            raise ValueError("w must be in [0,1]")
        paths = (self.task_corpus_path, self.lid_corpus_path, self.vocab_path)
        if any(paths) and not all(paths):
            raise ValueError("file-based corpora need task_corpus_path, "
                             "lid_corpus_path and vocab_path together")
        # EncoderConfig's shape rules; the vocabulary size is known only
        # once the corpus is built
        self.encoder_config(vocab_size=1)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def encoder_config(self, vocab_size: int) -> EncoderConfig:
        """An EncoderConfig built from this config's fields of the same
        names."""
        return EncoderConfig(vocab_size=vocab_size, **{
            f.name: getattr(self, f.name) for f in dataclasses.fields(EncoderConfig)
            if f.name != "vocab_size"})


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


def _preset_keys(name: str) -> dict:
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r} (known: {known})")
    # a regime change invalidates the other regimes' weights
    return {"grl_lambda": None, "w": None, **PRESETS[name]}


def config_from_dict(raw: dict) -> PipelineConfig:
    unknown = sorted(set(raw) - _FIELD_NAMES)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return PipelineConfig(**raw)


def load_config(path, preset: str | None = None,
                overrides: dict | None = None) -> PipelineConfig:
    """Read a flat JSON config file (defaults when path is None); preset
    and overrides win, in that order.  The keys are merged before the
    config is built, so quota_task is derived from the final task only
    when no layer gives it."""
    raw = {} if path is None else read_json(path)
    if preset:
        raw = {**raw, **_preset_keys(preset)}
    return config_from_dict({**raw, **(overrides or {})})


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def manifest_id(config_dict: dict) -> str:
    return hashlib.sha256(canonical_json(config_dict).encode("utf-8")).hexdigest()
