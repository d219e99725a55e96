"""Sample containers, clustering reports, and the interop file formats.

Embedding dump: header ``dim=<d>``, then one line per point with d
space-separated floats, a tab, the task label, a tab, and the language.
Projection output: CSV with x, y, label, language columns.  Floats are
written with repr so loads round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from langlab.analysis.kmeans import kmeans
from langlab.analysis.metrics import v_measure
from langlab.rng import stream


@dataclass
class EmbeddingSample:
    """Annotated points: embeddings, or their 2-d t-SNE projection.  An
    LID paragraph's label is its language."""
    vectors: np.ndarray                 # (N, d)
    languages: list[str]
    labels: list[str]

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        n = self.vectors.shape[0]
        if len(self.languages) != n:
            raise ValueError("language annotations not aligned with vectors")
        if len(self.labels) != n:
            raise ValueError("label annotations not aligned with vectors")

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def annotation(self, which: str) -> list[str]:
        if which == "language":
            return self.languages
        if which == "label":
            return self.labels
        raise ValueError(f"unknown annotation {which!r}")


def clustering_report(sample: EmbeddingSample, annotation: str,
                      n_runs: int = 10, seed: int = 0) -> dict:
    """k-means with k = distinct annotation values; V averaged over runs.

    Returns the bundle's cluster-report cell: annotation, k, per_run,
    mean and degenerate (k == 1).
    """
    values = sample.annotation(annotation)
    k = len(set(values))
    if len(sample) < k:
        raise ValueError(f"sample has {len(sample)} points but k={k}")
    per_run = []
    for run in range(n_runs):
        run_seed = int(stream(seed, "clustering", annotation, run).integers(2**32))
        result = kmeans(sample.vectors, k, seed=run_seed)
        per_run.append(v_measure(values, result.assignments.tolist()))
    return {"annotation": annotation, "k": k, "per_run": per_run,
            "mean": float(np.mean(per_run)), "degenerate": k == 1}


def write_embedding_dump(path, sample: EmbeddingSample) -> None:
    lines = [f"dim={sample.vectors.shape[1]}"]
    for row, label, lang in zip(sample.vectors.tolist(), sample.labels,
                                sample.languages, strict=True):
        lines.append(f"{' '.join(map(repr, row))}\t{label}\t{lang}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_embedding_dump(path) -> EmbeddingSample:
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if not text or not text[0].startswith("dim="):
        raise ValueError(f"{path}: embedding dump must start with a dim= header")
    d = int(text[0][4:])
    vectors, labels, languages = [], [], []
    for lineno, line in enumerate(text[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected vector\\tlabel\\tlanguage")
        vec = [float(v) for v in parts[0].split()]
        if len(vec) != d:
            raise ValueError(f"{path}:{lineno}: expected {d} floats, got {len(vec)}")
        vectors.append(vec)
        labels.append(parts[1])
        languages.append(parts[2])
    return EmbeddingSample(np.array(vectors), languages, labels)


def write_projection_csv(path, sample: EmbeddingSample) -> None:
    """One CSV row per point of a sample whose vectors are 2-d coordinates."""
    lines = ["x,y,label,language"]
    for (x, y), label, lang in zip(sample.vectors.tolist(), sample.labels,
                                   sample.languages, strict=True):
        lines.append(f"{x!r},{y!r},{label},{lang}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_projection_csv(path) -> EmbeddingSample:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "x,y,label,language":
        raise ValueError(f"{path}: expected an x,y,label,language header")
    coords, labels, languages = [], [], []
    for line in lines[1:]:
        if not line.strip():
            continue
        x, y, label, lang = line.split(",")
        coords.append((float(x), float(y)))
        labels.append(label)
        languages.append(lang)
    return EmbeddingSample(np.array(coords), languages, labels)
