"""Sample containers, clustering reports, and the interop file formats.

Embedding dump: header ``dim=<d>``, then one line per point with d
space-separated floats, a tab, the task label (``-`` when absent), a
tab, and the language.  Projection output: CSV with x, y, label,
language columns.  Floats are written with repr so loads round-trip
exactly.
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
    vectors: np.ndarray                 # (N, d)
    languages: list[str]
    labels: list[str] | None = None    # None for LID data

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        n = self.vectors.shape[0]
        if len(self.languages) != n:
            raise ValueError("language annotations not aligned with vectors")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("label annotations not aligned with vectors")

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def annotation(self, which: str) -> list[str]:
        if which == "language":
            return self.languages
        if which == "label":
            if self.labels is None:
                raise ValueError("sample has no task labels")
            return self.labels
        raise ValueError(f"unknown annotation {which!r}")


@dataclass
class ClusterReport:
    annotation: str
    k: int
    per_run: list[float]
    mean: float
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "annotation": self.annotation, "k": self.k,
            "per_run": list(self.per_run), "mean": self.mean,
            "degenerate": self.degenerate,
        }


@dataclass
class Projection2D:
    coords: np.ndarray                  # (N, 2)
    languages: list[str]
    labels: list[str] | None


def clustering_report(sample: EmbeddingSample, annotation: str,
                      n_runs: int = 10, seed: int = 0) -> ClusterReport:
    """k-means with k = distinct annotation values; V averaged over runs."""
    values = sample.annotation(annotation)
    k = len(set(values))
    if len(sample) < k:
        raise ValueError(f"sample has {len(sample)} points but k={k}")
    degenerate = k == 1
    per_run = []
    for run in range(n_runs):
        run_seed = int(stream(seed, "clustering", annotation, run).integers(2**32))
        result = kmeans(sample.vectors, k, seed=run_seed)
        per_run.append(v_measure(values, result.assignments.tolist()))
    return ClusterReport(
        annotation=annotation, k=k, per_run=per_run,
        mean=float(np.mean(per_run)), degenerate=degenerate,
    )


def write_embedding_dump(path, sample: EmbeddingSample) -> None:
    lines = [f"dim={sample.vectors.shape[1]}"]
    labels = sample.labels if sample.labels is not None else ["-"] * len(sample)
    for row, label, lang in zip(sample.vectors.tolist(), labels,
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
    has_labels = any(l != "-" for l in labels)
    return EmbeddingSample(
        vectors=np.array(vectors), languages=languages,
        labels=labels if has_labels else None,
    )


def write_projection_csv(path, projection: Projection2D) -> None:
    lines = ["x,y,label,language"]
    coords = projection.coords.tolist()
    labels = (projection.labels if projection.labels is not None
              else ["-"] * len(coords))
    for (x, y), label, lang in zip(coords, labels, projection.languages,
                                   strict=True):
        lines.append(f"{x!r},{y!r},{label},{lang}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_projection_csv(path) -> Projection2D:
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
    has_labels = any(l != "-" for l in labels)
    return Projection2D(
        coords=np.array(coords), languages=languages,
        labels=labels if has_labels else None,
    )
