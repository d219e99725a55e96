"""Stratified sampling of points for t-SNE plots and V-measure.

Task data is capped per (label, language) pair; LID data per language.
Cells with fewer points than the quota keep everything, so totals vary
with the corpus the way the original sample sizes do.
"""

from __future__ import annotations

import numpy as np

from langlab.analysis.reports import EmbeddingSample
from langlab.rng import stream

# per-cell caps chosen to keep the three datasets similarly sized
DEFAULT_QUOTAS = {"token_tag": 10, "pair_inference": 50, "lid": 100}


def plot_sample(sample: EmbeddingSample, by: str, quota: int,
                seed: int = 0) -> EmbeddingSample:
    """Uniformly subsample at most ``quota`` points per cell.

    by="label_language" groups task data by (label, language) pairs;
    by="language" groups LID data by language alone.
    """
    if quota < 1:
        raise ValueError(f"quota must be >= 1, got {quota}")
    if by == "label_language":
        keys = list(zip(sample.labels, sample.languages))
    elif by == "language":
        keys = [(lang,) for lang in sample.languages]
    else:
        raise ValueError(f"unknown grouping {by!r}")

    cells: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        cells.setdefault(key, []).append(i)

    chosen: list[int] = []
    for key in sorted(cells):
        members = cells[key]
        if len(members) <= quota:
            chosen.extend(members)
        else:
            rng = stream(seed, "plot-sample", *key)
            pick = rng.choice(len(members), size=quota, replace=False)
            chosen.extend(members[i] for i in sorted(pick))
    chosen.sort()

    idx = np.array(chosen, dtype=int)
    return EmbeddingSample(
        vectors=sample.vectors[idx],
        languages=[sample.languages[i] for i in chosen],
        labels=[sample.labels[i] for i in chosen],
    )
