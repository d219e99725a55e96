"""Random hyperparameter search over per-regime grids.

Samples are drawn uniformly with replacement from the cartesian grid;
candidates are ranked by dev-set task F1 (the label classifier only),
descending, with ties broken by draw order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from langlab.rng import stream

INIT_STD_GRID = (1e-1, 1e-2, 1e-3)
BATCH_SIZE_GRID = (64, 32, 16)
HEAD_LR_GRID = (1e-1, 1e-2, 1e-3, 1e-4)
ENCODER_LR_GRID = (1e-3, 1e-4, 1e-5, 1e-6)
LAMBDA_GRID = (0.1, 0.3, 0.5, 0.7)
W_GRID = (0.1, 0.3, 0.5, 0.7)

TABLE_GRIDS = {
    "frozen_probe": {
        "init_std": INIT_STD_GRID,
        "batch_size": BATCH_SIZE_GRID,
        "head_lr": HEAD_LR_GRID,
    },
    "finetune": {
        "init_std": INIT_STD_GRID,
        "batch_size": BATCH_SIZE_GRID,
        "head_lr": HEAD_LR_GRID,
        "encoder_lr": ENCODER_LR_GRID,
    },
    "grad_reversal": {
        "init_std": INIT_STD_GRID,
        "batch_size": BATCH_SIZE_GRID,
        "head_lr": HEAD_LR_GRID,
        "encoder_lr": ENCODER_LR_GRID,
        "grl_lambda": LAMBDA_GRID,
    },
    "entropy_max": {
        "init_std": INIT_STD_GRID,
        "batch_size": BATCH_SIZE_GRID,
        "head_lr": HEAD_LR_GRID,
        "encoder_lr": ENCODER_LR_GRID,
        "w": W_GRID,
    },
}


def grids_for_regime(regime: str) -> dict[str, tuple]:
    if regime not in TABLE_GRIDS:
        raise ValueError(f"unknown regime {regime!r}")
    return dict(TABLE_GRIDS[regime])


@dataclass
class SearchResult:
    samples: list[dict]
    dev_scores: list[float]
    ranking: list[int]


def random_search(grids: dict[str, tuple],
                  evaluate: Callable[[dict], float],
                  n_samples: int = 20, seed: int = 0) -> SearchResult:
    """Draw n_samples configurations and rank them by evaluate()."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not grids:
        raise ValueError("empty hyperparameter grid")
    for name, values in grids.items():
        if len(values) == 0:
            raise ValueError(f"empty grid for {name!r}")
    rng = stream(seed, "hp-search")
    names = sorted(grids)
    samples = []
    for _ in range(n_samples):
        draw = {}
        for name in names:
            values = grids[name]
            draw[name] = values[int(rng.integers(len(values)))]
        samples.append(draw)
    dev_scores = [float(evaluate(dict(s))) for s in samples]
    ranking = sorted(range(n_samples), key=lambda i: (-dev_scores[i], i))
    return SearchResult(samples=samples, dev_scores=dev_scores, ranking=ranking)
