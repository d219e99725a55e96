"""Random hyperparameter search over per-regime grids.

Samples are drawn uniformly with replacement from the cartesian grid;
candidates are ranked by dev-set task F1 (the label classifier only),
descending, with ties broken by draw order.
"""

from __future__ import annotations

from typing import Callable

from langlab.rng import stream

# every searched setting and its values
GRIDS = {
    "init_std": (1e-1, 1e-2, 1e-3),
    "batch_size": (64, 32, 16),
    "head_lr": (1e-1, 1e-2, 1e-3, 1e-4),
    "encoder_lr": (1e-3, 1e-4, 1e-5, 1e-6),
    "grl_lambda": (0.1, 0.3, 0.5, 0.7),
    "w": (0.1, 0.3, 0.5, 0.7),
}

# the head's three settings, encoder_lr where the encoder trains, and
# the regime's own weight
_HEAD = ("init_std", "batch_size", "head_lr")
REGIME_SETTINGS = {
    "frozen_probe": _HEAD,
    "finetune": _HEAD + ("encoder_lr",),
    "grad_reversal": _HEAD + ("encoder_lr", "grl_lambda"),
    "entropy_max": _HEAD + ("encoder_lr", "w"),
}


def grids_for_regime(regime: str) -> dict[str, tuple]:
    if regime not in REGIME_SETTINGS:
        raise ValueError(f"unknown regime {regime!r}")
    return {name: GRIDS[name] for name in REGIME_SETTINGS[regime]}


def random_search(grids: dict[str, tuple],
                  evaluate: Callable[[dict], float],
                  n_samples: int = 20,
                  seed: int = 0) -> list[tuple[dict, float]]:
    """Draw n_samples configurations and score each with evaluate();
    return (config, score) pairs, best first, ties in draw order."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not grids:
        raise ValueError("empty hyperparameter grid")
    for name, values in grids.items():
        if len(values) == 0:
            raise ValueError(f"empty grid for {name!r}")
    rng = stream(seed, "hp-search")
    samples = [{name: grids[name][int(rng.integers(len(grids[name])))]
                for name in sorted(grids)} for _ in range(n_samples)]
    scored = [(s, float(evaluate(dict(s)))) for s in samples]
    # sorted() is stable, so tied scores keep draw order
    return sorted(scored, key=lambda pair: -pair[1])
