"""Stratified corpus splitting.

Every corpus, LID and task alike, is split 70/10/10/10 into
train/val/dev/test.  Within each language the per-split counts follow
the largest remainder method, so totals are exact and every language is
spread across splits as evenly as integer counts allow.
"""

from __future__ import annotations

import numpy as np

from langlab.data.types import CorpusSplit
from langlab.rng import stream

SPLIT_FRACTIONS = (0.70, 0.10, 0.10, 0.10)


def _largest_remainder_counts(n: int) -> list[int]:
    """Integer counts per split summing exactly to n.

    Floors of n*f over SPLIT_FRACTIONS are topped up in order of
    descending fractional remainder; remainder ties go to the earlier
    split.
    """
    exact = [n * f for f in SPLIT_FRACTIONS]
    counts = [int(np.floor(e)) for e in exact]
    shortfall = n - sum(counts)
    remainders = sorted(
        range(len(exact)), key=lambda i: (-(exact[i] - counts[i]), i)
    )
    for i in remainders[:shortfall]:
        counts[i] += 1
    return counts


def stratified_split(examples, seed: int) -> CorpusSplit:
    """Shuffle and split examples into train/val/dev/test by language.

    Each language's examples are shuffled with a language-keyed stream and
    dealt to the splits with largest-remainder counts over
    SPLIT_FRACTIONS.  Within a split, examples keep language-block order
    (languages in first-appearance order).
    """
    by_lang: dict[str, list] = {}
    for ex in examples:
        by_lang.setdefault(ex.language, []).append(ex)

    starved = sorted(l for l, items in by_lang.items()
                     if len(items) < len(SPLIT_FRACTIONS))
    if starved:
        raise ValueError(
            f"languages with fewer examples than splits: {', '.join(starved)}"
        )

    parts = tuple([] for _ in SPLIT_FRACTIONS)
    for lang, items in by_lang.items():
        rng = stream(seed, "split", lang)
        order = rng.permutation(len(items))
        shuffled = [items[i] for i in order]
        counts = _largest_remainder_counts(len(items))
        offset = 0
        for part, count in zip(parts, counts):
            part.extend(shuffled[offset:offset + count])
            offset += count
    return CorpusSplit(*(tuple(p) for p in parts))


def filter_language(examples, language: str) -> tuple:
    """Keep the examples of one language, preserving order."""
    return tuple(ex for ex in examples if ex.language == language)
