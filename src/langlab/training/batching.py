"""Minibatch assembly over LabeledExamples.

Token ids are padded by vocab.pad_ids.  Token-level tasks carry one
label per token ((B, T) arrays padded with -1); text-level tasks one
label per example.  Language ids are always per example; token-level
language evaluation broadcasts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count
from typing import Iterator

import numpy as np

from langlab.data.types import LabeledExample
from langlab.vocab import pad_ids

TASK_LEVELS = {"token_tag": "token", "pair_inference": "text", "lid": "text"}


@dataclass(frozen=True)
class TaskSpec:
    level: str
    labels: tuple[str, ...]

    @property
    def label_to_id(self) -> dict[str, int]:
        return {l: i for i, l in enumerate(self.labels)}

    @property
    def n_classes(self) -> int:
        return len(self.labels)


def task_spec_for(task: str, examples) -> TaskSpec:
    if task not in TASK_LEVELS:
        raise ValueError(f"unknown task {task!r}")
    labels: set[str] = set()
    for ex in examples:
        labels.update(ex.task_labels)
    return TaskSpec(level=TASK_LEVELS[task], labels=tuple(sorted(labels)))


@dataclass
class Batch:
    ids: np.ndarray       # (B, T) token ids, PAD-padded
    lengths: np.ndarray   # (B,)
    task_y: np.ndarray | None   # (B, T) with -1 padding, or (B,)
    lang_y: np.ndarray    # (B,) language id per example
    level: str


def make_batch(examples: list[LabeledExample], label_to_id: dict | None,
               lang_to_id: dict, level: str) -> Batch:
    if not examples:
        raise ValueError("empty batch")
    ids, lengths = pad_ids([ex.sequence.tokens for ex in examples])
    lang_y = np.array([lang_to_id[ex.language] for ex in examples], dtype=np.int64)

    task_y = None
    if label_to_id is not None:
        if level == "token":
            task_y = np.full(ids.shape, -1, dtype=np.int64)
            for r, ex in enumerate(examples):
                task_y[r, : lengths[r]] = [label_to_id[l] for l in ex.task_labels]
        else:
            task_y = np.array(
                [label_to_id[ex.task_labels[0]] for ex in examples], dtype=np.int64
            )
    return Batch(ids=ids, lengths=lengths, task_y=task_y, lang_y=lang_y, level=level)


def epoch_batches(n: int, batch_size: int, rng) -> list[np.ndarray]:
    """Shuffled index minibatches covering all n examples (last may be short)."""
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def cycling_indices(n: int, rng) -> Iterator[int]:
    """Endless rng.permutation(n) passes, one index at a time: the
    language-data minibatches of gradient reversal.  n < 1 fails here."""
    if n < 1:
        raise ValueError("cannot cycle over an empty dataset")
    return chain.from_iterable(rng.permutation(n) for _ in count())
