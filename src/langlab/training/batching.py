"""Minibatch assembly over LabeledExamples.

Token-level tasks carry one label per token ((B, T) arrays padded with
-1); text-level tasks one label per example.  Language ids are always
per example; token-level language evaluation broadcasts them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from langlab.data.types import LabeledExample
from langlab.vocab import PAD_ID

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
    lengths = np.array([len(ex.sequence) for ex in examples])
    T = int(lengths.max())
    ids = np.full((len(examples), T), PAD_ID, dtype=np.int64)
    for r, ex in enumerate(examples):
        ids[r, : lengths[r]] = ex.sequence.tokens
    lang_y = np.array([lang_to_id[ex.language] for ex in examples], dtype=np.int64)

    task_y = None
    if label_to_id is not None:
        if level == "token":
            task_y = np.full((len(examples), T), -1, dtype=np.int64)
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


class CyclingBatches:
    """Endless same-size batches over a dataset, reshuffling each pass.

    Used for the language-data minibatch that accompanies every task
    minibatch in gradient-reversal training.
    """

    def __init__(self, n: int, rng):
        if n < 1:
            raise ValueError("cannot cycle over an empty dataset")
        self.n = n
        self.rng = rng
        self._order = rng.permutation(n)
        self._pos = 0

    def take(self, size: int) -> np.ndarray:
        out = []
        while len(out) < size:
            if self._pos >= self.n:
                self._order = self.rng.permutation(self.n)
                self._pos = 0
            take = min(size - len(out), self.n - self._pos)
            out.extend(self._order[self._pos:self._pos + take])
            self._pos += take
        return np.array(out, dtype=int)
