"""Minibatch assembly over LabeledExamples.

make_batch decides which rows a batch's heads read: every real token
for token-level tasks, position 0 of each sequence for text-level ones.
A Batch names those rows as a (rows, cols) pair in row-major order, the
form encoder.forward_batch takes as read, and holds one task id and one
language id per read row, in the same order.  Token ids are padded by
vocab.pad_ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count
from typing import Iterator

import numpy as np

from langlab.data.types import LabeledExample
from langlab.vocab import pad_ids

# the tasks a run can train, and the level each one is classified at
TASK_LEVELS = {"token_tag": "token", "pair_inference": "text"}


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
    read: tuple[np.ndarray, np.ndarray]   # (rows, cols) of the M read rows
    task_y: np.ndarray | None   # (M,) task id per read row
    lang_y: np.ndarray    # (M,) language id per read row


def make_batch(examples: list[LabeledExample], label_to_id: dict | None,
               lang_to_id: dict, level: str) -> Batch:
    if not examples:
        raise ValueError("empty batch")
    ids, lengths = pad_ids([ex.sequence.tokens for ex in examples])
    lang_ids = np.array([lang_to_id[ex.language] for ex in examples],
                        dtype=np.int64)
    if level == "token":
        read = np.nonzero(np.arange(ids.shape[1])[None, :] < lengths[:, None])
        lang_y = np.repeat(lang_ids, lengths)
    else:
        read = np.arange(len(examples)), np.zeros(len(examples), dtype=np.int64)
        lang_y = lang_ids

    task_y = None
    if label_to_id is not None:     # the label at each read (row, col)
        task_y = np.array([label_to_id[examples[r].task_labels[c]]
                           for r, c in zip(*(a.tolist() for a in read))],
                          dtype=np.int64)
    return Batch(ids=ids, lengths=lengths, read=read, task_y=task_y,
                 lang_y=lang_y)


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
