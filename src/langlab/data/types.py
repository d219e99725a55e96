"""Core corpus datatypes."""

from __future__ import annotations

from dataclasses import dataclass, field

from langlab.vocab import SEP_ID

MAX_LEN = 128


@dataclass(frozen=True)
class TokenSequence:
    """A tokenized text (or premise/hypothesis pair) as vocabulary ids.

    A sequence is a pair exactly when ``pair_boundary`` is set: the index
    of the separator token, which must be an interior position.
    """

    tokens: tuple
    pair_boundary: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(int(t) for t in self.tokens))
        if len(self.tokens) > MAX_LEN:
            raise ValueError(f"sequence length {len(self.tokens)} exceeds {MAX_LEN}")
        b = self.pair_boundary
        if b is not None:
            if not (0 < b < len(self.tokens) - 1):
                raise ValueError(f"pair_boundary {b} is not an interior index")
            if self.tokens[b] != SEP_ID:
                raise ValueError(f"token at pair_boundary {b} is not the separator")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class LabeledExample:
    """A TokenSequence with task labels and a language id.

    ``task_labels`` holds one label per token for token-level tasks, a single
    label for text-level tasks, and is empty for pure LID data (where the
    language field itself is the label).
    """

    sequence: TokenSequence
    task_labels: tuple = ()
    language: str = ""

    def __post_init__(self):
        object.__setattr__(self, "task_labels", tuple(self.task_labels))
        n = len(self.task_labels)
        if n not in (0, 1) and n != len(self.sequence):
            raise ValueError(
                f"{n} task labels for a sequence of {len(self.sequence)} tokens"
            )


@dataclass
class CorpusSplit:
    """Language-stratified train/val/dev/test partition of a corpus."""

    train: list = field(default_factory=list)
    val: list = field(default_factory=list)
    dev: list = field(default_factory=list)
    test: list = field(default_factory=list)

    @property
    def parts(self) -> list[list[LabeledExample]]:
        return [self.train, self.val, self.dev, self.test]
