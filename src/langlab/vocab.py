"""Whole-word vocabulary with fixed special-token slots.

Slots 0-3 are reserved: PAD, UNK, SEP, MASK.  Regular tokens are assigned
ids in sorted order of their surface form, so a vocabulary built from the
same token set is always identical.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterable

import numpy as np

from langlab.files import line_bytes, write_file

PAD_ID = 0
UNK_ID = 1
SEP_ID = 2
MASK_ID = 3

SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[SEP]", "[MASK]")
N_SPECIAL = len(SPECIAL_TOKENS)


def pad_ids(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Id sequences as (B, T) int64 ids padded with PAD_ID, and lengths."""
    lengths = np.array([len(s) for s in seqs])
    ids = np.full((len(seqs), int(lengths.max())), PAD_ID, dtype=np.int64)
    for r, s in enumerate(seqs):
        ids[r, : lengths[r]] = s
    return ids, lengths


class UnknownTokenError(KeyError):
    """A surface form given to Vocabulary.encode has no entry."""


class Vocabulary:
    def __init__(self, tokens: Iterable[str]):
        """Build a vocabulary from regular (non-special) surface forms.

        Duplicates are collapsed; ordering of ids is deterministic (sorted).
        """
        regular = sorted(set(tokens) - set(SPECIAL_TOKENS))
        self._id_to_token = list(SPECIAL_TOKENS) + regular
        self._token_to_id = {t: i for i, t in enumerate(self._id_to_token)}

    def __len__(self) -> int:
        return len(self._id_to_token)

    def id(self, token: str) -> int:
        """Map a surface form to its id, or UNK_ID if unknown."""
        return self._token_to_id.get(token, UNK_ID)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        """Ids of surface forms that must all be known; an unknown one
        raises UnknownTokenError."""
        try:
            return [self._token_to_id[t] for t in tokens]
        except KeyError as e:
            raise UnknownTokenError(*e.args) from None

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self._id_to_token[i] for i in ids]

    # one token per line, line number = id (specials included)
    def save(self, path) -> None:
        write_file(path, line_bytes(self._id_to_token))

    def sha256(self) -> str:
        """The sha256 of the bytes save writes (sha256sum of the file)."""
        return hashlib.sha256(line_bytes(self._id_to_token)).hexdigest()

    @classmethod
    def load(cls, path) -> "Vocabulary":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if lines[:N_SPECIAL] != list(SPECIAL_TOKENS):
            raise ValueError(
                f"vocabulary file {path} does not start with the reserved "
                f"special tokens {SPECIAL_TOKENS}"
            )
        vocab = cls([])
        vocab._id_to_token = list(lines)
        vocab._token_to_id = {t: i for i, t in enumerate(lines)}
        return vocab
