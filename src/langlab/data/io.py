"""File loaders and writers for the three external corpus formats.

* CoNLL-U subset: 10 tab-separated columns, FORM (col 2) and UPOS (col 4)
  consumed, ``#`` comments ignored, blank line ends a sentence.  The
  language comes from a ``# language = xx`` comment (an empty one fails)
  or, failing that, from a ``<lang>_*.conllu`` filename convention.
* NLI TSV: ``premise \\t hypothesis \\t label \\t language``.
* LID TSV: ``text \\t language``; paragraphs under MIN_LID_CHARS
  characters are skipped.

All loaders tokenize by whitespace, truncate to the first 128 tokens
(pairs: combined 128 including the separator) and omit every example
with a token outside the vocabulary.  The two TSV formats skip blank
lines and fail by ``path:line`` on a wrong column count or an empty
language column; NLI rows also on an unknown label or a premise or
hypothesis with no token.
"""

from __future__ import annotations

from pathlib import Path

from langlab.data.synthetic import pair_sequence
from langlab.data.types import LabeledExample, TokenSequence, MAX_LEN
from langlab.files import line_bytes, write_file
from langlab.vocab import UNK_ID, Vocabulary

NLI_LABELS = ("entailment", "contradiction", "neutral")
MIN_LID_CHARS = 100


class CorpusFormatError(ValueError):
    """Malformed corpus file; the message names the offending line."""


def _encode(tokens, vocab):
    """Token strings -> ids, or None when one is unknown."""
    ids = [vocab.id(t) for t in tokens]
    return None if UNK_ID in ids else ids


def load_conllu(path, vocab: Vocabulary) -> list[LabeledExample]:
    """Load token-level tagged sentences from a CoNLL-U file.

    One LabeledExample per sentence; sentences longer than 128 tokens are
    truncated.
    """
    path = Path(path)
    # a <lang>_*.conllu name gives the language of uncommented sentences
    default_lang = path.stem.split("_", 1)[0] if "_" in path.stem else None
    examples = []
    tokens: list[str] = []
    tags: list[str] = []
    sent_lang = default_lang

    def flush(lineno):
        nonlocal tokens, tags, sent_lang
        if tokens:
            if sent_lang is None:
                raise CorpusFormatError(
                    f"{path}:{lineno}: no language metadata for sentence "
                    "(add a '# language = xx' comment or use a lang_*.conllu filename)"
                )
            ids = _encode(tokens[:MAX_LEN], vocab)
            if ids is not None:
                examples.append(
                    LabeledExample(
                        sequence=TokenSequence(ids),
                        task_labels=tuple(tags[:MAX_LEN]),
                        language=sent_lang,
                    )
                )
        tokens, tags = [], []
        sent_lang = default_lang

    with open(path, encoding="utf-8") as fh:
        lineno = 0
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                flush(lineno)
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("language") and "=" in body:
                    sent_lang = body.split("=", 1)[1].strip()
                    if not sent_lang:
                        raise CorpusFormatError(
                            f"{path}:{lineno}: empty language comment")
                continue
            cols = line.split("\t")
            if len(cols) < 4 or not cols[1] or not cols[3]:
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected >=4 tab-separated columns "
                    f"with FORM and UPOS, got {line!r}"
                )
            tokens.append(cols[1])
            tags.append(cols[3])
        flush(lineno + 1)
    return examples


def _tsv_rows(path, n_cols: int, names: str):
    """(line number, columns) of each non-blank line; the last column is
    the language."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != n_cols:
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected {n_cols} columns "
                    f"({names}), got {len(cols)}"
                )
            if not cols[-1]:
                raise CorpusFormatError(f"{path}:{lineno}: empty language column")
            yield lineno, cols


def load_nli_tsv(path, vocab: Vocabulary) -> list[LabeledExample]:
    """Load premise/hypothesis pairs from a 4-column TSV.

    The two sides are joined with the separator id; the combined length is
    capped at 128 tokens including the separator.
    """
    examples = []
    for lineno, (premise, hypothesis, label, lang) in _tsv_rows(
            path, 4, "premise, hypothesis, label, language"):
        if label not in NLI_LABELS:
            raise CorpusFormatError(
                f"{path}:{lineno}: unknown label {label!r}, "
                f"expected one of {NLI_LABELS}"
            )
        p_tokens, h_tokens = premise.split(), hypothesis.split()
        if not p_tokens or not h_tokens:
            side = "hypothesis" if p_tokens else "premise"
            raise CorpusFormatError(f"{path}:{lineno}: empty {side}")
        p_ids = _encode(p_tokens, vocab)
        h_ids = _encode(h_tokens, vocab)
        if p_ids is None or h_ids is None:
            continue
        examples.append(LabeledExample(sequence=pair_sequence(p_ids, h_ids),
                                       task_labels=(label,), language=lang))
    return examples


def load_lid_paragraphs(path, vocab: Vocabulary) -> list[LabeledExample]:
    """Load language-labeled paragraphs from a 2-column TSV; the language
    is the only label."""
    examples = []
    for _, (text, lang) in _tsv_rows(path, 2, "text, language"):
        if len(text) < MIN_LID_CHARS:
            continue
        ids = _encode(text.split()[:MAX_LEN], vocab)
        if ids is not None:
            examples.append(LabeledExample(sequence=TokenSequence(ids),
                                           task_labels=(), language=lang))
    return examples


# ----------------------------------------------------------------------------
# Writers (used by gen-corpus and the round-trip tests)
# ----------------------------------------------------------------------------

def write_conllu(examples, vocab: Vocabulary, path) -> None:
    lines = []
    for ex in examples:
        lines.append(f"# language = {ex.language}")
        tokens = vocab.decode(ex.sequence.tokens)
        for i, (tok, tag) in enumerate(zip(tokens, ex.task_labels), start=1):
            cols = [str(i), tok, "_", tag, "_", "_", "_", "_", "_", "_"]
            lines.append("\t".join(cols))
        lines.append("")
    write_file(path, line_bytes(lines))


def write_nli_tsv(examples, vocab: Vocabulary, path) -> None:
    lines = []
    for ex in examples:
        b = ex.sequence.pair_boundary
        tokens = vocab.decode(ex.sequence.tokens)
        premise = " ".join(tokens[:b])
        hypothesis = " ".join(tokens[b + 1:])
        lines.append(f"{premise}\t{hypothesis}\t{ex.task_labels[0]}\t{ex.language}")
    write_file(path, line_bytes(lines))


def write_lid_tsv(examples, vocab: Vocabulary, path) -> None:
    lines = []
    for ex in examples:
        text = " ".join(vocab.decode(ex.sequence.tokens))
        lines.append(f"{text}\t{ex.language}")
    write_file(path, line_bytes(lines))
