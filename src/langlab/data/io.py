"""File loaders and writers for the three external corpus formats.

* CoNLL-U subset: 10 tab-separated columns, FORM (col 2) and UPOS (col 4)
  consumed, ``#`` comments ignored, blank line ends a sentence.  The
  language comes from a ``# language = xx`` comment or, failing that, from
  a ``<lang>_*.conllu`` filename convention.
* NLI TSV: ``premise \\t hypothesis \\t label \\t language``.
* LID TSV: ``text \\t language``.

All loaders tokenize by whitespace, truncate to the first 128 tokens
(pairs: combined 128 including the separator) and either map unknown
tokens to UNK or omit the example, per ``filter_unknown``.
"""

from __future__ import annotations

from pathlib import Path

from langlab.data.synthetic import pair_sequence
from langlab.data.types import LabeledExample, TokenSequence, MAX_LEN
from langlab.vocab import UNK_ID, Vocabulary

NLI_LABELS = ("entailment", "contradiction", "neutral")


class CorpusFormatError(ValueError):
    """Malformed corpus file; the message names the offending line."""


def _encode(tokens, vocab, filter_unknown):
    """Token strings -> ids, or None when the example must be omitted."""
    ids = [vocab.id(t) for t in tokens]
    if filter_unknown and UNK_ID in ids:
        return None
    return ids


def _language_from_filename(path) -> str | None:
    stem = Path(path).stem
    if "_" in stem:
        return stem.split("_", 1)[0]
    return None


def load_conllu(
    path,
    vocab: Vocabulary,
    filter_unknown: bool = True,
    language: str | None = None,
) -> list[LabeledExample]:
    """Load token-level tagged sentences from a CoNLL-U file.

    One LabeledExample per sentence; sentences longer than 128 tokens are
    truncated.  ``language`` overrides both the ``# language =`` comments
    and the filename convention.
    """
    path = Path(path)
    default_lang = language or _language_from_filename(path)
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
            ids = _encode(tokens[:MAX_LEN], vocab, filter_unknown)
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
                # an explicit language argument beats in-file comments
                if language is None and body.startswith("language") and "=" in body:
                    sent_lang = body.split("=", 1)[1].strip()
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


def load_nli_tsv(
    path, vocab: Vocabulary, filter_unknown: bool = True
) -> list[LabeledExample]:
    """Load premise/hypothesis pairs from a 4-column TSV.

    The two sides are joined with the separator id; the combined length is
    capped at 128 tokens including the separator.
    """
    path = Path(path)
    examples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != 4:
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected 4 columns "
                    f"(premise, hypothesis, label, language), got {len(cols)}"
                )
            premise, hypothesis, label, lang = cols
            if label not in NLI_LABELS:
                raise CorpusFormatError(
                    f"{path}:{lineno}: unknown label {label!r}, "
                    f"expected one of {NLI_LABELS}"
                )
            p_ids = _encode(premise.split(), vocab, filter_unknown)
            h_ids = _encode(hypothesis.split(), vocab, filter_unknown)
            if p_ids is None or h_ids is None:
                continue
            examples.append(LabeledExample(sequence=pair_sequence(p_ids, h_ids),
                                           task_labels=(label,), language=lang))
    return examples


def load_lid_paragraphs(
    path, vocab: Vocabulary, filter_unknown: bool = True, min_chars: int = 100
) -> list[LabeledExample]:
    """Load language-labeled paragraphs from a 2-column TSV.

    Paragraphs shorter than ``min_chars`` characters are rejected; the
    language is the only label.
    """
    path = Path(path)
    examples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != 2 or not cols[1]:
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected 2 columns (text, language)"
                )
            text, lang = cols
            if len(text) < min_chars:
                continue
            ids = _encode(text.split()[:MAX_LEN], vocab, filter_unknown)
            if ids is None:
                continue
            examples.append(
                LabeledExample(
                    sequence=TokenSequence(ids), task_labels=(), language=lang
                )
            )
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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_nli_tsv(examples, vocab: Vocabulary, path) -> None:
    lines = []
    for ex in examples:
        b = ex.sequence.pair_boundary
        tokens = vocab.decode(ex.sequence.tokens)
        premise = " ".join(tokens[:b])
        hypothesis = " ".join(tokens[b + 1:])
        lines.append(f"{premise}\t{hypothesis}\t{ex.task_labels[0]}\t{ex.language}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_lid_tsv(examples, vocab: Vocabulary, path) -> None:
    lines = []
    for ex in examples:
        text = " ".join(vocab.decode(ex.sequence.tokens))
        lines.append(f"{text}\t{ex.language}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
