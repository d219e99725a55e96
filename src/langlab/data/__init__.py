"""Corpus handling: synthetic multilingual generation, file loaders for the
CoNLL-U / NLI-TSV / LID-TSV formats, and language-stratified splitting."""
