"""Vocabulary, synthetic corpus, file io, splitting, and checkpoints."""

from __future__ import annotations

import re
import struct
from pathlib import Path

import numpy as np
import pytest

from langlab.checkpoint import (
    MAGIC,
    CheckpointError,
    checkpoint_digest,
    load_checkpoint,
    load_encoder,
    save_checkpoint,
    save_encoder,
)
from langlab.data.io import (
    CorpusFormatError,
    NLI_LABELS,
    load_conllu,
    load_lid_paragraphs,
    load_nli_tsv,
    write_conllu,
    write_lid_tsv,
    write_nli_tsv,
)
from langlab.data.split import SPLIT_FRACTIONS, filter_language, stratified_split
from langlab.data.synthetic import (
    TAG_INVENTORY,
    antonym_of,
    build_antonym_map,
    build_vocabulary,
    generate_corpus,
    make_language_specs,
    tag_of_concept,
)
from langlab.data.types import CorpusSplit, LabeledExample, TokenSequence, MAX_LEN
from langlab.vocab import (
    MASK_ID,
    PAD_ID,
    SEP_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    UnknownTokenError,
    Vocabulary,
)


# ---------------------------------------------------------------------------
# vocabulary


def test_special_token_slots():
    v = Vocabulary(["b", "a"])
    assert (PAD_ID, UNK_ID, SEP_ID, MASK_ID) == (0, 1, 2, 3)
    for i, tok in enumerate(SPECIAL_TOKENS):
        assert v.token(i) == tok
    # regular ids sorted after the specials
    assert v.id("a") == 4 and v.id("b") == 5
    assert len(v) == 6


def test_vocab_encode_decode_roundtrip():
    v = Vocabulary(["x", "y", "z"])
    ids = v.encode(["z", "x", "y"])
    assert v.decode(ids) == ["z", "x", "y"]


def test_vocab_unknown_handling():
    v = Vocabulary(["x"])
    assert v.id("nope") == UNK_ID
    with pytest.raises(UnknownTokenError):
        v.id("nope", allow_unk=False)
    assert "x" in v and "nope" not in v


def test_vocab_duplicates_collapse():
    assert len(Vocabulary(["a", "a", "a"])) == len(SPECIAL_TOKENS) + 1


def test_vocab_save_load_roundtrip(tmp_path):
    v = Vocabulary([f"tok{i}" for i in range(10)])
    path = tmp_path / "vocab.txt"
    v.save(path)
    w = Vocabulary.load(path)
    assert len(w) == len(v)
    assert all(w.token(i) == v.token(i) for i in range(len(v)))


def test_vocab_load_rejects_missing_specials(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a\nb\nc\n", encoding="utf-8")
    with pytest.raises(ValueError, match="special"):
        Vocabulary.load(path)


# ---------------------------------------------------------------------------
# core types


def test_token_sequence_length_cap():
    TokenSequence(tuple(range(4, 4 + MAX_LEN)))
    with pytest.raises(ValueError, match="exceeds"):
        TokenSequence(tuple(range(4, 4 + MAX_LEN + 1)))


def test_pair_boundary_validation():
    seq = TokenSequence((5, SEP_ID, 6), is_pair=True, pair_boundary=1)
    assert seq.pair_boundary == 1
    with pytest.raises(ValueError, match="separator"):
        TokenSequence((5, 6, 7), is_pair=True, pair_boundary=1)
    with pytest.raises(ValueError, match="interior"):
        TokenSequence((SEP_ID, 5, 6), is_pair=True, pair_boundary=0)
    with pytest.raises(ValueError, match="non-pair"):
        TokenSequence((5, 6), pair_boundary=1)


def test_labeled_example_label_arity():
    seq = TokenSequence((5, 6, 7))
    LabeledExample(seq, task_labels=("A", "B", "C"))   # per token
    LabeledExample(seq, task_labels=("A",))            # per text
    LabeledExample(seq, task_labels=())                # LID
    with pytest.raises(ValueError, match="task labels"):
        LabeledExample(seq, task_labels=("A", "B"))


# ---------------------------------------------------------------------------
# synthetic corpus


def test_language_specs_shape_and_overlap():
    specs = make_language_specs(4, 40, 0.25, seed=3)
    assert [s.language for s in specs] == ["aa", "ab", "ac", "ad"]
    shared = {c for c in range(40)
              if specs[0].lexicon[c] == specs[1].lexicon[c]}
    assert len(shared) == round(0.25 * 40)
    for c in shared:
        forms = {s.lexicon[c] for s in specs}
        assert len(forms) == 1 and next(iter(forms)).startswith("xx_")
    # non-overlap forms are disjoint across languages
    for c in set(range(40)) - shared:
        assert len({s.lexicon[c] for s in specs}) == 4


def test_language_specs_deterministic():
    a = make_language_specs(3, 30, 0.25, seed=7)
    b = make_language_specs(3, 30, 0.25, seed=7)
    assert a == b
    c = make_language_specs(3, 30, 0.25, seed=8)
    assert a != c


def test_order_rules_cycle():
    specs = make_language_specs(6, 20, 0.0, seed=0)
    assert [s.order_rule for s in specs] == [0, 1, 2, 3, 0, 1]


def test_tag_of_concept_partition():
    tags = {tag_of_concept(c) for c in range(50)}
    assert tags == set(TAG_INVENTORY)


def test_antonym_map_symmetric_same_tag():
    amap = build_antonym_map(30)
    for a, b in amap.items():
        assert amap[b] == a and a != b
        assert tag_of_concept(a) == tag_of_concept(b)
    assert antonym_of(next(iter(amap)), 30) == amap[next(iter(amap))]


def test_token_tag_corpus_labels(tiny_specs, tiny_vocab, tiny_task_corpus):
    per_lang = {}
    for ex in tiny_task_corpus:
        per_lang[ex.language] = per_lang.get(ex.language, 0) + 1
        assert len(ex.task_labels) == len(ex.sequence)
        # the label of each token is the universal tag of its concept
        for tok_id, tag in zip(ex.sequence.tokens, ex.task_labels):
            form = tiny_vocab.token(tok_id)
            concept = int(form.rsplit("_", 1)[1])
            assert tag == tag_of_concept(concept)
    assert set(per_lang.values()) == {40}
    assert set(per_lang) == {s.language for s in tiny_specs}


def test_corpus_deterministic(tiny_specs, tiny_vocab):
    a = generate_corpus(tiny_specs, 5, "token_tag", seed=2, vocab=tiny_vocab)
    b = generate_corpus(tiny_specs, 5, "token_tag", seed=2, vocab=tiny_vocab)
    assert a == b
    c = generate_corpus(tiny_specs, 5, "token_tag", seed=3, vocab=tiny_vocab)
    assert a != c


def test_pair_corpus_structure(tiny_pair_corpus):
    labels = set()
    for ex in tiny_pair_corpus:
        seq = ex.sequence
        assert seq.is_pair and seq.tokens[seq.pair_boundary] == SEP_ID
        assert len(seq) <= MAX_LEN
        assert len(ex.task_labels) == 1
        labels.add(ex.task_labels[0])
    assert labels == set(NLI_LABELS)


def test_lid_corpus_structure(tiny_vocab, tiny_lid_corpus):
    for ex in tiny_lid_corpus:
        assert ex.task_labels == ()
        text = " ".join(tiny_vocab.decode(ex.sequence.tokens))
        assert len(text) >= 110 or len(ex.sequence) == MAX_LEN


def test_generate_corpus_validation(tiny_specs, tiny_vocab):
    with pytest.raises(ValueError, match="unknown task"):
        generate_corpus(tiny_specs, 2, "nope", vocab=tiny_vocab)
    with pytest.raises(ValueError, match="n_per_language"):
        generate_corpus(tiny_specs, 0, "lid", vocab=tiny_vocab)
    with pytest.raises(ValueError, match="two language"):
        generate_corpus(tiny_specs[:1], 2, "token_tag", vocab=tiny_vocab)
    # LID corpora are meaningful even for a single language
    assert generate_corpus(tiny_specs[:1], 2, "lid", vocab=tiny_vocab)


def test_build_vocabulary_covers_all_forms(tiny_specs, tiny_vocab):
    for spec in tiny_specs:
        for form in spec.lexicon.values():
            assert form in tiny_vocab


# ---------------------------------------------------------------------------
# file formats


def test_conllu_roundtrip(tmp_path, tiny_vocab, tiny_task_corpus):
    path = tmp_path / "aa_corpus.conllu"
    write_conllu(tiny_task_corpus, tiny_vocab, path)
    loaded = load_conllu(path, tiny_vocab)
    assert loaded == list(tiny_task_corpus)


def test_nli_roundtrip(tmp_path, tiny_vocab, tiny_pair_corpus):
    path = tmp_path / "pairs.tsv"
    write_nli_tsv(tiny_pair_corpus, tiny_vocab, path)
    loaded = load_nli_tsv(path, tiny_vocab)
    assert loaded == list(tiny_pair_corpus)


def test_lid_roundtrip(tmp_path, tiny_vocab, tiny_lid_corpus):
    path = tmp_path / "lid.tsv"
    write_lid_tsv(tiny_lid_corpus, tiny_vocab, path)
    loaded = load_lid_paragraphs(path, tiny_vocab)
    assert loaded == list(tiny_lid_corpus)


def test_conllu_language_sources(tmp_path, tiny_specs, tiny_vocab):
    form = tiny_specs[0].lexicon[3]   # an aa-specific surface form
    body = f"1\t{form}\t_\tNOUN\t_\t_\t_\t_\t_\t_\n\n"
    # filename convention
    p1 = tmp_path / "ab_file.conllu"
    p1.write_text(body, encoding="utf-8")
    assert load_conllu(p1, tiny_vocab)[0].language == "ab"
    # comment overrides filename
    p2 = tmp_path / "ab_file2.conllu"
    p2.write_text("# language = ac\n" + body, encoding="utf-8")
    assert load_conllu(p2, tiny_vocab)[0].language == "ac"
    # explicit argument overrides both
    assert load_conllu(p2, tiny_vocab, language="aa")[0].language == "aa"
    # no metadata at all is an error
    p3 = tmp_path / "nolang.conllu"
    p3.write_text(body, encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="language"):
        load_conllu(p3, tiny_vocab)


def test_conllu_malformed_line_reports_position(tmp_path, tiny_vocab):
    path = tmp_path / "aa_bad.conllu"
    path.write_text("1\taa_0\t_\tNOUN\t_\t_\t_\t_\t_\t_\nbroken line\n",
                    encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r":2:"):
        load_conllu(path, tiny_vocab)


def test_nli_malformed_lines(tmp_path, tiny_vocab):
    path = tmp_path / "bad.tsv"
    path.write_text("aa_0\taa_2\tmaybe\taa\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="label"):
        load_nli_tsv(path, tiny_vocab)
    path.write_text("only\ttwo\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="4 columns"):
        load_nli_tsv(path, tiny_vocab)


def test_lid_malformed_and_short_lines(tmp_path, tiny_vocab):
    path = tmp_path / "bad_lid.tsv"
    path.write_text("three\tcolumns\there\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="2 columns"):
        load_lid_paragraphs(path, tiny_vocab)
    # paragraphs under the length floor are skipped, not errors
    path.write_text("aa_0 aa_2\taa\n", encoding="utf-8")
    assert load_lid_paragraphs(path, tiny_vocab) == []


def test_unknown_token_filtering(tmp_path, tiny_specs, tiny_vocab):
    form = tiny_specs[0].lexicon[3]
    path = tmp_path / "aa_unk.conllu"
    path.write_text(
        "1\tnot_a_token\t_\tNOUN\t_\t_\t_\t_\t_\t_\n\n"
        f"1\t{form}\t_\tNOUN\t_\t_\t_\t_\t_\t_\n\n",
        encoding="utf-8",
    )
    kept = load_conllu(path, tiny_vocab)
    assert len(kept) == 1
    mapped = load_conllu(path, tiny_vocab, filter_unknown=False)
    assert len(mapped) == 2
    assert mapped[0].sequence.tokens[0] == UNK_ID


# ---------------------------------------------------------------------------
# splitting


def test_split_exact_counts(tiny_lid_corpus):
    split = stratified_split(tiny_lid_corpus, seed=0)
    assert isinstance(split, CorpusSplit)
    for lang in ("aa", "ab", "ac"):
        counts = [sum(1 for ex in part if ex.language == lang)
                  for part in split.parts]
        assert counts == [28, 4, 4, 4]


def test_split_is_partition(tiny_lid_corpus):
    split = stratified_split(tiny_lid_corpus, seed=0)
    seen = [id(ex) for part in split.parts for ex in part]
    assert sorted(seen) == sorted(id(ex) for ex in tiny_lid_corpus)


def test_split_deterministic_and_seed_sensitive(tiny_lid_corpus):
    a = stratified_split(tiny_lid_corpus, seed=5)
    b = stratified_split(tiny_lid_corpus, seed=5)
    assert a.parts == b.parts
    c = stratified_split(tiny_lid_corpus, seed=6)
    assert a.train != c.train


def test_split_largest_remainder_rounding(tiny_lid_corpus):
    # 10 examples at 70/10/10/10: floors 7/1/1/1 sum to 10 already
    few = [ex for ex in tiny_lid_corpus if ex.language == "aa"][:10]
    split = stratified_split(few, seed=0)
    assert [len(p) for p in split.parts] == [7, 1, 1, 1]
    # 6 examples: floors 4/0/0/0, remainders .2/.6/.6/.6, ties go earliest
    split = stratified_split(few[:6], seed=0)
    assert [len(p) for p in split.parts] == [4, 1, 1, 0]


def test_split_starved_language_raises(tiny_lid_corpus):
    few = [ex for ex in tiny_lid_corpus if ex.language == "aa"][:3]
    with pytest.raises(ValueError, match="fewer examples than splits: aa"):
        stratified_split(few, seed=0)


def test_split_fraction_validation(tiny_lid_corpus):
    with pytest.raises(ValueError, match="sum to 1"):
        stratified_split(tiny_lid_corpus, seed=0, fractions=(0.5, 0.1))
    with pytest.raises(ValueError, match="positive"):
        stratified_split(tiny_lid_corpus, seed=0, fractions=(1.5, -0.5))


def test_split_non_default_fraction_count(tiny_lid_corpus):
    parts = stratified_split(tiny_lid_corpus, seed=0, fractions=(0.9, 0.1))
    assert isinstance(parts, tuple) and len(parts) == 2
    assert len(parts[0]) + len(parts[1]) == len(tiny_lid_corpus)


def test_default_fractions():
    assert SPLIT_FRACTIONS == (0.70, 0.10, 0.10, 0.10)


def test_filter_language(tiny_lid_corpus):
    aa = filter_language(tiny_lid_corpus, "aa")
    assert aa and all(ex.language == "aa" for ex in aa)
    both = filter_language(tiny_lid_corpus, ["aa", "ab"])
    assert {ex.language for ex in both} == {"aa", "ab"}


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "big/w": rng.normal(size=(7, 5)),
        "ids": np.arange(6, dtype=np.int64),
        "scalar": np.array(3.5),
    }
    path = tmp_path / "test.ckpt"
    save_checkpoint(path, arrays, meta={"note": "x", "n": 2})
    loaded, meta = load_checkpoint(path)
    assert meta == {"note": "x", "n": 2}
    assert set(loaded) == set(arrays)
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype
        assert loaded[name].shape == arr.shape
        assert np.array_equal(loaded[name], arr)


def test_checkpoint_bytes_deterministic(tmp_path):
    arrays = {"a": np.arange(4.0), "b": np.ones((2, 2))}
    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    save_checkpoint(p1, arrays)
    save_checkpoint(p2, arrays)
    assert checkpoint_digest(p1) == checkpoint_digest(p2)
    save_checkpoint(p2, {"a": np.arange(4.0), "b": np.zeros((2, 2))})
    assert checkpoint_digest(p1) != checkpoint_digest(p2)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


@pytest.mark.parametrize("keep", [12, 20, -10])
def test_checkpoint_truncated_names_path(tmp_path, keep):
    path = tmp_path / "cut.ckpt"
    save_checkpoint(path, {"w": np.arange(12.0).reshape(3, 4)}, meta={"k": 1})
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


@pytest.mark.parametrize("header", [b"{not json", b"\xff\xfe", b"[1]",
                                    b'{"arrays": [{"name": "w"}]}'])
def test_checkpoint_garbled_header_names_path(tmp_path, header):
    path = tmp_path / "garbled.ckpt"
    path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header)
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_checkpoint_write_replaces_target_whole(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"a": np.arange(4.0)})
    before = path.read_bytes()

    def failing_replace(src, dst):
        # the new file is complete beside the target, which is untouched
        assert Path(src).parent == path.parent and Path(dst) == path
        assert load_checkpoint(src)[0]["a"].shape == (9,)
        assert path.read_bytes() == before
        raise OSError("disk full")

    monkeypatch.setattr("langlab.checkpoint.os.replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {"a": np.arange(9.0)})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    save_checkpoint(path, {"a": np.arange(9.0)})
    assert load_checkpoint(path)[0]["a"].shape == (9,)
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_encoder_checkpoint_roundtrip(tmp_path, tiny_encoder):
    path = tmp_path / "enc.ckpt"
    save_encoder(path, tiny_encoder)
    loaded = load_encoder(path)
    assert loaded.config == tiny_encoder.config
    assert set(loaded.params) == set(tiny_encoder.params)
    for name, arr in tiny_encoder.params.items():
        assert np.array_equal(loaded.params[name], arr)


def test_load_encoder_requires_config(tmp_path):
    path = tmp_path / "plain.ckpt"
    save_checkpoint(path, {"encoder/tok_emb": np.zeros((4, 2))})
    with pytest.raises(CheckpointError, match="encoder_config"):
        load_encoder(path)
