"""Vocabulary, synthetic corpus, file io, splitting, and checkpoints."""

from __future__ import annotations

import hashlib
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from langlab.checkpoint import (
    MAGIC,
    CheckpointError,
    load_checkpoint,
    load_encoder,
    save_checkpoint,
    save_encoder,
)
from langlab.data.io import (
    MIN_LID_CHARS,
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
        assert v.decode([i])[0] == tok
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
    with pytest.raises(UnknownTokenError, match="nope"):
        v.encode(["x", "nope"])
    assert v.id("x") != UNK_ID


def test_vocab_duplicates_collapse():
    assert len(Vocabulary(["a", "a", "a"])) == len(SPECIAL_TOKENS) + 1


def test_vocab_save_load_roundtrip(tmp_path):
    v = Vocabulary([f"tok{i}" for i in range(10)])
    path = tmp_path / "vocab.txt"
    v.save(path)
    w = Vocabulary.load(path)
    assert len(w) == len(v)
    assert all(w.decode([i])[0] == v.decode([i])[0] for i in range(len(v)))
    # the digest is sha256sum of the saved file, and names the tokens
    assert v.sha256() == w.sha256() == hashlib.sha256(path.read_bytes()).hexdigest()
    assert Vocabulary([f"tok{i}" for i in range(1, 11)]).sha256() != v.sha256()


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
    seq = TokenSequence((5, SEP_ID, 6), pair_boundary=1)
    assert seq.pair_boundary == 1
    with pytest.raises(ValueError, match="separator"):
        TokenSequence((5, 6, 7), pair_boundary=1)
    with pytest.raises(ValueError, match="interior"):
        TokenSequence((SEP_ID, 5, 6), pair_boundary=0)
    with pytest.raises(ValueError, match="interior"):
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


@pytest.mark.parametrize("overlap, message", [
    (1.0, "overlap_fraction 1.0 leaves none of the 60 concepts"),
    (0.992, "overlap_fraction 0.992 leaves none of the 60 concepts"),
    (1.5, r"overlap_fraction must be in \[0, 1\], got 1.5"),
    (-0.5, r"overlap_fraction must be in \[0, 1\], got -0.5")])
def test_language_specs_keep_a_language_specific_concept(overlap, message):
    # with every concept shared no text shows its language, and LID
    # paragraph generation would never finish
    with pytest.raises(ValueError, match=message):
        make_language_specs(8, 60, overlap, seed=0)
    specs = make_language_specs(8, 60, 0.99, seed=0)
    assert sum(not form.startswith("xx_")
               for form in specs[0].lexicon.values()) == 1


@pytest.mark.parametrize("task", ["token_tag", "lid"])
def test_generated_texts_show_their_language_at_high_overlap(task):
    # at 0.99 one concept of 60 keeps language-specific forms; every
    # token-tag sentence and every LID paragraph must still carry one
    specs = make_language_specs(8, 60, 0.99, seed=0)
    vocab = build_vocabulary(specs)
    corpus = generate_corpus(specs, 40, task, seed=0, vocab=vocab)
    shared_only = [ex for ex in corpus
                   if all(form.startswith("xx_")
                          for form in vocab.decode(ex.sequence.tokens))]
    assert not shared_only, f"{len(shared_only)} of {len(corpus)} examples"


# sha256 of generate_corpus output (8 languages, 60 concepts, overlap
# 0.25, 40 examples per language): a change that moves any draw fails here
CORPUS_DIGESTS = {
    (0, "token_tag"):
        "530efa8c97e042bdd0b20904a563f925e9f916c3753d64735f6d80e06f308a90",
    (0, "pair_inference"):
        "d245bb013149ca38dc7458fc5a985cee8fc669b5aabbce738f91fefd64c66798",
    (0, "lid"):
        "5e51cc71b7f6c66b962e61cf7c877828ab129a8930b195868012d0f842555c11",
    (1, "token_tag"):
        "e6ab8936157c339697b49dca8c07ffee68eb6ae1a4e11803b04271d1644bb4c5",
    (1, "pair_inference"):
        "5296894c17335e372e7ba3519f5362b1ef1b1d6643b23459060dd79482a8c692",
    (1, "lid"):
        "c352589837b2fddc7c8b0c24d2b55b253b31de0988527fd24196a2b714958b5e",
}


@pytest.mark.parametrize("seed, task", sorted(CORPUS_DIGESTS))
def test_generated_corpora_are_pinned(seed, task):
    specs = make_language_specs(8, 60, 0.25, seed=seed)
    corpus = generate_corpus(specs, 40, task, seed=seed,
                             vocab=build_vocabulary(specs))
    digest = hashlib.sha256()
    for ex in corpus:
        digest.update(repr((ex.sequence.tokens, ex.sequence.pair_boundary,
                            ex.task_labels, ex.language)).encode())
    assert digest.hexdigest() == CORPUS_DIGESTS[seed, task]


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


def test_token_tag_corpus_labels(tiny_specs, tiny_vocab, tiny_task_corpus):
    per_lang = {}
    for ex in tiny_task_corpus:
        per_lang[ex.language] = per_lang.get(ex.language, 0) + 1
        assert len(ex.task_labels) == len(ex.sequence)
        # the label of each token is the universal tag of its concept
        for tok_id, tag in zip(ex.sequence.tokens, ex.task_labels):
            form = tiny_vocab.decode([tok_id])[0]
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
        assert seq.pair_boundary is not None
        assert seq.tokens[seq.pair_boundary] == SEP_ID
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
        assert UNK_ID not in [tiny_vocab.id(form) for form in spec.lexicon.values()]


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


def test_conllu_empty_language_comment_fails_by_line(tmp_path, tiny_vocab):
    # an empty comment must not hand its sentence the language '', even
    # where the filename names one
    for name in ("aa_empty.conllu", "empty.conllu"):
        path = tmp_path / name
        path.write_text("# language = ab\n"
                        "1\taa_3\t_\tNOUN\t_\t_\t_\t_\t_\t_\n\n"
                        "# language =\n1\taa_3\t_\tNOUN\t_\t_\t_\t_\t_\t_\n",
                        encoding="utf-8")
        with pytest.raises(CorpusFormatError,
                           match=re.escape(f"{path}:4: ") + "empty language"):
            load_conllu(path, tiny_vocab)


def test_nli_malformed_lines(tmp_path, tiny_vocab):
    path = tmp_path / "bad.tsv"
    path.write_text("aa_0\taa_2\tmaybe\taa\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="label"):
        load_nli_tsv(path, tiny_vocab)
    # a side with no token after the whitespace split fails by path:line,
    # not as the pair's bad separator position
    for row, side in (("\taa_4\tentailment\taa", "premise"),
                      ("aa_3\t  \tneutral\taa", "hypothesis")):
        path.write_text(f"aa_3\taa_4\tentailment\taa\n{row}\n",
                        encoding="utf-8")
        with pytest.raises(CorpusFormatError,
                           match=f"^{re.escape(str(path))}:2: empty {side}$"):
            load_nli_tsv(path, tiny_vocab)


def test_lid_malformed_and_short_lines(tmp_path, tiny_vocab):
    path = tmp_path / "bad_lid.tsv"
    path.write_text("three\tcolumns\there\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="2 columns"):
        load_lid_paragraphs(path, tiny_vocab)
    # paragraphs under the length floor are skipped, not errors; spaces
    # pad a two-word paragraph to the floor exactly
    for length, kept in ((MIN_LID_CHARS, 1), (MIN_LID_CHARS - 1, 0)):
        text = "aa_3" + " " * (length - 8) + "aa_4"
        assert len(text) == length
        path.write_text(f"{text}\taa\n", encoding="utf-8")
        assert len(load_lid_paragraphs(path, tiny_vocab)) == kept, length


# Each TSV format's loader and a row of it: words, then the language.
TSV_ROWS = {
    load_nli_tsv: "{words}\t{words}\tentailment\t{lang}",
    load_lid_paragraphs: "{words}\t{lang}",
}
# 124 characters of the tiny world's aa-specific form aa_3: long enough
# for an LID row
TSV_WORDS = " ".join(["aa_3"] * 25)


@pytest.mark.parametrize("loader", TSV_ROWS, ids=["nli", "lid"])
def test_tsv_bad_rows_fail_by_line(tmp_path, tiny_vocab, loader):
    good = TSV_ROWS[loader].format(words=TSV_WORDS, lang="aa")
    path = tmp_path / "bad.tsv"
    for bad, message in ((good + "\textra", "columns"),
                         (good.rpartition("\t")[0], "columns"),
                         (good.rpartition("\t")[0] + "\t", "empty language")):
        # blank lines are skipped but still counted
        path.write_text(f"{good}\n\n{bad}\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError,
                           match=re.escape(f"{path}:3: ") + f".*{message}"):
            loader(path, tiny_vocab)


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
    assert kept[0].sequence.tokens[0] != UNK_ID
    # the TSV formats omit such rows too
    path = tmp_path / "unk.tsv"
    for loader, row in TSV_ROWS.items():
        unknown = row.format(words=TSV_WORDS + " not_a_token", lang="ab")
        path.write_text(unknown + "\n" + row.format(words=TSV_WORDS, lang="aa")
                        + "\n", encoding="utf-8")
        assert [ex.language for ex in loader(path, tiny_vocab)] == ["aa"]


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


def test_default_fractions():
    assert SPLIT_FRACTIONS == (0.70, 0.10, 0.10, 0.10)


def test_filter_language(tiny_lid_corpus):
    aa = filter_language(tiny_lid_corpus, "aa")
    assert aa and all(ex.language == "aa" for ex in aa)
    assert filter_language(tiny_lid_corpus, "zz") == ()


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
    assert p1.read_bytes() == p2.read_bytes()
    save_checkpoint(p2, {"a": np.arange(4.0), "b": np.zeros((2, 2))})
    assert p1.read_bytes() != p2.read_bytes()


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


def test_checkpoint_payload_digest_checked(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.arange(12.0).reshape(3, 4)}, meta={"k": 1})
    raw = bytearray(path.read_bytes())
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + hlen])
    assert header["payload_sha256"] == hashlib.sha256(raw[16 + hlen:]).hexdigest()
    # one flipped payload byte still parses, but must not load
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*sha256"):
        load_checkpoint(path)
    # a header without the digest is refused as well
    del header["payload_sha256"]
    bare = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(bare)) + bare
                     + bytes(raw[16 + hlen:]))
    with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*digest"):
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

    monkeypatch.setattr("langlab.files.os.replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {"a": np.arange(9.0)})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    save_checkpoint(path, {"a": np.arange(9.0)})
    assert load_checkpoint(path)[0]["a"].shape == (9,)
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_encoder_checkpoint_roundtrip(tmp_path, tiny_encoder, tiny_vocab):
    path = tmp_path / "enc.ckpt"
    save_encoder(path, tiny_encoder, tiny_vocab)
    loaded = load_encoder(path, tiny_encoder.config, tiny_vocab)
    assert loaded.config == tiny_encoder.config
    assert set(loaded.params) == set(tiny_encoder.params)
    for name, arr in tiny_encoder.params.items():
        assert np.array_equal(loaded.params[name], arr)


def test_load_encoder_requires_config(tmp_path, tiny_encoder, tiny_vocab):
    path = tmp_path / "plain.ckpt"
    save_checkpoint(path, {"encoder/tok_emb": np.zeros((4, 2))})
    with pytest.raises(CheckpointError, match="encoder_config"):
        load_encoder(path, tiny_encoder.config, tiny_vocab)
