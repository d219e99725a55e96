"""Synthetic multilingual corpus generation.

The synthetic world is built from a shared inventory of concept ids.  Each
language renders a concept with its own surface form, except for a
configurable fraction of "overlap" concepts whose form is shared by all
languages (these play the role of shared wordpieces / loanwords and anchor
cross-lingual alignment).  Each concept carries a universal tag
(noun-like / verb-like / function word), so the token-tag task is defined
language-neutrally, and languages differ in their word-order rule, giving
small "typological families".

Three corpora can be generated:

* ``token_tag``      -- one tag per token (POS-tagging analog)
* ``pair_inference`` -- premise/hypothesis pairs with entailment /
                        contradiction / neutral labels defined by concept
                        relations (NLI analog)
* ``lid``            -- multi-sentence paragraphs labeled only by language
                        (Wikipedia LID analog)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from langlab.data.types import LabeledExample, TokenSequence, MAX_LEN
from langlab.vocab import SEP_ID, Vocabulary

TAG_INVENTORY = ("FUNC", "NOUN", "VERB")

NOUN, VERB, FUNC = "NOUN", "VERB", "FUNC"

# Clause skeletons in a neutral base order; languages permute them.
CLAUSE_TEMPLATES = (
    (FUNC, NOUN, VERB, NOUN),
    (FUNC, NOUN, VERB, FUNC, NOUN),
    (NOUN, VERB, NOUN),
    (FUNC, NOUN, VERB),
    (NOUN, VERB, FUNC, NOUN, FUNC, NOUN),
)

N_ORDER_RULES = 4


def tag_of_concept(concept: int) -> str:
    """Universal tag of a concept id (shared by every language)."""
    if concept % 5 == 4:
        return FUNC
    return NOUN if concept % 2 == 0 else VERB


def build_antonym_map(n_concepts: int) -> dict:
    """Symmetric pairing of same-tag content concepts used for contradictions.

    Adjacent concepts in each tag's ordering are paired; a trailing unpaired
    concept has no partner.
    """
    amap = {}
    for tag in (NOUN, VERB):
        ids = [c for c in range(n_concepts) if tag_of_concept(c) == tag]
        for i in range(0, len(ids) - 1, 2):
            amap[ids[i]] = ids[i + 1]
            amap[ids[i + 1]] = ids[i]
    return amap


@dataclass(frozen=True)
class SyntheticLanguageSpec:
    """One synthetic language: lexicon and word order."""

    language: str
    lexicon: dict            # concept id -> surface form
    order_rule: int          # index into the word-order permutation rules

    @property
    def n_concepts(self) -> int:
        return len(self.lexicon)


def _language_code(index: int) -> str:
    return chr(ord("a") + index // 26) + chr(ord("a") + index % 26)


DEFAULT_N_CONCEPTS = 60
DEFAULT_OVERLAP = 0.25
# a generated LID paragraph's least length, above the loader's MIN_LID_CHARS
LID_PARAGRAPH_CHARS = 110


def make_language_specs(
    n_languages: int,
    n_concepts: int = DEFAULT_N_CONCEPTS,
    overlap_fraction: float = DEFAULT_OVERLAP,
    seed: int = 0,
) -> list[SyntheticLanguageSpec]:
    """Create ``n_languages`` specs over a shared concept inventory.

    ``overlap_fraction`` of the concepts get a surface form shared by all
    languages; the rest are rendered with disjoint language-specific forms.
    At least one concept must keep them, or no generated text could show
    its language.
    """
    if n_languages < 1:
        raise ValueError("need at least one language")
    if n_languages > 500:
        raise ValueError("language code space exhausted")
    if not 0.0 <= overlap_fraction <= 1.0:
        raise ValueError(f"overlap_fraction must be in [0, 1], "
                         f"got {overlap_fraction}")
    n_overlap = int(round(overlap_fraction * n_concepts))
    if n_overlap >= n_concepts:
        raise ValueError(f"overlap_fraction {overlap_fraction} leaves none "
                         f"of the {n_concepts} concepts a language-specific "
                         f"form")
    rng = np.random.default_rng(seed)
    overlap = set(rng.choice(n_concepts, size=n_overlap, replace=False).tolist())

    specs = []
    for i in range(n_languages):
        lang = _language_code(i)
        lexicon = {}
        for c in range(n_concepts):
            lexicon[c] = f"xx_{c}" if c in overlap else f"{lang}_{c}"
        specs.append(SyntheticLanguageSpec(language=lang, lexicon=lexicon,
                                           order_rule=i % N_ORDER_RULES))
    return specs


def build_vocabulary(specs) -> Vocabulary:
    """Vocabulary over every surface form of every language."""
    forms = []
    for spec in specs:
        forms.extend(spec.lexicon.values())
    return Vocabulary(forms)


def _apply_order_rule(slots: list, rule: int) -> list:
    """Permute a clause of (tag, concept) slots per the language's rule."""
    if rule == 0:
        return slots
    if rule == 1:  # verbs move to the end of the clause
        return [s for s in slots if s[0] != VERB] + [s for s in slots if s[0] == VERB]
    if rule == 2:  # verbs move to the front
        return [s for s in slots if s[0] == VERB] + [s for s in slots if s[0] != VERB]
    if rule == 3:  # mirror order
        return slots[::-1]
    raise ValueError(f"unknown order rule {rule}")


class _ConceptPools:
    def __init__(self, n_concepts: int):
        self.by_tag = {tag: [] for tag in TAG_INVENTORY}
        for c in range(n_concepts):
            self.by_tag[tag_of_concept(c)].append(c)
        self.content = self.by_tag[NOUN] + self.by_tag[VERB]

    def sample(self, tag: str, rng) -> int:
        pool = self.by_tag[tag]
        return pool[rng.integers(len(pool))]


def _make_sentence_slots(pools: _ConceptPools, spec, rng) -> list:
    """One sentence as a list of (tag, concept) pairs in surface order."""
    n_clauses = 1 if rng.random() < 0.6 else 2
    slots = []
    for _ in range(n_clauses):
        template = CLAUSE_TEMPLATES[rng.integers(len(CLAUSE_TEMPLATES))]
        clause = [(tag, pools.sample(tag, rng)) for tag in template]
        slots.extend(_apply_order_rule(clause, spec.order_rule))
    return slots


def _sentence_showing_language(pools, spec, rng) -> list:
    """Sentence slots resampled until one form is language-specific, so
    the language is always recoverable from the surface."""
    while True:
        slots = _make_sentence_slots(pools, spec, rng)
        if any(not spec.lexicon[c].startswith("xx_") for _, c in slots):
            return slots


def _token_tag_example(pools, spec, vocab, rng) -> LabeledExample:
    slots = _sentence_showing_language(pools, spec, rng)
    tokens = vocab.encode([spec.lexicon[c] for _, c in slots])
    tags = tuple(tag for tag, _ in slots)
    return LabeledExample(
        sequence=TokenSequence(tokens), task_labels=tags, language=spec.language
    )


def truncate_pair(premise: list, hypothesis: list):
    """Trim premise/hypothesis so that combined length (incl. SEP) fits.

    Tokens are dropped from the end of whichever side is currently longer
    (ties trim the premise), so the separator always survives.
    """
    p, h = list(premise), list(hypothesis)
    while len(p) + len(h) + 1 > MAX_LEN:
        if len(p) >= len(h):
            p.pop()
        else:
            h.pop()
    return p, h


def pair_sequence(premise_ids, hyp_ids) -> TokenSequence:
    """Premise and hypothesis ids joined by the separator, truncated to fit."""
    p, h = truncate_pair(premise_ids, hyp_ids)
    return TokenSequence(p + [SEP_ID] + h, pair_boundary=len(p))


def _render_hypothesis(concepts: list, pools: _ConceptPools, spec, rng) -> list:
    slots = [(tag_of_concept(c), c) for c in concepts]
    perm = rng.permutation(len(slots))
    slots = [slots[i] for i in perm]
    if rng.random() < 0.5:
        slots.insert(0, (FUNC, pools.sample(FUNC, rng)))
    slots = _apply_order_rule(slots, spec.order_rule)
    return [spec.lexicon[c] for _, c in slots]


def _pair_example(pools, spec, vocab, rng, amap) -> LabeledExample:
    label = ("entailment", "contradiction", "neutral")[rng.integers(3)]
    for _ in range(50):
        slots = _make_sentence_slots(pools, spec, rng)
        premise_content = [c for tag, c in slots if tag != FUNC]
        if len(set(premise_content)) < 2:
            continue
        distinct = sorted(set(premise_content))
        k = int(rng.integers(2, min(4, len(distinct)) + 1))
        chosen = [distinct[i] for i in rng.choice(len(distinct), size=k, replace=False)]
        if label == "contradiction":
            swappable = [
                c for c in chosen
                if amap.get(c) is not None and amap[c] not in premise_content
            ]
            if not swappable:
                continue
            victim = swappable[rng.integers(len(swappable))]
            chosen[chosen.index(victim)] = amap[victim]
        elif label == "neutral":
            related = set(premise_content)
            for c in premise_content:
                if c in amap:
                    related.add(amap[c])
            fresh_pool = [c for c in pools.content if c not in related]
            if not fresh_pool:
                continue
            fresh = fresh_pool[rng.integers(len(fresh_pool))]
            chosen[rng.integers(len(chosen))] = fresh
        premise_tokens = [spec.lexicon[c] for _, c in slots]
        hyp_tokens = _render_hypothesis(chosen, pools, spec, rng)
        seq = pair_sequence(
            vocab.encode(premise_tokens),
            vocab.encode(hyp_tokens),
        )
        return LabeledExample(sequence=seq, task_labels=(label,), language=spec.language)
    raise RuntimeError("could not construct a pair example; lexicon too small")


def _lid_example(pools, spec, vocab, rng) -> LabeledExample:
    tokens = []
    text_len = 0
    while text_len < LID_PARAGRAPH_CHARS:
        slots = _sentence_showing_language(pools, spec, rng)
        tokens.extend(spec.lexicon[c] for _, c in slots)
        text_len = sum(len(f) for f in tokens) + len(tokens) - 1
    tokens = tokens[:MAX_LEN]
    return LabeledExample(
        sequence=TokenSequence(vocab.encode(tokens)),
        task_labels=(),
        language=spec.language,
    )


def generate_corpus(
    specs,
    n_per_language: int,
    task: str,
    seed: int = 0,
    *,
    vocab: Vocabulary,
) -> list[LabeledExample]:
    """Generate ``n_per_language`` examples for each language spec.

    Deterministic given (specs, n_per_language, task, seed).  Task labels
    are functions of concept ids only, so they are language-neutral;
    languages stay recoverable from their specific surface forms.
    """
    if len(specs) < 2 and task != "lid":
        raise ValueError("need at least two language specs")
    if len(specs) < 1:
        raise ValueError("need at least one language spec")
    if n_per_language < 1:
        raise ValueError("n_per_language must be >= 1")
    langs = [s.language for s in specs]
    if len(set(langs)) != len(langs):
        raise ValueError(f"duplicate language ids in specs: {langs}")
    for spec in specs:
        if not spec.lexicon:
            raise ValueError(f"empty lexicon for language {spec.language}")

    n_concepts = specs[0].n_concepts
    pools = _ConceptPools(n_concepts)
    amap = build_antonym_map(n_concepts)
    rng = np.random.default_rng(seed)

    examples = []
    for spec in specs:
        for _ in range(n_per_language):
            if task == "token_tag":
                examples.append(_token_tag_example(pools, spec, vocab, rng))
            elif task == "pair_inference":
                examples.append(_pair_example(pools, spec, vocab, rng, amap))
            elif task == "lid":
                examples.append(_lid_example(pools, spec, vocab, rng))
            else:
                raise ValueError(f"unknown task {task!r}")
    return examples
