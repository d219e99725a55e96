"""Shared small fixtures: a 3-language synthetic world and tiny encoders.

Session scope keeps the suite fast; tests must not mutate fixture state
(training code copies models before updating them).  Importing langlab
puts the session under the command's process regime (BLAS on one
thread, the heap kept for reuse) before any test runs, so no figure a
test computes depends on test order.
"""

from __future__ import annotations

import pytest

from langlab.config import PipelineConfig
from langlab.data.synthetic import generate_corpus, make_language_specs
from langlab.encoder import EncoderConfig, EncoderModel, mlm_pretrain
from langlab.pipeline import prepare_data

N_LANGS = 3
N_CONCEPTS = 30


@pytest.fixture(scope="session")
def tiny_data():
    """The corpus stage's RunData for a 3-language synthetic world (the
    one tiny_specs builds): token tagging, pivot language "aa"."""
    return prepare_data(PipelineConfig(
        n_languages=N_LANGS, n_concepts=N_CONCEPTS,
        task_examples_per_language=40, lid_examples_per_language=40))


@pytest.fixture(scope="session")
def tiny_specs():
    return make_language_specs(N_LANGS, N_CONCEPTS, 0.25, seed=0)


@pytest.fixture(scope="session")
def tiny_vocab(tiny_data):
    return tiny_data.vocab


@pytest.fixture(scope="session")
def tiny_task_corpus(tiny_specs, tiny_vocab):
    return generate_corpus(tiny_specs, 40, "token_tag", seed=0, vocab=tiny_vocab)


@pytest.fixture(scope="session")
def tiny_pair_corpus(tiny_specs, tiny_vocab):
    return generate_corpus(tiny_specs, 40, "pair_inference", seed=0,
                           vocab=tiny_vocab)


@pytest.fixture(scope="session")
def tiny_lid_corpus(tiny_specs, tiny_vocab):
    return generate_corpus(tiny_specs, 40, "lid", seed=1, vocab=tiny_vocab)


@pytest.fixture(scope="session")
def tiny_task_split(tiny_data):
    return tiny_data.task_split


@pytest.fixture(scope="session")
def tiny_lid_split(tiny_data):
    return tiny_data.lid_split


@pytest.fixture(scope="session")
def tiny_encoder(tiny_vocab):
    """Randomly initialized small encoder (no pretraining)."""
    cfg = EncoderConfig(vocab_size=len(tiny_vocab), d_model=16, n_layers=2,
                        n_heads=2, d_ff=32, max_len=128, dropout=0.1)
    return EncoderModel.init(cfg, seed=0)


@pytest.fixture(scope="session")
def small_pretrained(tiny_vocab, tiny_lid_split, tiny_encoder):
    """The tiny encoder after a short masked-token pretraining run."""
    model, losses = mlm_pretrain(tiny_encoder, tiny_lid_split.train,
                                 mask_rate=0.15, steps=300, batch_size=16,
                                 lr=1e-3, seed=0)
    return model, losses
