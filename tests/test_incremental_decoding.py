"""Incremental decoding against its full-prefix oracle.

``IncrementalDecoder`` must return the log-probs ``model_decode_fn`` computes
by re-running the decoder over the whole prefix, whatever order prefixes are
visited in; ``top_k`` must equal the stable argsort it replaces.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadsum import decoding, model as model_module
from threadsum.autodiff import Tensor, no_grad
from threadsum.conversation import ConversationTree, Utterance
from threadsum.decoding import (
    IncrementalDecoder,
    beam_search,
    conversation_input,
    generate_summary,
    model_decode_fn,
    top_k,
)
from threadsum.model import Model, toy_config

CONFIGS = {
    "toy": toy_config(),
    "d128": toy_config(d_hidden=128, num_heads=4, d_ff=64, vocab_size=300,
                       max_summary_tokens=24),
}
MODELS = {name: Model.init(cfg, seed=13) for name, cfg in CONFIGS.items()}
MEMORY = {name: Tensor(np.random.default_rng(5).normal(size=(11, cfg.d_hidden)))
          for name, cfg in CONFIGS.items()}


def prefixes(cfg):
    body = st.lists(st.integers(0, cfg.vocab_size - 1), max_size=cfg.max_summary_tokens - 1)
    return st.lists(body.map(lambda ids: [1] + ids), min_size=1, max_size=12)


def _tree():
    return ConversationTree([
        Utterance(0, "a", "[MASK]", 0, None),
        Utterance(1, "b", "the server crashed again", 1, 0),
        Utterance(2, "c", "restart it and check the logs", 2, 1),
        Utterance(3, "d", "the fix looks good", 3, 0),
    ])


class TestIncrementalLogProbs:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_arbitrary_visiting_order_matches_full_prefix(self, name, data):
        model, memory = MODELS[name], MEMORY[name]
        fast, oracle = IncrementalDecoder(model, memory), model_decode_fn(model, memory)
        for prefix in data.draw(prefixes(model.config)):
            np.testing.assert_allclose(fast(prefix), oracle(prefix), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_step_by_step_with_siblings(self, name):
        model, memory = MODELS[name], MEMORY[name]
        fast, oracle = IncrementalDecoder(model, memory), model_decode_fn(model, memory)
        rng = np.random.default_rng(0)
        vocab = model.config.vocab_size
        beams = [[1]]
        for _ in range(model.config.max_summary_tokens - 2):
            beams = [b + [int(t)] for b in beams for t in rng.integers(vocab, size=2)][:4]
            for b in beams:
                np.testing.assert_allclose(fast(b), oracle(b), rtol=0, atol=1e-12)

    def test_parent_arrays_are_not_written(self):
        model, memory = MODELS["toy"], MEMORY["toy"]
        with no_grad():
            parent = model.decoder_cache(memory)
            model.decoder_forward(np.array([1, 4]), memory, cache=parent)
            before = [(k.copy(), v.copy()) for k, v in parent.self_kv]
            for token in (5, 6):
                model.decoder_forward(np.array([token]), memory, cache=parent.fork())
        assert parent.length == 2
        for (k, v), (k0, v0) in zip(parent.self_kv, before):
            np.testing.assert_array_equal(k, k0)
            np.testing.assert_array_equal(v, v0)

    def test_cache_rows_and_length_cap(self):
        model, memory = MODELS["toy"], MEMORY["toy"]
        cap = model.config.max_summary_tokens
        with no_grad():
            cache = model.decoder_cache(memory)
            chunk = model.decoder_forward(np.arange(1, 4), memory, cache=cache)
            full = model.decoder_forward(np.arange(1, 4), memory)
            assert chunk.shape == (3, model.config.vocab_size)
            np.testing.assert_allclose(chunk.data, full.data, rtol=0, atol=1e-12)
            step = model.decoder_forward(np.array([7]), memory, cache=cache)
            assert step.shape == (1, model.config.vocab_size)
            with pytest.raises(ValueError, match="exceeds"):
                model.decoder_forward(np.ones(cap - 3, dtype=np.int64), memory, cache=cache.fork())

    def test_training_with_cache_rejected(self):
        model, memory = MODELS["toy"], MEMORY["toy"]
        with pytest.raises(ValueError, match="inference"):
            model.decoder_forward(np.array([1]), memory, rng=np.random.default_rng(0),
                                  training=True, cache=model.decoder_cache(memory))

    def test_empty_memory_rejected(self):
        model = MODELS["toy"]
        with pytest.raises(ValueError, match="memory"):
            IncrementalDecoder(model, Tensor(np.zeros((0, model.config.d_hidden))))


class TestGenerateMatchesFullPrefix:
    @pytest.mark.parametrize("beam_size", [1, 2, 4])
    @pytest.mark.parametrize("block_trigrams", [True, False])
    def test_beam_search_and_text(self, tiny_tokenizer, beam_size, block_trigrams):
        model = Model.init(toy_config(vocab_size=tiny_tokenizer.vocab_size), seed=21)
        mi = conversation_input(model.config, tiny_tokenizer, _tree())
        with no_grad():
            _, _, memory = model.encode_conversation(mi)
        args = (tiny_tokenizer.bos_id, tiny_tokenizer.eos_id, 12)
        kwargs = dict(beam_size=beam_size, block_trigrams=block_trigrams)
        fast = beam_search(IncrementalDecoder(model, memory), *args, **kwargs)
        full = beam_search(model_decode_fn(model, memory), *args, **kwargs)
        assert fast.tokens == full.tokens
        assert abs(fast.log_prob - full.log_prob) < 1e-9

        structural = {tiny_tokenizer.bos_id, tiny_tokenizer.eos_id, tiny_tokenizer.pad_id}
        expected = tiny_tokenizer.decode([t for t in full.generated() if t not in structural])
        assert generate_summary(model, tiny_tokenizer, _tree(), max_len=12,
                                **kwargs) == expected.strip()


class TestResources:
    def test_cache_freed_by_reference_counting(self, tiny_tokenizer, monkeypatch):
        model = Model.init(toy_config(vocab_size=tiny_tokenizer.vocab_size), seed=3)
        refs = []

        class Recording(IncrementalDecoder):
            def __init__(self, *args):
                super().__init__(*args)
                refs.extend([weakref.ref(self), weakref.ref(self.root)])

        monkeypatch.setattr(decoding, "IncrementalDecoder", Recording)
        gc.disable()
        try:
            generate_summary(model, tiny_tokenizer, _tree(), beam_size=2, max_len=6)
            assert refs and all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_decoding_builds_one_position_table(self, monkeypatch):
        model, memory = MODELS["d128"], MEMORY["d128"]
        monkeypatch.setattr(model_module, "_PE_CACHE", {})
        beam_search(IncrementalDecoder(model, memory), 1, 2, max_len=20, beam_size=3)
        assert list(model_module._PE_CACHE) == [(24, 128)]


class TestTopK:
    @settings(max_examples=200, deadline=None)
    @given(row=st.lists(st.sampled_from([-np.inf, -2.0, -1.0, -0.5, 0.0, 1.5]), min_size=1,
                        max_size=40),
           k=st.integers(1, 45))
    def test_equals_stable_argsort(self, row, k):
        row = np.array(row)
        np.testing.assert_array_equal(top_k(row, k), np.argsort(-row, kind="stable")[:k])

    def test_random_rows(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            row = rng.normal(size=8000)
            row[rng.integers(8000, size=20)] = -np.inf
            np.testing.assert_array_equal(top_k(row, 4), np.argsort(-row, kind="stable")[:4])
