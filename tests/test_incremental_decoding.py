"""The batched beam step against its full-prefix oracle.

``cached_step`` decodes every live hypothesis in one ``decoder_forward``
call over a beam-major cache; each row must equal the log-probs
``model_decode_fn`` computes by re-running the decoder over the whole
prefix, whichever rows of the previous call the prefixes extend.  ``top_k``
must equal the stable argsort it replaces.
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
    batch_beam_search,
    beam_search,
    cached_step,
    conversation_input,
    generate_summary,
    model_decode_fn,
    top_k,
)
from threadsum.model import Model, toy_config

from helpers import record_max_lens

CONFIGS = {
    "toy": toy_config(),
    "d128": toy_config(d_hidden=128, num_heads=4, d_ff=64, vocab_size=300,
                       max_summary_tokens=24),
}
MODELS = {name: Model.init(cfg, seed=13) for name, cfg in CONFIGS.items()}
MEMORY = {name: Tensor(np.random.default_rng(5).normal(size=(11, cfg.d_hidden)))
          for name, cfg in CONFIGS.items()}


def assert_rows_match_oracle(rows, prefixes, oracle, vocab):
    assert rows.shape == (len(prefixes), vocab)
    for row, prefix in zip(rows, prefixes):
        np.testing.assert_allclose(row, oracle(prefix), rtol=0, atol=1e-12)


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
    def test_beam_histories_match_full_prefix(self, name, data):
        # parents repeat, some rows are dropped, and the batch grows and shrinks
        model, memory = MODELS[name], MEMORY[name]
        step, oracle = cached_step(model, memory), model_decode_fn(model, memory)
        vocab = model.config.vocab_size
        prefixes, parents = [[1]], [0]
        for _ in range(data.draw(st.integers(1, model.config.max_summary_tokens))):
            assert_rows_match_oracle(step(prefixes, parents), prefixes, oracle, vocab)
            n = data.draw(st.integers(1, 4))
            parents = data.draw(st.lists(st.integers(0, len(prefixes) - 1),
                                         min_size=n, max_size=n))
            tokens = data.draw(st.lists(st.integers(0, vocab - 1), min_size=n, max_size=n))
            prefixes = [prefixes[r] + [t] for r, t in zip(parents, tokens)]

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_step_by_step_with_siblings(self, name):
        model, memory = MODELS[name], MEMORY[name]
        step, oracle = cached_step(model, memory), model_decode_fn(model, memory)
        rng = np.random.default_rng(0)
        vocab = model.config.vocab_size
        prefixes, parents = [[1]], [0]
        for _ in range(model.config.max_summary_tokens - 1):
            assert_rows_match_oracle(step(prefixes, parents), prefixes, oracle, vocab)
            children = [(r, b + [int(t)]) for r, b in enumerate(prefixes)
                        for t in rng.integers(vocab, size=2)][:4]
            parents, prefixes = [r for r, _ in children], [b for _, b in children]

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_beams_match_one_beam_calls(self, name):
        # b beams run as b·s packed rows; each beam's logits must be those of
        # the same positions decoded alone in a one-beam cache
        model, memory = MODELS[name], MEMORY[name]
        rng = np.random.default_rng(3)
        beams = 3
        with no_grad():
            joint = model.decoder_cache(memory)
            joint.reorder([0] * beams)
            alone = [model.decoder_cache(memory) for _ in range(beams)]
            for s in (2, 1, 3):
                ids = rng.integers(model.config.vocab_size, size=(beams, s))
                got = model.decoder_forward(ids, memory, cache=joint).data
                for b in range(beams):
                    want = model.decoder_forward(ids[b:b + 1], memory, cache=alone[b]).data
                    np.testing.assert_allclose(got[b], want[0], rtol=0, atol=1e-12)

    def test_parent_arrays_are_not_written(self):
        model, memory = MODELS["toy"], MEMORY["toy"]
        with no_grad():
            cache = model.decoder_cache(memory)
            cache.reorder([0, 0])
            model.decoder_forward(np.array([[1, 4], [1, 5]]), memory, cache=cache)
            held = list(cache.self_kv) + list(cache.cross)
            before = [(k.copy(), v.copy()) for k, v in held]
            cache.reorder([1, 1, 0])
            assert not any(np.shares_memory(new, old) for pair in zip(cache.self_kv, held)
                           for new, old in zip(*pair))
            model.decoder_forward(np.array([[6], [7], [8]]), memory, cache=cache)
        assert cache.length == 3
        for (k, v), (k0, v0) in zip(held, before):
            np.testing.assert_array_equal(k, k0)
            np.testing.assert_array_equal(v, v0)

    def test_cache_rows_and_length_cap(self):
        model, memory = MODELS["toy"], MEMORY["toy"]
        cap, vocab = model.config.max_summary_tokens, model.config.vocab_size
        rows = np.array([[1, 2, 3], [1, 7, 7]])
        with no_grad():
            cache = model.decoder_cache(memory)
            cache.reorder([0, 0])
            chunk = model.decoder_forward(rows, memory, cache=cache)
            assert chunk.shape == (2, 3, vocab)
            for b in range(2):
                full = model.decoder_forward(rows[b], memory)
                np.testing.assert_allclose(chunk.data[b], full.data, rtol=0, atol=1e-12)
            step = model.decoder_forward(np.array([[7], [9]]), memory, cache=cache)
            assert step.shape == (2, 1, vocab)
            with pytest.raises(ValueError, match="exceeds"):
                model.decoder_forward(np.ones((2, cap - 3), dtype=np.int64), memory, cache=cache)
            with pytest.raises(ValueError, match="beams"):
                model.decoder_forward(np.array([7]), memory, cache=cache)

    def test_training_with_cache_rejected(self):
        model, memory = MODELS["toy"], MEMORY["toy"]
        with pytest.raises(ValueError, match="inference"):
            model.decoder_forward(np.array([[1]]), memory, rng=np.random.default_rng(0),
                                  cache=model.decoder_cache(memory))

    def test_empty_memory_rejected(self):
        model = MODELS["toy"]
        with pytest.raises(ValueError, match="memory"):
            cached_step(model, Tensor(np.zeros((0, model.config.d_hidden))))


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
        fast = batch_beam_search(cached_step(model, memory), *args, **kwargs)
        full = beam_search(model_decode_fn(model, memory), *args, **kwargs)
        assert fast.tokens == full.tokens
        assert abs(fast.log_prob - full.log_prob) < 1e-9

        structural = {tiny_tokenizer.bos_id, tiny_tokenizer.eos_id, tiny_tokenizer.pad_id}
        expected = tiny_tokenizer.decode([t for t in full.generated() if t not in structural])
        assert generate_summary(model, tiny_tokenizer, _tree(), max_len=12,
                                **kwargs) == expected.strip()


class TestResources:
    def test_one_decoder_call_per_beam_step(self, tiny_tokenizer, monkeypatch):
        model = Model.init(toy_config(vocab_size=tiny_tokenizer.vocab_size), seed=21)
        batches = []
        forward = Model.decoder_forward

        def counted(self, summary_input, *args, **kwargs):
            batches.append(summary_input.shape)
            return forward(self, summary_input, *args, **kwargs)

        monkeypatch.setattr(Model, "decoder_forward", counted)
        generate_summary(model, tiny_tokenizer, _tree(), beam_size=4, max_len=12,
                         block_trigrams=False)
        assert 1 <= len(batches) <= 12
        assert batches[0] == (1, 1)
        assert all(s == 1 and 1 <= b <= 4 for b, s in batches)

    def test_default_max_len_is_the_model_bound(self, tiny_tokenizer, monkeypatch):
        # the summary cap less the bos slot, the bound generate checks --max-len against
        model = Model.init(toy_config(vocab_size=tiny_tokenizer.vocab_size, max_summary_tokens=7),
                           seed=5)
        assert model.config.max_decode_len == 6
        seen = record_max_lens(monkeypatch)
        generate_summary(model, tiny_tokenizer, _tree(), beam_size=2)
        assert seen == [6]

    def test_cache_freed_by_reference_counting(self, tiny_tokenizer, monkeypatch):
        model = Model.init(toy_config(vocab_size=tiny_tokenizer.vocab_size), seed=3)
        refs = []
        make_cache, make_step = Model.decoder_cache, decoding.cached_step

        def recording_cache(self, memory):
            cache = make_cache(self, memory)
            refs.append(weakref.ref(cache))
            return cache

        def recording_step(*args):
            step = make_step(*args)
            refs.append(weakref.ref(step))
            return step

        monkeypatch.setattr(Model, "decoder_cache", recording_cache)
        monkeypatch.setattr(decoding, "cached_step", recording_step)
        gc.disable()
        try:
            generate_summary(model, tiny_tokenizer, _tree(), beam_size=2, max_len=6)
            assert len(refs) == 2 and all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_decoding_builds_one_position_table(self, monkeypatch):
        model, memory = MODELS["d128"], MEMORY["d128"]
        monkeypatch.setattr(model_module, "_PE_CACHE", {})
        batch_beam_search(cached_step(model, memory), 1, 2, max_len=20, beam_size=3)
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
