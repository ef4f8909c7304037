import copy
import gc
import weakref
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf, logsumexp, ndtri_exp, softmax
from scipy.stats import truncnorm

from threadsum import autodiff as ad
from threadsum.autodiff import ComputationTape, Tensor, backward, no_grad
from threadsum.conversation import ConversationTree, Utterance, relation_index
from threadsum.corpus import TrainingInstance
from threadsum.model import (
    _LOG_MASS,
    _LOG_PHI_A,
    INIT_BLOCK_ROWS,
    Model,
    ModelConfig,
    _length_buckets,
    count_parameters,
    encode_instance,
    init_parameters,
    paper_config,
    sinusoidal_pe,
    thread_attention_scores,
    toy_config,
    truncated_normal,
)
from threadsum.objectives import instance_loss

from helpers import mul, tensor_sum
from test_autodiff import held_arrays


def chain_tree(n):
    utts = [Utterance(0, "a0", "root", 0, None)]
    utts += [Utterance(i, f"a{i}", f"msg {i}", i, i - 1) for i in range(1, n)]
    return ConversationTree(utts)


def star_tree(n):
    utts = [Utterance(0, "a0", "root", 0, None)]
    utts += [Utterance(i, f"a{i}", f"msg {i}", i, 0) for i in range(1, n)]
    return ConversationTree(utts)


def small_instance(tok, tree=None):
    tree = tree or ConversationTree([
        Utterance(0, "a", "[MASK]", 0, None),
        Utterance(1, "b", "the server crashed", 1, 0),
        Utterance(2, "c", "restart it now", 2, 0),
        Utterance(3, "d", "check the logs", 3, 1),
        Utterance(4, "e", "the fix looks good", 4, 3),
    ])
    return TrainingInstance(tree, "restart the server")


@pytest.fixture(scope="module")
def toy_model(tiny_tokenizer):
    cfg = toy_config(vocab_size=tiny_tokenizer.vocab_size)
    return Model.init(cfg, seed=42)


@pytest.fixture(scope="module")
def toy_input(tiny_tokenizer, toy_model):
    return encode_instance(toy_model.config, tiny_tokenizer, small_instance(tiny_tokenizer))


class TestConfig:
    def test_paper_values(self):
        cfg = paper_config()
        assert (cfg.num_layers, cfg.num_heads, cfg.d_hidden, cfg.d_ff) == (6, 12, 768, 3072)
        assert cfg.vocab_size == 50265 and cfg.clip_k == 9 and cfg.dropout == 0.1
        assert (cfg.max_utterances, cfg.max_utterance_tokens, cfg.max_summary_tokens) == (124, 200, 256)
        assert cfg.d_head == 64

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ModelConfig(d_hidden=10, num_heads=3)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ModelConfig.from_dict({"d_hidden": 16, "nope": 1})

    def test_dict_round_trip(self):
        cfg = toy_config()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestSinusoidalPE:
    def test_position_zero_alternates(self):
        pe = sinusoidal_pe(4, 8)
        np.testing.assert_array_equal(pe[0], [0, 1, 0, 1, 0, 1, 0, 1])

    def test_bounded(self):
        pe = sinusoidal_pe(64, 32)
        assert np.all(np.abs(pe) <= 1.0)

    def test_row_three_closed_form(self):
        pe = sinusoidal_pe(8, 4)
        want = [np.sin(3.0), np.cos(3.0), np.sin(3e-2), np.cos(3e-2)]
        np.testing.assert_allclose(pe[3], want, atol=1e-15)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            sinusoidal_pe(0, 4)


class TestParameterCounting:
    @staticmethod
    def closed_form(n_layers, heads, d, ff, v, k):
        attn = 4 * d * d + 3 * d  # no key bias: softmax cancels it
        utt_attn = attn + d  # whose key bias reaches the scores through k·r
        ln = 2 * d
        ff_block = d * ff + ff + ff * d + d
        enc_layer = ff_block + 2 * ln
        dec_layer = 2 * attn + ff_block + 3 * ln
        return (
            v * d  # shared embedding
            + (2 * k + 2) * (d // heads)  # thread-relation table
            + n_layers * (2 * enc_layer + attn + utt_attn) + 2 * ln  # token + utterance encoders
            + n_layers * dec_layer + ln  # decoder
            + 2 * d * d  # thread-prediction bilinear maps
        )

    def test_matches_closed_form_toy(self):
        cfg = toy_config()
        want = self.closed_form(2, 2, 16, 32, 50, 3)
        assert count_parameters(cfg) == want == 16960

    def test_paper_config_near_180m(self):
        n = count_parameters(paper_config())
        assert n == self.closed_form(6, 12, 768, 3072, 50265, 9)
        assert abs(n - 180_000_000) / 180_000_000 < 0.05

    def test_dff_doubling_delta(self):
        a = count_parameters(toy_config(d_ff=32))
        b = count_parameters(toy_config(d_ff=64))
        delta_per_ff_block = 2 * 16 * 32 + 32  # two maps plus the wider bias
        assert b - a == 3 * 2 * delta_per_ff_block  # 3 stacks x N=2 layers

    def test_count_matches_initialized_sizes(self):
        cfg = toy_config(num_layers=3)
        params = init_parameters(cfg, seed=0)
        assert sum(p.size for p in params.values()) == count_parameters(cfg)

    def test_thread_table_is_2k_plus_2(self):
        params = init_parameters(toy_config(clip_k=9), seed=0)
        assert params["thread.rel"].shape[0] == 20


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_parameters(toy_config(), seed=5)
        b = init_parameters(toy_config(), seed=5)
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_layer_norm_gains_one_biases_zero(self):
        params = init_parameters(toy_config(), seed=0)
        np.testing.assert_array_equal(params["tok.0.ln1.g"].data, np.ones(16))
        np.testing.assert_array_equal(params["tok.0.ln1.b"].data, np.zeros(16))
        np.testing.assert_array_equal(params["dec.1.ff.b1"].data, np.zeros(32))

    def test_weight_statistics(self):
        cfg = toy_config(vocab_size=6250)  # 6250*16 = 1e5 embedding entries
        params = init_parameters(cfg, seed=9)
        w = params["embed.tokens"].data
        assert w.size == 100_000
        assert abs(w.mean()) < 3 * 0.02 / np.sqrt(w.size)
        assert np.abs(w).max() <= 2 * 0.02 + 1e-12  # truncation bound

    @pytest.mark.parametrize("shape", [(2 * INIT_BLOCK_ROWS + 17, 3), (INIT_BLOCK_ROWS + 1,)])
    def test_blocked_draw_equals_scipy_rvs(self, shape):
        expected = truncnorm.rvs(-2.0, 2.0, scale=0.02, size=shape,
                                 random_state=np.random.default_rng(5))
        drawn = truncated_normal(np.random.default_rng(5), shape)
        assert drawn.shape == shape
        assert drawn.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [5, 1234])
    def test_blocked_draw_equals_scipy_rvs_beyond_two_blocks(self, seed):
        shape = (2 * INIT_BLOCK_ROWS + 300, 16)
        expected = truncnorm.rvs(-2.0, 2.0, scale=0.02, size=shape,
                                 random_state=np.random.default_rng(seed))
        assert truncated_normal(np.random.default_rng(seed), shape).tobytes() == expected.tobytes()

    def test_written_out_logsumexp_at_edge_uniforms(self):
        # u = 0 makes log u = -inf; near u_tie both terms of the logsumexp
        # are equal, where scipy forms log 2 + hi and the draw log1p(1) + hi
        u0 = np.exp(_LOG_PHI_A - _LOG_MASS)
        near = u0 + np.arange(-200, 201) * np.spacing(u0)
        ties = near[np.log(near) + _LOG_MASS == _LOG_PHI_A]
        assert ties.size
        u = np.concatenate([[0.0, np.nextafter(0.0, 1.0), 0.5, np.nextafter(1.0, 0.0)], ties,
                            [np.nextafter(ties[0], 0.0), np.nextafter(ties[-1], 1.0)]])

        class Uniforms:
            def uniform(self, size):
                return u.copy().reshape(size)

        with np.errstate(divide="ignore"):
            x = np.log(u) + _LOG_MASS
            # the formula scipy's truncnorm ppf evaluates, as the oracle
            log_cdf = logsumexp([np.full_like(x, _LOG_PHI_A), x], axis=0)
            expected = ndtri_exp(log_cdf) * 0.02
            drawn = truncated_normal(Uniforms(), u.shape)
        assert drawn.tobytes() == expected.tobytes()
        assert drawn[0] == pytest.approx(-0.04)  # u = 0 is the lower cut

    def test_decay_flags(self):
        params = init_parameters(toy_config(), seed=0)
        assert params["embed.tokens"].decay
        assert params["tok.0.attn.wq"].decay
        assert not params["tok.0.attn.bq"].decay
        assert not params["tok.0.ln1.g"].decay
        assert not params["utt.1.ff.b2"].decay

    def test_wrong_param_set_rejected(self):
        cfg = toy_config()
        params = init_parameters(cfg, seed=0)
        params.pop("tp.wa")
        with pytest.raises(ValueError, match="tp.wa"):
            Model(cfg, params)


def _layer_norm(t, g, b, eps=1e-5):
    mu = t.mean(-1, keepdims=True)
    var = ((t - mu) ** 2).mean(-1, keepdims=True)
    return (t - mu) / np.sqrt(var + eps) * g + b


def _softmax_rows(e):
    e = e - e.max(-1, keepdims=True)
    w = np.exp(e)
    return w / w.sum(-1, keepdims=True)


def _feed_forward(params, p, h):
    y = _layer_norm(h, params[p + "ln2.g"].data, params[p + "ln2.b"].data)
    mid = y @ params[p + "ff.w1"].data + params[p + "ff.b1"].data
    mid = mid * 0.5 * (1 + erf(mid / np.sqrt(2)))
    return h + mid @ params[p + "ff.w2"].data + params[p + "ff.b2"].data


def reference_token_encoder(params, ids, num_layers, num_heads):
    """One utterance through the token encoder on its own, in plain numpy:
    [L, d] rows, with no batch and no padding anywhere.  Its keys carry a
    random key bias, which the model has none of: softmax cancels it."""
    d = params["embed.tokens"].data.shape[1]
    dz = d // num_heads
    h = params["embed.tokens"].data[ids] + sinusoidal_pe(len(ids), d)
    for layer in range(num_layers):
        p = f"tok.{layer}."
        y = _layer_norm(h, params[p + "ln1.g"].data, params[p + "ln1.b"].data)
        key_bias = np.random.default_rng(layer).normal(size=d)
        q, v = (y @ params[p + f"attn.w{c}"].data + params[p + f"attn.b{c}"].data for c in "qv")
        k = y @ params[p + "attn.wk"].data + key_bias
        heads = [_softmax_rows(q[:, s] @ k[:, s].T / np.sqrt(dz)) @ v[:, s]
                 for s in (slice(i * dz, (i + 1) * dz) for i in range(num_heads))]
        h = h + np.concatenate(heads, axis=-1) @ params[p + "attn.wo"].data + params[p + "attn.bo"].data
        h = _feed_forward(params, p, h)
    return _layer_norm(h, params["tok.final_ln.g"].data, params["tok.final_ln.b"].data)


def row_starts(lengths):
    return np.cumsum(lengths) - lengths


class TestTokenEncoder:
    def test_output_shape(self, toy_model, toy_input):
        states, lengths = toy_model.token_encode(toy_input.token_ids)
        np.testing.assert_array_equal(lengths, [len(ids) for ids in toy_input.token_ids])
        assert states.shape == (int(lengths.sum()), toy_model.config.d_hidden)

    def test_identical_utterances_identical_outputs(self, toy_model, tiny_tokenizer):
        ids = [tiny_tokenizer.bos_id] + tiny_tokenizer.encode("check the logs")
        states, _ = toy_model.token_encode([ids, ids])
        np.testing.assert_array_equal(states.data[: len(ids)], states.data[len(ids):])

    def test_padding_does_not_leak(self, toy_model, tiny_tokenizer):
        short, long = ([tiny_tokenizer.bos_id] + tiny_tokenizer.encode(text, 15)
                       for text in ("np", "the quick brown fox jumps over it"))
        batched, lengths = toy_model.token_encode([short, long])
        alone, _ = toy_model.token_encode([short])
        np.testing.assert_allclose(batched.data[: lengths[0]], alone.data, atol=1e-12)

    def test_matches_unpadded_per_utterance_reference(self, toy_model, toy_input):
        cfg = toy_model.config
        refs = [reference_token_encoder(toy_model.params, ids, cfg.num_layers, cfg.num_heads)
                for ids in toy_input.token_ids]
        with no_grad():
            token_bos, utt_states, memory = toy_model.encode_conversation(toy_input)
        np.testing.assert_allclose(token_bos.data, [r[0] for r in refs], atol=1e-12, rtol=0)
        want = np.concatenate([r + utt_states.data[i] for i, r in enumerate(refs)])
        np.testing.assert_allclose(memory.data, want, atol=1e-12, rtol=0)

    # lengths 1..16 in a scattered order, which the core splits into three buckets
    SPREAD = [16, 2, 9, 3, 15, 1, 8, 16, 4, 12]

    @settings(max_examples=25, deadline=None)
    @given(lengths=st.lists(st.integers(1, toy_config().max_utterance_tokens), min_size=1,
                            max_size=6),
           seed=st.integers(0, 2**32 - 1))
    @example(lengths=SPREAD, seed=0)
    def test_rows_do_not_depend_on_batch_mates(self, toy_model, lengths, seed):
        cfg = toy_model.config
        rng = np.random.default_rng(seed)
        token_ids = [[int(t) for t in rng.integers(0, cfg.vocab_size, size=n)] for n in lengths]
        with no_grad():
            batched, _ = toy_model.token_encode(token_ids)
            for start, ids in zip(row_starts(np.array(lengths)), token_ids):
                alone, _ = toy_model.token_encode([ids])
                np.testing.assert_allclose(batched.data[start:start + len(ids)], alone.data,
                                           atol=1e-12, rtol=0)

    def test_buckets_match_unpadded_per_utterance_reference(self, toy_model):
        cfg = toy_model.config
        assert len(_length_buckets(np.sort(self.SPREAD))) == 3
        rng = np.random.default_rng(3)
        token_ids = [[int(t) for t in rng.integers(0, cfg.vocab_size, size=n)] for n in self.SPREAD]
        with no_grad():
            states, _ = toy_model.token_encode(token_ids)
        for start, ids in zip(row_starts(np.array(self.SPREAD)), token_ids):
            want = reference_token_encoder(toy_model.params, ids, cfg.num_layers, cfg.num_heads)
            np.testing.assert_allclose(states.data[start:start + len(ids)], want, atol=1e-12, rtol=0)

    def test_gradients_do_not_depend_on_batch_mates(self, toy_model):
        # a weighted sum of the rows: its gradient is the sum of each
        # utterance's own, whichever buckets the utterances share
        cfg = toy_model.config
        rng = np.random.default_rng(4)
        token_ids = [[int(t) for t in rng.integers(0, cfg.vocab_size, size=n)] for n in self.SPREAD]
        weights = Tensor(rng.normal(size=(sum(self.SPREAD), cfg.d_hidden)))
        params = toy_model.parameters()

        def grads(batches):
            toy_model.zero_grad()
            for start, batch in batches:
                states, _ = toy_model.token_encode(batch)
                backward(tensor_sum(mul(states, weights[start:start + states.shape[0]])))
            return [np.zeros(p.shape) if p.grad is None else p.grad.copy() for p in params]

        together = grads([(0, token_ids)])
        alone = grads(list(zip(row_starts(np.array(self.SPREAD)), [[ids] for ids in token_ids])))
        toy_model.zero_grad()
        for p, got, want in zip(params, together, alone):
            np.testing.assert_allclose(got, want, atol=1e-12 * max(np.abs(want).max(), 1), rtol=0,
                                       err_msg=p.name)

    @settings(max_examples=50, deadline=None)
    @given(lengths=st.lists(st.integers(1, 200), min_size=1, max_size=12))
    def test_length_buckets_minimise_padded_scores(self, lengths):
        lengths = np.sort(lengths)
        n = len(lengths)

        def cost(runs):
            return sum((stop - first) * lengths[stop - 1] ** 2 for first, stop in runs)

        runs = _length_buckets(lengths)
        assert runs[0][0] == 0 and runs[-1][1] == n and 1 <= len(runs) <= 3
        assert all(first < stop for first, stop in runs)
        assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
        best = min(cost([(0, a), (a, b), (b, n)]) for a in range(n + 1) for b in range(a, n + 1))
        assert cost(runs) == best
        # a split that saves nothing is not made
        assert len(_length_buckets(np.full(n, lengths[-1]))) == 1

    def test_rejects_out_of_vocab(self, toy_model):
        with pytest.raises(IndexError):
            toy_model.token_encode([[0, toy_model.config.vocab_size]])

    def test_rejects_negative_ids(self, toy_model, toy_input):
        # indexing would read a negative id from the end of the table
        with pytest.raises(IndexError):
            toy_model.token_encode([[0, 1], [0, -1]])
        memory = toy_model.encode_conversation(toy_input)[2]
        with pytest.raises(IndexError):
            toy_model.decoder_forward(np.array([0, -2]), memory)
        with pytest.raises(IndexError):
            toy_model.decoder_forward(np.array([[0], [-1]]), memory, cache=toy_model.decoder_cache(memory))

    def test_utterance_repr_pe_component(self, toy_model, toy_input):
        states, lengths = toy_model.token_encode(toy_input.token_ids)
        token_bos = toy_model.encode_conversation(toy_input)[0]
        np.testing.assert_array_equal(token_bos.data, states.data[row_starts(lengths)])
        reprs = toy_model.utterance_representations(token_bos)
        pe = sinusoidal_pe(len(toy_input.token_ids), toy_model.config.d_hidden)
        np.testing.assert_allclose(reprs.data - token_bos.data, pe, atol=1e-12)


class TestThreadAttentionScores:
    def test_eq3_literal_oracle_small_chain(self):
        # 3-utterance chain, d_z = 2, single head: scores must equal the
        # unexpanded per-pair form within 1e-10
        rng = np.random.default_rng(123)
        n, dz, k = 3, 2, 3
        h = rng.normal(size=(n, dz))
        wq = rng.normal(size=(dz, dz))
        wk = rng.normal(size=(dz, dz))
        table = rng.normal(size=(2 * k + 2, dz))
        buckets = relation_index(chain_tree(n), k)

        got = thread_attention_scores(
            Tensor(h @ wq), Tensor(h @ wk), Tensor(table), buckets, dz).data

        want = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                r = table[buckets[i, j]]
                qi = h[i] @ wq + r
                kj = h[j] @ wk + r
                want[i, j] = (qi @ kj - r @ r) / np.sqrt(dz)
        np.testing.assert_allclose(got, want, atol=1e-10, rtol=0)

    def test_eq3_oracle_random_trees_batched_heads(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n, heads, dz, k = 6, 2, 4, 2
            utts = [Utterance(0, "x", "r", 0, None)]
            for i in range(1, n):
                utts.append(Utterance(i, "x", "m", i, int(rng.integers(0, i))))
            buckets = relation_index(ConversationTree(utts), k)
            q = rng.normal(size=(heads, n, dz))
            kk = rng.normal(size=(heads, n, dz))
            table = rng.normal(size=(2 * k + 2, dz))
            got = thread_attention_scores(Tensor(q), Tensor(kk), Tensor(table), buckets, dz).data
            for hd in range(heads):
                for i in range(n):
                    for j in range(n):
                        r = table[buckets[i, j]]
                        want = ((q[hd, i] + r) @ (kk[hd, j] + r) - r @ r) / np.sqrt(dz)
                        assert abs(got[hd, i, j] - want) < 1e-10

    def test_zero_relations_reduce_to_dot_product(self):
        rng = np.random.default_rng(5)
        n, dz = 4, 8
        q = rng.normal(size=(n, dz))
        k = rng.normal(size=(n, dz))
        table = np.zeros((8, dz))
        buckets = relation_index(chain_tree(n), 3)
        got = thread_attention_scores(Tensor(q), Tensor(k), Tensor(table), buckets, dz).data
        np.testing.assert_allclose(got, q @ k.T / np.sqrt(dz), atol=1e-12)


def reference_chain_utterance_encoder(params, x, k, num_layers, num_heads):
    """Shaw-style relative attention on a chain, written independently.

    Uses only plain numpy and the literal per-pair score loop; offsets are
    clip(i - j, k), looked up in the same-path slice of the relation table.
    """
    n, d = x.shape
    dz = d // num_heads
    table = params["thread.rel"].data

    h = x.copy()
    for layer in range(num_layers):
        p = f"utt.{layer}."
        y = _layer_norm(h, params[p + "ln1.g"].data, params[p + "ln1.b"].data)
        q = y @ params[p + "attn.wq"].data + params[p + "attn.bq"].data
        kk = y @ params[p + "attn.wk"].data + params[p + "attn.bk"].data
        vv = y @ params[p + "attn.wv"].data + params[p + "attn.bv"].data
        head_outs = []
        for hd in range(num_heads):
            sl = slice(hd * dz, (hd + 1) * dz)
            qh, kh, vh = q[:, sl], kk[:, sl], vv[:, sl]
            e = np.empty((n, n))
            for i in range(n):
                for j in range(n):
                    offset = int(np.clip(i - j, -k, k))
                    r = table[1 + k + offset]
                    e[i, j] = ((qh[i] + r) @ (kh[j] + r) - r @ r) / np.sqrt(dz)
            head_outs.append(_softmax_rows(e) @ vh)
        attn = np.concatenate(head_outs, axis=-1) @ params[p + "attn.wo"].data + params[p + "attn.bo"].data
        h = _feed_forward(params, p, h + attn)
    return _layer_norm(h, params["utt.final_ln.g"].data, params["utt.final_ln.b"].data)


class TestUtteranceEncoder:
    def test_shape_preserved(self, toy_model, toy_input):
        with no_grad():
            token_bos = toy_model.encode_conversation(toy_input)[0]
            reprs = toy_model.utterance_representations(token_bos)
            out = toy_model.utterance_encode(reprs, toy_input.relation_buckets)
        assert out.shape == reprs.shape

    def test_chain_matches_independent_relative_attention(self, toy_model):
        cfg = toy_model.config
        n = 7
        tree = chain_tree(n)
        rng = np.random.default_rng(77)
        x = rng.normal(size=(n, cfg.d_hidden))
        with no_grad():
            got = toy_model.utterance_encode(Tensor(x), relation_index(tree, cfg.clip_k)).data
        want = reference_chain_utterance_encoder(
            toy_model.params, x, cfg.clip_k, cfg.num_layers, cfg.num_heads)
        np.testing.assert_allclose(got, want, atol=1e-8, rtol=0)

    def test_structure_only_matters_not_ids(self, toy_model, tiny_tokenizer):
        base = small_instance(tiny_tokenizer)
        relabeled = ConversationTree.from_records([
            Utterance(f"x{u.id}", u.author, u.text, u.timestamp,
                      None if u.parent_id is None else f"x{u.parent_id}")
            for u in base.tree
        ])
        a = encode_instance(toy_model.config, tiny_tokenizer, base)
        b = encode_instance(toy_model.config, tiny_tokenizer,
                            TrainingInstance(relabeled, base.pseudo_summary))
        np.testing.assert_array_equal(a.relation_buckets, b.relation_buckets)
        with no_grad():
            ra = toy_model.forward(a)
            rb = toy_model.forward(b)
        np.testing.assert_array_equal(ra.logits.data, rb.logits.data)


class TestDecoder:
    def test_memory_is_token_states_plus_utterance_vector(self, toy_model, toy_input):
        with no_grad():
            states, lengths = toy_model.token_encode(toy_input.token_ids)
            reprs = toy_model.utterance_representations(states[row_starts(lengths)])
            utt = toy_model.utterance_encode(reprs, toy_input.relation_buckets)
            mem = toy_model.build_decoder_memory(states, lengths, utt)
        assert mem.shape == states.shape == (int(lengths.sum()), toy_model.config.d_hidden)
        row = 0
        for i, l in enumerate(lengths):
            for _ in range(l):
                np.testing.assert_allclose(mem.data[row], states.data[row] + utt.data[i], atol=1e-12)
                row += 1

    def test_logit_shape_and_softmax(self, toy_model, toy_input):
        with no_grad():
            res = toy_model.forward(toy_input)
            probs = softmax(res.logits.data, axis=-1)
        assert res.logits.shape == (len(toy_input.summary_input), toy_model.config.vocab_size)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)

    def test_causality_by_perturbation(self, toy_model, toy_input):
        with no_grad():
            _, _, memory = toy_model.encode_conversation(toy_input)
            base = toy_model.decoder_forward(toy_input.summary_input, memory).data
            for t in range(1, len(toy_input.summary_input)):
                changed = toy_input.summary_input.copy()
                changed[t] = (changed[t] + 17) % toy_model.config.vocab_size
                out = toy_model.decoder_forward(changed, memory).data
                assert np.abs(out[:t] - base[:t]).max() < 1e-12

    def test_summary_length_cap(self, toy_model, toy_input):
        too_long = np.zeros(toy_model.config.max_summary_tokens + 1, dtype=np.int64)
        with pytest.raises(ValueError, match="exceeds"):
            with no_grad():
                _, _, memory = toy_model.encode_conversation(toy_input)
                toy_model.decoder_forward(too_long, memory)

    def test_weight_tying_inputs_and_logits(self, toy_model, toy_input):
        embed = toy_model.params["embed.tokens"]
        with no_grad():
            base = toy_model.forward(toy_input).logits.data.copy()
        tid = int(toy_input.summary_input[1])
        embed.data[tid, 0] += 0.5
        try:
            with no_grad():
                bumped = toy_model.forward(toy_input).logits.data
        finally:
            embed.data[tid, 0] -= 0.5
        # the bumped row feeds the output column everywhere (position 0 never
        # saw the bumped input embedding) and the input path at positions > 1
        assert np.abs(bumped[0, tid] - base[0, tid]).max() > 0
        assert np.abs(bumped[2:] - base[2:]).max() > 1e-6


def reference_decoder(params, ids, memory, num_layers, num_heads):
    """The decoder over one summary prefix in plain numpy, one position and
    one head at a time: position i attends to positions 0..i, then to every
    memory row.  Returns the logits [s, V]."""
    w = {name: p.data for name, p in params.items()}
    table = w["embed.tokens"]
    d = table.shape[1]
    dz = d // num_heads

    def attend(pre, x, source, causal):
        q = x @ w[f"{pre}.wq"] + w[f"{pre}.bq"]
        k = source @ w[f"{pre}.wk"]
        v = source @ w[f"{pre}.wv"] + w[f"{pre}.bv"]
        out = np.zeros_like(q)
        for i in range(len(q)):
            seen = i + 1 if causal else len(k)
            for head in range(num_heads):
                c = slice(head * dz, (head + 1) * dz)
                out[i, c] = _softmax_rows(k[:seen, c] @ q[i, c] / np.sqrt(dz)) @ v[:seen, c]
        return out @ w[f"{pre}.wo"] + w[f"{pre}.bo"]

    def norm(x, name):
        return _layer_norm(x, w[f"{name}.g"], w[f"{name}.b"])

    x = table[ids] + sinusoidal_pe(len(ids), d)
    for layer in range(num_layers):
        pre = f"dec.{layer}"
        normed = norm(x, f"{pre}.ln1")
        x = x + attend(f"{pre}.self", normed, normed, True)
        x = x + attend(f"{pre}.cross", norm(x, f"{pre}.ln2"), memory, False)
        mid = norm(x, f"{pre}.ln3") @ w[f"{pre}.ff.w1"] + w[f"{pre}.ff.b1"]
        mid = mid * 0.5 * (1 + erf(mid / np.sqrt(2)))
        x = x + mid @ w[f"{pre}.ff.w2"] + w[f"{pre}.ff.b2"]
    return norm(x, "dec.final_ln") @ table.T


class TestDecoderReference:
    def test_full_prefix_and_cached_match_loop_reference(self, toy_model, toy_input):
        cfg = toy_model.config
        beams = np.random.default_rng(4).integers(cfg.vocab_size, size=(2, 7))
        with no_grad():
            memory = toy_model.encode_conversation(toy_input)[2]
            cache = toy_model.decoder_cache(memory)
            cache.reorder([0, 0])
            chunks = [toy_model.decoder_forward(beams[:, a:b], memory, cache=cache).data
                      for a, b in ((0, 3), (3, 4), (4, 7))]
            cached = np.concatenate(chunks, axis=1)
            for beam, ids in enumerate(beams):
                want = reference_decoder(toy_model.params, ids, memory.data, cfg.num_layers,
                                         cfg.num_heads)
                full = toy_model.decoder_forward(ids, memory).data
                np.testing.assert_allclose(full, want, rtol=0, atol=1e-12)
                np.testing.assert_allclose(cached[beam], want, rtol=0, atol=1e-12)


def _shift_keys(monkeypatch, stack, shift):
    """Add the vector ``shift`` to every key that ``stack``'s attention projects."""
    proj = Model._proj

    def shifted(self, x, prefix, which):
        out = proj(self, x, prefix, which)
        if which != "k" or not prefix.startswith(stack + "."):
            return out
        return ad.add(out, Tensor(np.tile(shift, (out.shape[0], 1))))

    monkeypatch.setattr(Model, "_proj", shifted)


class TestKeyBias:
    """A key bias adds q·b to all of a query's scores, which softmax cancels,
    except in the utterance encoder, whose scores also hold k·r."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decoder_keys_shifted_move_no_logit(self, toy_model, toy_input, monkeypatch, seed):
        with no_grad():
            before = toy_model.forward(toy_input).logits.data
            shift = np.random.default_rng(seed).normal(size=toy_model.config.d_hidden)
            _shift_keys(monkeypatch, "dec", shift)
            after = toy_model.forward(toy_input).logits.data
        assert np.abs(after - before).max() <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_utterance_keys_shifted_move_the_output(self, toy_model, monkeypatch, seed):
        cfg = toy_model.config
        x = Tensor(np.random.default_rng(77).normal(size=(7, cfg.d_hidden)))
        buckets = relation_index(chain_tree(7), cfg.clip_k)
        with no_grad():
            before = toy_model.utterance_encode(x, buckets).data
            _shift_keys(monkeypatch, "utt", np.random.default_rng(seed).normal(size=cfg.d_hidden))
            after = toy_model.utterance_encode(x, buckets).data
        assert np.abs(after - before).max() > 1e-6

    @pytest.mark.parametrize("seed", [11, 3, 5])
    def test_every_parameter_can_move(self, tiny_tokenizer, seed):
        cfg = toy_config(vocab_size=tiny_tokenizer.vocab_size, dropout=0.0, lambda_thread_pred=1.0)
        model = Model.init(cfg, seed=seed)
        mi = encode_instance(cfg, tiny_tokenizer, small_instance(tiny_tokenizer))
        loss, _ = instance_loss(model, mi, pair_rng=seed)
        backward(loss)
        largest = {p.name: 0.0 if p.grad is None else np.abs(p.grad).max()
                   for p in model.parameters()}
        floor = 1e-14 * max(largest.values())
        assert not [name for name, g in largest.items() if not g > floor]


@contextmanager
def gc_off():
    """What frees an array inside is its last reference going away."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class TestTrainingTapeMemory:
    """What a training forward holds until its backward runs."""

    def test_forward_frees_what_no_rule_reads(self, toy_model, toy_input, monkeypatch):
        # no backward rule reads these values, so forward code dropping them frees them
        model = Model(replace(toy_model.config, dropout=0.1), toy_model.params)
        made = {"dropout output": [], "o-projection": [], "residual sum": []}
        attention = []

        def watch(owner, name, record):
            real = getattr(owner, name)

            def watched(*args, **kwargs):
                out = real(*args, **kwargs)
                record(args, out)
                return out

            monkeypatch.setattr(owner, name, watched)

        def freed(kind):
            return lambda args, out: made[kind].append(weakref.ref(out.data))

        watch(ad, "dropout", freed("dropout output"))
        watch(Model, "_proj", lambda args, out: args[3] == "o" and freed("o-projection")(args, out))
        watch(Model, "_sublayer", freed("residual sum"))
        watch(ad, "attention", lambda args, out: attention.append((out.node, [t.data for t in args[:3]])))
        with gc_off():
            loss, _ = instance_loss(model, toy_input, rng=np.random.default_rng(0), pair_rng=0)
            alive = {kind: sum(ref() is not None for ref in refs) for kind, refs in made.items()}
        assert loss.requires_grad and all(made.values()) and attention
        assert alive == dict.fromkeys(made, 0)
        # attention keeps its q, k and v rows (and the relation table and
        # bucket ids) by design; of what it forms, only probabilities and bool
        # masks: scores are never kept
        table = model.params["thread.rel"].data
        for node, rows in attention:
            formed = [a for a in held_arrays(node) if a.dtype.kind != "i"
                      and not any(a is given for given in rows + [table])]
            assert formed and all(a.dtype == bool or np.allclose(a.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
                                  for a in formed)

    def test_no_grad_forward_frees_every_intermediate(self, toy_model, toy_input, monkeypatch):
        made = []
        real = ad._make

        def recording(*args):
            out = real(*args)
            made.append(weakref.ref(out))
            return out

        monkeypatch.setattr(ad, "_make", recording)
        with gc_off(), no_grad():
            res = toy_model.forward(toy_input)
            alive = [ref() for ref in made if ref() is not None]
        assert len(made) >= 99
        assert sorted(map(id, alive)) == sorted([id(res.logits), id(res.token_bos)])

    def test_no_second_logit_matrix_and_no_float_dropout_mask(self, toy_model, toy_input):
        model = Model(replace(toy_model.config, dropout=0.1), toy_model.params)
        loss, _ = instance_loss(model, toy_input, rng=np.random.default_rng(0), pair_rng=0)
        held = held_arrays(*(n for n in ComputationTape(loss).nodes if n.rule is not None))
        s, v = len(toy_input.summary_input), model.config.vocab_size
        # no [S, V] array at all: the tied loss forms the logits a block at a
        # time and keeps neither them nor their probabilities
        assert sum(a.dtype == np.float64 and a.shape == (s, v) for a in held) == 0
        # dropout keeps bool masks: no float matrix of zeros and ones or
        # 1 / (1 - p) (every dropout site is a matrix; the pair labels are not)
        assert any(a.dtype == bool and a.size > 1 for a in held)
        mask_values = {0.0, 1.0, 1.0 / (1.0 - 0.1)}
        assert not [a.shape for a in held if a.dtype.kind == "f" and a.ndim > 1 and a.any()
                    and 0.0 in a and set(np.unique(a)) <= mask_values]
        toy_model.zero_grad()

    def test_backward_releases_every_rule_of_a_held_loss(self, toy_model, toy_input):
        loss, _ = instance_loss(toy_model, toy_input, rng=np.random.default_rng(0), pair_rng=0)
        before = ComputationTape(loss).nodes
        ruled = [n for n in before if n.rule is not None]
        assert len(ruled) > 50 and held_arrays(*ruled)
        backward(loss)
        after = ComputationTape(loss).nodes
        assert [id(n) for n in after] == [id(n) for n in before]
        assert not [n for n in after if n.rule is not None]
        assert not [n for n in after if n.grad is not None and n.parents]
        toy_model.zero_grad()


class TestDropoutSwitch:
    """A given dropout generator is what makes a forward a training forward."""

    def test_rng_at_dropout_zero_is_bit_identical(self, toy_model, toy_input):
        assert toy_model.config.dropout == 0.0
        rng = np.random.default_rng(3)
        clone = copy.deepcopy(rng)
        with_rng = toy_model.forward(toy_input, rng=rng)
        without = toy_model.forward(toy_input)
        np.testing.assert_array_equal(with_rng.logits.data, without.logits.data)
        np.testing.assert_array_equal(with_rng.token_bos.data, without.token_bos.data)
        assert rng.random() == clone.random()  # nothing was drawn

    def test_rng_switches_dropout_on(self, toy_model, toy_input):
        model = Model(replace(toy_model.config, dropout=0.1), toy_model.params)
        with no_grad():
            base = toy_model.forward(toy_input).logits.data
            np.testing.assert_array_equal(model.forward(toy_input).logits.data, base)
            dropped = model.forward(toy_input, rng=np.random.default_rng(3)).logits.data
        assert np.abs(dropped - base).max() > 1e-6


class TestEncodeInstance:
    def test_fields(self, toy_model, tiny_tokenizer, toy_input):
        tok = tiny_tokenizer
        n = len(toy_input.token_ids)
        assert n == 5
        assert all(ids[0] == tok.bos_id for ids in toy_input.token_ids)
        assert toy_input.relation_buckets.shape == (n, n)
        assert toy_input.ancestors.shape == (n, n)
        assert toy_input.summary_input[0] == tok.bos_id
        assert toy_input.summary_target[-1] == tok.eos_id
        np.testing.assert_array_equal(toy_input.summary_input[1:], toy_input.summary_target[:-1])

    def test_caps_respected(self, tiny_tokenizer):
        cfg = toy_config(vocab_size=tiny_tokenizer.vocab_size,
                         max_utterance_tokens=4, max_summary_tokens=6)
        long_text = "the quick brown fox jumps over the lazy dog again and again"
        tree = ConversationTree([
            Utterance(0, "a", long_text, 0, None),
            Utterance(1, "b", long_text, 1, 0),
        ])
        mi = encode_instance(cfg, tiny_tokenizer, TrainingInstance(tree, long_text))
        assert all(len(ids) <= 4 for ids in mi.token_ids)
        assert len(mi.summary_input) <= 5  # full sequence capped at 6 incl eos
