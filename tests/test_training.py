import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadsum import checkpoint, training
from threadsum.autodiff import ComputationTape, NumericsError, Parameter
from threadsum.checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from threadsum.conversation import ConversationTree, Utterance, relation_index
from threadsum.corpus import TrainingInstance, read_instances
from threadsum.fileio import atomic_write
from threadsum.model import Model, encode_instance, toy_config
from threadsum.objectives import instance_loss
from threadsum.training import (
    METRICS_FIELDS,
    OptimizerState,
    TrainRunConfig,
    apply_adamw,
    clip_gradients,
    derive_rng,
    epoch_order,
    global_grad_norm,
    lr_at,
    run_training,
    train_step,
    truncate_instance,
)

from helpers import fit_reference, train_bpe
from test_autodiff import held_arrays

PEAK = 5e-5


class TestLrSchedule:
    def test_starts_at_peak(self):
        assert lr_at(0, PEAK, 500000) == PEAK

    def test_reaches_zero_at_total(self):
        assert lr_at(500000, PEAK, 500000) == 0.0

    def test_halfway(self):
        assert abs(lr_at(250000, PEAK, 500000) - PEAK / 2) < 1e-20

    def test_past_total_stays_zero(self):
        assert lr_at(501, PEAK, 500) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lr_at(-1, PEAK, 10)
        with pytest.raises(ValueError):
            lr_at(0, PEAK, 0)


def chain_instance(n, text="check the logs", summary="restart the server"):
    utts = [Utterance(0, "a", "[MASK]", 0, None)]
    utts += [Utterance(i, "a", text, i, i - 1) for i in range(1, n)]
    return TrainingInstance(ConversationTree(utts), summary)


# multibyte characters and whitespace runs, so that cuts fall inside both
FRAGMENTS = ["a", "b", "ab", " ", "   ", "\n\n", "\t ", "é", "漢", "😀", "'s", "!"]


class TestTruncation:
    def test_utterance_count_cap(self, tiny_tokenizer):
        cfg = toy_config()
        out = truncate_instance(chain_instance(30), cfg, tiny_tokenizer)
        assert len(out.tree) == cfg.max_utterances
        assert [u.id for u in out.tree.utterances] == list(range(cfg.max_utterances))

    def test_small_instance_untouched(self, tiny_tokenizer):
        inst = chain_instance(4)
        assert truncate_instance(inst, toy_config(), tiny_tokenizer) is inst

    def test_truncated_tree_valid(self, tiny_tokenizer):
        # random replies, parents always precede children, so any prefix
        # must reconstruct without TreeError
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(20, 40))
            utts = [Utterance(0, "a", "[MASK]", 0, None)]
            for i in range(1, n):
                utts.append(Utterance(i, "a", "x", i, int(rng.integers(0, i))))
            inst = TrainingInstance(ConversationTree(utts), "s")
            out = truncate_instance(inst, toy_config(), tiny_tokenizer)
            assert len(out.tree) == 16
            out.tree.ancestor_matrix()  # exercises the validated structure

    def test_token_caps_with_tokenizer(self, tiny_tokenizer):
        cfg = toy_config(vocab_size=tiny_tokenizer.vocab_size)
        long_text = "the server crashed and then " * 12
        inst = TrainingInstance(
            ConversationTree([
                Utterance(0, "a", "[MASK]", 0, None),
                Utterance(1, "b", long_text, 1, 0),
            ]),
            long_text,
        )
        out = truncate_instance(inst, cfg, tiny_tokenizer)
        assert len(tiny_tokenizer.encode(out.tree.utterances[1].text)) <= cfg.max_utterance_tokens - 1
        assert len(tiny_tokenizer.encode(out.pseudo_summary)) <= cfg.max_summary_tokens - 2
        # the kept prefix of text survives
        assert out.tree.utterances[1].text.startswith("the server crashed")

    def test_short_texts_not_rewritten(self, tiny_tokenizer):
        cfg = toy_config(vocab_size=tiny_tokenizer.vocab_size)
        inst = chain_instance(3)
        assert truncate_instance(inst, cfg, tiny_tokenizer) is inst

    def test_cut_inside_a_character_backs_off(self):
        # no merges, so "é" is two byte tokens and a 2-token cap falls inside it
        tok = train_bpe(["xé"], vocab_size=9)
        cfg = toy_config(vocab_size=9, max_utterance_tokens=3, max_summary_tokens=4)
        inst = TrainingInstance(ConversationTree([Utterance(0, "a", "xé", 0, None)]), "xé")
        out = truncate_instance(inst, cfg, tok)
        assert out.tree.utterances[0].text == "x"
        assert out.pseudo_summary == "x"

    def test_capped_encodes_match_the_full_encode(self, tiny_tokenizer, fixture_dir):
        # the reference cuts each text from its uncapped ids
        tok = tiny_tokenizer

        def cut(text, cap):
            return fit_reference(tok, text, cap)[0]

        (inst,) = read_instances(f"{fixture_dir}/corpus/expected-00000.jsonl")
        cuts = 0
        for utt_cap, summary_cap in zip(range(2, 20), range(2, 56, 3)):
            cfg = toy_config(vocab_size=tok.vocab_size, max_utterance_tokens=utt_cap,
                             max_summary_tokens=summary_cap)
            out = truncate_instance(inst, cfg, tok)
            want = [cut(u.text, utt_cap - 1) for u in inst.tree.utterances[:cfg.max_utterances]]
            assert [u.text for u in out.tree.utterances] == want
            assert out.pseudo_summary == cut(inst.pseudo_summary, summary_cap - 2)
            cuts += out is not inst
        # every cap cuts the fixture's longest utterance (19 ids); the summary
        # (51 ids) is cut by all but the last
        assert cuts == 18

    @settings(max_examples=60, deadline=None)
    @given(texts=st.lists(st.text(max_size=12), min_size=2, max_size=5), merges=st.integers(0, 8),
           utt_cap=st.integers(2, 6), summary_cap=st.integers(3, 8))
    def test_truncated_texts_are_prefixes(self, texts, merges, utt_cap, summary_cap):
        # every byte of the texts is in the vocabulary (six specials, then
        # the bytes), so only the cut can put a replacement character into
        # the text; few merges leave most characters as several tokens
        alphabet = {b for t in texts for b in t.encode("utf-8")}
        tok = train_bpe(texts, vocab_size=6 + len(alphabet) + merges)
        cfg = toy_config(vocab_size=tok.vocab_size, max_utterance_tokens=utt_cap,
                         max_summary_tokens=summary_cap)
        utts = [Utterance(i, "a", t, i, i - 1 if i else None) for i, t in enumerate(texts[1:])]
        out = truncate_instance(TrainingInstance(ConversationTree(utts), texts[0]), cfg, tok)
        for before, after in zip(utts, out.tree.utterances):
            assert before.text.startswith(after.text)
        assert texts[0].startswith(out.pseudo_summary)

    @settings(max_examples=150, deadline=None)
    @given(texts=st.lists(st.lists(st.sampled_from(FRAGMENTS), max_size=10).map("".join),
                          min_size=2, max_size=7),
           merges=st.integers(0, 24), data=st.data())
    def test_encode_instance_is_truncation_then_a_capped_encode(self, texts, merges, data):
        # what encode_instance(truncate_instance(x)) did: cut every text,
        # then encode each cut text again to its cap
        alphabet = {b for t in texts for b in t.encode("utf-8")}
        tok = train_bpe(texts, vocab_size=6 + len(alphabet) + merges)
        cfg = toy_config(vocab_size=tok.vocab_size,
                         max_utterances=data.draw(st.integers(1, 7), label="max_utterances"),
                         max_utterance_tokens=data.draw(st.integers(2, 9), label="utterance cap"),
                         max_summary_tokens=data.draw(st.integers(2, 12), label="summary cap"))
        parents = [None] + [data.draw(st.integers(0, i - 1)) for i in range(1, len(texts) - 1)]
        utts = [Utterance(i, "a", t, i, p) for i, (t, p) in enumerate(zip(texts[1:], parents))]
        inst = TrainingInstance(ConversationTree(utts), texts[0])

        cut = truncate_instance(inst, cfg, tok)
        bos, eos = tok.bos_id, tok.eos_id
        full = [bos] + tok.encode(cut.pseudo_summary, cfg.max_summary_tokens - 2) + [eos]
        got = encode_instance(cfg, tok, inst)
        assert got.token_ids == [[bos] + tok.encode(u.text, cfg.max_utterance_tokens - 1)
                                 for u in cut.tree]
        np.testing.assert_array_equal(got.relation_buckets, relation_index(cut.tree, cfg.clip_k))
        np.testing.assert_array_equal(got.ancestors, cut.tree.ancestor_matrix())
        assert got.summary_input.tolist() == full[:-1]
        assert got.summary_target.tolist() == full[1:]


def scalar_param(value, grad=None, decay=True):
    p = Parameter("w", np.array([value]), decay=decay)
    if grad is not None:
        p.grad = np.array([grad])
    return p


class TestAdamW:
    def test_zero_grad_zero_decay_is_identity(self):
        params = {"w": scalar_param(1.5), "b": scalar_param(-2.0, decay=False)}
        state = OptimizerState.init(params, peak_lr=0.1, total_steps=10, weight_decay=0.0)
        before = {k: p.data.copy() for k, p in params.items()}
        apply_adamw(state, params)
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, before[k])
        assert state.step == 1

    def test_first_step_is_signed_lr(self):
        # bias correction makes the first update lr * g/(|g| + eps)
        for g in (0.25, -3.0, 1e-4):
            p = scalar_param(0.7, grad=g)
            state = OptimizerState.init({"w": p}, peak_lr=0.01, total_steps=100,
                                        weight_decay=0.0)
            apply_adamw(state, {"w": p})
            assert abs((0.7 - p.data[0]) - 0.01 * np.sign(g)) < 1e-6

    def test_first_apply_uses_peak_lr(self):
        p = scalar_param(1.0, grad=1.0)
        state = OptimizerState.init({"w": p}, peak_lr=0.02, total_steps=4)
        assert apply_adamw(state, {"w": p}) == 0.02
        assert abs(apply_adamw(state, {"w": p}) - 0.015) < 1e-18

    def test_decay_skips_flagged_parameters(self):
        w = scalar_param(2.0, grad=0.0, decay=True)
        ln = scalar_param(2.0, grad=0.0, decay=False)
        params = {"w": w, "ln": ln}
        state = OptimizerState.init(params, peak_lr=0.5, total_steps=10,
                                    weight_decay=0.1)
        apply_adamw(state, params)
        assert abs(w.data[0] - (2.0 - 0.5 * 0.1 * 2.0)) < 1e-15
        assert ln.data[0] == 2.0

    def test_moment_shape_mismatch_rejected(self):
        p = scalar_param(1.0, grad=1.0)
        state = OptimizerState.init({"w": p})
        state.m["w"] = np.zeros(3)
        with pytest.raises(ValueError):
            apply_adamw(state, {"w": p})

    def test_missing_grad_treated_as_zero(self):
        p = scalar_param(1.0)  # grad None
        state = OptimizerState.init({"w": p}, peak_lr=0.1, total_steps=10,
                                    weight_decay=0.0)
        apply_adamw(state, {"w": p})
        assert p.data[0] == 1.0

    def test_matches_textbook_and_rebinds(self):
        rng = np.random.default_rng(21)
        params = {"w": Parameter("w", rng.normal(size=(4, 5))),
                  "b": Parameter("b", rng.normal(size=5), decay=False)}
        state = OptimizerState.init(params, peak_lr=0.01, total_steps=10, weight_decay=0.1)
        b1, b2, eps, wd = 0.9, 0.999, 1e-8, state.weight_decay
        m = {k: np.zeros_like(p.data) for k, p in params.items()}
        v = {k: np.zeros_like(p.data) for k, p in params.items()}
        for t in range(1, 4):
            old = {k: p.data for k, p in params.items()}
            before = {k: p.data.copy() for k, p in params.items()}
            grads = {k: rng.normal(size=p.data.shape) for k, p in params.items()}
            for k, p in params.items():
                p.grad = grads[k].copy()
            lr = apply_adamw(state, params)
            for k, p in params.items():
                g = grads[k]
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g ** 2
                m_hat, v_hat = m[k] / (1 - b1 ** t), v[k] / (1 - b2 ** t)
                update = m_hat / (np.sqrt(v_hat) + eps) + (wd * before[k] if p.decay else 0.0)
                np.testing.assert_allclose(p.data, before[k] - lr * update, rtol=1e-12, atol=0)
                np.testing.assert_allclose(state.m[k], m[k], rtol=1e-12, atol=0)
                np.testing.assert_allclose(state.v[k], v[k], rtol=1e-12, atol=0)
                # bound to a new array; the old one is never written
                assert not np.shares_memory(p.data, old[k])
                np.testing.assert_array_equal(old[k], before[k])
                np.testing.assert_array_equal(p.grad, g)


class TestClipping:
    def test_global_norm_value(self):
        a = scalar_param(0.0, grad=3.0)
        b = Parameter("b", np.zeros(2))
        b.grad = np.array([0.0, 4.0])
        assert abs(global_grad_norm({"a": a, "b": b}) - 5.0) < 1e-12

    def test_clips_to_max_norm(self):
        a = scalar_param(0.0, grad=3.0)
        b = Parameter("b", np.zeros(1))
        b.grad = np.array([4.0])
        params = {"a": a, "b": b}
        pre = clip_gradients(params, 1.0)
        assert abs(pre - 5.0) < 1e-12
        assert abs(global_grad_norm(params) - 1.0) < 1e-12

    def test_below_threshold_untouched(self):
        a = scalar_param(0.0, grad=0.3)
        clip_gradients({"a": a}, 1.0)
        assert a.grad[0] == 0.3

    def test_nonfinite_norm_raises_before_scaling(self):
        a = scalar_param(0.0, grad=np.inf)
        b = scalar_param(0.0, grad=2.0)
        with pytest.raises(NumericsError):
            clip_gradients({"a": a, "b": b}, 1.0)
        assert b.grad[0] == 2.0

    def test_none_disables(self):
        a = scalar_param(0.0, grad=30.0)
        assert clip_gradients({"a": a}, None) == 30.0
        assert a.grad[0] == 30.0


class TestDeterministicStreams:
    def test_rng_depends_only_on_path(self):
        a = derive_rng(7, "dropout", 3, 0).random(4)
        b = derive_rng(7, "dropout", 3, 0).random(4)
        c = derive_rng(7, "dropout", 4, 0).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_epoch_is_a_permutation(self):
        idx = epoch_order(5, 0, 8).tolist()
        assert sorted(idx) == list(range(8))
        nxt = epoch_order(5, 1, 8).tolist()
        assert sorted(nxt) == list(range(8))
        assert idx != nxt  # reshuffled between epochs


@pytest.fixture(scope="module")
def tiny_inputs(tiny_tokenizer):
    cfg = toy_config(vocab_size=tiny_tokenizer.vocab_size)
    texts = [
        ("the server crashed", "restart the server"),
        ("check the logs first", "read the logs"),
        ("restart fixed it", "restart worked"),
        ("the bug is back", "fix the bug"),
    ]
    inputs = []
    for reply, summary in texts:
        tree = ConversationTree([
            Utterance(0, "a", "[MASK]", 0, None),
            Utterance(1, "b", reply, 1, 0),
            Utterance(2, "c", "see the report", 2, 1),
        ])
        inputs.append(encode_instance(cfg, tiny_tokenizer, TrainingInstance(tree, summary)))
    return cfg, inputs


class TestTrainStep:
    def test_metrics_record_fields_finite(self, tiny_inputs):
        cfg, inputs = tiny_inputs
        model = Model.init(cfg, seed=0)
        state = OptimizerState.init(model.params, peak_lr=1e-3, total_steps=10)
        rec = train_step(model, state, inputs[:2], seed=11)
        assert tuple(rec) == METRICS_FIELDS
        assert all(np.isfinite(v) for v in rec.values())
        assert rec["step"] == 1

    def test_accumulation_matches_weighted_single(self, tiny_inputs):
        # summed-gradient accumulation: two copies of one conversation in a
        # step equal a single copy with the loss doubled (lambda 0 keeps the
        # two paths on identical randomness)
        cfg, inputs = tiny_inputs
        cfg0 = toy_config(vocab_size=cfg.vocab_size, lambda_thread_pred=0.0)
        m1 = Model.init(cfg0, seed=1)
        m2 = Model(cfg0, {k: Parameter(k, p.data.copy(), decay=p.decay)
                          for k, p in m1.params.items()})
        s1 = OptimizerState.init(m1.params, peak_lr=1e-3, total_steps=10)
        s2 = OptimizerState.init(m2.params, peak_lr=1e-3, total_steps=10)
        r1 = train_step(m1, s1, [inputs[0], inputs[0]], seed=2)
        r2 = train_step(m2, s2, [inputs[0]], seed=2, loss_weight=2.0)
        for name in m1.params:
            # not bit-exact: parameters with several backward contributions
            # (tied embedding) accumulate partial sums in a different order
            np.testing.assert_allclose(m1.params[name].data, m2.params[name].data,
                                       rtol=1e-12, atol=1e-15)
        assert abs(r1["loss_clm"] - r2["loss_clm"]) < 1e-12

    def test_same_seed_same_trajectory(self, tiny_inputs):
        cfg, inputs = tiny_inputs
        run = TrainRunConfig(total_steps=5, accumulation=2, peak_lr=1e-3, seed=4)
        results = []
        for _ in range(2):
            model = Model.init(cfg, seed=3)
            state = OptimizerState.init(model.params, peak_lr=run.peak_lr,
                                        total_steps=run.total_steps)
            run_training(model, inputs, state, run)
            results.append({k: p.data.copy() for k, p in model.params.items()})
        for name in results[0]:
            np.testing.assert_array_equal(results[0][name], results[1][name])

    def test_loss_decreases_on_overfit_fixture(self, tiny_inputs):
        cfg, inputs = tiny_inputs
        model = Model.init(cfg, seed=5)
        state = OptimizerState.init(model.params, peak_lr=3e-3, total_steps=60)
        run = TrainRunConfig(total_steps=50, accumulation=1, peak_lr=3e-3, seed=6,
                             clip_norm=None)
        records = run_training(model, inputs[:2], state, run)
        total = [r["loss_clm"] + r["loss_tp"] for r in records]
        assert np.mean(total[-10:]) < np.mean(total[:10])

    def test_nonfinite_gradient_rejected_before_apply(self, tiny_inputs, monkeypatch):
        cfg, inputs = tiny_inputs
        model = Model.init(cfg, seed=9)
        state = OptimizerState.init(model.params, peak_lr=1e-3, total_steps=10)
        train_step(model, state, inputs[:1], seed=1)  # non-zero moments
        params = {k: p.data.copy() for k, p in model.params.items()}
        m = {k: a.copy() for k, a in state.m.items()}
        v = {k: a.copy() for k, a in state.v.items()}

        real_backward = training.backward

        def inf_backward(loss):
            real_backward(loss)
            model.params["dec.0.ff.w1"].grad[0, 0] = np.inf

        monkeypatch.setattr(training, "backward", inf_backward)
        with pytest.raises(NumericsError, match="gradient norm"):
            train_step(model, state, inputs[:1], seed=1)
        assert state.step == 1
        for name, data in params.items():
            np.testing.assert_array_equal(model.params[name].data, data)
            np.testing.assert_array_equal(state.m[name], m[name])
            np.testing.assert_array_equal(state.v[name], v[name])

    def test_empty_micro_batch_rejected(self, tiny_inputs):
        cfg, inputs = tiny_inputs
        model = Model.init(cfg, seed=0)
        state = OptimizerState.init(model.params)
        with pytest.raises(ValueError):
            train_step(model, state, [], seed=0)

    def test_metrics_jsonl_written(self, tiny_inputs, tmp_path):
        cfg, inputs = tiny_inputs
        model = Model.init(cfg, seed=7)
        state = OptimizerState.init(model.params, peak_lr=1e-3, total_steps=3)
        run = TrainRunConfig(total_steps=3, accumulation=1, peak_lr=1e-3, seed=8)
        path = tmp_path / "metrics.jsonl"
        run_training(model, inputs, state, run, metrics_path=path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines, start=1):
            rec = json.loads(line)
            assert list(rec) == list(METRICS_FIELDS)
            assert rec["step"] == i

    def test_run_config_validation(self):
        with pytest.raises(ValueError):
            TrainRunConfig(total_steps=5, accumulation=0)
        with pytest.raises(ValueError):
            TrainRunConfig(total_steps=0)


@pytest.mark.parametrize("shape", ["toy", "bench"])
class TestGradientBuffers:
    """Gradients of two accumulated micro-batches on the toy model and on a
    model of the benchmark's shape (d 128, 4 heads, d_ff 512, dropout 0.1)."""

    def _grads(self, shape, inputs, vocab_size):
        cfg = toy_config(vocab_size=vocab_size)
        if shape == "bench":
            cfg = toy_config(vocab_size=vocab_size, num_heads=4, d_hidden=128, d_ff=512,
                             clip_k=9, dropout=0.1)
        model = Model.init(cfg, seed=13)
        model.zero_grad()
        for k, mi in enumerate(inputs[:2]):
            loss, _ = instance_loss(model, mi, rng=derive_rng(5, "dropout", 0, k),
                                    pair_rng=derive_rng(5, "pairs", 0, k))
            training.backward(loss)
        return model.params

    def test_each_parameter_owns_a_contiguous_buffer(self, shape, tiny_inputs):
        cfg, inputs = tiny_inputs
        params = list(self._grads(shape, inputs, cfg.vocab_size).values())
        for p in params:
            assert p.grad is not None and p.grad.flags.c_contiguous, p.name
            assert p.grad.shape == p.data.shape, p.name
        for i, p in enumerate(params):
            for q in params[i + 1:]:
                assert not np.shares_memory(p.grad, q.grad), (p.name, q.name)

    def test_matches_zero_fill_accumulation(self, shape, tiny_inputs, zero_fill_reference):
        cfg, inputs = tiny_inputs
        got = {k: p.grad for k, p in self._grads(shape, inputs, cfg.vocab_size).items()}
        with zero_fill_reference():
            ref = {k: p.grad for k, p in self._grads(shape, inputs, cfg.vocab_size).items()}
        scale = {}  # largest reference gradient per stack: embed, tok, utt, dec, thread, tp
        for name, g in ref.items():
            stack = name.split(".")[0]
            scale[stack] = max(scale.get(stack, 0.0), float(np.abs(g).max()))
        for name, g in ref.items():
            assert np.abs(got[name] - g).max() <= 1e-12 * scale[name.split(".")[0]], name


class TestGraphLifetime:
    """A micro-batch's graph is released when its backward ends: no array
    its rules read is alive in the next micro-batch's forward, nor in
    clipping, the apply, ``on_step`` or the checkpoint.  While ``train_step``
    still holds the last loss, its nodes may stay, with neither rule nor
    gradient; after the step none does.  The garbage collector is off, so
    what frees a graph is its last reference going away, not a
    collection."""

    def test_no_graph_outlives_its_backward(self, tiny_inputs, tmp_path, monkeypatch):
        cfg, inputs = tiny_inputs
        cfg = toy_config(vocab_size=cfg.vocab_size, num_heads=4, d_hidden=128, d_ff=512,
                         clip_k=9, dropout=0.1)
        model = Model.init(cfg, seed=13)
        run = TrainRunConfig(total_steps=2, accumulation=3, peak_lr=1e-3, seed=3,
                             checkpoint_every=1)
        state = OptimizerState.init(model.params, peak_lr=run.peak_lr,
                                    total_steps=run.total_steps)
        held = []  # weakrefs to the arrays of every graph backward has run over
        nodes_held = []  # and to its nodes
        checked = []

        def assert_graphs_freed(where):
            live = sum(ref() is not None for ref in held)
            assert live == 0, f"{live} of {len(held)} graph arrays alive in {where}"
            nodes = [ref() for ref in nodes_held if ref() is not None]
            if where in ("instance_loss", "apply_adamw"):
                assert not [n for n in nodes if n.rule is not None or n.grad is not None], where
            else:
                assert not nodes, f"{len(nodes)} of {len(nodes_held)} graph nodes alive in {where}"
            del nodes
            checked.append(where)

        def wrap(owner, name):
            real = getattr(owner, name)

            def checked_call(*args, **kwargs):
                assert_graphs_freed(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, checked_call)

        real_backward = training.backward

        def recording_backward(loss):
            # every node but the parameters, and every array a rule reads
            # but the parameters' values and the inputs' own arrays
            nodes = [n for n in ComputationTape(loss).nodes if n.parents]
            outside = ({id(p.data) for p in model.params.values()}
                       | {id(a) for mi in inputs for a in vars(mi).values()})
            nodes_held.extend(weakref.ref(n) for n in nodes)
            held.extend(weakref.ref(a) for a in held_arrays(*nodes) if id(a) not in outside)
            del nodes
            real_backward(loss)

        monkeypatch.setattr(training, "backward", recording_backward)
        wrap(training, "instance_loss")
        wrap(training, "apply_adamw")
        wrap(checkpoint, "save_checkpoint")
        enabled = gc.isenabled()
        gc.disable()
        try:
            run_training(model, inputs, state, run, checkpoint_dir=tmp_path,
                         on_step=lambda record: assert_graphs_freed("on_step"))
        finally:
            if enabled:
                gc.enable()
        assert len(held) + len(nodes_held) > 6 * 100  # six graphs of a few hundred nodes each
        # the first forward of a run is the one call with no graph before it
        assert checked.count("instance_loss") == 6
        assert checked.count("apply_adamw") == checked.count("on_step") == 2
        assert checked.count("save_checkpoint") == 2


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tiny_inputs, tmp_path):
        cfg, inputs = tiny_inputs
        model = Model.init(cfg, seed=9)
        npz, manifest = save_checkpoint(tmp_path / "ck", cfg, model.params)
        loaded = load_checkpoint(tmp_path / "ck")
        assert isinstance(loaded, Checkpoint)
        assert loaded.config == cfg
        assert loaded.optimizer is None
        assert set(loaded.params) == set(model.params)
        for name, p in model.params.items():
            np.testing.assert_array_equal(loaded.params[name].data, p.data)
            assert loaded.params[name].decay == p.decay

    def test_forward_outputs_identical(self, tiny_inputs, tmp_path):
        cfg, inputs = tiny_inputs
        model = Model.init(cfg, seed=10)
        save_checkpoint(tmp_path / "ck", cfg, model.params)
        restored = Model(cfg, load_checkpoint(tmp_path / "ck").params)
        a = model.forward(inputs[0]).logits.data
        b = restored.forward(inputs[0]).logits.data
        np.testing.assert_array_equal(a, b)

    def test_optimizer_state_round_trip(self, tiny_inputs, tmp_path):
        cfg, inputs = tiny_inputs
        model = Model.init(cfg, seed=11)
        state = OptimizerState.init(model.params, peak_lr=1e-3, total_steps=20)
        run = TrainRunConfig(total_steps=4, accumulation=1, peak_lr=1e-3, seed=12)
        run_training(model, inputs, state, run)
        save_checkpoint(tmp_path / "ck", cfg, model.params, state)
        opt = load_checkpoint(tmp_path / "ck").optimizer
        assert opt.step == 4
        assert opt.peak_lr == state.peak_lr and opt.total_steps == state.total_steps
        for name in model.params:
            np.testing.assert_array_equal(opt.m[name], state.m[name])
            np.testing.assert_array_equal(opt.v[name], state.v[name])

    def test_manifest_with_adam_constants_loads(self, tiny_inputs, tmp_path):
        # older manifests also recorded Adam's betas and eps; they still load
        cfg, inputs = tiny_inputs
        model = Model.init(cfg, seed=11)
        state = OptimizerState.init(model.params, peak_lr=1e-3, total_steps=20)
        save_checkpoint(tmp_path / "ck", cfg, model.params, state)
        manifest = json.loads((tmp_path / "ck.json").read_text())
        assert set(manifest["optimizer"]) == {"peak_lr", "total_steps", "weight_decay"}
        manifest["optimizer"].update(beta1=0.9, beta2=0.999, eps=1e-8)
        (tmp_path / "ck.json").write_text(json.dumps(manifest))
        opt = load_checkpoint(tmp_path / "ck").optimizer
        assert (opt.peak_lr, opt.total_steps, opt.weight_decay) == (1e-3, 20, state.weight_decay)

    def test_dead_key_biases_of_older_checkpoints_are_dropped(self, tiny_inputs, tmp_path):
        # older versions also kept a key bias in the token encoder and in the
        # decoder's self- and cross-attention; such a checkpoint loads to the
        # spec's parameters and moments and resumes as one without them
        cfg, inputs = tiny_inputs
        model = Model.init(cfg, seed=11)
        state = OptimizerState.init(model.params, peak_lr=1e-3, total_steps=2)
        first, resume = (TrainRunConfig(total_steps=n, accumulation=1, peak_lr=1e-3, seed=12)
                         for n in (1, 2))
        run_training(model, inputs, state, first)
        save_checkpoint(tmp_path / "new", cfg, model.params, state)
        params, rng = dict(model.params), np.random.default_rng(0)
        dead = [f"tok.{i}.attn.bk" for i in range(cfg.num_layers)]
        dead += [f"dec.{i}.{b}.bk" for i in range(cfg.num_layers) for b in ("self", "cross")]
        for name in dead:
            assert name not in params
            params[name] = Parameter(name, rng.normal(size=cfg.d_hidden), decay=False)
            state.m[name] = rng.normal(size=cfg.d_hidden)
            state.v[name] = rng.random(cfg.d_hidden)
        save_checkpoint(tmp_path / "old", cfg, params, state)
        with np.load(tmp_path / "old.npz") as archive:
            assert all(slot + name in archive.files
                       for slot in ("param.", "opt.m.", "opt.v.") for name in dead)
        resumed = {}
        for prefix in ("old", "new"):
            ck = load_checkpoint(tmp_path / prefix)
            assert set(ck.params) == set(model.params)
            assert set(ck.optimizer.m) == set(ck.optimizer.v) == set(model.params)
            resumed_model = Model(cfg, ck.params)
            records = run_training(resumed_model, inputs, ck.optimizer, resume)
            resumed[prefix] = (resumed_model, ck.optimizer, records)
        (old_model, old_state, old_records), (new_model, new_state, new_records) = resumed.values()
        assert len(old_records) == 1 and old_records == new_records
        for name in model.params:
            np.testing.assert_array_equal(old_model.params[name].data, new_model.params[name].data)
            np.testing.assert_array_equal(old_state.m[name], new_state.m[name])
            np.testing.assert_array_equal(old_state.v[name], new_state.v[name])

    def test_missing_parameter_detected(self, tiny_inputs, tmp_path):
        cfg, inputs = tiny_inputs
        model = Model.init(cfg, seed=13)
        partial = dict(model.params)
        partial.pop("tp.wa")
        save_checkpoint(tmp_path / "ck", cfg, partial)
        with pytest.raises(CheckpointError, match="tp.wa"):
            load_checkpoint(tmp_path / "ck")

    def test_tampered_manifest_detected(self, tiny_inputs, tmp_path):
        cfg, inputs = tiny_inputs
        model = Model.init(cfg, seed=14)
        save_checkpoint(tmp_path / "ck", cfg, model.params)
        manifest = json.loads((tmp_path / "ck.json").read_text())
        manifest["config"]["d_ff"] = 64
        (tmp_path / "ck.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="hash"):
            load_checkpoint(tmp_path / "ck")

    def test_missing_file_is_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope")

    def test_resume_matches_uninterrupted(self, tiny_inputs, tmp_path):
        cfg, inputs = tiny_inputs

        def fresh():
            model = Model.init(cfg, seed=15)
            state = OptimizerState.init(model.params, peak_lr=1e-3, total_steps=30)
            return model, state

        straight_model, straight_state = fresh()
        straight = run_training(straight_model, inputs, straight_state,
                                TrainRunConfig(total_steps=30, accumulation=2,
                                               peak_lr=1e-3, seed=16))

        model, state = fresh()
        run_training(model, inputs, state,
                     TrainRunConfig(total_steps=15, accumulation=2, peak_lr=1e-3,
                                    seed=16),
                     checkpoint_dir=tmp_path)
        ck = load_checkpoint(tmp_path / "step-000015")
        resumed_model = Model(ck.config, ck.params)
        tail = run_training(resumed_model, inputs, ck.optimizer,
                            TrainRunConfig(total_steps=30, accumulation=2,
                                           peak_lr=1e-3, seed=16))
        for name in straight_model.params:
            np.testing.assert_array_equal(straight_model.params[name].data,
                                          resumed_model.params[name].data)
        assert [json.dumps(r) for r in straight[15:]] == [json.dumps(r) for r in tail]


def _failing_write(fh):
    fh.write(b"partial")
    raise RuntimeError("disk full")


class TestAtomicWrite:
    def test_failure_keeps_old_bytes(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError, match="disk full"):
            atomic_write(target, _failing_write)
        assert target.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [target]

    def test_failure_leaves_missing_target_missing(self, tmp_path):
        with pytest.raises(RuntimeError, match="disk full"):
            atomic_write(tmp_path / "out.bin", _failing_write)
        assert list(tmp_path.iterdir()) == []
