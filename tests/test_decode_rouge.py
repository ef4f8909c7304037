import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_softmax

from threadsum.autodiff import Tensor
from threadsum.conversation import ConversationTree, Utterance
from threadsum import decoding
from threadsum.decoding import (
    BeamHypothesis,
    banned_continuations,
    batch_beam_search,
    beam_search,
    generate_summary,
    has_repeated_trigram,
    model_decode_fn,
)
from threadsum.fileio import write_json
from threadsum.model import Model, toy_config
from threadsum.rouge import (
    METRIC_NAMES,
    RougeScore,
    evaluate_pairs,
    rouge_l,
    rouge_n,
    rouge_su4,
    rouge_tokenize,
    score_pair,
)

# ---------------------------------------------------------------------------
# brute-force oracles, kept deliberately naive


def list_clip_overlap(cand_units, ref_units):
    pool = list(ref_units)
    hits = 0
    for u in cand_units:
        if u in pool:
            pool.remove(u)
            hits += 1
    return hits


def prf(overlap, cand_total, ref_total):
    p = overlap / cand_total if cand_total else 0.0
    r = overlap / ref_total if ref_total else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def oracle_ngram(cand, ref, n):
    cu = [tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)]
    ru = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
    return prf(list_clip_overlap(cu, ru), len(cu), len(ru))


def oracle_lcs(cand, ref):
    table = [[0] * (len(ref) + 1) for _ in range(len(cand) + 1)]
    for i in range(1, len(cand) + 1):
        for j in range(1, len(ref) + 1):
            if cand[i - 1] == ref[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return prf(table[-1][-1], len(cand), len(ref))


def su4_units(tokens):
    units = [(t,) for t in tokens]
    for i in range(len(tokens)):
        for j in range(i + 1, len(tokens)):
            if j - i - 1 <= 4:
                units.append((tokens[i], tokens[j]))
    return units


def oracle_su4(cand, ref):
    cu, ru = su4_units(cand), su4_units(ref)
    return prf(list_clip_overlap(cu, ru), len(cu), len(ru))


def random_tokens(rng, max_len=12):
    return [rng.choice(list("abcdef")) for _ in range(rng.integers(0, max_len + 1))]


class TestRougeTokenize:
    def test_lowercase_and_punctuation(self):
        assert rouge_tokenize("Hello, world!") == ["hello", "world"]

    def test_numbers_split_on_dot(self):
        assert rouge_tokenize("the 2.3-update; it's out") == [
            "the", "2", "3", "update", "it", "s", "out"]

    def test_empty(self):
        assert rouge_tokenize("  ...  ") == []


class TestRougeN:
    def test_identical(self):
        s = rouge_n(["a", "b", "c"], ["a", "b", "c"], 1)
        assert s == RougeScore(1.0, 1.0, 1.0)

    def test_disjoint(self):
        s = rouge_n(["a", "b"], ["c", "d"], 1)
        assert s == RougeScore(0.0, 0.0, 0.0)

    def test_bigram_hand_case(self):
        s = rouge_n("a b d".split(), "a b c".split(), 2)
        assert (s.precision, s.recall, s.f1) == (0.5, 0.5, 0.5)

    def test_clipping_counts_duplicates_once_each(self):
        # cand has "a" twice, ref once: overlap clipped to 1
        s = rouge_n(["a", "a"], ["a", "b"], 1)
        assert s.precision == 0.5 and s.recall == 0.5

    def test_empty_candidate_guarded(self):
        s = rouge_n([], ["a"], 1)
        assert s == RougeScore(0.0, 0.0, 0.0)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            rouge_n(["a"], ["a"], 0)

    @pytest.mark.parametrize("case", range(12))
    def test_against_oracle(self, case):
        rng = np.random.default_rng(100 + case)
        for n in (1, 2, 3):
            cand, ref = random_tokens(rng), random_tokens(rng)
            got = rouge_n(cand, ref, n)
            want = oracle_ngram(cand, ref, n)
            assert abs(got.precision - want[0]) < 1e-12
            assert abs(got.recall - want[1]) < 1e-12
            assert abs(got.f1 - want[2]) < 1e-12


class TestRougeL:
    def test_identical(self):
        assert rouge_l(list("abc"), list("abc")).f1 == 1.0

    def test_swap_hand_case(self):
        s = rouge_l("a c b d".split(), "a b c d".split())
        assert (s.precision, s.recall, s.f1) == (0.75, 0.75, 0.75)

    def test_empty_candidate_guarded(self):
        assert rouge_l([], list("ab")) == RougeScore(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("case", range(12))
    def test_against_oracle(self, case):
        rng = np.random.default_rng(200 + case)
        cand, ref = random_tokens(rng), random_tokens(rng)
        got = rouge_l(cand, ref)
        want = oracle_lcs(cand, ref)
        assert abs(got.precision - want[0]) < 1e-12
        assert abs(got.recall - want[1]) < 1e-12
        assert abs(got.f1 - want[2]) < 1e-12


class TestRougeSU4:
    def test_identical(self):
        assert rouge_su4(list("abcd"), list("abcd")).f1 == 1.0

    def test_single_tokens_reduce_to_unigrams(self):
        assert rouge_su4(["a"], ["a"]).f1 == 1.0
        assert rouge_su4(["a"], ["b"]).f1 == 0.0

    def test_four_token_hand_case(self):
        # candidate/reference share 3 of 4 tokens in order; every pair is
        # within the skip window, so units = 4 unigrams + 6 skip-bigrams
        cand = "a b c e".split()
        ref = "a b c d".split()
        # shared: unigrams a,b,c + pairs (a,b),(a,c),(b,c) -> 6 of 10
        want = prf(6, 10, 10)
        got = rouge_su4(cand, ref)
        assert (got.precision, got.recall, got.f1) == want

    def test_gap_window_excludes_distant_pairs(self):
        # pair (a, z) spans 5 tokens in between: not a skip-bigram
        cand = "a b c d e f z".split()
        far = rouge_su4(cand, ["a", "z"])
        near = rouge_su4("a b z".split(), ["a", "z"])
        # near keeps the (a, z) skip-bigram, far only shares unigrams
        assert near.recall > far.recall

    @pytest.mark.parametrize("case", range(12))
    def test_against_oracle(self, case):
        rng = np.random.default_rng(300 + case)
        cand, ref = random_tokens(rng), random_tokens(rng)
        got = rouge_su4(cand, ref)
        want = oracle_su4(cand, ref)
        assert abs(got.precision - want[0]) < 1e-12
        assert abs(got.recall - want[1]) < 1e-12
        assert abs(got.f1 - want[2]) < 1e-12


class TestRougeProperties:
    def test_components_bounded_and_f1_below_max(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            cand, ref = random_tokens(rng), random_tokens(rng)
            for s in score_pair(" ".join(cand), " ".join(ref)).values():
                for v in (s.precision, s.recall, s.f1):
                    assert 0.0 <= v <= 1.0
                assert s.f1 <= max(s.precision, s.recall) + 1e-12

    def test_f1_symmetric_under_swap(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            cand, ref = random_tokens(rng), random_tokens(rng)
            for n in (1, 2):
                assert abs(rouge_n(cand, ref, n).f1 - rouge_n(ref, cand, n).f1) < 1e-12
            assert abs(rouge_su4(cand, ref).f1 - rouge_su4(ref, cand).f1) < 1e-12


class TestEvaluatePairs:
    def test_perfect_predictions(self):
        pairs = [("restart the server", "restart the server")] * 3
        report = evaluate_pairs(pairs)
        assert report["count"] == 3
        for name in METRIC_NAMES:
            assert report["mean"][name] == {"precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_matches_per_pair_oracles(self):
        rng = np.random.default_rng(31)
        pairs = [(" ".join(random_tokens(rng)) or "a", " ".join(random_tokens(rng)) or "b")
                 for _ in range(10)]
        report = evaluate_pairs(pairs)
        oracles = {"rouge_1": lambda c, r: oracle_ngram(c, r, 1),
                   "rouge_2": lambda c, r: oracle_ngram(c, r, 2),
                   "rouge_l": oracle_lcs,
                   "rouge_su4": oracle_su4}
        for name, fn in oracles.items():
            f1s = [fn(rouge_tokenize(c), rouge_tokenize(r))[2] for c, r in pairs]
            assert abs(report["mean"][name]["f1"] - np.mean(f1s)) < 1e-9

    def test_report_round_trips(self, tmp_path):
        report = evaluate_pairs([("a b", "a c"), ("d", "d")])
        write_json(tmp_path / "scores.json", report)
        loaded = json.loads((tmp_path / "scores.json").read_text())
        assert loaded == json.loads(json.dumps(report))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_pairs([])


# ---------------------------------------------------------------------------
# beam search


V = 5
BOS, EOS = 0, 1


def table_decode_fn(seed, vocab=V):
    """Log-probs depend on the last token only; deterministic by construction."""
    table = log_softmax(np.random.default_rng(seed).normal(size=(vocab, vocab)) * 2,
                        axis=1)

    def fn(prefix):
        return table[prefix[-1]]

    return fn


# log-probs keyed on the last two tokens, so the search is drawn to loops
TRIGRAM_TABLES = st.lists(st.one_of(st.floats(-6.0, 2.0), st.just(-np.inf)),
                          min_size=V ** 3, max_size=V ** 3).map(
                              lambda t: np.array(t).reshape(V, V, V))


def trigram_table_step(table, calls):
    """A batch step over ``table``; records each call's prefixes and parents."""
    def step(prefixes, parents):
        calls.append(([list(p) for p in prefixes], list(parents)))
        return np.stack([table[p[-2] if len(p) > 1 else BOS, p[-1]] for p in prefixes])

    return step


def manual_greedy(decode_fn, max_len):
    tokens, gen = [BOS], []
    for _ in range(max_len):
        row = np.array(decode_fn(tokens), dtype=float)
        trigrams = set(zip(gen, gen[1:], gen[2:]))
        for t in range(len(row)):
            if len(gen) >= 2 and (gen[-2], gen[-1], t) in trigrams:
                row[t] = -np.inf
        nxt = int(np.argmax(row))
        tokens.append(nxt)
        gen.append(nxt)
        if nxt == EOS:
            break
    return gen


def enumerate_best(decode_fn, max_len, alpha):
    best_seq, best_score = None, -np.inf

    def recurse(tokens, gen, logp):
        nonlocal best_seq, best_score
        if gen and (gen[-1] == EOS or len(gen) == max_len):
            score = logp / max(1, len(gen)) ** alpha
            if score > best_score:
                best_seq, best_score = list(gen), score
            return
        row = decode_fn(tokens)
        trigrams = set(zip(gen, gen[1:], gen[2:]))
        for t in range(V):
            if len(gen) >= 2 and (gen[-2], gen[-1], t) in trigrams:
                continue
            recurse(tokens + [t], gen + [t], logp + row[t])

    recurse([BOS], [], 0.0)
    return best_seq, best_score


class TestBlockingHelpers:
    def test_banned_set(self):
        assert banned_continuations([1, 2, 3, 1, 2]) == {3}
        assert banned_continuations([1, 2]) == set()
        assert banned_continuations([]) == set()

    def test_repeated_trigram_detector(self):
        assert has_repeated_trigram([1, 2, 3, 1, 2, 3])
        assert not has_repeated_trigram([1, 2, 3, 1, 2, 4])
        assert not has_repeated_trigram([1, 2])


class TestBeamSearch:
    def test_beam_one_equals_greedy(self):
        for seed in range(8):
            fn = table_decode_fn(seed)
            hyp = beam_search(fn, BOS, EOS, max_len=12, beam_size=1)
            assert hyp.generated() == manual_greedy(fn, 12)

    def test_matches_exhaustive_search(self):
        # pool never exceeds 4^4 alive + finished hypotheses, so a beam of
        # 800 is a complete search and must agree with brute force
        for seed in (3, 4, 5, 6):
            fn = table_decode_fn(seed)
            want_seq, want_score = enumerate_best(fn, max_len=4, alpha=1.0)
            hyp = beam_search(fn, BOS, EOS, max_len=4, beam_size=800,
                              length_penalty=1.0)
            assert hyp.generated() == want_seq
            assert abs(hyp.score(1.0) - want_score) < 1e-12

    def test_no_repeated_trigrams_under_repetition_pressure(self):
        # logits that adore one token; blocking must break the run
        row = np.full(V, -10.0)
        row[3] = 0.0
        row = log_softmax(row)
        fn = lambda prefix: row
        hyp = beam_search(fn, BOS, EOS, max_len=24, beam_size=4, min_len=24)
        assert len(hyp.generated()) >= 6
        assert not has_repeated_trigram(hyp.generated())

    @settings(max_examples=60, deadline=None)
    @given(table=TRIGRAM_TABLES, beam_size=st.integers(1, 4), max_len=st.integers(1, 30),
           min_len=st.integers(1, 30))
    def test_blocked_batch_search_never_repeats_a_trigram(self, table, beam_size, max_len,
                                                          min_len):
        calls = []
        best = batch_beam_search(trigram_table_step(table, calls), BOS, EOS, max_len,
                                 beam_size=beam_size, min_len=min_len, block_trigrams=True)
        seen = [p[1:] for prefixes, _ in calls for p in prefixes]
        assert not any(has_repeated_trigram(gen) for gen in seen + [best.generated()])

    @settings(max_examples=60, deadline=None)
    @given(table=TRIGRAM_TABLES, beam_size=st.integers(1, 4), block=st.booleans())
    def test_each_prefix_extends_its_parent_row(self, table, beam_size, block):
        calls = []
        batch_beam_search(trigram_table_step(table, calls), BOS, EOS, 12,
                          beam_size=beam_size, block_trigrams=block)
        assert calls[0] == ([[BOS]], [0])
        for (before, _), (after, parents) in zip(calls, calls[1:]):
            assert 1 <= len(after) <= beam_size and len(parents) == len(after)
            for prefix, parent in zip(after, parents):
                assert prefix[:-1] == before[parent]

    def test_blocking_can_be_disabled(self):
        row = log_softmax(np.where(np.arange(V) == 3, 0.0, -10.0))
        fn = lambda prefix: row
        hyp = beam_search(fn, BOS, EOS, max_len=10, beam_size=2, min_len=10,
                          block_trigrams=False)
        assert has_repeated_trigram(hyp.generated())

    def test_min_len_delays_eos(self):
        # eos is overwhelmingly likely from the start
        row = log_softmax(np.where(np.arange(V) == EOS, 5.0, -5.0))
        fn = lambda prefix: row
        hyp = beam_search(fn, BOS, EOS, max_len=12, beam_size=3, min_len=5)
        assert len(hyp.generated()) >= 5

    def test_terminates_on_eos(self):
        fn = table_decode_fn(9)
        hyp = beam_search(fn, BOS, EOS, max_len=40, beam_size=4)
        gen = hyp.generated()
        assert gen.count(EOS) <= 1
        if EOS in gen:
            assert gen[-1] == EOS
        assert hyp.finished

    def test_score_normalization(self):
        hyp = BeamHypothesis([BOS, 4, 2, EOS], -1.5)
        assert hyp.score(1.0) == -0.5
        assert hyp.score(0.0) == -1.5

    def test_returned_hypothesis_is_pool_best(self):
        fn = table_decode_fn(11)
        best = beam_search(fn, BOS, EOS, max_len=8, beam_size=4)
        # re-running with a larger beam can only improve the normalized score
        bigger = beam_search(fn, BOS, EOS, max_len=8, beam_size=64)
        assert bigger.score(1.0) >= best.score(1.0) - 1e-12

    def test_invalid_arguments(self):
        fn = table_decode_fn(0)
        with pytest.raises(ValueError):
            beam_search(fn, BOS, EOS, max_len=5, beam_size=0)
        with pytest.raises(ValueError):
            beam_search(fn, BOS, EOS, max_len=0)


class TestLogSoftmax:
    """The decode step's log-softmax is scipy's, bit for bit: scipy is the oracle."""

    ROWS = {
        "random": np.random.default_rng(3).normal(size=(4, 3, 301)) * 8,
        "some -inf": np.array([[0.5, -np.inf, 2.0, -np.inf], [-np.inf, 1.0, 1.0, 0.0]]),
        "all -inf": np.full((2, 5), -np.inf),
        "+inf": np.array([[1.0, np.inf, -3.0], [0.0, 1.0, 2.0]]),
    }

    @pytest.mark.parametrize("case", sorted(ROWS))
    def test_matches_scipy_bit_for_bit(self, case):
        x = self.ROWS[case]
        with np.errstate(invalid="ignore"):
            # a strided view, as the cached step's last positions are, and one row
            for rows in (x[..., -1, :] if x.ndim == 3 else x, x.reshape(-1, x.shape[-1])[0]):
                got, want = decoding.log_softmax(rows), log_softmax(rows, axis=-1)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestModelDecoding:
    def test_generate_summary_returns_text(self, tiny_tokenizer):
        cfg = toy_config(vocab_size=tiny_tokenizer.vocab_size)
        model = Model.init(cfg, seed=21)
        tree = ConversationTree([
            Utterance(0, "a", "[MASK]", 0, None),
            Utterance(1, "b", "the server crashed", 1, 0),
        ])
        out1 = generate_summary(model, tiny_tokenizer, tree, beam_size=2)
        out2 = generate_summary(model, tiny_tokenizer, tree, beam_size=2)
        assert isinstance(out1, str)
        assert out1 == out2  # decoding is deterministic

    def test_empty_memory_rejected(self, tiny_tokenizer):
        cfg = toy_config(vocab_size=tiny_tokenizer.vocab_size)
        model = Model.init(cfg, seed=22)
        with pytest.raises(ValueError, match="memory"):
            model_decode_fn(model, Tensor(np.zeros((0, cfg.d_hidden))))
