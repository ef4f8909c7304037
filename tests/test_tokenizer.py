import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadsum.tokenizer import (
    BOS_TOKEN,
    EOS_TOKEN,
    MASK_TOKEN,
    PAD_TOKEN,
    UNK_TOKEN,
    URL_TOKEN,
    Tokenizer,
    bytes_to_unicode,
    merge_pair,
    pre_tokenize,
    tokenize_utterance,
    train_bpe,
)


class TestPreTokenizer:
    # expected splits follow the standard byte-level BPE pattern
    @pytest.mark.parametrize("text,expected", [
        ("Hello world", ["Hello", " world"]),
        ("don't stop", ["don", "'t", " stop"]),
        ("it's fine", ["it", "'s", " fine"]),
        ("a  b", ["a", " ", " b"]),
        ("x\n\ny", ["x", "\n", "\n", "y"]),
        ("12 3,4", ["12", " 3", ",", "4"]),
        ("trailing ", ["trailing", " "]),
        ("!!?", ["!!?"]),
        ("", []),
        ("   ", ["   "]),
    ])
    def test_known_splits(self, text, expected):
        assert pre_tokenize(text) == expected

    def test_join_recovers_input(self):
        samples = [
            "Mixed CASE and 123 numbers...", "unicode: café ño 漢字",
            "tabs\tand\nnewlines \r\n mixed   runs", "'s at start", "end'",
        ]
        for s in samples:
            assert "".join(pre_tokenize(s)) == s

    def test_byte_map_is_a_bijection(self):
        m = bytes_to_unicode()
        assert len(m) == 256
        assert len(set(m.values())) == 256


class TestFixtureVocab:
    def test_size_and_specials(self, tiny_tokenizer):
        tok = tiny_tokenizer
        assert tok.vocab_size == 200
        special_ids = [tok.bos_id, tok.mask_id, tok.url_id, tok.pad_id, tok.eos_id]
        assert len(set(special_ids)) == 5
        assert all(0 <= i < tok.vocab_size for i in special_ids)

    def test_exact_round_trip_on_covered_text(self, tiny_tokenizer):
        t = "the server crashed, restart it now!"
        assert tiny_tokenizer.decode(tiny_tokenizer.encode(t)) == t

    def test_round_trip_up_to_whitespace(self, tiny_tokenizer):
        t = "fix   the bug  first "
        got = tiny_tokenizer.decode(tiny_tokenizer.encode(t))
        assert " ".join(got.split()) == " ".join(t.split())

    def test_special_surfaces_map_to_special_ids(self, tiny_tokenizer):
        tok = tiny_tokenizer
        ids = tok.encode(f"see {URL_TOKEN} now")
        assert tok.url_id in ids
        assert tok.decode(ids) == f"see {URL_TOKEN} now"
        assert tok.encode(MASK_TOKEN) == [tok.mask_id]
        assert tok.encode(BOS_TOKEN) == [tok.bos_id]

    def test_unknown_bytes_fall_back_to_unk(self, tiny_tokenizer):
        tok = tiny_tokenizer
        ids = tok.encode("😀")  # emoji bytes are outside the fixture alphabet
        assert ids and all(i == tok.unk_id for i in ids)

    def test_save_load_round_trip(self, tiny_tokenizer, tmp_path):
        tiny_tokenizer.save(str(tmp_path))
        again = Tokenizer.load(str(tmp_path))
        assert again.vocab == tiny_tokenizer.vocab
        assert again.merges == tiny_tokenizer.merges
        t = "check the logs for errors"
        assert again.encode(t) == tiny_tokenizer.encode(t)

    def test_bpe_cache_is_bounded(self, fixture_dir):
        path = os.path.join(fixture_dir, "tinyvocab")
        tok = Tokenizer.load(path)
        tok.bpe_cache_size = 8
        words = [" " + a + b for a in "abcdefgh" for b in "stuvw"]  # 40 distinct pieces
        before = [tok.encode(w) for w in words]
        for w in words:
            tok.encode(w)
            assert len(tok._bpe_cache) <= 8
        # evicted pieces are merged afresh to the same ids
        assert [tok.encode(w) for w in words] == before
        unbounded = Tokenizer.load(path)
        assert [unbounded.encode(w) for w in words] == before
        assert len(unbounded._bpe_cache) == len(words)


def byte_complete_tokenizer() -> Tokenizer:
    """The fixture vocabulary and merges plus every byte symbol, so no text needs <unk>."""
    base = Tokenizer.load(os.path.join(os.path.dirname(__file__), "fixtures", "tinyvocab"))
    vocab = dict(base.vocab)
    for symbol in bytes_to_unicode().values():
        vocab.setdefault(symbol, len(vocab))
    return Tokenizer(vocab, base.merges)


BYTE_COMPLETE = byte_complete_tokenizer()

# arbitrary Unicode (every plane, no surrogates) with special surfaces mixed in
TEXTS = st.lists(st.one_of(st.text(), st.sampled_from(
    [BOS_TOKEN, EOS_TOKEN, MASK_TOKEN, PAD_TOKEN, URL_TOKEN, "<bo", "[UR", " ", "'s"])),
    max_size=6).map("".join)


class TestRoundTripProperties:
    @settings(max_examples=300, deadline=None)
    @given(text=TEXTS)
    def test_any_text_round_trips(self, text):
        ids = BYTE_COMPLETE.encode(text)
        assert all(0 <= i < BYTE_COMPLETE.vocab_size for i in ids)
        if UNK_TOKEN not in text:
            assert BYTE_COMPLETE.unk_id is None or BYTE_COMPLETE.unk_id not in ids
        assert BYTE_COMPLETE.decode(ids) == text


class TestTokenizeUtterance:
    def test_empty_text_is_just_bos(self, tiny_tokenizer):
        assert tokenize_utterance(tiny_tokenizer, "", 10) == [tiny_tokenizer.bos_id]

    def test_hello_is_bos_plus_single_id(self, tiny_tokenizer):
        tok = tiny_tokenizer
        assert tokenize_utterance(tok, "hello", 10) == [tok.bos_id, tok.vocab["hello"]]

    def test_truncates_to_max(self, tiny_tokenizer):
        text = " ".join(["the server crashed"] * 200)
        assert len(tiny_tokenizer.encode(text)) > 300
        ids = tokenize_utterance(tiny_tokenizer, text, 200)
        assert len(ids) == 200
        assert ids[0] == tiny_tokenizer.bos_id

    def test_rejects_tiny_budget(self, tiny_tokenizer):
        with pytest.raises(ValueError):
            tokenize_utterance(tiny_tokenizer, "x", 1)


class TestTraining:
    def test_merge_pair_fuses_left_to_right(self):
        assert merge_pair(("a", "a", "a", "b"), "a", "a") == ("aa", "a", "b")
        assert merge_pair(("a", "b", "a", "b"), "a", "b") == ("ab", "ab")
        assert merge_pair(("b",), "a", "b") == ("b",)

    def test_training_is_deterministic(self):
        corpus = ["aa ab aa ab ba", "ab aa ba ba bb"]
        t1 = train_bpe(corpus, vocab_size=40)
        t2 = train_bpe(corpus, vocab_size=40)
        assert t1.vocab == t2.vocab
        assert t1.merges == t2.merges

    def test_frequent_pairs_merge_first(self):
        tok = train_bpe(["zz zz zz zz q"], vocab_size=20)
        assert "zz" in tok.vocab

    def test_requires_room_for_base_symbols(self):
        with pytest.raises(ValueError):
            train_bpe(["abcdefghijklmnop"], vocab_size=8)

    def test_missing_special_rejected(self):
        with pytest.raises(ValueError, match="special"):
            Tokenizer({"a": 0, "b": 1}, [])

    def test_ids_must_be_dense(self):
        vocab = {t: i * 2 for i, t in enumerate(
            [BOS_TOKEN, MASK_TOKEN, URL_TOKEN, PAD_TOKEN, EOS_TOKEN])}
        with pytest.raises(ValueError, match="dense"):
            Tokenizer(vocab, [])
