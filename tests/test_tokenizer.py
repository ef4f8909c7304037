import os
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadsum.fileio import CorpusError
from threadsum.tokenizer import (
    BOS_TOKEN,
    EOS_TOKEN,
    MASK_TOKEN,
    PAD_TOKEN,
    REQUIRED_SPECIALS,
    UNK_TOKEN,
    URL_TOKEN,
    Tokenizer,
    bytes_to_unicode,
    pre_tokenize,
)
from threadsum.conversation import ConversationTree, Utterance
from threadsum.corpus import TrainingInstance
from threadsum.model import encode_instance, toy_config

from helpers import SYMBOL_BYTE, fit_reference, merge_pair, train_bpe


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


def utterance_ids(tok, text, max_tokens):
    """The model's ids of a one-utterance conversation under a token cap."""
    cfg = toy_config(vocab_size=tok.vocab_size, max_utterance_tokens=max_tokens)
    inst = TrainingInstance(ConversationTree([Utterance(0, "a", text, 0, None)]), "")
    (ids,) = encode_instance(cfg, tok, inst).token_ids
    return ids


class TestTokenizeUtterance:
    """An utterance's ids are its bos, then what ``Tokenizer.fit`` keeps."""

    def test_empty_text_is_just_bos(self, tiny_tokenizer):
        assert tiny_tokenizer.fit("", 9) == ("", [])
        assert utterance_ids(tiny_tokenizer, "", 10) == [tiny_tokenizer.bos_id]

    def test_hello_is_bos_plus_single_id(self, tiny_tokenizer):
        tok = tiny_tokenizer
        assert tok.fit("hello", 9) == ("hello", [tok.vocab["hello"]])
        assert utterance_ids(tok, "hello", 10) == [tok.bos_id, tok.vocab["hello"]]

    def test_truncates_to_max(self, tiny_tokenizer):
        text = " ".join(["the server crashed"] * 200)
        assert len(tiny_tokenizer.encode(text)) > 300
        cut, content = tiny_tokenizer.fit(text, 199)
        assert text.startswith(cut) and len(cut) < len(text)
        assert content == tiny_tokenizer.encode(cut) and len(content) == 199
        assert utterance_ids(tiny_tokenizer, text, 200) == [tiny_tokenizer.bos_id] + content

    def test_rejects_tiny_budget(self, tiny_tokenizer):
        with pytest.raises(ValueError, match="cap"):
            tiny_tokenizer.fit("x", -1)
        # a token cap holds the bos and one more id
        with pytest.raises(ValueError, match="max_utterance_tokens"):
            toy_config(max_utterance_tokens=1)


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


# -- oracles: the character scanner and the merge loop the fast paths replaced

SCANNER_CONTRACTIONS = ("'s", "'t", "'re", "'ve", "'m", "'ll", "'d")


def scanner_is_letter(c):
    return unicodedata.category(c).startswith("L")


def scanner_is_digit(c):
    return unicodedata.category(c).startswith("N")


def scanner_is_other(c):
    return not (c.isspace() or scanner_is_letter(c) or scanner_is_digit(c))


def scanner_run(text, i, pred):
    while i < len(text) and pred(text[i]):
        i += 1
    return i


def scanner_pre_tokenize(text):
    """The character-by-character scanner over Unicode categories."""
    pieces, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if c == "'":
            for suf in SCANNER_CONTRACTIONS:
                if text.startswith(suf, i):
                    pieces.append(suf)
                    i += len(suf)
                    break
            else:
                j = scanner_run(text, i, scanner_is_other)
                pieces.append(text[i:j])
                i = j
            continue
        if c == " " and i + 1 < n and not text[i + 1].isspace():
            c2 = text[i + 1]
            pred = (scanner_is_letter if scanner_is_letter(c2)
                    else scanner_is_digit if scanner_is_digit(c2) else scanner_is_other)
            j = scanner_run(text, i + 1, pred)
            pieces.append(text[i:j])
            i = j
            continue
        if scanner_is_letter(c) or scanner_is_digit(c):
            j = scanner_run(text, i, scanner_is_letter if scanner_is_letter(c) else scanner_is_digit)
            pieces.append(text[i:j])
            i = j
            continue
        if not c.isspace():
            j = scanner_run(text, i, scanner_is_other)
            pieces.append(text[i:j])
            i = j
            continue
        j = scanner_run(text, i, str.isspace)
        if j < n and j - i > 1:
            pieces.append(text[i:j - 1])
            i = j - 1
        else:
            pieces.append(text[i:j])
            i = j
    return pieces


BYTE_MAP = bytes_to_unicode()


def loop_bpe(symbols, ranks):
    """Merge the lowest-ranked adjacent pair until none is ranked, one symbol at a time."""
    word = tuple(symbols)
    while len(word) > 1:
        pairs = set(zip(word, word[1:]))
        best = min(pairs, key=lambda p: ranks.get(p, float("inf")))
        if best not in ranks:
            break
        merged, i = [], 0
        while i < len(word):
            if i < len(word) - 1 and (word[i], word[i + 1]) == best:
                merged.append(word[i] + word[i + 1])
                i += 2
            else:
                merged.append(word[i])
                i += 1
        word = tuple(merged)
    return word


def scanner_split_specials(tok, text):
    """(is_special, chunk) runs of ``text`` by a per-special ``find`` scan:
    the leftmost hit first, the longest surface on a tie."""
    order = sorted(tok._specials, key=len, reverse=True)
    parts, i = [], 0
    while i < len(text):
        hit = None
        for surf in order:
            pos = text.find(surf, i)
            if pos != -1 and (hit is None or pos < hit[0]):
                hit = (pos, surf)
        if hit is None:
            parts.append((False, text[i:]))
            break
        pos, surf = hit
        if pos > i:
            parts.append((False, text[i:pos]))
        parts.append((True, surf))
        i = pos + len(surf)
    return parts


def loop_encode(tok, text):
    """``encode`` through the scanners, a per-byte map and the merge loop, uncached."""
    ids = []
    for is_special, chunk in scanner_split_specials(tok, text):
        if is_special:
            ids.append(tok.vocab[chunk])
            continue
        for piece in scanner_pre_tokenize(chunk):
            symbols = "".join(BYTE_MAP[b] for b in piece.encode("utf-8"))
            for sub in loop_bpe(symbols, tok.ranks):
                tid = tok.vocab.get(sub, tok.unk_id)
                if tid is None:
                    raise ValueError(sub)
                ids.append(tid)
    return ids


def loop_decode(tok, ids):
    out, buf = [], []
    for i in ids:
        if i in tok._special_ids:
            out.append(bytes(SYMBOL_BYTE[c] for c in "".join(buf)).decode("utf-8", errors="replace"))
            buf = []
            out.append(tok.id_to_token[i])
        else:
            buf.append(tok.id_to_token[i])
    out.append(bytes(SYMBOL_BYTE[c] for c in "".join(buf)).decode("utf-8", errors="replace"))
    return "".join(out)


# every code point class the pre-tokenizer tells apart, with its edge cases:
# non-ASCII letters, digits (Nd, Nl, No) and spaces, lone surrogates,
# contraction suffixes and the class characters themselves
EDGE_CHARS = ["'", " ", "\t", "\n", "\r", "\x0b", "\x1c", "\x85", "\xa0", "\u2009", "\u3000",
              "\u2028", "s", "t", "re", "ve", "m", "ll", "d", "S", "L", "l", "0", "!", "a", "Z",
              "\xe9", "\xdf", "\u6f22", "\u01c5", "\u0663", "\u216b", "\xbd", "\xb2", "\ud800",
              "\udfff", "\U0001f600", "\u0301", "_"]
UNICODE_TEXTS = st.lists(st.one_of(st.text(st.characters(exclude_categories=())),
                                   st.sampled_from(EDGE_CHARS)), max_size=12).map("".join)
# whole special surfaces among fragments of them, which must stay plain text
SPECIAL_MIXES = st.lists(st.sampled_from(
    [BOS_TOKEN, EOS_TOKEN, MASK_TOKEN, PAD_TOKEN, URL_TOKEN, UNK_TOKEN, "<bo", "s>", "<unk",
     "[URL", "[MA", "SK]", "<", ">", "[", "]", "a", " ", "\n"]), max_size=10).map("".join)


class TestAgainstTheLoops:
    @settings(max_examples=1000, deadline=None)
    @given(text=UNICODE_TEXTS)
    def test_pre_tokenize_matches_the_scanner(self, text):
        assert pre_tokenize(text) == scanner_pre_tokenize(text)

    @settings(max_examples=300, deadline=None)
    @given(ids=st.lists(st.integers(0, BYTE_COMPLETE.vocab_size - 1), max_size=16))
    def test_decode_matches_the_byte_loop(self, ids):
        assert BYTE_COMPLETE.decode(ids) == loop_decode(BYTE_COMPLETE, ids)

    @settings(max_examples=400, deadline=None)
    @given(text=st.lists(st.one_of(TEXTS, SPECIAL_MIXES), max_size=3).map("".join), data=st.data())
    def test_fit_cuts_as_the_byte_map_reference(self, text, data):
        # caps past the text's UTF-8 bytes, where a fit asking for no ids
        # keeps the text unencoded, as no id covers less than a byte
        size = len(text.encode("utf-8"))
        assert len(BYTE_COMPLETE.encode(text)) <= size
        cap = data.draw(st.integers(0, size + 2), label="cap")
        expected = fit_reference(BYTE_COMPLETE, text, cap)
        assert BYTE_COMPLETE.fit(text, cap) == expected
        kept, ids = BYTE_COMPLETE.fit(text, cap, encode_cut=False)
        assert kept == expected[0]
        assert ids is None

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_encode_matches_the_loop_on_random_merge_tables(self, data):
        # base symbols of "a", "b", " ", "é" (two bytes) and "'"
        base = sorted({BYTE_MAP[b] for b in "ab é'".encode("utf-8")})
        pool = list(base)
        merges = []
        for _ in range(data.draw(st.integers(0, 12), label="merges")):
            if merges and data.draw(st.booleans(), label="repeat an earlier pair"):
                pair = data.draw(st.sampled_from(merges))
            else:
                pair = (data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool)))
            merges.append(pair)
            pool.append(pair[0] + pair[1])
        tokens = [BOS_TOKEN, MASK_TOKEN, URL_TOKEN, PAD_TOKEN, EOS_TOKEN, UNK_TOKEN]
        tokens += list(BYTE_MAP.values()) + pool
        tok = Tokenizer({t: i for i, t in enumerate(dict.fromkeys(tokens))}, merges)
        tok.bpe_cache_size = data.draw(st.integers(1, 4), label="cache size")
        words = st.text(st.sampled_from(["a", "b", "é", " ", "'", "\n", "!"]), max_size=10)
        for text in data.draw(st.lists(words, min_size=1, max_size=6), label="texts"):
            assert tok.encode(text) == loop_encode(tok, text)
            assert len(tok._bpe_cache) <= tok.bpe_cache_size

    def test_overlapping_pair_merges_left_to_right(self):
        tokens = list(REQUIRED_SPECIALS) + [UNK_TOKEN, "a", "aa", "aaa"]
        tok = Tokenizer({t: i for i, t in enumerate(tokens)}, [("a", "a"), ("aa", "a")])
        for text in ("aaaa", "aaa", "aaaaa"):
            assert tok.encode(text) == loop_encode(tok, text)
        assert [tok.id_to_token[i] for i in tok.encode("aaaa")] == ["aa", "aa"]
        assert [tok.id_to_token[i] for i in tok.encode("aaaaa")] == ["aa", "aaa"]

    @settings(max_examples=200, deadline=None)
    @given(text=UNICODE_TEXTS)
    def test_encode_matches_the_loop_on_arbitrary_unicode(self, text):
        try:
            expected = loop_encode(BYTE_COMPLETE, text)
        except UnicodeEncodeError:  # a lone surrogate has no UTF-8 bytes
            with pytest.raises(UnicodeEncodeError):
                BYTE_COMPLETE.encode(text)
            return
        assert BYTE_COMPLETE.encode(text) == expected

    @settings(max_examples=500, deadline=None)
    @given(text=st.one_of(SPECIAL_MIXES, TEXTS))
    def test_encode_splits_specials_as_the_scanner(self, text):
        assert BYTE_COMPLETE.encode(text) == loop_encode(BYTE_COMPLETE, text)

    def test_missing_unk_raises_on_every_call_and_caches_nothing(self):
        tokens = list(REQUIRED_SPECIALS) + ["a", "b"]
        tok = Tokenizer({t: i for i, t in enumerate(tokens)}, [])
        for _ in range(3):
            with pytest.raises(ValueError, match="not in vocabulary"):
                tok.encode("ac")
            assert tok._bpe_cache == {}
        assert tok.encode("ab") == [tok.vocab["a"], tok.vocab["b"]]
        assert list(tok._bpe_cache) == ["ab"]


class TestCappedEncode:
    @settings(max_examples=400, deadline=None)
    @given(text=st.lists(st.one_of(TEXTS, SPECIAL_MIXES), max_size=3).map("".join), data=st.data())
    def test_capped_encode_is_the_full_encode_cut(self, text, data):
        full = BYTE_COMPLETE.encode(text)
        limit = data.draw(st.integers(0, len(full) + 2), label="limit")
        fresh = Tokenizer(BYTE_COMPLETE.vocab, BYTE_COMPLETE.merges)
        assert fresh.encode(text, limit) == full[:limit]
        # each piece merged starts inside the cap and gives at least one id
        assert len(fresh._bpe_cache) <= limit
        assert BYTE_COMPLETE.encode(text, limit) == full[:limit]  # every piece cached

    def test_fit_encodes_a_cut_text_again(self):
        # the cut ends a whitespace run, which then splits into other pieces,
        # so the cut text's ids are not the ids it was cut from
        texts = ["!b\n\né\n\n !'s", "!   a!abéa", "\n\n \n\nb   ab"]
        tok = train_bpe(texts, vocab_size=27)
        full = tok.encode(texts[2])
        cut, ids = tok.fit(texts[2], 2)
        assert cut == tok.decode(full[:2]) == "\n\n \n\n"
        assert ids == tok.encode(cut)[:2] != full[:2]

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="limit"):
            BYTE_COMPLETE.encode("abc", -1)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_merge_loop_matches_the_loop_on_random_merge_tables(self, data):
        pool = ["a", "b", "c"]
        merges = []
        for _ in range(data.draw(st.integers(0, 10), label="merges")):
            pair = (data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool)))
            merges.append(pair)
            pool.append(pair[0] + pair[1])
        tokens = list(REQUIRED_SPECIALS) + pool
        tok = Tokenizer({t: i for i, t in enumerate(dict.fromkeys(tokens))}, merges)
        # runs of one repeated symbol make overlapping occurrences of a pair
        runs = st.builds(str.__mul__, st.sampled_from("abc"), st.integers(1, 9))
        chunks = st.one_of(runs, st.text("abc", min_size=1, max_size=4))
        word = data.draw(st.lists(chunks, min_size=1, max_size=4).map("".join), label="word")
        assert tuple(tok._bpe(word)) == loop_bpe(word, tok.ranks)

    @pytest.mark.parametrize("word,merges,expected", [
        ("aaa", [("a", "a")], ["aa", "a"]),
        # every (a, b) merges in one round before the lower-ranked (ab, a) forms
        ("abab", [("ab", "a"), ("a", "b")], ["ab", "ab"]),
    ])
    def test_merge_rounds(self, word, merges, expected):
        tokens = list(REQUIRED_SPECIALS) + ["a", "b"] + ["".join(m) for m in merges]
        tok = Tokenizer({t: i for i, t in enumerate(dict.fromkeys(tokens))}, merges)
        assert tok._bpe(word) == expected
        assert tuple(expected) == loop_bpe(word, tok.ranks)

    def test_missing_unk_raises_inside_the_cap_only(self):
        tokens = list(REQUIRED_SPECIALS) + ["a", "b"]
        tok = Tokenizer({t: i for i, t in enumerate(tokens)}, [])
        a, b = tok.vocab["a"], tok.vocab["b"]
        # a piece that starts inside the cap is merged whole
        with pytest.raises(CorpusError, match="not in vocabulary"):
            tok.encode("ac", 1)
        with pytest.raises(CorpusError, match="not in vocabulary"):
            tok.encode("ab c", 3)
        assert tok._bpe_cache == {"ab": (a, b)}
        # one that starts past it is neither merged nor cached
        assert tok.encode("ab c", 2) == [a, b]
        assert tok.encode(f"a{EOS_TOKEN}c", 2) == [a, tok.eos_id]
        assert tok.encode("ab c", 0) == []
        assert set(tok._bpe_cache) == {"ab", "a"}
