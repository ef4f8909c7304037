"""Byte-level BPE tokenizer (GPT-2 file format: vocab.json + merges.txt).

The pre-tokenizer reproduces the usual byte-level BPE splitting rules --
contractions, space-prefixed letter/digit/punctuation runs, whitespace runs
that leave their last space attached to the next word -- with the standard
library alone.  ``str.translate`` rewrites the text as one class character
per character.  ASCII letters, the space and the apostrophe stay themselves
(so contractions still match); other letters become ``L``, digits ``0``,
other whitespace a tab and everything else ``!``.  One compiled pattern
splits that class string, and each piece is the same span of the text.

The merge loop keeps a list of the rank of each adjacent pair of symbols.
Each round merges every left-to-right occurrence of the lowest-ranked pair
and re-ranks only the two pairs beside each new symbol.  ``encode``
memoizes the ids of each distinct piece, so a repeated word costs one
dictionary lookup; with a ``limit`` it stops at the first piece that starts
at or past it, so the text a truncation drops is never merged.  ``fit``
is the one length cap: it cuts a text to a number of ids on a character
boundary; asked for no ids, with ``<unk>`` in the vocabulary, it keeps a
text of at most that many UTF-8 bytes unencoded: each id covers a byte or more.

Special tokens are plain vocabulary entries with reserved surface forms;
``encode`` splits them out of the text with one compiled pattern (leftmost
match, then longest) and maps each to its id instead of byte-splitting it.
"""

from __future__ import annotations

import json
import os
import re
import sys
import unicodedata
from itertools import islice, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .fileio import CorpusError

BOS_TOKEN = "<bos>"
MASK_TOKEN = "[MASK]"
URL_TOKEN = "[URL]"
PAD_TOKEN = "<pad>"
EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"

REQUIRED_SPECIALS = (BOS_TOKEN, MASK_TOKEN, URL_TOKEN, PAD_TOKEN, EOS_TOKEN)


def bytes_to_unicode() -> Dict[int, str]:
    """Reversible byte -> printable-unicode-char map used by the BPE layer."""
    bs = (list(range(ord("!"), ord("~") + 1))
          + list(range(ord("\xa1"), ord("\xac") + 1))
          + list(range(ord("\xae"), ord("\xff") + 1)))
    cs = bs[:]
    n = 0
    for b in range(256):
        if b not in bs:
            bs.append(b)
            cs.append(256 + n)
            n += 1
    return dict(zip(bs, map(chr, cs)))


# the two directions of the byte map as str.translate tables: a byte is the
# code point of its latin-1 character
_BYTE_SYMBOLS = bytes_to_unicode()
_SYMBOL_BYTES = {ord(c): b for b, c in _BYTE_SYMBOLS.items()}


def _symbols(piece: str) -> str:
    """The byte symbols of a piece's UTF-8 encoding."""
    return piece.encode("utf-8").decode("latin-1").translate(_BYTE_SYMBOLS)


class _CharClasses(dict):
    """Code point -> class character (see the module docstring), a
    ``str.translate`` table that classifies each code point on first sight."""

    def __missing__(self, cp: int) -> str:
        c = chr(cp)
        category = unicodedata.category(c)[0]
        if c.isspace():
            cls = " " if c == " " else "\t"
        elif category == "L":
            cls = c if c.isascii() else "L"
        elif category == "N":
            cls = "0"
        else:
            cls = "'" if c == "'" else "!"
        self[cp] = cls
        return cls


_CLASSES = _CharClasses()
_PIECE = re.compile(r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?0+| ?[!']+|[ \t]+(?![^ \t])|[ \t]+")


def pre_tokenize(text: str) -> List[str]:
    """Split text into BPE work pieces; ``''.join(result) == text``."""
    return [text[m.start():m.end()] for m in _PIECE.finditer(text.translate(_CLASSES))]


class Tokenizer:
    """Vocabulary + merge ranks; id space is [0, vocab_size).

    The ids of each distinct pre-tokenized piece are memoized, up to
    ``bpe_cache_size`` entries; a miss on a full cache first drops the older
    half of it.
    """

    bpe_cache_size = 1 << 16

    def __init__(self, vocab: Dict[str, int], merges: Sequence[Tuple[str, str]]):
        for tok in REQUIRED_SPECIALS:
            if tok not in vocab:
                raise CorpusError(f"vocabulary is missing required special token {tok!r}")
        ids = sorted(vocab.values())
        if ids != list(range(len(vocab))):
            raise CorpusError("vocabulary ids must be dense in [0, |V|)")
        self.vocab = dict(vocab)
        self.id_to_token = {i: t for t, i in vocab.items()}
        self.merges = [tuple(m) for m in merges]
        self.ranks = {pair: r for r, pair in enumerate(self.merges)}
        self.bos_id = vocab[BOS_TOKEN]
        self.mask_id = vocab[MASK_TOKEN]
        self.url_id = vocab[URL_TOKEN]
        self.pad_id = vocab[PAD_TOKEN]
        self.eos_id = vocab[EOS_TOKEN]
        self.unk_id: Optional[int] = vocab.get(UNK_TOKEN)
        self._specials = {t for t in (BOS_TOKEN, MASK_TOKEN, URL_TOKEN, PAD_TOKEN, EOS_TOKEN, UNK_TOKEN) if t in vocab}
        self._special_ids = {vocab[t] for t in self._specials}
        # leftmost surface first, then the longest one starting there
        longest_first = sorted(self._specials, key=len, reverse=True)
        self._special_re = re.compile("(" + "|".join(map(re.escape, longest_first)) + ")")
        self._bpe_cache: Dict[str, Tuple[int, ...]] = {}

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def __len__(self) -> int:
        return len(self.vocab)

    # -- core BPE ----------------------------------------------------------

    def _bpe(self, symbols: str) -> List[str]:
        """Apply the merges to a piece's byte symbols, lowest rank first;
        ``pair_ranks[i]`` is the rank of ``(word[i], word[i + 1])``."""
        ranks, merges = self.ranks, self.merges
        unranked = len(merges)
        word = list(symbols)
        pair_ranks = list(map(ranks.get, zip(word, word[1:]), repeat(unranked)))
        while pair_ranks:
            best = min(pair_ranks)
            if best == unranked:
                break
            merged = "".join(merges[best])
            # a merge never re-forms its own pair, so the leftmost occurrence
            # left is the next one left to right
            while best in pair_ranks:
                i = pair_ranks.index(best)
                word[i] = merged
                del word[i + 1], pair_ranks[i]
                if i:
                    pair_ranks[i - 1] = ranks.get((word[i - 1], merged), unranked)
                if i < len(pair_ranks):
                    pair_ranks[i] = ranks.get((merged, word[i + 1]), unranked)
        return word

    def _piece_ids(self, piece: str) -> Tuple[int, ...]:
        """A cache miss: merge the piece, look its tokens up and memoize them."""
        word = self._bpe(_symbols(piece))
        ids = tuple(map(self.vocab.get, word, repeat(self.unk_id)))
        if None in ids:
            raise CorpusError(f"token {word[ids.index(None)]!r} not in vocabulary "
                              f"and no {UNK_TOKEN} defined")
        cache = self._bpe_cache
        if len(cache) >= self.bpe_cache_size:
            for stale in list(islice(cache, (len(cache) + 1) // 2)):
                del cache[stale]
        cache[piece] = ids
        return ids

    def encode(self, text: str, limit: Optional[int] = None) -> List[int]:
        """The ids of ``text``; with ``limit``, exactly ``encode(text)[:limit]``.

        A capped encode pre-tokenizes each run of plain text whole, as an
        uncapped one does, but stops at the first piece that starts at or
        past the limit: no piece there is merged or cached.  So a piece past
        the limit that the vocabulary cannot encode, with no ``<unk>``,
        raises nothing.
        """
        if limit is None:
            limit = sys.maxsize
        elif limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        get = self._bpe_cache.get
        ids: List[int] = []
        # split with a capture group: plain text at even indices, specials at odd
        for k, part in enumerate(self._special_re.split(text)):
            if k % 2:
                ids.append(self.vocab[part])
                continue
            for piece in pre_tokenize(part):
                if len(ids) >= limit:
                    return ids[:limit]
                ids += get(piece) or self._piece_ids(piece)
        return ids[:limit]

    def decode(self, ids: Iterable[int]) -> str:
        out: List[str] = []
        buf: List[str] = []

        def flush():
            if buf:
                raw = "".join(buf).translate(_SYMBOL_BYTES).encode("latin-1")
                out.append(raw.decode("utf-8", errors="replace"))
                buf.clear()

        for i in ids:
            if i in self._special_ids:
                flush()
                out.append(self.id_to_token[i])
            else:
                buf.append(self.id_to_token[i])
        flush()
        return "".join(out)

    def fit(self, text: str, cap: int, encode_cut: bool = True) -> Tuple[str, Optional[List[int]]]:
        """``text`` cut to at most ``cap`` ids, and its ids.

        A text that fits comes back as is, with the ids of its one encode.
        A longer one is cut after ``cap`` ids, or fewer so as not to split a
        character, and the cut text is encoded again to ``cap`` ids, as its
        ids need not be those it was cut from.  With ``encode_cut`` false no
        ids are returned, and a text of at most ``cap`` UTF-8 bytes is kept
        unencoded when the vocabulary has ``<unk>``: every id covers at least
        one byte, and only a missing ``<unk>`` can make its encode raise.
        """
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        if not encode_cut and self.unk_id is not None and len(text.encode("utf-8")) <= cap:
            return text, None
        ids = self.encode(text, cap + 1)  # one id past the cap, read at the cut
        if len(ids) <= cap:
            return text, ids if encode_cut else None
        end = cap
        while end and _SYMBOL_BYTES[ord(self.id_to_token[ids[end]][0])] & 0xC0 == 0x80:
            end -= 1
        cut = self.decode(ids[:end])
        return cut, self.encode(cut, cap) if encode_cut else None

    # -- persistence ---------------------------------------------------------

    def save(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "vocab.json"), "w", encoding="utf-8") as f:
            json.dump(self.vocab, f, ensure_ascii=False, indent=0, sort_keys=False)
        with open(os.path.join(directory, "merges.txt"), "w", encoding="utf-8") as f:
            f.write("#version: 0.2\n")
            for a, b in self.merges:
                f.write(f"{a} {b}\n")

    @classmethod
    def load(cls, directory: str) -> "Tokenizer":
        path = os.path.join(directory, "vocab.json")
        with open(path, encoding="utf-8") as f:
            vocab = json.load(f)
        if not isinstance(vocab, dict):
            raise CorpusError(f"{path}: not a JSON object of token ids")
        merges: List[Tuple[str, str]] = []
        path = os.path.join(directory, "merges.txt")
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.rstrip("\n")
                if not line or line.startswith("#version"):
                    continue
                pair = line.split(" ")
                if len(pair) != 2:
                    raise CorpusError(f"{path}:{lineno}: a merge is two symbols and one space")
                merges.append(tuple(pair))
        return cls(vocab, merges)
