"""Seeded input generator shared by every benchmark workload.

Everything here is a pure function of its seed.  The lexicon and the
tokenizer are constants of the benchmark (fixed seed), like a released
vocabulary; the workload seed only changes which words, trees and filter
cases are drawn from them.

The word distribution is Zipf-like over a large lexicon with URLs, markup
and non-ASCII words mixed in, so the share of first-seen words in a run is
realistic and a tokenizer cache cannot hold every word.
"""

from statistics import NormalDist

import numpy as np

from threadsum.tokenizer import REQUIRED_SPECIALS, UNK_TOKEN, Tokenizer, bytes_to_unicode

LEXICON_SEED = 20220410
LEXICON_SIZE = 40000
ZIPF_EXPONENT = 1.07
TOKENIZER_SIZE = 8000
MIN_COMMENTS = 10  # the corpus filter's default, which the CLI uses
MEAN_WORDS = 20  # per comment; about 41 tokens with the built tokenizer
COMMENT_SHAPE = 2.2  # gamma shape of comment lengths

_ONSETS = ("", "b", "br", "c", "ch", "d", "dr", "f", "g", "gr", "h", "j", "k", "l", "m",
           "n", "p", "pl", "qu", "r", "s", "sh", "st", "t", "th", "tr", "v", "w", "z")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou", "y")
_CODAS = ("", "", "", "n", "r", "s", "t", "l", "m", "ng", "ck", "x")
_ACCENTS = {"a": "á", "e": "é", "i": "í", "o": "ö", "u": "ü"}
_CJK = "東京大阪語学生時間問題社会世界日本中国電話情報"
_EMOJI = ("🙂", "😂", "👍", "🔥", "🤔", "🎉")
_SUBREDDITS = ("askscience", "books", "cooking", "history", "movies", "programming",
               "running", "space", "travel", "woodworking")
_PUNCT = (",", ".", "?", "!", ":", ";")

# per-post and per-thread filter rates for forum dumps
FILTER_RATES = {
    "nsfw": 0.05,              # post flagged over_18
    "media_or_quarantine": 0.06,  # quarantine, video or picture post
    "negative_title": 0.03,    # post score below zero
    "negative_lead": 0.03,     # top-level comment score below zero
    "child_before_parent": 0.03,  # a reply stamped before its parent
    "dangling_parent": 0.02,   # per comment: replies to an id not in the dump
}


class Lexicon:
    """Distinct words ordered by frequency rank, shorter words ranked higher."""

    def __init__(self, seed: int = LEXICON_SEED, size: int = LEXICON_SIZE):
        rng = np.random.default_rng(seed)
        words, seen = [], set()
        while len(words) < size:
            n = size - len(words) + 64
            n_syll = np.minimum(rng.geometric(0.45, n), 4)
            onset = rng.integers(len(_ONSETS), size=(n, 4))
            vowel = rng.integers(len(_VOWELS), size=(n, 4))
            coda = rng.integers(len(_CODAS), size=(n, 4))
            deco = rng.random(n)
            pick = rng.integers(len(_CJK), size=(n, 3))
            for i in range(n):
                w = "".join(_ONSETS[onset[i, s]] + _VOWELS[vowel[i, s]] + _CODAS[coda[i, s]]
                            for s in range(n_syll[i]))
                if deco[i] < 0.03:
                    w = "".join(_ACCENTS.get(c, c) for c in w)
                elif deco[i] < 0.04:
                    w = "".join(_CJK[j] for j in pick[i, : 1 + onset[i, 3] % 3])
                elif deco[i] < 0.045:
                    w = _EMOJI[vowel[i, 3] % len(_EMOJI)]
                if w not in seen:
                    seen.add(w)
                    words.append(w)
        words = words[:size]
        # natural languages rank short words first; byte length plus noise
        noise = rng.random(size) * 4
        order = sorted(range(size), key=lambda i: (len(words[i].encode()) + noise[i], i))
        self.words = [words[i] for i in order]
        weights = 1.0 / (np.arange(size) + 2.7) ** ZIPF_EXPONENT
        self.cdf = np.cumsum(weights / weights.sum())

    def draw(self, rng: np.random.Generator, n: int) -> list:
        ranks = np.searchsorted(self.cdf, rng.random(n), side="right")
        return [self.words[min(int(r), len(self.words) - 1)] for r in ranks]


def build_tokenizer(lexicon: Lexicon, size: int = TOKENIZER_SIZE) -> Tokenizer:
    """A byte-level BPE vocabulary built directly from the lexicon's ranks.

    Specials, then all 256 byte symbols (so any text encodes without
    unknowns), then left-to-right merge chains spelling " word" for the most
    frequent words until ``size`` entries exist.  Rarer words split into a
    known prefix plus single bytes.  Learning the same table with
    ``train_bpe`` takes minutes; this takes milliseconds and is exact.
    """
    byte_enc = bytes_to_unicode()
    tokens = list(REQUIRED_SPECIALS) + [UNK_TOKEN] + [byte_enc[b] for b in range(256)]
    known = set(tokens)
    merges = []
    for word in lexicon.words:
        symbols = [byte_enc[b] for b in (" " + word).encode("utf-8")]
        prefix = symbols[0]
        for sym in symbols[1:]:
            merged = prefix + sym
            if merged not in known:
                if len(tokens) >= size:
                    break
                merges.append((prefix, sym))
                tokens.append(merged)
                known.add(merged)
            prefix = merged
        if len(tokens) >= size:
            break
    return Tokenizer({t: i for i, t in enumerate(tokens)}, merges)


class TextGenerator:
    """Comment and title text: Zipf words, punctuation, URLs and markup."""

    def __init__(self, lexicon: Lexicon):
        self.lexicon = lexicon

    def words(self, rng: np.random.Generator, n: int) -> str:
        out = []
        for i, w in enumerate(self.lexicon.draw(rng, n)):
            r = rng.random()
            if r < 0.012:
                w = f"https://www.{w}.com/r/{self.lexicon.draw(rng, 1)[0]}?id={rng.integers(1000)}"
            elif r < 0.03:
                w = "*" + w + "*"
            elif r < 0.036:
                w = "~~" + w + "~~"
            elif r < 0.042:
                w = "[" + w + "]"
            elif r < 0.06:
                w = str(int(rng.integers(1, 2025)))
            if i == 0 or out[-1][-1] in ".?!":
                w = w[:1].upper() + w[1:]
            if rng.random() < 0.09:
                w += _PUNCT[rng.integers(len(_PUNCT))]
            out.append(w)
        return " ".join(out)

    def comment(self, rng: np.random.Generator) -> str:
        # heavy tail: most comments are short, a few run long
        return self.words(rng, 3 + int(rng.gamma(COMMENT_SHAPE, (MEAN_WORDS - 3) / COMMENT_SHAPE)))

    def thread_lengths(self, rng: np.random.Generator, size: int) -> list:
        """Word counts for ``size`` comments that sum to ``size * MEAN_WORDS``.

        The split follows the same heavy-tailed shape as ``comment``, but
        the thread's total is fixed, so threads of one size carry about the
        same number of tokens.
        """
        spare = size * (MEAN_WORDS - 3)
        counts = 3 + np.floor(rng.dirichlet([COMMENT_SHAPE] * size) * spare).astype(int)
        counts[: size * MEAN_WORDS - int(counts.sum())] += 1
        return counts.tolist()


def _reply_tree(rng: np.random.Generator, size: int) -> list:
    """Parent index for comments 1..size-1 of one thread (0 is the root).

    Mixing "reply to the latest comment" with "reply to any comment" gives
    both deep chains and wide fans, so depth varies from thread to thread.
    """
    parents = [None]
    for i in range(1, size):
        chain = rng.random() < 0.45
        parents.append(i - 1 if chain else int(rng.integers(i)))
    return parents


class ForumGenerator:
    """Pushshift-style submission records with embedded comment forests."""

    def __init__(self, text: TextGenerator):
        self.text = text

    def post(self, rng: np.random.Generator, post_id: str, thread_sizes,
             fates=None, dangling: int = 0, fixed_lengths: bool = False) -> dict:
        """One post record with a thread per entry of ``thread_sizes``.

        ``fates`` holds one entry per thread: None for a clean thread, or
        "negative_lead" / "child_before_parent".  ``dangling`` extra comments
        reply to ids missing from the dump.  ``fixed_lengths`` fixes each
        thread's word total (see ``thread_lengths``).  Post-level flags are
        set by the caller on the returned record.
        """
        fates = fates or [None] * len(thread_sizes)
        ts = int(1_600_000_000 + rng.integers(10 ** 7))
        comments = []
        for t, (size, fate) in enumerate(zip(thread_sizes, fates)):
            parents = _reply_tree(rng, size)
            ids = [f"{post_id}_{t}_{i}" for i in range(size)]
            stamps = []
            for i in range(size):
                ts += int(rng.integers(1, 600))
                stamps.append(ts)
            lengths = self.text.thread_lengths(rng, size) if fixed_lengths else None
            if fate == "child_before_parent" and size > 1:
                child = int(rng.integers(1, size))
                stamps[child] = stamps[parents[child]] - int(rng.integers(1, 60))
            for i in range(size):
                score = int(rng.integers(0, 200))
                if i == 0 and fate == "negative_lead":
                    score = -int(rng.integers(1, 50))
                comments.append({
                    "id": ids[i],
                    "parent_id": f"t3_{post_id}" if i == 0 else f"t1_{ids[parents[i]]}",
                    "created_utc": stamps[i],
                    "author": f"user{int(rng.integers(5000))}",
                    "body": (self.text.words(rng, lengths[i]) if lengths
                             else self.text.comment(rng)),
                    "score": score,
                })
        for d in range(dangling):
            ts += int(rng.integers(1, 600))
            comments.append({
                "id": f"{post_id}_x{d}", "parent_id": f"t1_{post_id}_deleted{d}",
                "created_utc": ts, "author": f"user{int(rng.integers(5000))}",
                "body": self.text.comment(rng), "score": int(rng.integers(0, 20)),
            })
        order = rng.permutation(len(comments))
        record = {
            "id": post_id,
            "subreddit": _SUBREDDITS[rng.integers(len(_SUBREDDITS))],
            "title": self.text.words(rng, 6 + int(rng.integers(10))),
            "score": int(rng.integers(0, 5000)),
            "comments": [comments[i] for i in order],
        }
        return record

    def dump(self, seed: int, n_posts: int):
        """A raw dump hitting every corpus filter at FILTER_RATES.

        Thread counts (1-6 per post), thread sizes and filter cases are
        fixed multisets dealt out by the seed, so every seed's dump has the
        same amount of work in a different arrangement: a third of the
        threads fall under the 10-comment minimum, the rest are log-normal
        around 24 comments, up to 60.

        Returns (records, expected) where ``expected`` holds the statistics
        the corpus pipeline must report, derived independently from the
        fates dealt here.
        """
        rng = np.random.default_rng([seed, 1])

        def deal(values):
            return [values[i] for i in rng.permutation(len(values))]

        def share(rate, total):
            return int(round(rate * total))

        per_post = deal([1 + (6 * k) // n_posts for k in range(n_posts)])
        total = sum(per_post)
        n_small = share(1 / 3, total)
        small = [1 + (k * (MIN_COMMENTS - 1)) // n_small for k in range(n_small)]
        large = quantile_sizes(total - n_small, 24, 0.45, MIN_COMMENTS, 60)
        sizes = deal(small + large)
        n_bad_tree = share(FILTER_RATES["child_before_parent"], total)
        n_neg_lead = share(FILTER_RATES["negative_lead"], total)
        fates = deal(["child_before_parent"] * n_bad_tree + ["negative_lead"] * n_neg_lead
                     + [None] * (total - n_bad_tree - n_neg_lead))
        # a single comment cannot be stamped before its parent
        fates = [None if f == "child_before_parent" and n == 1 else f
                 for f, n in zip(fates, sizes)]
        # flagged posts take thread counts in a fixed cycle, so the number of
        # threads each post-level filter removes does not swing with the seed
        by_count = {c: deal([p for p in range(n_posts) if per_post[p] == c]) for c in range(1, 7)}
        flags = (["nsfw"] * share(FILTER_RATES["nsfw"], n_posts)
                 + ["quarantine", "is_video", "post_hint"] * 2
                 + ["quarantine"] * (share(FILTER_RATES["media_or_quarantine"], n_posts) - 6)
                 + ["negative_title"] * share(FILTER_RATES["negative_title"], n_posts))
        post_flags = [None] * n_posts
        for k, flag in enumerate(flags):
            post_flags[by_count[1 + k % 6].pop()] = flag

        records = []
        expected = {"posts": n_posts, "threads": 0, "kept": 0, "comments_skipped": 0,
                    "rejected": {}}

        def reject(reason):
            expected["rejected"][reason] = expected["rejected"].get(reason, 0) + 1

        first = 0
        for p, n_threads in enumerate(per_post):
            post_sizes = sizes[first:first + n_threads]
            post_fates = fates[first:first + n_threads]
            first += n_threads
            dangling = int(rng.binomial(sum(post_sizes), FILTER_RATES["dangling_parent"]))
            rec = self.post(rng, f"p{seed}x{p}", post_sizes, post_fates, dangling)
            flag = post_flags[p]
            if flag == "nsfw":
                rec["over_18"] = True
            elif flag == "post_hint":
                rec["post_hint"] = "image"
            elif flag == "negative_title":
                rec["score"] = -int(rng.integers(1, 100))
            elif flag is not None:
                rec[flag] = True
            records.append(rec)

            expected["comments_skipped"] += dangling
            for size, fate in zip(post_sizes, post_fates):
                # filter precedence mirrors the documented order: tree
                # validity, size, nsfw, negative score, media/quarantine
                if fate == "child_before_parent":
                    reject("invalid_tree")
                    continue
                expected["threads"] += 1
                if size < MIN_COMMENTS:
                    reject("too_few_comments")
                elif flag == "nsfw":
                    reject("nsfw")
                elif flag == "negative_title" or fate == "negative_lead":
                    reject("negative_score")
                elif flag is not None:
                    reject("media_or_quarantine")
                else:
                    expected["kept"] += 1
        expected["rejected"] = dict(sorted(expected["rejected"].items()))
        return records, expected

    def conversations(self, seed: int, sizes) -> list:
        """Clean single-thread posts, one per requested utterance count."""
        rng = np.random.default_rng([seed, 2])
        return [self.post(rng, f"c{seed}x{i}", [int(n)], fixed_lengths=True)
                for i, n in enumerate(sizes)]


def quantile_sizes(count: int, median: float, sigma: float, lo: int, hi: int) -> list:
    """``count`` sizes at evenly spaced quantiles of a log-normal, ascending.

    Callers arrange them by seed, so every seed gets the same size mix in
    its own order with its own content: the work per run is comparable
    across seeds while a run still spans small and large conversations.
    """
    z = [NormalDist().inv_cdf((k + 0.5) / count) for k in range(count)]
    return [int(np.clip(round(median * np.exp(sigma * v)), lo, hi)) for v in z]
