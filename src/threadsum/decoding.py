"""Beam search over the decoder with trigram blocking.

Hypotheses carry accumulated log-probability and are ranked by the
length-normalized score logp / len**penalty.  An extension that would repeat
a trigram already present in that hypothesis is assigned -inf before ranking,
so no emitted sequence ever contains a duplicate trigram.

The search is model-agnostic and makes one call per beam step to a batch
step, ``step(prefixes, parents) -> [n, V]`` log-probs for the n unfinished
prefixes, where prefix i extends row ``parents[i]`` of the previous call by
one token (the first call's lone bos prefix extends row 0).
``beam_search`` lifts a per-prefix ``DecodeFn`` (prefix -> log-prob row) by
stacking its rows, which is what the brute-force test oracles rely on.

Two maps wrap the model.  ``generate_summary`` decodes through
``cached_step``, whose decoder cache holds one row of self-attention keys
and values per live hypothesis: each step reorders the rows to the
hypotheses' parents with one ``np.take`` per layer and array, then appends
one position for every hypothesis in a single ``decoder_forward`` call.
``model_decode_fn`` re-runs the decoder over the whole prefix each call; it
is the reference the cached step is checked against.
"""

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .autodiff import no_grad
from .conversation import ConversationTree
from .corpus import TrainingInstance
from .model import Model, ModelInput, encode_instance

DecodeFn = Callable[[Sequence[int]], np.ndarray]
BatchStep = Callable[[List[List[int]], List[int]], np.ndarray]


@dataclass
class BeamHypothesis:
    tokens: List[int]  # includes the leading bos
    log_prob: float
    finished: bool = False
    row: int = 0  # its row in the step call that chose its last token

    def generated(self) -> List[int]:
        return self.tokens[1:]

    def score(self, length_penalty: float) -> float:
        n = max(1, len(self.tokens) - 1)
        return self.log_prob / n ** length_penalty


def banned_continuations(generated: Sequence[int]) -> set:
    """Token ids that would duplicate a trigram already in `generated`."""
    if len(generated) < 2:
        return set()
    seen = {}
    for a, b, c in zip(generated, generated[1:], generated[2:]):
        seen.setdefault((a, b), set()).add(c)
    return seen.get((generated[-2], generated[-1]), set())


def has_repeated_trigram(tokens: Sequence[int]) -> bool:
    grams = list(zip(tokens, tokens[1:], tokens[2:]))
    return len(grams) != len(set(grams))


def top_k(row: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries, ties to the lower index.

    Equal to ``np.argsort(-row, kind="stable")[:k]`` but sorts only the
    entries at or above the k-th largest value.
    """
    neg = -row
    if k >= neg.size:
        return np.argsort(neg, kind="stable")
    kth = np.partition(neg, k - 1)[k - 1]
    # not "neg <= kth": a NaN threshold must keep every entry, as argsort would
    candidates = np.flatnonzero(~(neg > kth))
    return candidates[np.argsort(neg[candidates], kind="stable")[:k]]


def batch_beam_search(step: BatchStep, bos_id: int, eos_id: int, max_len: int,
                      beam_size: int = 4, length_penalty: float = 1.0,
                      min_len: int = 1, block_trigrams: bool = True) -> BeamHypothesis:
    """Length-normalized beam search; returns the best hypothesis.

    ``step`` gets the unfinished prefixes (bos included) with each one's row
    in the previous call, and returns one log-probability row over the
    vocabulary per prefix.  max_len caps generated tokens, eos included; at
    the cap unfinished hypotheses are force-finished.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    beams = [BeamHypothesis([bos_id], 0.0)]
    for _ in range(max_len):
        live = [h for h in beams if not h.finished]
        if not live:
            break
        logp = np.array(step([h.tokens for h in live], [h.row for h in live]), dtype=float)
        rows = enumerate(logp)
        candidates = []
        for hyp in beams:
            if hyp.finished:
                candidates.append(hyp)
                continue
            i, row = next(rows)
            gen = hyp.generated()
            if block_trigrams:
                for t in banned_continuations(gen):
                    row[t] = -np.inf
            if len(gen) + 1 < min_len:
                row[eos_id] = -np.inf
            # beam_size best extensions of this hypothesis suffice: the pool
            # keeps at most beam_size survivors overall
            for t in top_k(row, beam_size):
                if row[t] == -np.inf:
                    continue
                candidates.append(BeamHypothesis(hyp.tokens + [int(t)],
                                                 hyp.log_prob + float(row[t]),
                                                 finished=int(t) == eos_id, row=i))
        if not candidates:
            break  # everything blocked; keep previous beams
        candidates.sort(key=lambda h: (-h.score(length_penalty), len(h.tokens)))
        beams = candidates[:beam_size]
    for hyp in beams:
        hyp.finished = True
    return max(beams, key=lambda h: h.score(length_penalty))


def beam_search(decode_fn: DecodeFn, bos_id: int, eos_id: int, max_len: int,
                beam_size: int = 4, length_penalty: float = 1.0,
                min_len: int = 1, block_trigrams: bool = True) -> BeamHypothesis:
    """``batch_beam_search`` over a decode_fn that maps the full prefix (bos
    included) to a log-probability row over the vocabulary."""
    return batch_beam_search(lambda prefixes, parents: np.stack([decode_fn(p) for p in prefixes]),
                             bos_id, eos_id, max_len, beam_size=beam_size,
                             length_penalty=length_penalty, min_len=min_len,
                             block_trigrams=block_trigrams)


# ---------------------------------------------------------------------------
# model plumbing


def conversation_input(config, tokenizer, tree: ConversationTree) -> ModelInput:
    """Encoder-side inputs for a bare conversation under the config's caps."""
    return encode_instance(config, tokenizer, TrainingInstance(tree, ""))


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis in ``scipy.special.log_softmax``'s
    order, so bit for bit its result, without its array-API dispatch."""
    top = x.max(axis=-1, keepdims=True)
    top[~np.isfinite(top)] = 0
    out = x - top
    with np.errstate(divide="ignore"):
        out -= np.log(np.exp(out).sum(axis=-1, keepdims=True))
    return out


def model_decode_fn(model: Model, memory) -> DecodeFn:
    if memory.shape[0] == 0:
        raise ValueError("decoder memory is empty")

    def decode_fn(prefix):
        with no_grad():
            logits = model.decoder_forward(np.asarray(prefix), memory)
        return log_softmax(logits.data[-1])

    return decode_fn


def cached_step(model: Model, memory) -> BatchStep:
    """The model's batch step over a beam-major ``DecoderCache``.

    Each call keeps the cache rows named by ``parents``, in their order, and
    decodes every prefix's positions past the cache (one per beam step) in
    one ``decoder_forward`` call.  No array the cache held is written.
    """
    if memory.shape[0] == 0:
        raise ValueError("decoder memory is empty")
    cache = model.decoder_cache(memory)

    def step(prefixes, parents):
        cache.reorder(parents)
        ids = np.array([p[cache.length:] for p in prefixes], dtype=np.int64)
        with no_grad():
            logits = model.decoder_forward(ids, memory, cache=cache)
        return log_softmax(logits.data[:, -1])

    return step


def generate_summary(model: Model, tokenizer, tree: ConversationTree,
                     beam_size: int = 4, length_penalty: float = 1.0,
                     max_len: Optional[int] = None, min_len: int = 1,
                     block_trigrams: bool = True) -> str:
    """Beam-decode a summary for one conversation and detokenize it."""
    mi = conversation_input(model.config, tokenizer, tree)
    with no_grad():
        _, _, memory = model.encode_conversation(mi)
    if max_len is None:
        max_len = model.config.max_decode_len
    best = batch_beam_search(cached_step(model, memory),
                             tokenizer.bos_id, tokenizer.eos_id, max_len,
                             beam_size=beam_size, length_penalty=length_penalty,
                             min_len=min_len, block_trigrams=block_trigrams)
    structural = {tokenizer.bos_id, tokenizer.eos_id, tokenizer.pad_id}
    ids = [t for t in best.generated() if t not in structural]
    return tokenizer.decode(ids).strip()
