"""Beam search over the decoder with trigram blocking.

Hypotheses carry accumulated log-probability and are ranked by the
length-normalized score logp / len**penalty.  An extension that would repeat
a trigram already present in that hypothesis is assigned -inf before ranking,
so no emitted sequence ever contains a duplicate trigram.  Decoding is
model-agnostic: anything that maps a token prefix to next-token log-probs
works, which is what the brute-force test oracles rely on.

Two such maps wrap the model.  ``generate_summary`` decodes through
``IncrementalDecoder``, which extends the decoder state cached for a prefix's
parent by one position per call.  ``model_decode_fn`` re-runs the decoder
over the whole prefix each call; it is the reference the incremental path is
checked against.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import log_softmax

from .autodiff import no_grad
from .conversation import ConversationTree
from .corpus import TrainingInstance
from .model import DecoderCache, Model, ModelInput, encode_instance

DecodeFn = Callable[[Sequence[int]], np.ndarray]


@dataclass
class BeamHypothesis:
    tokens: List[int]  # includes the leading bos
    log_prob: float
    finished: bool = False

    def generated(self, bos_len: int = 1) -> List[int]:
        return self.tokens[bos_len:]

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


def beam_search(decode_fn: DecodeFn, bos_id: int, eos_id: int, max_len: int,
                beam_size: int = 4, length_penalty: float = 1.0,
                min_len: int = 1, block_trigrams: bool = True) -> BeamHypothesis:
    """Length-normalized beam search; returns the best hypothesis.

    decode_fn maps the full prefix (bos included) to a log-probability row
    over the vocabulary.  max_len caps generated tokens, eos included; at the
    cap unfinished hypotheses are force-finished.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    beams = [BeamHypothesis([bos_id], 0.0)]
    for _ in range(max_len):
        if all(h.finished for h in beams):
            break
        candidates = []
        for hyp in beams:
            if hyp.finished:
                candidates.append(hyp)
                continue
            row = np.asarray(decode_fn(hyp.tokens), dtype=float).copy()
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
                                                 finished=int(t) == eos_id))
        if not candidates:
            break  # everything blocked; keep previous beams
        candidates.sort(key=lambda h: (-h.score(length_penalty), len(h.tokens)))
        beams = candidates[:beam_size]
    for hyp in beams:
        hyp.finished = True
    return max(beams, key=lambda h: h.score(length_penalty))


def greedy_decode(decode_fn: DecodeFn, bos_id: int, eos_id: int, max_len: int,
                  min_len: int = 1, block_trigrams: bool = True) -> BeamHypothesis:
    return beam_search(decode_fn, bos_id, eos_id, max_len, beam_size=1,
                       length_penalty=1.0, min_len=min_len,
                       block_trigrams=block_trigrams)


# ---------------------------------------------------------------------------
# model plumbing


def conversation_input(config, tokenizer, tree: ConversationTree) -> ModelInput:
    """Encoder-side inputs for a bare conversation (no reference summary)."""
    return encode_instance(config, tokenizer, TrainingInstance(tree, ""))


def model_decode_fn(model: Model, memory) -> DecodeFn:
    if memory.shape[0] == 0:
        raise ValueError("decoder memory is empty")

    def decode_fn(prefix):
        with no_grad():
            logits = model.decoder_forward(np.asarray(prefix), memory)
        return log_softmax(logits.data[-1])

    return decode_fn


class IncrementalDecoder:
    """A ``DecodeFn`` that decodes each prefix one position past its parent's.

    The decoder cache of every prefix of the newest two lengths is held, so
    each beam step extends the previous step's states by one token.  A prefix
    whose parent is not held is decoded from its longest held ancestor, or
    from scratch, so any visiting order gives the full-prefix answer.
    Extensions fork the parent's cache and never write into its arrays,
    which up to beam_size children share.
    """

    def __init__(self, model: Model, memory):
        if memory.shape[0] == 0:
            raise ValueError("decoder memory is empty")
        self.model = model
        self.memory = memory
        self.root = model.decoder_cache(memory)
        self.states: Dict[Tuple[int, ...], DecoderCache] = {}
        self.newest = 0

    def __call__(self, prefix: Sequence[int]) -> np.ndarray:
        key = tuple(int(t) for t in prefix)
        if len(key) > self.newest:
            self.newest = len(key)
            self.states = {p: c for p, c in self.states.items() if len(p) >= self.newest - 1}
        held = next((key[:n] for n in range(len(key) - 1, 0, -1) if key[:n] in self.states), ())
        cache = (self.states[held] if held else self.root).fork()
        with no_grad():
            logits = self.model.decoder_forward(np.asarray(key[len(held):]), self.memory,
                                                cache=cache)
        self.states[key] = cache
        return log_softmax(logits.data[-1])


def generate_summary(model: Model, tokenizer, tree: ConversationTree,
                     beam_size: int = 4, length_penalty: float = 1.0,
                     max_len: Optional[int] = None, min_len: int = 1,
                     block_trigrams: bool = True) -> str:
    """Beam-decode a summary for one conversation and detokenize it."""
    mi = conversation_input(model.config, tokenizer, tree)
    with no_grad():
        _, _, memory = model.encode_conversation(mi)
    if max_len is None:
        max_len = model.config.max_summary_tokens - 1  # room for the bos slot
    best = beam_search(IncrementalDecoder(model, memory),
                       tokenizer.bos_id, tokenizer.eos_id, max_len,
                       beam_size=beam_size, length_penalty=length_penalty,
                       min_len=min_len, block_trigrams=block_trigrams)
    structural = {tokenizer.bos_id, tokenizer.eos_id, tokenizer.pad_id}
    ids = [t for t in best.generated() if t not in structural]
    return tokenizer.decode(ids).strip()
