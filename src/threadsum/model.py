"""Hierarchical summarization model over conversation trees.

Three pre-LN transformer stacks share one token embedding table:

* a token encoder run over every utterance's tokens,
* an utterance encoder whose self-attention scores carry learned
  thread-relation embeddings (same-path depth deltas or an off-path
  bucket), and
* a decoder whose cross-attention memory is the token-level encoder
  output plus its utterance's thread-aware vector broadcast over the
  utterance's tokens, so token detail and thread context both reach
  generation.

Every stack runs on packed [N, d] rows (the tokens of all utterances, the
utterances, or the summary positions of one or b beams), and each attention
is its projections plus one ``ad.attention`` call from packed query rows to
packed key and value rows; only inside that op are rows laid out as heads.
The token encoder runs with its utterances sorted by length, so that the op
pads each of at most three length buckets only to the bucket's own longest
utterance.  The utterance encoder's call adds the ``thread.rel`` terms, by
the formula that ``thread_attention_scores`` also gives.

Only the utterance encoder's attention has a key bias (``utt.*.attn.bk``):
anywhere else a key bias adds one value to all of a query's scores, which
softmax cancels, so it could never learn; there it also meets the relation
vectors in the k·r term.  A projection is one ``ad.linear``, with its bias
if it has one.

The output projection is the transpose of the embedding table (weight
tying): ``decoder_forward`` applies it to ``decoder_states``, and a
training loss hands both to ``ad.cross_entropy``, so it holds no [S, V]
array.  All forwards are pure functions of (parameters, inputs, rng), and
the rng is also the train/eval switch: a forward given a dropout generator
is a training forward, one given none is an inference forward.  The one
impure forward is an incremental decoder step, which appends its positions'
keys and values to the ``DecoderCache`` it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import log1p, log_ndtr, ndtr, ndtri_exp

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .conversation import ConversationTree, num_relation_buckets, relation_index
from .corpus import TrainingInstance
from .tokenizer import Tokenizer

__all__ = [
    "ModelConfig",
    "paper_config",
    "toy_config",
    "Model",
    "ModelInput",
    "ForwardResult",
    "DecoderCache",
    "sinusoidal_pe",
    "count_parameters",
    "fit_instance",
    "encode_instance",
]


# the least value of each field; a token cap holds the bos and one more id
_FIELD_MINIMA = dict(num_layers=1, num_heads=1, d_hidden=1, d_ff=1, vocab_size=1, clip_k=1,
                     max_utterances=1, max_utterance_tokens=2, max_summary_tokens=2,
                     lambda_thread_pred=0)


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = 6
    num_heads: int = 12
    d_hidden: int = 768
    d_ff: int = 3072
    vocab_size: int = 50265
    clip_k: int = 9
    dropout: float = 0.1
    max_utterances: int = 124
    max_utterance_tokens: int = 200
    max_summary_tokens: int = 256
    lambda_thread_pred: float = 1.0  # 0 drops the thread objective (fine-tuning)

    def __post_init__(self):
        for name, least in _FIELD_MINIMA.items():
            if not getattr(self, name) >= least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout!r}")
        if self.d_hidden % self.num_heads != 0:
            raise ValueError(f"d_hidden {self.d_hidden} not divisible by num_heads {self.num_heads}")

    @property
    def d_head(self) -> int:
        return self.d_hidden // self.num_heads

    @property
    def max_decode_len(self) -> int:  # the summary cap less the bos slot
        return self.max_summary_tokens - 1

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


def paper_config() -> ModelConfig:
    return ModelConfig()


def toy_config(**overrides) -> ModelConfig:
    base = dict(num_layers=2, num_heads=2, d_hidden=16, d_ff=32, vocab_size=50,
                clip_k=3, dropout=0.0, max_utterances=16,
                max_utterance_tokens=16, max_summary_tokens=16)
    base.update(overrides)
    return ModelConfig(**base)


def thread_attention_scores(q: Tensor, k: Tensor, rel_table: Tensor, rel_buckets: np.ndarray,
                            d_head: int) -> Tensor:
    """Pre-softmax scores with thread-relation terms, as a constant, by
    ``ad.attention``'s own formula: ``ad.attention_scores``."""
    return Tensor(ad.attention_scores(q.data, k.data, 1.0 / math.sqrt(d_head),
                                      (rel_table.data, rel_buckets)))


def _length_buckets(lengths: np.ndarray) -> List[Tuple[int, int]]:
    """At most three runs [first, stop) of the ascending ``lengths``, chosen
    to minimise the padded score entries, sum over runs of n_b * T_b ** 2
    with T_b the run's longest length; a tie keeps fewer runs."""
    n = len(lengths)
    # square[c] is the squared longest length of a run that stops at c
    square = np.concatenate([[0], lengths.astype(np.int64) ** 2])
    a, b = np.arange(n + 1)[:, None], np.arange(n + 1)[None, :]
    cost = a * square[a] + (b - a) * square[b] + (n - b) * square[n]
    a, b = divmod(int(np.argmin(np.where(a <= b, cost, np.iinfo(np.int64).max))), n + 1)
    cuts = sorted({0, a, b, n})
    return list(zip(cuts[:-1], cuts[1:]))


_PE_CACHE: Dict[Tuple[int, int], np.ndarray] = {}


def sinusoidal_pe(length: int, d_hidden: int) -> np.ndarray:
    """Fixed sine/cosine position table [length, d_hidden] (cached)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    key = (length, d_hidden)
    cached = _PE_CACHE.get(key)
    if cached is not None:
        return cached
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(0, d_hidden, 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, i / d_hidden)
    pe = np.zeros((length, d_hidden), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : d_hidden // 2])
    _PE_CACHE[key] = pe
    return pe


# ---------------------------------------------------------------------------
# parameters


def _parameter_spec(config: ModelConfig) -> List[Tuple[str, Tuple[int, ...], str]]:
    """Every parameter's (name, shape, init kind), in a fixed order; only the
    utterance encoder's attention has a key bias (see the module docstring)."""
    d, ff = config.d_hidden, config.d_ff
    spec = [("embed.tokens", (config.vocab_size, d), "normal"),
            ("thread.rel", (num_relation_buckets(config.clip_k), config.d_head), "normal")]

    def norm(name: str) -> None:
        spec.extend([(f"{name}.g", (d,), "ones"), (f"{name}.b", (d,), "zeros")])

    for stack, blocks in (("tok", ("attn",)), ("utt", ("attn",)), ("dec", ("self", "cross"))):
        for layer in range(config.num_layers):
            pre = f"{stack}.{layer}"
            for ln, block in enumerate(blocks, start=1):
                norm(f"{pre}.ln{ln}")
                for c in "qkvo":
                    spec.append((f"{pre}.{block}.w{c}", (d, d), "normal"))
                    if c != "k" or stack == "utt":
                        spec.append((f"{pre}.{block}.b{c}", (d,), "zeros"))
            norm(f"{pre}.ln{len(blocks) + 1}")
            spec.extend([(f"{pre}.ff.w1", (d, ff), "normal"), (f"{pre}.ff.b1", (ff,), "zeros"),
                         (f"{pre}.ff.w2", (ff, d), "normal"), (f"{pre}.ff.b2", (d,), "zeros")])
        norm(f"{stack}.final_ln")
    spec.extend([("tp.wa", (d, d), "normal"), ("tp.wb", (d, d), "normal")])
    return spec


def count_parameters(config: ModelConfig) -> int:
    return sum(int(np.prod(shape)) for _, shape, _ in _parameter_spec(config))


# the init kinds that are excluded from weight decay (norm gains and biases)
NO_DECAY_KINDS = ("ones", "zeros")


INIT_BLOCK_ROWS = 4096
# the two constants of truncnorm's ppf on [-2, 2]: log Phi(-2) and the log
# of the mass inside the cut, as scipy forms them
_LOG_PHI_A = log_ndtr(-2.0)
_LOG_MASS = log1p(-ndtr(-2.0) - ndtr(-2.0))


def truncated_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """``truncnorm.rvs(-2, 2, scale=0.02, size=shape, random_state=rng)``, bit for bit.

    scipy draws one uniform array and maps all of it through the ppf at once,
    whose temporaries peak at several times the table, and re-derives the
    ppf's two constants for every entry; here they are derived once and the
    same uniforms are mapped INIT_BLOCK_ROWS rows at a time, in place, by the
    same formula: Phi^-1(exp(logsumexp(log Phi(a), log u + log mass))).  The
    two-term logsumexp is written out in scipy's order, hi + log1p(exp(lo -
    hi)) with hi the larger term (a tie gives log1p(1) + hi, which is scipy's
    log 2 + hi).
    """
    u = rng.uniform(size=shape)
    rows = u.reshape(len(u), -1)
    for start in range(0, len(rows), INIT_BLOCK_ROWS):
        block = rows[start:start + INIT_BLOCK_ROWS]
        np.log(block, out=block)
        block += _LOG_MASS
        hi = np.maximum(block, _LOG_PHI_A)
        np.minimum(block, _LOG_PHI_A, out=block)
        block -= hi
        np.exp(block, out=block)
        np.log1p(block, out=block)
        block += hi
        ndtri_exp(block, out=block)
        block *= 0.02
    return u


def init_parameters(config: ModelConfig, seed: int) -> Dict[str, Parameter]:
    """Truncated-normal (sigma 0.02, cut at 2 sigma) weights, unit/zero norms."""
    rng = np.random.default_rng(seed)
    params: Dict[str, Parameter] = {}
    for name, shape, kind in _parameter_spec(config):
        if kind == "normal":
            data = truncated_normal(rng, shape)
        else:
            data = np.ones(shape) if kind == "ones" else np.zeros(shape)
        params[name] = Parameter(name, data, decay=kind not in NO_DECAY_KINDS)
    return params


# ---------------------------------------------------------------------------
# inputs


@dataclass
class ModelInput:
    token_ids: List[List[int]]  # per utterance, bos-prefixed
    relation_buckets: np.ndarray  # [n, n] bucket index per utterance pair
    ancestors: np.ndarray  # [n, n] bool; [i, j] = j is a strict ancestor of i
    summary_input: np.ndarray  # decoder input ids, starts with bos
    summary_target: np.ndarray  # next-token targets, ends with eos

    @classmethod
    def build(cls, tree: ConversationTree, token_ids: List[List[int]],
              summary_ids: List[int], clip_k: int) -> "ModelInput":
        """The input of ``tree`` with its utterances' bos-prefixed ``token_ids``
        and the summary's ids from bos to eos, split into inputs and targets."""
        return cls(token_ids=token_ids,
                   relation_buckets=relation_index(tree, clip_k),
                   ancestors=tree.ancestor_matrix(),
                   summary_input=np.asarray(summary_ids[:-1], dtype=np.int64),
                   summary_target=np.asarray(summary_ids[1:], dtype=np.int64))


@dataclass
class ForwardResult:
    logits: Tensor  # [S, V]
    token_bos: Tensor  # [n, d] token-encoder output at each utterance's bos


KeysValues = Tuple[np.ndarray, np.ndarray]  # (K, V), packed rows


@dataclass
class DecoderCache:
    """What an incremental ``decoder_forward`` keeps per decoder layer.

    ``cross`` holds the keys and values of the memory, projected once
    (``[M, d]``) and shared by every beam; ``self_kv`` those of the
    ``length`` summary positions decoded so far, one row per beam
    (``[b, T, d]``).  Neither a forward nor ``reorder`` writes into a
    held array: both rebind ``self_kv`` entries.
    """

    cross: List[KeysValues]
    self_kv: List[KeysValues]
    length: int = 0

    def reorder(self, rows: Sequence[int]) -> None:
        """Make beam ``rows[i]`` the new row i; rows may repeat or be dropped."""
        rows = np.asarray(rows, dtype=np.int64)
        self.self_kv = [(np.take(k, rows, axis=0), np.take(v, rows, axis=0))
                        for k, v in self.self_kv]


def fit_instance(config: ModelConfig, tok: Tokenizer, instance: TrainingInstance,
                 encode_cut: bool = True):
    """``instance`` cut to the config's caps by ``Tokenizer.fit``, itself if
    nothing is cut, with each kept utterance's ids and the summary's: the
    first ``max_utterances`` utterances (ancestor-closed, as a parent precedes
    its children) of ``max_utterance_tokens`` ids with the bos, and a summary
    of ``max_summary_tokens`` with bos and eos.  With ``encode_cut`` false no
    ids are returned: each id slot is None."""
    kept, token_ids = [], []
    for u in instance.tree.utterances[: config.max_utterances]:
        text, ids = tok.fit(u.text, config.max_utterance_tokens - 1, encode_cut)
        kept.append(u if text is u.text else replace(u, text=text))
        token_ids.append(ids)
    summary, summary_ids = tok.fit(instance.pseudo_summary, config.max_summary_tokens - 2, encode_cut)
    if summary is not instance.pseudo_summary or kept != list(instance.tree.utterances):
        instance = TrainingInstance(ConversationTree(kept), summary, instance.source_meta)
    return instance, token_ids, summary_ids


def encode_instance(config: ModelConfig, tok: Tokenizer, instance: TrainingInstance) -> ModelInput:
    """The model input of ``instance`` cut by ``fit_instance``: each kept text
    is encoded once, and a cut one again after its cut."""
    fitted, token_ids, summary_ids = fit_instance(config, tok, instance)
    bos = [tok.bos_id]
    return ModelInput.build(fitted.tree, [bos + ids for ids in token_ids],
                            bos + summary_ids + [tok.eos_id], config.clip_k)


def _check_ids(ids: np.ndarray, vocab_size: int) -> None:
    # a negative id would silently index from the end of the table
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise IndexError(f"token id out of vocabulary of size {vocab_size}")


# ---------------------------------------------------------------------------
# model


class Model:
    def __init__(self, config: ModelConfig, params: Dict[str, Parameter]):
        expected = {name for name, _, _ in _parameter_spec(config)}
        if set(params) != expected:
            missing = expected - set(params)
            extra = set(params) - expected
            raise ValueError(f"parameter set mismatch (missing {sorted(missing)}, extra {sorted(extra)})")
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: ModelConfig, seed: int) -> "Model":
        return cls(config, init_parameters(config, seed))

    def parameters(self) -> List[Parameter]:
        return [self.params[name] for name, _, _ in _parameter_spec(self.config)]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- shared blocks ------------------------------------------------------

    def _proj(self, x: Tensor, prefix: str, which: str) -> Tensor:
        return ad.linear(x, self.params[f"{prefix}.w{which}"], self.params.get(f"{prefix}.b{which}"))

    def _attention(self, prefix: str, x: Tensor, layout: ad.Layout, rng,
                   kv: Optional[Tuple[Tensor, Tensor]] = None,
                   rel_buckets: Optional[np.ndarray] = None) -> Tensor:
        """Multi-head attention from the packed rows ``x`` to the packed key
        and value rows ``kv`` or, without it, to ``x``'s own projections;
        ``layout`` and ``rel_buckets`` (the ``thread.rel`` terms) are
        ``ad.attention``'s."""
        if kv is None:
            kv = (self._proj(x, prefix, "k"), self._proj(x, prefix, "v"))
        rel = None if rel_buckets is None else (self.params["thread.rel"], rel_buckets)
        out = ad.attention(self._proj(x, prefix, "q"), *kv, self.config.num_heads, layout, rng,
                           self.config.dropout, rel)
        return self._proj(out, prefix, "o")

    def _layer_norm(self, x: Tensor, name: str) -> Tensor:
        return ad.layer_norm(x, self.params[f"{name}.g"], self.params[f"{name}.b"])

    def _feed_forward(self, x: Tensor, prefix: str) -> Tensor:
        p = self.params
        hidden = ad.gelu(ad.linear(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
        return ad.linear(hidden, p[f"{prefix}.w2"], p[f"{prefix}.b2"])

    def _sublayer(self, x: Tensor, out: Tensor, rng) -> Tensor:
        return ad.add(x, ad.dropout(out, self.config.dropout, rng))

    # -- encoder stacks -----------------------------------------------------

    def _encoder_stack(self, stack: str, x: Tensor, layout: ad.Layout, rng,
                       rel_buckets: Optional[np.ndarray] = None) -> Tensor:
        """The layers and final norm of encoder ``stack`` over the packed rows
        ``x``, whose attention runs on the buckets of ``layout``."""
        for layer in range(self.config.num_layers):
            pre = f"{stack}.{layer}"
            normed = self._layer_norm(x, f"{pre}.ln1")
            a = self._attention(f"{pre}.attn", normed, layout, rng, rel_buckets=rel_buckets)
            x = self._sublayer(x, a, rng)
            f = self._feed_forward(self._layer_norm(x, f"{pre}.ln2"), f"{pre}.ff")
            x = self._sublayer(x, f, rng)
        return self._layer_norm(x, f"{stack}.final_ln")

    def token_encode(self, token_ids: List[List[int]], rng=None) -> Tuple[Tensor, np.ndarray]:
        """Run the token encoder over all utterances' tokens, packed.

        Returns ([N, d] states, one row per token with the utterances in
        order, and the [n] lengths).  The stack runs with the utterances
        sorted by length, so that the attention core can pad each of a few
        buckets of them (``_length_buckets``) only to its own longest
        utterance, with the padded keys masked out; one gather at the end
        restores utterance order.
        """
        cfg = self.config
        lengths = np.array([len(ids) for ids in token_ids], dtype=np.int64)
        if lengths.min() < 1 or lengths.max() > cfg.max_utterance_tokens:
            raise ValueError("utterance token sequences must have 1..max_utterance_tokens ids")
        # the rows with the utterances sorted by length; the sort is stable,
        # so each utterance's rows stay together and in order
        order = np.argsort(np.repeat(lengths, lengths), kind="stable")
        ids = np.concatenate(token_ids).astype(np.int64)[order]
        _check_ids(ids, cfg.vocab_size)
        sorted_lengths = np.sort(lengths)
        layout = []
        for first, stop in _length_buckets(sorted_lengths):
            valid = np.arange(sorted_lengths[stop - 1]) < sorted_lengths[first:stop, None]
            layout.append((valid, valid, np.where(valid, 0.0, -1e9)[:, None, None, :]))
        positions = np.concatenate([np.nonzero(valid)[1] for valid, _, _ in layout])

        x = self.params["embed.tokens"][ids]
        x = ad.add(x, Tensor(sinusoidal_pe(int(lengths.max()), cfg.d_hidden)[positions]))
        x = ad.dropout(x, cfg.dropout, rng)
        states = self._encoder_stack("tok", x, layout, rng)
        return states[np.argsort(order)], lengths

    def utterance_representations(self, token_bos: Tensor) -> Tensor:
        """Per-utterance vectors: bos output + position-in-conversation PE."""
        return ad.add(token_bos, Tensor(sinusoidal_pe(token_bos.shape[0], self.config.d_hidden)))

    def utterance_encode(self, utt_repr: Tensor, relation_buckets: np.ndarray, rng=None) -> Tensor:
        """The thread-aware stack over the [n, d] utterance rows, one unpadded sequence."""
        valid = np.ones((1, utt_repr.shape[0]), dtype=bool)
        layout = [(valid, valid, None)]
        return self._encoder_stack("utt", utt_repr, layout, rng, rel_buckets=relation_buckets)

    def build_decoder_memory(self, token_states: Tensor, lengths: np.ndarray,
                             utt_states: Tensor) -> Tensor:
        """Cross-attention memory, one row per token in ``token_encode``'s
        order; see module docstring for the residual."""
        return ad.add(token_states, utt_states[np.repeat(np.arange(len(lengths)), lengths)])

    def decoder_cache(self, memory: Tensor) -> DecoderCache:
        """An empty one-beam cache for incremental decoding against ``memory``."""
        cfg = self.config
        with ad.no_grad():
            cross = [tuple(self._proj(memory, f"dec.{i}.cross", c).data for c in "kv")
                     for i in range(cfg.num_layers)]
        empty = np.empty((1, 0, cfg.d_hidden))
        return DecoderCache(cross, [(empty, empty)] * cfg.num_layers)

    def decoder_states(self, summary_input: np.ndarray, memory: Tensor, rng=None,
                       cache: Optional[DecoderCache] = None) -> Tensor:
        """Final-norm states [s, d] for the s summary positions given.

        With a ``cache`` (inference only), ``summary_input`` is [b, s]: for
        each of the cache's b beams, the s positions after the
        ``cache.length`` already decoded.  They run as b·s packed rows and
        attend to their beam's cached keys and values as well as their own,
        which are appended; in cross-attention they are one query sequence
        against the cache's memory keys and values.
        """
        cfg = self.config
        if cache is not None and rng is not None:
            raise ValueError("a decoder cache is for inference only; it takes no dropout rng")
        if cache is not None and summary_input.ndim != 2:
            raise ValueError("with a decoder cache, summary_input is [beams, positions]")
        start = 0 if cache is None else cache.length
        s = summary_input.shape[-1]
        if start + s > cfg.max_summary_tokens:
            raise ValueError(f"summary length {start + s} exceeds max {cfg.max_summary_tokens}")
        _check_ids(summary_input, cfg.vocab_size)
        valid = np.ones(np.atleast_2d(summary_input).shape, dtype=bool)  # [b, s]
        b = len(valid)
        # each query row attends to the memory on its own, so every beam's
        # rows meet the one memory projection as a single sequence
        cross_layout = [(valid.reshape(1, -1), np.ones((1, memory.shape[0]), dtype=bool), None)]
        self_layout = [(valid, np.ones((b, start + s), dtype=bool),
                        np.triu(np.full((s, start + s), -1e9), k=1 + start))]
        positions = start + np.nonzero(valid)[1]

        x = self.params["embed.tokens"][summary_input.reshape(-1)]
        x = ad.add(x, Tensor(sinusoidal_pe(cfg.max_summary_tokens, cfg.d_hidden)[positions]))
        x = ad.dropout(x, cfg.dropout, rng)
        for layer in range(cfg.num_layers):
            pre = f"dec.{layer}"
            normed = self._layer_norm(x, f"{pre}.ln1")
            if cache is None:
                self_kv = None
                cross_kv = tuple(self._proj(memory, f"{pre}.cross", c) for c in "kv")
            else:
                new = (self._proj(normed, f"{pre}.self", c).data.reshape(b, s, -1) for c in "kv")
                cache.self_kv[layer] = tuple(np.concatenate([past, rows], axis=1)
                                             for past, rows in zip(cache.self_kv[layer], new))
                self_kv = tuple(Tensor(t.reshape(-1, cfg.d_hidden)) for t in cache.self_kv[layer])
                cross_kv = tuple(map(Tensor, cache.cross[layer]))
            a = self._attention(f"{pre}.self", normed, self_layout, rng, kv=self_kv)
            x = self._sublayer(x, a, rng)
            c = self._attention(f"{pre}.cross", self._layer_norm(x, f"{pre}.ln2"), cross_layout, rng,
                                kv=cross_kv)
            x = self._sublayer(x, c, rng)
            f = self._feed_forward(self._layer_norm(x, f"{pre}.ln3"), f"{pre}.ff")
            x = self._sublayer(x, f, rng)
        if cache is not None:
            cache.length += s
        return self._layer_norm(x, "dec.final_ln")

    def decoder_forward(self, summary_input: np.ndarray, memory: Tensor, rng=None,
                        cache: Optional[DecoderCache] = None) -> Tensor:
        """Next-token logits [s, V] of ``decoder_states``, or [b, s, V] with a ``cache``."""
        logits = ad.matmul_transposed(self.decoder_states(summary_input, memory, rng, cache),
                                      self.params["embed.tokens"])
        if cache is None:
            return logits
        return Tensor(logits.data.reshape(summary_input.shape + (-1,)))

    # -- full passes ----------------------------------------------------------

    def encode_conversation(self, mi: ModelInput, rng=None):
        token_states, lengths = self.token_encode(mi.token_ids, rng)
        token_bos = token_states[np.cumsum(lengths) - lengths]
        utt_repr = self.utterance_representations(token_bos)
        utt_states = self.utterance_encode(utt_repr, mi.relation_buckets, rng)
        memory = self.build_decoder_memory(token_states, lengths, utt_states)
        return token_bos, utt_states, memory

    def forward(self, mi: ModelInput, rng=None) -> ForwardResult:
        """Summary logits; ``rng`` given means a training forward with dropout."""
        token_bos, _, memory = self.encode_conversation(mi, rng)
        logits = self.decoder_forward(mi.summary_input, memory, rng)
        return ForwardResult(logits=logits, token_bos=token_bos)
