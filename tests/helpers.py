"""Code only the tests use.

Graph ops the tests build losses and oracles with: an elementwise product,
a sum, and ``a @ b^T`` against a right operand with the left's batch axes.
They follow ``threadsum.autodiff``'s rules: operands of one shape, no
broadcasting, and every gradient handed over to its receiver.  A pointwise
ancestry test for conversation trees.  And a BPE trainer for small fixture
vocabularies, with the pair merge it applies to each word.
"""

from typing import Dict, Iterable, List, Tuple

import numpy as np

from threadsum import autodiff as ad
from threadsum.autodiff import ShapeError, Tensor
from threadsum.conversation import ConversationTree
from threadsum.tokenizer import (
    REQUIRED_SPECIALS,
    UNK_TOKEN,
    Tokenizer,
    _symbols,
    pre_tokenize,
)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad._check_same_shape("mul", a, b)
    x, y = a.data, b.data

    def rule(g, an=a.node, bn=b.node):
        if an is not None:
            an.accumulate_grad(g * y)
        if bn is not None:
            bn.accumulate_grad(g * x)

    return ad._make(x * y, (a, b), rule)


def tensor_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def rule(g, xn=x.node):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        xn.accumulate_grad(np.broadcast_to(g, xn.shape).copy())

    return ad._make(x.data.sum(axis=axis, keepdims=keepdims), (x,), rule)


def batched_matmul_transposed(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b^T`` over the last two axes, where ``b`` has ``a``'s batch axes
    ([..., s, k] by [..., t, k]), such as attention scores of heads; ``b``'s
    gradient is g^T a in ``b``'s own layout."""
    x, y = a.data, b.data
    if x.ndim < 3 or y.ndim != x.ndim or x.shape[-1] != y.shape[-1] or x.shape[:-2] != y.shape[:-2]:
        raise ShapeError(f"batched_matmul_transposed shapes {x.shape} and {y.shape} do not align")

    def rule(g, an=a.node, bn=b.node):
        if an is not None:
            an.accumulate_grad(g @ y)
        if bn is not None:
            bn.accumulate_grad(np.swapaxes(g, -1, -2) @ x)

    return ad._make(x @ np.swapaxes(y, -1, -2), (a, b), rule)


def is_ancestor(tree: ConversationTree, j: int, i: int) -> bool:
    """True when utterance ``j`` is a strict ancestor of utterance ``i``."""
    for k in (i, j):
        if not 0 <= k < len(tree):
            raise IndexError(f"utterance index {k} out of range for tree of size {len(tree)}")
    if tree.depth(j) >= tree.depth(i):
        return False
    node = i
    while tree.depth(node) > tree.depth(j):
        node = tree[node].parent_id
    return node == j


def merge_pair(word: Tuple[str, ...], first: str, second: str) -> Tuple[str, ...]:
    """``word`` with each left-to-right occurrence of (first, second) fused into one symbol."""
    merged: List[str] = []
    i, last = 0, len(word) - 1
    while i <= last:
        try:
            j = word.index(first, i)
        except ValueError:
            break
        merged += word[i:j]
        if j < last and word[j + 1] == second:
            merged.append(first + second)
            i = j + 2
        else:
            merged.append(first)
            i = j + 1
    merged += word[i:]
    return tuple(merged)


def train_bpe(texts: Iterable[str], vocab_size: int) -> Tokenizer:
    """Learn a small BPE vocabulary from raw texts (for fixtures).

    Specials come first, then every byte symbol observed in the corpus, then
    merged symbols by descending pair frequency (lexicographic tie-break).
    """
    word_freq: Dict[Tuple[str, ...], int] = {}
    alphabet = set()
    for text in texts:
        for piece in pre_tokenize(text):
            mapped = tuple(_symbols(piece))
            alphabet.update(mapped)
            word_freq[mapped] = word_freq.get(mapped, 0) + 1

    specials = list(REQUIRED_SPECIALS) + [UNK_TOKEN]
    tokens: List[str] = specials + sorted(alphabet)
    if len(tokens) > vocab_size:
        raise ValueError(f"vocab_size {vocab_size} cannot hold {len(tokens)} base symbols")

    merges: List[Tuple[str, str]] = []
    words = dict(word_freq)
    while len(tokens) < vocab_size:
        pair_freq: Dict[Tuple[str, str], int] = {}
        for word, freq in words.items():
            for pair in zip(word, word[1:]):
                pair_freq[pair] = pair_freq.get(pair, 0) + freq
        if not pair_freq:
            break
        # deterministic: highest count, then shortest merged text, then lexicographic
        best = min(pair_freq, key=lambda p: (-pair_freq[p], len(p[0] + p[1]), p))
        merges.append(best)
        tokens.append(best[0] + best[1])
        rebuilt: Dict[Tuple[str, ...], int] = {}
        for word, freq in words.items():
            key = merge_pair(word, *best)
            rebuilt[key] = rebuilt.get(key, 0) + freq
        words = rebuilt

    vocab = {tok: i for i, tok in enumerate(tokens)}
    return Tokenizer(vocab, merges)
