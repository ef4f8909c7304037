"""Conversation trees: utterances with reply links, depth, and path relations.

A conversation is an ordered sequence of utterances where every utterance
except the first replies to an earlier one.  The reply links form a tree
rooted at the first utterance, and the tree structure is what the rest of
the package consumes: depth differences drive the relative attention
buckets, and ancestor relations label the thread-prediction pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Utterance",
    "ConversationTree",
    "relation_index",
    "num_relation_buckets",
]


class TreeError(ValueError):
    """Raised when utterances do not form a valid conversation tree."""


@dataclass(frozen=True)
class Utterance:
    """One turn of a conversation.

    Inside a tree, ``id`` is the dense position index (0..n-1) and
    ``parent_id`` is None only for the root.  A comment parsed from a post
    dump carries its source ids (strings) until ``ConversationTree.from_records``
    re-indexes it, keeping the original id under ``meta['source_id']``.
    ``score`` carries net upvotes where the source provides them.
    """

    id: int
    author: str
    text: str
    timestamp: int = 0
    parent_id: Optional[int] = None
    role: Optional[str] = None
    score: Optional[int] = None
    meta: dict = field(default_factory=dict, compare=False)


class ConversationTree:
    """Immutable tree of utterances, ordered by (timestamp, id).

    Invariants checked at construction:
      * utterance ``id`` equals its position (dense 0..n-1),
      * exactly one root, at position 0,
      * every parent precedes its child in the sequence,
      * a parent's timestamp is strictly below its child's.
    """

    __slots__ = ("utterances", "_depths")

    def __init__(self, utterances: Sequence[Utterance]):
        utterances = tuple(utterances)
        if not utterances:
            raise TreeError("a conversation tree needs at least one utterance")
        for pos, u in enumerate(utterances):
            if u.id != pos:
                raise TreeError(f"utterance ids must be dense: position {pos} has id {u.id}")
        if utterances[0].parent_id is not None:
            raise TreeError("the first utterance must be the root (no parent)")
        depths = [0] * len(utterances)
        for pos, u in enumerate(utterances[1:], start=1):
            if u.parent_id is None:
                raise TreeError(f"utterance {pos} has no parent but is not the root")
            if not 0 <= u.parent_id < pos:
                raise TreeError(f"utterance {pos} replies to {u.parent_id}, which does not precede it")
            parent = utterances[u.parent_id]
            if not parent.timestamp < u.timestamp:
                raise TreeError(
                    f"utterance {pos} (t={u.timestamp}) must come strictly after "
                    f"its parent {u.parent_id} (t={parent.timestamp})"
                )
            depths[pos] = depths[u.parent_id] + 1
        prev = utterances[0]
        for u in utterances[1:]:
            if (u.timestamp, u.id) <= (prev.timestamp, prev.id):
                raise TreeError("utterances must be sorted by (timestamp, id)")
            prev = u
        self.utterances = utterances
        self._depths = tuple(depths)

    def __len__(self) -> int:
        return len(self.utterances)

    def __getitem__(self, i: int) -> Utterance:
        return self.utterances[i]

    def __iter__(self):
        return iter(self.utterances)

    def __eq__(self, other) -> bool:
        return isinstance(other, ConversationTree) and self.utterances == other.utterances

    def __repr__(self) -> str:
        return f"ConversationTree(n={len(self)})"

    @classmethod
    def from_records(cls, records: Iterable[Utterance]) -> "ConversationTree":
        """Build a tree from utterances carrying arbitrary (e.g. string) ids.

        Records are sorted by (timestamp, str(id)), re-indexed densely, and
        parent references remapped.  Original ids are kept under
        ``meta['source_id']``.
        """
        ordered = sorted(records, key=lambda u: (u.timestamp, str(u.id)))
        remap = {u.id: pos for pos, u in enumerate(ordered)}
        rebuilt = []
        for pos, u in enumerate(ordered):
            parent = None
            if u.parent_id is not None:
                if u.parent_id not in remap:
                    raise TreeError(f"utterance {u.id} replies to unknown id {u.parent_id}")
                parent = remap[u.parent_id]
            meta = dict(u.meta)
            meta.setdefault("source_id", u.id)
            rebuilt.append(replace(u, id=pos, parent_id=parent, meta=meta))
        return cls(rebuilt)

    def depth(self, i: int) -> int:
        """Number of reply edges from utterance ``i`` up to the root."""
        return self._depths[i]

    def ancestor_matrix(self) -> np.ndarray:
        """Boolean [n, n] matrix with entry (i, j) true iff j is a strict ancestor of i."""
        n = len(self)
        out = np.zeros((n, n), dtype=bool)
        for i in range(n):
            node = self.utterances[i].parent_id
            while node is not None:
                out[i, node] = True
                node = self.utterances[node].parent_id
        return out


def num_relation_buckets(k: int) -> int:
    """Size of the learnable relation table: one off-path bucket plus 2k+1 depth deltas."""
    return 2 * k + 2


def relation_index(tree: ConversationTree, k: int) -> np.ndarray:
    """Integer [n, n] matrix of relation-embedding indices for a tree.

    Bucket 0 holds off-path pairs; buckets 1..2k+1 hold same-path pairs,
    indexed by the depth difference ``depth(i) - depth(j)`` clamped into
    [-k, k] (bucket ``1 + k + delta``).  Same-path means one is an ancestor of
    the other, or i == j.
    """
    n = len(tree)
    anc = tree.ancestor_matrix()
    depths = np.array([tree.depth(i) for i in range(n)])
    same = anc | anc.T | np.eye(n, dtype=bool)
    delta = np.clip(depths[:, None] - depths[None, :], -k, k)
    return np.where(same, 1 + k + delta, 0).astype(np.int64)
