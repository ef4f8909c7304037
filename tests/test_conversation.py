from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadsum.conversation import (
    ConversationTree,
    TreeError,
    Utterance,
    num_relation_buckets,
    relation_index,
)

from helpers import is_ancestor


def u(i, parent, ts, text="x", **kw):
    return Utterance(id=i, author=f"a{i}", text=text, timestamp=ts, parent_id=parent, **kw)


def small_tree():
    # root -> {1 -> 4, 2, 3}
    return ConversationTree([
        u(0, None, 0),
        u(1, 0, 1),
        u(2, 0, 2),
        u(3, 0, 3),
        u(4, 1, 4),
    ])


class TestTreeInvariants:
    def test_depths(self):
        t = small_tree()
        assert [t.depth(i) for i in range(5)] == [0, 1, 1, 1, 2]

    def test_ancestor_is_strict(self):
        t = small_tree()
        assert is_ancestor(t, 0, 4)
        assert is_ancestor(t, 1, 4)
        assert not is_ancestor(t, 4, 4)
        assert not is_ancestor(t, 4, 1)
        assert not is_ancestor(t, 2, 4)

    def test_ancestor_matrix_matches_pointwise(self):
        t = small_tree()
        m = t.ancestor_matrix()
        assert m.dtype == bool and m.shape == (5, 5)
        for i in range(5):
            for j in range(5):
                assert m[i, j] == is_ancestor(t, j, i)

    def test_rejects_nonzero_root(self):
        with pytest.raises(TreeError):
            ConversationTree([u(1, None, 0)])

    def test_rejects_root_with_parent(self):
        with pytest.raises(TreeError):
            ConversationTree([u(0, 0, 0)])

    def test_rejects_second_root(self):
        with pytest.raises(TreeError):
            ConversationTree([u(0, None, 0), u(1, None, 1)])

    def test_rejects_child_before_parent(self):
        with pytest.raises(TreeError):
            ConversationTree([u(0, None, 0), u(1, 2, 1), u(2, 0, 2)])

    def test_rejects_nonmonotone_timestamps(self):
        with pytest.raises(TreeError):
            ConversationTree([u(0, None, 5), u(1, 0, 3)])

    def test_rejects_gap_in_ids(self):
        with pytest.raises(TreeError):
            ConversationTree([u(0, None, 0), u(2, 0, 1)])

    def test_rejects_empty(self):
        with pytest.raises(TreeError):
            ConversationTree([])

    def test_from_records_reindexes(self):
        recs = [u("t3_x", None, 10, text="hi"), u("c9", "t3_x", 20, text="yo")]
        t = ConversationTree.from_records(recs)
        assert [x.id for x in t.utterances] == [0, 1]
        assert t.utterances[1].parent_id == 0
        assert t.utterances[0].meta["source_id"] == "t3_x"


class TestRelationBuckets:
    def test_bucket_count_formula(self):
        assert num_relation_buckets(9) == 20
        assert num_relation_buckets(3) == 8
        assert num_relation_buckets(1) == 4

    def test_relation_index_small_tree(self):
        t = small_tree()
        k = 3
        idx = relation_index(t, k)
        # bucket layout: 0 = off-path, 1 + k + clip(delta, k) otherwise
        assert idx[4, 1] == 1 + k + 1
        assert idx[1, 4] == 1 + k - 1
        assert idx[4, 0] == 1 + k + 2
        assert idx[2, 2] == 1 + k
        assert idx[2, 3] == 0
        assert idx[3, 2] == 0
        # swapping a pair negates its depth delta: same-path buckets mirror
        # around 1 + k, and off-path pairs are 0 both ways
        for i in range(len(t)):
            for j in range(len(t)):
                if idx[i, j] == 0:
                    assert idx[j, i] == 0, (i, j)
                else:
                    assert idx[i, j] - (1 + k) == (1 + k) - idx[j, i], (i, j)

    def test_relation_index_clips_deep_chains(self):
        utts = [u(0, None, 0)] + [u(i, i - 1, i) for i in range(1, 8)]
        t = ConversationTree(utts)
        idx = relation_index(t, 3)
        assert idx[7, 0] == 1 + 3 + 3  # depth gap 7 clipped to 3
        assert idx[0, 7] == 1 + 3 - 3
        assert idx.max() < num_relation_buckets(3)

    def test_random_trees_depth_and_antisymmetry(self):
        rng = np.random.default_rng(20260815)
        for _ in range(20):
            n = int(rng.integers(2, 64))
            utts = [u(0, None, 0)]
            for i in range(1, n):
                utts.append(u(i, int(rng.integers(0, i)), i))
            t = ConversationTree(utts)
            for i in range(1, n):
                assert t.depth(i) == t.depth(utts[i].parent_id) + 1
            m = t.ancestor_matrix()
            assert not np.any(m & m.T)  # strict ancestry cannot hold both ways
            assert not np.any(np.diag(m))


@st.composite
def forests(draw):
    """Reply records of a random forest: string ids, shuffled, each reply
    strictly later than its parent.  Returns (records, parent of each id, roots)."""
    n = draw(st.integers(1, 12))
    parents = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    for extra_root in draw(st.sets(st.integers(1, n - 1), max_size=2) if n > 1 else st.just(set())):
        parents[extra_root] = None
    stamps = []
    for i, parent in enumerate(parents):
        if parent is None:
            stamps.append(draw(st.integers(0, 20)))
        else:
            stamps.append(stamps[parent] + draw(st.integers(1, 3)))
    ids = draw(st.lists(st.text(min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    records = [Utterance(id=ids[i], author=f"a{i}", text=f"text {i}", timestamp=stamps[i],
                         parent_id=None if parents[i] is None else ids[parents[i]])
               for i in draw(st.permutations(range(n)))]
    parent_of = {ids[i]: None if p is None else ids[p] for i, p in enumerate(parents)}
    return records, parent_of, sum(p is None for p in parents)


def _source_ancestors(parent_of, source_id):
    out = []
    node = parent_of[source_id]
    while node is not None:
        out.append(node)
        node = parent_of[node]
    return out


class TestFromRecordsProperties:
    @settings(max_examples=150, deadline=None)
    @given(forest=forests())
    def test_random_forests(self, forest):
        records, parent_of, roots = forest
        if roots > 1:
            with pytest.raises(TreeError, match="no parent"):
                ConversationTree.from_records(records)
            return
        tree = ConversationTree.from_records(records)
        by_id = {r.id: r for r in records}
        sources = [t.meta["source_id"] for t in tree]
        assert sources == sorted(by_id, key=lambda s: (by_id[s].timestamp, s))
        for pos, t in enumerate(tree):
            src = by_id[sources[pos]]
            assert (t.id, t.text, t.timestamp, t.author) == (pos, src.text, src.timestamp, src.author)
            parent = None if t.parent_id is None else sources[t.parent_id]
            assert parent == src.parent_id
            ancestors = _source_ancestors(parent_of, sources[pos])
            assert tree.depth(pos) == len(ancestors)
            assert {sources[j] for j in np.flatnonzero(tree.ancestor_matrix()[pos])} == set(ancestors)

    @settings(max_examples=50, deadline=None)
    @given(forest=forests(), data=st.data())
    def test_unknown_parent_rejected(self, forest, data):
        records, _, _ = forest
        victim = replace(data.draw(st.sampled_from(records)), parent_id="\x00missing")
        rest = [r for r in records if r.id != victim.id]
        with pytest.raises(TreeError, match="unknown id"):
            ConversationTree.from_records(rest + [victim])


@st.composite
def trees(draw):
    n = draw(st.integers(1, 14))
    return ConversationTree([u(0, None, 0)] + [u(i, draw(st.integers(0, i - 1)), i) for i in range(1, n)])


class TestRelationIndexProperties:
    @settings(max_examples=150, deadline=None)
    @given(tree=trees(), k=st.integers(1, 5))
    def test_matches_thread_relation_oracle(self, tree, k):
        idx = relation_index(tree, k)
        n = len(tree)
        assert idx.shape == (n, n) and idx.dtype == np.int64
        for i in range(n):
            for j in range(n):
                # the pair's relation, walked up the reply links one pair at a time
                same_path = i == j or is_ancestor(tree, j, i) or is_ancestor(tree, i, j)
                delta = tree.depth(i) - tree.depth(j)
                want = 1 + k + max(-k, min(k, delta)) if same_path else 0
                assert idx[i, j] == want, (i, j, same_path, delta)
        assert 0 <= idx.min() and idx.max() < num_relation_buckets(k)
