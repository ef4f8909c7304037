"""
Conversation trees: reply structure, ancestry, and relation buckets
===================================================================

A discussion is a tree of utterances: every comment points at the thing it
replied to.  This script builds a small one by hand and walks through the
structural queries the rest of the library is built on.
"""

import numpy as np

from threadsum.conversation import (
    ConversationTree,
    Utterance,
    num_relation_buckets,
    relation_index,
)

# a root post with two competing reply branches
tree = ConversationTree([
    Utterance(0, "op", "my build fails after the update", 100, None),
    Utterance(1, "ana", "which compiler version?", 110, 0),
    Utterance(2, "bob", "same here, rolled back and it went away", 120, 0),
    Utterance(3, "op", "gcc 13, clean checkout", 130, 1),
    Utterance(4, "ana", "known regression, pin 12.3 for now", 140, 3),
    Utterance(5, "cal", "rolling back worked for me too", 150, 2),
])

print(f"{len(tree)} utterances, depths = {[tree.depth(i) for i in range(len(tree))]}")
for u in tree.utterances:
    indent = "  " * tree.depth(u.id)
    print(f"{indent}[{u.id}] {u.author}: {u.text}")

# strict ancestry: ancestors[i, j] == 1 iff j is on the path above i
anc = tree.ancestor_matrix()
print("\nancestor matrix (row=descendant, col=ancestor):")
print(anc.astype(int))

thread, node = [4], tree[4].parent_id
while node is not None:
    thread.append(node)
    node = tree[node].parent_id
print("utterance 4's thread back to the root:", thread)
assert anc[4, thread[1:]].all()

# relation buckets drive thread-aware attention.  Bucket 0 means "not on the
# same root-to-leaf path"; same-path pairs get 1 + k + clip(depth delta, k),
# so with clip distance k there are exactly 2k + 2 distinct buckets.
k = 2
buckets = relation_index(tree, k)
print(f"\nrelation buckets at k={k} ({num_relation_buckets(k)} possible):")
print(buckets)

# siblings 1 and 2 sit on different paths: off-path in both directions
assert buckets[1, 2] == 0 and buckets[2, 1] == 0

mid = 1 + k
print(f"\nsame-path examples: bucket[3,0]={buckets[3, 0]} (ancestor two up, "
      f"clipped), bucket[0,3]={buckets[0, 3]}, self bucket={buckets[0, 0]} (={mid})")
print("off-path example:   bucket[1,2] =", buckets[1, 2])

# a pure chain degenerates to relative positions: every pair is same-path
chain = ConversationTree(
    [Utterance(0, "a", "start", 0, None)]
    + [Utterance(i, "a", f"reply {i}", i, i - 1) for i in range(1, 5)])
print("\nchain buckets (pure relative offsets, nothing off-path):")
print(relation_index(chain, k))
assert not (relation_index(chain, k) == 0).any()
