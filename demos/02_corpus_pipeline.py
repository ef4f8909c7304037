"""
From a raw post dump to training instances
===========================================

The pretraining corpus comes from forum-style post dumps: one JSON object
per line holding a submission, its comments, and vote counts.  The builder
filters unusable posts, reconstructs each comment tree, masks the lead
comment (it becomes the training target), and writes deterministic shards.
"""

import json
import os
import tempfile

from threadsum.corpus import build_corpus, read_instances, read_post_dump

HERE = os.path.dirname(os.path.abspath(__file__))
DUMP = os.path.join(HERE, "..", "tests", "fixtures", "corpus", "posts.jsonl")

with open(DUMP, encoding="utf-8") as fh:
    print(f"raw dump: {sum(1 for _ in fh)} posts")

out_dir = tempfile.mkdtemp(prefix="corpus-demo-")
shards, stats = build_corpus(read_post_dump(DUMP), os.path.join(out_dir, "train"))

# most posts are rejected: too small, negatively scored, flagged, or broken
print("\nfilter report:")
print(json.dumps(stats.as_dict(), indent=2, sort_keys=True))

# shards are byte-deterministic: same dump in, same bytes out, every time
instances = list(read_instances(shards[0]))
inst = instances[0]
print(f"\nshard {os.path.basename(shards[0])}: {len(instances)} instance(s)")
print(f"tree size {len(inst.tree)}, summary target: {inst.pseudo_summary!r}")

# the lead comment's slot is masked in the tree; its text is the summary
masked = [u for u in inst.tree if u.text == "[MASK]"]
print(f"masked slots: {[u.id for u in masked]}")

print("\nfirst few utterances as stored on disk:")
with open(shards[0], encoding="utf-8") as fh:
    record = json.loads(fh.readline())
for obj in record["utterances"][:4]:
    print(" ", json.dumps(obj, ensure_ascii=False))
