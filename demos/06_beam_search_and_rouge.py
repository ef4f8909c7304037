"""
Beam search with trigram blocking, scored with ROUGE
====================================================

Decoding and evaluation work against any log-probability source, so this
script drives them with a tiny synthetic "language model" (a fixed token
transition table) where degenerate repetition is easy to provoke.
"""

import json

import numpy as np

from threadsum.decoding import beam_search, has_repeated_trigram
from threadsum.rouge import evaluate_pairs, rouge_tokenize, score_pair

VOCAB, BOS, EOS = 12, 0, 1

# row t = log-distribution of the next token given last token t.  The loop
# 5 -> 6 -> 5 is made attractive on purpose.
rng = np.random.default_rng(13)
table = rng.normal(size=(VOCAB, VOCAB))
table[5, 6] += 4.0
table[6, 5] += 4.0
table -= np.log(np.exp(table).sum(axis=1, keepdims=True))

def decode_fn(prefix):
    return table[prefix[-1]]

greedy = beam_search(decode_fn, BOS, EOS, max_len=16, beam_size=1, block_trigrams=False)
print("greedy, no blocking   :", greedy.generated())
print("  repeated trigram?   :", has_repeated_trigram(greedy.generated()))

open_beam = beam_search(decode_fn, BOS, EOS, max_len=16, beam_size=4,
                        min_len=12, block_trigrams=False)
blocked = beam_search(decode_fn, BOS, EOS, max_len=16, beam_size=4,
                      min_len=12, block_trigrams=True)
print("beam, blocking off    :", open_beam.generated())
print("  repeated trigram?   :", has_repeated_trigram(open_beam.generated()))
print("beam, blocking on     :", blocked.generated())
print("  repeated trigram?   :", has_repeated_trigram(blocked.generated()))

# scores are length-normalized: logp / max(1, len - 1)^penalty
print(f"\nblocked hypothesis score at penalty 1.0: {blocked.score(1.0):.3f}, "
      f"at 0.0 (raw logp / 1): {blocked.score(0.0):.3f}")

# ---------------------------------------------------------------------------
# ROUGE: n-gram overlap (1, 2), longest common subsequence, skip bigrams

cand = "the server crashed after the update"
ref = "server crashes started right after the update"
print(f"\ncandidate: {cand!r}")
print(f"reference: {ref!r}")
print("tokens   :", rouge_tokenize(cand))
for name, s in score_pair(cand, ref).items():
    print(f"  {name:9s} P={s.precision:.3f} R={s.recall:.3f} F1={s.f1:.3f}")

# corpus-level evaluation averages per-pair scores and keeps the examples
report = evaluate_pairs([
    (cand, ref),
    ("restart fixed it", "a restart fixed it for everyone"),
    ("no idea", "rolling back to the previous version helps"),
])
print("\nmean F1 over 3 pairs:")
print(json.dumps({k: round(v["f1"], 3) for k, v in report["mean"].items()},
                 indent=2))
