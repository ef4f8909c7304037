"""
Checking the backward pass against finite differences
=====================================================

The tensor core records every forward op on a tape and replays it in
reverse.  Trust comes from comparing each analytic gradient entry with a
central finite difference of the whole loss.  eps = 1e-3 keeps the
difference quotient above float64 round-off on near-zero entries; the
element-wise relative error must stay under 1e-3.
"""

import time

from threadsum.autodiff import grad_check
from threadsum.conversation import ConversationTree, Utterance
from threadsum.model import Model, ModelInput, toy_config
from threadsum.objectives import instance_loss, sample_thread_pairs
from threadsum.training import derive_rng

# a deliberately small config: the check evaluates the loss twice per scalar
cfg = toy_config(num_layers=1, d_hidden=8, d_ff=16, vocab_size=20, clip_k=2)
model = Model.init(cfg, seed=7)
n_params = sum(p.data.size for p in model.params.values())
print(f"{n_params} parameters -> {2 * n_params} loss evaluations")

tree = ConversationTree([
    Utterance(0, "a", "r", 0, None),
    Utterance(1, "b", "x", 1, 0),
    Utterance(2, "c", "y", 2, 1),
    Utterance(3, "d", "z", 3, 0),
])
rng = derive_rng(0, "demo")
token_ids = [[0] + rng.integers(2, cfg.vocab_size, size=3).tolist() for _ in tree]
full = [0] + rng.integers(2, cfg.vocab_size, size=4).tolist() + [1]
mi = ModelInput.build(tree, token_ids, full, cfg.clip_k)
pairs = sample_thread_pairs(tree, derive_rng(0, "pairs"))

# the checked function is the full objective: encoders, decoder, both losses
def f():
    loss, _ = instance_loss(model, mi, pair_batch=pairs)
    return loss

t0 = time.perf_counter()
report = grad_check(f, list(model.params.values()), eps=1e-3, tol=1e-3)
print(f"\n{report.format()}")
print(f"\nchecked in {time.perf_counter() - t0:.1f}s")
assert report.passed
