"""Pretraining losses: causal language modeling and thread prediction.

Thread prediction samples 20% of a conversation's utterances (at least one),
pairs them against every other utterance in both directions, and asks a
bilinear-sigmoid classifier whether the second utterance is a strict
ancestor of the first.  The classifier reads the token encoder's bos outputs,
and its binary cross-entropy is summed over the candidate set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .conversation import ConversationTree, TreeError
from .model import Model, ModelInput

__all__ = [
    "ThreadPairBatch",
    "clm_loss",
    "sample_thread_pairs",
    "pair_probabilities",
    "thread_pred_loss",
    "total_loss",
    "instance_loss",
]


@dataclass
class ThreadPairBatch:
    sampled: np.ndarray  # utterance indices in C_s
    rows: np.ndarray  # pair left elements  (u_i)
    cols: np.ndarray  # pair right elements (u_j, candidate ancestor)
    labels: np.ndarray  # 1.0 where u_j is a strict ancestor of u_i

    @property
    def num_pairs(self) -> int:
        return len(self.rows)


def clm_loss(x: Tensor, target_ids, table: Optional[Tensor] = None) -> Tensor:
    """Mean next-token cross-entropy over the summary: of logits ``x``, or of
    decoder states ``x`` under the tied projection onto ``table``."""
    return ad.cross_entropy(x, target_ids, table)


def sample_thread_pairs(tree: Union[ConversationTree, np.ndarray],
                        rng: Union[int, np.random.Generator]) -> ThreadPairBatch:
    """Sample C_s (20% of utterances, min 1) and enumerate candidate pairs.

    Accepts a tree or a precomputed strict-ancestor matrix.  The candidate
    set is C_s x C union C x C_s minus self-pairs, each pair once, in
    row-major order so a given sample yields one canonical batch.
    """
    ancestors = tree.ancestor_matrix() if isinstance(tree, ConversationTree) else np.asarray(tree)
    n = ancestors.shape[0]
    if n < 2:
        raise TreeError(f"thread prediction needs at least 2 utterances, got {n}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    n_sampled = max(1, round(0.2 * n))
    sampled = np.sort(rng.choice(n, size=n_sampled, replace=False))

    hit = np.zeros(n, dtype=bool)
    hit[sampled] = True
    rows, cols = np.nonzero((hit[:, None] | hit[None, :]) & ~np.eye(n, dtype=bool))
    labels = ancestors[rows, cols].astype(np.float64)
    return ThreadPairBatch(sampled=sampled, rows=rows, cols=cols, labels=labels)


def pair_probabilities(vectors: Tensor, w_a: Parameter, w_b: Parameter,
                       batch: ThreadPairBatch) -> Tensor:
    """sigmoid((v_i W_a) (v_j W_b)^T) for every candidate pair, as [|A|]."""
    va = ad.linear(vectors, w_a)
    vb = ad.linear(vectors, w_b)
    scores = ad.matmul_transposed(va, vb)
    return ad.sigmoid(scores[batch.rows, batch.cols])


def thread_pred_loss(probs: Tensor, batch: ThreadPairBatch) -> Tensor:
    """Binary cross-entropy summed over the candidate pairs."""
    return ad.binary_cross_entropy(probs, batch.labels)


def total_loss(clm: Tensor, thread_pred: Optional[Tensor], lam: float) -> Tensor:
    if thread_pred is None or lam == 0.0:
        return clm
    return ad.add(clm, ad.scale(thread_pred, lam))


def instance_loss(model: Model, mi: ModelInput, rng=None,
                  pair_batch: Optional[ThreadPairBatch] = None,
                  pair_rng: Union[int, np.random.Generator, None] = None):
    """Combined loss for one conversation; returns (loss, metrics dict).

    ``rng`` is the dropout generator of a training forward (see
    ``Model.forward``).  The CLM term forms no [S, V] logits.  Thread
    prediction reads the token-encoder bos outputs and adds its summed loss
    scaled by lambda.  With lambda 0 the thread term is skipped entirely
    (fine-tuning mode).
    """
    cfg = model.config
    token_bos, _, memory = model.encode_conversation(mi, rng)
    states = model.decoder_states(mi.summary_input, memory, rng)
    loss_clm = clm_loss(states, mi.summary_target, model.params["embed.tokens"])

    lam = cfg.lambda_thread_pred
    if lam == 0.0:
        return loss_clm, {"loss_clm": loss_clm.item(), "loss_tp": 0.0}

    if pair_batch is None:
        if pair_rng is None:
            raise ValueError("need pair_batch or pair_rng when lambda_thread_pred != 0")
        pair_batch = sample_thread_pairs(mi.ancestors, pair_rng)
    probs = pair_probabilities(token_bos, model.params["tp.wa"], model.params["tp.wb"],
                               pair_batch)
    loss_tp = thread_pred_loss(probs, pair_batch)
    loss = total_loss(loss_clm, loss_tp, lam)
    return loss, {"loss_clm": loss_clm.item(), "loss_tp": loss_tp.item()}
