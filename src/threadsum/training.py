"""Optimization loop: AdamW, linear learning-rate decay, gradient accumulation.

The full-scale recipe (peak 5e-5 decayed linearly to 0, accumulated batch of
256 conversations) is expressed here, but every function also runs at toy
scale for tests.  A micro-batch is a single conversation; the effective batch
comes from summing gradients over ``accumulation`` micro-batches before one
optimizer apply.

All randomness (data order, dropout masks, thread-pair draws) is derived
statelessly from (run seed, step, micro-batch index), so a run resumed from a
checkpoint retraces the uninterrupted trajectory exactly.
"""

import json
import math
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, backward
from .corpus import TrainingInstance
from .model import Model, ModelConfig, ModelInput, fit_instance
from .objectives import instance_loss

METRICS_FIELDS = ("step", "loss_clm", "loss_tp", "lr", "grad_norm")

# Adam's moment decay rates and denominator epsilon
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def lr_at(step: int, peak: float, total: int) -> float:
    """Linear decay from peak at step 0 to zero at step == total; no warmup."""
    if total <= 0:
        raise ValueError("total steps must be positive")
    if step < 0:
        raise ValueError("step must be non-negative")
    if step > total:
        return 0.0
    return peak * (1.0 - step / total)


def derive_rng(seed: int, *path) -> np.random.Generator:
    """Deterministic generator for a named point in the run.

    String path parts are hashed; the result depends only on (seed, path),
    never on call order, which is what makes resume exact.
    """
    key = tuple(zlib.crc32(p.encode()) if isinstance(p, str) else int(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def epoch_order(seed: int, epoch: int, count: int) -> np.ndarray:
    return derive_rng(seed, "order", epoch).permutation(count)


# ---------------------------------------------------------------------------
# truncation


def truncate_instance(instance: TrainingInstance, config: ModelConfig,
                      tokenizer) -> TrainingInstance:
    """Apply the length limits of ``model.fit_instance``, the caps that
    ``encode_instance`` applies, asking ``Tokenizer.fit`` for no ids."""
    return fit_instance(config, tokenizer, instance, encode_cut=False)[0]


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimizerState:
    """AdamW moments plus the schedule; step counts completed applies."""

    peak_lr: float
    total_steps: int
    step: int = 0
    weight_decay: float = 0.01
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def init(cls, params: Dict[str, Parameter], peak_lr: float = 5e-5,
             total_steps: int = 1, weight_decay: float = 0.01):
        state = cls(peak_lr=peak_lr, total_steps=total_steps, weight_decay=weight_decay)
        for name, p in params.items():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        return state

    def check_shapes(self, params: Dict[str, Parameter]) -> None:
        for name, p in params.items():
            if name not in self.m or self.m[name].shape != p.data.shape:
                raise ValueError(f"optimizer moments do not match parameter {name!r}")


def global_grad_norm(params: Dict[str, Parameter]) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.vdot(p.grad, p.grad))
    return float(np.sqrt(total))


def clip_gradients(params: Dict[str, Parameter], max_norm: Optional[float]) -> float:
    """Global-norm clipping; returns the pre-clip norm. None disables.

    A non-finite norm raises ``NumericsError`` before any gradient is scaled
    (clipping an inf norm would turn every gradient into 0 * inf = NaN).
    """
    norm = global_grad_norm(params)
    if not np.isfinite(norm):
        raise ad.NumericsError(f"non-finite gradient norm {norm}")
    if max_norm is not None and norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


def apply_adamw(state: OptimizerState, params: Dict[str, Parameter]) -> float:
    """One decoupled-weight-decay Adam apply; returns the lr that was used.

    The lr comes from the schedule at the pre-apply step count, so the first
    apply of a run uses the peak rate.  Decay skips parameters flagged
    decay=False (layer norms, biases).

    The moments are updated in place.  Each parameter's new values are built
    in one fresh array, which is also the only scratch, and ``p.data`` is
    then bound to it, so the array it was bound to before is never written.
    With u = m_hat / (sqrt(v_hat) + eps), the decayed update p - lr (u + wd p)
    is formed as p - lr wd (u / wd + p) to need no second array.
    """
    state.check_shapes(params)
    lr = lr_at(state.step, state.peak_lr, state.total_steps)
    state.step += 1
    t = state.step
    b1, b2, wd = ADAM_BETA1, ADAM_BETA2, state.weight_decay
    for name, p in params.items():
        m = state.m[name]
        v = state.v[name]
        out = np.empty_like(p.data)
        m *= b1
        v *= b2
        if p.grad is not None:
            np.multiply(p.grad, 1.0 - b1, out=out)
            m += out
            np.multiply(p.grad, 1.0 - b2, out=out)
            out *= p.grad
            v += out
        np.divide(v, 1.0 - b2 ** t, out=out)
        np.sqrt(out, out=out)
        out += ADAM_EPS
        np.divide(m, out, out=out)
        out /= 1.0 - b1 ** t
        if p.decay and wd:
            out /= wd
            out += p.data
            out *= -lr * wd
        else:
            out *= -lr
        out += p.data
        p.data = out
    return lr


# ---------------------------------------------------------------------------
# steps and runs


@dataclass(frozen=True)
class TrainRunConfig:
    total_steps: int
    accumulation: int = 1
    peak_lr: float = 5e-5
    seed: int = 0
    weight_decay: float = 0.01
    clip_norm: Optional[float] = 1.0  # None disables clipping
    checkpoint_every: int = 0  # 0 = final checkpoint only
    log_every: int = 1

    def __post_init__(self):
        if self.accumulation < 1:
            raise ValueError("accumulation target must be >= 1")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        for name in ("peak_lr", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        if self.clip_norm is not None and not (math.isfinite(self.clip_norm) and self.clip_norm > 0):
            raise ValueError(f"clip_norm must be null or a finite number > 0, got {self.clip_norm!r}")


def train_step(model: Model, state: OptimizerState,
               micro_batches: Sequence[ModelInput], seed: int,
               clip_norm: Optional[float] = 1.0,
               loss_weight: float = 1.0) -> dict:
    """Accumulate summed gradients over the micro-batches, then apply once.

    Backward releases each rule of a micro-batch's graph, and the arrays
    it reads, once the rule has run, so no two graphs' arrays are alive at
    once, and clipping and the apply run with none.
    A non-finite loss or gradient norm raises ``NumericsError`` and leaves
    the parameters and the optimizer state as they were.
    """
    if not micro_batches:
        raise ValueError("train_step needs at least one micro-batch")
    step = state.step
    model.zero_grad()
    clm_sum = 0.0
    tp_sum = 0.0
    for k, mi in enumerate(micro_batches):
        loss, parts = instance_loss(model, mi, rng=derive_rng(seed, "dropout", step, k),
                                    pair_rng=derive_rng(seed, "pairs", step, k))
        if loss_weight != 1.0:
            loss = ad.scale(loss, loss_weight)
        backward(loss)
        clm_sum += parts["loss_clm"]
        tp_sum += parts["loss_tp"]
    n = len(micro_batches)
    # a non-finite step is rejected before it touches parameters or moments
    if not np.isfinite([clm_sum, tp_sum]).all():
        raise ad.NumericsError(f"non-finite loss at step {step}: "
                               f"loss_clm {clm_sum / n}, loss_tp {tp_sum / n}")
    grad_norm = clip_gradients(model.params, clip_norm)
    lr = apply_adamw(state, model.params)
    return {"step": state.step, "loss_clm": clm_sum / n, "loss_tp": tp_sum / n,
            "lr": lr, "grad_norm": grad_norm}


def append_metrics(path, record: dict) -> None:
    ordered = {k: record[k] for k in METRICS_FIELDS}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(ordered) + "\n")


def run_training(model: Model, inputs: Sequence[ModelInput], state: OptimizerState,
                 run: TrainRunConfig, metrics_path=None, checkpoint_dir=None,
                 on_step=None) -> List[dict]:
    """Drive train_step from state.step up to run.total_steps.

    Starting from a restored state picks up mid-stream: data positions are a
    pure function of the step index.  Returns the metric records produced by
    this call.
    """
    from .checkpoint import save_checkpoint  # local import; checkpoint imports us

    if not inputs:
        raise ValueError("no training instances")
    records = []
    count = len(inputs)
    order = None
    order_epoch = -1
    while state.step < run.total_steps:
        base = state.step * run.accumulation
        micro = []
        for k in range(run.accumulation):
            epoch, offset = divmod(base + k, count)
            if epoch != order_epoch:
                order = epoch_order(run.seed, epoch, count)
                order_epoch = epoch
            micro.append(inputs[int(order[offset])])
        record = train_step(model, state, micro, seed=run.seed, clip_norm=run.clip_norm)
        records.append(record)
        if metrics_path is not None and state.step % run.log_every == 0:
            append_metrics(metrics_path, record)
        if on_step is not None:
            on_step(record)
        if (checkpoint_dir is not None and run.checkpoint_every
                and state.step % run.checkpoint_every == 0
                and state.step < run.total_steps):
            save_checkpoint(os.path.join(checkpoint_dir, f"step-{state.step:06d}"),
                            model.config, model.params, state)
    if checkpoint_dir is not None:
        save_checkpoint(os.path.join(checkpoint_dir, f"step-{state.step:06d}"),
                        model.config, model.params, state)
    return records
