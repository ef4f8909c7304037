"""Reverse-mode automatic differentiation over dense numpy arrays.

Just enough tensor machinery for the summarization model: a ``Tensor``
wrapping an ndarray, fused forward ops with hand-written backward rules, a
``ComputationTape`` that replays the recorded graph in reverse topological
order, and a central-finite-difference gradient checker.  Ops are plain
functions; a ``Tensor`` has no arithmetic operators, only basic indexing.

There is no broadcasting between operands: ``add`` takes two arrays of one
shape, so no backward rule has to sum a gradient back down to a smaller
operand.  A row product is ``linear``, 2-d by 2-d, with an optional bias.
A product against a transposed operand is ``matmul_transposed``, 2-d by
2-d, whose right operand's gradient is g^T a.  The one constant that
broadcasts, an attention mask, enters through ``attention``'s layout,
outside the graph.

``attention`` is all of multi-head attention between the projections: from
packed [N, d] query rows to packed key and value rows, laying buckets of
rows out as heads, with the optional thread-relation terms, scale, mask,
softmax, dropout and the product with the values, back to packed rows.
``cross_entropy`` with a table is the tied output projection and the loss
in one op, so training holds no [S, V] array.

A ``Tensor`` is a value: an array and an optional ``node``, its place in
the graph.  An op's output points at a ``Node`` holding the gradient, the
parent nodes, the backward rule, and the value's shape and dtype.  A
``Parameter`` points at a leaf node, one without parents, made with it and
holding its gradient but no reference back to it; a constant has no node.
Rules reference nodes, never tensors, and close over just the arrays they
read, so a value lives only while forward code or a rule holds it, and
dropout outputs and residual sums are freed during forward.  The large
ops' rules read little: ``attention`` its q, k and v rows as given and
each bucket's probabilities and bool keep mask, never the scores or a head
copy; ``dropout`` a bool mask; ``gelu`` its derivative; and
``cross_entropy`` its input rows and each row's max and exponential sum.
Backward frees each rule's arrays once the rule has run.

Gradients change hands: an array a backward rule passes to
``accumulate_grad`` belongs to the receiver from then on, and the rule
never touches it again.  A node keeps its first gradient, copied to C
order if strided, and adds later ones into it in place, so every gradient
is C-contiguous: clipping may scale a parameter's in place and
micro-batches accumulate into it.  No two nodes ever hold one array:
``add`` hands ``g`` to one operand and a copy to the other when both need
it.  Indexing and ``cross_entropy``'s ``table`` add into a gradient in
place (``Node.grad_buffer``), the table GRAD_BLOCK_ROWS rows at a time, so
the embedding table's gradient has no table-sized scratch beside it.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.special import erf, expit

__all__ = [
    "Node",
    "Tensor",
    "Parameter",
    "ComputationTape",
    "ShapeError",
    "NumericsError",
    "no_grad",
    "backward",
    "grad_check",
    "GradCheckReport",
    # ops
    "add", "scale", "matmul_transposed", "attention", "attention_scores",
    "layer_norm", "linear", "gelu", "sigmoid", "dropout", "cross_entropy", "binary_cross_entropy",
]

_GRAD_ENABLED = True

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# vocabulary entries per block of cross_entropy: the logit columns it forms
# at a time, and the table rows whose gradient it adds at a time
GRAD_BLOCK_ROWS = 4096


class ShapeError(ValueError):
    """Incompatible operand shapes; the message names both."""


class NumericsError(FloatingPointError):
    """A numeric failure: a non-finite loss or gradient norm, or a failed gradient check."""


@contextmanager
def no_grad():
    """Disable graph recording inside the block (pure numpy forward)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Node:
    """A place in the recorded graph: the gradient, the parent nodes, the
    backward rule, and the shape and dtype of a value it does not hold.

    ``grad`` accumulates additively across backward passes; call sites that
    want fresh gradients zero it explicitly.
    """

    __slots__ = ("grad", "parents", "rule", "shape", "dtype", "__weakref__")

    def __init__(self, shape: tuple, dtype, parents: tuple = (), rule: Optional[Callable] = None):
        self.grad: Optional[np.ndarray] = None
        self.parents = parents
        self.rule = rule
        self.shape = shape
        self.dtype = dtype

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Take ``g``, which from now on belongs to this node: keep it as
        the gradient if there is none yet, copied to C order if strided,
        else add it into the gradient."""
        if self.grad is None:
            self.grad = g if g.flags.c_contiguous else np.array(g, order="C")
        else:
            self.grad += g

    def grad_buffer(self) -> np.ndarray:
        """The gradient, created as zeros on first use, for the rules that
        add into some of its entries in place: the scatter-add of indexing
        and the blocks of rows of a table's gradient."""
        if self.grad is None:
            self.grad = np.zeros(self.shape, self.dtype)
        return self.grad


class Tensor:
    """A dense array and, when a tape recorded the op that made it, that
    op's ``node``; a constant has none.  ``data`` may be rebound only to an
    array of the same shape and dtype."""

    __slots__ = ("data", "node", "__weakref__")

    def __init__(self, data, node: Optional[Node] = None):
        self.data = np.asarray(data, dtype=data.dtype if isinstance(data, np.ndarray) else np.float64)
        self.node = node

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def __getitem__(self, key):
        """``data[key]`` for any numpy key: slices, integer arrays, index
        tuples.  The backward scatter-adds, so repeated entries accumulate."""

        def rule(g, node=self.node):
            np.add.at(node.grad_buffer(), key, g)

        return _make(self.data[key], (self,), rule)


class Parameter(Tensor):
    """Named learnable tensor over a leaf node of its own, which holds its
    gradient; ``decay`` marks eligibility for weight decay."""

    __slots__ = ("name", "decay")

    def __init__(self, name: str, data, decay: bool = True):
        data = np.asarray(data)
        super().__init__(data, Node(data.shape, data.dtype))
        self.name = name
        self.decay = decay

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self.node.grad

    @grad.setter
    def grad(self, g: Optional[np.ndarray]) -> None:
        self.node.grad = g

    def zero_grad(self) -> None:
        self.node.grad = None

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def _make(data: np.ndarray, operands: Sequence[Tensor], rule: Callable) -> Tensor:
    """An op's output, with a node over the operands' nodes when a tape
    records; else ``rule`` is dropped."""
    parents = _GRAD_ENABLED and tuple(t.node for t in operands if t.node is not None)
    return Tensor(data, Node(data.shape, data.dtype, parents, rule) if parents else None)


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} needs operands of one shape; got {a.shape} and {b.shape}")


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)

    def rule(g, an=a.node, bn=b.node):
        if an is not None:
            an.accumulate_grad(g)
        if bn is not None:
            bn.accumulate_grad(g.copy() if an is not None else g)

    return _make(a.data + b.data, (a, b), rule)


def scale(a: Tensor, s: float) -> Tensor:
    def rule(g, an=a.node):
        an.accumulate_grad(g * s)

    return _make(a.data * s, (a,), rule)


def matmul_transposed(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b^T`` for 2-d ``a`` [s, k] and ``b`` [t, k]; ``b``'s gradient
    is g^T a."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[1]:
        raise ShapeError(f"matmul_transposed shapes {ad.shape} and {bd.shape} do not align "
                         f"(both operands must be 2-d)")

    def rule(g, an=a.node, bn=b.node):
        if an is not None:
            an.accumulate_grad(g @ bd)
        if bn is not None:
            bn.accumulate_grad(g.T @ ad)

    return _make(ad @ bd.T, (a, b), rule)


# ---------------------------------------------------------------------------
# neural-net ops


def _dropped(a: np.ndarray, c: float, keep: np.ndarray) -> np.ndarray:
    """(a * c) * keep, as a fresh array."""
    out = a * c
    out *= keep
    return out


Layout = Sequence[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]


def _heads(x: np.ndarray, valid: np.ndarray, heads: int) -> np.ndarray:
    """Packed rows [N, heads * dz] as heads [n, heads, T, dz]: the r-th row
    goes to the r-th slot that ``valid`` [n, T] marks, in row-major order.
    A view when every slot is marked, else a zero-padded copy."""
    n, t = valid.shape
    if valid.all():
        return np.swapaxes(x.reshape(n, t, heads, -1), 1, 2)
    out = np.zeros((n, heads, t, x.shape[1] // heads), x.dtype)
    np.swapaxes(out, 1, 2)[valid] = x.reshape(-1, heads, out.shape[3])
    return out


def _rows(x: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """The inverse of ``_heads``: the marked slots of heads [n, h, T, dz] as
    fresh packed rows [N, h * dz]."""
    return np.swapaxes(x, 1, 2)[valid].reshape(-1, x.shape[1] * x.shape[3])


def attention_scores(qh: np.ndarray, kh: np.ndarray, scale: float,
                     rel: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """Pre-softmax scores of query heads [..., s, dz] against key heads
    [..., t, dz], as arrays: (q·k + q·r + k·r) * scale, where r, the row of
    ``rel`` = (table [B, dz], buckets [s, t]) for the pair's bucket, comes
    only with ``rel``.  That is ((q + r)(k + r)^T - r r^T) * scale, with q·r
    and k·r gathered per pair from table projections: O(s t dz + (s + t) B dz)."""
    y = qh @ np.swapaxes(kh, -1, -2)
    if rel is not None:
        table, buckets = rel
        rows = np.arange(buckets.shape[0])[:, None]
        y += (qh @ table.T)[..., rows, buckets]
        y += (kh @ table.T)[..., rows.T, buckets]
    y *= scale
    return y


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, layout: Layout,
              rng: Optional[np.random.Generator], p: float,
              rel: Optional[Tuple[Tensor, np.ndarray]] = None) -> Tensor:
    """Multi-head attention from packed query rows ``q`` [Nq, d] to packed
    key and value rows ``k`` and ``v`` [Nk, d], as one node returning packed
    rows [Nq, d].

    ``layout`` lists buckets (q_valid [n, Tq], kv_valid [n, Tk], bias), each
    taking the next run of q's rows and of k's and v's rows as ``_heads``,
    so its rows attend only within it.  Per bucket: ``attention_scores`` at
    scale 1/sqrt(d / heads), with the terms of ``rel`` = (table, buckets)
    if given; plus the constant ``bias`` (such as a -1e9 mask), broadcast as
    numpy broadcasts; softmax; dropout, drawn as ``dropout`` draws it and
    off without an ``rng``; and the product with the values.

    The rule keeps q, k and v as given and each bucket's probabilities and
    bool keep mask, and lays the heads out again in backward.
    """
    qd, kd, vd = q.data, k.data, v.data
    runs, q_stop, kv_stop = [], 0, 0
    for q_valid, kv_valid, _ in layout:
        qr = slice(q_stop, q_stop + int(q_valid.sum()))
        kr = slice(kv_stop, kv_stop + int(kv_valid.sum()))
        q_stop, kv_stop = qr.stop, kr.stop
        runs.append((q_valid, kv_valid, qr, kr))
    if (qd.ndim != 2 or kd.shape != vd.shape or kd.shape[1:] != qd.shape[1:] or qd.shape[1] % heads
            or (q_stop, kv_stop) != (len(qd), len(kd))
            or any(len(q_valid) != len(kv_valid) for q_valid, kv_valid, _, _ in runs)):
        raise ShapeError(f"attention rows q {qd.shape}, k {kd.shape} and v {vd.shape} do not fit "
                         f"{heads} heads and a layout of {q_stop} query and {kv_stop} key rows "
                         f"with as many key as query sequences in each bucket")
    scale = 1.0 / math.sqrt(qd.shape[1] // heads)
    table = None if rel is None else rel[0]
    rel_data = None if rel is None else (table.data, rel[1])
    c = 1.0 / (1.0 - p)

    out, saved = np.empty(qd.shape, qd.dtype), []
    for (q_valid, kv_valid, qr, kr), (_, _, bias) in zip(runs, layout):
        kh, vh = _heads(kd[kr], kv_valid, heads), _heads(vd[kr], kv_valid, heads)
        y = attention_scores(_heads(qd[qr], q_valid, heads), kh, scale, rel_data)
        if bias is not None:
            y += bias
        y -= y.max(axis=-1, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=-1, keepdims=True)
        keep = None if rng is None or p <= 0.0 else rng.random(y.shape) >= p
        att = y if keep is None else _dropped(y, c, keep)
        out[qr] = _rows(att @ vh, q_valid)
        saved.append((y, keep))

    def rule(g, qn=q.node, kn=k.node, vn=v.node, tn=None if table is None else table.node):
        gq, gk, gv = (np.empty(x.shape, g.dtype) for x in (qd, kd, vd))
        for (q_valid, kv_valid, qr, kr), (y, keep) in zip(runs, saved):
            qh, gh = _heads(qd[qr], q_valid, heads), _heads(g[qr], q_valid, heads)
            kh, vh = _heads(kd[kr], kv_valid, heads), _heads(vd[kr], kv_valid, heads)
            att = y if keep is None else _dropped(y, c, keep)
            gv[kr] = _rows(np.swapaxes(att, -1, -2) @ gh, kv_valid)
            ga = gh @ np.swapaxes(vh, -1, -2)
            if keep is not None:
                ga *= c
                ga *= keep
            ga -= (ga * y).sum(axis=-1, keepdims=True)
            ga *= y
            ga *= scale
            gqh, gkh = ga @ kh, np.swapaxes(ga, -1, -2) @ qh
            if rel_data is not None:
                tbl, buckets = rel_data
                rows = np.arange(buckets.shape[0])[:, None]
                for xh, gxh, pairs in ((qh, gqh, (..., rows, buckets)), (kh, gkh, (..., rows.T, buckets))):
                    gproj = np.zeros(xh.shape[:-1] + (len(tbl),), g.dtype)
                    np.add.at(gproj, pairs, ga)
                    gxh += gproj @ tbl
                    if tn is not None:
                        tn.accumulate_grad(gproj.reshape(-1, len(tbl)).T @ xh.reshape(-1, xh.shape[-1]))
            gq[qr], gk[kr] = _rows(gqh, q_valid), _rows(gkh, kv_valid)
        for node, grad in ((qn, gq), (kn, gk), (vn, gv)):
            if node is not None:
                node.accumulate_grad(grad)

    return _make(out, (q, k, v) + (() if table is None else (table,)), rule)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply elementwise gain and bias."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({d},); got {gain.shape} and {bias.shape}")
    mu = x.data.sum(axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gd = gain.data

    def rule(g, xn=x.node, gn=gain.node, bn=bias.node):
        if gn is not None:
            gn.accumulate_grad((g * xhat).reshape(-1, d).sum(axis=0))
        if bn is not None:
            bn.accumulate_grad(g.reshape(-1, d).sum(axis=0))
        if xn is not None:
            gxhat = g * gd
            m1 = gxhat.sum(axis=-1, keepdims=True) / d
            m2 = (gxhat * xhat).sum(axis=-1, keepdims=True) / d
            xn.accumulate_grad(inv * (gxhat - m1 - xhat * m2))

    return _make(xhat * gd + bias.data, (x, gain, bias), rule)


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """The rows of a 2-d ``x`` through a 2-d ``w``: x @ w, plus ``b`` if given."""
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0]:
        raise ShapeError(f"linear shapes {xd.shape} and {wd.shape} do not align")
    y = xd @ wd
    if b is not None:
        y += b.data

    def rule(g, xn=x.node, wn=w.node, bn=None if b is None else b.node):
        if xn is not None:
            xn.accumulate_grad(g @ wd.T)
        if wn is not None:
            wn.accumulate_grad(xd.T @ g)
        if bn is not None:
            bn.accumulate_grad(g.sum(axis=0))

    return _make(y, (x, w) + (() if b is None else (b,)), rule)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit: x * Phi(x).  Only a recording op
    forms its derivative Phi(x) + x phi(x), the one array its rule keeps."""
    xd = x.data
    y = 0.5 * (1.0 + erf(xd * _INV_SQRT2))
    if _GRAD_ENABLED and x.node is not None:
        dy = y + xd * (_INV_SQRT_2PI * np.exp(-0.5 * xd * xd))
    y *= xd

    def rule(g, xn=x.node):
        xn.accumulate_grad(g * dy)

    return _make(y, (x,), rule)


def sigmoid(x: Tensor) -> Tensor:
    y = expit(x.data)

    def rule(g, xn=x.node):
        xn.accumulate_grad(g * y * (1.0 - y))

    return _make(y, (x,), rule)


def dropout(x: Tensor, p: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Inverted dropout, active units rescaled by 1/(1-p); the identity, with
    nothing drawn, when there is no ``rng`` (inference) or ``p`` is 0.  The
    mask is kept as bools."""
    if rng is None or p <= 0.0:
        return x
    keep = rng.random(x.shape) >= p
    c = 1.0 / (1.0 - p)

    def rule(g, xn=x.node):
        xn.accumulate_grad(_dropped(g, c, keep))

    return _make(_dropped(x.data, c, keep), (x,), rule)


def _target_hits(targets: np.ndarray, cols: slice) -> Tuple[np.ndarray, np.ndarray]:
    """The rows whose target is in ``cols``, and the target's column there."""
    rows = np.nonzero((targets >= cols.start) & (targets < cols.stop))[0]
    return rows, targets[rows] - cols.start


def cross_entropy(x: Tensor, targets, table: Optional[Tensor] = None) -> Tensor:
    """Mean next-token negative log-likelihood over the logits: ``x`` [S, V],
    or with ``table`` [V, d] x [S, d] times its transpose, never formed whole.

    The logits are read GRAD_BLOCK_ROWS columns at a time: forward keeps a
    running row max and exponential sum, from which backward forms each
    block's probabilities p again, adding p^T x into the table's gradient
    buffer and p @ table-block into x's gradient.  The rule keeps ``x``,
    the targets and each row's max and sum."""
    targets = np.asarray(targets, dtype=np.int64)
    xd = x.data
    td = None if table is None else table.data
    if xd.ndim != 2 or (td is not None and (td.ndim != 2 or td.shape[1] != xd.shape[1])):
        raise ShapeError(f"cross_entropy rows {xd.shape} and table "
                         f"{None if td is None else td.shape} do not align")
    t, v = len(xd), xd.shape[1] if td is None else len(td)
    if targets.shape != (t,):
        raise ShapeError(f"cross_entropy targets must have shape ({t},); got {targets.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise IndexError(f"target id out of vocabulary of size {v}")
    blocks = [slice(start, min(start + GRAD_BLOCK_ROWS, v)) for start in range(0, v, GRAD_BLOCK_ROWS)]

    m = z = None
    picked = np.empty(t, xd.dtype)
    for cols in blocks:
        b = xd[:, cols] if td is None else xd @ td[cols].T
        hit = _target_hits(targets, cols)
        picked[hit[0]] = b[hit]
        bm = b.max(axis=-1, keepdims=True)
        if m is not None:
            bm = np.maximum(bm, m)
            z *= np.exp(m - bm)
        m = bm
        e = np.subtract(b, m, out=None if td is None else b)
        np.exp(e, out=e)
        zb = e.sum(axis=-1, keepdims=True)
        z = zb if z is None else z + zb
        del b, e  # one block's scratch at a time
    nll = m[:, 0] + np.log(z[:, 0]) - picked

    def rule(g, xn=x.node, tn=None if table is None else table.node):
        c = g / t
        gx = np.empty(xd.shape, xd.dtype) if td is None else np.zeros(xd.shape, xd.dtype)
        buf = None if tn is None else tn.grad_buffer()
        for cols in blocks:
            b = xd[:, cols] if td is None else xd @ td[cols].T
            p = np.subtract(b, m, out=gx[:, cols] if td is None else b)
            np.exp(p, out=p)
            p /= z
            p[_target_hits(targets, cols)] -= 1.0
            p *= c
            if td is not None and xn is not None:
                gx += p @ td[cols]
            if buf is not None:
                buf[cols] += p.T @ xd
        if xn is not None:
            xn.accumulate_grad(gx)

    return _make(np.asarray(nll.mean()), (x,) + (() if table is None else (table,)), rule)


def binary_cross_entropy(probs: Tensor, labels, clamp: float = 1e-7) -> Tensor:
    """Bernoulli cross-entropy summed over a vector of probabilities.

    Probabilities outside (clamp, 1-clamp) are clamped and flagged with a
    warning; the clamped entries get zero gradient.
    """
    labels = np.asarray(labels, dtype=probs.dtype)
    p = probs.data
    clamped = (p < clamp) | (p > 1.0 - clamp)
    if clamped.any():
        warnings.warn(f"binary_cross_entropy clamped {int(clamped.sum())} saturated probabilities", RuntimeWarning)
    pc = np.clip(p, clamp, 1.0 - clamp)
    losses = -(labels * np.log(pc) + (1.0 - labels) * np.log(1.0 - pc))

    def rule(g, pn=probs.node):
        dp = -(labels / pc - (1.0 - labels) / (1.0 - pc))
        dp[clamped] = 0.0
        pn.accumulate_grad(dp * g)

    return _make(np.asarray(losses.sum()), (probs,), rule)


# ---------------------------------------------------------------------------
# backward machinery


class ComputationTape:
    """The recorded graph under a root tensor's node, in topological order
    (inputs first)."""

    def __init__(self, root: Tensor):
        order, visited = [], set()
        stack = [(root.node, False)]
        while stack:
            node, ready = stack.pop()
            if ready:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.root = root.node
        self.nodes = order

    def backward(self, seed: Optional[np.ndarray] = None) -> None:
        """Run every recorded backward rule once, children before parents;
        the root gets a copy of ``seed``.

        Each node but a leaf (a parameter's) drops its gradient and its
        rule, and so the arrays the rule reads, once the rule has run; the
        parent links stay, so the graph can still be walked, but a second
        backward over it raises ``RuntimeError``.  Leaves keep accumulating."""
        if any(node.rule is None and node.parents for node in self.nodes):
            raise RuntimeError("backward has already run over this graph and released its rules")
        root = self.root
        root.grad = None
        root.accumulate_grad(np.ones(root.shape, root.dtype) if seed is None else np.array(seed))
        for node in reversed(self.nodes):
            if node.rule is not None and node.grad is not None:
                node.rule(node.grad)
            if node.parents:
                node.grad = node.rule = None


def backward(loss: Tensor) -> None:
    """Populate gradients of every parameter reachable from a scalar loss."""
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss; got shape {loss.shape}")
    if not loss.requires_grad:
        raise RuntimeError("backward called on a tensor detached from any parameter")
    ComputationTape(loss).backward()


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    passed: bool


@dataclass
class GradCheckReport:
    entries: list
    tol: float

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def format(self) -> str:
        width = max((len(e.name) for e in self.entries), default=4)
        lines = [
            f"{e.name:<{width}}  max_rel_err={e.max_rel_err:.3e}  {'ok' if e.passed else 'FAIL'}"
            for e in self.entries
        ]
        verdict = "all gradients match" if self.passed else "GRADIENT MISMATCH"
        lines.append(f"-- {verdict} (tol={self.tol:g})")
        return "\n".join(lines)


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Parameter],
    eps: float = 1e-3,
    tol: float = 1e-3,
) -> GradCheckReport:
    """Compare tape gradients of ``f()`` against central finite differences.

    ``f`` must be deterministic (dropout off, fixed seeds) and is evaluated
    twice up front to detect hidden randomness.  Relative error per element
    is |a - b| / max(|a|, |b|, 1e-8).
    """
    with no_grad():
        v1 = f().item()
        v2 = f().item()
    if v1 != v2:
        raise RuntimeError(f"function is not deterministic: {v1!r} != {v2!r}")

    for p in params:
        p.zero_grad()
    backward(f())
    analytic = {p.name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for p in params}

    entries = []
    with no_grad():
        for p in params:
            flat = p.data.reshape(-1)
            numeric = np.empty_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                fp = f().item()
                flat[i] = orig - eps
                fm = f().item()
                flat[i] = orig
                numeric[i] = (fp - fm) / (2.0 * eps)
            ana = analytic[p.name].reshape(-1)
            denom = np.maximum(np.maximum(np.abs(ana), np.abs(numeric)), 1e-8)
            rel = float((np.abs(ana - numeric) / denom).max()) if flat.size else 0.0
            entries.append(GradCheckEntry(p.name, rel, rel < tol))
    return GradCheckReport(entries, tol)
