import copy
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from threadsum import autodiff as ad
from threadsum.autodiff import (
    ComputationTape,
    Parameter,
    ShapeError,
    Tensor,
    backward,
    grad_check,
    no_grad,
)

from helpers import (
    batched_left_matmul_transposed,
    batched_matmul,
    batched_matmul_transposed,
    mul,
    tensor_sum,
)

RNG = np.random.default_rng(7)


def fd_grad(f, x, eps=1e-6):
    """Central finite differences of scalar f w.r.t. ndarray x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def check_op(build, *arrays, eps=1e-6, tol=1e-7):
    """Analytic grads of sum(build(*tensors)) vs finite differences."""
    params = [Parameter(f"p{i}", a.copy()) for i, a in enumerate(arrays)]
    out = build(*params)
    loss = tensor_sum(out) if out.size > 1 else out
    backward(loss)
    for p in params:
        with no_grad():
            num = fd_grad(lambda p=p: float(np.sum(build(*params).data)), p.data, eps=eps)
        np.testing.assert_allclose(p.grad, num, rtol=tol, atol=tol)


def probabilities(scores, bias=None, n=1):
    """The softmax inside ``attention``, read out with one head of width T:
    the query rows are the scores [N, T], as n sequences of N / n queries,
    the keys are sqrt(T)·I and the values I, so each output row is one
    query's probabilities."""
    t = scores.shape[-1]
    keys, values = (Tensor(np.tile(np.eye(t) * c, (n, 1))) for c in (math.sqrt(t), 1.0))
    layout = [(np.ones((n, scores.shape[0] // n), dtype=bool), np.ones((n, t), dtype=bool), bias)]
    return ad.attention(scores, keys, values, 1, layout, None, 0.0)


def softmax(a, bias=None):
    """Softmax over the last axis plus a constant ``bias``, one node: the
    middle step of ``composite_attention``."""
    x = a.data if bias is None else a.data + bias
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    an = a.node

    def rule(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        an.accumulate_grad((g - inner) * y)

    return ad._make(y, (a,), rule)


def head_slots(valid, heads, dz):
    """Index arrays (rows, columns) [n, heads, T, dz] that gather packed
    rows [N, heads * dz] into heads; a slot ``valid`` leaves unmarked reads
    row 0."""
    row = np.zeros(valid.shape, dtype=np.int64)
    row[valid] = np.arange(valid.sum())
    rows = np.broadcast_to(row[:, None, :, None], (valid.shape[0], heads, valid.shape[1], dz))
    cols = np.arange(heads)[:, None, None] * dz + np.arange(dz)
    return rows, np.broadcast_to(cols, rows.shape)


def composite_attention(q, k, v, heads, layout, rng, p, rel=None):
    """``attention`` over a layout of one bucket from the ops it fuses, one
    node each: gathers into heads, the score product, the relation terms,
    scale, softmax, dropout, the product with the values and a gather back
    to rows."""
    (q_valid, kv_valid, bias), = layout
    dz = q.shape[1] // heads
    kv_slots = head_slots(kv_valid, heads, dz)
    qh, kh, vh = q[head_slots(q_valid, heads, dz)], k[kv_slots], v[kv_slots]
    scores = batched_matmul_transposed(qh, kh)
    if rel is not None:
        table, buckets = rel
        rows = np.arange(len(buckets))[:, None]
        scores = ad.add(ad.add(scores, batched_left_matmul_transposed(qh, table)[..., rows, buckets]),
                        batched_left_matmul_transposed(kh, table)[..., rows.T, buckets])
    att = ad.dropout(softmax(ad.scale(scores, 1.0 / math.sqrt(dz)), bias), p, rng)
    seq, pos = np.nonzero(q_valid)
    cols = np.arange(heads * dz)
    return batched_matmul(att, vh)[seq[:, None], cols // dz, pos[:, None], cols % dz]


def held_arrays(*nodes):
    """The arrays the nodes keep for their backward: what their rules close
    over or take as defaults, in lists and tuples too, one per buffer.  A
    node holds no value."""
    found = []
    for node in nodes:
        found += list(node.rule.__defaults__ or ())
        found += [cell.cell_contents for cell in node.rule.__closure__ or ()]
    seen, out = set(), []
    while found:
        a = found.pop(0)
        if isinstance(a, (list, tuple)):
            found += a
        elif isinstance(a, np.ndarray):
            root = a
            while root.base is not None:
                root = root.base
            if id(root) not in seen:
                seen.add(id(root))
                out.append(a)
    return out


class TestElementwiseOps:
    def test_add_equal_shapes(self):
        check_op(ad.add, RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4)))

    @pytest.mark.parametrize("op", [ad.add, mul], ids=["add", "mul"])
    @pytest.mark.parametrize("shapes", [((2, 3, 4), (4,)), ((3, 1, 4), (3, 5, 1)),
                                        ((4, 3), (4,))], ids=["suffix", "size-one", "prefix"])
    def test_add_and_mul_take_one_shape(self, op, shapes):
        # no operand is broadcast, so no backward rule sums a gradient down
        with pytest.raises(ShapeError):
            op(Tensor(np.zeros(shapes[0])), Tensor(np.zeros(shapes[1])))

    def test_add_rejects_misaligned(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_add_rejects_prefix_broadcast(self):
        # prefix-style broadcasting is intentionally unsupported
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.zeros((4, 3))), Tensor(np.zeros((4,))))

    def test_sub_and_mul(self):
        # a difference is an add of a negated operand
        check_op(lambda a, b: ad.add(a, ad.scale(b, -1.0)), RNG.normal(size=(5,)), RNG.normal(size=(5,)))
        check_op(mul, RNG.normal(size=(2, 3)), RNG.normal(size=(2, 3)))

    def test_scale(self):
        check_op(lambda a: ad.scale(a, -2.5), RNG.normal(size=(4, 2)))

    def test_gelu_matches_erf_form(self):
        from scipy.special import erf
        x = np.linspace(-4, 4, 41)
        y = ad.gelu(Tensor(x))
        np.testing.assert_allclose(y.data, x * 0.5 * (1 + erf(x / np.sqrt(2))), atol=1e-15)
        check_op(ad.gelu, RNG.normal(size=(7,)))

    def test_gelu_gradient_is_the_derivative_formula_bit_for_bit(self):
        from scipy.special import erf
        x = Parameter("x", RNG.normal(size=(4, 6)) * 3)
        g = RNG.normal(size=(4, 6))
        ComputationTape(ad.gelu(x)).backward(g)
        xd = x.data
        cdf = 0.5 * (1.0 + erf(xd * (1.0 / math.sqrt(2.0))))
        pdf = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * xd * xd)
        np.testing.assert_array_equal(x.grad, g * (cdf + xd * pdf))

    def test_gelu_under_no_grad_builds_no_node_and_takes_no_exp(self, monkeypatch):
        x = Parameter("x", RNG.normal(size=(3, 5)))
        recorded = ad.gelu(x)
        assert len(held_arrays(recorded.node)) == 1  # the derivative alone
        with no_grad(), monkeypatch.context() as mp:
            mp.setattr(np, "exp", None)  # a call would raise
            y = ad.gelu(x)
        assert y.node is None
        np.testing.assert_array_equal(y.data, recorded.data)

    def test_sigmoid_log(self):
        # the log-likelihood of a sigmoid, as the thread-prediction head forms it
        labels = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
        check_op(ad.sigmoid, RNG.normal(size=(6,)))
        check_op(lambda a: ad.binary_cross_entropy(ad.sigmoid(a), labels), RNG.normal(size=(6,)))

    def test_sigmoid_extreme_inputs_stable(self):
        y = ad.sigmoid(Tensor(np.array([-1e4, 1e4])))
        np.testing.assert_allclose(y.data, [0.0, 1.0])


class TestMatmulAndShapes:
    def test_matmul_2d(self):
        # the one 2-d product is ``linear`` without a bias
        check_op(ad.linear, RNG.normal(size=(3, 4)), RNG.normal(size=(4, 5)))

    def test_linear_without_bias_is_numpys_product(self):
        x, w = Parameter("x", RNG.normal(size=(3, 4))), Parameter("w", RNG.normal(size=(4, 5)))
        g = RNG.normal(size=(3, 5))
        y = ad.linear(x, w)
        assert y.node.parents == (x.node, w.node)
        np.testing.assert_array_equal(y.data, x.data @ w.data)
        ComputationTape(y).backward(g)
        np.testing.assert_array_equal(x.grad, g @ w.data.T)
        np.testing.assert_array_equal(w.grad, x.data.T @ g)

    def test_matmul_batched_equal(self):
        # batched products are the tests' own op, for the composite attention
        check_op(batched_matmul, RNG.normal(size=(2, 3, 4)), RNG.normal(size=(2, 4, 5)))

    def test_matmul_4d(self):
        check_op(batched_matmul, RNG.normal(size=(2, 2, 3, 4)), RNG.normal(size=(2, 2, 4, 3)))

    def test_matmul_rejects_bad_inner(self):
        with pytest.raises(ShapeError) as e:
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)

    def test_matmul_rejects_mismatched_batch(self):
        # ``linear`` is 2-d by 2-d: no batch axes on either side
        for left, right in (((2, 3, 4), (2, 4, 5)), ((4, 5), (2, 5, 6)), ((2, 3, 4), (4, 5))):
            with pytest.raises(ShapeError):
                ad.linear(Tensor(np.zeros(left)), Tensor(np.zeros(right)))
        # the batched helper takes exactly the left's batch axes
        for left, right in (((2, 3, 4), (3, 4, 5)), ((3, 2, 4, 5), (2, 5, 6)), ((2, 3, 4), (4, 5))):
            with pytest.raises(ShapeError):
                batched_matmul(Tensor(np.zeros(left)), Tensor(np.zeros(right)))

    def test_linear_with_bias(self):
        check_op(ad.linear, RNG.normal(size=(3, 4)), RNG.normal(size=(4, 5)),
                 RNG.normal(size=(5,)))
        # a strided input runs as the same one 2-d product
        check_op(lambda x, w, b: ad.linear(x[:, ::2], w, b),
                 RNG.normal(size=(3, 8)), RNG.normal(size=(4, 5)), RNG.normal(size=(5,)))
        # activations are row matrices: leading axes are not flattened
        with pytest.raises(ShapeError):
            ad.linear(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))

    # the head layouts inside ``attention``: lengths 2 and 3 padded to 3 slots
    VALID = np.array([[True, True, False], [True, True, True]])

    @pytest.mark.parametrize("valid", [np.ones((2, 3), dtype=bool), VALID], ids=["dense", "packed"])
    def test_split_and_merge_heads_gradients(self, valid):
        # backward lays gradients out by the same two maps, so each must be
        # the other's adjoint: <heads(x), w> = <x, rows(w)> for any w, its
        # padded slots too
        x = RNG.normal(size=(int(valid.sum()), 4))
        w = RNG.normal(size=(len(valid), 2, valid.shape[1], 2))
        np.testing.assert_allclose(np.vdot(ad._heads(x, valid, 2), w), np.vdot(x, ad._rows(w, valid)),
                                   rtol=1e-12)
        # weighted, so that a misplaced slot shows in the gradient
        layout = [(valid, valid, key_padding(valid))]
        weights = Tensor(RNG.normal(size=x.shape))
        check_op(lambda q, k, v: mul(ad.attention(q, k, v, 2, layout, None, 0.0), weights),
                 x, *RNG.normal(size=(2,) + x.shape))

    def test_split_heads_of_some_rows(self):
        # rows 1..5 of 7 laid out by VALID, between buckets of one row each:
        # they attend as they would alone, and the other rows get a zero
        # gradient from their outputs
        one = np.ones((1, 1), dtype=bool)
        layout = [(one, one, None), (self.VALID, self.VALID, key_padding(self.VALID)), (one, one, None)]
        q, k, v = RNG.normal(size=(3, 7, 4))
        out = ad.attention(Tensor(q), Tensor(k), Tensor(v), 2, layout, None, 0.0).data
        alone = ad.attention(*(Tensor(a[1:6]) for a in (q, k, v)), 2, layout[1:2], None, 0.0).data
        np.testing.assert_array_equal(out[1:6], alone)
        np.testing.assert_array_equal(out[[0, 6]], v[[0, 6]])  # one key takes all the weight
        w = np.zeros((7, 4))
        w[1:6] = RNG.normal(size=(5, 4))
        params = [Parameter(n, a) for n, a in zip("qkv", (q, k, v))]
        backward(tensor_sum(mul(ad.attention(*params, 2, layout, None, 0.0), Tensor(w))))
        for p in params:
            assert not p.grad[[0, 6]].any()
        check_op(lambda *a: mul(ad.attention(*a, 2, layout, None, 0.0), Tensor(w)), q, k, v)

    def test_buckets_of_rows_round_trip(self):
        # two runs of rows, each laid out as its own heads and back to rows
        # in order; with each query on its own key alone, attention is the
        # identity on v, forward and backward, and q and k get no gradient
        layout = [(m, m, np.where(np.eye(m.shape[1], dtype=bool), 0.0, -1e9))
                  for m in (self.VALID, np.ones((2, 4), dtype=bool))]
        q, k, v = (Parameter(n, RNG.normal(size=(13, 4))) for n in "qkv")
        out = ad.attention(q, k, v, 2, layout, None, 0.0)
        np.testing.assert_array_equal(out.data, v.data)
        w = RNG.normal(size=(13, 4))
        backward(tensor_sum(mul(out, Tensor(w))))
        np.testing.assert_array_equal(v.grad, w)
        assert not q.grad.any() and not k.grad.any()

    def test_matmul_transposed(self):
        check_op(ad.matmul_transposed, RNG.normal(size=(3, 4)), RNG.normal(size=(5, 4)))
        a = Tensor(RNG.normal(size=(3, 4)))
        b = Parameter("b", RNG.normal(size=(5, 4)))
        np.testing.assert_array_equal(ad.matmul_transposed(a, b).data, a.data @ b.data.T)
        backward(tensor_sum(ad.matmul_transposed(a, b)))
        assert b.grad.flags.c_contiguous
        with pytest.raises(ShapeError):
            ad.matmul_transposed(a, Tensor(np.zeros((4, 5))))
        # both operands are 2-d; batched ones are the tests' own ops
        for left, right in (((2, 3, 4), (2, 5, 4)), ((3, 4), (2, 5, 4)), ((2, 3, 4), (5, 4))):
            with pytest.raises(ShapeError):
                ad.matmul_transposed(Tensor(np.zeros(left)), Tensor(np.zeros(right)))
        check_op(batched_matmul_transposed, RNG.normal(size=(2, 2, 3, 4)), RNG.normal(size=(2, 2, 5, 4)))
        with pytest.raises(ShapeError):
            batched_matmul_transposed(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 5, 4))))
        # a relation table projection: the 2-d right operand's gradient is
        # one product over all of the left's rows, in its own layout
        check_op(batched_left_matmul_transposed, RNG.normal(size=(2, 2, 3, 4)), RNG.normal(size=(5, 4)))
        a = Tensor(RNG.normal(size=(2, 3, 4)))
        b = Parameter("b", RNG.normal(size=(5, 4)))
        np.testing.assert_array_equal(batched_left_matmul_transposed(a, b).data, a.data @ b.data.T)
        backward(tensor_sum(batched_left_matmul_transposed(a, b)))
        assert b.grad.flags.c_contiguous
        with pytest.raises(ShapeError):
            batched_left_matmul_transposed(a, Tensor(np.zeros((2, 5, 4))))


class TestTableGradient:
    """A 2-d right operand of ``matmul_transposed`` takes its gradient as
    one product, added into a gradient it already has, and the tied
    projection's loss adds no table-sized scratch."""

    B = ad.GRAD_BLOCK_ROWS

    @pytest.mark.parametrize("rows", [B - 1, 2 * B, 2 * B + 1])
    @pytest.mark.parametrize("existing", [False, True], ids=["empty", "existing"])
    def test_blocks_equal_one_product(self, rows, existing):
        rng = np.random.default_rng(rows)
        a = Tensor(rng.normal(size=(6, 5)))
        table = Parameter("table", rng.normal(size=(rows, 5)))
        w = rng.normal(size=(6, rows))
        held = rng.normal(size=table.shape) if existing else None
        expected = w.T @ a.data
        if existing:
            expected += held
        table.grad = held
        backward(tensor_sum(mul(ad.matmul_transposed(a, table), Tensor(w))))
        if existing:
            assert table.grad is held
        np.testing.assert_allclose(table.grad, expected, rtol=1e-12, atol=1e-12)
        assert table.grad.flags.c_contiguous

    @staticmethod
    def _traced_peak(fn):
        """Bytes fn allocates at its peak above what was live before it."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_tied_loss_second_backward_keeps_no_table_sized_scratch(self):
        rng = np.random.default_rng(0)
        table = Parameter("embed", rng.normal(size=(3 * self.B + 5, 64)))
        x = Parameter("x", rng.normal(size=(2, 64)))
        backward(ad.cross_entropy(x, [1, 2], table))
        second = ad.cross_entropy(x, [1, 2], table)
        assert self._traced_peak(lambda: backward(second)) < table.data.nbytes

    def test_cross_entropy_forward_keeps_one_block_sized_scratch(self):
        # the logits are read a block of GRAD_BLOCK_ROWS vocabulary entries
        # at a time, whether given or formed against the table
        rng = np.random.default_rng(0)
        block = 8 * self.B * 8
        logits = Tensor(rng.normal(size=(8, 5000)))
        x, table = Tensor(rng.normal(size=(8, 64))), Tensor(rng.normal(size=(3 * self.B + 5, 64)))
        for run in (lambda: ad.cross_entropy(logits, np.arange(8)),
                    lambda: ad.cross_entropy(x, np.arange(8), table)):
            assert block <= self._traced_peak(run) < 1.5 * block


def logsumexp_reference(x, targets, table, seed=1.0):
    """Plain-numpy loss and gradients of x and the table for the tied loss
    ``seed`` * mean(logsumexp(x E^T) - (x E^T)[t])."""
    logits = x @ table.T
    rows = np.arange(len(x))
    lse = logsumexp(logits, axis=1, keepdims=True)
    loss = np.mean(lse[:, 0] - logits[rows, targets])
    g = np.exp(logits - lse)
    g[rows, targets] -= 1.0
    g *= seed / len(x)
    return loss, g @ table, g.T @ x


def assert_close(got, want, tol=1e-12):
    """|got - want| within ``tol`` of want's largest entry."""
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


class TestTiedCrossEntropy:
    """``cross_entropy`` with a table forms the logits x E^T a block of
    GRAD_BLOCK_ROWS table rows at a time; its loss and gradients match a
    logsumexp reference and the composite through ``matmul_transposed``."""

    B = ad.GRAD_BLOCK_ROWS

    @staticmethod
    def _case(name):
        """(x [S, d], table [V, d], targets) for one named case."""
        rng = np.random.default_rng(len(name))
        v, d = 2 * TestTiedCrossEntropy.B + 37, 6
        table = rng.normal(size=(v, d))
        if name == "several-blocks":
            return rng.normal(size=(5, d)), table, rng.integers(0, v, size=5)
        if name == "edge-and-repeated-targets":
            return rng.normal(size=(7, d)), table, np.array([0, v - 1, 3, v - 1, 0, 4096, 4095])
        # logits of about +-1e4: x's first coordinate meets a +-1 column
        table[:, 0] = rng.choice([-1.0, 1.0], size=v)
        table[:, 1:] *= 1e-3
        x = np.zeros((4, d))
        x[:, 0] = [1e4, -1e4, 1e4, -1e4]
        return x, table, np.array([0, 1, v - 1, 2])

    CASES = ["several-blocks", "edge-and-repeated-targets", "logits-1e4"]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_logsumexp_reference(self, case):
        xd, td, targets = self._case(case)
        x, table = Parameter("x", xd.copy()), Parameter("table", td.copy())
        loss = ad.cross_entropy(x, targets, table)
        backward(ad.scale(loss, 0.37))
        want_loss, want_x, want_table = logsumexp_reference(xd, targets, td, 0.37)
        assert np.isfinite(loss.item())
        assert abs(loss.item() - want_loss) <= 1e-12 * abs(want_loss)
        assert_close(x.grad, want_x)
        assert_close(table.grad, want_table)

    @pytest.mark.parametrize("case", CASES)
    def test_matches_composite(self, case):
        xd, td, targets = self._case(case)
        got, ref = ([Parameter("x", xd.copy()), Parameter("table", td.copy())] for _ in range(2))
        fused = ad.cross_entropy(got[0], targets, got[1])
        composite = ad.cross_entropy(ad.matmul_transposed(*ref), targets)
        assert abs(fused.item() - composite.item()) <= 1e-12 * abs(composite.item())
        backward(fused)
        backward(composite)
        for p, r in zip(got, ref):
            assert_close(p.grad, r.grad)
            assert p.grad.flags.c_contiguous

    def test_second_micro_batch_adds_into_the_table_gradient(self):
        xd, td, targets = self._case("several-blocks")
        x2 = np.random.default_rng(9).normal(size=(3, xd.shape[1]))
        t2 = np.array([1, 2 * self.B + 36, 1])
        table = Parameter("table", td.copy())
        backward(ad.cross_entropy(Tensor(xd), targets, table))
        buffer = table.grad
        backward(ad.cross_entropy(Tensor(x2), t2, table))
        assert table.grad is buffer
        want = logsumexp_reference(xd, targets, td)[2] + logsumexp_reference(x2, t2, td)[2]
        assert_close(table.grad, want)

    def test_without_a_table_several_blocks_match_the_reference(self):
        xd, td, targets = self._case("edge-and-repeated-targets")
        logits = Parameter("logits", xd @ td.T)
        loss = ad.cross_entropy(logits, targets)
        backward(loss)
        want_loss = logsumexp_reference(xd, targets, td)[0]
        assert abs(loss.item() - want_loss) <= 1e-12 * abs(want_loss)
        want = np.exp(logits.data - logsumexp(logits.data, axis=1, keepdims=True))
        want[np.arange(len(xd)), targets] -= 1.0
        assert_close(logits.grad, want / len(xd))

    def test_keeps_no_logit_sized_array(self):
        xd, td, targets = self._case("several-blocks")
        x, table = Parameter("x", xd), Parameter("table", td)
        held = held_arrays(ad.cross_entropy(x, targets, table).node)
        s = len(xd)
        assert sorted(a.shape for a in held) == sorted([(s,), (s, 1), (s, 1), xd.shape, td.shape])
        assert any(a is xd for a in held) and any(a is td for a in held)

    def test_rejects_misaligned(self):
        with pytest.raises(ShapeError):
            ad.cross_entropy(Tensor(np.zeros((2, 4))), [0, 1], Tensor(np.zeros((5, 3))))
        with pytest.raises(IndexError):
            ad.cross_entropy(Tensor(np.zeros((2, 4))), [0, 5], Tensor(np.zeros((5, 4))))


class TestGathers:
    """Indexing is the one gather: ``a.data[key]`` forward, scatter-add backward."""

    def test_row_ids_with_repeats(self):
        ids = np.array([0, 2, 2, 1])
        check_op(lambda a: a[ids], RNG.normal(size=(3, 4)))
        check_op(lambda a: a[ids.reshape(2, 2)], RNG.normal(size=(3, 4)))

    def test_out_of_range_row_id(self):
        with pytest.raises(IndexError):
            Tensor(np.zeros((3, 4)))[np.array([3])]

    def test_per_row_index_2d(self):
        idx = np.array([[0, 1, 1], [2, 0, 2]])
        check_op(lambda a: a[..., np.arange(2)[:, None], idx], RNG.normal(size=(2, 3)))

    def test_per_row_index_under_leading_axes(self):
        idx = np.array([[4, 0, 4, 1], [2, 2, 2, 3], [0, 1, 2, 3]])
        check_op(lambda a: a[..., np.arange(3)[:, None], idx], RNG.normal(size=(2, 3, 5)))

    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_per_row_index_oracle(self, lead):
        # out[..., r, c] = a[..., r, idx[r, c]], and each a[..., r, e] gets
        # the gradient once per time e appears in idx[r]
        a = Parameter("a", np.broadcast_to(np.arange(12.0).reshape(3, 4), lead + (3, 4)).copy())
        idx = np.array([[3, 0], [1, 1], [2, 3]])
        out = a[..., np.arange(3)[:, None], idx]
        np.testing.assert_array_equal(out.data, np.broadcast_to([[3, 0], [5, 5], [10, 11]], lead + (3, 2)))
        backward(tensor_sum(out))
        counts = [np.bincount(row, minlength=4) for row in idx]
        np.testing.assert_array_equal(a.grad, np.broadcast_to(counts, lead + (3, 4)))

    def test_index_pairs_with_repeats(self):
        rows = np.array([0, 1, 1, 2])
        cols = np.array([1, 0, 0, 2])
        check_op(lambda a: a[rows, cols], RNG.normal(size=(3, 3)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_row_scatter_matches_add_at(self, data):
        rows = data.draw(st.integers(1, 6), label="rows")
        cols = data.draw(st.integers(1, 4), label="cols")
        ids = np.array(data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=12),
                                 label="ids"))
        if data.draw(st.booleans(), label="2-d ids") and ids.size % 2 == 0:
            ids = ids.reshape(2, -1)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        table = Parameter("table", rng.normal(size=(rows, cols)))
        g = rng.normal(size=ids.shape + (cols,))
        expected = np.zeros((rows, cols))
        if data.draw(st.booleans(), label="gradient already held"):
            expected = rng.normal(size=(rows, cols))
            table.grad = expected.copy()
        for i, row in zip(ids.reshape(-1), g.reshape(-1, cols)):
            expected[i] += row
        ComputationTape(table[ids]).backward(g)
        np.testing.assert_allclose(table.grad, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("scatter_first", [False, True])
    def test_gather_on_a_tensor_with_a_lent_gradient(self, scatter_first):
        # ``add`` hands its gradient to one operand and a copy to the other,
        # and the gather on ``a`` scatters into a's gradient, before or after
        # the add's backward.  ``a`` reads ``b``, so b's backward runs after
        # the scatter: a scatter into an array b also held would show there.
        ids = np.array([2, 0, 2])

        def build(p, q):
            b = ad.scale(q, 1.0)
            a = ad.add(ad.scale(p, 1.0), b)
            parts = [ad.add(a, b), a[ids]]
            return ad.add(*(parts[::-1] if scatter_first else parts))

        check_op(build, RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4)))

    def test_basic_indexing(self):
        check_op(lambda a: a[1:, :2], RNG.normal(size=(3, 4)))


class TestReductionsAndLosses:
    def test_sum_mean_axes(self):
        check_op(lambda a: tensor_sum(a), RNG.normal(size=(3, 4)))
        check_op(lambda a: tensor_sum(a, axis=1), RNG.normal(size=(3, 4)))
        # a mean is a scaled sum
        check_op(lambda a: ad.scale(tensor_sum(a, axis=0), 1.0 / 3), RNG.normal(size=(3, 4)))

    def test_softmax_rows_sum_to_one(self):
        x = RNG.normal(size=(4, 7)) * 30
        y = probabilities(Tensor(x))
        np.testing.assert_allclose(y.data.sum(axis=-1), np.ones(4), atol=1e-12)
        check_op(probabilities, RNG.normal(size=(3, 5)))

    def test_softmax_additive_mask_gives_exact_zero(self):
        x = np.array([[1.0, 2.0, 3.0]])
        y = probabilities(Tensor(x), np.array([0.0, 0.0, -1e9]))
        assert y.data[0, 2] == 0.0

    def test_softmax_bias_is_added_before_the_max(self):
        # 6 sequences of 4 queries against 5 keys, with a [n, 1, 1, T]
        # padding mask and an [s, T] causal mask, as attention takes them
        x = RNG.normal(size=(24, 5)) * 10
        for bias in (key_padding(lengths_mask([5, 3] * 3, 5)), np.triu(np.full((4, 5), -1e9), k=2)):
            added = x + np.broadcast_to(bias, (6, 1, 4, 5)).reshape(24, 5)
            np.testing.assert_array_equal(probabilities(Tensor(x), bias, 6).data,
                                          probabilities(Tensor(added), None, 6).data)
            check_op(lambda a, bias=bias: mul(probabilities(a, bias, 6), Tensor(x)), x)

    def test_layer_norm(self):
        check_op(ad.layer_norm, RNG.normal(size=(2, 3, 6)),
                 RNG.normal(size=(6,)), RNG.normal(size=(6,)))

    def test_layer_norm_output_stats(self):
        x = RNG.normal(size=(4, 16)) * 3 + 5
        g = Tensor(np.ones(16))
        b = Tensor(np.zeros(16))
        y = ad.layer_norm(Tensor(x), g, b, eps=0.0)
        np.testing.assert_allclose(y.data.mean(axis=-1), 0, atol=1e-12)
        np.testing.assert_allclose(y.data.std(axis=-1), 1, atol=1e-9)

    def test_cross_entropy_uniform_logits(self):
        v = 37
        logits = Tensor(np.zeros((5, v)))
        loss = ad.cross_entropy(logits, np.arange(5))
        assert abs(loss.item() - np.log(v)) < 1e-12

    def test_cross_entropy_grad(self):
        targets = np.array([1, 0, 3])
        check_op(lambda a: ad.cross_entropy(a, targets), RNG.normal(size=(3, 4)))

    def test_cross_entropy_gradient_is_the_stored_formula_bit_for_bit(self):
        # the backward recomputes e / z from the logits; the rule that kept
        # e = exp(logits - max) from the forward gave the same bits
        t, v = 7, 301
        x = RNG.normal(size=(t, v)) * 5
        targets = RNG.integers(0, v, size=t)
        logits = Parameter("logits", x.copy())
        loss = ad.cross_entropy(logits, targets)
        # it keeps no [T, V] array but the logits
        held = held_arrays(loss.node)
        assert sorted(a.shape for a in held) == [(t,), (t, 1), (t, 1), (t, v)]
        assert any(a is logits.data for a in held)
        backward(ad.scale(loss, 0.37))
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        want[np.arange(t), targets] -= 1.0
        want *= 0.37 / t
        np.testing.assert_array_equal(logits.grad, want)

    def test_cross_entropy_rejects_bad_target(self):
        with pytest.raises(IndexError):
            ad.cross_entropy(Tensor(np.zeros((2, 4))), np.array([0, 4]))

    def test_cross_entropy_extreme_logits(self):
        logits = Tensor(np.array([[1e4, 0.0], [-1e4, 0.0]]))
        loss = ad.cross_entropy(logits, np.array([0, 1]))
        assert np.isfinite(loss.item())

    def test_bce_sum_value(self):
        p = Tensor(np.full(6, 0.5))
        loss = ad.binary_cross_entropy(p, np.array([1, 0, 1, 0, 0, 1]))
        assert abs(loss.item() - 6 * np.log(2)) < 1e-12

    def test_bce_grad_both_reductions(self):
        # the loss is a sum; a mean is that sum scaled
        labels = np.array([1.0, 0.0, 1.0, 1.0])
        check_op(lambda a: ad.binary_cross_entropy(a, labels),
                 RNG.uniform(0.1, 0.9, size=(4,)))
        check_op(lambda a: ad.scale(ad.binary_cross_entropy(a, labels), 1.0 / len(labels)),
                 RNG.uniform(0.1, 0.9, size=(4,)))

    def test_bce_clamps_and_warns(self):
        p = Parameter("p", np.array([1e-12, 0.5]))
        with pytest.warns(RuntimeWarning):
            loss = ad.binary_cross_entropy(p, np.array([0.0, 1.0]))
        assert np.isfinite(loss.item())
        backward(loss)
        assert p.grad[0] == 0.0  # clamped entry gets no gradient


def lengths_mask(lengths, t):
    """valid [n, t] for sequences of the given lengths padded to t slots."""
    return np.arange(t) < np.asarray(lengths)[:, None]


def key_padding(kv_valid):
    """-1e9 at every unmarked key of kv_valid [n, T], for all heads and queries."""
    return np.where(kv_valid, 0.0, -1e9)[:, None, None, :]


def attention_arrays(layout, d, relation):
    """Random q, k and v rows for ``layout``, and a relation table of 4
    buckets for 2 heads when ``relation``."""
    nq, nk = (sum(int(bucket[i].sum()) for bucket in layout) for i in (0, 1))
    arrays = [RNG.normal(size=(nq, d)), RNG.normal(size=(nk, d)), RNG.normal(size=(nk, d))]
    return arrays + [RNG.normal(size=(4, d // 2))] * relation


class TestAttention:
    """``attention`` against the ops it fuses, finite differences, and what
    its rule keeps.  A case is (layout, dropout p, relation bucket ids)."""

    ONES = (np.ones((2, 4), dtype=bool), np.ones((2, 5), dtype=bool))
    PADDED = (lengths_mask([4, 3], 4), lengths_mask([5, 3], 5))
    RELATION = np.random.default_rng(3).integers(0, 4, size=(5, 5))
    # one bucket each, as the composite takes
    CASES = {
        "no-bias": ([(*ONES, None)], 0.0, None),
        "padding": ([(*PADDED, key_padding(PADDED[1]))], 0.0, None),
        # 4 queries after 1 cached position
        "causal": ([(*ONES, np.triu(np.full((4, 5), -1e9), k=2))], 0.0, None),
        "dropout": ([(*PADDED, key_padding(PADDED[1]))], 0.3, None),
        "relation": ([(ONES[1], ONES[1], None)], 0.0, RELATION),
    }
    BUCKETS = [lengths_mask([2, 1], 2), lengths_mask([3, 3, 2], 3), np.ones((1, 4), dtype=bool)]
    LAYOUTS = {
        # the token encoder's: runs of rows, each padded to its own longest
        "buckets": ([(m, m, key_padding(m)) for m in BUCKETS], 0.3, None),
        # every query row against one memory
        "cross": ([(np.ones((1, 6), dtype=bool), np.ones((1, 5), dtype=bool), None)], 0.0, None),
        # 2 beams, 2 new positions after 3 cached ones, keys beam-major
        "cached": ([(np.ones((2, 2), dtype=bool), np.ones((2, 5), dtype=bool),
                     np.triu(np.full((2, 5), -1e9), k=4))], 0.0, None),
    }

    @staticmethod
    def run(op, layout, p, relation, arrays, rng):
        """Parameters for ``arrays`` and their gradients under ``op``'s
        output, weighted so that a misplaced row shows."""
        params = [Parameter(n, a.copy()) for n, a in zip("qkvt", arrays)]
        rel = None if relation is None else (params[3], relation)
        out = op(*params[:3], 2, layout, rng, p, rel)
        weights = np.random.default_rng(1).normal(size=out.shape)
        backward(tensor_sum(mul(out, Tensor(weights))))
        return [out.data] + [x.grad for x in params]

    @pytest.mark.parametrize("scale", [0.5, 1.0])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_composite_bit_for_bit(self, case, scale):
        # the scale is 1 / sqrt(dz), so dz is 4 or 1
        layout, p, relation = self.CASES[case]
        arrays = attention_arrays(layout, 2 * round(scale ** -2), relation is not None)
        rng = np.random.default_rng(11)
        clone = copy.deepcopy(rng)
        got = self.run(ad.attention, layout, p, relation, arrays, rng)
        want = self.run(composite_attention, layout, p, relation, arrays, clone)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        assert rng.random() == clone.random()  # the same draws

    @pytest.mark.parametrize("case", sorted(CASES) + sorted(LAYOUTS))
    def test_finite_differences(self, case):
        layout, p, relation = {**self.CASES, **self.LAYOUTS}[case]
        weights = Tensor(RNG.normal(size=(sum(int(b[0].sum()) for b in layout), 6)))

        def op(q, k, v, *table):
            # a fresh generator per call keeps the dropout draw fixed
            rel = None if relation is None else (table[0], relation)
            return mul(ad.attention(q, k, v, 2, layout, np.random.default_rng(5), p, rel), weights)

        check_op(op, *attention_arrays(layout, 6, relation is not None))

    @pytest.mark.parametrize("scale", [0.5, 1.0])
    def test_constant_relation_table(self, scale):
        # a table without a node still adds its q·r and k·r terms to the
        # gradients of q and k, as the composite's gathers do
        layout, p, relation = self.CASES["relation"]
        arrays = attention_arrays(layout, 2 * round(scale ** -2), True)
        weights = np.random.default_rng(1).normal(size=arrays[0].shape)
        grads = []
        for op in (ad.attention, composite_attention):
            q, k, v = (Parameter(n, a.copy()) for n, a in zip("qkv", arrays))
            out = op(q, k, v, 2, layout, None, p, (Tensor(arrays[3]), relation))
            backward(tensor_sum(mul(out, Tensor(weights))))
            grads.append([out.data, q.grad, k.grad, v.grad])
        for g, w in zip(*grads):
            np.testing.assert_array_equal(g, w)
        # and the same as with the table as a parameter
        with_table = self.run(ad.attention, layout, p, relation, arrays, None)
        for g, w in zip(grads[0], with_table):
            np.testing.assert_array_equal(g, w)

    # lengths 2 and 3 in a batch padded to 3 slots; all-true masks are the
    # unpadded layouts of one sequence and of b beams of equal length
    MASKS = {"padded": lengths_mask([2, 3], 3), "one-sequence": np.ones((1, 3), dtype=bool),
             "beams": np.ones((2, 3), dtype=bool)}

    def test_head_layouts_and_inverse(self):
        for valid in self.MASKS.values():
            x = RNG.normal(size=valid.shape + (4,))
            packed = x[valid]
            heads = ad._heads(packed, valid, 2)
            dense = np.where(valid[:, :, None], x, 0.0).reshape(valid.shape + (2, 2))
            np.testing.assert_array_equal(heads, np.swapaxes(dense, 1, 2))
            np.testing.assert_array_equal(ad._rows(heads, valid), packed)
            # unpadded heads are a view of the rows
            assert np.shares_memory(heads, packed) == valid.all()

    def test_keeps_probabilities_and_a_bool_mask(self):
        for case in ("buckets", "relation"):
            layout, _, relation = {**self.CASES, **self.LAYOUTS}[case]
            q, k, v, *table = (Parameter(n, a) for n, a in
                               zip("qkvt", attention_arrays(layout, 6, relation is not None)))
            rel = None if relation is None else (table[0], relation)
            out = ad.attention(q, k, v, 2, layout, np.random.default_rng(0), 0.3, rel)
            held = held_arrays(out.node)
            given = [x.data for x in (q, k, v, *table)] + ([] if relation is None else [relation])
            # the rows as given, and the relation table and bucket ids
            assert all(any(a is x for a in held) for x in given)
            rest = [a for a in held if not any(a is x for x in given)]
            # then per bucket the probabilities and the keep mask, and the
            # layout's valid masks: no scores, no head copies
            probs = sorted(a.shape for a in rest if a.dtype.kind == "f")
            assert probs == sorted((len(b[0]), 2) + b[0].shape[1:] + b[1].shape[1:] for b in layout)
            assert all(a.dtype == bool for a in rest if a.dtype.kind != "f")
            assert sorted(a.shape for a in rest if a.dtype == bool and a.ndim == 4) == probs
            for a in rest:
                if a.dtype.kind == "f":
                    np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-12)

    def test_rejects_misaligned(self):
        one = [(np.ones((1, 4), dtype=bool), np.ones((1, 4), dtype=bool), None)]
        rows = Tensor(np.zeros((4, 6)))
        for q, k, v, heads, layout in (
                (Tensor(np.zeros((4, 4))), rows, rows, 2, one),  # q width differs
                (rows, rows, Tensor(np.zeros((4, 4))), 2, one),  # v width differs
                (rows, rows, rows, 4, one),  # 6 is not 4 heads
                (rows, rows, rows, 2, [(np.ones((1, 3), dtype=bool),) * 2 + (None,)]),  # 3 rows of 4
                # two query sequences against one key sequence
                (rows, rows, rows, 2, [(np.ones((2, 2), dtype=bool), np.ones((1, 4), dtype=bool), None)])):
            with pytest.raises(ShapeError):
                ad.attention(q, k, v, heads, layout, None, 0.0)


class TestGraphMechanics:
    def test_value_reused_twice_accumulates(self):
        x = Parameter("x", np.array([3.0]))
        y = mul(x, x)  # d/dx x^2 = 2x
        backward(tensor_sum(y))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_diamond_graph(self):
        x = Parameter("x", np.array([2.0]))
        a = ad.scale(x, 3.0)
        b = mul(x, x)
        out = tensor_sum(ad.add(a, b))  # 3x + x^2 -> 3 + 2x = 7
        backward(out)
        np.testing.assert_allclose(x.grad, [7.0])

    def test_backward_twice_doubles_param_grads(self):
        x = Parameter("x", RNG.normal(size=(3,)))
        loss = tensor_sum(mul(x, x))
        backward(loss)
        first = x.grad.copy()
        backward(tensor_sum(mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_backward_releases_rules_and_keeps_parents(self):
        x = Parameter("x", RNG.normal(size=(3, 4)))
        y = ad.scale(x, 2.0)
        loss = tensor_sum(ad.add(mul(y, y), y))
        nodes = ComputationTape(loss).nodes
        assert [n for n in nodes if not n.parents] == [x.node]
        assert all(n.rule is not None for n in nodes if n.parents)
        backward(loss)
        after = ComputationTape(loss).nodes
        assert [id(n) for n in after] == [id(n) for n in nodes]
        assert all(n.rule is None and n.grad is None for n in after if n.parents)
        np.testing.assert_allclose(x.grad, 2 * (2 * 2 * x.data + 1), rtol=1e-14)

    @pytest.mark.parametrize("shared", [False, True], ids=["same-tape", "shared-graph"])
    def test_second_backward_raises(self, shared):
        x = Parameter("x", RNG.normal(size=(3,)))
        y = mul(x, x)
        loss = tensor_sum(y)
        tape = ComputationTape(loss)
        tape.backward()
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="already run"):
            if shared:
                backward(tensor_sum(ad.scale(y, 2.0)))
            else:
                tape.backward()
        np.testing.assert_array_equal(x.grad, first)

    @pytest.mark.parametrize("second_use", ["gather", "scale"])
    def test_seed_is_only_read(self, second_use):
        # the root takes a copy of the seed and hands it on to both add
        # operands, one of them a copy; h then gets a second gradient,
        # scattered by a gather or added by a scale, into the array it holds
        ids = np.array([0, 0, 1])
        p = Parameter("p", RNG.normal(size=(3, 4)))
        h = ad.scale(p, 2.0)
        other = h[ids] if second_use == "gather" else ad.scale(h, 3.0)
        seed = RNG.normal(size=(3, 4))
        before = seed.copy()
        ComputationTape(ad.add(h, other)).backward(seed)
        np.testing.assert_array_equal(seed, before)
        expected = before.copy()
        if second_use == "gather":
            np.add.at(expected, ids, before)
        else:
            expected += 3.0 * before
        np.testing.assert_allclose(p.grad, 2.0 * expected, rtol=1e-14)

    def test_parameter_copies_a_strided_first_gradient(self):
        # no op here hands over a strided view, but a rule written elsewhere
        # may; clipping scales a parameter's gradient in place.  Every node
        # takes its gradient by the one rule
        p = Parameter("p", np.zeros((3, 2)))
        for node in (p.node, ad.scale(p, 2.0).node):
            g = RNG.normal(size=(2, 3))
            node.accumulate_grad(g.T)
            assert node.grad.flags.c_contiguous and not np.shares_memory(node.grad, g)
            np.testing.assert_array_equal(node.grad, g.T)
        assert p.grad is p.node.grad

    def test_tape_topological_order(self):
        x = Parameter("x", np.array([1.0]))
        a = ad.scale(x, 2.0)
        b = ad.add(a, x)
        c = mul(b, a)
        tape = ComputationTape(c)
        pos = {id(n): i for i, n in enumerate(tape.nodes)}
        for node in tape.nodes:
            for p in node.parents:
                assert pos[id(p)] < pos[id(node)]

    def test_no_grad_builds_no_graph(self):
        x = Parameter("x", np.ones(3))
        with no_grad():
            y = mul(x, x)
        assert not y.requires_grad and y.node is None
        with pytest.raises(RuntimeError):
            backward(tensor_sum(y))

    def test_backward_needs_scalar(self):
        x = Parameter("x", np.ones(3))
        with pytest.raises(ShapeError):
            backward(mul(x, x))

    def test_constants_are_not_tracked(self):
        x = Parameter("x", np.ones((2, 2)))
        c = Tensor(np.ones((2, 2)))
        y = ad.add(x, c)
        assert c.node is None and y.node.parents == (x.node,)
        backward(tensor_sum(y))
        np.testing.assert_array_equal(x.grad, np.ones((2, 2)))

    def test_tensor_is_a_value(self):
        # a tensor holds its array and its node, and no graph slot of its own
        x = Parameter("x", np.ones((2, 2)))
        for t in (Tensor, Tensor(np.ones(3)), ad.scale(x, 2.0)):
            assert not [slot for slot in ("grad", "parents", "rule") if hasattr(t, slot)]
        for t in (Parameter, x):  # a parameter's grad is its node's
            assert not hasattr(t, "parents") and not hasattr(t, "rule")
        assert ad.scale(x, 2.0).shape == (2, 2) and x.dtype == np.float64

    def test_parameter_owns_a_leaf_node(self):
        p = Parameter("p", np.ones((2, 3)))
        assert p.node is not p and not p.node.parents and p.node.rule is None
        assert (p.node.shape, p.node.dtype) == (p.shape, p.dtype)
        p.grad = np.full((2, 3), 2.0)
        assert p.node.grad is p.grad
        p.zero_grad()
        assert p.grad is None and p.node.grad is None

    def test_deleted_parameter_frees_its_node(self):
        # the node holds no reference back to its parameter, so no cycle
        # keeps either alive
        enabled = gc.isenabled()
        gc.disable()
        try:
            p = Parameter("p", np.ones(3))
            backward(tensor_sum(ad.scale(p, 2.0)))
            refs = [weakref.ref(p), weakref.ref(p.node)]
            assert refs[0]() is not refs[1]()
            del p
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()

    def test_dropout_eval_is_identity(self):
        x = Parameter("x", RNG.normal(size=(4,)))
        assert ad.dropout(x, 0.5, None) is x
        rng = np.random.default_rng(0)
        clone = copy.deepcopy(rng)
        assert ad.dropout(x, 0.0, rng) is x
        assert rng.random() == clone.random()  # p = 0 draws nothing

    def test_dropout_train_masks_and_rescales(self):
        rng = np.random.default_rng(0)
        x = Parameter("x", np.ones(10000))
        y = ad.dropout(x, 0.25, rng)
        kept = y.data != 0
        assert abs(kept.mean() - 0.75) < 0.02
        np.testing.assert_allclose(y.data[kept], 1 / 0.75)
        backward(tensor_sum(y))
        np.testing.assert_array_equal(x.grad != 0, kept)

    def test_dropout_keeps_a_bool_mask(self):
        x = Parameter("x", RNG.normal(size=(3, 5, 7)))
        y = ad.dropout(x, 0.3, np.random.default_rng(0))
        saved = held_arrays(y.node)
        assert [(a.dtype, a.shape) for a in saved] == [(np.dtype(bool), x.shape)]

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.9])
    def test_dropout_mask_matches_reference_draw(self, p):
        rng = np.random.default_rng(7)
        clone = copy.deepcopy(rng)
        x = Tensor(RNG.normal(size=(3, 5, 7)))
        y = ad.dropout(x, p, rng)
        mask = (clone.random(x.shape) >= p).astype(x.dtype) / (1 - p)
        np.testing.assert_array_equal(y.data, x.data * mask)
        assert rng.random() == clone.random()  # same number of draws


class TestHandOver:
    """A gradient handed to ``accumulate_grad`` belongs to its receiver
    alone, so adding later gradients into it in place changes no other."""

    MOTIFS = ("add-self", "add-pair", "gather-and-2-d-right", "2-d-right", "batched-right",
              "attention", "attention-relation")
    HEADS = np.ones((2, 2), dtype=bool)  # 4 rows as 2 sequences of 2, 2 heads
    PAIRS = np.array([[0, 1], [2, 3]])
    RELATION = np.array([[0, 3], [3, 1]])

    def _graph(self, motifs, seed):
        """Parameter gradients of a weighted sum over the motifs.  An operand
        is one of three parameters or of three tracked tensors computed
        from them, each shared by every motif that picks it."""
        rng = np.random.default_rng(seed)
        params = [Parameter(f"p{i}", rng.normal(size=(4, 4))) for i in range(3)]
        operands = params + [ad.scale(p, 0.5) for p in params]
        layout = [(self.HEADS, self.HEADS, None)]
        outs = []
        for motif, i, j in motifs:
            x, y = operands[i], operands[j]
            if motif == "add-self":
                outs.append(ad.add(x, x))
            elif motif == "add-pair":
                outs.append(ad.add(x, y))
            elif motif == "gather-and-2-d-right":
                # both add into x's one gradient buffer
                outs += [x[np.array([3, 0, 3])], ad.matmul_transposed(y, x)]
            elif motif == "2-d-right":
                outs += [ad.matmul_transposed(x, y), batched_left_matmul_transposed(x[self.PAIRS], y)]
            elif motif == "batched-right":
                outs.append(batched_matmul_transposed(x[self.PAIRS], y[self.PAIRS]))
            elif motif == "attention":
                # q and v are one operand, and with i == j k is too
                outs.append(ad.attention(x, y, x, 2, layout, None, 0.0))
            else:
                # the relation table is a third operand's rows
                outs.append(ad.attention(x, y, y, 2, layout, None, 0.0, rel=(x[:, :2], self.RELATION)))
        losses = [tensor_sum(mul(out, Tensor(rng.normal(size=out.shape)))) for out in outs]
        total = losses[0]
        for loss in losses[1:]:
            total = ad.add(total, loss)
        backward(total)
        return params

    @settings(max_examples=80, deadline=None)
    @given(motifs=st.lists(st.tuples(st.sampled_from(MOTIFS), st.integers(0, 5), st.integers(0, 5)),
                           min_size=1, max_size=5),
           seed=st.integers(0, 2**16))
    def test_matches_zero_fill_accumulation(self, zero_fill_reference, motifs, seed):
        got = self._graph(motifs, seed)
        with zero_fill_reference():
            ref = self._graph(motifs, seed)
        for p, r in zip(got, ref):
            if r.grad is None:
                assert p.grad is None, p.name
                continue
            np.testing.assert_array_equal(p.grad, r.grad, err_msg=p.name)
            assert p.grad.flags.c_contiguous, p.name
        held = [p for p in got if p.grad is not None]
        for i, p in enumerate(held):
            for q in held[i + 1:]:
                assert not np.shares_memory(p.grad, q.grad), (p.name, q.name)


class TestGradChecker:
    def _setup(self):
        w = Parameter("w", RNG.normal(size=(3, 2)) * 0.5)
        b = Parameter("b", np.zeros(2), decay=False)
        x = Tensor(RNG.normal(size=(4, 3)))
        t = np.array([0, 1, 1, 0])

        def f():
            return ad.cross_entropy(ad.linear(x, w, b), t)

        return f, [w, b]

    def test_passes_on_correct_rules(self):
        f, params = self._setup()
        report = grad_check(f, params, eps=1e-4, tol=1e-6)
        assert report.passed
        assert {e.name for e in report.entries} == {"w", "b"}
        assert "ok" in report.format()

    def test_detects_corrupted_backward(self):
        w = Parameter("w", RNG.normal(size=(2, 2)))
        x = Tensor(RNG.normal(size=(3, 2)))

        def bad_square(t):
            td, tn = t.data, t.node

            def rule(g):
                tn.accumulate_grad(g * td)  # wrong: missing factor 2
            return ad._make(td * td, (t,), rule)

        def f():
            return tensor_sum(bad_square(ad.linear(x, w)))

        report = grad_check(f, [w], eps=1e-5, tol=1e-6)
        assert not report.passed
        assert "FAIL" in report.format()

    def test_detects_nondeterminism(self):
        state = {"n": 0.0}

        def f():
            state["n"] += 1.0
            return Tensor(np.array(state["n"]))

        with pytest.raises(RuntimeError, match="deterministic"):
            grad_check(f, [])

    def test_restores_parameter_values(self):
        f, params = self._setup()
        before = [p.data.copy() for p in params]
        grad_check(f, params, eps=1e-4)
        for p, orig in zip(params, before):
            np.testing.assert_array_equal(p.data, orig)
