"""Unit tests for the reverse-mode autodiff engine."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import advlm.autodiff as ad
from advlm.errors import ShapeError

from gradcheck import numerical_grad, rel_error
from reference import hand_lstm_step, logsumexp_rows

OP_TOL = 1e-4


def _loss_of(op, *tensors):
    """Scalar-reduce an op so finite differences apply; weights fixed per shape."""
    out = op(*tensors)
    return ad.weighted_sum(out, _reduction_weights(out.shape))


def _reduction_weights(shape):
    # Non-uniform weights catch backward-rule transposition mistakes that a
    # plain sum() would mask.
    n = int(np.prod(shape)) if shape else 1
    return (np.arange(1, n + 1, dtype=np.float64) / n).reshape(shape)


def _check_grads(op, tensors, tol=OP_TOL):
    for t in tensors:
        t.grad = None
    with ad.Tape() as tape:
        loss = _loss_of(op, *tensors)
    tape.backward(loss)
    for t in tensors:
        fd = numerical_grad(lambda: float(_loss_of(op, *tensors).values), t.values)
        assert rel_error(t.grad, fd) < tol


def _lstm_args(rng, L, B, I, H, r=0.5, state=True):
    """Leaf tensors (x, w_x, w_h, bias), then the constant state arrays
    (h0, c0), for lstm_layer."""
    def t(*shape):
        return ad.Tensor(rng.uniform(-r, r, shape))
    h0, c0 = ((rng.uniform(-r, r, (B, H)), rng.uniform(-r, r, (B, H))) if state
              else (np.zeros((B, H)),) * 2)
    return t(L * B, I), t(I, 4 * H), t(H, 4 * H), t(4 * H), h0, c0


def _lstm_out(*args):
    return ad.lstm_layer(*args)[0]


def _check_lstm_grads(args, tol=OP_TOL):
    """Check the gradients of all four tensor inputs of lstm_layer."""
    *tensors, h0, c0 = args
    _check_grads(lambda *ts: _lstm_out(*ts, h0, c0), tensors, tol)


class TestElementwise:
    def test_tanh_zero(self):
        # zero weights, input and state: g = tanh(0) = 0, so h and c stay 0
        args = _lstm_args(np.random.default_rng(0), 2, 2, 3, 4, r=0.0, state=False)
        hs, h, c = ad.lstm_layer(*args)
        assert not hs.values.any() and not h.any() and not c.any()

    def test_sigmoid_zero(self):
        # zero pre-activations: i = o = sigmoid(0) = 0.5 exactly, f = sigmoid(1)
        rng = np.random.default_rng(1)
        x, w_x, w_h, bias, h0, c0 = _lstm_args(rng, 1, 2, 3, 4)
        for p in (x, w_x, w_h, bias):
            p.values[:] = 0.0
        hs, _, c = ad.lstm_layer(x, w_x, w_h, bias, h0, c0)
        f = 1.0 / (1.0 + np.exp(-1.0))
        np.testing.assert_allclose(c, f * c0, rtol=1e-15)
        np.testing.assert_array_equal(hs.values, 0.5 * np.tanh(c))

    def test_tanh_gradient_at_0p3(self):
        # i = o = 1 and f = 0 (saturated), g = tanh(atanh(0.3)): c = g = 0.3
        # and h = tanh(c), so dh/dbias_g = (1 - tanh(c)^2)(1 - g^2) is the
        # layer's tanh derivative at 0.3, once for c and once for g
        bias = ad.Tensor([800.0, -800.0, np.arctanh(0.3), 800.0])
        zeros = ad.Tensor(np.zeros((1, 4)))
        state = np.zeros((1, 1))

        def run():
            return ad.lstm_layer(ad.Tensor([[0.0]]), zeros, zeros, bias, state, state)
        with ad.Tape() as tape:
            hs, _, c = run()
            loss = ad.weighted_sum(hs, [[1.0]])
        tape.backward(loss)
        np.testing.assert_allclose(c, [[0.3]], rtol=1e-15)
        g = c[0, 0]  # c = i*g + f*c0 = g
        want = (1.0 - np.tanh(g) ** 2) * (1.0 - g ** 2)
        np.testing.assert_allclose(bias.grad, [0.0, 0.0, want, 0.0], rtol=1e-15)
        fd = numerical_grad(lambda: float(run()[0].values[0, 0]), bias.values)
        assert rel_error(bias.grad, fd) < OP_TOL

    def test_sigmoid_extreme_inputs_finite(self):
        # gate pre-activations of +-800 saturate the layer's sigmoids to 0/1
        x = ad.Tensor([[1.0], [-1.0]])
        w_x = ad.Tensor(np.full((1, 4), 800.0))
        hs, _, c = ad.lstm_layer(x, w_x, ad.Tensor(np.zeros((1, 4))),
                                 ad.Tensor(np.zeros(4)), np.zeros((2, 1)),
                                 np.zeros((2, 1)))
        assert np.all(np.isfinite(hs.values)) and np.all(np.isfinite(c))
        # row 0: i = o = 1, g = 1 -> c = 1; row 1: i = o = 0 -> h = c = 0
        np.testing.assert_allclose(c, [[1.0], [0.0]], atol=1e-12)
        np.testing.assert_allclose(hs.values, [[np.tanh(1.0)], [0.0]], atol=1e-12)


def _head(h, w, targets, shift=None):
    """nll_rows, by default with zero shifts: (loss, nll)."""
    n = np.asarray(h.values).shape[0]
    return ad.nll_rows(h, w, targets, np.zeros(n) if shift is None else shift)


class TestLogSumExp:
    """The log-sum-exp inside the softmax head: stability, softmax gradient,
    shapes. With w = I the head's logits are h itself."""

    def test_two_zeros(self):
        out = _head(ad.Tensor([[0.0, 0.0]]), ad.Tensor(np.eye(2)), [0])[1]
        assert out[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_large_inputs_no_overflow(self):
        out = _head(ad.Tensor([[1000.0, 1000.0]]), ad.Tensor(np.eye(2)), [1])[1]
        assert out[0] == pytest.approx(math.log(2), abs=1e-9)

    def test_gradient_is_softmax(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.uniform(-2, 2, (3, 8)))
        eye = ad.Tensor(np.eye(8))
        targets = [5, 0, 7]
        with ad.Tape() as tape:
            loss = _head(x, eye, targets)[0]
        tape.backward(loss)
        e = np.exp(x.values - x.values.max(axis=1, keepdims=True))
        soft = e / e.sum(axis=1, keepdims=True)
        soft[np.arange(3), targets] -= 1.0
        soft /= 3  # the loss is the mean over the rows
        np.testing.assert_allclose(x.grad, soft, rtol=1e-12, atol=1e-15)
        fd = numerical_grad(lambda: float(_head(x, eye, targets)[0].values), x.values)
        assert rel_error(x.grad, fd) < OP_TOL

    def test_empty_input_rejected(self):
        with pytest.raises(ShapeError):
            _head(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((0, 3))), [0, 0])

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = int(rng.integers(1, 12))
            x = rng.uniform(-5, 5, (1, k))
            c = rng.uniform(-1000, 1000)
            y = [int(rng.integers(k))]
            lhs = _head(ad.Tensor(x + c), ad.Tensor(np.eye(k)), y)[1][0]
            rhs = _head(ad.Tensor(x), ad.Tensor(np.eye(k)), y)[1][0]
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(c))


class TestGatherRows:
    def test_identity_row(self):
        out = ad.gather_rows(ad.Tensor(np.eye(3)), [2])
        np.testing.assert_array_equal(out.values, [[0.0, 0.0, 1.0]])

    def test_repeated_ids_accumulate(self):
        m = ad.Tensor(np.zeros((2, 3)))
        with ad.Tape() as tape:
            loss = ad.weighted_sum(ad.gather_rows(m, [0, 0]), np.ones((2, 3)))
        tape.backward(loss)
        np.testing.assert_array_equal(m.grad, [[2.0, 2.0, 2.0], [0.0, 0.0, 0.0]])

    def test_noise_added_to_values_not_to_gradient(self):
        rng = np.random.default_rng(4)
        m = ad.Tensor(rng.uniform(-2, 2, (4, 3)))
        noise = rng.normal(size=(3, 3))
        ids = [3, 1, 1]
        out = ad.gather_rows(m, ids, noise)
        np.testing.assert_array_equal(out.values, m.values[ids] + noise)
        _check_grads(lambda t: ad.gather_rows(t, ids, noise), [m])

    def test_noise_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.gather_rows(ad.Tensor(np.zeros((4, 3))), [0, 1], np.zeros(3))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        m = ad.Tensor(rng.uniform(-2, 2, (4, 3)))
        ids = [3, 1, 1, 0]
        _check_grads(lambda t: ad.gather_rows(t, ids), [m])

    def test_out_of_range_id(self):
        with pytest.raises(IndexError, match="7"):
            ad.gather_rows(ad.Tensor(np.zeros((4, 3))), [0, 7])


class TestWeightedSum:
    def test_value_and_gradient_are_the_weights(self):
        x = ad.Tensor([1.0, 2.0, 3.0])
        w = np.array([0.5, -2.0, 0.25])
        with ad.Tape() as tape:
            loss = ad.weighted_sum(x, w)
        tape.backward(loss)
        assert loss.shape == () and float(loss.values) == -2.75
        np.testing.assert_array_equal(x.grad, w)

    def test_scalar_operand(self):
        x = ad.Tensor(3.0)
        _check_grads(lambda t: ad.weighted_sum(t, 0.75), [x])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.weighted_sum(ad.Tensor(np.zeros(3)), np.zeros(4))


class TestTape:
    def test_nested_tape_rejected(self):
        with ad.Tape():
            with pytest.raises(RuntimeError):
                with ad.Tape():
                    pass

    def test_tape_closed_by_exception_lets_next_open(self):
        with pytest.raises(ValueError):
            with ad.Tape():
                raise ValueError("inside the tape")
        with ad.Tape() as tape:
            ad.gather_rows(ad.Tensor(np.eye(2)), [0])
        assert len(tape.records) == 1


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = ad.Tensor([1.0, 2.0, 3.0])
        with ad.Tape() as tape:
            loss = ad.weighted_sum(x, np.ones(3))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_non_scalar_loss_rejected(self):
        m = ad.Tensor(np.eye(2))
        with ad.Tape() as tape:
            y = ad.gather_rows(m, [1])
            with pytest.raises(ShapeError):
                tape.backward(y)

    def test_repeated_backward_accumulates(self):
        # holds for ops that keep their inputs; nll_rows is single-use
        m = ad.Tensor(np.ones((2, 2)))
        with ad.Tape() as tape:
            loss = ad.weighted_sum(ad.gather_rows(m, [1]), [[1.0, 2.0]])
        tape.backward(loss)
        tape.backward(loss)
        np.testing.assert_array_equal(m.grad, [[0.0, 0.0], [2.0, 4.0]])

    def test_untaped_loss_rejected(self):
        loss = ad.weighted_sum(ad.Tensor([1.0]), [1.0])
        with ad.Tape() as tape:
            pass
        with pytest.raises(RuntimeError):
            tape.backward(loss)

    def test_loss_from_other_tape_rejected(self):
        x = ad.Tensor([1.0, 2.0])
        with ad.Tape() as tape_a:
            loss = ad.weighted_sum(x, [1.0, 1.0])
        with ad.Tape() as tape_b:
            ad.weighted_sum(x, [2.0, 2.0])
        with pytest.raises(RuntimeError):
            tape_b.backward(loss)
        assert x.grad is None
        tape_a.backward(loss)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])

    def test_tape_freed_by_reference_counting(self):
        # nothing a tape records points back at it, so dropping the last
        # reference frees it (and the buffers its closures hold) without
        # waiting for the cyclic collector
        gc.disable()
        try:
            m = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
            with ad.Tape() as tape:
                y = ad.gather_rows(m, [1, 1])
                loss = ad.weighted_sum(y, [[1.0, 2.0], [3.0, 4.0]])
            tape.backward(loss)
            ref = weakref.ref(tape)
            del tape
            assert ref() is None
            assert float(loss.values) == 36.0
            np.testing.assert_array_equal(y.values, [[3.0, 4.0], [3.0, 4.0]])
            np.testing.assert_array_equal(m.grad, [[0.0, 0.0], [4.0, 6.0]])
        finally:
            gc.enable()

    def test_composite_lstm_step_vs_finite_differences(self):
        # a single 4-unit LSTM step (L = 1), checked end to end
        rng = np.random.default_rng(6)
        x, w_x, w_h, bias, h0, c0 = _lstm_args(rng, 1, 2, 3, 4)
        params = [w_x, w_h, bias]
        _check_grads(lambda *ps: _lstm_out(x, *ps, h0, c0), params, tol=1e-6)

    def test_only_leaves_hold_grad(self):
        rng = np.random.default_rng(3)
        args = _lstm_args(rng, 3, 2, 3, 4)
        w = ad.Tensor(rng.uniform(-1, 1, (5, 4)))
        with ad.Tape() as tape:
            hs = _lstm_out(*args)
            loss = _head(hs, w, [0, 1, 2, 3, 4, 0])[0]
        tape.backward(loss)
        for leaf in (*args[:4], w):
            assert leaf.grad is not None and leaf.grad.shape == leaf.shape
        for out, _, _ in tape.records:
            assert out.grad is None


class TestLstmLayer:
    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(6)
        _check_lstm_grads(_lstm_args(rng, 3, 2, 3, 4), tol=1e-6)

    def test_matches_hand_steps(self):
        rng = np.random.default_rng(7)
        L, B = 4, 3
        x, w_x, w_h, bias, h0, c0 = _lstm_args(rng, L, B, 3, 5, r=1.0)
        hs, h_last, c_last = ad.lstm_layer(x, w_x, w_h, bias, h0, c0)
        h, c = h0, c0
        for t in range(L):
            h, c = hand_lstm_step(w_x.values, w_h.values, bias.values,
                                  x.values[t * B:(t + 1) * B], h, c)
            np.testing.assert_allclose(hs.values[t * B:(t + 1) * B], h, rtol=0,
                                       atol=1e-12)
        np.testing.assert_array_equal(h_last, hs.values[-B:])
        np.testing.assert_allclose(c_last, c, rtol=0, atol=1e-12)

    def test_returned_state_is_constant(self):
        # the state in and out is plain arrays: the op records only x and
        # the weights, and its backward returns their four gradients
        args = _lstm_args(np.random.default_rng(8), 2, 2, 3, 4)
        with ad.Tape() as tape:
            hs, h_last, c_last = ad.lstm_layer(*args)
        [(out, inputs, backward_fn)] = tape.records
        assert out is hs
        assert [id(t) for t in inputs] == [id(t) for t in args[:4]]
        assert type(h_last) is np.ndarray and type(c_last) is np.ndarray
        grads = backward_fn(np.ones(hs.shape))
        assert [g.shape for g in grads] == [t.shape for t in args[:4]]

    def test_shape_mismatch(self):
        x, w_x, w_h, bias, h0, c0 = _lstm_args(np.random.default_rng(9), 2, 2, 3, 4)
        with pytest.raises(ShapeError):
            ad.lstm_layer(ad.Tensor(np.zeros((5, 3))), w_x, w_h, bias, h0, c0)
        with pytest.raises(ShapeError):
            ad.lstm_layer(x, w_h, w_h, bias, h0, c0)


class TestSupportOps:
    """What the per-step graph did with separate ops, now inside the fused
    ops: the row-vector bias of lstm_layer, the per-row target pick and the
    row-wise log-sum-exp of nll_rows."""

    def test_add_rowvec_bias(self):
        # with x a column of ones, x @ w_x + bias adds w_x's row and bias to
        # every row alike, so both get the same gradient
        rng = np.random.default_rng(7)
        x, w_x, w_h, bias, h0, c0 = _lstm_args(rng, 2, 2, 1, 3)
        x.values[:] = 1.0
        with ad.Tape() as tape:
            loss = _loss_of(_lstm_out, x, w_x, w_h, bias, h0, c0)
        tape.backward(loss)
        np.testing.assert_allclose(bias.grad, w_x.grad[0], rtol=1e-12, atol=1e-15)
        moved = _lstm_out(x, ad.Tensor(w_x.values + bias.values), w_h,
                          ad.Tensor(np.zeros(12)), h0, c0)
        np.testing.assert_allclose(moved.values, _lstm_out(x, w_x, w_h, bias, h0, c0).values,
                                   rtol=0, atol=1e-15)
        _check_grads(lambda b: _lstm_out(x, w_x, w_h, b, h0, c0), [bias], tol=1e-6)

    def test_take_per_row(self):
        # w = I: the logits are h itself, and row r's target logit is picked
        h = ad.Tensor(np.arange(6.0).reshape(2, 3))
        shift = np.array([0.25, 0.5])
        out = _head(h, ad.Tensor(np.eye(3)), [2, 0], shift)[1]
        z = h.values.copy()
        z[[0, 1], [2, 0]] -= shift
        np.testing.assert_allclose(out, logsumexp_rows(z) - [2.0 - 0.25, 3.0 - 0.5],
                                   rtol=0, atol=1e-15)
        _check_grads(lambda t: _head(t, ad.Tensor(np.eye(3)), [2, 0], shift)[0],
                     [h])

    def test_take_per_row_out_of_range(self):
        with pytest.raises(IndexError, match="5"):
            _head(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 3))), [0, 5])
        with pytest.raises(IndexError, match="-1"):
            _head(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 3))), [-1, 0])

    def test_logsumexp_rows_matches_vector_op(self):
        # the head's log-sum-exp over each row equals the log-sum-exp of that
        # row taken on its own as a vector
        rng = np.random.default_rng(10)
        m = ad.Tensor(rng.uniform(-3, 3, (4, 6)))
        y = [0, 3, 5, 1]
        lse = _head(m, ad.Tensor(np.eye(6)), y)[1] + m.values[range(4), y]
        for r in range(4):
            row = m.values[r]
            top = row.max()
            assert lse[r] == pytest.approx(top + math.log(sum(math.exp(v - top) for v in row)),
                                           rel=0, abs=1e-12)
        _check_grads(lambda t: _head(t, ad.Tensor(np.eye(6)), y)[0], [m])


class TestNllRows:
    def test_matches_reference(self):
        rng = np.random.default_rng(10)
        h = ad.Tensor(rng.uniform(-3, 3, (4, 3)))
        w = ad.Tensor(rng.uniform(-3, 3, (6, 3)))
        y = np.array([5, 0, 2, 5])
        shift = rng.uniform(0, 2, 4)
        rows = np.arange(4)
        z = h.values @ w.values.T
        z[rows, y] -= shift
        with ad.Tape() as tape:
            loss, nll = ad.nll_rows(h, w, y, shift)
        tape.backward(loss)
        expect = logsumexp_rows(z) - z[rows, y]
        np.testing.assert_allclose(nll, expect, rtol=0, atol=1e-12)
        assert float(loss.values) == pytest.approx(expect.mean(), rel=0, abs=1e-12)
        # the loss is the window mean: q = (softmax - onehot) / N
        q = np.exp(z - z.max(axis=1, keepdims=True))
        q /= q.sum(axis=1, keepdims=True)
        q[rows, y] -= 1.0
        q /= 4
        np.testing.assert_allclose(h.grad, q @ w.values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w.grad, q.T @ h.values, rtol=0, atol=1e-12)
        # shift is a constant: the op's gradient is its closed form
        _check_grads(lambda a, b: ad.nll_rows(a, b, y, shift)[0], [h, w])

    def test_shift_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.nll_rows(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.eye(3)), [0, 1],
                        np.zeros(3))

    def test_second_backward_raises(self):
        # the forward forms the gradients and backward hands them over, so
        # the op runs backward once; a second pass must not reuse them
        h = ad.Tensor(np.ones((2, 3)))
        w = ad.Tensor(np.eye(4, 3))
        with ad.Tape() as tape:
            loss = ad.nll_rows(h, w, [1, 3], [0.5, 0.0])[0]
        tape.backward(loss)
        with pytest.raises(RuntimeError):
            tape.backward(loss)

    @staticmethod
    def _grads(h, w, y, shift):
        h.grad = w.grad = None
        with ad.Tape() as tape:
            loss, nll = ad.nll_rows(h, w, y, shift)
        tape.backward(loss)
        return nll, h.grad, w.grad

    def test_empty_head_rejected(self):
        # a window mean needs a row; no BatchStream yields an empty window
        h, w = ad.Tensor(np.zeros((0, 3))), ad.Tensor(np.ones((4, 3)))
        with pytest.raises(ShapeError):
            ad.nll_rows(h, w, [], [])

    def test_row_blocks_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(13)
        n, V, d = 23, 7, 4
        h = ad.Tensor(rng.normal(size=(n, d)))
        w = ad.Tensor(rng.normal(size=(V, d)))
        args = (rng.integers(0, V, size=n), rng.uniform(0, 1, n))
        nll, dh, dw = self._grads(h, w, *args)
        monkeypatch.setattr(ad, "HEAD_BLOCK_ELEMS", 3 * V)  # 8 blocks of <= 3 rows
        nll_b, dh_b, dw_b = self._grads(h, w, *args)
        np.testing.assert_array_equal(nll_b, nll)
        np.testing.assert_allclose(dh_b, dh, rtol=1e-14, atol=0)
        # dw sums the blocks' products in another order, so an entry that
        # nearly cancels differs in its last bits relative to dw's scale
        np.testing.assert_allclose(dw_b, dw, rtol=1e-14,
                                   atol=1e-15 * np.abs(dw).max())

    def test_gradient_vs_finite_differences_across_blocks(self, monkeypatch):
        rng = np.random.default_rng(14)
        n, V, d = 7, 5, 3
        monkeypatch.setattr(ad, "HEAD_BLOCK_ELEMS", 2 * V)  # blocks of 2, 2, 2, 1 rows
        h = ad.Tensor(rng.uniform(-2, 2, (n, d)))
        w = ad.Tensor(rng.uniform(-2, 2, (V, d)))
        y, shift = rng.integers(0, V, size=n), rng.uniform(0, 2, n)
        _check_grads(lambda a, b: ad.nll_rows(a, b, y, shift)[0], [h, w])

    def test_peak_memory_is_one_logit_matrix(self):
        # the logit matrix held at once is one row block's, well below the
        # N x V matrix of a head that forms every row's logits together
        n, V, d = 2048, 4096, 16
        rng = np.random.default_rng(12)
        h = ad.Tensor(rng.normal(size=(n, d)))
        w = ad.Tensor(rng.normal(size=(V, d)))
        y, shift = rng.integers(0, V, size=n), rng.uniform(0, 1, n)
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            with ad.Tape() as tape:
                loss = ad.nll_rows(h, w, y, shift)[0]
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.grad is not None
        assert peak < n * V * 8 / 4


class TestRandomSweep:
    """Every differentiable op vs central differences on random inputs."""

    def test_all_ops_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            shape = tuple(rng.integers(1, 5, size=2))
            x = ad.Tensor(rng.uniform(-2, 2, shape))
            w = rng.uniform(-2, 2, shape)
            _check_grads(lambda t: ad.weighted_sum(t, w), [x])
            m = ad.Tensor(rng.uniform(-2, 2, shape))
            ids = rng.integers(0, shape[0], size=3)
            _check_grads(lambda t: ad.gather_rows(t, ids), [m])
        for _ in range(10):
            L, B, I, H = rng.integers(1, 4, size=4)
            _check_lstm_grads(_lstm_args(rng, L, B, I, H, r=1.0))
            n, V, d = rng.integers(1, 5, size=3)
            h = ad.Tensor(rng.uniform(-2, 2, (n, d)))
            w = ad.Tensor(rng.uniform(-2, 2, (V, d)))
            y, shift = rng.integers(0, V, size=n), rng.uniform(0, 2, n)
            _check_grads(lambda a, b: ad.nll_rows(a, b, y, shift)[0], [h, w])
