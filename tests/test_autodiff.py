"""Unit tests for the reverse-mode autodiff engine."""

import math

import numpy as np
import pytest

import advlm.autodiff as ad
from advlm.errors import ShapeError

from gradcheck import numerical_grad, rel_error
from reference import logsumexp_rows as _lse_rows

OP_TOL = 1e-4


def _loss_of(op, *tensors):
    """Scalar-reduce an op so finite differences apply; weights fixed per shape."""
    out = op(*tensors)
    w = _reduction_weights(out.shape)
    return ad.sum_all(ad.mul(out, ad.Tensor(w)))


def _reduction_weights(shape):
    # Non-uniform weights catch backward-rule transposition mistakes that a
    # plain sum() would mask.
    n = int(np.prod(shape)) if shape else 1
    return (np.arange(1, n + 1, dtype=np.float64) / n).reshape(shape)


def _check_grads(op, tensors, tol=OP_TOL):
    for t in tensors:
        t.zero_grad()
    with ad.Tape() as tape:
        loss = _loss_of(op, *tensors)
    tape.backward(loss)
    for t in tensors:
        fd = numerical_grad(lambda: _loss_of(op, *tensors).item(), t.values)
        assert rel_error(t.grad, fd) < tol


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(ad.Tensor(np.eye(2)), ad.Tensor([[2.0], [3.0]]))
        np.testing.assert_array_equal(out.values, [[2.0], [3.0]])

    def test_hand_arithmetic(self):
        out = ad.matmul(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.values, [[11.0]])

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a = ad.Tensor(rng.uniform(-2, 2, (3, 3)), requires_grad=True)
        b = ad.Tensor(rng.uniform(-2, 2, (3, 3)), requires_grad=True)

        def loss():
            return ad.sum_all(ad.matmul(a, b)).item()

        with ad.Tape() as tape:
            l = ad.sum_all(ad.matmul(a, b))
        tape.backward(l)
        assert rel_error(a.grad, numerical_grad(loss, a.values)) < OP_TOL
        assert rel_error(b.grad, numerical_grad(loss, b.values)) < OP_TOL

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))


class TestElementwise:
    def test_tanh_zero(self):
        assert ad.tanh(ad.Tensor(np.zeros(3))).values.tolist() == [0.0, 0.0, 0.0]

    def test_sigmoid_zero(self):
        assert ad.sigmoid(ad.Tensor(np.zeros(2))).values.tolist() == [0.5, 0.5]

    def test_tanh_gradient_at_0p3(self):
        x = ad.Tensor(np.array([0.3]), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.tanh(x))
        tape.backward(loss)
        fd = numerical_grad(lambda: ad.sum_all(ad.tanh(x)).item(), x.values)
        assert rel_error(x.grad, fd) < OP_TOL

    def test_binary_shape_mismatch(self):
        a, b = ad.Tensor(np.zeros(3)), ad.Tensor(np.zeros(4))
        for op in (ad.add, ad.sub, ad.mul):
            with pytest.raises(ShapeError):
                op(a, b)

    def test_sigmoid_extreme_inputs_finite(self):
        y = ad.sigmoid(ad.Tensor([-800.0, 800.0])).values
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y, [0.0, 1.0], atol=1e-12)


class TestLogSumExp:
    """The row-wise op the loss uses: stability, softmax gradient, shapes."""

    def test_two_zeros(self):
        out = ad.logsumexp_rows(ad.Tensor([[0.0, 0.0]])).values
        assert out[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_large_inputs_no_overflow(self):
        out = ad.logsumexp_rows(ad.Tensor([[1000.0, 1000.0]])).values
        assert out[0] == pytest.approx(1000.0 + math.log(2), abs=1e-9)

    def test_gradient_is_softmax(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.uniform(-2, 2, (3, 8)), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.logsumexp_rows(x))
        tape.backward(loss)
        e = np.exp(x.values - x.values.max(axis=1, keepdims=True))
        np.testing.assert_allclose(x.grad, e / e.sum(axis=1, keepdims=True), rtol=1e-12)
        fd = numerical_grad(lambda: ad.logsumexp_rows(x).values.sum(), x.values)
        assert rel_error(x.grad, fd) < OP_TOL

    def test_empty_input_rejected(self):
        with pytest.raises(ShapeError):
            ad.logsumexp_rows(ad.Tensor(np.zeros((2, 0))))

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.uniform(-5, 5, (1, rng.integers(1, 12)))
            c = rng.uniform(-1000, 1000)
            lhs = ad.logsumexp_rows(ad.Tensor(x + c)).values[0]
            rhs = ad.logsumexp_rows(ad.Tensor(x)).values[0] + c
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


class TestDetach:
    def test_stop_gradient_product(self):
        # d/dx of x * stop(x) is stop(x), i.e. 2 at x=2, not 4.
        x = ad.Tensor([2.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.mul(x, ad.detach(x)))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_values_identical(self):
        t = ad.Tensor(np.random.default_rng(4).normal(size=(3, 2)))
        assert np.array_equal(ad.detach(t).values, t.values)

    def test_detached_subgraph_gets_exactly_zero(self):
        x = ad.Tensor([1.0, -2.0], requires_grad=True)
        y = ad.Tensor([3.0, 4.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.mul(ad.detach(ad.tanh(x)), y))
        tape.backward(loss)
        assert x.grad is None  # no gradient ever flowed into the detached branch
        np.testing.assert_allclose(y.grad, np.tanh(x.values), rtol=1e-15)


class TestGatherRows:
    def test_identity_row(self):
        out = ad.gather_rows(ad.Tensor(np.eye(3)), [2])
        np.testing.assert_array_equal(out.values, [[0.0, 0.0, 1.0]])

    def test_repeated_ids_accumulate(self):
        m = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.gather_rows(m, [0, 0]))
        tape.backward(loss)
        np.testing.assert_array_equal(m.grad, [[2.0, 2.0, 2.0], [0.0, 0.0, 0.0]])

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        m = ad.Tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True)
        ids = [3, 1, 1, 0]
        _check_grads(lambda t: ad.gather_rows(t, ids), [m])

    def test_out_of_range_id(self):
        with pytest.raises(IndexError, match="7"):
            ad.gather_rows(ad.Tensor(np.zeros((4, 3))), [0, 7])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_all(x)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_half_squared_norm_gradient_is_x(self):
        x = ad.Tensor([1.5, -0.5, 2.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.scale(ad.sum_all(ad.mul(x, x)), 0.5)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, x.values, rtol=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with ad.Tape() as tape:
            y = ad.mul(x, x)
            with pytest.raises(ShapeError):
                tape.backward(y)

    def test_repeated_backward_accumulates(self):
        x = ad.Tensor([1.0, 1.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_all(x)
        tape.backward(loss)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_untaped_loss_rejected(self):
        loss = ad.sum_all(ad.Tensor([1.0]))
        with pytest.raises(RuntimeError):
            ad.backward(loss)

    def test_composite_lstm_step_vs_finite_differences(self):
        # A 4-unit LSTM step written out of raw ops, checked end to end.
        rng = np.random.default_rng(6)
        hsz, isz, bsz = 4, 3, 2
        wx = ad.Tensor(rng.uniform(-0.5, 0.5, (isz, 4 * hsz)), requires_grad=True)
        wh = ad.Tensor(rng.uniform(-0.5, 0.5, (hsz, 4 * hsz)), requires_grad=True)
        b = ad.Tensor(rng.uniform(-0.5, 0.5, 4 * hsz), requires_grad=True)
        x = ad.Tensor(rng.uniform(-1, 1, (bsz, isz)))
        h0 = ad.Tensor(rng.uniform(-1, 1, (bsz, hsz)))
        c0 = ad.Tensor(rng.uniform(-1, 1, (bsz, hsz)))

        def step_loss():
            pre = ad.add_rowvec(ad.add(ad.matmul(x, wx), ad.matmul(h0, wh)), b)
            i = ad.sigmoid(ad.slice_cols(pre, 0, hsz))
            f = ad.sigmoid(ad.slice_cols(pre, hsz, 2 * hsz))
            g = ad.tanh(ad.slice_cols(pre, 2 * hsz, 3 * hsz))
            o = ad.sigmoid(ad.slice_cols(pre, 3 * hsz, 4 * hsz))
            c1 = ad.add(ad.mul(f, c0), ad.mul(i, g))
            h1 = ad.mul(o, ad.tanh(c1))
            return ad.sum_all(ad.mul(h1, ad.Tensor(_reduction_weights((bsz, hsz)))))

        with ad.Tape() as tape:
            loss = step_loss()
        tape.backward(loss)
        for p in (wx, wh, b):
            fd = numerical_grad(lambda: step_loss().item(), p.values)
            assert rel_error(p.grad, fd) < 1e-3


class TestSupportOps:
    def test_add_rowvec_bias(self):
        m = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
        v = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.add_rowvec(m, v))
        tape.backward(loss)
        np.testing.assert_array_equal(v.grad, [2.0, 2.0, 2.0])
        _check_grads(lambda a, b: ad.add_rowvec(a, b), [
            ad.Tensor(np.random.default_rng(7).uniform(-2, 2, (3, 4)), requires_grad=True),
            ad.Tensor(np.random.default_rng(8).uniform(-2, 2, 4), requires_grad=True),
        ])

    def test_take_per_row(self):
        m = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = ad.take_per_row(m, [2, 0])
        np.testing.assert_array_equal(out.values, [2.0, 3.0])
        _check_grads(lambda t: ad.take_per_row(t, [2, 0]), [m])

    def test_take_per_row_out_of_range(self):
        with pytest.raises(IndexError, match="5"):
            ad.take_per_row(ad.Tensor(np.zeros((2, 3))), [0, 5])

    def test_slice_and_concat_roundtrip(self):
        rng = np.random.default_rng(9)
        m = ad.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        left = ad.slice_cols(m, 0, 2)
        right = ad.slice_cols(m, 2, 6)
        np.testing.assert_array_equal(
            np.concatenate([left.values, right.values], axis=1), m.values)
        parts = [ad.Tensor(rng.normal(size=(2, 4)), requires_grad=True) for _ in range(3)]
        _check_grads(lambda *ps: ad.concat_rows(ps), parts)
        _check_grads(lambda t: ad.slice_cols(t, 1, 5), [m])

    def test_logsumexp_rows_matches_vector_op(self):
        rng = np.random.default_rng(10)
        m = ad.Tensor(rng.uniform(-3, 3, (4, 6)), requires_grad=True)
        np.testing.assert_allclose(ad.logsumexp_rows(m).values, _lse_rows(m.values),
                                   rtol=0, atol=1e-12)
        _check_grads(lambda t: ad.logsumexp_rows(t), [m])


class TestRandomSweep:
    """Every differentiable op vs central differences on random inputs."""

    def test_all_ops_random_instances(self):
        rng = np.random.default_rng(11)
        unary = {
            "tanh": (ad.tanh, (-2, 2)),
            "sigmoid": (ad.sigmoid, (-2, 2)),
            "scale": (lambda t: ad.scale(t, -1.7), (-2, 2)),
            "add_const": (lambda t: ad.add_const(t, 0.9), (-2, 2)),
        }
        for name, (op, (lo, hi)) in unary.items():
            for _ in range(25):
                x = ad.Tensor(rng.uniform(lo, hi, rng.integers(1, 8)), requires_grad=True)
                _check_grads(op, [x])
        for op in (ad.add, ad.sub, ad.mul):
            for _ in range(25):
                shape = tuple(rng.integers(1, 5, size=2))
                a = ad.Tensor(rng.uniform(-2, 2, shape), requires_grad=True)
                b = ad.Tensor(rng.uniform(-2, 2, shape), requires_grad=True)
                _check_grads(op, [a, b])
        for _ in range(25):
            m, k, n = rng.integers(1, 5, size=3)
            a = ad.Tensor(rng.uniform(-2, 2, (m, k)), requires_grad=True)
            b = ad.Tensor(rng.uniform(-2, 2, (k, n)), requires_grad=True)
            _check_grads(ad.matmul, [a, b])
            _check_grads(ad.transpose, [a])
