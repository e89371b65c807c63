"""Unit tests for the reverse-mode autodiff engine."""

import gc
import math
import weakref

import numpy as np
import pytest

import advlm.autodiff as ad
from advlm.advsoft import AdvConfig, epsilons
from advlm.errors import ShapeError
from advlm.verify import fd_check, head_grads, numerical_grad, rel_error

from reference import hand_lstm_step, logsumexp_rows, lstm_window_ops
from support import peak_bytes

OP_TOL = 1e-4


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
        soft = head_grads(x.values, eye.values, targets, 0.0)[0]
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
        assert fd_check(lambda: ad.gather_rows(m, ids, noise), [m], rng) < OP_TOL

    def test_noise_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.gather_rows(ad.Tensor(np.zeros((4, 3))), [0, 1], np.zeros(3))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        m = ad.Tensor(rng.uniform(-2, 2, (4, 3)))
        ids = [3, 1, 1, 0]
        assert fd_check(lambda: ad.gather_rows(m, ids), [m], rng) < OP_TOL

    def test_out_of_range_id(self):
        with pytest.raises(IndexError, match="7"):
            ad.gather_rows(ad.Tensor(np.zeros((4, 3))), [0, 7])

    IDS = pytest.mark.parametrize("ids", [[3, 1, 1, 0, 3, 3], [4, 0, 2, 1, 3], [2]],
                                  ids=["repeated", "every-row", "single"])

    @IDS
    def test_row_sparse_gradient_is_add_at_on_zeros(self, ids):
        # no adjoint exists yet: backward builds the dense one from the
        # RowGrad, np.add.at's on zeros bit for bit
        rng = np.random.default_rng(15)
        m = ad.Tensor(rng.normal(size=(5, 3)))
        g = rng.normal(size=(len(ids), 3))
        with ad.Tape() as tape:
            loss = ad.weighted_sum(ad.gather_rows(m, ids), g)
        [(_, _, backward_fn), _] = tape.records
        part = backward_fn(g)[0]
        np.testing.assert_array_equal(part.rows, sorted(set(ids)))
        assert part.values.shape == (len(set(ids)), 3)
        tape.backward(loss)
        want = np.zeros((5, 3))
        np.add.at(want, ids, g)
        assert m.grad.tobytes() == want.tobytes()

    @IDS
    def test_row_sparse_gradient_adds_into_an_existing_adjoint(self, ids):
        # tied: the head's dense dw is the adjoint the looked-up rows are
        # added into, so w.grad is dw + np.add.at(zeros, ids, dh) bit for
        # bit, with dh and dw the head's gradients for h as a leaf of its own
        rng = np.random.default_rng(16)
        w = ad.Tensor(rng.normal(size=(5, 3)))
        y, shift = rng.integers(0, 5, size=len(ids)), rng.uniform(0, 1, len(ids))
        with ad.Tape() as tape:
            loss = ad.nll_rows(ad.gather_rows(w, ids), w, y, shift)[0]
        tape.backward(loss)
        h, w_alone = ad.Tensor(w.values[ids]), ad.Tensor(w.values.copy())
        with ad.Tape() as tape:
            loss = ad.nll_rows(h, w_alone, y, shift)[0]
        tape.backward(loss)
        scattered = np.zeros((5, 3))
        np.add.at(scattered, ids, h.grad)
        assert w.grad.tobytes() == (w_alone.grad + scattered).tobytes()

    @pytest.mark.parametrize("adv", [AdvConfig(), AdvConfig("fixed", 0.7),
                                     AdvConfig("adaptive", 0.3)],
                             ids=["off", "fixed", "adaptive"])
    def test_tied_gradient_vs_finite_differences(self, adv):
        # the lookup and the head read one matrix, as the model's embedding;
        # the head's shift is a constant, fixed from the start values
        rng = np.random.default_rng(17)
        w = ad.Tensor(rng.uniform(-2, 2, (5, 3)))
        ids, y = [3, 1, 1, 0], rng.integers(0, 5, size=4)
        shift = epsilons(adv, w.values[y]) * np.linalg.norm(w.values[ids], axis=1)
        assert fd_check(lambda: ad.nll_rows(ad.gather_rows(w, ids), w, y, shift)[0],
                        [w], rng) < OP_TOL

    def test_float_ids_rejected(self):
        m = ad.Tensor(np.arange(12.0).reshape(4, 3))
        with pytest.raises(IndexError, match="gather_rows: id dtype float64"):
            ad.gather_rows(m, [1.7, 3.2])


class TestCheckIds:
    def test_scalar_empty_and_first_bad_id(self):
        ids = ad.check_ids(3, 4, "word id")
        assert ids.dtype == np.int64 and ids.shape == () and ids == 3
        with pytest.raises(IndexError, match=r"word id 4 out of range \[0, 4\)"):
            ad.check_ids(4, 4, "word id")
        with pytest.raises(IndexError, match="word id -1 "):
            ad.check_ids(-1, 4, "word id")
        empty = ad.check_ids([], 0, "id")
        assert empty.dtype == np.int64 and empty.shape == (0,)
        with pytest.raises(IndexError, match="id 7 "):
            ad.check_ids([0, 7, -2], 4, "id")

    @pytest.mark.parametrize("ids", [[1.7, 3.2], np.array([2.0]), 1.0,
                                     [True, False], np.array([1 + 0j]), 2**70])
    def test_non_integer_dtype_rejected(self, ids):
        with pytest.raises(IndexError, match="id dtype .* is not an integer type"):
            ad.check_ids(ids, 4, "id")


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
        rng = np.random.default_rng(0)
        assert fd_check(lambda: ad.weighted_sum(x, 0.75), [x], rng) < OP_TOL

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

    def test_second_backward_raises(self):
        # a tape runs backward once; the refused call leaves .grad as it was
        m = ad.Tensor(np.ones((2, 2)))
        with ad.Tape() as tape:
            loss = ad.weighted_sum(ad.gather_rows(m, [1]), [[1.0, 2.0]])
        tape.backward(loss)
        with pytest.raises(RuntimeError, match="once"):
            tape.backward(loss)
        np.testing.assert_array_equal(m.grad, [[0.0, 0.0], [1.0, 2.0]])

    def test_spent_tape_holds_no_closure(self):
        # backward drops each record's closure once it has run, so the
        # LSTM's gate history is freed by reference counting before backward
        # returns; the records keep out and inputs, and a second call is
        # still refused with every .grad as the first one set it
        rng = np.random.default_rng(18)
        _, w_x, w_h, bias, h0, c0 = _lstm_args(rng, 2, 2, 4, 4)
        w = ad.Tensor(rng.uniform(-1, 1, (5, 4)))
        gc.disable()
        try:
            with ad.Tape() as tape:
                x = ad.gather_rows(w, [0, 4, 4, 1])
                hs = ad.lstm_layer(x, w_x, w_h, bias, h0, c0)[0]
                loss = _head(hs, w, [1, 2, 3, 4])[0]
            lstm_back = weakref.ref(tape.records[1][2])
            tape.backward(loss)
            assert lstm_back() is None
        finally:
            gc.enable()
        assert [fn for _, _, fn in tape.records] == [None] * 3
        assert [out for out, _, _ in tape.records] == [x, hs, loss]
        assert [inputs for _, inputs, _ in tape.records] == [
            (w,), (x, w_x, w_h, bias), (hs, w)]
        grads = [t.grad.copy() for t in (w, w_x, w_h, bias)]
        with pytest.raises(RuntimeError, match="once"):
            tape.backward(loss)
        for t, g in zip((w, w_x, w_h, bias), grads, strict=True):
            assert t.grad.tobytes() == g.tobytes()

    @pytest.mark.parametrize("block_rows", [None, 4])
    def test_window_holds_one_embedding_gradient(self, monkeypatch, block_rows):
        # where V x d dominates, a taped window (lookup, LSTM, tied head,
        # backward) holds one V x d array beyond the parameters: the head's
        # dw, which later row blocks add into in word-row chunks and the
        # lookup's rows are added into in place
        V, d, B, L = 4096, 64, 4, 4
        if block_rows:
            monkeypatch.setattr(ad, "HEAD_BLOCK_ELEMS", block_rows * V)
        rng = np.random.default_rng(19)
        _, w_x, w_h, bias, h0, c0 = _lstm_args(rng, L, B, d, d)
        w = ad.Tensor(rng.uniform(-0.5, 0.5, (V, d)))
        ids, y = rng.integers(0, V, size=(2, L * B))

        def window():
            with ad.Tape() as tape:
                hs = ad.lstm_layer(ad.gather_rows(w, ids), w_x, w_h, bias, h0, c0)[0]
                loss = _head(hs, w, y)[0]
            tape.backward(loss)

        _, peak = peak_bytes(window)
        assert w.grad.shape == (V, d)
        assert peak < 1.5 * V * d * 8

    def test_backward_replaces_a_stale_grad(self):
        # backward sets .grad: what a leaf held before is not added to
        m = ad.Tensor(np.ones((2, 2)))
        m.grad = np.full((2, 2), 7.0)
        with ad.Tape() as tape:
            loss = ad.weighted_sum(ad.gather_rows(m, [1, 1]), [[1.0, 2.0], [3.0, 4.0]])
        tape.backward(loss)
        np.testing.assert_array_equal(m.grad, [[0.0, 0.0], [4.0, 6.0]])

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
        assert fd_check(lambda: _lstm_out(x, *params, h0, c0), params, rng) < 1e-6

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
        *tensors, h0, c0 = _lstm_args(rng, 3, 2, 3, 4)
        assert fd_check(lambda: _lstm_out(*tensors, h0, c0), tensors, rng) < 1e-6

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

    @pytest.mark.parametrize("layers", [1, 2])
    def test_untaped_pass_equals_taped(self, layers):
        # without a tape each step's tanh(c) goes to one scratch slot; the
        # values computed are the taped pass's, bit for bit
        rng = np.random.default_rng(10)
        L, B, H = 5, 3, 4
        x = ad.Tensor(rng.uniform(-1, 1, (L * B, H)))
        stack = [_lstm_args(rng, L, B, H, H, r=1.0)[1:] for _ in range(layers)]

        def run():
            out, last = x, []
            for w_x, w_h, bias, h0, c0 in stack:
                out, h, c = ad.lstm_layer(out, w_x, w_h, bias, h0, c0)
                last += [h, c]
            return [out.values] + last

        with ad.Tape():
            taped = run()
        for got, want in zip(run(), taped, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("taped", [False, True])
    def test_bitwise_equal_to_separate_pre_activations(self, taped):
        # the op forms the gates over the input projection and dpre over the
        # slopes; the reference keeps them apart and multiplies product by
        # slope, and IEEE addition and multiplication commute exactly
        rng = np.random.default_rng(12)
        L, B, I, H = 3, 2, 3, 5
        args = _lstm_args(rng, L, B, I, H, r=1.0)
        g = rng.uniform(-1, 1, (L * B, H))
        hs_ref, h_ref, c_ref, back_ref = lstm_window_ops(
            *(t.values for t in args[:4]), *args[4:])
        if taped:
            with ad.Tape() as tape:
                hs, h_last, c_last = ad.lstm_layer(*args)
            [(_, _, backward_fn)] = tape.records
            for got, want in zip(backward_fn(g), back_ref(g), strict=True):
                assert np.array_equal(got, want)
        else:
            hs, h_last, c_last = ad.lstm_layer(*args)
        for got, want in [(hs.values, hs_ref), (h_last, h_ref), (c_last, c_ref)]:
            assert np.array_equal(got, want)

    def test_untaped_peak_memory_keeps_no_gate_history(self):
        # the n x 4H input projection, which the gates overwrite step by
        # step, plus the h and c histories the op returns from; no tanh(c)
        # history
        L, B, H = 32, 32, 200
        n = L * B
        args = _lstm_args(np.random.default_rng(11), L, B, H, H)
        (hs, _, _), peak = peak_bytes(lambda: ad.lstm_layer(*args))
        assert hs.shape == (n, H)
        assert peak < 2 * n * 4 * H * 8

    def test_taped_peak_memory_holds_one_gate_array(self):
        # forward: the gates form over the input projection, so one n x 4H
        # array and the n x H histories; backward: dpre forms over the
        # slopes, so one n x 4H array and the four gradients
        L, B, H = 32, 32, 200
        n = L * B
        args = _lstm_args(np.random.default_rng(13), L, B, H, H)

        def forward():
            with ad.Tape() as tape:
                ad.lstm_layer(*args)
            return tape

        tape, peak_forward = peak_bytes(forward)
        [(out, _, backward_fn)] = tape.records
        g = np.ones(out.shape)
        grads, peak_backward = peak_bytes(lambda: backward_fn(g))
        assert [gr.shape for gr in grads] == [t.shape for t in args[:4]]
        assert peak_forward < 2.5 * n * 4 * H * 8
        assert peak_backward < 2 * n * 4 * H * 8

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
        # the taped pass sets every input's .grad, bias's checked against FD
        err = fd_check(lambda: _lstm_out(x, w_x, w_h, bias, h0, c0), [bias], rng)
        assert err < 1e-6
        np.testing.assert_allclose(bias.grad, w_x.grad[0], rtol=1e-12, atol=1e-15)
        moved = _lstm_out(x, ad.Tensor(w_x.values + bias.values), w_h,
                          ad.Tensor(np.zeros(12)), h0, c0)
        np.testing.assert_allclose(moved.values, _lstm_out(x, w_x, w_h, bias, h0, c0).values,
                                   rtol=0, atol=1e-15)

    def test_take_per_row(self):
        # w = I: the logits are h itself, and row r's target logit is picked
        h = ad.Tensor(np.arange(6.0).reshape(2, 3))
        shift = np.array([0.25, 0.5])
        out = _head(h, ad.Tensor(np.eye(3)), [2, 0], shift)[1]
        z = h.values.copy()
        z[[0, 1], [2, 0]] -= shift
        np.testing.assert_allclose(out, logsumexp_rows(z) - [2.0 - 0.25, 3.0 - 0.5],
                                   rtol=0, atol=1e-15)
        rng = np.random.default_rng(0)
        assert fd_check(lambda: _head(h, ad.Tensor(np.eye(3)), [2, 0], shift)[0],
                        [h], rng) < OP_TOL

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
        eye = ad.Tensor(np.eye(6))
        assert fd_check(lambda: _head(m, eye, y)[0], [m], rng) < OP_TOL


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
        # shift is a constant: the op's gradient is its closed form
        dh, dw = head_grads(h.values, w.values, y, shift)
        np.testing.assert_allclose(h.grad, dh, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w.grad, dw, rtol=0, atol=1e-12)
        assert fd_check(lambda: ad.nll_rows(h, w, y, shift)[0], [h, w], rng) < OP_TOL

    def test_shift_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.nll_rows(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.eye(3)), [0, 1],
                        np.zeros(3))

    def test_float_targets_rejected(self):
        h, w = ad.Tensor(np.ones((2, 3))), ad.Tensor(np.eye(4, 3))
        with pytest.raises(IndexError, match="nll_rows: target id dtype float64"):
            ad.nll_rows(h, w, [1.9, 0.5], [0.0, 0.0])
        with pytest.raises(ShapeError):  # the shapes are checked first
            ad.nll_rows(h, w, [1.9, 0.5, 0.2], [0.0, 0.0])

    def test_second_backward_raises(self):
        # the forward forms the gradients and backward hands them over; the
        # tape's one-pass rule keeps a second pass from reusing them
        h = ad.Tensor(np.ones((2, 3)))
        w = ad.Tensor(np.eye(4, 3))
        with ad.Tape() as tape:
            loss = ad.nll_rows(h, w, [1, 3], [0.5, 0.0])[0]
        tape.backward(loss)
        grads = h.grad.copy(), w.grad.copy()
        with pytest.raises(RuntimeError, match="once"):
            tape.backward(loss)
        np.testing.assert_array_equal(h.grad, grads[0])
        np.testing.assert_array_equal(w.grad, grads[1])

    @pytest.mark.parametrize("block_rows", [None, 2])
    def test_dw_holds_no_negative_zero(self, monkeypatch, block_rows):
        # with -0.0 contexts every product in an untargeted word's row of dw
        # is -0.0, and BLAS sums from +0.0; so a row that the lookup's
        # RowGrad leaves untouched holds +0.0, which adding the +0.0 of a
        # dense scatter would not change
        if block_rows:
            monkeypatch.setattr(ad, "HEAD_BLOCK_ELEMS", block_rows * 5)
        h = ad.Tensor(np.full((6, 3), -0.0))
        w = ad.Tensor(np.random.default_rng(20).normal(size=(5, 3)))
        with ad.Tape() as tape:
            loss = ad.nll_rows(h, w, [0, 1, 0, 1, 0, 1], np.zeros(6))[0]
        tape.backward(loss)
        assert not w.grad[2:].any() and not np.signbit(w.grad).any()

    @staticmethod
    def _grads(h, w, y, shift):
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
        assert fd_check(lambda: ad.nll_rows(h, w, y, shift)[0], [h, w], rng) < OP_TOL

    def test_peak_memory_is_one_logit_matrix(self):
        # the logit matrix held at once is one row block's, well below the
        # N x V matrix of a head that forms every row's logits together
        n, V, d = 2048, 4096, 16
        rng = np.random.default_rng(12)
        h = ad.Tensor(rng.normal(size=(n, d)))
        w = ad.Tensor(rng.normal(size=(V, d)))
        y, shift = rng.integers(0, V, size=n), rng.uniform(0, 1, n)

        def head():
            with ad.Tape() as tape:
                loss = ad.nll_rows(h, w, y, shift)[0]
            tape.backward(loss)

        _, peak = peak_bytes(head)
        assert w.grad is not None
        assert peak < n * V * 8 / 4


class TestRandomSweep:
    """Every differentiable op vs central differences on random inputs."""

    def test_all_ops_random_instances(self):
        rng = np.random.default_rng(11)
        fd = np.random.default_rng(12)  # FD weights, apart from the instances
        for _ in range(25):
            shape = tuple(rng.integers(1, 5, size=2))
            x = ad.Tensor(rng.uniform(-2, 2, shape))
            w = rng.uniform(-2, 2, shape)
            assert fd_check(lambda: ad.weighted_sum(x, w), [x], fd) < OP_TOL
            m = ad.Tensor(rng.uniform(-2, 2, shape))
            ids = rng.integers(0, shape[0], size=3)
            assert fd_check(lambda: ad.gather_rows(m, ids), [m], fd) < OP_TOL
        for _ in range(10):
            L, B, I, H = rng.integers(1, 4, size=4)
            *tensors, h0, c0 = _lstm_args(rng, L, B, I, H, r=1.0)
            assert fd_check(lambda: _lstm_out(*tensors, h0, c0), tensors, fd) < OP_TOL
            n, V, d = rng.integers(1, 5, size=3)
            h = ad.Tensor(rng.uniform(-2, 2, (n, d)))
            w = ad.Tensor(rng.uniform(-2, 2, (V, d)))
            y, shift = rng.integers(0, V, size=n), rng.uniform(0, 2, n)
            assert fd_check(lambda: ad.nll_rows(h, w, y, shift)[0], [h, w], fd) < OP_TOL
