"""Minimal dense-tensor reverse-mode autodiff.

Tensors wrap float64 numpy arrays. Operations execute eagerly; when a Tape is
active (``with Tape():``) and any operand requires gradients, the op is
recorded so that ``backward(loss)`` can replay the records in reverse and
accumulate ``.grad`` on every requires_grad ancestor. Without an active tape
the same functions just compute values, which is how evaluation runs without
gradient bookkeeping.

The op set is exactly what the LSTM language model and its loss need: no
general broadcasting, no higher-order derivatives, CPU float64 only.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ShapeError

_state = threading.local()


def _active_tape():
    return getattr(_state, "tape", None)


class Tensor:
    """A dense float64 array participating in reverse-mode differentiation."""

    __slots__ = ("values", "requires_grad", "grad", "tape")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.tape = None

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed ops, replayed in reverse by backward().

    A tape is built per minibatch and discarded after the gradient step.
    Tapes do not nest; one tape per thread at a time.
    """

    def __init__(self):
        self.records = []  # (out, inputs, backward_fn), in execution order

    def __enter__(self):
        if _active_tape() is not None:
            raise RuntimeError("a Tape is already active on this thread")
        _state.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.tape = None
        return False

    def backward(self, loss: "Tensor") -> None:
        """Accumulate d(loss)/d(ancestor) into .grad of every recorded ancestor.

        Each call runs one full reverse pass and adds its result into .grad,
        so repeated calls without clearing grads accumulate.
        """
        if loss.values.shape != ():
            raise ShapeError(
                f"backward requires a scalar loss, got shape {loss.values.shape}"
            )
        if loss.tape is not self:
            raise RuntimeError("loss was not recorded on this tape")
        # Per-call adjoints, so a second backward() does not re-propagate the
        # first call's intermediate gradients.
        adjoint = {id(loss): np.ones((), dtype=np.float64)}
        tensors = {id(loss): loss}
        for out, inputs, backward_fn in reversed(self.records):
            g_out = adjoint.get(id(out))
            if g_out is None:
                continue
            for t, g in zip(inputs, backward_fn(g_out)):
                if g is None or not t.requires_grad:
                    continue
                key = id(t)
                if key in adjoint:
                    adjoint[key] = adjoint[key] + g
                else:
                    adjoint[key] = g
                    tensors[key] = t
        for key, t in tensors.items():
            if t.grad is None:
                t.grad = np.zeros_like(t.values)
            t.grad += adjoint[key]


def _record(values: np.ndarray, inputs, backward_fn) -> Tensor:
    """Wrap an op result; record it if a tape is active and gradients flow."""
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(values, requires_grad=requires)
    tape = _active_tape()
    if tape is not None and requires:
        out.tape = tape
        tape.records.append((out, tuple(inputs), backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss on its tape."""
    if loss.tape is None:
        raise RuntimeError("loss is not attached to a tape (was it recorded?)")
    loss.tape.backward(loss)


def detach(t: Tensor) -> Tensor:
    """Same values, but gradients do not flow through the result into t.

    The returned tensor shares storage with t; no op in this module mutates
    activation values in place.
    """
    return Tensor(t.values)


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.values.shape != b.values.shape:
        raise ShapeError(f"{op}: operand shapes {a.values.shape} and {b.values.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)
    return _record(a.values + b.values, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("sub", a, b)
    return _record(a.values - b.values, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mul", a, b)
    av, bv = a.values, b.values
    return _record(av * bv, (a, b), lambda g: (g * bv, g * av))


def add_const(t: Tensor, c: float) -> Tensor:
    """Elementwise t + c for a python scalar constant."""
    return _record(t.values + c, (t,), lambda g: (g,))


def scale(t: Tensor, c: float) -> Tensor:
    """Elementwise c * t for a python scalar constant."""
    return _record(t.values * c, (t,), lambda g: (g * c,))


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a length-K row vector to every row of an N-by-K matrix."""
    if m.values.ndim != 2 or v.values.ndim != 1 or m.values.shape[1] != v.values.shape[0]:
        raise ShapeError(
            f"add_rowvec: expected (N,K) + (K,), got {m.values.shape} + {v.values.shape}"
        )
    return _record(m.values + v.values, (m, v), lambda g: (g, g.sum(axis=0)))


def tanh(t: Tensor) -> Tensor:
    y = np.tanh(t.values)
    return _record(y, (t,), lambda g: (g * (1.0 - y * y),))


def sigmoid(t: Tensor) -> Tensor:
    y = _sigmoid(t.values)
    return _record(y, (t,), lambda g: (g * y * (1.0 - y),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Piecewise form never exponentiates a positive argument.
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions disagree for shapes {a.values.shape} and {b.values.shape}"
        )
    av, bv = a.values, b.values
    return _record(av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g))


def transpose(m: Tensor) -> Tensor:
    if m.values.ndim != 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {m.values.shape}")
    return _record(m.values.T.copy(), (m,), lambda g: (g.T,))


def sum_all(t: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    shape = t.values.shape
    return _record(
        np.asarray(t.values.sum(), dtype=np.float64),
        (t,),
        lambda g: (np.broadcast_to(g, shape).astype(np.float64),),
    )


def logsumexp_rows(t: Tensor) -> Tensor:
    """Row-wise stable log-sum-exp of an N-by-K matrix, returning length N."""
    if t.values.ndim != 2 or t.values.shape[1] < 1:
        raise ShapeError(f"logsumexp_rows: expected (N,K) with K >= 1, got {t.values.shape}")
    v = t.values
    m = v.max(axis=1, keepdims=True)
    e = np.exp(v - m)
    s = e.sum(axis=1, keepdims=True)
    soft = e / s
    out = (m + np.log(s)).reshape(-1)
    return _record(out, (t,), lambda g: (g[:, None] * soft,))


def gather_rows(m: Tensor, ids) -> Tensor:
    """Select rows of a matrix by index; backward scatter-adds into m.

    Repeated ids are legal and their upstream gradients accumulate on the
    shared row, which is what an embedding lookup needs.
    """
    if m.values.ndim != 2:
        raise ShapeError(f"gather_rows: expected a matrix, got shape {m.values.shape}")
    ids = np.asarray(ids, dtype=np.int64)
    n_rows = m.values.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        bad = int(ids[(ids < 0) | (ids >= n_rows)][0])
        raise IndexError(f"gather_rows: id {bad} out of range [0, {n_rows})")
    shape = m.values.shape

    def _back(g):
        gm = np.zeros(shape, dtype=np.float64)
        np.add.at(gm, ids, g)
        return (gm,)

    return _record(m.values[ids], (m,), _back)


def take_per_row(m: Tensor, cols) -> Tensor:
    """out[r] = m[r, cols[r]]; backward scatter-adds into the picked cells."""
    if m.values.ndim != 2:
        raise ShapeError(f"take_per_row: expected a matrix, got shape {m.values.shape}")
    n, k = m.values.shape
    cols = np.asarray(cols, dtype=np.int64)
    if cols.shape != (n,):
        raise ShapeError(f"take_per_row: need {n} column ids, got shape {cols.shape}")
    if cols.size and (cols.min() < 0 or cols.max() >= k):
        bad = int(cols[(cols < 0) | (cols >= k)][0])
        raise IndexError(f"take_per_row: column id {bad} out of range [0, {k})")
    rows = np.arange(n)

    def _back(g):
        gm = np.zeros((n, k), dtype=np.float64)
        np.add.at(gm, (rows, cols), g)
        return (gm,)

    return _record(m.values[rows, cols], (m,), _back)


def slice_cols(m: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous column slice m[:, start:stop]; backward zero-pads."""
    if m.values.ndim != 2:
        raise ShapeError(f"slice_cols: expected a matrix, got shape {m.values.shape}")
    n, k = m.values.shape
    if not (0 <= start < stop <= k):
        raise ShapeError(f"slice_cols: bad range [{start}, {stop}) for {k} columns")

    def _back(g):
        gm = np.zeros((n, k), dtype=np.float64)
        gm[:, start:stop] = g
        return (gm,)

    return _record(m.values[:, start:stop].copy(), (m,), _back)


def concat_rows(parts) -> Tensor:
    """Stack matrices with equal column counts along rows; backward splits."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_rows: need at least one part")
    k = parts[0].values.shape[1] if parts[0].values.ndim == 2 else None
    for p in parts:
        if p.values.ndim != 2 or p.values.shape[1] != k:
            raise ShapeError(
                f"concat_rows: all parts must be (n_i, {k}), got {p.values.shape}"
            )
    sizes = [p.values.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def _back(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(sizes)))

    return _record(np.concatenate([p.values for p in parts], axis=0), tuple(parts), _back)
