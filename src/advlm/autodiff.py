"""Minimal dense-tensor reverse-mode autodiff.

Tensors wrap float64 numpy arrays. Operations execute eagerly; while a Tape
is active (``with Tape():``) every op is recorded, so that
``Tape.backward(loss)`` can replay the records in reverse and accumulate
``.grad`` on every leaf the loss depends on. Without an active tape the same
functions just compute values, which is how evaluation runs without gradient
bookkeeping.

The op set is exactly what the LSTM language model and its loss need: an
embedding lookup (which also adds the input noise), one op per LSTM layer
per window, and one op for the softmax head, whose scalar loss a backward
pass starts from. A weighted sum reduces any other op's output to a scalar
for the gradient checks. No general broadcasting, no higher-order
derivatives, CPU float64 only.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

_active = None  # the open Tape, if any
# Logits nll_rows forms per row block (8 MB of float64). Far smaller blocks
# slow the head: w is repacked for every GEMM.
HEAD_BLOCK_ELEMS = 2 ** 20


class Tensor:
    """A dense float64 array participating in reverse-mode differentiation."""

    __slots__ = ("values", "grad")

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        return f"Tensor(shape={self.values.shape})"


class Tape:
    """Ordered record of executed ops, replayed in reverse by backward().

    A tape is built per minibatch and discarded after the gradient step.
    Nothing it records points back at it, so dropping the last reference
    frees it and its closures at once. Tapes do not nest: one tape is open
    at a time.
    """

    def __init__(self):
        self.records = []  # (out, inputs, backward_fn), in execution order

    def __enter__(self):
        global _active
        if _active is not None:
            raise RuntimeError("a Tape is already active")
        _active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _active
        _active = None
        return False

    def backward(self, loss: "Tensor") -> None:
        """Accumulate d(loss)/d(leaf) into .grad of every recorded leaf, i.e.
        every op input that no record on this tape produced. On a training
        window's tape the leaves are exactly the parameters: the incoming
        state and the head's shifts are plain arrays.

        Each call runs one full reverse pass. A leaf without a .grad adopts
        its summed adjoint as .grad; otherwise the adjoint is added into
        .grad in place. Repeated calls without clearing grads accumulate
        only when every recorded op keeps its inputs (gather_rows,
        lstm_layer, weighted_sum); nll_rows hands over the gradients it
        formed in its forward, so a second pass through it raises
        RuntimeError.
        """
        if loss.values.shape != ():
            raise ShapeError(
                f"backward requires a scalar loss, got shape {loss.values.shape}"
            )
        outs = {id(out) for out, _, _ in self.records}
        if id(loss) not in outs:
            raise RuntimeError("loss was not recorded on this tape")
        # Per-call adjoints, so a second backward() does not re-propagate the
        # first call's intermediate gradients.
        adjoint = {id(loss): np.ones((), dtype=np.float64)}
        leaves = {}
        for out, inputs, backward_fn in reversed(self.records):
            g_out = adjoint.pop(id(out), None)
            if g_out is None:
                continue
            for t, g in zip(inputs, backward_fn(g_out)):
                key = id(t)
                if key in adjoint:
                    adjoint[key] += g  # every backward returns fresh arrays
                else:
                    adjoint[key] = g
                    if key not in outs:
                        leaves[key] = t
        for key, t in leaves.items():
            if t.grad is None:
                t.grad = adjoint[key]
            else:
                t.grad += adjoint[key]


def _record(values: np.ndarray, inputs, backward_fn) -> Tensor:
    """Wrap an op result; record it if a tape is active."""
    out = Tensor(values)
    if _active is not None:
        _active.records.append((out, tuple(inputs), backward_fn))
    return out


def weighted_sum(t: Tensor, weights) -> Tensor:
    """sum(t * weights) as a scalar tensor, for a constant weights array of
    t's shape: the seed a backward pass starts from reaches t as weights."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != t.values.shape:
        raise ShapeError(f"weighted_sum: weights shape {weights.shape} != "
                         f"operand shape {t.values.shape}")
    return _record((t.values * weights).sum(), (t,), lambda g: (g * weights,))


def gather_rows(m: Tensor, ids, noise=None) -> Tensor:
    """Select rows of a matrix by index, plus the constant noise array if
    given; backward scatter-adds into m.

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

    values = m.values[ids]
    if noise is not None:
        if noise.shape != values.shape:
            raise ShapeError(f"gather_rows: noise shape {noise.shape} != "
                             f"output shape {values.shape}")
        values += noise
    return _record(values, (m,), _back)


def lstm_layer(x: Tensor, w_x: Tensor, w_h: Tensor, bias: Tensor,
               h0: np.ndarray, c0: np.ndarray):
    """One LSTM layer over a whole time-major window, as a single op.

    x is [(L*B) x I], row t*B + b being the input at step t of batch column
    b; h0 and c0 are constant [B x H] arrays; the gates are packed in columns
    as [i | f | g | o] in w_x [I x 4H], w_h [H x 4H] and bias [4H]. The
    forget gate's pre-activation gets a constant +1.0, so all-zero parameters
    stay exactly all-zero. Returns (hs, h_last, c_last): hs [(L*B) x H] is
    recorded on inputs (x, w_x, w_h, bias), which gradients reach by
    backprop through time; h_last and c_last are plain arrays, because a
    window is the unit of truncated BPTT.
    """
    xv, wh = x.values, w_h.values
    B, H = h0.shape
    if (xv.ndim != 2 or xv.shape[0] % B or c0.shape != (B, H)
            or w_x.values.shape != (xv.shape[1], 4 * H)
            or wh.shape != (H, 4 * H) or bias.values.shape != (4 * H,)):
        raise ShapeError(
            f"lstm_layer: x {xv.shape}, w_x {w_x.values.shape}, w_h {wh.shape}, "
            f"bias {bias.values.shape}, h0 {h0.shape}, c0 {c0.shape} "
            f"do not fit together"
        )
    n = xv.shape[0]
    # sigmoid(z) = 0.5 + 0.5*tanh(z/2), so one tanh covers all four gates:
    # the sigmoid gates' columns are halved on the way in and out, g's are
    # not. Halving pre and w_h up front is exact.
    half = np.full(4 * H, 0.5)
    half[2 * H:3 * H] = 1.0
    lift = 1.0 - half
    pre = xv @ w_x.values + bias.values
    pre[:, H:2 * H] += 1.0
    pre *= half
    wh_half = wh * half
    acts = np.empty((n, 4 * H))
    tcs = np.empty((n, H))  # tanh of every step's c
    hs = np.empty((n + B, H))  # h0, then every step's h
    cs = np.empty((n + B, H))  # c0, then every step's c
    hs[:B], cs[:B] = h0, c0
    for lo in range(0, n, B):
        now, nxt = slice(lo, lo + B), slice(lo + B, lo + 2 * B)
        a = acts[now]
        np.matmul(hs[now], wh_half, out=a)
        a += pre[now]
        np.tanh(a, out=a)
        a *= half
        a += lift
        np.multiply(a[:, H:2 * H], cs[now], out=cs[nxt])
        cs[nxt] += a[:, :H] * a[:, 2 * H:3 * H]
        np.tanh(cs[nxt], out=tcs[now])
        np.multiply(a[:, 3 * H:], tcs[now], out=hs[nxt])

    def _back(g):
        # d act / d pre: s(1-s) for the sigmoid gates, 1-g^2 for g
        slope = acts * (1.0 - acts)
        gg = acts[:, 2 * H:3 * H]
        slope[:, 2 * H:3 * H] = 1.0 - gg * gg
        dh_dc = acts[:, 3 * H:] * (1.0 - tcs * tcs)  # d h_t / d c_t
        dpre = np.empty((n, 4 * H))
        dh = np.zeros((B, H))
        dc = np.zeros((B, H))
        wh_t = wh.T
        for lo in range(n - B, -1, -B):
            now = slice(lo, lo + B)
            a, d = acts[now], dpre[now]
            dh += g[now]
            dc += dh * dh_dc[now]
            np.multiply(dc, a[:, 2 * H:3 * H], out=d[:, :H])
            np.multiply(dc, cs[now], out=d[:, H:2 * H])
            np.multiply(dc, a[:, :H], out=d[:, 2 * H:3 * H])
            np.multiply(dh, tcs[now], out=d[:, 3 * H:])
            d *= slope[now]
            dh = d @ wh_t
            dc *= a[:, H:2 * H]
        return (dpre @ w_x.values.T, xv.T @ dpre, hs[:n].T @ dpre,
                dpre.sum(axis=0))

    return _record(hs[B:], (x, w_x, w_h, bias), _back), hs[n:], cs[n:]


def nll_rows(h: Tensor, w: Tensor, targets, shift):
    """Window-mean softmax cross-entropy of the logits h @ w.T with the
    target logit of row r lowered by the constant shift[r], as one op.

    Returns (loss, nll). nll is a plain array with
    nll[r] = logsumexp(z[r]) - z[r, targets[r]], where z = h @ w.T and
    z[r, targets[r]] -= shift[r]; loss is the recorded 0-d Tensor
    mean(nll) over the N >= 1 rows. No gradient flows through shift.

    z is formed one block of HEAD_BLOCK_ELEMS // V rows at a time, so the
    N x V matrix never exists. While a tape is open, each block also forms
    q = (softmax(z) - onehot(targets)) / N in its buffer and adds its share
    of dh = q @ w and dw = q.T @ h. Backward only hands these over, scaled
    by the upstream gradient, so it runs once: a second backward through
    the same op raises RuntimeError.
    """
    hv, wv = h.values, w.values
    if (hv.ndim != 2 or wv.ndim != 2 or hv.shape[1] != wv.shape[1]
            or hv.shape[0] < 1 or wv.shape[0] < 1):
        raise ShapeError(
            f"nll_rows: expected (N,d) contexts and (V,d) with N, V >= 1, got "
            f"{hv.shape} and {wv.shape}"
        )
    n, V = hv.shape[0], wv.shape[0]
    targets = np.asarray(targets, dtype=np.int64)
    shift = np.asarray(shift, dtype=np.float64)
    if targets.shape != (n,) or shift.shape != (n,):
        raise ShapeError(
            f"nll_rows: need {n} targets and shifts, got shapes "
            f"{targets.shape} and {shift.shape}"
        )
    if targets.min() < 0 or targets.max() >= V:
        bad = int(targets[(targets < 0) | (targets >= V)][0])
        raise IndexError(f"nll_rows: target id {bad} out of range [0, {V})")
    taped = _active is not None
    inv_n = 1.0 / n
    out = np.empty(n)
    dh = np.empty(hv.shape) if taped else None
    dw = None
    step = max(1, HEAD_BLOCK_ELEMS // V)
    buf = np.empty((min(n, step), V))  # every block's logits, in turn
    for lo in range(0, n, step):
        blk = slice(lo, lo + step)
        hb, t = hv[blk], targets[blk]
        rows = np.arange(len(t))
        z = np.matmul(hb, wv.T, out=buf[:len(t)])
        z[rows, t] -= shift[blk]
        picked = z[rows, t]
        m = z.max(axis=1, keepdims=True)
        z -= m
        np.exp(z, out=z)
        s = z.sum(axis=1, keepdims=True)
        out[blk] = (m + np.log(s)).reshape(-1) - picked
        if taped:  # q in z's buffer: the head holds one block array
            z /= s
            z *= inv_n
            z[rows, t] -= inv_n
            np.matmul(z, wv, out=dh[blk])
            if dw is None:
                dw = z.T @ hb
            else:
                dw += z.T @ hb
    held = [dh, dw]  # _back's only references to the gradients

    def _back(g):
        if not held:
            raise RuntimeError("nll_rows: backward already handed over this "
                               "op's gradients")
        grads = tuple(held)
        held.clear()
        if g != 1.0:
            for a in grads:
                a *= g
        return grads

    return _record((out * inv_n).sum(), (h, w), _back), out
