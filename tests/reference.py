"""Plain-numpy reference computations shared by the test modules.

Everything here is written independently of the package's tape machinery so
it can serve as an oracle for it.
"""

import numpy as np


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def logsumexp_rows(z):
    """Row-wise log(sum(exp(z))) with the row max factored out."""
    m = z.max(axis=1, keepdims=True)
    return m[:, 0] + np.log(np.exp(z - m).sum(axis=1))


def hand_lstm_step(w_x, w_h, bias, x, h, c):
    """Gate-equation evaluation, columns packed [i | f | g | o]."""
    H = h.shape[1]
    pre = x @ w_x + h @ w_h + bias
    i = sigmoid(pre[:, 0:H])
    f = sigmoid(pre[:, H:2 * H] + 1.0)
    g = np.tanh(pre[:, 2 * H:3 * H])
    o = sigmoid(pre[:, 3 * H:4 * H])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def hand_contexts(params, input_ids, hs=None, cs=None):
    """Run the whole stack over [L x B] ids; returns ([L*B x d], hs, cs)."""
    cfg = params.config
    B = input_ids.shape[1]
    if hs is None:
        hs = [np.zeros((B, H)) for H in cfg.layer_sizes]
        cs = [np.zeros((B, H)) for H in cfg.layer_sizes]
    rows = []
    for t in range(input_ids.shape[0]):
        x = params.embedding.values[input_ids[t]]
        for k, layer in enumerate(params.layers):
            hs[k], cs[k] = hand_lstm_step(layer.w_x.values, layer.w_h.values,
                                          layer.bias.values, x, hs[k], cs[k])
            x = hs[k]
        rows.append(x)
    return np.vstack(rows), hs, cs


def hand_nll(params, contexts, flat_targets, eps_vec=None):
    """Total NLL with optional detached -eps*||h|| offsets on target logits."""
    z = contexts @ params.embedding.values.T
    n = np.arange(len(flat_targets))
    if eps_vec is not None:
        z[n, flat_targets] -= eps_vec * np.linalg.norm(contexts, axis=1)
    return (logsumexp_rows(z) - z[n, flat_targets]).sum()


def mle_loss_value(params, input_ids, targets):
    """Cross-entropy of the full model from a zero state, for finite differences."""
    contexts, _, _ = hand_contexts(params, input_ids)
    return hand_nll(params, contexts, targets.reshape(-1))


def lstm_window_ops(xv, w_x, w_h, bias, h0, c0):
    """lstm_layer's forward and BPTT with a separate input projection and
    gate history, in the operation order the fused op must match bit for
    bit. Returns (hs, h_last, c_last, back), back(g) giving the gradients
    of x, w_x, w_h and bias."""
    B, H = h0.shape
    n = xv.shape[0]
    half = np.full(4 * H, 0.5)
    half[2 * H:3 * H] = 1.0
    lift = 1.0 - half
    pre = xv @ w_x + bias
    pre[:, H:2 * H] += 1.0
    pre *= half
    wh_half = w_h * half
    acts = np.empty((n, 4 * H))
    tcs = np.empty((n, H))
    hs = np.empty((n + B, H))
    cs = np.empty((n + B, H))
    hs[:B], cs[:B] = h0, c0
    for lo in range(0, n, B):
        now, nxt = slice(lo, lo + B), slice(lo + B, lo + 2 * B)
        a = np.tanh(hs[now] @ wh_half + pre[now]) * half + lift
        acts[now] = a
        cs[nxt] = a[:, H:2 * H] * cs[now] + a[:, :H] * a[:, 2 * H:3 * H]
        tcs[now] = np.tanh(cs[nxt])
        hs[nxt] = a[:, 3 * H:] * tcs[now]

    def back(g):
        slope = acts * (1.0 - acts)
        slope[:, 2 * H:3 * H] = 1.0 - acts[:, 2 * H:3 * H] * acts[:, 2 * H:3 * H]
        dh_dc = acts[:, 3 * H:] * (1.0 - tcs * tcs)
        dpre = np.empty((n, 4 * H))
        dh = np.zeros((B, H))
        dc = np.zeros((B, H))
        for lo in range(n - B, -1, -B):
            now = slice(lo, lo + B)
            a = acts[now]
            dh = dh + g[now]
            dc = dc + dh * dh_dc[now]
            prod = np.hstack([dc * a[:, 2 * H:3 * H], dc * cs[now],
                              dc * a[:, :H], dh * tcs[now]])
            dpre[now] = prod * slope[now]
            dh = dpre[now] @ w_h.T
            dc = dc * a[:, H:2 * H]
        return (dpre @ w_x.T, xv.T @ dpre, hs[:n].T @ dpre, dpre.sum(axis=0))

    return hs[B:], hs[n:], cs[n:], back
