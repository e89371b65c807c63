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
