"""Self-contained property suites: gradient checks against finite differences
and the closed-form/oracle equivalences the loss construction rests on.

Each suite returns a SuiteResult; the CLI prints one line per suite and the
test suite asserts on them at full scale. The gradient oracle here
(numerical_grad, rel_error, fd_check and head_grads) is also the one the
tests check gradients with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .advsoft import (AdvConfig, _prob_of_row, adv_nll_loss, advsoft_prob,
                      brute_force_advsoft, epsilons)
from .analysis import (
    _recognized_per_probe,
    _sigmoid,
    check_energy_bound,
    energy_phi,
    energy_psi,
    nearest_neighbor_distances,
)
from .autodiff import Tape, Tensor
from .corpus import batchify
from .errors import ConfigError
from .model import LMConfig, forward, init_params, zero_state
from .train import evaluate

FD_STEP = 1e-4


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def numerical_grad(f, x: np.ndarray) -> np.ndarray:
    """Central differences of the scalar f() in each entry of x, which is
    perturbed in place and restored; f must read x's current values."""
    out = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = out.ravel()
    for k in range(flat_x.size):
        orig = flat_x[k]
        flat_x[k] = orig + FD_STEP
        hi = f()
        flat_x[k] = orig - FD_STEP
        lo = f()
        flat_x[k] = orig
        flat_g[k] = (hi - lo) / (2.0 * FD_STEP)
    return out


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b|| relative to the reference b."""
    num = np.linalg.norm((a - b).ravel())
    return num / max(np.linalg.norm(b.ravel()), 1e-8)


def fd_check(build, tensors, rng) -> float:
    """One taped backward vs central differences; returns the worst rel err.

    build() must construct the output from the tensors' current values so the
    same closure serves both the taped pass and the perturbed evaluations.
    The output is reduced to a scalar with random weights of its shape;
    backward sets each tensor's .grad, whatever it held before.
    """
    with Tape() as tape:
        out = build()
        weights = rng.normal(size=out.shape)
        tape.backward(ad.weighted_sum(out, weights))

    def value():
        return float((build().values * weights).sum())

    worst = 0.0
    for t in tensors:
        num = numerical_grad(value, t.values)
        worst = max(worst, rel_error(t.grad, num))
    return worst


def _op_cases(rng):
    def t(*shape, r=2.0):
        return Tensor(rng.uniform(-r, r, size=shape))

    n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    a, w = t(n, m), rng.uniform(-2.0, 2.0, size=(n, m))
    yield "weighted_sum", lambda: ad.weighted_sum(a, w), [a]
    emb = t(int(rng.integers(3, 6)), m)
    ids = rng.integers(0, emb.shape[0], size=n)
    yield "gather_rows", lambda: ad.gather_rows(emb, ids), [emb]
    # L >= 2 steps of B >= 2 columns from a nonzero state, then a second
    # layer of another width stacked on the first
    L, B, k = int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
    x = t(L * B, m)
    stack, in_dim = [], m
    for h in (k, k + 1):
        stack.append(([t(in_dim, 4 * h, r=0.7), t(h, 4 * h, r=0.7), t(4 * h, r=0.7)],
                      rng.uniform(-1.0, 1.0, size=(2, B, h))))  # (h0, c0)
        in_dim = h

    def lstm(depth):
        out = x
        for weights, state in stack[:depth]:
            out = ad.lstm_layer(out, *weights, *state)[0]
        return out

    yield "lstm_layer", lambda: lstm(1), [x, *stack[0][0]]
    yield "lstm_layer x2", lambda: lstm(2), [x, *stack[0][0], *stack[1][0]]
    # the head's shift is a constant, so it is fixed from the start values
    V = int(rng.integers(2, 6))
    hh, ww = t(n, m), t(V, m)
    y = rng.integers(0, V, size=n)
    hnorm = np.linalg.norm(hh.values, axis=1)
    for adv in (AdvConfig(), AdvConfig("fixed", 0.7), AdvConfig("adaptive", 0.3)):
        yield (f"nll_rows {adv.mode}:{adv.value:g}",
               lambda s=epsilons(adv, ww.values[y]) * hnorm:
                   ad.nll_rows(hh, ww, y, s)[0],
               [hh, ww])


def verify_gradients(seed: int, instances: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst_op = 0.0
    checked = 0
    while checked < instances:  # whole rounds of every op case
        for name, build, tensors in _op_cases(rng):
            err = fd_check(build, tensors, rng)
            worst_op = max(worst_op, err)
            checked += 1
            if err >= 1e-4:
                return SuiteResult("gradients", False,
                                   f"op {name} rel err {err:.3g} >= 1e-4")

    # full-model finite differences make sense only where the loss gradient
    # is the true derivative, i.e. with the perturbation off; the detached
    # eps*||h|| path is checked against its analytic form below
    worst_model = 0.0
    shapes = [(1, 4), (1, 4), (2, 3)]
    for trial, (layers, d) in enumerate(shapes):
        cfg = LMConfig(vocab_size=8, embed_dim=d, num_layers=layers,
                       hidden_dim=d + 1, init_range=0.25)
        params = init_params(cfg, seed + trial)
        ids = rng.integers(0, 8, size=(3, 2))
        targets = rng.integers(0, 8, size=(3, 2))

        def model_loss():
            contexts, _ = forward(params, ids, zero_state(cfg, 2))
            return adv_nll_loss(params, contexts, targets, AdvConfig()).loss

        worst_model = max(worst_model, fd_check(model_loss, params.tensors(), rng))
        checked += 1
        if worst_model >= 1e-3:
            return SuiteResult("gradients", False,
                               f"model rel err {worst_model:.3g} >= 1e-3")

    worst_head = _adv_head_error(seed)
    checked += 1
    if worst_head >= 1e-10:
        return SuiteResult("gradients", False,
                           f"adversarial head grads off analytic form by "
                           f"{worst_head:.3g}")
    return SuiteResult(
        "gradients", True,
        f"{checked} checks, worst op err {worst_op:.3g}, model err "
        f"{worst_model:.3g}, adv head err {worst_head:.3g}")


def _adv_head_error(seed: int) -> float:
    """Taped gradients of the adversarial window-mean loss vs head_grads,
    with the offsets eps*||h|| held constant."""
    rng = np.random.default_rng(seed + 999)
    worst = 0.0
    for mode in (AdvConfig("fixed", 0.7), AdvConfig("adaptive", 0.1)):
        params = init_params(LMConfig(vocab_size=6, embed_dim=4, init_range=0.4),
                             seed)
        H = Tensor(rng.normal(size=(5, 4)))
        targets = rng.integers(0, 6, size=(5, 1))
        with Tape() as tape:
            batch = adv_nll_loss(params, H, targets, mode)
            tape.backward(batch.loss)
        dH, dW = head_grads(H.values, params.embedding.values, targets.reshape(-1),
                            batch.epsilons * np.linalg.norm(H.values, axis=1))
        worst = max(worst, rel_error(H.grad, dH), rel_error(params.embedding.grad, dW))
    return worst


def head_grads(H: np.ndarray, W: np.ndarray, targets,
               shift) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form gradients (dH, dW) of the window-mean NLL of the head
    z = H @ W.T with each row's target logit lowered by shift, the shift held
    constant: both are products with q = (softmax(z) - onehot) / N."""
    rows = np.arange(len(targets))
    z = H @ W.T
    z[rows, targets] -= shift
    m = z.max(axis=1, keepdims=True)
    q = np.exp(z - m)
    q /= q.sum(axis=1, keepdims=True)
    q[rows, targets] -= 1.0
    q /= len(targets)
    return q @ W, q.T @ H


def verify_closed_form(seed: int, instances: int, samples: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(instances):
        V, d = int(rng.integers(2, 11)), int(rng.integers(1, 9))
        W = rng.normal(size=(V, d))
        h = rng.normal(size=d)
        eps = float(rng.uniform(0.0, 1.5))
        i = int(rng.integers(V))
        closed = advsoft_prob(i, W, h, eps)
        brute = brute_force_advsoft(i, W, h, eps, samples, rng)
        gap = abs(brute - closed)
        worst = max(worst, gap)
        if gap >= 1e-9:
            side = "below" if brute < closed else "above"
            return SuiteResult("closed-form", False,
                               f"oracle {side} closed form by {gap:.3g} >= 1e-9")
    return SuiteResult("closed-form", True,
                       f"{instances} instances x {samples} samples, worst gap "
                       f"{worst:.3g}")


def verify_reductions(seed: int, instances: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(instances):
        V, d = int(rng.integers(2, 12)), int(rng.integers(1, 9))
        W = rng.normal(size=(V, d))
        h = rng.normal(size=d)
        i = int(rng.integers(V))
        gap = abs(advsoft_prob(i, W, h, 0.0) - _prob_of_row(W @ h, i))
        worst = max(worst, gap)
        if gap >= 1e-12:
            return SuiteResult("reductions", False,
                               f"eps=0 off softmax by {gap:.3g} >= 1e-12")
        if np.linalg.norm(h) > 1e-6:
            probs = [advsoft_prob(i, W, h, e) for e in np.linspace(0.0, 2.0, 6)]
            if not all(a > b for a, b in zip(probs, probs[1:])):
                return SuiteResult("reductions", False,
                                   "probability not strictly decreasing in eps")
    return SuiteResult("reductions", True,
                       f"{instances} instances, worst eps=0 gap {worst:.3g}")


def verify_recognition_separation(seed: int, instances: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    recognized = 0
    for k in range(instances):
        V, d = int(rng.integers(2, 11)), int(rng.integers(1, 9))
        W = rng.normal(size=(V, d))
        # half the instances get a deliberately close pair to stress the bound
        if k % 2:
            j = int(rng.integers(1, V))
            W[j] = W[0] + rng.uniform(0.0, 0.3) * rng.normal(size=d)
        h = rng.normal(size=d)
        eps = float(rng.uniform(0.0, 2.0))
        i = int(rng.integers(V))
        if _recognized_per_probe(W, h[None], np.full(V, eps))[0] == i:
            recognized += 1
            nn = nearest_neighbor_distances(W)[i]
            if not nn > eps:
                return SuiteResult(
                    "separation", False,
                    f"recognized word {i} has nn distance {nn:.6g} <= eps {eps:.6g}")
    # contrapositive: a pair within eps is never recognized
    W = rng.normal(size=(8, 5))
    W[4] = W[2] + 0.01 * rng.normal(size=5)
    eps = float(np.linalg.norm(W[4] - W[2]))
    probes = rng.normal(size=(instances, 5))
    won = _recognized_per_probe(W, probes, np.full(8, eps))
    for i in (2, 4):
        if (won == i).any():
            return SuiteResult("separation", False,
                               f"word {i} recognized despite a neighbor within eps")
    return SuiteResult(
        "separation", True,
        f"{instances} instances, {recognized} recognized, 0 violations; "
        f"contrapositive clean over {instances} probes")


def verify_energy_bound(seed: int, instances: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst_eq = 0.0
    for k in range(instances):
        V, d = int(rng.integers(2, 21)), int(rng.integers(1, 17))
        W = rng.normal(size=(V, d))
        h = rng.normal(size=d)
        eps = float(rng.uniform(0.0, 1.0))
        i = int(rng.integers(V))
        p, bound, held = check_energy_bound(i, W, h, eps)
        psi = energy_psi(i, W, h, eps)
        gap = abs(p - _sigmoid(psi))
        worst_eq = max(worst_eq, gap)
        if gap >= 1e-12:
            return SuiteResult("energy-bound", False,
                               f"advsoft != sigmoid(psi) by {gap:.3g} >= 1e-12")
        phi = energy_phi(i, W, float(np.linalg.norm(h)), eps)
        if psi > phi + 1e-12:
            return SuiteResult("energy-bound", False,
                               f"psi exceeds phi by {psi - phi:.3g}")
        if not held:  # a NaN p fails too
            return SuiteResult("energy-bound", False,
                               f"advsoft {p:.6g} exceeds bound {bound:.6g}")
    # tightness: zero context, and the anti-collinear pair
    p, bound, _ = check_energy_bound(2, rng.normal(size=(7, 3)), np.zeros(3), 0.8)
    if abs(p - bound) >= 1e-12 or abs(p - 1.0 / 7.0) >= 1e-12:
        return SuiteResult("energy-bound", False, "zero-context tightness violated")
    W = np.array([[0.0, 0.0], [3.0, 0.0]])
    p, bound, _ = check_energy_bound(0, W, np.array([-2.0, 0.0]), 1.0)
    if abs(p - bound) >= 1e-12:
        return SuiteResult("energy-bound", False, "anti-collinear tightness violated")
    return SuiteResult("energy-bound", True,
                       f"{instances} instances, worst equality gap {worst_eq:.3g}; "
                       f"both tightness cases exact")


def verify_uniform_identity(seed: int) -> SuiteResult:
    V = 11
    cfg = LMConfig(vocab_size=V, embed_dim=6, init_range=0.0)
    params = init_params(cfg, seed)
    ids = np.random.default_rng(seed).integers(0, V, size=240)
    ppl = evaluate(params, batchify(ids, 4, 6))
    rel = abs(ppl - V) / V
    return SuiteResult("uniform-identity", rel < 0.01,
                       f"zero-weight perplexity {ppl:.6g} vs |V|={V} "
                       f"(rel err {rel:.3g})")


def run_all(seed: int, scale: float) -> list[SuiteResult]:
    """Run every suite; scale < 1 shrinks instance counts for smoke runs."""
    if not 0 < scale < math.inf:
        raise ConfigError(f"scale must be finite and positive, got {scale}")

    def n(full):
        return max(1, int(full * scale))

    return [
        verify_gradients(seed, instances=n(100)),
        verify_closed_form(seed, instances=n(1000), samples=n(10 ** 4)),
        verify_reductions(seed, instances=n(2000)),
        verify_recognition_separation(seed, instances=n(10 ** 4)),
        verify_energy_bound(seed, instances=n(10 ** 4)),
        verify_uniform_identity(seed),
    ]
