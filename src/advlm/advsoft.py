"""Adversarial softmax: closed-form worst-case perturbation of the target
output embedding, the resulting probability/loss, and brute-force oracles.

The training loss lowers each target logit by eps*||h|| where both eps (in
adaptive mode) and ||h|| are treated as constants: no gradient flows through
either norm. Competitor logits are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .model import LMParams

MODES = ("fixed", "adaptive")


@dataclass(frozen=True)
class AdvConfig:
    mode: str = "fixed"
    value: float = 0.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"adv mode must be one of {MODES}, got {self.mode!r}")
        if self.value < 0 or not np.isfinite(self.value):
            raise ConfigError(f"adv value must be finite and >= 0, got {self.value}")

    @classmethod
    def parse(cls, text: str) -> "AdvConfig":
        """Parse 'off' (radius 0), 'fixed:EPS', or 'adaptive:ALPHA'."""
        text = text.strip()
        if text == "off":
            return cls()
        head, sep, tail = text.partition(":")
        if not sep or head not in MODES:
            raise ConfigError(f"cannot parse adv spec {text!r}")
        try:
            value = float(tail)
        except ValueError:
            raise ConfigError(f"cannot parse adv value in {text!r}")
        return cls(head, value)


@dataclass
class AdvLossBatch:
    loss: Tensor  # mean of the per-row losses, recorded on the open tape
    total: float  # sum of the per-row losses
    epsilons: np.ndarray


def epsilons(config: AdvConfig, rows: np.ndarray) -> np.ndarray:
    """Perturbation radius for each target embedding row of [N x d] rows:
    EPS (fixed) or ALPHA * ||w_target|| (adaptive)."""
    if config.mode == "fixed":
        return np.full(len(rows), config.value)
    return config.value * np.linalg.norm(rows, axis=1)


def optimal_perturbation(h: np.ndarray, eps: float) -> np.ndarray:
    """Worst-case perturbation of the target embedding: -eps*h/||h||."""
    h = np.asarray(h, dtype=np.float64)
    norm = np.linalg.norm(h)
    if norm == 0.0 or eps == 0.0:
        return np.zeros_like(h)
    return (-eps / norm) * h


def _prob_of_row(logits: np.ndarray, i: int) -> float:
    m = logits.max()
    return float(np.exp(logits[i] - m) / np.exp(logits - m).sum())


def advsoft_prob(i: int, W: np.ndarray, h: np.ndarray, eps: float) -> float:
    """Softmax probability of word i after the worst-case target perturbation:
    exp(w_i.h - eps||h||) / (exp(w_i.h - eps||h||) + sum_{j!=i} exp(w_j.h)),
    from the head the training loss runs (nll_rows on one context row)."""
    h = np.asarray(h, dtype=np.float64)
    _, nll = ad.nll_rows(Tensor(h[None]), Tensor(W), [i],
                         [eps * np.linalg.norm(h)])
    return float(np.exp(-nll[0]))


def brute_force_advsoft(i: int, W: np.ndarray, h: np.ndarray, eps: float,
                        num_samples: int, rng: np.random.Generator) -> float:
    """Minimize softmax(i) over sampled perturbations: the analytic candidate,
    num_samples all-word sets at radius eps/2 each, and num_samples single-word
    perturbations at radius eps. Returns the smallest probability found."""
    W = np.asarray(W, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    V, d = W.shape
    ad.check_ids(i, V, "word id")
    if num_samples < 1:
        raise ConfigError(f"num_samples must be >= 1, got {num_samples}")
    if V == 1:
        return 1.0

    base = W @ h
    hnorm = np.linalg.norm(h)
    best = _prob_of_row(base.copy(), i)

    # analytic single perturbation at radius eps
    z = base.copy()
    z[i] += optimal_perturbation(h, eps) @ h
    best = min(best, _prob_of_row(z, i))

    # the sharp member of the all-words family: target pushed down eps/2,
    # every competitor pushed up eps/2, both along h
    z = base + 0.5 * eps * hnorm
    z[i] = base[i] - 0.5 * eps * hnorm
    best = min(best, _prob_of_row(z, i))

    def ball(shape, radius, boundary):
        v = rng.normal(size=shape)
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        if boundary:
            return radius * v
        r = radius * rng.uniform(size=shape[:-1] + (1,)) ** (1.0 / d)
        return r * v

    half = num_samples // 2
    for s, boundary in ((half, True), (num_samples - half, False)):
        if s == 0:
            continue
        # all words perturbed, each within radius eps/2
        noise = ball((s, V, d), eps / 2.0, boundary)
        logits = base + noise @ h
        m = logits.max(axis=1, keepdims=True)
        probs = np.exp(logits[:, i] - m[:, 0]) / np.exp(logits - m).sum(axis=1)
        best = min(best, float(probs.min()))
        # target only, within radius eps
        noise = ball((s, d), eps, boundary)
        zi = base[i] + noise @ h
        rest = np.delete(base, i)
        m = np.maximum(zi, rest.max())
        probs = np.exp(zi - m) / (np.exp(zi - m) + np.exp(rest[None, :] - m[:, None]).sum(axis=1))
        best = min(best, float(probs.min()))
    return best


def adv_nll_loss(params: LMParams, contexts: Tensor, targets: np.ndarray,
                 config: AdvConfig) -> AdvLossBatch:
    """Window-mean NLL (nll_rows' recorded loss) and the total over its
    rows, with each target logit lowered by the detached eps*||h|| offset.
    targets is [L x B]; contexts rows are the matching time-major
    positions. The target ids are checked before their rows are gathered
    for the radius."""
    flat = np.asarray(targets).reshape(-1)
    if contexts.shape[0] != flat.size:
        raise ShapeError(
            f"contexts rows {contexts.shape[0]} != target positions {flat.size}"
        )
    flat = ad.check_ids(flat, params.embedding.shape[0], "adv_nll_loss: target id")
    eps = epsilons(config, params.embedding.values[flat])
    # constant offsets: no gradient through ||h|| or ||w_target||
    shift = eps * np.linalg.norm(contexts.values, axis=1)
    loss, nll = ad.nll_rows(contexts, params.embedding, flat, shift)
    return AdvLossBatch(loss, float(nll.sum()), eps)
