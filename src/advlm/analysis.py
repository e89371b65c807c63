"""Embedding-diversity diagnostics: nearest-neighbor distances, spectrum,
recognizability, and the energy-bound theorem checker.

All functions take plain numpy matrices; nothing here touches the tape.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .advsoft import AdvConfig, _check_index, advsoft_prob, epsilons
from .corpus import write_text_atomic
from .errors import ConfigError, NumericError, ShapeError
from .model import stream_contexts

BOUND_SLACK = 1e-12
# Elements in one row block x V temporary: nearest_neighbor_distances holds
# 9 bytes per element (float64 Gram rows, bool mask), _recognized_per_probe 8
# (float64 probe logits).
NN_BLOCK_ELEMS = 2 ** 18


def nearest_neighbor_distances(W: np.ndarray) -> np.ndarray:
    """out[i] = min over j != i of ||w_i - w_j||.

    Each block of rows picks candidates from the Gram form (one BLAS product)
    and rechecks them as ((W[j] - W[i])**2).sum(), so the result is the row
    scan's bit for bit. With sq = ||w||^2, j is a candidate unless
    sq_i + sq_j - 2 w_i.w_j - m_ij > min_k (sq_i + sq_k - 2 w_i.w_k + m_ik) for
    a rounding margin m_ij = c_i + c_j split into a row and a column share,
    c = tol*(sq + tiny). sq_i cancels: with u_ij = sq_j + c_j - 2 w_i.w_j (inf
    at j = i), j is dropped when u_ij - 2 c_j > min_k u_ik + 2 c_i. The row
    minimum is never dropped, so a row's sole candidate is its nearest one."""
    W = np.ascontiguousarray(W, dtype=np.float64)
    V, d = W.shape
    if V < 2:
        raise ShapeError(f"need at least 2 rows, got {V}")
    sq = (W * W).sum(axis=1)
    fp = np.finfo(np.float64)
    # tol = 4(d+2)eps bounds both forms' rounding with room to spare; tiny
    # covers squares that underflow to subnormals.
    c = 4.0 * (d + 2) * fp.eps * (sq + fp.tiny)
    col, c2 = sq + c, 2.0 * c
    out = np.empty(V)
    block = max(1, NN_BLOCK_ELEMS // V)
    for lo in range(0, V, block):
        hi = min(lo + block, V)
        rows = np.arange(hi - lo)
        u = W[lo:hi] @ W.T
        u *= -2.0
        u += col
        u[rows, rows + lo] = np.inf
        thr = u.min(axis=1) + c2[lo:hi]
        u -= c2
        # NaN compares False: a NaN row keeps every j and rechecks to NaN.
        far = u > thr[:, None]
        far[rows, rows + lo] = True
        single = far.sum(axis=1) == V - 1
        nearest = (~far[single]).argmax(axis=1)
        diff = W[nearest] - W[lo:hi][single]
        out[lo:hi][single] = np.sqrt((diff ** 2).sum(axis=1))
        for r in np.flatnonzero(~single):
            cand = np.flatnonzero(~far[r])
            out[lo + r] = math.sqrt(((W[cand] - W[lo + r]) ** 2).sum(axis=1).min())
        del u, far  # before the next block's product is allocated
    return out


def singular_values(W: np.ndarray) -> np.ndarray:
    """Singular values of W (LAPACK SVD), sorted descending and normalized so
    the largest is 1."""
    W = np.asarray(W, dtype=np.float64)
    if not np.isfinite(W).all():
        raise NumericError("non-finite matrix has no defined spectrum")
    if not W.any():
        raise NumericError("all-zero matrix has no defined spectrum shape")
    sv = np.linalg.svd(W, compute_uv=False)
    return sv / sv[0]


def sv_entropy(sv: np.ndarray) -> float:
    """Entropy -sum p ln p of the spectrum normalized to a distribution."""
    sv = np.asarray(sv, dtype=np.float64)
    p = sv / sv.sum()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def _check_word(i: int, W: np.ndarray) -> np.ndarray:
    """W as float64, with at least 2 rows and i one of its word ids."""
    W = np.asarray(W, dtype=np.float64)
    V = W.shape[0]
    if V < 2:
        raise ShapeError(f"need at least 2 rows, got {V}")
    _check_index(i, V)
    return W


def _recognized_per_probe(W: np.ndarray, H: np.ndarray, eps_per_word: np.ndarray):
    """For each probe row of H, the recognized word id or -1: the word whose
    logit, lowered by its eps*||h||, strictly beats every other. Only the
    strict argmax can dominate, so one candidate per probe suffices. The probes
    go in row blocks, so one block x V array of logits is held at a time."""
    n = H.shape[0]
    best = np.empty(n, dtype=np.intp)
    top = np.empty(n)
    second = np.empty(n)
    block = max(1, NN_BLOCK_ELEMS // W.shape[0])
    for lo in range(0, n, block):
        z = H[lo:lo + block] @ W.T
        r = np.arange(z.shape[0])
        b = z.argmax(axis=1)
        best[lo:lo + block] = b
        top[lo:lo + block] = z[r, b]
        z[r, b] = -np.inf  # z is ours: the row max is now the runner-up
        second[lo:lo + block] = z.max(axis=1)
        del z  # before the next block's product is allocated
    hnorm = np.linalg.norm(H, axis=1)
    ok = top - eps_per_word[best] * hnorm > second
    return np.where(ok, best, -1)


def _neg_logsumexp(terms: np.ndarray) -> float:
    m = terms.max()
    return float(-(m + np.log(np.exp(terms - m).sum())))


def energy_phi(i: int, W: np.ndarray, a: float, eps: float) -> tuple[float, float]:
    """Distance energy Phi = -log sum_{j!=i} exp(-a(||w_i-w_j|| - eps)) and its
    upper bound a*min_{j!=i}(||w_i-w_j|| - eps)."""
    W = _check_word(i, W)
    d = np.linalg.norm(W - W[i], axis=1)
    d = np.delete(d, i)
    phi = _neg_logsumexp(-a * (d - eps))
    return phi, float(a * (d.min() - eps))


def energy_psi(i: int, W: np.ndarray, h: np.ndarray, eps: float) -> float:
    """Context energy Psi = -log sum_{j!=i} exp((w_j-w_i).h + eps||h||);
    the adversarial probability equals sigmoid(Psi) exactly."""
    W = _check_word(i, W)
    h = np.asarray(h, dtype=np.float64)
    terms = (W - W[i]) @ h + eps * np.linalg.norm(h)
    return _neg_logsumexp(np.delete(terms, i))


def _sigmoid(t: float) -> float:
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def check_energy_bound(i: int, W: np.ndarray, h: np.ndarray,
                       eps: float) -> tuple[float, float, bool]:
    """Both sides of advsoft_prob <= sigmoid(Phi(i, W, ||h||))."""
    p = advsoft_prob(i, W, h, eps)
    phi, _ = energy_phi(i, W, float(np.linalg.norm(np.asarray(h))), eps)
    bound = _sigmoid(phi)
    return p, bound, p <= bound + BOUND_SLACK


@dataclass
class DiversityReport:
    nn_distances: np.ndarray
    singular_values_normalized: np.ndarray
    sv_entropy: float
    recognized_words: list[dict]

    def to_dict(self) -> dict:
        return {
            "nn_distances": [float(x) for x in self.nn_distances],
            "singular_values_normalized":
                [float(x) for x in self.singular_values_normalized],
            "sv_entropy": float(self.sv_entropy),
            "recognized_words": self.recognized_words,
        }

    def save(self, path: str) -> None:
        write_text_atomic(path, json.dumps(self.to_dict(), indent=1) + "\n")


def diversity_report(W: np.ndarray, adv: AdvConfig,
                     probe_sets: list[tuple[str, np.ndarray]]) -> DiversityReport:
    """Full diagnostics over labeled probe batches, e.g. [("train", H),
    ("random", R)]. One recognized-word entry per (word, probe source).
    NumericError for a W that is not finite or whose distances overflow."""
    W = np.asarray(W, dtype=np.float64)
    sv = singular_values(W)  # first: it rejects a non-finite W at once
    try:
        with np.errstate(over="raise"):
            nn = nearest_neighbor_distances(W)
    except FloatingPointError as e:
        raise NumericError(f"nearest-neighbour distances overflow: {e}") from None
    eps_vec = epsilons(adv, W)
    seen = set()
    entries = []
    for source, H in probe_sets:
        H = np.atleast_2d(np.asarray(H, dtype=np.float64))
        for w in _recognized_per_probe(W, H, eps_vec):
            if w < 0 or (int(w), source) in seen:
                continue
            seen.add((int(w), source))
            entries.append({
                "word_id": int(w),
                "probe_source": source,
                "epsilon": float(eps_vec[w]),
                "nn_distance": float(nn[w]),
            })
    entries.sort(key=lambda e: (e["word_id"], e["probe_source"]))
    return DiversityReport(nn, sv, sv_entropy(sv), entries)


def context_probes(params, stream, num_random: int, rng: np.random.Generator):
    """Default probe sets: every context vector from one evaluation pass over
    the stream, plus random unit vectors scaled to the median context norm."""
    H = np.vstack([contexts.values for contexts, _ in stream_contexts(params, stream)])
    return [("train", H), ("random", random_probes(H, num_random, rng))]


def random_probes(rows: np.ndarray, num_random: int,
                  rng: np.random.Generator) -> np.ndarray:
    """num_random random directions scaled to the median norm of rows (to 1
    when that median is 0)."""
    if num_random < 0:
        raise ConfigError(f"num_random must be >= 0, got {num_random}")
    if 8 * num_random * rows.shape[1] > np.iinfo(np.intp).max:
        raise ConfigError(f"num_random {num_random} x dim {rows.shape[1]}: the "
                          f"float64 probes do not fit in an address space")
    scale = float(np.median(np.linalg.norm(rows, axis=1))) or 1.0
    R = rng.normal(size=(num_random, rows.shape[1]))
    R *= scale / np.linalg.norm(R, axis=1, keepdims=True)
    return R
