"""Embedding-diversity diagnostics: nearest-neighbor distances, spectrum,
recognizability, and the energy-bound theorem checker.

All functions take plain numpy matrices; nothing here touches the tape.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .advsoft import AdvConfig, advsoft_prob, epsilons
from .autodiff import check_ids
from .corpus import write_text_atomic
from .errors import ConfigError, NumericError, ShapeError, overflow_guard
from .model import stream_contexts

BOUND_SLACK = 1e-12
# Elements in one float64 temporary: nearest_neighbor_distances works in
# square Gram tiles of isqrt(NN_BLOCK_ELEMS) = 512 on a side, and
# _recognized_per_probe in row blocks of NN_BLOCK_ELEMS // V probe logits.
# A quarter of the head's HEAD_BLOCK_ELEMS: those raise analyze's peak 7.5 MB at V=239.
NN_BLOCK_ELEMS = 2 ** 18


def nearest_neighbor_distances(W: np.ndarray) -> np.ndarray:
    """out[i] = min over j != i of ||w_i - w_j||.

    The Gram form only picks candidates; each is rechecked as
    ((W[j] - W[i])**2).sum(), so the result is the row scan's bit for bit.
    With sq = ||w||^2, c = tol*(sq + tiny) and col = sq + c, one BLAS product
    per tile gives E_ij = col_i + col_j - 2 w_i.w_j as the d+2 terms of
    [-2w_i, col_i, 1].[w_j, 1, col_j] (scaling by -2 is exact). Row i keeps
    j unless E_ij - 2c_j > min_k E_ik + 2c_i (k != i).

    Why the nearest j is kept, to first order in u = eps/2, with S = sq_i +
    sq_j and D_ij the exact squared distance (so D_ij <= 2S): E_ij is within
    (3d+5)u*S of D_ij + c_i + c_j (the product errs by at most (d+2)u times
    its absolute terms, <= 2S, and col by (d+1)u*sq), and each threshold
    operation adds u*2S. The recheck errs by at most (d+2)u*D_ij <=
    (2d+4)u*S. So when row i drops j against some k, D_ij - D_ik exceeds
    2c_i + c_j + c_k minus (3d+7)u*(S_ij + S_ik), which with tol = 4(d+2)eps
    = (8d+16)u leaves (5d+9)u*(S_ij + S_ik): more than the rechecks'
    (2d+4)u*(S_ij + S_ik), so j's recheck is above k's. tiny covers
    roundings among subnormals (u*tiny each).

    Phase 1 walks the upper triangle in square tiles, so each product is
    formed once: a tile's row minima go to its rows, its column minima to
    its columns, one entry per (column tile, row). Phase 2 rescans a (row,
    column tile) pair only when that tile's minimum, less the tile's largest
    2c_j, is not above the row's threshold (rounding is monotone), in chunks
    of at most one tile of rows, and rechecks the survivors. Every drop test
    is "x > thr", so a NaN keeps its candidate; np.min carries a NaN of row
    i's E into its threshold, and an inf square makes c inf, so such a row
    keeps every j and rechecks to the row scan's NaN or inf. Self-pairs are
    dropped by index, never by a comparison."""
    W = np.ascontiguousarray(W, dtype=np.float64)
    V, d = W.shape
    if V < 2:
        raise ShapeError(f"need at least 2 rows, got {V}")
    sq = (W * W).sum(axis=1)
    fp = np.finfo(np.float64)
    c = 4.0 * (d + 2) * fp.eps * (sq + fp.tiny)
    col, c2 = sq + c, 2.0 * c
    side = math.isqrt(NN_BLOCK_ELEMS)
    starts = np.arange(0, V, side)

    def factor(rows, left: bool) -> np.ndarray:
        # factor(I, True) @ factor(J, False).T is the E tile of rows I, J
        f = np.empty((col[rows].size, d + 2))
        np.multiply(W[rows], -2.0 if left else 1.0, out=f[:, :d])
        f[:, d:] = 1.0
        f[:, d if left else d + 1] = col[rows]
        return f

    tile_min = np.empty((starts.size, V))  # [J, i]: min over j in tile J of E_ij
    for I, lo in enumerate(starts):
        rows = slice(lo, lo + side)
        a = factor(rows, True)
        for J, jlo in enumerate(starts[I:], I):
            cols = slice(jlo, jlo + side)
            E = a @ factor(cols, False).T
            if J == I:
                np.fill_diagonal(E, np.inf)
            tile_min[J, rows] = E.min(axis=1)
            if J > I:
                tile_min[I, cols] = E.min(axis=0)
            del E  # before the next tile's product is allocated
    thr = tile_min.min(axis=0) + c2
    c2_max = np.maximum.reduceat(c2, starts)
    best = np.full(V, np.inf)
    pairs = max(1, NN_BLOCK_ELEMS // d)  # rechecks per piece: one tile of diffs
    for J, jlo in enumerate(starts):
        cols = slice(jlo, jlo + side)
        b = factor(cols, False)
        rescan = np.flatnonzero(~(tile_min[J] - c2_max[J] > thr))
        for lo in range(0, rescan.size, side):
            rows = rescan[lo:lo + side]
            E = factor(rows, True) @ b.T
            E -= c2[cols]
            keep = ~(E > thr[rows, None])
            del E
            own = (rows >= jlo) & (rows < jlo + side)
            keep[own, rows[own] - jlo] = False  # self-pairs
            i, j = np.divmod(np.flatnonzero(keep), keep.shape[1])  # 2-d nonzero is slower
            for p in range(0, i.size, pairs):
                ip, jp = rows[i[p:p + pairs]], j[p:p + pairs] + jlo
                np.minimum.at(best, ip, ((W[jp] - W[ip]) ** 2).sum(axis=1))
    return np.sqrt(best)


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
    check_ids(i, V, "word id")
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


def energy_phi(i: int, W: np.ndarray, a: float, eps: float) -> float:
    """Distance energy Phi = -log sum_{j!=i} exp(-a(||w_i-w_j|| - eps))."""
    W = _check_word(i, W)
    d = np.linalg.norm(W - W[i], axis=1)
    d = np.delete(d, i)
    return _neg_logsumexp(-a * (d - eps))


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
    bound = _sigmoid(energy_phi(i, W, float(np.linalg.norm(np.asarray(h))), eps))
    return p, bound, p <= bound + BOUND_SLACK


@dataclass
class DiversityReport:
    nn_distances: np.ndarray
    singular_values_normalized: np.ndarray
    sv_entropy: float
    recognized_words: list[dict]

    def save(self, path: str) -> None:
        write_text_atomic(path, json.dumps(vars(self), indent=1,
                                           default=np.ndarray.tolist) + "\n")


def diversity_report(W: np.ndarray, adv: AdvConfig,
                     probe_sets: list[tuple[str, np.ndarray]]) -> DiversityReport:
    """Full diagnostics over labeled probe batches, e.g. [("train", H),
    ("random", R)]. One recognized-word entry per (word, probe source).
    The labels are distinct. NumericError for a W that is not finite, or
    whose distances, radii or margins overflow."""
    W = np.asarray(W, dtype=np.float64)
    sv = singular_values(W)  # first: it rejects a non-finite W at once
    entries = []
    with overflow_guard("diversity report"):
        nn = nearest_neighbor_distances(W)
        eps_vec = epsilons(adv, W)
        for source, H in probe_sets:
            H = np.atleast_2d(np.asarray(H, dtype=np.float64))
            won = _recognized_per_probe(W, H, eps_vec)
            entries.extend({"word_id": int(w), "probe_source": source,
                            "epsilon": float(eps_vec[w]), "nn_distance": float(nn[w])}
                           for w in np.unique(won[won >= 0]))
    entries.sort(key=lambda e: (e["word_id"], e["probe_source"]))
    return DiversityReport(nn, sv, sv_entropy(sv), entries)


def context_probes(params, stream, num_random: int, rng: np.random.Generator):
    """Default probe sets: every context vector from one evaluation pass over
    the stream, plus random unit vectors scaled to the median context norm.
    num_random is checked before the pass, and an overflow in the pass is
    NumericError."""
    _check_num_random(num_random, params.config.embed_dim)
    with overflow_guard("context pass"):
        H = np.vstack([contexts.values
                       for contexts, _ in stream_contexts(params, stream)])
    return [("train", H), ("random", random_probes(H, num_random, rng))]


def _check_num_random(num_random: int, dim: int) -> None:
    if num_random < 0:
        raise ConfigError(f"num_random must be >= 0, got {num_random}")
    if 8 * num_random * dim > np.iinfo(np.intp).max:
        raise ConfigError(f"num_random {num_random} x dim {dim}: the "
                          f"float64 probes do not fit in an address space")


def random_probes(rows: np.ndarray, num_random: int,
                  rng: np.random.Generator) -> np.ndarray:
    """num_random random directions scaled to the median norm of rows (to 1
    when that median is 0)."""
    _check_num_random(num_random, rows.shape[1])
    scale = float(np.median(np.linalg.norm(rows, axis=1))) or 1.0
    R = rng.normal(size=(num_random, rows.shape[1]))
    R *= scale / np.linalg.norm(R, axis=1, keepdims=True)
    return R
