"""Diversity-diagnostics tests: distances, spectrum, and theorem checks."""

import json
import math
import warnings

import numpy as np
import pytest

from advlm.advsoft import AdvConfig, adv_nll_loss, advsoft_prob
from advlm.autodiff import Tape, Tensor
from advlm.analysis import (
    NN_BLOCK_ELEMS,
    DiversityReport,
    _recognized_per_probe,
    check_energy_bound,
    context_probes,
    diversity_report,
    energy_phi,
    energy_psi,
    nearest_neighbor_distances,
    singular_values,
    sv_entropy,
)
from advlm.corpus import batchify
from advlm.errors import NumericError, ShapeError
from advlm.model import LMConfig, forward, init_params, zero_state

from support import peak_bytes


def _row_scan(W):
    """Row-by-row nearest-neighbor distances, the direct definition."""
    out = np.empty(W.shape[0])
    for i in range(W.shape[0]):
        d2 = ((W - W[i]) ** 2).sum(axis=1)
        d2[i] = np.inf
        out[i] = math.sqrt(d2.min())
    return out


def _sorted_winners(W, H, eps_per_word):
    """Recognized word per probe row, read off a full argsort of the logits."""
    z = H @ W.T
    order = np.argsort(z, axis=1)
    best, second = order[:, -1], order[:, -2]
    n = np.arange(H.shape[0])
    ok = (z[n, best] - eps_per_word[best] * np.linalg.norm(H, axis=1)
          > z[n, second])
    return np.where(ok, best, -1)


class TestNearestNeighbor:
    def test_hand_pair(self):
        np.testing.assert_allclose(
            nearest_neighbor_distances(np.array([[0.0, 0.0], [3.0, 4.0]])), [5.0, 5.0])

    def test_duplicate_rows_give_zero(self):
        W = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
        d = nearest_neighbor_distances(W)
        assert d[0] == 0.0 and d[1] == 0.0 and d[2] > 0

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(50, 8))
        got = nearest_neighbor_distances(W)
        expect = np.empty(50)
        for i in range(50):
            best = math.inf
            for j in range(50):
                if j != i:
                    best = min(best, math.sqrt(((W[i] - W[j]) ** 2).sum()))
            expect[i] = best
        np.testing.assert_allclose(got, expect, atol=1e-12)
        np.testing.assert_array_equal(got, _row_scan(W))

        # More rows than one block; near and exact duplicates; an offset
        # large enough that the Gram form cancels most of its digits; squares
        # that underflow to subnormals; a lattice full of exact ties.
        V = 600
        assert V > NN_BLOCK_ELEMS // V
        W = rng.normal(size=(V, 33))
        W[1::7] = W[0::7][:len(W[1::7])] + 1e-9 * rng.normal(size=(len(W[1::7]), 33))
        W[2::11] = W[3::11][:len(W[2::11])]
        lattice = rng.integers(-2, 3, size=(V, 5)) * 0.1
        for M in (W, W + 1e3, W * 1e-157, lattice):
            np.testing.assert_array_equal(nearest_neighbor_distances(M), _row_scan(M))

    def test_hostile_sweep(self):
        # A pair whose squares and dot product overflow, a pair at the top of
        # the float64 range, an inf row; then small matrices mixing lattices
        # full of ties, duplicated halves, subnormal squares, large offsets,
        # NaN rows, +-inf entries and rows of +-1e308.
        rng = np.random.default_rng(11)
        cases = [np.array([[1e200, 0.0], [-1e200, 0.0]]),
                 np.array([[1e308, 1e308], [-1e308, 1e308]]),
                 np.array([[1.0, 2.0], [np.inf, np.inf], [0.5, -1.0]])]
        for _ in range(600):
            V, d = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            if rng.random() < 0.25:
                W = rng.integers(-1, 2, size=(V, d)) * 0.5
            else:
                W = rng.normal(size=(V, d))
            if rng.random() < 0.3:
                W[V // 2:] = W[:V - V // 2]
            scale = rng.random()
            if scale < 0.2:
                W *= 1e-160
            elif scale < 0.4:
                W += 10.0 ** int(rng.integers(1, 17))
            k = rng.integers(V, size=3)
            if rng.random() < 0.15:
                W[k[0]] = np.nan
            if rng.random() < 0.25:
                W[k[1], rng.integers(d)] = rng.choice([np.inf, -np.inf])
            if rng.random() < 0.25:
                W[k[2]] = rng.choice([1e308, -1e308], size=d)
            cases.append(W)
        with np.errstate(all="ignore"):
            for W in cases:
                np.testing.assert_array_equal(nearest_neighbor_distances(W),
                                              _row_scan(W))

    def test_tiles_match_row_scan(self):
        # Tiles are 512 rows on a side: exactly one tile, one row past it, and
        # three tiles with a ragged last one.
        side = math.isqrt(NN_BLOCK_ELEMS)
        rng = np.random.default_rng(21)
        for V in (side, side + 1, 2 * side + 276):
            for gap in (0.0, 1e-9):
                W = rng.normal(size=(V, 12))
                # exact or near duplicates across each tile boundary
                for lo in range(side, V, side):
                    W[lo] = W[lo - 1] + gap * rng.normal(size=12)
                # the last row's only close partner sits in the first tile,
                # so its minimum comes from a tile's column minima
                W[V - 1] = W[5] + 1e-3 * rng.normal(size=12)
                scale = np.exp(rng.normal(scale=5.0, size=(V, 1)))
                for M in (W, W * scale, W + 1e3, W * 1e-157):
                    np.testing.assert_array_equal(nearest_neighbor_distances(M),
                                                  _row_scan(M))
        # A NaN row in the middle tile reaches every row's threshold; an inf
        # entry in the last tile makes its row's distance inf.
        nan_row, inf_entry = W.copy(), W.copy()
        nan_row[700] = np.nan
        inf_entry[1200, 3] = np.inf
        with np.errstate(invalid="ignore"):
            for M in (nan_row, inf_entry):
                np.testing.assert_array_equal(nearest_neighbor_distances(M),
                                              _row_scan(M))

    def test_holds_one_block(self):
        # 3000 rows span six tiles, 1300 three with a ragged last one
        for V in (3000, 1300):
            W = np.random.default_rng(12).normal(size=(V, 8))
            block_elems = (NN_BLOCK_ELEMS // V) * V
            got, peak = peak_bytes(lambda: nearest_neighbor_distances(W))
            assert peak < 14 * block_elems
            np.testing.assert_array_equal(got, _row_scan(W))

    def test_single_row_rejected(self):
        with pytest.raises(ShapeError):
            nearest_neighbor_distances(np.ones((1, 3)))


class TestSingularValues:
    def test_identity(self):
        np.testing.assert_allclose(singular_values(np.eye(3)), [1.0, 1.0, 1.0],
                                   atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(singular_values(np.diag([2.0, 1.0])), [1.0, 0.5],
                                   atol=1e-12)

    def test_frobenius_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            W = rng.normal(size=(20, 6))
            sv = singular_values(W)
            expect = (W ** 2).sum() / np.linalg.norm(W, 2) ** 2
            assert (sv ** 2).sum() == pytest.approx(expect, rel=1e-12)

    def test_matches_library_svd(self):
        rng = np.random.default_rng(2)
        for shape in ((12, 5), (4, 7), (6, 6)):
            W = rng.normal(size=shape)
            got = singular_values(W)
            expect = np.linalg.svd(W, compute_uv=False)
            assert len(got) == min(shape)
            np.testing.assert_allclose(got, expect / expect[0], atol=1e-12)

    def test_sorted_descending_first_is_one(self):
        W = np.random.default_rng(3).normal(size=(10, 4))
        sv = singular_values(W)
        assert sv[0] == 1.0
        assert all(a >= b for a, b in zip(sv, sv[1:]))

    def test_zero_matrix_rejected(self):
        with pytest.raises(NumericError):
            singular_values(np.zeros((4, 3)))
        with pytest.raises(NumericError):
            singular_values(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rank_deficient(self):
        W = np.outer(np.arange(1.0, 5.0), np.array([1.0, 2.0, 2.0]))
        sv = singular_values(W)
        assert sv[0] == 1.0
        np.testing.assert_allclose(sv[1:], 0.0, atol=1e-12)


class TestSvEntropy:
    def test_flat_spectrum(self):
        assert sv_entropy(np.ones(4)) == pytest.approx(math.log(4))

    def test_single_mode(self):
        assert sv_entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_flatter_is_higher(self):
        assert sv_entropy(np.array([1.0, 1.0])) > sv_entropy(np.array([1.0, 0.1]))


def _recognized(i, W, h, eps):
    """Whether one probe h recognizes word i at a radius eps shared by every
    word, as diversity_report decides it."""
    return _recognized_per_probe(W, h[None], np.full(len(W), eps))[0] == i


class TestRecognizable:
    W = np.array([[2.0, 0.0], [0.0, 1.0]])
    h = np.array([1.0, 0.0])

    def test_hand_true(self):
        assert _recognized(0, self.W, self.h, 1.0)

    def test_large_eps_false(self):
        assert not _recognized(0, self.W, self.h, 3.0)

    def test_eps_zero_is_strict_argmax(self):
        assert _recognized(0, self.W, self.h, 0.0)
        assert not _recognized(1, self.W, self.h, 0.0)
        tied = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert not _recognized(0, tied, self.h, 0.0)

    def test_consistent_with_perturbed_probabilities(self):
        # recognizability iff word i has the largest probability when i's
        # logit carries the perturbation and competitors share the denominator
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(300):
            V, d = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            W = rng.normal(size=(V, d))
            h = rng.normal(size=d)
            eps = float(rng.uniform(0.0, 1.0))
            i = int(rng.integers(V))
            z = W @ h
            z[i] -= eps * np.linalg.norm(h)
            m = z.max()
            probs = np.exp(z - m) / np.exp(z - m).sum()
            others = np.delete(probs, i)
            expect = bool(probs[i] > others.max())
            assert _recognized(i, W, h, eps) == expect
            hits += expect
        assert 0 < hits < 300  # sweep exercised both outcomes

    def test_per_probe_holds_one_block_of_logits(self):
        n, V, d = 1000, 2048, 8
        rng = np.random.default_rng(9)
        W, H = rng.normal(size=(V, d)), rng.normal(size=(n, d))
        eps_vec = np.full(V, 0.1)
        got, peak = peak_bytes(lambda: _recognized_per_probe(W, H, eps_vec))
        assert peak < n * V * 8 / 4
        np.testing.assert_array_equal(got, _sorted_winners(W, H, eps_vec))


def _separation_holds(report):
    """The theorem on a report: every recognized word sits further than its
    epsilon from its nearest neighbor."""
    return all(e["nn_distance"] > e["epsilon"] for e in report.recognized_words)


class TestSeparationTheorem:
    def test_hand_case(self):
        W = np.array([[2.0, 0.0], [0.0, 1.0]])
        report = diversity_report(W, AdvConfig("fixed", 1.0),
                                  [("probe", np.array([[1.0, 0.0]]))])
        assert [e["word_id"] for e in report.recognized_words] == [0]
        assert report.recognized_words[0]["nn_distance"] == math.sqrt(5.0)
        assert _separation_holds(report)

    def test_close_rows_never_recognized(self):
        rng = np.random.default_rng(5)
        W = rng.normal(size=(6, 4))
        W[3] = W[1] + 0.05 * rng.normal(size=4) / np.linalg.norm(rng.normal(size=4))
        eps = np.linalg.norm(W[3] - W[1]) + 0.01
        probes = rng.normal(size=(1000, 4))
        report = diversity_report(W, AdvConfig("fixed", float(eps)), [("probe", probes)])
        recognized = [e["word_id"] for e in report.recognized_words]
        assert 1 not in recognized
        assert 3 not in recognized
        assert recognized  # the probes do recognize other words
        assert _separation_holds(report)

    def test_no_violations_on_random_sweep(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            V, d = int(rng.integers(2, 10)), int(rng.integers(1, 6))
            W = rng.normal(size=(V, d))
            eps = float(rng.uniform(0.0, 2.0))
            probes = rng.normal(size=(50, d))
            for adv in (AdvConfig("fixed", eps), AdvConfig("adaptive", eps)):
                assert _separation_holds(diversity_report(W, adv, [("p", probes)]))
            # tied top logits (a duplicated word, an all-zero probe) and NaN
            # probes: argmax + partition must agree with the full sort
            if V > 2:
                W[2] = W[0]
            probes[:3] = [np.zeros(d), np.full(d, np.nan), probes[3] * 1e3]
            probes[4, 0] = np.nan
            eps_vec = eps * rng.uniform(0.0, 1.0, V)
            np.testing.assert_array_equal(_recognized_per_probe(W, probes, eps_vec),
                                          _sorted_winners(W, probes, eps_vec))
        # more probes than one block of logits holds, with a duplicated top
        # word, zero and NaN probes on both sides of the first block edge
        V, d = 600, 4
        edge = NN_BLOCK_ELEMS // V
        W = rng.normal(size=(V, d))
        W[0] *= 10.0
        W[2] = W[0]
        probes = rng.normal(size=(2 * edge + 7, d))
        probes[edge - 3:edge + 3] = [W[0], np.zeros(d), np.full(d, np.nan),
                                     np.full(d, np.nan), np.zeros(d), W[0]]
        probes[edge - 4, 0] = probes[edge + 3, 1] = np.nan
        eps_vec = rng.uniform(0.0, 0.5, V)
        got = _recognized_per_probe(W, probes, eps_vec)
        np.testing.assert_array_equal(got, _sorted_winners(W, probes, eps_vec))
        assert (got[edge - 4:edge + 4] == -1).all()
        assert (got >= 0).any()


def _min_distance_line(i, W, a, eps):
    """Phi's upper bound a * min_{j!=i}(||w_i - w_j|| - eps)."""
    return a * (min(np.linalg.norm(W[i] - w) for j, w in enumerate(W) if j != i) - eps)


class TestEnergyPhi:
    W = np.array([[0.0, 0.0], [3.0, 0.0]])

    def test_hand_value(self):
        assert energy_phi(0, self.W, 2.0, 1.0) == pytest.approx(4.0, abs=1e-12)
        assert _min_distance_line(0, self.W, 2.0, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_zero_sharpness(self):
        W = np.random.default_rng(7).normal(size=(9, 3))
        phi = energy_phi(2, W, 0.0, 0.5)
        assert phi == pytest.approx(-math.log(8))

    def test_bounded_by_min_distance_line(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            V, d = int(rng.integers(2, 10)), int(rng.integers(1, 6))
            W = rng.normal(size=(V, d))
            a = float(rng.uniform(0.0, 5.0))
            eps = float(rng.uniform(0.0, 1.0))
            i = int(rng.integers(V))
            assert energy_phi(i, W, a, eps) <= _min_distance_line(i, W, a, eps) + 1e-12

    def test_shift_stable_at_extreme_sharpness(self):
        phi = energy_phi(0, self.W, 500.0, 1.0)
        assert math.isfinite(phi)
        assert phi == pytest.approx(1000.0, rel=1e-12)
        assert _min_distance_line(0, self.W, 500.0, 1.0) == pytest.approx(1000.0, rel=1e-12)

    def test_single_row_rejected(self):
        with pytest.raises(ShapeError):
            energy_phi(0, np.ones((1, 2)), 1.0, 0.5)


def _sigmoid(t):
    return 1.0 / (1.0 + math.exp(-t)) if t >= 0 else math.exp(t) / (1.0 + math.exp(t))


class TestEnergyBoundChain:
    def test_advsoft_equals_sigmoid_psi_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            V, d = int(rng.integers(2, 12)), int(rng.integers(1, 8))
            W = rng.normal(size=(V, d))
            h = rng.normal(size=d)
            eps = float(rng.uniform(0.0, 1.0))
            i = int(rng.integers(V))
            psi = energy_psi(i, W, h, eps)
            assert advsoft_prob(i, W, h, eps) == pytest.approx(_sigmoid(psi),
                                                               abs=1e-12)

    def test_psi_below_phi(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            V, d = int(rng.integers(2, 12)), int(rng.integers(1, 8))
            W = rng.normal(size=(V, d))
            h = rng.normal(size=d)
            eps = float(rng.uniform(0.0, 1.0))
            i = int(rng.integers(V))
            psi = energy_psi(i, W, h, eps)
            assert psi <= energy_phi(i, W, float(np.linalg.norm(h)), eps) + 1e-12

    def test_bound_holds_random_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            V, d = int(rng.integers(2, 21)), int(rng.integers(1, 17))
            W = rng.normal(size=(V, d))
            h = rng.normal(size=d)
            eps = float(rng.uniform(0.0, 1.0))
            i = int(rng.integers(V))
            p, bound, holds = check_energy_bound(i, W, h, eps)
            assert holds, f"{p} > {bound}"

    def test_tight_for_anticollinear_pair(self):
        W = np.array([[0.0, 0.0], [3.0, 0.0]])
        h = np.array([-2.0, 0.0])
        p, bound, holds = check_energy_bound(0, W, h, 1.0)
        assert holds
        assert p == pytest.approx(_sigmoid(4.0), abs=1e-12)
        assert p == pytest.approx(0.982014, abs=1e-6)
        assert bound == pytest.approx(p, abs=1e-12)

    def test_tight_at_zero_context(self):
        rng = np.random.default_rng(12)
        W = rng.normal(size=(7, 3))
        p, bound, holds = check_energy_bound(2, W, np.zeros(3), 0.8)
        assert holds
        assert p == pytest.approx(1.0 / 7.0, abs=1e-12)
        assert bound == pytest.approx(1.0 / 7.0, abs=1e-12)


class TestDiversityReport:
    def _report(self):
        rng = np.random.default_rng(13)
        W = rng.normal(size=(8, 3))
        probes = [("train", rng.normal(size=(20, 3))),
                  ("random", rng.normal(size=(15, 3)))]
        return W, diversity_report(W, AdvConfig("adaptive", 0.05), probes)

    def test_fields_consistent(self):
        W, rep = self._report()
        np.testing.assert_allclose(rep.nn_distances, nearest_neighbor_distances(W))
        np.testing.assert_allclose(rep.singular_values_normalized, singular_values(W))
        assert rep.sv_entropy == pytest.approx(sv_entropy(singular_values(W)))

    def test_entries_unique_and_sorted(self):
        W, rep = self._report()
        keys = [(e["word_id"], e["probe_source"]) for e in rep.recognized_words]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))
        for e in rep.recognized_words:
            assert e["epsilon"] == pytest.approx(
                0.05 * np.linalg.norm(W[e["word_id"]]))
            assert e["nn_distance"] == pytest.approx(
                nearest_neighbor_distances(W)[e["word_id"]])

    def test_json_roundtrip(self, tmp_path):
        _, rep = self._report()
        path = tmp_path / "report.json"
        rep.save(str(path))
        data = json.loads(path.read_text(encoding="utf-8"))
        assert set(data) == {"nn_distances", "singular_values_normalized",
                             "sv_entropy", "recognized_words"}
        assert data["sv_entropy"] == pytest.approx(rep.sv_entropy)
        assert len(data["nn_distances"]) == 8

    def test_json_text_pinned(self, tmp_path):
        # report.json is DiversityReport's fields in declared order: pin the text
        rep = DiversityReport(np.array([0.5, 1.25]), np.array([1.0, 0.1]), 0.325,
                              [{"word_id": 1, "probe_source": "random",
                                "epsilon": 0.0625, "nn_distance": 1.25}])
        path = tmp_path / "report.json"
        rep.save(str(path))
        assert path.read_text(encoding="utf-8") == (
            '{\n "nn_distances": [\n  0.5,\n  1.25\n ],\n'
            ' "singular_values_normalized": [\n  1.0,\n  0.1\n ],\n'
            ' "sv_entropy": 0.325,\n'
            ' "recognized_words": [\n  {\n   "word_id": 1,\n'
            '   "probe_source": "random",\n   "epsilon": 0.0625,\n'
            '   "nn_distance": 1.25\n  }\n ]\n}\n')

    def test_non_finite_rejected_before_distances(self, monkeypatch):
        # A NaN makes every row keep every candidate, so the distances would
        # take V row rechecks before the spectrum rejected the matrix.
        def unreachable(W):
            raise AssertionError("distances computed for a non-finite matrix")

        monkeypatch.setattr("advlm.analysis.nearest_neighbor_distances", unreachable)
        W = np.random.default_rng(16).normal(size=(6, 3))
        W[2, 1] = np.nan
        with pytest.raises(NumericError):
            diversity_report(W, AdvConfig(), [("p", np.ones((2, 3)))])

    def test_overflowing_distances_rejected(self):
        # finite, so the spectrum accepts it, but its squared norms overflow
        W = np.random.default_rng(17).normal(size=(6, 3)) * 1e303
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="overflow"):
                diversity_report(W, AdvConfig(), [("p", np.ones((2, 3)))])

    def test_epsilon_is_the_loss_radius(self):
        """Each entry's epsilon is bitwise the radius adv_nll_loss applies to
        that word as a target."""
        params = init_params(LMConfig(vocab_size=40, embed_dim=6, init_range=0.5), 2)
        W = params.embedding.values
        probes = [("random", np.random.default_rng(15).normal(size=(400, 6)))]
        for adv in (AdvConfig("fixed", 0.05), AdvConfig("adaptive", 0.3)):
            entries = diversity_report(W, adv, probes).recognized_words
            assert len(entries) > 5
            ids = np.array([e["word_id"] for e in entries])
            batch = adv_nll_loss(params, Tensor(np.ones((len(ids), 6))),
                                 ids[:, None], adv)
            np.testing.assert_array_equal([e["epsilon"] for e in entries],
                                          batch.epsilons)


class TestContextProbes:
    def test_shapes_and_scale(self):
        cfg = LMConfig(vocab_size=6, embed_dim=4)
        params = init_params(cfg, 3)
        stream = batchify(np.random.default_rng(14).integers(0, 6, 80), 2, 5)
        sets = context_probes(params, stream, num_random=50,
                              rng=np.random.default_rng(0))
        (src_a, H), (src_b, R) = sets
        assert src_a == "train" and src_b == "random"
        assert H.shape == (stream.num_windows * 5 * 2, 4)
        assert R.shape == (50, 4)
        med = np.median(np.linalg.norm(H, axis=1))
        np.testing.assert_allclose(np.linalg.norm(R, axis=1), med, rtol=1e-12)

    def test_train_probes_are_the_taped_contexts_stacked(self):
        cfg = LMConfig(vocab_size=6, embed_dim=4, num_layers=2)
        params = init_params(cfg, 5)
        stream = batchify(np.random.default_rng(15).integers(0, 6, 62), 2, 6)
        (_, H), _ = context_probes(params, stream, num_random=3,
                                   rng=np.random.default_rng(0))
        state, want = zero_state(cfg, 2), []
        for inputs, _ in stream.windows():
            with Tape():
                contexts, state = forward(params, inputs, state)
            want.append(contexts.values)
        assert np.array_equal(H, np.vstack(want))
