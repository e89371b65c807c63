"""Adversarial softmax tests: hand values, oracles, and gradient routing."""

import numpy as np
import pytest

from advlm.advsoft import (
    AdvConfig,
    adv_nll_loss,
    advsoft_prob,
    brute_force_advsoft,
    epsilons,
    optimal_perturbation,
)
from advlm.autodiff import Tape, Tensor
from advlm.errors import ConfigError, ShapeError
from advlm.model import LMConfig, init_params
from advlm.verify import head_grads, numerical_grad, rel_error


def _softmax(logits):
    m = logits.max()
    e = np.exp(logits - m)
    return e / e.sum()


class TestAdvConfig:
    def test_parse_specs(self):
        for text, mode, value in (("off", "fixed", 0.0), ("fixed:0.5", "fixed", 0.5),
                                  (" adaptive:0.005 ", "adaptive", 0.005),
                                  ("adaptive:0.1234567", "adaptive", 0.1234567)):
            cfg = AdvConfig.parse(text)
            assert (cfg.mode, cfg.value) == (mode, value)

    def test_parse_rejects_garbage(self):
        for text in ("", "fixed", "adaptive:x", "pgd:3", "fixed:-1"):
            with pytest.raises(ConfigError):
                AdvConfig.parse(text)

    def test_zero_allowed_for_fixed_and_adaptive(self):
        assert AdvConfig.parse("fixed:0").value == 0.0
        assert AdvConfig.parse("adaptive:0").value == 0.0


class TestEpsilonForTarget:
    def test_modes(self):
        rows = np.array([[2.0, 0.0], [0.0, 4.0]])
        np.testing.assert_array_equal(epsilons(AdvConfig(), rows), [0.0, 0.0])
        np.testing.assert_array_equal(epsilons(AdvConfig("fixed", 0.3), rows), [0.3, 0.3])
        np.testing.assert_allclose(epsilons(AdvConfig("adaptive", 0.005), rows),
                                   [0.01, 0.02], rtol=1e-15)

    def test_zero_row_degenerates_gracefully(self):
        np.testing.assert_array_equal(
            epsilons(AdvConfig("adaptive", 0.1), np.zeros((3, 4))), np.zeros(3))


class TestOptimalPerturbation:
    def test_hand_value(self):
        np.testing.assert_allclose(optimal_perturbation(np.array([3.0, 4.0]), 1.0),
                                   [-0.6, -0.8], atol=1e-15)

    def test_zero_eps_and_zero_h(self):
        assert not optimal_perturbation(np.array([3.0, 4.0]), 0.0).any()
        assert not optimal_perturbation(np.zeros(3), 1.0).any()

    def test_norm_equals_eps(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            h = rng.normal(size=rng.integers(1, 9))
            eps = rng.uniform(0.01, 3.0)
            assert np.linalg.norm(optimal_perturbation(h, eps)) == pytest.approx(eps)

    def test_minimizes_inner_product_over_sampled_ball(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            d = int(rng.integers(1, 9))
            h = rng.normal(size=d)
            w = rng.normal(size=d)
            eps = rng.uniform(0.0, 2.0)
            star = (w + optimal_perturbation(h, eps)) @ h
            delta = rng.normal(size=(500, d))
            delta /= np.linalg.norm(delta, axis=1, keepdims=True)
            delta *= eps * rng.uniform(size=(500, 1)) ** (1.0 / d)
            assert star <= ((w + delta) @ h).min() + 1e-12


class TestAdvsoftProb:
    W2 = np.array([[1.0, 0.0], [0.0, 1.0]])
    h2 = np.array([1.0, 0.0])

    def test_eps_zero_is_softmax_hand_value(self):
        p = advsoft_prob(0, self.W2, self.h2, 0.0)
        assert p == pytest.approx(np.e / (np.e + 1.0), abs=1e-12)

    def test_hand_value_eps_half(self):
        p = advsoft_prob(0, self.W2, self.h2, 0.5)
        expect = np.exp(0.5) / (np.exp(0.5) + 1.0)
        assert p == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.622459, abs=1e-6)

    def test_degenerate_vocab(self):
        assert advsoft_prob(0, np.array([[1.0, 2.0]]), np.array([3.0, 4.0]), 5.0) == 1.0

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            advsoft_prob(2, self.W2, self.h2, 0.1)
        with pytest.raises(IndexError):
            advsoft_prob(-1, self.W2, self.h2, 0.1)
        with pytest.raises(ShapeError):
            advsoft_prob(0, self.W2, np.ones(3), 0.1)

    def test_eps_zero_reduction_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            V, d = int(rng.integers(2, 12)), int(rng.integers(1, 9))
            W = rng.normal(size=(V, d))
            h = rng.normal(size=d)
            i = int(rng.integers(V))
            assert advsoft_prob(i, W, h, 0.0) == pytest.approx(_softmax(W @ h)[i],
                                                               abs=1e-12)

    def test_strictly_decreasing_in_eps(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            V, d = int(rng.integers(2, 8)), int(rng.integers(1, 6))
            W = rng.normal(size=(V, d))
            h = rng.normal(size=d)
            h += 0.1 * np.sign(h) + 1e-3  # keep ||h|| > 0
            i = int(rng.integers(V))
            probs = [advsoft_prob(i, W, h, e) for e in np.linspace(0.0, 2.0, 9)]
            assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_bounded_by_softmax(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            W = rng.normal(size=(5, 3))
            h = rng.normal(size=3)
            i = int(rng.integers(5))
            assert advsoft_prob(i, W, h, 0.5) <= advsoft_prob(i, W, h, 0.0) + 1e-15

    def test_shift_stable(self):
        # adding c to every logit leaves the probability unchanged; realize the
        # shift by translating W along h so ||h|| is untouched
        rng = np.random.default_rng(5)
        W = rng.normal(size=(6, 4))
        h = rng.normal(size=4)
        for c in (1000.0, -1000.0):
            Wc = W + c * h / (h @ h)
            for eps in (0.0, 0.7):
                assert advsoft_prob(2, Wc, h, eps) == pytest.approx(
                    advsoft_prob(2, W, h, eps), abs=1e-12)


class TestBruteForce:
    def test_matches_closed_form_hand_case(self):
        p = brute_force_advsoft(0, TestAdvsoftProb.W2, TestAdvsoftProb.h2, 0.5,
                                10 ** 4, np.random.default_rng(6))
        assert p == pytest.approx(0.622459, abs=1e-6)
        closed = advsoft_prob(0, TestAdvsoftProb.W2, TestAdvsoftProb.h2, 0.5)
        assert abs(p - closed) < 1e-9

    def test_eps_zero_is_softmax(self):
        rng = np.random.default_rng(7)
        W = rng.normal(size=(4, 3))
        h = rng.normal(size=3)
        p = brute_force_advsoft(1, W, h, 0.0, 50, rng)
        assert p == pytest.approx(_softmax(W @ h)[1], abs=1e-12)

    def test_no_sampled_perturbation_beats_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            V, d = int(rng.integers(2, 11)), int(rng.integers(1, 9))
            W = rng.normal(size=(V, d))
            h = rng.normal(size=d)
            i = int(rng.integers(V))
            eps = float(rng.uniform(0.0, 1.5))
            closed = advsoft_prob(i, W, h, eps)
            brute = brute_force_advsoft(i, W, h, eps, 1000, rng)
            assert abs(brute - closed) < 1e-9

    def test_degenerate_vocab(self):
        assert brute_force_advsoft(0, np.ones((1, 2)), np.ones(2), 1.0, 10,
                                   np.random.default_rng(9)) == 1.0


class TestAdvNllLoss:
    def _setup(self, seed=0, V=5, d=3, L=2, B=2):
        params = init_params(LMConfig(vocab_size=V, embed_dim=d, init_range=0.4), seed)
        rng = np.random.default_rng(seed + 100)
        H = Tensor(rng.normal(size=(L * B, d)))
        targets = rng.integers(0, V, size=(L, B))
        return params, H, targets

    def test_off_equals_cross_entropy_bitwise(self):
        params, H, targets = self._setup()
        batch = adv_nll_loss(params, H, targets, AdvConfig())
        z = H.values @ params.embedding.values.T
        m = z.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
        ce = (lse - z[np.arange(4), targets.reshape(-1)]).sum()
        assert batch.total == ce
        assert float(batch.loss.values) == ce / 4  # the window mean
        assert not batch.epsilons.any()

    def test_fixed_zero_identical_to_off(self):
        params, H, targets = self._setup(seed=1)
        a = adv_nll_loss(params, H, targets, AdvConfig())
        b = adv_nll_loss(params, H, targets, AdvConfig("fixed", 0.0))
        assert a.total == b.total

    def test_hand_value_single_position(self):
        params, _, _ = self._setup(V=2, d=2)
        params.embedding.values[:] = np.array([[1.0, 0.0], [0.0, 1.0]])
        H = Tensor(np.array([[1.0, 0.0]]))
        batch = adv_nll_loss(params, H, np.array([[0]]), AdvConfig("fixed", 0.5))
        assert batch.total == pytest.approx(0.474077, abs=1e-6)
        assert batch.total == pytest.approx(-np.log(0.622459), abs=1e-6)

    def test_adaptive_epsilons_recorded(self):
        params, H, targets = self._setup(seed=2)
        alpha = 0.05
        batch = adv_nll_loss(params, H, targets, AdvConfig("adaptive", alpha))
        flat = targets.reshape(-1)
        expect = alpha * np.linalg.norm(params.embedding.values[flat], axis=1)
        np.testing.assert_allclose(batch.epsilons, expect, rtol=1e-15)

    def test_adv_loss_exceeds_plain_loss(self):
        params, H, targets = self._setup(seed=3)
        plain = adv_nll_loss(params, H, targets, AdvConfig()).total
        adv = adv_nll_loss(params, H, targets, AdvConfig("fixed", 0.5)).total
        assert adv > plain

    def test_stop_gradient_matches_constant_offset_oracle(self):
        params, H, targets = self._setup(seed=4)
        cfg = AdvConfig("fixed", 0.7)
        with Tape() as tape:
            batch = adv_nll_loss(params, H, targets, cfg)
            tape.backward(batch.loss)
        gH, gW = head_grads(H.values, params.embedding.values, targets.reshape(-1),
                            batch.epsilons * np.linalg.norm(H.values, axis=1))
        assert rel_error(H.grad, gH) < 1e-10
        assert rel_error(params.embedding.grad, gW) < 1e-10

    def test_adaptive_stop_gradient_on_embedding_norm(self):
        params, H, targets = self._setup(seed=5)
        cfg = AdvConfig("adaptive", 0.1)
        with Tape() as tape:
            batch = adv_nll_loss(params, H, targets, cfg)
            tape.backward(batch.loss)
        gH, gW = head_grads(H.values, params.embedding.values, targets.reshape(-1),
                            batch.epsilons * np.linalg.norm(H.values, axis=1))
        assert rel_error(H.grad, gH) < 1e-10
        assert rel_error(params.embedding.grad, gW) < 1e-10

    def test_differs_from_full_backprop_when_eps_positive(self):
        params, H, targets = self._setup(seed=6)
        cfg = AdvConfig("fixed", 0.7)
        with Tape() as tape:
            batch = adv_nll_loss(params, H, targets, cfg)
            tape.backward(batch.loss)

        def full_value():
            # recompute with the offset as a live function of H
            z = H.values @ params.embedding.values.T
            flat = targets.reshape(-1)
            z[np.arange(4), flat] -= 0.7 * np.linalg.norm(H.values, axis=1)
            m = z.max(axis=1, keepdims=True)
            lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
            return (lse - z[np.arange(4), flat]).mean()

        fd_full = numerical_grad(full_value, H.values)
        # the taped gradient ignores d(eps*||h||)/dh, the full one does not
        assert rel_error(H.grad, fd_full) > 1e-2

    def test_eps_zero_gradient_matches_softmax_fd(self):
        params, H, targets = self._setup(seed=7)
        with Tape() as tape:
            batch = adv_nll_loss(params, H, targets, AdvConfig())
            tape.backward(batch.loss)

        def value():
            z = H.values @ params.embedding.values.T
            m = z.max(axis=1, keepdims=True)
            lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
            return (lse - z[np.arange(4), targets.reshape(-1)]).mean()

        assert rel_error(H.grad, numerical_grad(value, H.values)) < 1e-4
        assert rel_error(params.embedding.grad,
                         numerical_grad(value, params.embedding.values)) < 1e-4

    def test_shape_mismatch_rejected(self):
        params, H, targets = self._setup()
        with pytest.raises(ShapeError):
            adv_nll_loss(params, H, targets[:1], AdvConfig())

    def test_target_out_of_range_rejected(self):
        # checked before the radius gathers the target rows, in every mode
        params, H, _ = self._setup()
        bad = np.array([[0, 1], [2, 9]])
        for adv in (AdvConfig(), AdvConfig.parse("adaptive:0.5")):
            with pytest.raises(IndexError, match="target id 9"):
                adv_nll_loss(params, H, bad, adv)
            with pytest.raises(IndexError, match="target id -1"):
                adv_nll_loss(params, H, np.array([[0, -1], [2, 3]]), adv)

    def test_float_targets_rejected(self):
        params, H, targets = self._setup()
        for adv in (AdvConfig(), AdvConfig.parse("adaptive:0.5")):
            with pytest.raises(IndexError, match="adv_nll_loss: target id dtype float64"):
                adv_nll_loss(params, H, targets + 0.5, adv)
            with pytest.raises(ShapeError):  # the shapes are checked first
                adv_nll_loss(params, H, (targets + 0.5)[:1], adv)

