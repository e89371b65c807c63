"""Training loop tests: optimizer, schedule, determinism, perplexity."""

import gc
import itertools
import math
import warnings
import weakref

import numpy as np
import pytest

import advlm.model
import advlm.train
from advlm.advsoft import AdvConfig
from advlm.autodiff import Tape
from advlm.corpus import batchify
from advlm.errors import ConfigError, NumericError
from advlm.model import LMConfig, init_params
from advlm.train import (
    LOG_HEADER,
    LogRow,
    TrainConfig,
    TrainLog,
    evaluate,
    noise_schedule,
    perplexity,
    sgd_step,
    train,
    train_epoch,
)

from reference import hand_lstm_step, hand_contexts, hand_nll


class TestTrainConfig:
    REQUIRED = dict(epochs=1, batch_size=2, bptt_len=4, input_noise_start=0.2)

    def test_defaults(self):
        cfg = TrainConfig(**self.REQUIRED)
        assert cfg.learning_rate == 4.0
        assert cfg.grad_clip == 0.25
        assert cfg.seed == 0
        assert cfg.adv == AdvConfig()
        assert cfg.input_noise_end == 0.0
        assert cfg.eval_interval == 1

    def test_rejects_bad_values(self):
        for bad in (dict(epochs=0), dict(batch_size=0), dict(bptt_len=0),
                    dict(grad_clip=0.0),
                    dict(input_noise_start=0.1, input_noise_end=0.2),
                    dict(eval_interval=0), dict(seed=-4),
                    dict(learning_rate=math.inf), dict(learning_rate=math.nan),
                    dict(grad_clip=math.nan), dict(input_noise_start=math.inf)):
            with pytest.raises(ConfigError):
                TrainConfig(**{**self.REQUIRED, **bad})


class TestNoiseSchedule:
    def test_endpoints(self):
        assert noise_schedule(0, 20, 0.2, 0.0) == 0.2
        assert noise_schedule(19, 20, 0.2, 0.0) == 0.0

    def test_midpoint(self):
        assert noise_schedule(5, 11, 0.2, 0.0) == pytest.approx(0.1)

    def test_single_epoch_uses_start(self):
        assert noise_schedule(0, 1, 0.2, 0.0) == 0.2


class TestSgdStep:
    def _params(self):
        return init_params(LMConfig(vocab_size=3, embed_dim=2), 0)

    def test_zero_gradients_leave_params_unchanged(self):
        params = self._params()
        before = {n: t.values.copy() for n, t in params.named_tensors()}
        for t in params.tensors():
            t.grad = np.zeros_like(t.values)
        sgd_step(params, 0.5, 0.25)
        for n, t in params.named_tensors():
            np.testing.assert_array_equal(t.values, before[n])
            assert t.grad is None

    def test_plain_step_without_clipping(self):
        params = self._params()
        before = params.embedding.values.copy()
        params.embedding.grad = np.full_like(params.embedding.values, 2.0)
        sgd_step(params, 0.1, math.inf)
        np.testing.assert_allclose(params.embedding.values, before - 0.2, rtol=1e-15)

    def test_clip_scales_whole_step(self):
        params = self._params()
        before = {n: t.values.copy() for n, t in params.named_tensors()}
        rng = np.random.default_rng(1)
        grads = {}
        for n, t in params.named_tensors():
            grads[n] = rng.normal(size=t.values.shape)
        norm = math.sqrt(sum((g * g).sum() for g in grads.values()))
        scale = 10.0 / norm
        for n, t in params.named_tensors():
            t.grad = grads[n] * scale  # global norm exactly 10
        sgd_step(params, 2.0, 1.0)
        for n, t in params.named_tensors():
            expect = before[n] - 2.0 * (grads[n] * scale) / 10.0
            np.testing.assert_allclose(t.values, expect, rtol=1e-12)

    def test_finite_step_is_bitwise_the_scaled_update(self):
        rng = np.random.default_rng(2)
        for lr, clip in ((2.0, 1.0), (0.1, math.inf)):
            params = self._params()
            before, grads = {}, {}
            for n, t in params.named_tensors():
                before[n] = t.values.copy()
                grads[n] = rng.normal(size=t.values.shape)
                t.grad = grads[n].copy()
            norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            scale = clip / norm if norm > clip else 1.0
            sgd_step(params, lr, clip)
            for n, t in params.named_tensors():
                np.testing.assert_array_equal(t.values, before[n] - lr * scale * grads[n])

    def test_overflowing_norm_aborts_without_mutation(self):
        # every entry is finite, but the squared norm overflows to inf; a
        # clip scale of clip/inf = 0 would silently skip the step
        params = self._params()
        before = {n: t.values.copy() for n, t in params.named_tensors()}
        for t in params.tensors():
            t.grad = np.zeros_like(t.values)
        params.embedding.grad[0, 0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow RuntimeWarning either
            with pytest.raises(NumericError):
                sgd_step(params, 0.1, 1.0)
        for n, t in params.named_tensors():
            np.testing.assert_array_equal(t.values, before[n])

    def test_non_finite_gradient_aborts_without_mutation(self):
        params = self._params()
        before = params.embedding.values.copy()
        params.embedding.grad = np.full_like(params.embedding.values, np.nan)
        with pytest.raises(NumericError):
            sgd_step(params, 0.1, 1.0)
        np.testing.assert_array_equal(params.embedding.values, before)


def _cycle_ids(vocab_size, n):
    return np.tile(np.arange(vocab_size), n // vocab_size + 1)[:n]


class TestTrainEpoch:
    def test_lr_zero_is_noop_and_matches_hand_loss(self):
        cfg = LMConfig(vocab_size=6, embed_dim=5)
        params = init_params(cfg, 3)
        before = {n: t.values.copy() for n, t in params.named_tensors()}
        stream = batchify(np.random.default_rng(0).integers(0, 6, 80), 2, 5)
        tcfg = TrainConfig(epochs=1, batch_size=2, bptt_len=5, learning_rate=0.0,
                           input_noise_start=0.0, adv=AdvConfig("fixed", 0.4))
        stats = train_epoch(params, stream, tcfg, 0)
        for n, t in params.named_tensors():
            np.testing.assert_array_equal(t.values, before[n])
        # with frozen params every window evaluates the initial model
        total = 0.0
        hs = cs = None
        for inputs, targets in stream.windows():
            contexts, hs, cs = hand_contexts(params, inputs, hs, cs)
            flat = targets.reshape(-1)
            total += hand_nll(params, contexts, flat, np.full(flat.size, 0.4))
        assert stats.nll == pytest.approx(total, abs=1e-9)
        assert stats.mean_eps == pytest.approx(0.4)

    def test_adversarial_loss_dominates_plain_loss(self):
        cfg = LMConfig(vocab_size=6, embed_dim=5)
        stream = batchify(np.random.default_rng(1).integers(0, 6, 80), 2, 5)
        base = dict(epochs=1, batch_size=2, bptt_len=5, learning_rate=0.0,
                    input_noise_start=0.0)
        off = train_epoch(init_params(cfg, 3), stream,
                          TrainConfig(**base, adv=AdvConfig()), 0)
        adv = train_epoch(init_params(cfg, 3), stream,
                          TrainConfig(**base, adv=AdvConfig("fixed", 0.5)), 0)
        assert adv.nll > off.nll

    def test_bitwise_determinism_with_noise(self):
        cfg = LMConfig(vocab_size=8, embed_dim=6)
        ids = np.random.default_rng(2).integers(0, 8, 200)

        def run():
            params = init_params(cfg, 9)
            stream = batchify(ids, 2, 6)
            tcfg = TrainConfig(epochs=3, batch_size=2, bptt_len=6, learning_rate=0.5,
                               seed=11, input_noise_start=0.2)
            log = train(params, stream, stream, tcfg)
            return params, log

        p1, log1 = run()
        p2, log2 = run()
        for (n1, t1), (_, t2) in zip(p1.named_tensors(), p2.named_tensors()):
            np.testing.assert_array_equal(t1.values, t2.values, err_msg=n1)
        for r1, r2 in zip(log1.rows, log2.rows):
            assert (r1.epoch, r1.train_ppl, r1.valid_ppl, r1.noise_std, r1.mean_eps) \
                == (r2.epoch, r2.train_ppl, r2.valid_ppl, r2.noise_std, r2.mean_eps)

    def test_learns_deterministic_bigram_rule(self):
        V = 6
        train_ids = _cycle_ids(V, 1000)
        valid_ids = _cycle_ids(V, 120)
        cfg = LMConfig(vocab_size=V, embed_dim=16)
        params = init_params(cfg, 0)
        tcfg = TrainConfig(epochs=20, batch_size=4, bptt_len=8, learning_rate=2.0,
                           input_noise_start=0.0, seed=0)
        train(params, batchify(train_ids, 4, 8), None, tcfg)
        ppl = evaluate(params, batchify(valid_ids, 4, 8))
        assert ppl < 1.5

    def test_numeric_error_names_window(self):
        # saturated gates push every h component to ~0.76, so the logits
        # h @ W.T overflow to inf and the loss goes NaN in the first window
        cfg = LMConfig(vocab_size=4, embed_dim=3, init_range=0.0)
        params = init_params(cfg, 0)
        params.layers[0].bias.values[:] = 10.0
        params.embedding.values[:] = 1e308
        stream = batchify(np.arange(40) % 4, 2, 4)
        tcfg = TrainConfig(epochs=1, batch_size=2, bptt_len=4,
                           input_noise_start=0.0)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match="window 0"):
                train_epoch(params, stream, tcfg, 0)

    @pytest.mark.parametrize("layers,noise,records", [
        (1, 0.0, 3),  # gather_rows, lstm_layer, nll_rows
        (1, 0.2, 3),  # the input noise is added inside gather_rows
        (2, 0.0, 4),  # + one lstm_layer for the second layer
    ], ids=["one_layer", "input_noise", "two_layers"])
    def test_window_tape_records(self, monkeypatch, layers, noise, records):
        params = init_params(LMConfig(vocab_size=6, embed_dim=5, hidden_dim=4,
                                      num_layers=layers), 3)
        seen = []

        class CountingTape(Tape):
            def backward(self, loss):
                super().backward(loss)
                # the leaves: record inputs that no record produced
                outs = {id(out) for out, _, _ in self.records}
                leaves = {id(t) for _, inputs, _ in self.records
                          for t in inputs if id(t) not in outs}
                seen.append((len(self.records),
                             [None if t.grad is None else t.grad.shape
                              for t in params.tensors()],
                             leaves))

        monkeypatch.setattr(advlm.train, "Tape", CountingTape)
        stream = batchify(np.random.default_rng(0).integers(0, 6, 80), 2, 5)
        tcfg = TrainConfig(epochs=1, batch_size=2, bptt_len=5,
                           input_noise_start=noise, adv=AdvConfig("fixed", 0.4))
        train_epoch(params, stream, tcfg, 0)
        shapes = [t.shape for t in params.tensors()]
        leaves = {id(t) for t in params.tensors()}
        assert seen == [(records, shapes, leaves)] * stream.num_windows

    def test_window_grads_share_no_memory(self, monkeypatch):
        # each leaf adopts its summed adjoint as .grad, and sgd_step scales
        # .grad in place, so no two gradients may be one buffer
        params = init_params(LMConfig(vocab_size=6, embed_dim=5, hidden_dim=4,
                                      num_layers=2), 3)
        seen = []

        class GradTape(Tape):
            def backward(self, loss):
                super().backward(loss)
                seen.append([t.grad for t in params.tensors()] +
                            [t.values for t in params.tensors()])

        monkeypatch.setattr(advlm.train, "Tape", GradTape)
        stream = batchify(np.random.default_rng(0).integers(0, 6, 80), 2, 5)
        tcfg = TrainConfig(epochs=1, batch_size=2, bptt_len=5,
                           input_noise_start=0.2, adv=AdvConfig("fixed", 0.4))
        train_epoch(params, stream, tcfg, 0)
        assert len(seen) == stream.num_windows
        for arrays in seen:
            for a, b in itertools.combinations(arrays, 2):
                assert not np.shares_memory(a, b)

    def test_each_window_tape_freed_when_next_opens(self, monkeypatch):
        refs = []
        alive_before = []

        class RecordingTape(Tape):
            def __enter__(self):
                alive_before.append(sum(r() is not None for r in refs))
                refs.append(weakref.ref(self))
                return super().__enter__()

        monkeypatch.setattr(advlm.train, "Tape", RecordingTape)
        params = init_params(LMConfig(vocab_size=6, embed_dim=5), 3)
        stream = batchify(np.random.default_rng(0).integers(0, 6, 80), 2, 5)
        tcfg = TrainConfig(epochs=1, batch_size=2, bptt_len=5,
                           input_noise_start=0.2, adv=AdvConfig("fixed", 0.4))
        gc.disable()
        try:
            train_epoch(params, stream, tcfg, 0)
            assert len(refs) == stream.num_windows > 2
            assert max(alive_before) <= 1
            assert all(r() is None for r in refs)
        finally:
            gc.enable()


class TestEvaluate:
    def test_non_finite_perplexity_raises(self):
        assert perplexity(2 * math.log(3.0), 2, "x") == pytest.approx(3.0, rel=1e-15)
        for nll in (710.0, math.inf, math.nan):  # exp(710) overflows
            with pytest.raises(NumericError, match="validation perplexity"):
                perplexity(nll, 1, "validation")

    def test_uniform_model_gives_vocab_size(self):
        cfg = LMConfig(vocab_size=7, embed_dim=4, init_range=0.0)
        params = init_params(cfg, 0)
        stream = batchify(np.random.default_rng(3).integers(0, 7, 100), 2, 5)
        assert evaluate(params, stream) == pytest.approx(7.0, rel=1e-9)

    def test_near_one_hot_predictor_gives_one(self):
        # saturate the gates so h -> 1 regardless of input, then separate the
        # constant target's embedding from the rest by a huge margin
        cfg = LMConfig(vocab_size=3, embed_dim=4, init_range=0.0)
        params = init_params(cfg, 0)
        params.layers[0].bias.values[:] = 10.0
        params.embedding.values[2] = 50.0
        params.embedding.values[:2] = -50.0
        stream = batchify(np.full(40, 2), 2, 4)
        assert evaluate(params, stream) == pytest.approx(1.0, abs=1e-9)

    def test_matches_independent_token_accumulation(self):
        cfg = LMConfig(vocab_size=9, embed_dim=5, num_layers=2, hidden_dim=6)
        params = init_params(cfg, 5)
        tok = np.random.default_rng(4).integers(0, 9, 100)
        B, L = 2, 7
        ppl = evaluate(params, batchify(tok, B, L))
        steps = len(tok) // B
        used = ((steps - 1) // L) * L
        total, count = 0.0, 0
        for b in range(B):
            col = tok[b * steps:(b + 1) * steps]
            hs = [np.zeros((1, H)) for H in cfg.layer_sizes]
            cs = [np.zeros((1, H)) for H in cfg.layer_sizes]
            for t in range(used):
                x = params.embedding.values[col[t]][None, :]
                for k, layer in enumerate(params.layers):
                    hs[k], cs[k] = hand_lstm_step(
                        layer.w_x.values, layer.w_h.values, layer.bias.values,
                        x, hs[k], cs[k])
                    x = hs[k]
                z = (x @ params.embedding.values.T)[0]
                m = z.max()
                total += m + np.log(np.exp(z - m).sum()) - z[col[t + 1]]
                count += 1
        assert ppl == pytest.approx(math.exp(total / count), abs=1e-9)

    def test_empty_stream_rejected(self):
        with pytest.raises(ConfigError, match="one window"):
            batchify(np.arange(8) % 4, 2, 10)  # 4 steps < L+1


class TestTrain:
    def _setup(self):
        params = init_params(LMConfig(vocab_size=5, embed_dim=4), 1)
        ids = np.random.default_rng(5).integers(0, 5, 120)
        return params, ids, [t.values.copy() for t in params.tensors()]

    def test_stream_sizes_must_match_config(self):
        params, ids, before = self._setup()
        stream = batchify(ids, 2, 5)
        for sizes in (dict(batch_size=3, bptt_len=5), dict(batch_size=2, bptt_len=4)):
            with pytest.raises(ConfigError, match="training stream"):
                train(params, stream, None,
                      TrainConfig(epochs=1, input_noise_start=0.2, **sizes))
        for t, v in zip(params.tensors(), before):
            np.testing.assert_array_equal(t.values, v)


    def test_log_reports_the_noise_training_drew(self, monkeypatch):
        params, ids, _ = self._setup()
        drawn, per_epoch = [], []

        def recording_forward(params, inputs, state, noise):
            drawn.append(noise)
            return advlm.model.forward(params, inputs, state, noise)

        def epoch_done(log):
            per_epoch.append(list(drawn))
            drawn.clear()

        monkeypatch.setattr(advlm.train, "forward", recording_forward)
        cfg = TrainConfig(epochs=3, batch_size=2, bptt_len=5, learning_rate=0.0,
                          input_noise_start=0.3, input_noise_end=0.1, seed=7)
        stream = batchify(ids, 2, 5)
        log = train(params, stream, None, cfg, progress=epoch_done)
        for e, (row, seen) in enumerate(zip(log.rows, per_epoch, strict=True)):
            std = noise_schedule(e, 3, 0.3, 0.1)
            assert row.noise_std == std
            # one draw per window, in row order, from the epoch's own stream
            rng = np.random.default_rng([7, e])
            assert len(seen) == stream.num_windows
            for noise in seen:
                np.testing.assert_array_equal(noise, rng.normal(0.0, std, size=(10, 4)))


class TestTrainLog:
    def _make_log(self, tmp_path, eval_interval):
        cfg = LMConfig(vocab_size=5, embed_dim=4)
        params = init_params(cfg, 1)
        ids = np.random.default_rng(5).integers(0, 5, 120)
        stream = batchify(ids, 2, 5)
        tcfg = TrainConfig(epochs=5, batch_size=2, bptt_len=5, learning_rate=0.5,
                           input_noise_start=0.0, eval_interval=eval_interval)
        log = train(params, stream, stream, tcfg)
        path = tmp_path / "log.csv"
        log.save(str(path))
        return log, path

    def test_save_load_roundtrip(self, tmp_path):
        log, path = self._make_log(tmp_path, 1)
        loaded = TrainLog.load(str(path))
        assert len(loaded.rows) == 5
        for a, b in zip(log.rows, loaded.rows):
            assert a.epoch == b.epoch
            assert b.train_ppl == pytest.approx(a.train_ppl, rel=1e-8)
            assert b.valid_ppl == pytest.approx(a.valid_ppl, rel=1e-8)

    def test_eval_interval_skips_with_nan(self, tmp_path):
        log, _ = self._make_log(tmp_path, 3)
        flags = [math.isnan(r.valid_ppl) for r in log.rows]
        # epochs 0 and 3 evaluated on schedule, 4 because it is last
        assert flags == [False, True, True, False, False]

    def test_format_pinned(self):
        # the columns and their formats come from LogRow's fields: pin the text
        assert LOG_HEADER == "epoch,train_ppl,valid_ppl,wall_s,noise_std,mean_eps"
        assert LogRow(3, 12.5, math.nan, 0.25, 0.1, 1 / 3).as_csv() == \
            "3,12.5,nan,0.25,0.1,0.333333333"

    def test_wrong_field_count_names_the_columns(self, tmp_path):
        for k, row in enumerate(["0,1.5,2.5", "0,1.5,2.5,0.1,0.0,0.1,7"]):
            p = tmp_path / f"bad{k}.csv"
            p.write_text(LOG_HEADER + "\n" + row + "\n", encoding="utf-8")
            with pytest.raises(ConfigError, match=f"line 2: expected numbers for {LOG_HEADER}"):
                TrainLog.load(str(p))

    def test_header_mismatch_rejected(self, tmp_path):
        bad = ["epoch,stuff\n",
               LOG_HEADER + "\n0,1.5,2.5\n",  # too few fields
               LOG_HEADER + "\n0,1.5,2.5,0.1,0.0,x\n",  # not a number
               LOG_HEADER + "\n0,1.5,2.5,0.1,0.0,0.1\xe9\n"]  # written as latin-1
        for k, text in enumerate(bad):
            p = tmp_path / f"bad{k}.csv"
            p.write_bytes(text.encode("latin-1"))
            with pytest.raises(ConfigError):
                TrainLog.load(str(p))
