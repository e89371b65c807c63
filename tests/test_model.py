"""LSTM language model tests: gate oracle, tying, BPTT window boundaries, checkpoints."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import advlm.model
from advlm.advsoft import AdvConfig, adv_nll_loss
from advlm.autodiff import Tape
from advlm.corpus import batchify
from advlm.errors import CheckpointError, ConfigError, ShapeError
from advlm.model import (
    LMConfig,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    stream_contexts,
    zero_state,
)
from advlm.verify import numerical_grad, rel_error

from reference import hand_lstm_step as _hand_lstm_step
from reference import mle_loss_value as _mle_loss_value
from support import peak_bytes, read_new_file


def _mle_loss_taped(params, input_ids, targets):
    contexts, _ = forward(params, input_ids, zero_state(params.config, input_ids.shape[1]))
    return adv_nll_loss(params, contexts, targets, AdvConfig()).loss


def _mle_mean_value(params, input_ids, targets):
    return _mle_loss_value(params, input_ids, targets) / targets.size


class TestConfig:
    def test_hidden_defaults_to_embed(self):
        cfg = LMConfig(vocab_size=10, embed_dim=6)
        assert cfg.hidden_dim == 6
        assert cfg.layer_sizes == [6]

    def test_final_layer_pinned_to_embed_dim(self):
        cfg = LMConfig(vocab_size=10, embed_dim=6, hidden_dim=9, num_layers=3)
        assert cfg.layer_sizes == [9, 9, 6]

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            LMConfig(vocab_size=0, embed_dim=4)
        for bad in (-0.1, float("inf"), float("nan")):
            with pytest.raises(ConfigError):
                LMConfig(vocab_size=4, embed_dim=4, init_range=bad)


class TestInit:
    def test_same_seed_bitwise_identical(self):
        cfg = LMConfig(vocab_size=11, embed_dim=5, num_layers=2, hidden_dim=7)
        a, b = init_params(cfg, 42), init_params(cfg, 42)
        for (na, ta), (nb, tb) in zip(a.named_tensors(), b.named_tensors()):
            assert na == nb
            np.testing.assert_array_equal(ta.values, tb.values)

    def test_zero_range_gives_zero_params(self):
        cfg = LMConfig(vocab_size=5, embed_dim=3, init_range=0.0)
        params = init_params(cfg, 0)
        for _, t in params.named_tensors():
            assert not t.values.any()

    def test_uniform_moments(self):
        cfg = LMConfig(vocab_size=350, embed_dim=100, init_range=0.1)
        params = init_params(cfg, 123)
        flat = np.concatenate([t.values.ravel() for t in params.tensors()])
        assert flat.size >= 10 ** 5
        sigma_mean = (0.2 / np.sqrt(12.0)) / np.sqrt(flat.size)
        assert abs(flat.mean()) < 3 * sigma_mean
        assert abs(flat).max() <= 0.1


class TestForward:
    def test_zero_params_give_zero_contexts(self):
        cfg = LMConfig(vocab_size=6, embed_dim=4, init_range=0.0)
        params = init_params(cfg, 0)
        ids = np.array([[0, 1], [2, 3], [4, 5]])
        contexts, state = forward(params, ids, zero_state(cfg, 2))
        np.testing.assert_array_equal(contexts.values, np.zeros((6, 4)))
        h, c = state[0]
        assert not h.any() and not c.any()

    def test_gate_oracle_two_unit_cell(self):
        cfg = LMConfig(vocab_size=3, embed_dim=2, init_range=0.5)
        params = init_params(cfg, 9)
        h0 = np.array([[0.3, -0.2]])
        c0 = np.array([[0.1, 0.4]])
        state = [(h0.copy(), c0.copy())]
        contexts, new_state = forward(params, np.array([[1]]), state)
        layer = params.layers[0]
        x = params.embedding.values[[1]]
        h_ref, c_ref = _hand_lstm_step(layer.w_x.values, layer.w_h.values,
                                       layer.bias.values, x, h0, c0)
        assert np.abs(contexts.values - h_ref).max() < 1e-12
        assert np.abs(new_state[0][1] - c_ref).max() < 1e-12

    def test_multi_step_multi_layer_matches_hand_loop(self):
        cfg = LMConfig(vocab_size=7, embed_dim=3, hidden_dim=5, num_layers=2)
        params = init_params(cfg, 4)
        ids = np.array([[1, 2, 3], [4, 5, 6], [0, 1, 2], [3, 4, 5]])
        contexts, _ = forward(params, ids, zero_state(cfg, 3))
        hs = [np.zeros((3, H)) for H in cfg.layer_sizes]
        cs = [np.zeros((3, H)) for H in cfg.layer_sizes]
        rows = []
        for t in range(4):
            x = params.embedding.values[ids[t]]
            for k, layer in enumerate(params.layers):
                hs[k], cs[k] = _hand_lstm_step(layer.w_x.values, layer.w_h.values,
                                               layer.bias.values, x, hs[k], cs[k])
                x = hs[k]
            rows.append(x)
        np.testing.assert_allclose(contexts.values, np.vstack(rows), atol=1e-12)

    def test_row_layout_is_time_major(self):
        cfg = LMConfig(vocab_size=5, embed_dim=3)
        params = init_params(cfg, 1)
        ids = np.array([[0, 1], [2, 3]])
        contexts, _ = forward(params, ids, zero_state(cfg, 2))
        # row t*B+b equals a single-column run over column b
        for b in range(2):
            col, _ = forward(params, ids[:, b:b + 1], zero_state(cfg, 1))
            for t in range(2):
                np.testing.assert_allclose(contexts.values[t * 2 + b], col.values[t],
                                           atol=1e-14)

    def test_deterministic_without_noise(self):
        cfg = LMConfig(vocab_size=5, embed_dim=3)
        params = init_params(cfg, 1)
        ids = np.array([[0, 1], [2, 3]])
        a, _ = forward(params, ids, zero_state(cfg, 2))
        b, _ = forward(params, ids, zero_state(cfg, 2))
        np.testing.assert_array_equal(a.values, b.values)

    def test_noise_deterministic_given_seed_and_leaves_params_alone(self):
        cfg = LMConfig(vocab_size=5, embed_dim=3)
        params = init_params(cfg, 1)
        before = params.embedding.values.copy()
        ids = np.array([[0, 1], [2, 3]])
        noise = np.random.default_rng(5).normal(0.0, 0.2, size=(4, 3))
        kept = noise.copy()
        a, _ = forward(params, ids, zero_state(cfg, 2), noise)
        b, _ = forward(params, ids, zero_state(cfg, 2), noise)
        clean, _ = forward(params, ids, zero_state(cfg, 2))
        np.testing.assert_array_equal(a.values, b.values)
        assert np.abs(a.values - clean.values).max() > 0
        np.testing.assert_array_equal(params.embedding.values, before)
        np.testing.assert_array_equal(noise, kept)

    def test_noise_stream_matches_per_step_draws(self):
        # one [(L*B) x d] draw per window equals one [B x d] draw per step
        cfg = LMConfig(vocab_size=7, embed_dim=3, hidden_dim=4, num_layers=2)
        params = init_params(cfg, 2)
        ids = np.array([[1, 2], [3, 4], [5, 6]])
        noise = np.random.default_rng(8).normal(0.0, 0.3, size=(6, 3))
        contexts, _ = forward(params, ids, zero_state(cfg, 2), noise)
        rng = np.random.default_rng(8)
        hs = [np.zeros((2, H)) for H in cfg.layer_sizes]
        cs = [np.zeros((2, H)) for H in cfg.layer_sizes]
        for t in range(3):
            x = params.embedding.values[ids[t]] + rng.normal(0.0, 0.3, size=(2, 3))
            for k, layer in enumerate(params.layers):
                hs[k], cs[k] = _hand_lstm_step(layer.w_x.values, layer.w_h.values,
                                               layer.bias.values, x, hs[k], cs[k])
                x = hs[k]
            np.testing.assert_allclose(contexts.values[2 * t:2 * t + 2], x, atol=1e-12)

    def test_shape_errors(self):
        cfg = LMConfig(vocab_size=5, embed_dim=3)
        params = init_params(cfg, 1)
        with pytest.raises(ShapeError):
            forward(params, np.array([0, 1]), zero_state(cfg, 2))
        with pytest.raises(ShapeError):
            forward(params, np.array([[0, 1]]), zero_state(cfg, 3))
        two_layers = LMConfig(vocab_size=5, embed_dim=3, num_layers=2)
        with pytest.raises(ShapeError):
            forward(params, np.array([[0, 1]]), zero_state(two_layers, 2))

    def test_stream_contexts_carry_the_state_across_windows(self):
        cfg = LMConfig(vocab_size=5, embed_dim=3, hidden_dim=4, num_layers=2)
        params = init_params(cfg, 1)
        stream = batchify(np.arange(22) % 5, 2, 3)  # 11 steps: 3 windows
        got = list(stream_contexts(params, stream))
        assert len(got) == stream.num_windows == 3
        state = zero_state(cfg, 2)
        for (contexts, targets), (inputs, want_targets) in zip(got, stream.windows()):
            want, state = forward(params, inputs, state)
            np.testing.assert_array_equal(contexts.values, want.values)
            np.testing.assert_array_equal(targets, want_targets)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_stream_contexts_equal_taped_windows(self, layers):
        # the untaped pass keeps no gate history, and computes the same bits
        cfg = LMConfig(vocab_size=5, embed_dim=3, hidden_dim=4, num_layers=layers)
        params = init_params(cfg, 2)
        stream = batchify(np.arange(26) % 5, 2, 4)  # 13 steps: 3 windows
        got = list(stream_contexts(params, stream))
        state = zero_state(cfg, 2)
        for (contexts, _), (inputs, _) in zip(got, stream.windows(), strict=True):
            with Tape():
                want, state = forward(params, inputs, state)
            assert np.array_equal(contexts.values, want.values)

    def test_out_of_range_id_rejected(self):
        cfg = LMConfig(vocab_size=5, embed_dim=3)
        params = init_params(cfg, 1)
        with pytest.raises(IndexError):
            forward(params, np.array([[7]]), zero_state(cfg, 1))


class TestWeightTying:
    def test_perturbing_embedding_moves_both_sides(self):
        cfg = LMConfig(vocab_size=6, embed_dim=4)
        params = init_params(cfg, 2)
        ids = np.array([[2, 3]])
        ctx0, _ = forward(params, ids, zero_state(cfg, 2))
        logits0 = ctx0.values @ params.embedding.values.T
        params.embedding.values[2] += 0.25
        ctx1, _ = forward(params, ids, zero_state(cfg, 2))
        logits1 = ctx1.values @ params.embedding.values.T
        # input side: only the batch element that looked up id 2 moves
        assert np.abs(ctx1.values[0, :] - ctx0.values[0, :]).max() > 0
        np.testing.assert_array_equal(ctx1.values[1, :], ctx0.values[1, :])
        # output side: the logit column for id 2 moves for the untouched context
        assert abs(logits1[1, 2] - logits0[1, 2]) > 0

    def test_gradient_sums_input_and_output_contributions(self):
        cfg = LMConfig(vocab_size=8, embed_dim=4)
        params = init_params(cfg, 3)
        ids = np.array([[1, 2], [3, 4], [5, 6]])
        targets = np.array([[3, 4], [5, 6], [7, 0]])
        with Tape() as tape:
            loss = _mle_loss_taped(params, ids, targets)
            tape.backward(loss)
        g = params.embedding.grad.copy()
        num = numerical_grad(lambda: _mle_mean_value(params, ids, targets),
                             params.embedding.values)
        assert rel_error(g, num) < 1e-3


class TestFullModelGradient:
    def test_finite_difference_all_params(self):
        cfg = LMConfig(vocab_size=8, embed_dim=4, init_range=0.2)
        params = init_params(cfg, 7)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 8, size=(3, 2))
        targets = rng.integers(0, 8, size=(3, 2))
        with Tape() as tape:
            loss = _mle_loss_taped(params, ids, targets)
            tape.backward(loss)
        np.testing.assert_allclose(float(loss.values), _mle_mean_value(params, ids, targets),
                                   rtol=1e-12)
        for name, t in params.named_tensors():
            num = numerical_grad(lambda: _mle_mean_value(params, ids, targets), t.values)
            err = rel_error(t.grad, num)
            assert err < 1e-3, f"{name}: rel err {err}"

    def test_finite_difference_two_layers(self):
        cfg = LMConfig(vocab_size=6, embed_dim=3, hidden_dim=4, num_layers=2,
                       init_range=0.3)
        params = init_params(cfg, 11)
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 6, size=(2, 2))
        targets = rng.integers(0, 6, size=(2, 2))
        with Tape() as tape:
            loss = _mle_loss_taped(params, ids, targets)
            tape.backward(loss)
        for name, t in params.named_tensors():
            num = numerical_grad(lambda: _mle_mean_value(params, ids, targets), t.values)
            err = rel_error(t.grad, num)
            assert err < 1e-3, f"{name}: rel err {err}"


class TestDetachState:
    def test_no_grad_leaks_across_boundary(self):
        cfg = LMConfig(vocab_size=5, embed_dim=3)
        params = init_params(cfg, 1)
        ids1 = np.array([[0, 1], [2, 3]])
        ids2 = np.array([[4, 0], [1, 2]])
        targets2 = np.array([[1, 2], [3, 4]])
        with Tape() as tape:
            _, state = forward(params, ids1, zero_state(cfg, 2))
            contexts, _ = forward(params, ids2, state)
            batch = adv_nll_loss(params, contexts, targets2, AdvConfig())
            tape.backward(batch.loss)
        grads = {name: t.grad.copy() for name, t in params.named_tensors()}

        # constant-injection reference: window 2 only, state values as input
        ref = init_params(cfg, 1)
        injected = [(h.copy(), c.copy()) for h, c in state]
        with Tape() as tape:
            contexts, _ = forward(ref, ids2, injected)
            batch = adv_nll_loss(ref, contexts, targets2, AdvConfig())
            tape.backward(batch.loss)
        for name, t in ref.named_tensors():
            np.testing.assert_array_equal(grads[name], t.grad, err_msg=name)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        cfg = LMConfig(vocab_size=9, embed_dim=4, hidden_dim=6, num_layers=2,
                       init_range=0.07)
        params = init_params(cfg, 21)
        p = tmp_path / "model.bin"
        save_checkpoint(params, str(p))
        loaded = load_checkpoint(str(p))
        assert loaded.config == cfg
        for (na, ta), (nb, tb) in zip(params.named_tensors(), loaded.named_tensors()):
            assert na == nb
            np.testing.assert_array_equal(ta.values, tb.values)

    def test_header_and_names_pinned(self, tmp_path):
        # the header comes from LMConfig's fields and the names from
        # _expected_shapes: pin both as literals
        cfg = LMConfig(vocab_size=9, embed_dim=4, hidden_dim=6, num_layers=2,
                       init_range=0.07)
        params = init_params(cfg, 21)
        p = tmp_path / "model.bin"
        save_checkpoint(params, str(p))
        assert p.read_bytes()[:48] == (b"ADVLM001" + struct.pack("<4q", 9, 4, 6, 2)
                                       + struct.pack("<d", 0.07))
        assert [(name, t.shape) for name, t in params.named_tensors()] == [
            ("embedding", (9, 4)),
            ("layer0.w_x", (4, 24)), ("layer0.w_h", (6, 24)), ("layer0.bias", (24,)),
            ("layer1.w_x", (6, 16)), ("layer1.w_h", (4, 16)), ("layer1.bias", (16,))]

    def test_save_into_missing_directory_rejected(self, tmp_path):
        params = init_params(LMConfig(vocab_size=5, embed_dim=3), 1)
        with pytest.raises(CheckpointError, match="cannot write checkpoint"):
            save_checkpoint(params, str(tmp_path / "absent" / "model.bin"))

    def test_failed_write_keeps_the_previous_file_and_no_tmp(self, tmp_path,
                                                            monkeypatch):
        p = tmp_path / "model.bin"
        save_checkpoint(init_params(LMConfig(vocab_size=5, embed_dim=3), 1), str(p))
        before = p.read_bytes()
        real_write, written = advlm.model._write_tensor, []

        def fail_after_the_first(fh, arr):
            if written:
                raise OSError(28, "No space left on device")
            real_write(fh, arr)
            written.append(arr)

        monkeypatch.setattr(advlm.model, "_write_tensor", fail_after_the_first)
        with pytest.raises(CheckpointError, match="No space left"):
            save_checkpoint(init_params(LMConfig(vocab_size=5, embed_dim=3), 2), str(p))
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["model.bin"]

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(p))

    def test_truncation_names_section(self, tmp_path):
        cfg = LMConfig(vocab_size=5, embed_dim=3)
        params = init_params(cfg, 1)
        p = tmp_path / "model.bin"
        save_checkpoint(params, str(p))
        blob = p.read_bytes()
        p.write_bytes(blob[:len(blob) - 9])
        with pytest.raises(CheckpointError, match="layer0"):
            load_checkpoint(str(p))

    def test_trailing_garbage_rejected(self, tmp_path):
        cfg = LMConfig(vocab_size=5, embed_dim=3)
        params = init_params(cfg, 1)
        p = tmp_path / "model.bin"
        save_checkpoint(params, str(p))
        p.write_bytes(p.read_bytes() + b"x")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "absent.bin"))

    def test_load_holds_each_tensor_once(self, tmp_path):
        # the embedding is most of the bytes; a copy made while loading it
        # would push the peak near twice what the parameters hold
        p = tmp_path / "model.bin"
        save_checkpoint(init_params(LMConfig(vocab_size=2000, embed_dim=32), 0), str(p))
        params, peak = peak_bytes(lambda: load_checkpoint(str(p)))
        held = sum(t.values.nbytes for t in params.tensors())
        assert peak < 1.2 * held

    @pytest.fixture(scope="class")
    def valid_bytes(self, tmp_path_factory):
        p = tmp_path_factory.mktemp("checkpoint") / "model.bin"
        cfg = LMConfig(vocab_size=5, embed_dim=3, hidden_dim=4, num_layers=2)
        save_checkpoint(init_params(cfg, 1), str(p))
        return p.read_bytes()

    @settings(derandomize=True, max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_bytes_load_or_raise_checkpoint_error(self, tmp_path, valid_bytes, data):
        # truncated or extended files must fail as CheckpointError; a bit
        # flip may still load, but nothing may raise another exception
        blob = bytearray(valid_bytes)
        kind = data.draw(st.sampled_from(["truncate", "flip", "append"]))
        if kind == "truncate":
            del blob[data.draw(st.integers(0, len(blob) - 1)):]
        elif kind == "append":
            blob += data.draw(st.binary(min_size=1, max_size=64))
        else:
            bit = data.draw(st.integers(0, 8 * len(blob) - 1))
            blob[bit // 8] ^= 1 << (bit % 8)
        loaded = read_new_file(tmp_path, bytes(blob), load_checkpoint, CheckpointError)
        assert kind == "flip" or loaded is None
