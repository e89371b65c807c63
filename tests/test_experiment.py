"""A/B experiment plumbing tests: summaries, orderings, the data split and
the end of one run."""

import numpy as np
import pytest

from advlm import analysis, experiment
from advlm.advsoft import AdvConfig
from advlm.corpus import read_tokens
from advlm.errors import ConfigError, NumericError
from advlm.experiment import (
    ADV_ALPHA,
    BASELINE_ALPHA,
    HIGH_ALPHA,
    ExperimentResult,
    RunResult,
    bundled_corpus_path,
    load_split,
    run_one,
)
from advlm.model import LMConfig
from advlm.train import LogRow, TrainConfig, TrainLog


def run(alpha, seed, train_ppl, valid_ppl, nn, ent):
    return RunResult(alpha, seed, train_ppl, valid_ppl, nn, ent, wall_s=1.0)


def three_by_three(base, adv, high):
    runs = []
    for alpha, rows in ((BASELINE_ALPHA, base), (ADV_ALPHA, adv),
                        (HIGH_ALPHA, high)):
        for seed, row in enumerate(rows, start=1):
            runs.append(run(alpha, seed, *row))
    return ExperimentResult(runs)


class TestSummaries:
    def test_medians_are_per_field(self):
        result = three_by_three(
            base=[(10.0, 15.0, 3.0, 3.90), (11.0, 17.0, 3.2, 3.94),
                  (12.0, 16.0, 3.1, 3.92)],
            adv=[(11.0, 15.0, 3.3, 3.95), (12.0, 14.0, 3.4, 3.93),
                 (13.0, 16.0, 3.5, 3.91)],
            high=[(20.0, 18.0, 3.0, 3.9), (21.0, 19.0, 3.0, 3.9),
                  (22.0, 20.0, 3.0, 3.9)])
        base = result.summary(BASELINE_ALPHA)
        np.testing.assert_allclose(
            [base.train_ppl, base.valid_ppl, base.nn_distance,
             base.sv_entropy], [11.0, 16.0, 3.1, 3.92])
        # gap median is the median of per-run gaps, not a gap of medians
        np.testing.assert_allclose(base.gap, 5.0)

    def test_gap_property(self):
        assert run(0.0, 1, 10.0, 14.5, 3.0, 3.9).gap == 4.5

    def test_unknown_alpha_rejected(self):
        result = three_by_three(base=[(1, 1, 1, 1)] * 3,
                                adv=[(1, 1, 1, 1)] * 3,
                                high=[(1, 1, 1, 1)] * 3)
        with pytest.raises(ConfigError):
            result.arm(0.123)

    def test_line_formats(self):
        r = run(ADV_ALPHA, 2, 11.5, 15.25, 3.1234, 3.94)
        assert "alpha=0.005 seed=2" in r.line()
        assert "gap=3.750" in r.line()


class TestOrderings:
    def test_all_pass(self):
        result = three_by_three(
            base=[(10.0, 16.0, 3.0, 3.90)] * 3,
            adv=[(11.0, 15.5, 3.2, 3.95)] * 3,
            high=[(20.0, 18.0, 3.0, 3.90)] * 3)
        assert all(result.orderings().values())

    def test_each_check_can_fail_alone(self):
        good_adv = (11.0, 15.5, 3.2, 3.95)
        flips = {
            "valid_ppl_not_worse": (11.0, 16.5, 3.2, 3.95),
            "nn_distance_greater": (11.0, 15.5, 2.9, 3.95),
            "sv_entropy_greater": (11.0, 15.5, 3.2, 3.85),
            "overfit_gap_smaller": (5.0, 15.5, 3.2, 3.95),
        }
        for name, bad in flips.items():
            result = three_by_three(base=[(10.0, 16.0, 3.0, 3.90)] * 3,
                                    adv=[bad] * 3,
                                    high=[(20.0, 18.0, 3.0, 3.90)] * 3)
            checks = result.orderings()
            assert not checks[name]
            others = [v for k, v in checks.items() if k != name]
            assert all(others), (name, checks, good_adv)

    def test_equal_valid_ppl_still_passes(self):
        result = three_by_three(base=[(10.0, 16.0, 3.0, 3.90)] * 3,
                                adv=[(11.0, 16.0, 3.2, 3.95)] * 3,
                                high=[(20.0, 18.0, 3.0, 3.90)] * 3)
        assert result.orderings()["valid_ppl_not_worse"]


class TestLoadSplit:
    def test_ninety_ten_and_head_vocab(self, tmp_path):
        lines = ["aa bb cc dd ee ff gg hh ii"] * 10
        lines[-1] = "zz zz zz zz zz zz zz zz zz"  # tail-only word
        path = tmp_path / "c.txt"
        path.write_text("\n".join(lines) + "\n")
        train_ids, valid_ids, vocab_size = load_split(str(path))
        assert len(train_ids) == 90 and len(valid_ids) == 10
        assert vocab_size == 11  # 9 head words + <unk> + <eos>
        assert (valid_ids[:-1] == 0).all()  # zz unseen in head -> <unk>

    def test_bundled_corpus_scale(self):
        tokens = read_tokens(bundled_corpus_path())
        assert 50_000 <= len(tokens) <= 60_000
        assert len(set(tokens)) < 500  # every type recurs enough to train


class TestRunOne:
    @pytest.mark.parametrize("alpha,adv", [(ADV_ALPHA, AdvConfig("adaptive", 0.005)),
                                           (BASELINE_ALPHA, AdvConfig("adaptive", 0.0))],
                             ids=["adaptive", "baseline"])
    def test_acceptance_recipe(self, monkeypatch, alpha, adv):
        seen = []

        def capture(params, train_stream, valid_stream, cfg):
            seen.append((cfg, params.config, train_stream, valid_stream))
            log = TrainLog()
            log.rows.append(LogRow(19, 10.0, 12.0, 0.0, 0.0, 0.0))
            return log

        monkeypatch.setattr(experiment, "train", capture)
        ids = np.arange(136) % 5  # one window of B=8, L=16
        run_one(ids, ids, 5, alpha, 2)
        [(cfg, lm_config, *streams)] = seen
        assert cfg == TrainConfig(epochs=20, batch_size=8, bptt_len=16,
                                  learning_rate=4.0, grad_clip=0.25, seed=2, adv=adv,
                                  input_noise_start=0.0, input_noise_end=0.0,
                                  eval_interval=20)
        assert lm_config == LMConfig(5, 64, 64, 1, 0.1)
        assert [(s.batch_size, s.bptt_len) for s in streams] == [(8, 16)] * 2

    def test_non_finite_embedding_rejected_before_distances(self, monkeypatch):
        def diverge(params, train_stream, valid_stream, cfg):
            params.embedding.values[0, 0] = np.nan
            log = TrainLog()
            log.rows.append(LogRow(1, 10.0, 12.0, 0.0, 0.0, 0.0))
            return log

        def no_distances(W):
            raise AssertionError("nearest-neighbour distances of a non-finite W")

        monkeypatch.setattr(experiment, "train", diverge)
        monkeypatch.setattr(analysis, "nearest_neighbor_distances", no_distances)
        ids = np.arange(136) % 5  # one window of B=8, L=16
        with pytest.raises(NumericError):
            run_one(ids, ids, 5, ADV_ALPHA, 1)
