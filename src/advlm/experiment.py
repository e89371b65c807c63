"""Desk-scale A/B experiment on the bundled corpus.

Trains matched runs (shared data, sizes, and schedule; only the perturbation
strength differs) across three seeds and summarizes each arm by medians of
final train/valid perplexity, median nearest-neighbor embedding distance,
and singular-value entropy. `python3 -m advlm.experiment` runs the standard
three arms and prints one PASS/FAIL line per expected ordering.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .advsoft import AdvConfig
from .analysis import diversity_report
from .corpus import batchify, build_vocab, read_tokens, split_tokens
from .errors import ConfigError
from .model import LMConfig, init_params
from .train import TrainConfig, train

BASELINE_ALPHA = 0.0
ADV_ALPHA = 0.005
HIGH_ALPHA = 0.05
ALPHAS = (BASELINE_ALPHA, ADV_ALPHA, HIGH_ALPHA)
SEEDS = (1, 2, 3)

EMBED_DIM = 64
# Every run's settings but its seed and perturbation. The perturbation is the
# only regularizer under study, so the experiment runs without input noise.
ACCEPTANCE = TrainConfig(epochs=20, batch_size=8, bptt_len=16, learning_rate=4.0,
                         input_noise_start=0.0, input_noise_end=0.0,
                         eval_interval=20)


def bundled_corpus_path() -> str:
    return str(resources.files("advlm").joinpath("data/tiny.txt"))


@dataclass(frozen=True)
class RunResult:
    alpha: float
    seed: int
    train_ppl: float
    valid_ppl: float
    nn_distance: float
    sv_entropy: float
    wall_s: float

    @property
    def gap(self) -> float:
        return self.valid_ppl - self.train_ppl

    def line(self) -> str:
        return (f"alpha={self.alpha:g} seed={self.seed}: "
                f"train_ppl={self.train_ppl:.3f} valid_ppl={self.valid_ppl:.3f} "
                f"gap={self.gap:.3f} nn={self.nn_distance:.4f} "
                f"sv_entropy={self.sv_entropy:.5f} [{self.wall_s:.0f}s]")


@dataclass(frozen=True)
class ArmSummary:
    alpha: float
    train_ppl: float
    valid_ppl: float
    gap: float
    nn_distance: float
    sv_entropy: float

    def line(self) -> str:
        return (f"alpha={self.alpha:g} medians: train_ppl={self.train_ppl:.3f} "
                f"valid_ppl={self.valid_ppl:.3f} gap={self.gap:.3f} "
                f"nn={self.nn_distance:.4f} sv_entropy={self.sv_entropy:.5f}")


@dataclass
class ExperimentResult:
    runs: list[RunResult]

    def arm(self, alpha: float) -> list[RunResult]:
        picked = [r for r in self.runs if r.alpha == alpha]
        if not picked:
            raise ConfigError(f"no runs with alpha={alpha}")
        return picked

    def summary(self, alpha: float) -> ArmSummary:
        arm = self.arm(alpha)
        med = lambda f: statistics.median(f(r) for r in arm)
        return ArmSummary(alpha,
                          med(lambda r: r.train_ppl),
                          med(lambda r: r.valid_ppl),
                          med(lambda r: r.gap),
                          med(lambda r: r.nn_distance),
                          med(lambda r: r.sv_entropy))

    def orderings(self) -> dict[str, bool]:
        """The expected arm orderings, each as its own named check."""
        base = self.summary(BASELINE_ALPHA)
        adv = self.summary(ADV_ALPHA)
        high = self.summary(HIGH_ALPHA)
        return {
            "valid_ppl_not_worse": adv.valid_ppl <= base.valid_ppl,
            "nn_distance_greater": adv.nn_distance > base.nn_distance,
            "sv_entropy_greater": adv.sv_entropy > base.sv_entropy,
            "overfit_gap_smaller": adv.gap < base.gap,
            "high_alpha_underfits": high.train_ppl > adv.train_ppl,
        }


def load_split(corpus_path: str | None):
    """Bundled-corpus token ids: 90% train head, 10% valid tail."""
    head, tail = split_tokens(read_tokens(corpus_path or bundled_corpus_path()))
    vocab = build_vocab(head)
    return vocab.encode(head), vocab.encode(tail), len(vocab)


def run_one(train_ids: np.ndarray, valid_ids: np.ndarray, vocab_size: int,
            alpha: float, seed: int) -> RunResult:
    t0 = time.perf_counter()
    adv = AdvConfig("adaptive", alpha)
    cfg = replace(ACCEPTANCE, seed=seed, adv=adv)
    params = init_params(LMConfig(vocab_size, EMBED_DIM), seed)
    log = train(params, batchify(train_ids, cfg.batch_size, cfg.bptt_len),
                batchify(valid_ids, cfg.batch_size, cfg.bptt_len), cfg)
    report = diversity_report(params.embedding.values, adv, [])
    final = log.rows[-1]
    return RunResult(alpha, seed, final.train_ppl, final.valid_ppl,
                     float(np.median(report.nn_distances)), report.sv_entropy,
                     time.perf_counter() - t0)


def run_experiment(corpus_path: str | None = None,
                   progress=None) -> ExperimentResult:
    train_ids, valid_ids, vocab_size = load_split(corpus_path)
    runs = []
    for alpha in ALPHAS:
        for seed in SEEDS:
            result = run_one(train_ids, valid_ids, vocab_size, alpha, seed)
            runs.append(result)
            if progress is not None:
                progress(result)
    return ExperimentResult(runs)


def main() -> int:
    result = run_experiment(progress=lambda r: print(r.line(), flush=True))
    for alpha in ALPHAS:
        print(result.summary(alpha).line())
    checks = result.orderings()
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
