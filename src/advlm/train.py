"""SGD training loop: scheduled input noise, adversarial loss, clipped steps.

Each window runs on its own tape, freed when the next window's tape opens.
The hidden state a window hands on is a constant, so gradients never cross
window boundaries (truncated BPTT). Evaluation always uses the plain softmax
(no perturbation, no noise, no recording). Every stream holds at least one
window, so every per-target mean here has a positive count.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .advsoft import AdvConfig, adv_nll_loss
from .autodiff import Tape
from .corpus import BatchStream, write_text_atomic
from .errors import ConfigError, NumericError, overflow_guard
from .model import LMParams, forward, stream_contexts, zero_state


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    bptt_len: int
    input_noise_start: float
    learning_rate: float = 4.0
    grad_clip: float = 0.25
    seed: int = 0
    adv: AdvConfig = field(default_factory=AdvConfig)
    input_noise_end: float = 0.0
    eval_interval: int = 1

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.bptt_len < 1:
            raise ConfigError(
                f"epochs, batch_size, bptt_len must be positive, got "
                f"{self.epochs}, {self.batch_size}, {self.bptt_len}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0 < self.grad_clip < math.inf:
            raise ConfigError(f"grad_clip must be finite and positive, got {self.grad_clip}")
        if not math.inf > self.input_noise_start >= self.input_noise_end >= 0:
            raise ConfigError(
                f"need finite input_noise_start >= input_noise_end >= 0, got "
                f"{self.input_noise_start}, {self.input_noise_end}"
            )
        if self.eval_interval < 1:
            raise ConfigError(f"eval_interval must be >= 1, got {self.eval_interval}")


@dataclass
class EpochStats:
    nll: float
    noise_std: float
    mean_eps: float


def perplexity(nll: float, tokens: int, side: str) -> float:
    """exp(nll / tokens), or NumericError naming the side if that is not finite."""
    try:
        ppl = math.exp(nll / tokens)
    except OverflowError:
        ppl = math.inf
    if not math.isfinite(ppl):
        raise NumericError(f"{side} perplexity is not finite: mean NLL {nll / tokens:.6g}")
    return ppl


@dataclass
class LogRow:
    epoch: int
    train_ppl: float
    valid_ppl: float
    wall_s: float
    noise_std: float
    mean_eps: float

    def as_csv(self) -> str:
        epoch, *rest = astuple(self)
        return ",".join(["%d" % epoch] + ["%.9g" % x for x in rest])


LOG_HEADER = ",".join(f.name for f in fields(LogRow))


@dataclass
class TrainLog:
    rows: list[LogRow] = field(default_factory=list, init=False)

    def save(self, path: str) -> None:
        write_text_atomic(path, "\n".join([LOG_HEADER] + [r.as_csv() for r in self.rows])
                          + "\n")

    @classmethod
    def load(cls, path: str) -> "TrainLog":
        log = cls()
        with open(path, encoding="utf-8") as fh:
            try:
                header = fh.readline().strip()
                lines = fh.readlines()
            except UnicodeDecodeError as e:
                raise ConfigError(f"log {path} is not UTF-8: {e}")
        if header != LOG_HEADER:
            raise ConfigError(f"{path}: unexpected log header {header!r}")
        for lineno, line in enumerate(lines, 2):
            try:
                epoch, *rest = line.strip().split(",")
                row = LogRow(int(epoch), *map(float, rest))
            except (TypeError, ValueError):  # wrong field count, or not a number
                raise ConfigError(f"{path} line {lineno}: expected numbers for "
                                  f"{LOG_HEADER}, got {line.strip()!r}") from None
            log.rows.append(row)
        return log


def sgd_step(params: LMParams, learning_rate: float, grad_clip: float) -> None:
    """Global-norm clip, apply p -= lr*g, then clear all gradients. Each
    gradient is scaled in place. A squared norm that is not finite (a NaN or
    inf entry, or finite entries whose squares overflow) raises NumericError
    before any parameter changes."""
    tensors = [t for t in params.tensors() if t.grad is not None]
    with np.errstate(over="ignore"):
        sq = sum(float((t.grad * t.grad).sum()) for t in tensors)
    if not math.isfinite(sq):
        raise NumericError("non-finite gradient norm; step aborted")
    norm = math.sqrt(sq)
    scale = grad_clip / norm if norm > grad_clip else 1.0
    for t in tensors:
        t.grad *= learning_rate * scale
        t.values -= t.grad
        t.grad = None


def noise_schedule(epoch: int, total_epochs: int, start: float, end: float) -> float:
    if total_epochs == 1:
        return start
    return start + (end - start) * epoch / (total_epochs - 1)


def train_epoch(params: LMParams, stream: BatchStream, config: TrainConfig,
                epoch: int) -> EpochStats:
    """One pass over the stream: noise, forward, adversarial loss, backward,
    step. A window whose numbers overflow raises NumericError naming it."""
    std = noise_schedule(epoch, config.epochs, config.input_noise_start,
                         config.input_noise_end)
    rng = np.random.default_rng([config.seed, epoch])
    state = zero_state(params.config, stream.batch_size)
    total_nll = 0.0
    eps_sum = 0.0
    for w_idx, (inputs, targets) in enumerate(stream.windows()):
        with overflow_guard(f"epoch {epoch}, window {w_idx}"):
            # one draw in row order: the same stream as one [B x d] draw per step
            noise = (rng.normal(0.0, std, size=(inputs.size, params.config.embed_dim))
                     if std > 0 else None)
            with Tape() as tape:
                contexts, state = forward(params, inputs, state, noise)
                batch = adv_nll_loss(params, contexts, targets, config.adv)
                tape.backward(batch.loss)
            sgd_step(params, config.learning_rate, config.grad_clip)
        total_nll += batch.total
        eps_sum += float(batch.epsilons.sum())
    return EpochStats(total_nll, std, eps_sum / stream.num_targets)


def evaluate(params: LMParams, stream: BatchStream, side: str = "evaluation") -> float:
    """Perplexity exp(total NLL / tokens) under the plain softmax; side names
    the stream if it overflows or is not finite (NumericError)."""
    with overflow_guard(side):
        total = sum(adv_nll_loss(params, contexts, targets, AdvConfig()).total
                    for contexts, targets in stream_contexts(params, stream))
    return perplexity(total, stream.num_targets, side)


def train(params: LMParams, train_stream: BatchStream,
          valid_stream: BatchStream | None, config: TrainConfig,
          progress=None) -> TrainLog:
    """Run the full schedule; validation runs every eval_interval epochs and
    on the last epoch, with NaN logged in between. After each epoch,
    progress (if given) gets the log so far. A training stream whose sizes
    are not config's is rejected before epoch 0."""
    sizes = (train_stream.batch_size, train_stream.bptt_len)
    if sizes != (config.batch_size, config.bptt_len):
        raise ConfigError(f"training stream's (batch_size, bptt_len) {sizes} are not the "
                          f"config's {(config.batch_size, config.bptt_len)}")
    log = TrainLog()
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        stats = train_epoch(params, train_stream, config, epoch)
        wall = time.perf_counter() - t0
        last = epoch == config.epochs - 1
        train_ppl = perplexity(stats.nll, train_stream.num_targets,
                               f"epoch {epoch}: training")
        if valid_stream is not None and (epoch % config.eval_interval == 0 or last):
            valid_ppl = evaluate(params, valid_stream, f"epoch {epoch}: validation")
        else:
            valid_ppl = math.nan
        row = LogRow(epoch, train_ppl, valid_ppl, wall, stats.noise_std, stats.mean_eps)
        log.rows.append(row)
        if progress is not None:
            progress(log)
    return log
