"""The benchmark's tracer (perfbench/tracing.py) wraps Tape.backward from
outside the program; a training window must still run under its wrappers
and give the counts the benchmark reports."""

import numpy as np
import pytest

import advlm.train
from advlm.advsoft import AdvConfig, adv_nll_loss
from advlm.autodiff import Tape
from advlm.corpus import batchify
from advlm.model import LMConfig, forward, init_params, zero_state
from advlm.train import TrainConfig

from support import load

tracing = load("perfbench/tracing.py")


def test_traced_training_counts_one_record_per_model_op():
    params = init_params(LMConfig(vocab_size=6, embed_dim=5), 3)
    stream = batchify(np.random.default_rng(0).integers(0, 6, 2 * (3 * 5 + 1)), 2, 5)
    assert stream.num_windows == 3
    tcfg = TrainConfig(epochs=1, batch_size=2, bptt_len=5, input_noise_start=0.2,
                       adv=AdvConfig("adaptive", 0.005))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        advlm.train.train_epoch(params, stream, tcfg, 0)
        # one more window by hand: a tape runs backward once, also through
        # the tracer's counted(tape, loss) wrapper, and the refused call
        # adds no count
        inputs, targets = next(stream.windows())
        with Tape() as tape:
            contexts, _ = forward(params, inputs, zero_state(params.config, 2))
            loss = adv_nll_loss(params, contexts, targets, tcfg.adv).loss
        tape.backward(loss)
        with pytest.raises(RuntimeError):
            tape.backward(loss)
    finally:
        tracer.restore()
    assert tracer.records_per_backward == [3, 3, 3, 3]
    assert tracer.leaf_ratios == [1.0, 1.0, 1.0, 1.0]
