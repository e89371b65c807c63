"""Self-tests of the benchmark's own code: tracer restore, self-time
arithmetic, counters, generator determinism, and BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, percentile, self_times, summarize  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def advlm_bindings():
    """Every (module, attribute, value) in the loaded advlm modules."""
    import advlm.cli  # noqa: F401
    import advlm.experiment  # noqa: F401
    out = {}
    for name, module in sys.modules.items():
        if name == "advlm" or name.startswith("advlm."):
            for attr, value in vars(module).items():
                if callable(value):
                    out[(name, attr)] = value
    from advlm.autodiff import Tape
    for attr in ("__enter__", "__exit__", "backward"):
        out[("Tape", attr)] = Tape.__dict__[attr]
    return out


def tiny_training(windows: int = 3):
    """A few real training windows through the public train loop."""
    from advlm.advsoft import AdvConfig
    from advlm.corpus import batchify
    from advlm.model import LMConfig, init_params
    from advlm.train import TrainConfig, train

    ids = np.random.default_rng(0).integers(0, 20, size=4 * (windows * 5 + 1))
    params = init_params(LMConfig(20, 6), 0)
    cfg = TrainConfig(epochs=1, batch_size=4, bptt_len=5, adv=AdvConfig.parse("fixed:0.1"),
                      input_noise_start=0.0)
    train(params, batchify(ids, 4, 5), None, cfg)


class TracerTest(unittest.TestCase):
    def test_install_wraps_every_binding_and_restore_puts_back(self):
        import advlm.model
        import advlm.train
        before = advlm_bindings()
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(advlm.model.forward, before[("advlm.model", "forward")])
            self.assertIs(advlm.train.forward, advlm.model.forward)
            self.assertIsNot(advlm.train.evaluate, before[("advlm.train", "evaluate")])
            self.assertIs(advlm.cli.evaluate, advlm.train.evaluate)
        finally:
            tracer.restore()
        self.assertEqual(advlm_bindings(), before)

    def test_restore_after_exception_inside_traced_call(self):
        import advlm.corpus
        before = advlm_bindings()
        tracer = Tracer()
        tracer.install()
        try:
            with self.assertRaises(Exception):
                advlm.corpus.batchify([1, 2], 0, 0)
            self.assertEqual(len(tracer._stack), 0)
        finally:
            tracer.restore()
        self.assertEqual(advlm_bindings(), before)

    def test_counts_on_real_training(self):
        tracer = Tracer()
        tracer.install()
        try:
            tiny_training(windows=3)
        finally:
            tracer.restore()
        names = [tracer.names[i] for i in tracer.name_ids]
        self.assertEqual(names.count("train.train_epoch"), 1)
        self.assertEqual(names.count("autodiff.Tape.backward"), 3)
        self.assertEqual(names.count("model.forward"), 3)
        self.assertNotIn("model.forward_eval", names)
        # Every window records the same graph, so the counts repeat exactly.
        self.assertEqual(len(set(tracer.records_per_backward)), 1)
        self.assertEqual(len(tracer.leaf_ratios), 3)
        self.assertEqual(len(set(tracer.leaf_ratios)), 1)
        self.assertTrue(0 < tracer.leaf_ratios[0] < 1)

    def test_tape_tracking_holds_no_strong_reference(self):
        from advlm.autodiff import Tape
        tracer = Tracer()
        tracer.install()
        try:
            with Tape():
                pass
            self.assertEqual(len(tracer._tapes), 0)
            with Tape():
                pass
        finally:
            tracer.restore()
        self.assertEqual(tracer.tapes_alive_max, 0)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        # parent [0,10]; children [1,3] and [4,8]; grandchild [5,6]
        spans = [(0, 0.0, 10.0, -1), (1, 1.0, 3.0, 0), (1, 4.0, 8.0, 0), (2, 5.0, 6.0, 2)]
        self.assertEqual(self_times(spans), [4.0, 2.0, 3.0, 1.0])

    def test_nested_wrappers_with_a_fake_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def leaf():
            clock.now += 2.0

        traced_leaf = tracer.span("leaf", leaf)

        def outer():
            clock.now += 1.0
            traced_leaf()
            traced_leaf()
            clock.now += 0.5

        tracer.span("outer", outer)()
        layers = summarize([tracer.to_dict()])
        self.assertEqual(layers["outer"]["self_s"], 1.5)
        self.assertEqual(layers["leaf"]["self_s"], 4.0)
        self.assertEqual(layers["leaf"]["calls"], 2)
        self.assertEqual(layers["leaf"]["p50_ms"], 2000.0)

    def test_summary_averages_over_operations(self):
        a = {"names": ["x"], "spans": [[0, 0.0, 1.0, -1]], "records_per_backward": [5],
             "leaf_ratios": [0.5], "tapes_alive_max": 2}
        b = {"names": ["x"], "spans": [[0, 0.0, 3.0, -1]], "records_per_backward": [5],
             "leaf_ratios": [0.5], "tapes_alive_max": 4}
        layers = summarize([a, b])
        self.assertEqual(layers["x"]["self_s"], 2.0)
        self.assertEqual(layers["x"]["calls"], 1)
        self.assertEqual(layers["autodiff.tapes_alive_max"], 4)
        self.assertEqual(layers["autodiff.tape_records_per_window"], 5)

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 0.5), 50)
        self.assertEqual(percentile(values, 0.95), 95)
        self.assertEqual(percentile([7], 0.95), 7)
        self.assertEqual(percentile([], 0.5), 0.0)


def scratch_dir() -> str:
    """Temporary files stay inside the checkout, in the run work area."""
    path = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(path, exist_ok=True)
    return path


def read_all(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


class GeneratorTest(unittest.TestCase):
    def test_default_seed_reproduces_the_bundled_corpus(self):
        self.assertTrue(inputs.tiny_reproduced(inputs.desk_text(run.DEFAULT_SEED)))

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in ("wide_vocab", "analyze_wide", "ab_grid"):
            with tempfile.TemporaryDirectory(dir=scratch_dir()) as tmp:
                inputs.make_inputs(workload, 7, os.path.join(tmp, "a"))
                inputs.make_inputs(workload, 7, os.path.join(tmp, "b"))
                inputs.make_inputs(workload, 8, os.path.join(tmp, "c"))
                a, b, c = (read_all(os.path.join(tmp, d)) for d in "abc")
                self.assertEqual(a, b, workload)
                self.assertNotEqual(a, c, workload)

    def test_wide_corpus_covers_every_type_and_fills_its_windows(self):
        from advlm.corpus import batchify, build_vocab
        head, tail = inputs.wide_corpus(3, inputs.stream_tokens(inputs.WIDE_TRAIN_WINDOWS),
                                        inputs.stream_tokens(inputs.WIDE_VALID_WINDOWS))
        tokens = [t for line in head.splitlines() for t in line.split() + ["<eos>"]]
        vocab = build_vocab(tokens)
        self.assertEqual(len(vocab), inputs.WIDE_TYPES + 2)
        stream = batchify(vocab.encode(tokens), inputs.WIDE_BATCH, inputs.WIDE_BPTT)
        self.assertEqual(stream.num_windows, inputs.WIDE_TRAIN_WINDOWS)


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_run_py_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [m[:3] for m in run.per_layer_metrics()])


if __name__ == "__main__":
    unittest.main()
