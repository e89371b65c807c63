"""One benchmark operation, run in a fresh process so that set-up time and
peak memory belong to this operation alone.

    python3 perfbench/program.py --workload desk --inputs in.json \
        --seed 1 --out DIR [--setup-only] [--trace spans.json]

The operation drives the advlm library in the order the CLI does. Set-up
(imports, corpus read, vocab, batchify, parameter init or checkpoint load)
ends at ``setup_end``, a CLOCK_MONOTONIC reading the parent compares with
its own reading taken just before it started this process. The result is
written to DIR/result.json; with --trace the spans go to the given path.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

# Library calls go through the module attributes, so the tracer's wrappers
# (installed on those attributes) see every call made here.
from advlm import analysis, cli, corpus, experiment, model, train  # noqa: E402
from advlm.advsoft import AdvConfig  # noqa: E402
from advlm.model import LMConfig  # noqa: E402
from advlm.train import TrainConfig  # noqa: E402

ADV = "adaptive:0.005"
DESK = dict(embed_dim=64, batch_size=8, bptt_len=16, epochs=1)
WIDE = dict(embed_dim=200, batch_size=32, bptt_len=32, epochs=1)
ANALYZE_BATCH = 32
ANALYZE_BPTT = 32
NUM_RANDOM_PROBES = 1000


def params_digest(params) -> str:
    h = hashlib.sha256()
    for name, t in params.named_tensors():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.values).tobytes())
    return h.hexdigest()


def peak_rss_kb() -> int:
    """High-water resident set of this process (VmHWM)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("VmHWM not found in /proc/self/status")


def openblas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# -- set-up: everything the program does before its first timed work --------

def setup_lm(cfg: dict, train_tokens, valid_tokens, eval_tokens, seed: int):
    vocab = corpus.build_vocab(train_tokens)
    B, L = cfg["batch_size"], cfg["bptt_len"]
    return {
        "vocab": vocab,
        "train": corpus.batchify(vocab.encode(train_tokens), B, L),
        "valid": corpus.batchify(vocab.encode(valid_tokens), B, L),
        "eval": corpus.batchify(vocab.encode(eval_tokens), B, L),
        "params": model.init_params(LMConfig(len(vocab), cfg["embed_dim"]), seed),
        "config": TrainConfig(epochs=cfg["epochs"], batch_size=B, bptt_len=L,
                              seed=seed, adv=AdvConfig.parse(ADV),
                              input_noise_start=0.0, input_noise_end=0.0),
    }


def setup(workload: str, inputs: dict, seed: int) -> dict:
    if workload == "desk":
        tokens = corpus.read_tokens(inputs["corpus"])
        head, tail = cli.split_tokens(tokens)
        return setup_lm(DESK, head, tail, tokens, seed)
    if workload == "wide_vocab":
        head = corpus.read_tokens(inputs["train"])
        tail = corpus.read_tokens(inputs["valid"])
        return setup_lm(WIDE, head, tail, head + tail, seed)
    if workload == "analyze_wide":
        params = model.load_checkpoint(inputs["checkpoint"])
        vocab = corpus.Vocab.load(os.path.join(os.path.dirname(inputs["checkpoint"]),
                                        "vocab.tsv"))
        _, tail = cli.split_tokens(corpus.read_tokens(inputs["corpus"]))
        return {"params": params, "vocab": vocab,
                "stream": corpus.batchify(vocab.encode(tail), ANALYZE_BATCH, ANALYZE_BPTT)}
    if workload in ("ab_grid", "ab_pair"):
        return {}
    raise ValueError(f"unknown workload {workload!r}")


# -- timed work --------------------------------------------------------------

def run_lm(state: dict, out_dir: str) -> dict:
    params, cfg = state["params"], state["config"]
    t0 = time.perf_counter()
    train.train(params, state["train"], None, cfg)
    t1 = time.perf_counter()
    train.evaluate(params, state["eval"])
    t2 = time.perf_counter()
    valid_ppl = train.evaluate(params, state["valid"])
    checkpoint = os.path.join(out_dir, "model.bin")
    model.save_checkpoint(params, checkpoint)
    t3 = time.perf_counter()
    return {
        "op_s": t3 - t0,
        "train_s": t1 - t0,
        "train_targets": cfg.epochs * state["train"].num_targets,
        "eval_s": t2 - t1,
        "eval_targets": state["eval"].num_targets,
        "valid_ppl": valid_ppl,
        "vocab_size": len(state["vocab"]),
        "train_windows": state["train"].num_windows,
        "checkpoint": checkpoint,
        "digest": params_digest(params),
    }


def run_analyze(state: dict, seed: int, out_dir: str) -> dict:
    params, vocab = state["params"], state["vocab"]
    t0 = time.perf_counter()
    probes = analysis.context_probes(params, state["stream"], num_random=NUM_RANDOM_PROBES,
                            rng=np.random.default_rng(seed))
    W = params.embedding.values
    report = analysis.diversity_report(W, AdvConfig.parse(ADV), probes)
    report.save(os.path.join(out_dir, "report.json"))
    rows = ["word,nn_distance"] + ["%s,%.9g" % (vocab.id_to_token[i], d)
                                   for i, d in enumerate(report.nn_distances)]
    with open(os.path.join(out_dir, "nn_distances.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    t1 = time.perf_counter()
    return {"op_s": t1 - t0, "analyze_s": t1 - t0,
            "report": os.path.join(out_dir, "report.json"),
            "probes": sum(len(h) for _, h in probes)}


def run_result(r) -> dict:
    return {"alpha": r.alpha, "seed": r.seed, "train_ppl": r.train_ppl,
            "valid_ppl": r.valid_ppl, "nn_distance": r.nn_distance,
            "sv_entropy": r.sv_entropy}


def run_ab(inputs: dict) -> dict:
    t0 = time.perf_counter()
    result = experiment.run_experiment(corpus_path=inputs["corpus"])
    t1 = time.perf_counter()
    return {"op_s": t1 - t0, "ab_wall_s": t1 - t0,
            "runs": [run_result(r) for r in result.runs]}


def run_ab_pair(inputs: dict, alpha: float, seed: int) -> dict:
    train_ids, valid_ids, vocab_size = experiment.load_split(inputs["corpus"])
    t0 = time.perf_counter()
    r = experiment.run_one(train_ids, valid_ids, vocab_size, alpha, seed)
    return {"op_s": time.perf_counter() - t0, "runs": [run_result(r)]}


def run_op(args, state: dict, inputs: dict) -> dict:
    if args.workload in ("desk", "wide_vocab"):
        return run_lm(state, args.out)
    if args.workload == "analyze_wide":
        return run_analyze(state, args.seed, args.out)
    if args.workload == "ab_grid":
        return run_ab(inputs)
    alpha, seed = args.pair.split(",")
    return run_ab_pair(inputs, float(alpha), int(seed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True, help="JSON file of input paths")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for outputs")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", help="write spans of the traced run here")
    ap.add_argument("--pair", help="ab_pair only: ALPHA,SEED of the run to repeat")
    args = ap.parse_args(argv)
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    os.makedirs(args.out, exist_ok=True)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        state = setup(args.workload, inputs, args.seed)
        result = {"setup_end": time.monotonic()}
        if not args.setup_only:
            result.update(run_op(args, state, inputs))
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        tracer.dump(args.trace)
    result["peak_rss_kb"] = peak_rss_kb()
    result["openblas_threads"] = openblas_threads()
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
