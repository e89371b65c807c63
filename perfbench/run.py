"""perfbench: the advlm benchmark.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from --seed, then runs operations in a
closed loop, one at a time, each in a fresh process (perfbench/program.py)
so that its set-up time and peak memory are its own. Every operation's
outputs are checked. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with --trace 0 the
metrics are END_TO_END, with --trace 1 they are PER_LAYER, taken from a
traced operation whose wrappers are installed from outside the program.
The lines above it repeat every number with its unit, the machine, the
workload's size and reason, and (traced) which end-to-end metric each layer
metric should move.

Self-tests: ``python3 -m unittest discover -s perfbench -p 'test_*.py'``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM = os.path.join(HERE, "program.py")
DEFAULT_SEED = 20240817  # tools/make_tiny_corpus.SEED: desk then is tiny.txt
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0

WORKLOADS = {
    "desk": (
        "acceptance config: adaptive:0.005, V=239, d=64, B=8, L=16, no noise; "
        "1 epoch (386 windows, 49,408 targets), eval of the full 55k-token corpus",
        "per-op tape overhead dominates; the head and the analysis code are tiny"),
    "wide_vocab": (
        "V=5000, d=200, B=32, L=32, adaptive:0.005; 1 epoch of 8 windows "
        "(8,192 targets) on a Zipfian corpus covering every type, eval of 10 windows",
        "the N x V softmax head and V x d gradients dominate; each window's tape "
        "waits for the cyclic collector, so peak memory grows per window"),
    "analyze_wide": (
        "advlm analyze --split valid --adv adaptive:0.005 on an untrained "
        "V=5000, d=200 checkpoint; 3 windows of B=32, L=32 contexts + 1000 random probes",
        "the O(V) nearest-neighbour loop and the Jacobi spectrum dominate; "
        "no training code runs"),
    "ab_grid": (
        "experiment.run_experiment: 3 alphas x 3 seeds, 20 epochs each, "
        "d=64, B=8, L=16, on a 2k-token generated corpus",
        "the only workload where the experiment layer does work; nine desk-size "
        "tape runs and nine d=64 spectra"),
}

# (name, unit, better, bound) of the metrics in the final JSON line.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
# The eight end-to-end figures named for this benchmark, printed per
# workload; those that need a phase the workload lacks read n/a.
REPORTED = [
    ("setup_s", "s", "lower"),
    ("train_tokens_per_s", "targets/s", "higher"),
    ("eval_tokens_per_s", "targets/s", "higher"),
    ("analyze_s", "s", "lower"),
    ("ab_wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("valid_ppl", "ppl", "lower"),
    ("failed_frac", "ratio", "lower"),
]

# Traced layer -> the end-to-end figure it should move, and where.
LAYERS = {
    "corpus.read_tokens": "setup_s, all workloads",
    "corpus.build_vocab": "setup_s, all workloads",
    "corpus.batchify": "setup_s, all workloads",
    "model.init_params": "setup_s on desk and wide_vocab",
    "model.forward": "train_tokens_per_s on desk; small on wide_vocab",
    "autodiff.gather_rows": "train_tokens_per_s on desk; small on wide_vocab",
    "model.forward_eval": "eval_tokens_per_s on desk and wide_vocab; analyze_s",
    "advsoft.adv_nll_loss": "train_tokens_per_s and peak_rss_mb on wide_vocab; "
                            "near zero on desk",
    "autodiff.Tape.backward": "train_tokens_per_s on desk and wide_vocab; ab_wall_s",
    "train.sgd_step": "train_tokens_per_s on wide_vocab",
    "train.train_epoch": "train_tokens_per_s on desk (self time is loop overhead)",
    "train.evaluate": "eval_tokens_per_s on desk and wide_vocab",
    "model.save_checkpoint": "setup_s on analyze_wide (writes its input)",
    "model.load_checkpoint": "setup_s on analyze_wide",
    "analysis.nearest_neighbor_distances": "analyze_s on analyze_wide",
    "analysis.singular_values": "analyze_s on analyze_wide; ab_wall_s",
    "analysis.diversity_report": "analyze_s on analyze_wide (self time is "
                                 "recognition probing)",
    "analysis.context_probes": "analyze_s on analyze_wide",
    "experiment.run_one": "ab_wall_s on ab_grid",
}
TIMED_CALLS = ("model.forward", "model.forward_eval", "autodiff.gather_rows",
               "advsoft.adv_nll_loss", "autodiff.Tape.backward", "train.sgd_step")
COUNTS = [
    ("autodiff.tape_records_per_window", "count", "lower",
     "train_tokens_per_s on desk; ab_wall_s"),
    ("autodiff.leaf_grad_ratio", "ratio", "higher",
     "train_tokens_per_s on desk; peak_rss_mb on wide_vocab"),
    ("autodiff.tapes_alive_max", "count", "lower", "peak_rss_mb on wide_vocab"),
    ("trace.overhead_frac", "ratio", "lower", "traced vs untraced op_s"),
]


def per_layer_metrics():
    """(name, unit, better, moves) of every per-layer metric."""
    out = []
    for layer, moves in LAYERS.items():
        out.append((f"{layer}.self_s", "s", "lower", moves))
        out.append((f"{layer}.calls", "count", "lower", moves))
        if layer in TIMED_CALLS:
            out.append((f"{layer}.p50_ms", "ms", "lower", moves))
            out.append((f"{layer}.p95_ms", "ms", "lower", moves))
    return out + COUNTS


# -- machine -----------------------------------------------------------------

def mem_total_mb() -> float:
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024
    return float("nan")


def git_revision() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def machine(openblas_threads) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_total_mb()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": openblas_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git": git_revision(),
    }


# -- operations ----------------------------------------------------------------

class Run:
    """One benchmark run: its inputs, operations and check results."""

    def __init__(self, workload: str, seed: int, work: str, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.count = 0

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def spawn(self, workload: str, extra=(), trace: bool = False):
        """Run program.py once; return (result dict or None, setup_s, out dir)."""
        self.count += 1
        out = os.path.join(self.work, f"op{self.count}")
        os.makedirs(out)
        cmd = [sys.executable, PROGRAM, "--workload", workload,
               "--inputs", os.path.join(self.work, "inputs.json"),
               "--seed", str(self.seed), "--out", out, *extra]
        if trace:
            cmd += ["--trace", os.path.join(out, "spans.json")]
        self.attempted += 1
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(os.path.join(out, "stdout"), "w") as so, \
                open(os.path.join(out, "stderr"), "w") as se:
            t_spawn = time.monotonic()
            try:
                rc = subprocess.run(cmd, stdout=so, stderr=se, timeout=timeout).returncode
            except subprocess.TimeoutExpired:
                self.fail(f"{workload} op{self.count}: timed out after {timeout:.0f}s")
                return None, None, out
        if rc != 0:
            with open(os.path.join(out, "stderr")) as fh:
                sys.stderr.write(fh.read()[-2000:])
            self.fail(f"{workload} op{self.count}: exit code {rc}")
            return None, None, out
        with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        return result, result["setup_end"] - t_spawn, out


def check_lm(run: Run, r: dict) -> None:
    from advlm.model import load_checkpoint
    from program import params_digest

    V = r["vocab_size"]
    if not (math.isfinite(r["valid_ppl"]) and 0 < r["valid_ppl"] < V):
        run.fail(f"valid_ppl {r['valid_ppl']} not finite and below V={V}")
    elif params_digest(load_checkpoint(r["checkpoint"])) != r["digest"]:
        run.fail("model.bin does not load back to the trained parameters")


def check_analyze(run: Run, r: dict, inputs: dict) -> None:
    import numpy as np
    from advlm.model import load_checkpoint

    with open(r["report"], encoding="utf-8") as fh:
        report = json.load(fh)
    W = load_checkpoint(inputs["checkpoint"]).embedding.values
    nn = np.asarray(report["nn_distances"])
    rows = np.random.default_rng(run.seed).choice(W.shape[0], 64, replace=False)
    exact = []
    for i in rows:
        d2 = ((W - W[i]) ** 2).sum(axis=1)
        d2[i] = np.inf
        exact.append(math.sqrt(d2.min()))
    if nn.shape != (W.shape[0],) or not np.allclose(nn[rows], exact, rtol=1e-12, atol=0):
        run.fail("report.json nn_distances differ from brute force")
    sv = np.linalg.svd(W, compute_uv=False)
    p = sv / sv.sum()
    entropy = float(-(p * np.log(p)).sum())
    if not abs(report["sv_entropy"] - entropy) <= 1e-9:
        run.fail(f"sv_entropy {report['sv_entropy']!r} != svd {entropy!r}")


def finite_runs(runs) -> bool:
    return all(math.isfinite(x[k]) for x in runs
               for k in ("train_ppl", "valid_ppl", "nn_distance", "sv_entropy"))


def check_ab(run: Run, r: dict) -> None:
    if len(r["runs"]) != 9 or not finite_runs(r["runs"]):
        run.fail("ab_grid did not give nine finite results")
        return
    # One grid entry, chosen by the seed, must equal a serial run_one.
    pick = r["runs"][run.seed % 9]
    pair, _, _ = run.spawn("ab_pair", ["--pair", f"{pick['alpha']!r},{pick['seed']}"])
    if pair is not None and pair["runs"][0] != pick:
        run.fail(f"run_one{(pick['alpha'], pick['seed'])} differs from the grid")


def operate(run: Run, inputs: dict, trace: bool):
    """One checked operation; returns its result dict or None."""
    r, setup_s, out = run.spawn(run.workload, trace=trace)
    if r is None:
        return None
    r["setup_s"] = setup_s
    r["trace_path"] = os.path.join(out, "spans.json")
    failed = len(run.failures)
    if run.workload in ("desk", "wide_vocab"):
        check_lm(run, r)
    elif run.workload == "analyze_wide":
        check_analyze(run, r, inputs)
    else:
        check_ab(run, r)
    return r if len(run.failures) == failed else None


# -- reporting -----------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else float("nan")


def reported(ops, setups, failed_frac) -> dict:
    """The eight named figures; None where the workload has no such phase."""
    def med(key, fn=lambda r, v: v):
        vals = [fn(r, r[key]) for r in ops if key in r]
        return median(vals) if vals else None
    return {
        "setup_s": median(setups),
        "train_tokens_per_s": med("train_s", lambda r, v: r["train_targets"] / v),
        "eval_tokens_per_s": med("eval_s", lambda r, v: r["eval_targets"] / v),
        "analyze_s": med("analyze_s"),
        "ab_wall_s": med("ab_wall_s"),
        "peak_rss_mb": med("peak_rss_kb", lambda r, v: v / 1024),
        "valid_ppl": med("valid_ppl"),
        "failed_frac": failed_frac,
    }


def fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="advlm benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "advlm", "__init__.py")):
        print(f"error: no advlm sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import inputs as inputs_mod

    seed = args.seed & 0x7FFFFFFF  # numpy seeds must be non-negative
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(args.workload, seed, work, t_start + RUN_LIMIT_S)
        inputs = inputs_mod.make_inputs(args.workload, seed, os.path.join(work, "in"))
        with open(os.path.join(work, "inputs.json"), "w", encoding="utf-8") as fh:
            json.dump(inputs, fh)
        if args.workload == "desk" and seed == DEFAULT_SEED:
            run.attempted += 1
            if not inputs["is_tiny"]:
                run.fail("default seed does not reproduce src/advlm/data/tiny.txt")

        # A traced run alternates untraced and traced operations, so the
        # tracing overhead compares operations made under the same load.
        ops, traced = [], []
        t0 = time.monotonic()
        while True:
            t_iter = time.monotonic()
            ops.append(operate(run, inputs, trace=False))
            if args.trace:
                traced.append(operate(run, inputs, trace=True))
            now = time.monotonic()
            if run.failures or (now - t0) + (now - t_iter) > args.seconds:
                break
        setups = [r["setup_s"] for r in ops + traced if r is not None]
        while len(setups) < SETUP_SAMPLES and not run.failures:
            r, setup_s, _ = run.spawn(args.workload, ["--setup-only"])
            if r is not None:
                setups.append(setup_s)
        ops = [r for r in ops if r is not None]
        traced = [r for r in traced if r is not None]

        blas_threads = next((r["openblas_threads"] for r in ops + traced), None)
        info = machine(blas_threads)
        size, why = WORKLOADS[args.workload]
        failed = len(run.failures)
        print(f"perfbench workload={args.workload} seed={seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
        print(f"workload size: {size}")
        print(f"workload why: {why}")
        print(f"loop: closed, 1 client, one operation at a time, each in a fresh "
              f"process; {len(ops)} untraced + {len(traced)} traced operations, "
              f"{len(setups)} set-ups, {run.attempted} attempted, {failed} failed")
        if args.trace:
            metrics = per_layer(ops, traced)
        else:
            metrics = end_to_end(ops, setups, failed / run.attempted)
        ok = failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
        print(json.dumps({"correct": ok, "attempted": run.attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = os.path.dirname(work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


def end_to_end(ops, setups, failed_frac) -> dict:
    figures = reported(ops, setups, failed_frac)
    for k, r in enumerate(ops, 1):
        print(f"  op {k}: op_s={r['op_s']:.4f} setup_s={r['setup_s']:.4f} "
              f"peak_rss_mb={r['peak_rss_kb'] / 1024:.1f}")
    for name, unit, better in REPORTED:
        print(f"  {name:<20} {fmt(figures[name]):>12} {unit:<10} {better}")
    values = {
        "setup_s": median(setups),
        "op_s": median([r["op_s"] for r in ops]),
        "peak_rss_mb": figures["peak_rss_mb"] if ops else float("nan"),
    }
    print(f"  {'op_s':<20} {fmt(values['op_s']):>12} {'s':<10} lower "
          f"(median of {len(ops)} operations; the timed phase of this workload)")
    for layer, moves in LAYERS.items():
        print(f"  layer {layer} -> {moves}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in END_TO_END}


def per_layer(ops, traced) -> dict:
    from tracing import summarize

    dumps = []
    for r in traced:
        with open(r["trace_path"], encoding="utf-8") as fh:
            dumps.append(json.load(fh))
    layers = summarize(dumps) if dumps else {}
    untraced = median([r["op_s"] for r in ops])
    layers["trace.overhead_frac"] = median([r["op_s"] for r in traced]) / untraced - 1
    metrics = {}
    for name, unit, better, moves in per_layer_metrics():
        layer, _, stat = name.rpartition(".")
        if name in layers:
            value = layers[name]
        else:
            value = layers.get(layer, {}).get(stat, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<48} {fmt(value):>12} {unit:<6} {better:<6} -> {moves}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
