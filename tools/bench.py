"""Write BENCH_<n>.json: the benchmark's numbers at one git revision.

    python3 tools/bench.py            # the record, about 15 min; writes it
    python3 tools/bench.py --quick    # 1 seed, 5 s, untraced, no Tier-1; prints it

For each workload BENCHMARK.json declares and each of seeds 1-3 it runs
``perfbench/run.py --trace 0`` and ``--trace 1`` for the declared
run_seconds and reads the JSON line each prints last. If git gives no
revision (tools/checkout.py), or any run is not correct or has a failed
operation, nothing is written and the exit code is 1. The file holds, per
workload, the median, IQR and raw values of setup_s, op_s and peak_rss_mb,
the medians of the printed figures (tokens/s, analyze_s, ab_wall_s) and of
the per-layer metrics; the wall time of the Tier-1 test command ("tier1");
the machine line and git revision; and the change of every median against
BENCH_<n-1>.json when that file exists.

It also holds a "layers" section: each layer of the model called on its own
on seeded synthetic inputs, at desk's shape and at a softmax-bound V=10k
shape (layer_shapes()), as the median and IQR of LAYER_REPEATS timed calls
after LAYER_WARMUP discarded ones, with the machine line (BLAS build and
thread count) of the process that timed them. Its medians are diffed
against the previous file as "layers.<shape>".

Each run also records the host's load beside it: the busy CPU time
/proc/stat counts over the run, less the CPU time of the bench's own
children (RUSAGE_CHILDREN). A run during which other work took more than
10% of one core is flagged as busy, per workload and in "busy_runs"; its
numbers stand, but a comparison resting on it is suspect. Nothing here
changes a machine setting.
"""

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tools")]

import checkout  # noqa: E402
from advlm import analysis, corpus, experiment, train  # noqa: E402
from advlm import autodiff as ad  # noqa: E402
from advlm.advsoft import AdvConfig, adv_nll_loss, epsilons  # noqa: E402
from advlm.model import LMConfig, init_params  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)
SEEDS = 3
GATED = tuple(m["name"] for m in DECLARED["end_to_end"])
FIGURES = ("train_tokens_per_s", "eval_tokens_per_s", "analyze_s", "ab_wall_s",
           "valid_ppl")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
NOTE = ("wide_vocab (V=5000, d=200, B=32, L=32) is the softmax-bound workload; "
        "the layers section times each layer at desk's shape and at v10k's.")
# Other work on the host, in cores, above which a run is flagged as busy.
BUSY_CORES = 0.10
# An end-to-end figure line of perfbench/run.py: "  name  value  unit  better".
FIGURE = re.compile(r"^  (\w+) +(\S+) +\S+ +(?:lower|higher)$")
LAYER_WARMUP = 2
LAYER_REPEATS = 9
LAYER_SEED = 0
# analyze_wide's probe count: 3 windows of 32 x 32 contexts + 1000 random
PROBES = 4072
ADV = AdvConfig("adaptive", experiment.ADV_ALPHA)


def spread(values) -> dict:
    """Median, interquartile range and the raw values."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "iqr": q3 - q1, "values": values}


def parse_output(stdout: str) -> dict:
    """The final JSON line of one perfbench run, its machine line and the
    printed FIGURES it has (a workload without the phase prints n/a)."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["machine"] = next((ln[len("machine: "):] for ln in lines
                              if ln.startswith("machine: ")), None)
    figures = {}
    for ln in lines:
        m = FIGURE.match(ln)
        if m and m.group(1) in FIGURES and m.group(2) != "n/a":
            figures[m.group(1)] = float(m.group(2))
    result["figures"] = figures
    return result


def is_good(result: dict) -> bool:
    return result.get("correct") is True and result.get("failed", 1) == 0


def summarize(untraced: list[dict], traced: list[dict]) -> dict:
    """One workload's entry from its untraced and traced run results."""
    out = {name: spread(r["metrics"][name]["value"] for r in untraced)
           for name in GATED}
    names = sorted({k for r in untraced for k in r["figures"]})
    out["figures"] = {k: statistics.median(r["figures"][k] for r in untraced
                                           if k in r["figures"]) for k in names}
    if traced:
        out["per_layer"] = {k: statistics.median(r["metrics"][k]["value"] for r in traced)
                            for k in traced[0]["metrics"]}
    return out


def medians(entry: dict) -> dict:
    """Every median of one workload entry, by dotted name."""
    flat = {name: entry[name]["median"] for name in GATED if name in entry}
    for group in ("figures", "per_layer"):
        flat.update({f"{group}.{k}": v for k, v in entry.get(group, {}).items()})
    return flat


def sections(bench: dict) -> dict:
    """Every median of a BENCH record by section, a workload or
    "layers.<shape>", and name."""
    out = {w: medians(e) for w, e in bench.get("workloads", {}).items()}
    for shape, entry in bench.get("layers", {}).get("shapes", {}).items():
        out[f"layers.{shape}"] = {k: v["median"] for k, v in entry["layers"].items()}
    return out


def diff(prev: dict, cur: dict) -> dict:
    """Per section, before/after/relative change of each median both hold."""
    earlier = sections(prev)
    out = {}
    for section, after in sections(cur).items():
        if section not in earlier:
            continue
        before = earlier[section]
        out[section] = {
            k: {"before": before[k], "after": after[k],
                "change": (after[k] - before[k]) / before[k] if before[k] else None}
            for k in after if k in before}
    return out


def layer_shapes() -> dict:
    """The acceptance config's shape on the bundled corpus, and a softmax-bound one."""
    acc = experiment.ACCEPTANCE
    return {"desk": {"V": experiment.load_split(None)[2], "d": experiment.EMBED_DIM,
                     "B": acc.batch_size, "L": acc.bptt_len},
            "v10k": {"V": 10_000, "d": 200, "B": 32, "L": 32}}


def layer_calls(shape: dict) -> dict:
    """name -> (prepare, call) for each layer at one shape; call() is timed,
    after prepare() if it is not None. The inputs are seeded: a one-layer
    model's init_params, random ids, targets, upstream gradients and probes."""
    V, d, B, L = shape["V"], shape["d"], shape["B"], shape["L"]
    n = L * B
    rng = np.random.default_rng(LAYER_SEED)
    cfg = LMConfig(vocab_size=V, embed_dim=d)
    params = init_params(cfg, LAYER_SEED)
    emb, lay, W = params.embedding, params.layers[0], params.embedding.values
    ids = rng.integers(0, V, size=n)
    targets = rng.integers(0, V, size=(L, B))
    flat, no_shift = targets.reshape(-1), np.zeros(n)
    g = rng.normal(size=(n, d))  # upstream gradient of the gather and the LSTM
    probes = rng.normal(size=(PROBES, d))
    eps_per_word = epsilons(ADV, W)
    path = experiment.bundled_corpus_path()
    h0 = np.zeros((B, d))
    x = ad.gather_rows(emb, ids)

    def lstm():
        return ad.lstm_layer(x, lay.w_x, lay.w_h, lay.bias, h0, h0)

    def taped(op):
        def call():
            with ad.Tape():
                op()
        return call

    def backward_fn(op):  # the backward closure op records on a tape
        with ad.Tape() as tape:
            op()
        return tape.records[-1][2]

    h = lstm()[0]
    gather_back = backward_fn(lambda: ad.gather_rows(emb, ids))
    lstm_back = backward_fn(lstm)
    stepped = init_params(cfg, LAYER_SEED)  # sgd_step moves its own copy
    grads = [rng.normal(size=t.shape) for t in stepped.tensors()]

    def fresh_grads():  # sgd_step scales each .grad in place, then clears it
        for t, grad in zip(stepped.tensors(), grads):
            t.grad = grad.copy()

    return {
        "corpus.read_tokens": (None, lambda: corpus.read_tokens(path)),
        "gather_rows.forward": (None, lambda: ad.gather_rows(emb, ids)),
        "gather_rows.backward": (None, lambda: gather_back(g)),
        "lstm_layer.forward": (None, lstm),
        "lstm_layer.forward_taped": (None, taped(lstm)),
        "lstm_layer.backward": (None, lambda: lstm_back(g)),
        "nll_rows.forward": (None, lambda: ad.nll_rows(h, emb, flat, no_shift)),
        "nll_rows.taped": (None, taped(lambda: ad.nll_rows(h, emb, flat, no_shift))),
        "nll_rows.taped_adv": (None, taped(lambda: adv_nll_loss(params, h, targets, ADV))),
        "train.sgd_step": (fresh_grads, lambda: train.sgd_step(stepped, 1.0, 0.25)),
        "analysis.singular_values": (None, lambda: analysis.singular_values(W)),
        "analysis.nearest_neighbor_distances":
            (None, lambda: analysis.nearest_neighbor_distances(W)),
        "analysis._recognized_per_probe":
            (None, lambda: analysis._recognized_per_probe(W, probes, eps_per_word)),
    }


def time_layers(shape: dict, repeats: int) -> dict:
    """name -> spread of the seconds per call of each layer at one shape,
    its first LAYER_WARMUP calls discarded."""
    out = {}
    for name, (prepare, call) in layer_calls(shape).items():
        times = []
        for _ in range(LAYER_WARMUP + repeats):
            if prepare is not None:
                prepare()
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[name] = spread(times[LAYER_WARMUP:])
    return out


def machine_line() -> dict:
    """perfbench's machine record, BLAS build and thread count included, of
    this process."""
    run = checkout.load("perfbench_run", RUN)
    program = checkout.load("perfbench_program", os.path.join(ROOT, "perfbench", "program.py"))
    return run.machine(program.openblas_threads())


def layers_section() -> dict:
    """The "layers" section: every layer timed at each of layer_shapes().
    Each median and IQR is also printed to stderr, in ms."""
    section = {"machine": machine_line(), "seed": LAYER_SEED, "probes": PROBES,
               "warmup": LAYER_WARMUP, "repeats": LAYER_REPEATS, "shapes": {}}
    for shape_name, shape in layer_shapes().items():
        timed = time_layers(shape, LAYER_REPEATS)
        section["shapes"][shape_name] = {**shape, "layers": timed}
        for name, s in timed.items():
            print(f"layers {shape_name:<5} {name:<36} {1e3 * s['median']:10.3f} ms"
                  f"  IQR {1e3 * s['iqr']:.3f}", file=sys.stderr)
    return section


def bench_paths(directory: str) -> tuple[str, str | None]:
    """(path of the next BENCH file, path of the latest one or None)."""
    taken = [int(m.group(1)) for p in os.listdir(directory)
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p))]
    n = max(taken, default=0)
    prev = os.path.join(directory, f"BENCH_{n}.json") if n else None
    return os.path.join(directory, f"BENCH_{n + 1}.json"), prev


def busy_cpu_s(stat_text: str, ticks_per_s: int) -> float:
    """Busy CPU seconds of all cores so far, from /proc/stat text: the "cpu"
    line's user, nice, system, irq, softirq and steal ticks. Guest ticks are
    left out because user and nice already count them."""
    fields = stat_text.splitlines()[0].split()
    if fields[0] != "cpu":
        raise ValueError(f"not a /proc/stat cpu line: {fields[0]!r}")
    user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fields[1:9])
    return (user + nice + system + irq + softirq + steal) / ticks_per_s


def host_load(stat_before: str, stat_after: str, children_cpu_s: float,
              wall_s: float, ticks_per_s: int) -> dict:
    """CPU time the host spent outside the bench's children over one run, and
    whether it exceeds BUSY_CORES of one core."""
    other = (busy_cpu_s(stat_after, ticks_per_s) - busy_cpu_s(stat_before, ticks_per_s)
             - children_cpu_s)
    cores = other / wall_s
    return {"wall_s": wall_s, "other_cpu_s": other, "other_cores": cores,
            "busy": cores > BUSY_CORES}


def _proc_stat() -> str:
    with open("/proc/stat", encoding="ascii") as fh:
        return fh.read()


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_perfbench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    print(" ".join(cmd[1:]), file=sys.stderr, flush=True)
    stat, children, t0 = _proc_stat(), _children_cpu_s(), time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    host = host_load(stat, _proc_stat(), _children_cpu_s() - children,
                     time.monotonic() - t0, os.sysconf("SC_CLK_TCK"))
    try:
        result = parse_output(done.stdout)
    except json.JSONDecodeError:
        result = {}
    if done.returncode != 0 or not is_good(result):
        sys.stderr.write(done.stderr[-2000:])
        result["correct"] = False
    result["host"] = {"seed": seed, "trace": trace, **host}
    return result


def time_tier1() -> dict:
    t0 = time.monotonic()
    done = subprocess.run(TIER1, capture_output=True, text=True, cwd=ROOT,
                          env=checkout.child_env(ROOT))
    wall = time.monotonic() - t0
    tail = done.stdout.strip().splitlines()
    return {"command": " ".join(["PYTHONPATH=src python", *TIER1[1:]]),
            "wall_s": wall, "summary": tail[-1] if tail else ""}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="write BENCH_<n>.json from perfbench")
    ap.add_argument("--quick", action="store_true",
                    help="1 seed, 5 s, untraced, no Tier-1; print, write nothing")
    args = ap.parse_args(argv)
    seeds = 1 if args.quick else SEEDS
    seconds = 5.0 if args.quick else DECLARED["run_seconds"]
    traces = (0,) if args.quick else (0, 1)

    try:
        head, dirty = checkout.revision(ROOT)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"error: no git revision for {ROOT}: {e}", file=sys.stderr)
        return 1
    bench = {"revision": head, "dirty": dirty, "seeds": list(range(1, seeds + 1)),
             "seconds": seconds, "note": NOTE, "workloads": {}, "busy_runs": []}
    for workload in (w["name"] for w in DECLARED["workloads"]):
        runs = {t: [] for t in traces}
        for seed in bench["seeds"]:
            for t in traces:
                r = run_perfbench(workload, seed, seconds, t)
                if not is_good(r):
                    print(f"error: {workload} seed {seed} trace {t} was not correct; "
                          "nothing written", file=sys.stderr)
                    return 1
                if r["host"]["busy"]:
                    print(f"warning: {workload} seed {seed} trace {t}: other work took "
                          f"{r['host']['other_cores']:.2f} cores", file=sys.stderr)
                    bench["busy_runs"].append(f"{workload} seed {seed} trace {t}")
                runs[t].append(r)
        bench.setdefault("machine", runs[0][0]["machine"])
        bench["workloads"][workload] = summarize(runs[0], runs.get(1, []))
        bench["workloads"][workload]["host"] = [r["host"] for t in traces for r in runs[t]]
    if not args.quick:
        bench["tier1"] = time_tier1()
    bench["layers"] = layers_section()

    path, prev_path = bench_paths(ROOT)
    if prev_path:
        with open(prev_path, encoding="utf-8") as fh:
            bench["change_vs"] = os.path.basename(prev_path)
            bench["change"] = diff(json.load(fh), bench)
    text = json.dumps(bench, indent=1, sort_keys=True) + "\n"
    if args.quick:
        sys.stdout.write(text)
        return 0
    corpus.write_text_atomic(path, text)
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
