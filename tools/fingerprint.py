"""Digest every output a change should leave bitwise unchanged.

    python3 tools/fingerprint.py                    # JSON of this checkout
    python3 tools/fingerprint.py --against HEAD~1   # compare with a revision

The entries, all on the perfbench inputs of seed 4242:

- desk, wide_vocab: the trained parameters' digest and model.bin's sha256,
  and each window's tape counts (``records_per_backward``, ``leaf_ratios``)
  from the run's ``--trace`` dump; tracing leaves the parameters' bits alone;
- analyze_wide: the sha256 of report.json and nn_distances.csv;
- ab_grid: the nine (alpha, seed) results of the A/B experiment;
- verify: every suite line of ``advlm verify --seed 0`` and its exit code;
  no line holds a time;
- cli_train: ``advlm train`` for 2 epochs on desk's corpus with two layers,
  ``adaptive:0.005`` and the default input noise (0.2 falling to 0): the
  sha256 of model.bin, vocab.tsv, config.txt, and log.csv without wall_s;
- cli_eval: on cli_train's checkpoint and corpus at the default sizes,
  ``advlm eval --split valid``'s output line, and the sha256 of report.json
  and nn_distances.csv from ``advlm analyze --split valid --seed 4242``;
- corpora: the sha256 of ``generate(seed, n)`` from the checkout's own
  tools/make_tiny_corpus.py, at desk's and ab_grid's token counts.

Each workload runs once through ``perfbench/program.py`` in its own process,
as perfbench/run.py runs it; verify, cli_train and cli_eval run the
checkout's CLI. Nothing here is timed. The inputs are generated once, by
this checkout's perfbench/inputs.py, and both sides of a comparison read the
same files; the corpora entry is what shows a change to the generator
itself. The JSON also holds each side's revision and the machine line of
perfbench/run.py (BLAS build and thread count). Digests depend on both, so
a digest file is a record, never a gate.

--against REV runs the same entries in a worktree of REV (tools/checkout.py)
in the same environment, so at the same OPENBLAS_NUM_THREADS, and prints
equal or different per entry with, for parameters that differ, the largest
absolute and relative difference. The exit code is 1 when an entry differs,
and 2, before any entry runs, when REV names no commit.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tools")]

import checkout  # noqa: E402
from advlm.corpus import write_text_atomic  # noqa: E402
from advlm.model import load_checkpoint  # noqa: E402

SEED = 4242  # one fixed input seed, so fingerprints of any two revisions compare
ENTRIES = ("desk", "wide_vocab", "analyze_wide", "ab_grid", "verify", "cli_train",
           "cli_eval", "corpora")
LM_ENTRIES = ("desk", "wide_vocab")
MODEL_ENTRIES = LM_ENTRIES + ("cli_train",)  # each leaves <work>/<name>/model.bin
CLI_TRAIN_FLAGS = ("--epochs", "2", "--num-layers", "2", "--hidden-dim", "48",
                   "--adv", "adaptive:0.005", "--seed", str(SEED))
bench_run = checkout.load("perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
bench_inputs = checkout.load("perfbench_inputs", os.path.join(ROOT, "perfbench", "inputs.py"))


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def log_sha256(path: str) -> str:
    """sha256 of a training log with its wall_s column dropped."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    wall = rows[0].index("wall_s")
    text = "\n".join(",".join(row[:wall] + row[wall + 1:]) for row in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_inputs(names, directory: str) -> dict:
    """Write the perfbench inputs of every program entry in names; return
    the path of each one's inputs.json. cli_train reads desk's."""
    paths = {}
    for name in names:
        if name in ("verify", "cli_train", "cli_eval", "corpora"):
            continue
        where = os.path.join(directory, name)
        inputs = bench_inputs.make_inputs(name, SEED, where)
        paths[name] = os.path.join(where, "inputs.json")
        write_text_atomic(paths[name], json.dumps(inputs))
    return paths


def run_entry(root: str, name: str, inputs: dict, work: str):
    """(fields, result.json or None) of one entry run from the checkout at root.
    cli_eval reads what cli_train left in work."""
    env = checkout.child_env(root)

    def advlm(*args, cwd, check=True):
        return subprocess.run([sys.executable, "-m", "advlm.cli", *args], cwd=cwd,
                              env=env, check=check, stdout=subprocess.PIPE, text=True)

    if name == "verify":
        done = advlm("verify", "--seed", "0", cwd=root, check=False)
        return {"lines": done.stdout.splitlines(), "exit": done.returncode}, None
    if name == "corpora":
        tool = checkout.load("make_tiny_corpus", os.path.join(root, "tools", "make_tiny_corpus.py"))
        return {f"{workload} ({n} tokens)":
                hashlib.sha256(tool.generate(SEED, n).encode("utf-8")).hexdigest()
                for workload, n in (("desk", bench_inputs.DESK_TOKENS),
                                    ("ab_grid", bench_inputs.AB_TOKENS))}, None
    out = os.path.join(work, name)
    if name == "cli_train":
        # a copy of the corpus and a relative --out keep paths out of config.txt
        with open(inputs["desk"], encoding="utf-8") as fh:
            corpus = json.load(fh)["corpus"]
        os.makedirs(out)
        shutil.copyfile(corpus, os.path.join(out, "corpus.txt"))
        advlm("train", "--corpus", "corpus.txt", "--out", ".", *CLI_TRAIN_FLAGS, cwd=out)
        fields = {f: sha256(os.path.join(out, f))
                  for f in ("model.bin", "vocab.tsv", "config.txt")}
        fields["log.csv without wall_s"] = log_sha256(os.path.join(out, "log.csv"))
        return fields, None
    if name == "cli_eval":
        trained = os.path.join(work, "cli_train")
        given = ("--checkpoint", os.path.join(trained, "model.bin"),
                 "--corpus", os.path.join(trained, "corpus.txt"), "--split", "valid")
        os.makedirs(out)
        fields = {"eval": advlm("eval", *given, cwd=out).stdout.strip()}
        advlm("analyze", *given, "--out", ".", "--seed", str(SEED), cwd=out)
        fields.update({f: sha256(os.path.join(out, f))
                       for f in ("report.json", "nn_distances.csv")})
        return fields, None
    trace = os.path.join(out, "trace.json")
    subprocess.run([sys.executable, os.path.join(root, "perfbench", "program.py"),
                    "--workload", name, "--inputs", inputs[name], "--seed", str(SEED),
                    "--out", out, *(("--trace", trace) if name in LM_ENTRIES else ())],
                   check=True, stdout=subprocess.DEVNULL)
    with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    if name in LM_ENTRIES:
        with open(trace, encoding="utf-8") as fh:
            counts = json.load(fh)
        return {"digest": result["digest"],
                "model_bin_sha256": sha256(result["checkpoint"]),
                "records_per_backward": counts["records_per_backward"],
                "leaf_ratios": counts["leaf_ratios"]}, result
    if name == "analyze_wide":
        return {f: sha256(os.path.join(out, f))
                for f in ("report.json", "nn_distances.csv")}, result
    return {"runs": result["runs"]}, result


def fingerprint(root: str, names, inputs: dict, work: str) -> dict:
    """The fingerprint of the checkout at root; model.bin files stay in work."""
    entries, threads = {}, None
    for name in names:
        entries[name], result = run_entry(root, name, inputs, work)
        if result is not None:
            threads = result["openblas_threads"]
    info = bench_run.machine(threads)
    head, dirty = checkout.revision(root)  # machine() reads this checkout's
    info["git"] = head + ("+dirty" if dirty else "")
    return {"seed": SEED, "machine": info, "entries": entries}


def param_diff(path_a: str, path_b: str) -> str:
    """Largest absolute and relative difference over two checkpoints' tensors."""
    a, b = load_checkpoint(path_a), load_checkpoint(path_b)
    if a.config != b.config:
        return f"configs differ: {a.config} vs {b.config}"
    worst_abs = worst_rel = 0.0
    for (_, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
        diff = np.abs(ta.values - tb.values)
        scale = np.maximum(np.abs(ta.values), np.abs(tb.values))
        worst_abs = max(worst_abs, float(diff.max()))
        worst_rel = max(worst_rel, float((diff[scale > 0] / scale[scale > 0]).max(initial=0)))
    return f"max abs diff {worst_abs:.3g}, max rel diff {worst_rel:.3g}"


def compare(this: dict, other: dict, work_this: str, work_other: str) -> bool:
    """Print one line per entry; True when every entry is equal."""
    for key in ("git", "openblas_threads"):
        print(f"{key:<16} {this['machine'][key]} vs {other['machine'][key]}")
    same = True
    for name, fields in this["entries"].items():
        if fields == other["entries"][name]:
            print(f"{name:<16} equal")
            continue
        same = False
        detail = ""
        if name in MODEL_ENTRIES:
            detail = ": " + param_diff(*(os.path.join(w, name, "model.bin")
                                         for w in (work_this, work_other)))
        print(f"{name:<16} different{detail}")
    return same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="REV", help="revision to compare with")
    ap.add_argument("--out", help="write the JSON here (default: stdout, "
                                  "unless --against)")
    args = ap.parse_args(argv)
    if args.against:
        try:  # before any entry runs
            args.against = checkout.git(ROOT, "rev-parse", "--verify",
                                        f"{args.against}^{{commit}}")
        except subprocess.CalledProcessError:
            print(f"error: {args.against} is not a commit of {ROOT}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as tmp:
        inputs = make_inputs(ENTRIES, os.path.join(tmp, "in"))
        this = fingerprint(ROOT, ENTRIES, inputs, os.path.join(tmp, "this"))
        record, same = this, True
        if args.against:
            with checkout.worktree(ROOT, args.against) as tree:
                other = fingerprint(tree, ENTRIES, inputs, os.path.join(tmp, "other"))
            record = {"this": this, "against": other}
            same = compare(this, other, os.path.join(tmp, "this"),
                           os.path.join(tmp, "other"))
        text = json.dumps(record, indent=1) + "\n"
        if args.out:
            write_text_atomic(args.out, text)
        elif not args.against:
            sys.stdout.write(text)
        return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
