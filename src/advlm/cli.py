"""Command-line surface: train, eval, analyze, and verify subcommands.

Config files are flat `key = value` text with `#` comments; flags override
file values. Every run is deterministic given (seed, config, inputs), and
all output files are written atomically. Exit codes: 0 ok, 2 config error,
3 numeric failure, 4 I/O or format error, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import os
import signal
import sys
from dataclasses import dataclass

import numpy as np

from .advsoft import AdvConfig
from .analysis import context_probes, diversity_report, random_probes
from .corpus import (BatchStream, Vocab, batchify, build_vocab, read_tokens,
                     split_tokens, text_lines, write_text_atomic)
from .errors import (CheckpointError, ConfigError, CorpusError, NumericError,
                     ShapeError)
from .model import LMConfig, init_params, load_checkpoint, save_checkpoint
from .train import LOG_HEADER, TrainConfig, evaluate, train
from .verify import run_all


@dataclass(frozen=True)
class Opt:
    parse: type
    default: object
    help: str


# Every key has a documented default, read from the library where it defines
# one; this table drives file parsing, flag generation, and serialization, so
# the three surfaces cannot drift apart.
DEFAULTS = {name: p.default for obj in (TrainConfig, LMConfig, build_vocab)
            for name, p in inspect.signature(obj).parameters.items()}
TRAIN_SCHEMA = {
    "corpus": Opt(str, "", "single corpus file, split 90/10 into train/valid"),
    "train": Opt(str, "", "training corpus file (requires valid)"),
    "valid": Opt(str, "", "validation corpus file (requires train)"),
    "out": Opt(str, "run", "output directory for vocab/checkpoint/log"),
    "adv": Opt(str, "off", "perturbation: off, fixed:EPS, or adaptive:ALPHA"),
    "epochs": Opt(int, 20, "number of training epochs"),
    "batch_size": Opt(int, 32, "sequences per batch"),
    "bptt_len": Opt(int, 32, "steps per truncated-backprop window"),
    "learning_rate": Opt(float, DEFAULTS["learning_rate"], "SGD learning rate"),
    "grad_clip": Opt(float, DEFAULTS["grad_clip"], "global gradient-norm clip"),
    "seed": Opt(int, DEFAULTS["seed"], "RNG seed (ADVLM_SEED overrides this default)"),
    "embed_dim": Opt(int, 64, "embedding width (also output width, tied)"),
    "hidden_dim": Opt(int, DEFAULTS["hidden_dim"],
                      "LSTM width for non-final layers; 0 = embed_dim"),
    "num_layers": Opt(int, DEFAULTS["num_layers"], "number of LSTM layers"),
    "init_range": Opt(float, DEFAULTS["init_range"], "uniform init range for all weights"),
    "input_noise_start": Opt(float, 0.2, "input noise std at epoch 0"),
    "input_noise_end": Opt(float, DEFAULTS["input_noise_end"],
                           "input noise std at the last epoch"),
    "eval_interval": Opt(int, DEFAULTS["eval_interval"],
                         "validate every this many epochs"),
    "min_count": Opt(int, DEFAULTS["min_count"], "map tokens rarer than this to <unk>"),
}


def parse_config(text: str) -> dict:
    """Parse flat `key = value` lines; unknown keys and bad values are errors."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in TRAIN_SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        try:
            out[key] = TRAIN_SCHEMA[key].parse(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}")
    return out


def serialize_config(cfg: dict) -> str:
    """Canonical text form; floats use repr so parsing back is exact. A value
    that parse_config would not return (a string holding '#', a line break
    or surrounding blanks) is a ConfigError naming its key."""
    lines = []
    for key in TRAIN_SCHEMA:
        if key not in cfg:
            continue
        value = cfg[key]
        line = f"{key} = {repr(value) if isinstance(value, float) else value}"
        try:
            same = parse_config(line) == {key: value}
        except ConfigError:
            same = False
        if not same:
            raise ConfigError(f"{key} = {value!r} does not read back from a config file")
        lines.append(line)
    return "\n".join(lines) + "\n"


def resolve_seed(value) -> int:
    """The given seed, else ADVLM_SEED, else 0; it must be non-negative."""
    source = "seed"
    if value is None:
        source, value = "ADVLM_SEED", os.environ.get("ADVLM_SEED", "0")
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ConfigError(f"{source} must be a non-negative integer, got {value!r}")
    return seed


def _merged_train_config(args) -> dict:
    cfg = {key: opt.default for key, opt in TRAIN_SCHEMA.items()}
    file_cfg = {}
    if args.config is not None:
        file_cfg = parse_config("".join(text_lines(args.config, "config", ConfigError)))
        cfg.update(file_cfg)
    for key in TRAIN_SCHEMA:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    if args.seed is None and "seed" not in file_cfg:
        cfg["seed"] = resolve_seed(None)
    return cfg


def _load_train_valid(cfg: dict) -> tuple[list[str], list[str]]:
    if cfg["corpus"]:
        if cfg["train"] or cfg["valid"]:
            raise ConfigError("give either corpus or train+valid, not both")
        return split_tokens(read_tokens(cfg["corpus"]))
    if not (cfg["train"] and cfg["valid"]):
        raise ConfigError("need either corpus or both train and valid")
    return read_tokens(cfg["train"]), read_tokens(cfg["valid"])


def cmd_train(args) -> int:
    cfg = _merged_train_config(args)
    adv = AdvConfig.parse(cfg["adv"])
    train_tokens, valid_tokens = _load_train_valid(cfg)
    vocab = build_vocab(train_tokens, min_count=cfg["min_count"])
    lm_cfg = LMConfig(vocab_size=len(vocab), embed_dim=cfg["embed_dim"],
                      hidden_dim=cfg["hidden_dim"], num_layers=cfg["num_layers"],
                      init_range=cfg["init_range"])
    tr_cfg = TrainConfig(epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                         bptt_len=cfg["bptt_len"],
                         learning_rate=cfg["learning_rate"],
                         grad_clip=cfg["grad_clip"], seed=cfg["seed"], adv=adv,
                         input_noise_start=cfg["input_noise_start"],
                         input_noise_end=cfg["input_noise_end"],
                         eval_interval=cfg["eval_interval"])
    streams = []
    for side, tokens in (("training", train_tokens), ("validation", valid_tokens)):
        try:
            streams.append(batchify(vocab.encode(tokens), cfg["batch_size"],
                                    cfg["bptt_len"]))
        except ConfigError as exc:
            raise ConfigError(f"{side} side: {exc}") from exc
    train_stream, valid_stream = streams
    # both before --out exists: a config that does not read back, or a model
    # that does not fit, leaves no run directory
    config_text = serialize_config(cfg)
    params = init_params(lm_cfg, cfg["seed"])
    os.makedirs(cfg["out"], exist_ok=True)
    vocab.save(os.path.join(cfg["out"], "vocab.tsv"))
    write_text_atomic(os.path.join(cfg["out"], "config.txt"), config_text)
    print(f"vocab_size={len(vocab)}")
    print(LOG_HEADER)

    saved = 0

    def epoch_done(log):
        nonlocal saved
        # atomic writes, and a Ctrl-C is held until both files hold this epoch
        print(log.rows[-1].as_csv(), flush=True)
        held = []
        previous = signal.signal(signal.SIGINT, lambda *_: held.append(True))
        try:
            save_checkpoint(params, os.path.join(cfg["out"], "model.bin"))
            log.save(os.path.join(cfg["out"], "log.csv"))
            saved = len(log.rows)
        finally:
            signal.signal(signal.SIGINT, previous)
        if held:
            raise KeyboardInterrupt

    try:
        train(params, train_stream, valid_stream, tr_cfg, progress=epoch_done)
    except KeyboardInterrupt:
        raise KeyboardInterrupt(f"{saved} of {cfg['epochs']} epochs saved in "
                                f"{cfg['out']}") from None
    return 0


def _load_vocab_for(args, params) -> Vocab:
    """--vocab, or the vocab.tsv next to --checkpoint; it must match params."""
    path = args.vocab
    if path is None:
        path = os.path.join(os.path.dirname(args.checkpoint) or ".", "vocab.tsv")
    vocab = Vocab.load(path)
    if len(vocab) != params.config.vocab_size:
        raise ConfigError(
            f"vocab has {len(vocab)} entries but checkpoint expects "
            f"{params.config.vocab_size}")
    return vocab


def _eval_stream(args, vocab: Vocab) -> BatchStream:
    tokens = read_tokens(args.corpus)
    if args.split != "full":
        head, tail = split_tokens(tokens)
        tokens = head if args.split == "train" else tail
    try:
        return batchify(vocab.encode(tokens), args.batch_size, args.bptt_len)
    except ConfigError as exc:
        raise ConfigError(f"--split {args.split} of {args.corpus}: {exc}") from exc


def cmd_eval(args) -> int:
    params = load_checkpoint(args.checkpoint)
    ppl = evaluate(params, _eval_stream(args, _load_vocab_for(args, params)),
                   f"--split {args.split}")
    print(f"perplexity={ppl:.6g}")
    return 0


def cmd_analyze(args) -> int:
    params = load_checkpoint(args.checkpoint)
    adv = AdvConfig.parse(args.adv)
    W = params.embedding.values
    rng = np.random.default_rng(resolve_seed(args.seed))
    if args.corpus is not None:
        vocab = _load_vocab_for(args, params)
        stream = _eval_stream(args, vocab)
        probes = context_probes(params, stream, num_random=args.num_random,
                                rng=rng)
        words = vocab.id_to_token
    else:
        # No contexts available: probe with random directions at the typical
        # embedding-row scale. Row norms that overflow are not warned about
        # here: diversity_report rejects such a W next (NumericError, exit 3).
        with np.errstate(over="ignore"):
            probes = [("random", random_probes(W, args.num_random, rng))]
        words = [str(i) for i in range(W.shape[0])]
    report = diversity_report(W, adv, probes)
    os.makedirs(args.out, exist_ok=True)
    report.save(os.path.join(args.out, "report.json"))
    buf = io.StringIO()
    rows = csv.writer(buf, lineterminator="\n")  # quotes a token holding , or "
    rows.writerow(["word", "nn_distance"])
    rows.writerows((words[i], "%.9g" % d) for i, d in enumerate(report.nn_distances))
    write_text_atomic(os.path.join(args.out, "nn_distances.csv"), buf.getvalue())
    print("median_nn_distance=%.6g" % float(np.median(report.nn_distances)))
    print("sv_entropy=%.6g" % report.sv_entropy)
    print("recognized_words=%d" % len(report.recognized_words))
    return 0


def cmd_verify(args) -> int:
    results = run_all(seed=resolve_seed(args.seed), scale=args.scale)
    for result in results:
        print(result.line(), flush=True)
    return 0 if all(r.passed for r in results) else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advlm",
        description="LSTM language model with adversarially perturbed "
                    "output embeddings")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write artifacts")
    p_train.add_argument("--config", help="flat key = value config file")
    for key, opt in TRAIN_SCHEMA.items():
        p_train.add_argument("--" + key.replace("_", "-"), dest=key,
                             type=opt.parse, default=None,
                             help=f"{opt.help} (default: {opt.default!r})")
    p_train.set_defaults(func=cmd_train)

    def add_eval_flags(p, corpus_required):
        p.add_argument("--checkpoint", required=True, help="model.bin path")
        p.add_argument("--corpus", required=corpus_required,
                       help="corpus file to evaluate on")
        p.add_argument("--vocab",
                       help="vocab.tsv path (default: next to the checkpoint)")
        p.add_argument("--split", choices=("full", "train", "valid"),
                       default="full",
                       help="evaluate on the whole file or one side of the "
                            "90/10 split (default: full)")
        p.add_argument("--batch-size", type=int,
                       default=TRAIN_SCHEMA["batch_size"].default)
        p.add_argument("--bptt-len", type=int,
                       default=TRAIN_SCHEMA["bptt_len"].default)

    p_eval = sub.add_parser("eval", help="print perplexity on a corpus")
    add_eval_flags(p_eval, True)
    p_eval.set_defaults(func=cmd_eval)

    p_an = sub.add_parser("analyze",
                          help="write embedding-diversity report and CSV")
    add_eval_flags(p_an, False)
    p_an.add_argument("--adv", default=TRAIN_SCHEMA["adv"].default,
                      help="perturbation used for recognizability "
                           "(off, fixed:EPS, adaptive:ALPHA)")
    p_an.add_argument("--out", default=".", help="output directory")
    p_an.add_argument("--num-random", type=int, default=1000,
                      help="number of random probe directions")
    p_an.add_argument("--seed", type=int, default=None,
                      help="probe RNG seed (default: ADVLM_SEED or 0)")
    p_an.set_defaults(func=cmd_analyze)

    p_ver = sub.add_parser("verify",
                           help="run the property suites and print pass/fail")
    p_ver.add_argument("--seed", type=int, default=None,
                       help="suite RNG seed (default: ADVLM_SEED or 0)")
    p_ver.add_argument("--scale", type=float, default=1.0,
                       help="instance-count multiplier for quick runs")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CorpusError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: the requested sizes do not fit in memory: {exc}",
              file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt as exc:
        print("error: interrupted" + (f"; {exc}" if exc.args else ""),
              file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
