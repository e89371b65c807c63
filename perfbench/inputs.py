"""Seeded input generators for the benchmark workloads.

Every file the program reads during a run is written here from the workload
seed alone, so the same seed always gives byte-identical inputs:

- desk and ab_grid corpora come from the bundled-corpus generator
  ``tools/make_tiny_corpus.generate``; its default seed reproduces
  ``src/advlm/data/tiny.txt``;
- the wide corpora are Zipfian over ``WIDE_TYPES`` word types, with every
  type placed once in the training head so the vocabulary is complete;
- the analyze_wide checkpoint is an untrained ``init_params`` model saved
  with ``save_checkpoint`` next to its ``vocab.tsv``.
"""

from __future__ import annotations

import importlib.util
import os

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY_PATH = os.path.join(ROOT, "src", "advlm", "data", "tiny.txt")

DESK_TOKENS = 55_000
AB_TOKENS = 2_000
# 4998 word types plus the reserved <unk> and <eos> give V = 5000.
WIDE_TYPES = 4_998
WIDE_BATCH = 32
WIDE_BPTT = 32
# Each training window keeps its tape until the cyclic collector runs, so
# peak memory grows by about a third of a GB per window; eight windows keep
# the program under half of an 8 GB machine.
WIDE_TRAIN_WINDOWS = 8
WIDE_VALID_WINDOWS = 2
ANALYZE_TOKENS = 40_000
ANALYZE_DIM = 200
ZIPF_EXPONENT = 1.1


def load_corpus_tool():
    """Import tools/make_tiny_corpus.py from the checkout."""
    path = os.path.join(ROOT, "tools", "make_tiny_corpus.py")
    spec = importlib.util.spec_from_file_location("make_tiny_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def desk_text(seed: int) -> str:
    return load_corpus_tool().generate(seed, DESK_TOKENS)


def ab_text(seed: int) -> str:
    return load_corpus_tool().generate(seed, AB_TOKENS)


def tiny_reproduced(text: str) -> bool:
    """True when text is byte for byte the bundled corpus."""
    with open(TINY_PATH, "rb") as fh:
        return fh.read() == text.encode("utf-8")


def stream_tokens(windows: int, batch: int = WIDE_BATCH, bptt: int = WIDE_BPTT) -> int:
    """Fewest tokens that batchify cuts into this many windows."""
    return batch * (windows * bptt + 1)


def _zipf_lines(rng, words, min_tokens: int) -> list[str]:
    ranks = np.arange(1, len(words) + 1, dtype=np.float64)
    p = ranks ** -ZIPF_EXPONENT
    p /= p.sum()
    lines, tokens = [], 0
    while tokens < min_tokens:
        n = int(rng.integers(5, 21))
        lines.append(" ".join(words[i] for i in rng.choice(len(words), n, p=p)))
        tokens += n + 1  # the line end reads as one <eos> token
    return lines


def wide_corpus(seed: int, head_tokens: int, tail_tokens: int) -> tuple[str, str]:
    """A head that holds every type at least once, then a Zipfian tail.

    The head starts with all WIDE_TYPES types in a seeded order, twelve to a
    line, and is topped up with Zipfian lines to head_tokens tokens; the tail
    is Zipfian lines of at least tail_tokens tokens.
    """
    rng = np.random.default_rng([seed, WIDE_TYPES])
    words = [f"w{i:04d}" for i in range(WIDE_TYPES)]
    order = rng.permutation(WIDE_TYPES)
    cover = [" ".join(words[i] for i in order[k:k + 12])
             for k in range(0, WIDE_TYPES, 12)]
    covered = WIDE_TYPES + len(cover)
    head = cover + _zipf_lines(rng, words, head_tokens - covered)
    tail = _zipf_lines(rng, words, tail_tokens)
    return "\n".join(head) + "\n", "\n".join(tail) + "\n"


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def make_inputs(workload: str, seed: int, directory: str) -> dict:
    """Write the workload's input files into directory; return their paths
    and the facts the checks need."""
    os.makedirs(directory, exist_ok=True)
    out = {}
    if workload == "desk":
        text = desk_text(seed)
        out["corpus"] = _write(os.path.join(directory, "desk.txt"), text)
        out["is_tiny"] = tiny_reproduced(text)
    elif workload == "ab_grid":
        out["corpus"] = _write(os.path.join(directory, "ab.txt"), ab_text(seed))
    elif workload == "wide_vocab":
        train, valid = wide_corpus(seed, stream_tokens(WIDE_TRAIN_WINDOWS),
                                   stream_tokens(WIDE_VALID_WINDOWS))
        out["train"] = _write(os.path.join(directory, "train.txt"), train)
        out["valid"] = _write(os.path.join(directory, "valid.txt"), valid)
    elif workload == "analyze_wide":
        head, tail = wide_corpus(seed, int(ANALYZE_TOKENS * 0.9),
                                 ANALYZE_TOKENS - int(ANALYZE_TOKENS * 0.9))
        out["corpus"] = _write(os.path.join(directory, "wide.txt"), head + tail)
        out.update(_analyze_checkpoint(seed, out["corpus"], directory))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def _analyze_checkpoint(seed: int, corpus: str, directory: str) -> dict:
    from advlm.cli import split_tokens
    from advlm.corpus import build_vocab, read_tokens
    from advlm.model import LMConfig, init_params, save_checkpoint

    head, _ = split_tokens(read_tokens(corpus))
    vocab = build_vocab(head)
    params = init_params(LMConfig(len(vocab), ANALYZE_DIM), seed)
    checkpoint = os.path.join(directory, "model.bin")
    save_checkpoint(params, checkpoint)
    vocab.save(os.path.join(directory, "vocab.tsv"))
    return {"checkpoint": checkpoint, "vocab_size": len(vocab)}
