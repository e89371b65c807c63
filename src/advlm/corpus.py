"""Text ingestion: vocabulary, encoding, and contiguous BPTT batching.

Tokenization is whitespace splitting with one end-of-sentence marker appended
per line; no lowercasing or other normalization.
"""

from __future__ import annotations

import contextlib
import os
from collections import Counter

import numpy as np

from .autodiff import integer_ids
from .errors import ConfigError, CorpusError

UNK = "<unk>"
EOS = "<eos>"
UNK_ID = 0
VALID_FRACTION = 0.1


@contextlib.contextmanager
def replacing(path: str):
    """The one file writer: yield a binary file on a sibling .tmp, then rename
    it over path. If anything raises first, the .tmp is removed and path keeps
    its previous contents."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_text_atomic(path: str, text: str) -> None:
    """Write text to path as UTF-8 through replacing()."""
    with replacing(path) as fh:
        fh.write(text.encode("utf-8"))


def text_lines(path: str, what: str, error):
    """The lines of a UTF-8 text file, for a caller to iterate. The file is
    opened here, so an OSError from the open raises from this call; a line
    that is not UTF-8 raises error(f"{what} {path} is not UTF-8: ...")."""
    fh = open(path, encoding="utf-8")

    def lines():
        with fh:
            try:
                yield from fh
            except UnicodeDecodeError as e:
                raise error(f"{what} {path} is not UTF-8: {e}")
    return lines()


def read_tokens(path: str) -> list[str]:
    """Read a UTF-8 text file into a token stream, appending <eos> per line.

    Equal tokens are one str object: the stream costs one pointer per token
    plus one string per word type, not one string per token."""
    tokens: list[str] = []
    canon = {}.setdefault  # first occurrence of each type, for this call only
    try:
        lines = text_lines(path, "corpus", CorpusError)
    except OSError as e:
        raise CorpusError(f"cannot read corpus {path}: {e}")
    for line in lines:
        words = line.split()
        tokens.extend(map(canon, words, words))
        tokens.append(EOS)
    return tokens


def split_tokens(tokens: list[str]) -> tuple[list[str], list[str]]:
    """Deterministic 90/10 head/tail split into train and valid tokens."""
    cut = int(len(tokens) * (1.0 - VALID_FRACTION))
    return tokens[:cut], tokens[cut:]


class Vocab:
    """Bijective token<->id map with reserved ids 0=<unk> and 1=<eos>."""

    def __init__(self, id_to_token: list[str]):
        if id_to_token[:2] != [UNK, EOS]:
            raise CorpusError("vocab must start with the reserved tokens <unk>, <eos>")
        self.id_to_token = list(id_to_token)
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise CorpusError("vocab contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens) -> np.ndarray:
        get = self.token_to_id.get
        return np.fromiter((get(t, UNK_ID) for t in tokens), dtype=np.int64, count=len(tokens))

    def save(self, path: str) -> None:
        write_text_atomic(path, "".join(f"{tok}\t{i}\n"
                                        for i, tok in enumerate(self.id_to_token)))

    @classmethod
    def load(cls, path: str) -> "Vocab":
        id_to_token: list[str] = []
        for lineno, line in enumerate(text_lines(path, "vocab", CorpusError)):
            try:
                tok, idx = line.rstrip("\n").split("\t")
                idx = int(idx)
            except ValueError:
                raise CorpusError(f"{path}:{lineno + 1}: expected 'token<TAB>id'")
            if idx != lineno:
                raise CorpusError(f"{path}:{lineno + 1}: ids must be dense and ordered")
            id_to_token.append(tok)
        if not id_to_token:
            raise CorpusError(f"{path}: empty vocab file")
        return cls(id_to_token)


def build_vocab(tokens, min_count: int = 1) -> Vocab:
    """Build a vocab from a token stream.

    Tokens seen fewer than min_count times encode to <unk>. Non-reserved ids
    are assigned by descending frequency, ties broken lexicographically, so
    the same input always produces a byte-identical vocab file.
    """
    counts = Counter(tokens)
    if not counts:
        raise CorpusError("empty corpus: no tokens to build a vocabulary from")
    counts.pop(UNK, None)
    counts.pop(EOS, None)
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocab([UNK, EOS] + kept)


def _require_window(steps: int, batch_size: int, bptt_len: int) -> None:
    """A stream always holds at least one window: fewer than bptt_len + 1
    steps raise ConfigError."""
    if steps < bptt_len + 1:
        raise ConfigError(
            f"stream shorter than one window: batch_size={batch_size}, "
            f"bptt_len={bptt_len} need at least {batch_size * (bptt_len + 1)} "
            f"tokens, got {steps * batch_size}")


class BatchStream:
    """Contiguous [steps x batch] id matrix cut into (input, target) windows.

    Column b holds one contiguous slice of the corpus stream; window k pairs
    rows [kL, kL+L) with the rows shifted one step ahead. Trailing tokens that
    do not fill the matrix are dropped. A stream always holds at least one
    window (_require_window).
    """

    def __init__(self, data: np.ndarray, bptt_len: int):
        self.data = data
        self.bptt_len = bptt_len
        _require_window(data.shape[0], self.batch_size, bptt_len)

    @property
    def batch_size(self) -> int:
        return self.data.shape[1]

    @property
    def num_windows(self) -> int:
        return (self.data.shape[0] - 1) // self.bptt_len

    @property
    def num_targets(self) -> int:
        return self.num_windows * self.bptt_len * self.batch_size

    def windows(self):
        """Yield (inputs, targets) int64 arrays of shape [L x B], rewound."""
        L = self.bptt_len
        for lo in range(0, self.num_windows * L, L):
            yield self.data[lo:lo + L], self.data[lo + 1:lo + L + 1]


def batchify(ids, batch_size: int, bptt_len: int) -> BatchStream:
    """Lay out a token-id sequence as a BatchStream. Ids that are not integers
    (integer_ids) and a sequence without a window are rejected before the
    layout, the latter so that no batch_size reaches numpy's size limits."""
    if batch_size <= 0 or bptt_len <= 0:
        raise ConfigError(
            f"batch_size and bptt_len must be positive, got {batch_size}, {bptt_len}"
        )
    ids = integer_ids(ids, "batchify: token id")
    if ids.ndim != 1:
        raise ConfigError(f"token ids must be 1-d, got shape {ids.shape}")
    steps = ids.size // batch_size
    _require_window(steps, batch_size, bptt_len)
    data = ids[:steps * batch_size].reshape(batch_size, steps).T.copy()
    return BatchStream(data, bptt_len)
