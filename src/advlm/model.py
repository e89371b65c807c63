"""Tied-embedding LSTM language model.

One matrix serves both the input lookup and the output logits, so the final
LSTM layer must have exactly embed_dim units. Context vectors are returned
time-major as a single [(L*B) x d] tensor; row t*B + b is the state used to
predict the target at step t of batch column b.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import astuple, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CheckpointError, ConfigError, ShapeError

CHECKPOINT_MAGIC = b"ADVLM001"
CONFIG_HEADER = struct.Struct("<4qd")  # LMConfig's fields, in declared order


@dataclass(frozen=True)
class LMConfig:
    vocab_size: int
    embed_dim: int
    hidden_dim: int = 0
    num_layers: int = 1
    init_range: float = 0.1

    def __post_init__(self):
        if self.hidden_dim == 0:
            object.__setattr__(self, "hidden_dim", self.embed_dim)
        if self.vocab_size < 1 or self.embed_dim < 1 or self.num_layers < 1:
            raise ConfigError(
                f"vocab_size, embed_dim, num_layers must be positive, got "
                f"{self.vocab_size}, {self.embed_dim}, {self.num_layers}"
            )
        if self.hidden_dim < 1:
            raise ConfigError(f"hidden_dim must be positive, got {self.hidden_dim}")
        if not 0 <= self.init_range < math.inf:
            raise ConfigError(
                f"init_range must be finite and non-negative, got {self.init_range}")
        if _checkpoint_bytes(self) > np.iinfo(np.intp).max:
            raise ConfigError(
                f"vocab_size {self.vocab_size}, embed_dim {self.embed_dim}, "
                f"hidden_dim {self.hidden_dim}, num_layers {self.num_layers}: "
                f"the parameters do not fit in an address space")

    @property
    def layer_sizes(self) -> list[int]:
        """Hidden width per layer; the last is pinned to embed_dim by tying."""
        return [self.hidden_dim] * (self.num_layers - 1) + [self.embed_dim]


@dataclass
class LayerParams:
    """One LSTM layer: gates packed in columns as [i | f | g | o]."""

    w_x: Tensor
    w_h: Tensor
    bias: Tensor


@dataclass
class LMParams:
    config: LMConfig
    embedding: Tensor
    layers: list[LayerParams]

    def tensors(self):
        return [self.embedding] + [t for layer in self.layers
                                   for t in (layer.w_x, layer.w_h, layer.bias)]

    def named_tensors(self):
        return zip((name for name, _ in _expected_shapes(self.config)), self.tensors())


def _build_params(config: LMConfig, arrays) -> LMParams:
    """LMParams from arrays given in _expected_shapes order."""
    it = (Tensor(a) for a in arrays)
    embedding = next(it)
    layers = [LayerParams(next(it), next(it), next(it)) for _ in range(config.num_layers)]
    return LMParams(config, embedding, layers)


def init_params(config: LMConfig, seed: int) -> LMParams:
    """Every weight uniform in [-init_range, init_range), drawn in order."""
    rng = np.random.default_rng(seed)
    r = config.init_range
    return _build_params(config, (rng.uniform(-r, r, size=shape)
                                  for _, shape in _expected_shapes(config)))


def zero_state(config: LMConfig, batch_size: int) -> list:
    """Per-layer (h, c) pairs of zeros, each [batch_size x layer width]."""
    return [(np.zeros((batch_size, h)), np.zeros((batch_size, h)))
            for h in config.layer_sizes]


def forward(params: LMParams, input_ids: np.ndarray, state: list, noise=None):
    """Run the stack over a [L x B] id window from state, per-layer (h, c) arrays.

    Returns (contexts, new_state) where contexts is [(L*B) x embed_dim],
    time-major, and new_state is the next window's state. noise, if given, is
    an [(L*B) x embed_dim] array added to the looked-up input embeddings in
    row order; the output-side use of the embedding matrix never sees it.
    """
    input_ids = np.asarray(input_ids)
    if input_ids.ndim != 2:
        raise ShapeError(f"input_ids must be [L x B], got shape {input_ids.shape}")
    if len(state) != len(params.layers):
        raise ShapeError(
            f"state has {len(state)} layers, model has {len(params.layers)}"
        )
    B = input_ids.shape[1]
    if state[0][0].shape[0] != B:
        raise ShapeError(f"state batch size {state[0][0].shape[0]} != input batch size {B}")

    x = ad.gather_rows(params.embedding, input_ids.reshape(-1), noise)
    new_state = []
    for layer, (h, c) in zip(params.layers, state):
        x, h, c = ad.lstm_layer(x, layer.w_x, layer.w_h, layer.bias, h, c)
        new_state.append((h, c))
    return x, new_state


def stream_contexts(params: LMParams, stream):
    """Yield (contexts, targets) for each window of a BatchStream (it has at
    least one), run from the zero state with no tape open: the pass
    evaluation and the probes share."""
    state = zero_state(params.config, stream.batch_size)
    for inputs, targets in stream.windows():
        contexts, state = forward(params, inputs, state)
        yield contexts, targets


def _write_tensor(fh, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    fh.write(struct.pack("<q", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
    fh.write(arr.tobytes())


def _read_exact(fh, n: int, section: str) -> bytearray:
    # A size taken from a corrupt header must not become an allocation.
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CheckpointError(f"truncated checkpoint while reading {section}")
    buf = bytearray(n)  # read in place: the tensor data is never copied
    if fh.readinto(buf) != n:
        raise CheckpointError(f"truncated checkpoint while reading {section}")
    return buf


def _read_tensor(fh, name: str, shape: tuple) -> np.ndarray:
    """Read one tensor whose header must declare exactly `shape`; the data
    read is sized from `shape`, never from the file's bytes."""
    (rank,) = struct.unpack("<q", _read_exact(fh, 8, name))
    if rank != len(shape):
        raise CheckpointError(f"tensor {name} has rank {rank}, expected {len(shape)}")
    dims = struct.unpack(f"<{rank}q", _read_exact(fh, 8 * rank, name))
    if dims != shape:
        raise CheckpointError(f"tensor {name} has shape {dims}, expected {shape}")
    data = np.frombuffer(_read_exact(fh, 8 * math.prod(shape), name), dtype="<f8")
    return data.reshape(shape)


def save_checkpoint(params: LMParams, path: str) -> None:
    """Binary format: magic, LMConfig's fields as CONFIG_HEADER, then each
    tensor from tensors() as (rank, dims, float64 data), all little-endian.
    Written atomically."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(CONFIG_HEADER.pack(*astuple(params.config)))
            for t in params.tensors():
                _write_tensor(fh, t.values)
        os.replace(tmp, path)
    except OSError as e:
        raise CheckpointError(f"cannot write checkpoint {path}: {e}")


def load_checkpoint(path: str) -> LMParams:
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"cannot open checkpoint {path}: {e}")
    with fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        header = CONFIG_HEADER.unpack(_read_exact(fh, CONFIG_HEADER.size, "config"))
        try:
            cfg = LMConfig(*header)
        except ConfigError as e:
            raise CheckpointError(f"{path}: invalid config: {e}")
        params = _build_params(cfg, (_read_tensor(fh, name, shape)
                                     for name, shape in _expected_shapes(cfg)))
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after last tensor")
    return params


def _expected_shapes(cfg: LMConfig):
    """(name, shape) of every tensor in tensors() order, generated lazily:
    the one statement of the parameter layout and its names."""
    yield "embedding", (cfg.vocab_size, cfg.embed_dim)
    in_dim = cfg.embed_dim
    for k in range(cfg.num_layers):
        h = cfg.embed_dim if k == cfg.num_layers - 1 else cfg.hidden_dim
        yield f"layer{k}.w_x", (in_dim, 4 * h)
        yield f"layer{k}.w_h", (h, 4 * h)
        yield f"layer{k}.bias", (4 * h,)
        in_dim = h


def _tensor_bytes(shape: tuple) -> int:
    """Bytes of one stored tensor: rank, dims, float64 data."""
    return 8 * (1 + len(shape) + math.prod(shape))


def _checkpoint_bytes(cfg: LMConfig) -> int:
    """Bytes of all stored tensors, in O(1) whatever num_layers is."""
    def layer(in_dim, h):
        return (_tensor_bytes((in_dim, 4 * h)) + _tensor_bytes((h, 4 * h))
                + _tensor_bytes((4 * h,)))

    d, h, n = cfg.embed_dim, cfg.hidden_dim, cfg.num_layers
    layers = layer(d, d) if n == 1 else layer(d, h) + (n - 2) * layer(h, h) + layer(h, d)
    return _tensor_bytes((cfg.vocab_size, d)) + layers
