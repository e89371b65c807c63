"""What test modules share besides reference.py's oracles: tools/checkout.py,
a repository file loaded as a module, and the traced memory peak of a call."""

import pathlib
import sys
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))  # as tools/bench.py and fingerprint.py do

import checkout  # noqa: E402


def load(relpath: str):
    """The repository file at relpath, e.g. "tools/bench.py", run as a module
    named after the file."""
    path = ROOT / relpath
    return checkout.load(path.stem, str(path))


def peak_bytes(fn):
    """(fn(), the peak of the memory traced while it ran); numpy reports its
    buffers to tracemalloc."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
