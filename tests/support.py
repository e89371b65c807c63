"""What test modules share besides reference.py's oracles: tools/checkout.py,
a repository file as a module, a call's memory peak, the fuzzers' read step."""

import os
import pathlib
import sys
import tempfile
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


def read_new_file(directory, blob: bytes, reader, error):
    """reader(path) of blob written to a new file in directory, or None when
    reader raises error. A file rewritten in place, as one path in the tmp_path
    that Hypothesis reuses would be, may be flushed on close (ext4 does)."""
    fd, path = tempfile.mkstemp(dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        return reader(path)
    except error:
        return None
    finally:
        os.remove(path)
