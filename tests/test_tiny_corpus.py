"""tools/make_tiny_corpus.py regenerates the bundled corpus byte for byte;
the benchmark's desk and ab_grid inputs come from the same generator."""

import importlib.util
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "make_tiny_corpus", _ROOT / "tools" / "make_tiny_corpus.py")
make_tiny_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_tiny_corpus)


def test_generate_reproduces_bundled_tiny_txt():
    bundled = (_ROOT / "src" / "advlm" / "data" / "tiny.txt").read_bytes()
    assert make_tiny_corpus.generate().encode("utf-8") == bundled
