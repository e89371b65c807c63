"""tools/make_tiny_corpus.py regenerates the bundled corpus byte for byte;
the benchmark's desk and ab_grid inputs come from the same generator."""

from support import ROOT, load

make_tiny_corpus = load("tools/make_tiny_corpus.py")


def test_generate_reproduces_bundled_tiny_txt():
    bundled = (ROOT / "src" / "advlm" / "data" / "tiny.txt").read_bytes()
    assert make_tiny_corpus.generate().encode("utf-8") == bundled
