"""Vocabulary and batching tests."""

import numpy as np
import pytest

from advlm.corpus import (
    EOS,
    UNK,
    UNK_ID,
    BatchStream,
    Vocab,
    batchify,
    build_vocab,
    read_tokens,
)
from advlm.errors import ConfigError, CorpusError
from advlm.experiment import bundled_corpus_path

from support import peak_bytes


def _tokens_from(text):
    toks = []
    for line in text.splitlines():
        toks.extend(line.split())
        toks.append(EOS)
    return toks


class TestVocab:
    def test_reserved_ids(self):
        v = build_vocab(_tokens_from("a b a"))
        assert v.id_to_token[UNK_ID] == UNK
        assert v.token_to_id[EOS] == 1
        assert len(v) == 4
        assert set(v.id_to_token) == {UNK, EOS, "a", "b"}

    def test_min_count_maps_rare_to_unk(self):
        v = build_vocab(_tokens_from("a b a"), min_count=2)
        ids = v.encode(["a", "b"])
        assert ids[0] == v.token_to_id["a"]
        assert ids[1] == UNK_ID

    def test_frequency_then_lexicographic_order(self):
        v = build_vocab(_tokens_from("c c b b a"))
        # c and b tie at 2, a has 1; ties break alphabetically
        assert v.id_to_token == [UNK, EOS, "b", "c", "a"]

    def test_encode_decode_roundtrip(self):
        v = build_vocab(_tokens_from("the cat sat on the mat"))
        for i in range(len(v)):
            assert v.encode([v.id_to_token[i]])[0] == i

    def test_unknown_token_encodes_to_unk(self):
        v = build_vocab(_tokens_from("a b"))
        assert v.encode(["zebra"])[0] == UNK_ID

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError):
            build_vocab([])

    def test_literal_reserved_tokens_not_duplicated(self):
        v = build_vocab(["a", UNK, UNK, EOS, "a"])
        assert v.id_to_token.count(UNK) == 1
        assert v.id_to_token.count(EOS) == 1
        assert v.encode([UNK])[0] == UNK_ID

    def test_save_load_byte_identical(self, tmp_path):
        v = build_vocab(_tokens_from("x y z y x x"))
        p1, p2 = tmp_path / "v1.tsv", tmp_path / "v2.tsv"
        v.save(str(p1))
        build_vocab(_tokens_from("x y z y x x")).save(str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        v2 = Vocab.load(str(p1))
        assert v2.id_to_token == v.id_to_token

    def test_load_rejects_malformed(self, tmp_path):
        p = tmp_path / "bad.tsv"
        for blob in (b"<unk>\t0\n<eos> 1\n", b"<unk>\t0\n<eos>\t1\nfoo\tx\n",
                     b"<unk>\t0\n<eos>\t1\n\xff\xfe\t2\n"):
            p.write_bytes(blob)
            with pytest.raises(CorpusError):
                Vocab.load(str(p))

    def test_load_rejects_gapped_ids(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("<unk>\t0\n<eos>\t1\na\t3\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            Vocab.load(str(p))


class TestReadTokens:
    def test_appends_eos_per_line(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("a b\nc\n", encoding="utf-8")
        assert read_tokens(str(p)) == ["a", "b", EOS, "c", EOS]

    def test_one_string_object_per_word_type(self):
        toks = read_tokens(bundled_corpus_path())
        assert len({id(t) for t in toks}) == len(set(toks))

    def test_stream_costs_a_pointer_per_token_not_a_string(self):
        # tracemalloc peak over one read of the bundled corpus (55,003 tokens,
        # 238 types): about 53 bytes per token with a string per token,
        # about 9.5 with one per type (8-byte pointers, list slack, 238 strings)
        path = bundled_corpus_path()
        n, peak = peak_bytes(lambda: len(read_tokens(path)))
        assert peak / n < 20.0


class TestBatchify:
    def test_hand_layout(self):
        bs = batchify(np.arange(10), batch_size=2, bptt_len=2)
        np.testing.assert_array_equal(bs.data[:, 0], [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(bs.data[:, 1], [5, 6, 7, 8, 9])
        wins = list(bs.windows())
        assert len(wins) == 2
        x0, y0 = wins[0]
        np.testing.assert_array_equal(x0, [[0, 5], [1, 6]])
        np.testing.assert_array_equal(y0, [[1, 6], [2, 7]])
        x1, y1 = wins[1]
        np.testing.assert_array_equal(x1, [[2, 7], [3, 8]])
        np.testing.assert_array_equal(y1, [[3, 8], [4, 9]])

    def test_single_window_covers_stream(self):
        ids = np.arange(7)
        bs = batchify(ids, batch_size=1, bptt_len=6)
        wins = list(bs.windows())
        assert len(wins) == 1
        x, y = wins[0]
        np.testing.assert_array_equal(x[:, 0], ids[:-1])
        np.testing.assert_array_equal(y[:, 0], ids[1:])

    def test_remainder_dropped(self):
        bs = batchify(np.arange(11), batch_size=2, bptt_len=2)
        # 11 // 2 = 5 steps; token 10 dropped
        assert bs.data.shape == (5, 2)
        np.testing.assert_array_equal(bs.data[:, 1], [5, 6, 7, 8, 9])

    def test_target_count_arithmetic(self):
        rng = np.random.default_rng(7)
        rejected = 0
        for _ in range(50):
            n = int(rng.integers(1, 120))
            B = int(rng.integers(1, 5))
            L = int(rng.integers(1, 9))
            ids = rng.integers(0, 50, size=n)
            if n < B * (L + 1):  # exactly the streams without a window
                with pytest.raises(ConfigError, match="one window"):
                    batchify(ids, B, L)
                rejected += 1
                continue
            bs = batchify(ids, B, L)
            assert bs.num_windows >= 1
            emitted = sum(y.size for _, y in bs.windows())
            assert emitted == bs.num_targets == B * L * bs.num_windows
            steps = n // B
            assert bs.num_windows == (steps - 1) // L
        assert 0 < rejected < 50

    def test_columns_reconstruct_contiguously(self):
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 99, size=137)
        B, L = 3, 5
        bs = batchify(ids, B, L)
        steps = 137 // B
        for b in range(B):
            col = np.concatenate([x[:, b] for x, _ in bs.windows()])
            expect = ids[b * steps:b * steps + len(col)]
            np.testing.assert_array_equal(col, expect)
            tgt = np.concatenate([y[:, b] for _, y in bs.windows()])
            np.testing.assert_array_equal(tgt, ids[b * steps + 1:b * steps + 1 + len(tgt)])

    def test_zero_batch_or_window_rejected(self):
        with pytest.raises(ConfigError):
            batchify(np.arange(10), 0, 2)
        with pytest.raises(ConfigError):
            batchify(np.arange(10), 2, 0)

    def test_too_short_rejected(self):
        with pytest.raises(ConfigError):
            batchify(np.arange(3), 2, 1)

    @pytest.mark.parametrize("batch_size", [2 ** 60, 2 ** 63])
    def test_batch_past_numpy_size_limit_rejected(self, batch_size):
        # rejected before the layout: numpy cannot shape (batch_size, 0)
        with pytest.raises(ConfigError, match="one window"):
            batchify(np.arange(10), batch_size, 4)

    @pytest.mark.parametrize("ids", [np.arange(40) + 0.9, np.arange(40) % 2 == 0],
                             ids=["float", "bool"])
    def test_non_integer_ids_rejected_before_the_layout(self, ids):
        with pytest.raises(IndexError, match=f"token id dtype {ids.dtype} is not an integer"):
            batchify(ids, 2, 3)

    def test_uint8_ids_lay_out_as_int64(self):
        bs = batchify(np.arange(40, dtype=np.uint8), 2, 3)
        assert bs.data.dtype == np.int64
        np.testing.assert_array_equal(bs.data, batchify(np.arange(40), 2, 3).data)
        np.testing.assert_array_equal(bs.data[:3].T, [[0, 1, 2], [20, 21, 22]])

    def test_empty_list_reaches_the_window_rule(self):
        # numpy makes [] float64; empty ids of any dtype pass the dtype rule
        with pytest.raises(ConfigError, match="one window"):
            batchify([], 2, 3)

    def test_rewind_on_reiteration(self):
        bs = batchify(np.arange(20), 2, 3)
        first = [x.copy() for x, _ in bs.windows()]
        second = [x.copy() for x, _ in bs.windows()]
        assert len(first) == len(second)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


class TestBatchStreamType:
    def test_window_shapes(self):
        bs = batchify(np.arange(40), 4, 3)
        for x, y in bs.windows():
            assert x.shape == (3, 4) and y.shape == (3, 4)
            assert x.dtype == np.int64

    def test_direct_construction(self):
        data = np.arange(12).reshape(6, 2)
        bs = BatchStream(data, 2)
        assert bs.batch_size == 2
        assert bs.num_windows == 2
        with pytest.raises(ConfigError, match="one window"):
            BatchStream(data[:1], 2)
