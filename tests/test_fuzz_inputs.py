"""Hostile input files: each reader ends in a value or its own input error
(ConfigError or CorpusError, exit 2), never in another exception."""

import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from advlm import cli
from advlm.cli import TRAIN_SCHEMA, parse_config
from advlm.corpus import EOS, UNK, Vocab, read_tokens
from advlm.errors import ConfigError, CorpusError
from advlm.train import LOG_HEADER, TrainLog

from support import read_new_file

STRING_KEYS = [key for key, opt in TRAIN_SCHEMA.items() if opt.parse is str]
FUZZ = settings(derandomize=True, max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def _edited(draw, valid):
    """A valid file's text with one span replaced, so that the readers'
    value checks are reached, which random text rarely gets past."""
    text = draw(valid)
    lo = draw(st.integers(0, len(text)))
    hi = draw(st.integers(lo, len(text)))
    return text[:lo] + draw(st.text("0123456789.-e,=#\t\n\r x<>", max_size=4)) + text[hi:]


CONFIG_TEXT = _edited(st.lists(st.sampled_from(
    [f"{key} = {opt.default}" for key, opt in TRAIN_SCHEMA.items()])).map("\n".join))
VOCAB_TEXT = _edited(st.integers(0, 4).map(lambda n: "".join(
    f"{tok}\t{i}\n" for i, tok in enumerate([UNK, EOS] + [f"w{j}" for j in range(n)]))))
LOG_TEXT = _edited(st.integers(0, 4).map(lambda n: LOG_HEADER + "\n" + "".join(
    f"{epoch},12.5,14.25,0.5,0.2,0.001\n" for epoch in range(n))))

# lines of words ended by a newline of any kind, a separator Python's file
# iteration does not break on, or nothing (no final newline), after an
# optional BOM; one word is a long token and one a long line of tokens
CORPUS_TEXT = _edited(st.tuples(
    st.sampled_from(["", "\ufeff"]),
    st.lists(st.tuples(
        st.lists(st.sampled_from(["the", "cat", "sat", EOS, UNK, "na\u00efve", "x" * 5000,
                                  " ".join(["w"] * 300)]), max_size=8),
        st.sampled_from(["\n", "\r\n", "\r", "\x1c", "\u2028", "\x85", ""])),
        max_size=12),
).map(lambda t: t[0] + "".join(" ".join(words) + end for words, end in t[1])))


def _file_bytes(near_valid):
    return st.one_of(st.binary(), st.text().map(str.encode), near_valid.map(str.encode))


@FUZZ
@given(text=st.one_of(st.text(), CONFIG_TEXT))
def test_parse_config_returns_schema_values_or_raises_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert all(isinstance(v, TRAIN_SCHEMA[k].parse) for k, v in cfg.items())


@FUZZ
@given(blob=_file_bytes(CONFIG_TEXT))
def test_config_file_merges_or_raises_config_error(tmp_path, blob):
    cfg = read_new_file(tmp_path, blob, lambda path: cli._merged_train_config(
        cli.build_parser().parse_args(["train", "--config", path])), ConfigError)
    assert cfg is None or set(cfg) == set(TRAIN_SCHEMA)


@FUZZ
@given(blob=_file_bytes(VOCAB_TEXT))
def test_vocab_file_loads_or_raises_corpus_error(tmp_path, blob):
    vocab = read_new_file(tmp_path, blob, Vocab.load, CorpusError)
    assert vocab is None or vocab.id_to_token[:2] == [UNK, EOS]


@FUZZ
@given(blob=_file_bytes(LOG_TEXT))
def test_log_file_loads_or_raises_config_error(tmp_path, blob):
    log = read_new_file(tmp_path, blob, TrainLog.load, ConfigError)
    assert log is None or all(len(row.as_csv().split(",")) == 6 for row in log.rows)


@FUZZ
@given(st.dictionaries(st.sampled_from(STRING_KEYS),
                       st.text(st.characters() | st.sampled_from("#= \t\n\r\x1c\u2028"))))
def test_serialized_string_values_read_back_or_raise_config_error(cfg):
    try:
        text = cli.serialize_config(cfg)
    except ConfigError:
        return
    assert parse_config(text) == cfg


@FUZZ
@given(blob=_file_bytes(CORPUS_TEXT))
def test_corpus_reads_to_tokens_or_raises_corpus_error(tmp_path, blob):
    tokens = read_new_file(tmp_path, blob, read_tokens, CorpusError)
    if tokens is None:
        return
    assert all(tok and not any(ch.isspace() for ch in tok) for tok in tokens)
    assert not tokens or tokens[-1] == EOS


@settings(FUZZ, max_examples=25)
@given(blob=_file_bytes(CORPUS_TEXT))
def test_train_on_hostile_corpus_exits_0_or_2(tmp_path, capsys, blob):
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        corpus = f"{work}/corpus.txt"
        with open(corpus, "wb") as fh:
            fh.write(blob)
        rc = cli.main(["train", "--corpus", corpus, "--out", f"{work}/out",
                       "--epochs", "1", "--batch-size", "1", "--bptt-len", "2",
                       "--embed-dim", "2"])
    err = capsys.readouterr().err
    assert rc in (0, 2) and "Traceback" not in err
