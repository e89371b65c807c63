"""Hostile input files: each reader ends in a value or its own input error
(ConfigError or CorpusError, exit 2), never in another exception."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from advlm import cli
from advlm.cli import TRAIN_SCHEMA, parse_config
from advlm.corpus import EOS, UNK, Vocab
from advlm.errors import ConfigError, CorpusError
from advlm.train import LOG_HEADER, TrainLog

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
    path = tmp_path / "run.cfg"
    path.write_bytes(blob)
    args = cli.build_parser().parse_args(["train", "--config", str(path)])
    try:
        cfg = cli._merged_train_config(args)
    except ConfigError:
        return
    assert set(cfg) == set(TRAIN_SCHEMA)


@FUZZ
@given(blob=_file_bytes(VOCAB_TEXT))
def test_vocab_file_loads_or_raises_corpus_error(tmp_path, blob):
    path = tmp_path / "vocab.tsv"
    path.write_bytes(blob)
    try:
        vocab = Vocab.load(str(path))
    except CorpusError:
        return
    assert vocab.id_to_token[:2] == [UNK, EOS]


@FUZZ
@given(blob=_file_bytes(LOG_TEXT))
def test_log_file_loads_or_raises_config_error(tmp_path, blob):
    path = tmp_path / "log.csv"
    path.write_bytes(blob)
    try:
        log = TrainLog.load(str(path))
    except ConfigError:
        return
    assert all(len(row.as_csv().split(",")) == 6 for row in log.rows)
