"""CLI surface: config parsing, artifacts, exit codes, output formats."""

import csv
import json
import math
import os
import re
import signal
import struct
import warnings
from dataclasses import replace

import jsonschema
import numpy as np
import pytest

import advlm.train
from advlm import cli
from advlm.cli import (TRAIN_SCHEMA, main, parse_config, resolve_seed,
                       serialize_config, split_tokens)
from advlm.corpus import Vocab, batchify, build_vocab, read_tokens
from advlm.errors import ConfigError, CorpusError, NumericError
from advlm.model import (LMConfig, init_params, load_checkpoint, save_checkpoint,
                         stream_contexts)
from advlm.experiment import bundled_corpus_path
from advlm.train import LOG_HEADER, TrainConfig, TrainLog, evaluate, train

WORDS = "alpha bravo charlie delta echo foxtrot golf hotel india juliet".split()


def make_corpus(path, num_lines=60, words_per_line=7, seed=0):
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(num_lines):
        picks = rng.integers(0, len(WORDS), size=words_per_line)
        lines.append(" ".join(WORDS[i] for i in picks))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


TRAIN_FLAGS = ["--embed-dim", "8", "--batch-size", "2", "--bptt-len", "4",
               "--learning-rate", "1.0", "--seed", "1"]


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One small end-to-end training run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("run")
    corpus = root / "corpus.txt"
    make_corpus(corpus)
    out = root / "out"
    rc = main(["train", "--corpus", str(corpus), "--out", str(out),
               "--adv", "adaptive:0.005", "--epochs", "5"] + TRAIN_FLAGS)
    assert rc == 0
    return {"corpus": corpus, "out": out}


class TestConfigParsing:
    def test_parse_types_comments_blanks(self):
        text = ("# full-line comment\n"
                "epochs = 3\n"
                "\n"
                "learning_rate = 2.5  # trailing comment\n"
                "adv = fixed:0.1\n")
        cfg = parse_config(text)
        assert cfg == {"epochs": 3, "learning_rate": 2.5, "adv": "fixed:0.1"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("epoochs = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("epochs = three\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config("epochs 3\n")

    def test_round_trip_identity(self):
        text = ("corpus = data/tiny.txt\n"
                "adv = adaptive:0.005\n"
                "epochs = 7\n"
                "learning_rate = 0.1\n"
                "grad_clip = 0.25\n"
                "input_noise_start = 0.2\n")
        first = parse_config(text)
        second = parse_config(serialize_config(first))
        assert second == first

    def test_serialize_uses_schema_order(self):
        cfg = {"epochs": 2, "corpus": "a.txt"}
        lines = serialize_config(cfg).splitlines()
        assert lines == ["corpus = a.txt", "epochs = 2"]

    @pytest.mark.parametrize("value", ["a#b.txt", "a\nb", "a\nepochs = 3", " a", "a "])
    def test_value_that_does_not_read_back_rejected(self, value):
        with pytest.raises(ConfigError, match="^corpus = "):
            serialize_config({"corpus": value, "epochs": 2})

    def test_every_key_has_default_and_round_trips(self):
        defaults = {k: opt.default for k, opt in TRAIN_SCHEMA.items()}
        assert parse_config(serialize_config(defaults)) == defaults


@pytest.mark.parametrize("kind, error", [("corpus", CorpusError),
                                         ("vocab", CorpusError),
                                         ("log", ConfigError),
                                         ("config", ConfigError)])
def test_non_utf8_text_file_names_its_kind_and_path(kind, error, tmp_path, capsys):
    path = str(tmp_path / f"{kind}.txt")
    with open(path, "wb") as fh:
        fh.write("<unk>\t0\n<eos>\t1\ncaf\u00e9\t2\n".encode("latin-1"))
    message = f"{kind} {path} is not UTF-8"
    if kind == "config":
        assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        return
    load = {"corpus": read_tokens, "vocab": Vocab.load, "log": TrainLog.load}[kind]
    with pytest.raises(error, match=re.escape(message)):
        load(path)


class TestSeedResolution:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("ADVLM_SEED", "99")
        assert resolve_seed(5) == 5

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("ADVLM_SEED", "42")
        assert resolve_seed(None) == 42

    def test_default_zero(self, monkeypatch):
        monkeypatch.delenv("ADVLM_SEED", raising=False)
        assert resolve_seed(None) == 0

    def test_bad_env_rejected(self, monkeypatch):
        for env in ("lots", "-3"):
            monkeypatch.setenv("ADVLM_SEED", env)
            with pytest.raises(ConfigError, match="ADVLM_SEED"):
                resolve_seed(None)
        with pytest.raises(ConfigError, match="seed"):
            resolve_seed(-4)


class TestHelp:
    def test_train_help_documents_every_config_key(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        text = capsys.readouterr().out
        for key in TRAIN_SCHEMA:
            assert "--" + key.replace("_", "-") in text


class TestTrainCommand:
    def test_writes_artifacts(self, trained_run):
        out = trained_run["out"]
        vocab = Vocab.load(str(out / "vocab.tsv"))
        params = load_checkpoint(str(out / "model.bin"))
        assert params.config.vocab_size == len(vocab)
        assert params.config.embed_dim == 8
        log = TrainLog.load(str(out / "log.csv"))
        assert len(log.rows) == 5
        assert all(math.isfinite(r.train_ppl) for r in log.rows)
        cfg = parse_config((out / "config.txt").read_text())
        assert cfg["epochs"] == 5 and cfg["adv"] == "adaptive:0.005"

    def test_progress_lines_on_stdout(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        make_corpus(corpus, num_lines=20)
        rc = main(["train", "--corpus", str(corpus), "--out",
                   str(tmp_path / "o"), "--epochs", "2"] + TRAIN_FLAGS)
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("vocab_size=")
        assert lines[1] == LOG_HEADER
        assert len(lines) == 2 + 2

    def test_off_equals_fixed_zero(self, tmp_path):
        corpus = tmp_path / "c.txt"
        make_corpus(corpus, num_lines=30)
        logs = []
        for adv in ("off", "fixed:0"):
            out = tmp_path / adv.replace(":", "_")
            rc = main(["train", "--corpus", str(corpus), "--out", str(out),
                       "--adv", adv, "--epochs", "3"] + TRAIN_FLAGS)
            assert rc == 0
            logs.append(TrainLog.load(str(out / "log.csv")))
        for off_row, zero_row in zip(logs[0].rows, logs[1].rows):
            assert off_row.train_ppl == zero_row.train_ppl
            assert off_row.valid_ppl == zero_row.valid_ppl

    def test_flags_override_config_file(self, tmp_path):
        corpus = tmp_path / "c.txt"
        make_corpus(corpus, num_lines=20)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"corpus = {corpus}\nepochs = 4\nembed_dim = 8\n"
                            "batch_size = 2\nbptt_len = 4\n")
        out = tmp_path / "o"
        rc = main(["train", "--config", str(cfg_file), "--out", str(out),
                   "--epochs", "2"])
        assert rc == 0
        assert len(TrainLog.load(str(out / "log.csv")).rows) == 2
        assert parse_config((out / "config.txt").read_text())["epochs"] == 2

    def test_corpus_and_train_conflict(self, tmp_path):
        corpus = tmp_path / "c.txt"
        make_corpus(corpus, num_lines=10)
        rc = main(["train", "--corpus", str(corpus), "--train", str(corpus),
                   "--valid", str(corpus), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_train_without_valid(self, tmp_path):
        corpus = tmp_path / "c.txt"
        make_corpus(corpus, num_lines=10)
        rc = main(["train", "--train", str(corpus),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_validation_side_without_window_exits_2_before_training(
            self, tmp_path, capsys):
        # 480 tokens split 432/48: at B=2 the validation side has 24 steps,
        # too few for one window of 30 + 1, while training has 7 windows
        corpus = tmp_path / "c.txt"
        make_corpus(corpus)
        rc = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
                   "--epochs", "1", "--embed-dim", "8", "--batch-size", "2",
                   "--bptt-len", "30"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""  # no vocab_size= line, no log header
        assert "validation side" in err
        assert "one window" in err and "62 tokens" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_training_side_without_window_exits_2_before_training(
            self, tmp_path, capsys):
        # 48 training tokens at B=2 are 24 steps, too few for one window of
        # 30 + 1, while the 480 validation tokens hold 7 windows
        make_corpus(tmp_path / "train.txt", num_lines=6)
        make_corpus(tmp_path / "valid.txt")
        rc = main(["train", "--train", str(tmp_path / "train.txt"),
                   "--valid", str(tmp_path / "valid.txt"),
                   "--out", str(tmp_path / "o"), "--epochs", "1",
                   "--embed-dim", "8", "--batch-size", "2", "--bptt-len", "30"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "training side" in err and "62 tokens" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_missing_corpus_file(self, tmp_path, capsys):
        rc = main(["train", "--corpus", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("caf\u00e9 au lait\n".encode("latin-1") * 40)
        rc = main(["train", "--corpus", str(latin1), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "not UTF-8" in err and "Traceback" not in err

    def test_hostile_values_exit_2(self, trained_run, tmp_path, monkeypatch,
                                   capsys):
        corpus = tmp_path / "c.txt"
        make_corpus(corpus, num_lines=10)
        neg_seed = tmp_path / "neg.cfg"
        neg_seed.write_text("seed = -4\n", encoding="utf-8")
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes("# caf\u00e9\nepochs = 1\n".encode("latin-1"))
        # small enough to train, so each case fails only on its hostile value
        train = ["train", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
                 "--embed-dim", "8", "--batch-size", "2", "--bptt-len", "4",
                 "--epochs", "1"]
        analyze = ["analyze", "--checkpoint", str(trained_run["out"] / "model.bin"),
                   "--out", str(tmp_path / "a"), "--num-random", "5"]
        # 80 tokens: fewer than one window of B=32, L=32, so batchify rejects it
        short = ["--checkpoint", str(trained_run["out"] / "model.bin"),
                 "--corpus", str(corpus)]
        cases = [(train + ["--seed", "-4"], None),
                 (train + ["--config", str(neg_seed)], None),
                 (train, "-3"), (analyze + ["--seed", "-4"], None),
                 (analyze, "-3"), (analyze + ["--num-random", "-1"], None),
                 (["eval"] + short, None), (analyze + short[2:], None),
                 (["verify", "--seed", "-4"], None),
                 (["verify", "--scale", "nan"], None),
                 (["verify", "--scale", "inf"], None),
                 (["verify", "--scale", "0"], None),
                 (["verify", "--scale", "-1"], None),
                 (["verify"], "-3"),
                 (train + ["--init-range", "inf"], None),
                 (train + ["--init-range", "nan"], None),
                 (train + ["--learning-rate", "inf"], None),
                 (train + ["--learning-rate", "nan"], None),
                 (train + ["--input-noise-start", "inf"], None),
                 (train + ["--grad-clip", "nan"], None),
                 (train + ["--config", str(latin1)], None),
                 # parameters past the address space: rejected before any write
                 (train + ["--embed-dim", str(2 ** 62)], None)]
        for argv, env in cases:
            if env is None:
                monkeypatch.delenv("ADVLM_SEED", raising=False)
            else:
                monkeypatch.setenv("ADVLM_SEED", env)
            assert main(argv) == 2, (argv, env)
            err = capsys.readouterr().err
            assert "error:" in err and "Traceback" not in err, (argv, env)
        assert not (tmp_path / "o").exists()

    def test_sizes_past_numpy_limits_exit_2(self, trained_run, tmp_path, capsys):
        # numpy refuses each size before allocating; here it is rejected
        # earlier, with the stream's side or the probe count named
        corpus = tmp_path / "c.txt"
        make_corpus(corpus, num_lines=10)
        checkpoint = ["--checkpoint", str(trained_run["out"] / "model.bin")]
        analyze = ["analyze", *checkpoint, "--out", str(tmp_path / "a"),
                   "--num-random", str(2 ** 61)]
        cases = [(["train", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
                   "--batch-size", str(2 ** 63)], "training side: stream shorter"),
                 (["eval", *checkpoint, "--corpus", str(corpus),
                   "--batch-size", str(2 ** 63)],
                  f"--split full of {corpus}: stream shorter than one window"),
                 (analyze, "num_random"),
                 (analyze + ["--corpus", str(corpus), "--batch-size", "2",
                             "--bptt-len", "4"], "num_random")]
        for argv, message in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err, argv
        assert not (tmp_path / "o").exists()
        assert not (tmp_path / "a").exists()

    def test_short_eval_stream_names_split_and_corpus(self, trained_run, tmp_path,
                                                      capsys):
        # at the default sizes a 10-line corpus holds no window on either side
        corpus = tmp_path / "c.txt"
        make_corpus(corpus, num_lines=10)
        given = ["--checkpoint", str(trained_run["out"] / "model.bin"),
                 "--corpus", str(corpus), "--split", "valid"]
        for argv in (["eval", *given],
                     ["analyze", *given, "--out", str(tmp_path / "a")]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: --split valid of {corpus}: stream shorter "
                                  "than one window"), err
            assert "Traceback" not in err
        assert not (tmp_path / "a").exists()

    def test_non_finite_perplexity_exits_3(self, trained_run, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        make_corpus(corpus, num_lines=20)
        train = ["train", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
                 "--embed-dim", "8", "--batch-size", "2", "--bptt-len", "4",
                 "--epochs", "1"]
        # the embedding x1000 puts the plain validation NLL past exp's range
        params = load_checkpoint(str(trained_run["out"] / "model.bin"))
        params.embedding.values *= 1000.0
        save_checkpoint(params, str(tmp_path / "model.bin"))
        scaled = ["eval", "--checkpoint", str(tmp_path / "model.bin"),
                  "--vocab", str(trained_run["out"] / "vocab.tsv"),
                  "--corpus", str(trained_run["corpus"]), "--split", "valid",
                  "--batch-size", "2", "--bptt-len", "4"]
        cases = [(train + ["--adv", "adaptive:1e300"], "epoch 0: training"),
                 (scaled, "--split valid")]
        for argv, side in cases:
            assert main(argv) == 3, argv
            err = capsys.readouterr().err
            assert f"error: {side} perplexity is not finite" in err, argv
            assert "Traceback" not in err, argv

    def test_overflowing_step_exits_3_at_its_window(self, tmp_path, capsys):
        # a step of 1e308 overflows the next window's forward; that window
        # stops the run, with no numpy RuntimeWarning on the way
        with open(bundled_corpus_path(), encoding="utf-8") as fh:
            head = fh.readlines()[:20]
        corpus = tmp_path / "c.txt"
        corpus.write_text("".join(head), encoding="utf-8")
        argv = ["train", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
                "--embed-dim", "8", "--batch-size", "2", "--bptt-len", "4",
                "--epochs", "1", "--learning-rate", "1e308"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert "error: epoch 0, window" in err and "overflow" in err
        assert "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_interrupted_run_keeps_its_finished_epochs(self, tmp_path,
                                                       monkeypatch):
        corpus = tmp_path / "c.txt"
        make_corpus(corpus, num_lines=20)
        out = tmp_path / "o"
        real_epoch = advlm.train.train_epoch

        def fail_at_epoch_2(params, stream, config, epoch):
            if epoch == 2:
                raise NumericError("epoch 2: stopped")
            return real_epoch(params, stream, config, epoch)

        monkeypatch.setattr(advlm.train, "train_epoch", fail_at_epoch_2)
        rc = main(["train", "--corpus", str(corpus), "--out", str(out),
                   "--epochs", "4"] + TRAIN_FLAGS)
        assert rc == 3
        params = load_checkpoint(str(out / "model.bin"))
        assert params.config.embed_dim == 8
        assert [r.epoch for r in TrainLog.load(str(out / "log.csv")).rows] == [0, 1]

    def test_ctrl_c_exits_130_naming_the_saved_epochs(self, tmp_path, monkeypatch,
                                                      capsys):
        corpus = tmp_path / "c.txt"
        make_corpus(corpus, num_lines=20)
        out = tmp_path / "o"
        real_epoch = advlm.train.train_epoch

        def interrupt_at_epoch_2(params, stream, config, epoch):
            if epoch == 2:
                raise KeyboardInterrupt
            return real_epoch(params, stream, config, epoch)

        monkeypatch.setattr(advlm.train, "train_epoch", interrupt_at_epoch_2)
        rc = main(["train", "--corpus", str(corpus), "--out", str(out),
                   "--epochs", "4"] + TRAIN_FLAGS)
        assert rc == 130
        assert (capsys.readouterr().err
                == f"error: interrupted; 2 of 4 epochs saved in {out}\n")
        assert [r.epoch for r in TrainLog.load(str(out / "log.csv")).rows] == [0, 1]

        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("advlm.cli.evaluate", interrupt)
        rc = main(["eval", "--checkpoint", str(out / "model.bin"), "--corpus",
                   str(corpus), "--batch-size", "2", "--bptt-len", "4"])
        assert rc == 130
        assert capsys.readouterr().err == "error: interrupted\n"

    def test_ctrl_c_during_the_epoch_writes_leaves_both_files_at_one_epoch(
            self, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "c.txt"
        make_corpus(corpus, num_lines=20)
        out = tmp_path / "o"
        saves = []

        def save_then_interrupt(params, path):
            save_checkpoint(params, path)
            saves.append((out / "model.bin").read_bytes())
            if len(saves) == 2:  # before log.csv is written for epoch 1
                os.kill(os.getpid(), signal.SIGINT)

        monkeypatch.setattr("advlm.cli.save_checkpoint", save_then_interrupt)
        rc = main(["train", "--corpus", str(corpus), "--out", str(out),
                   "--epochs", "4"] + TRAIN_FLAGS)
        assert rc == 130
        rows = TrainLog.load(str(out / "log.csv")).rows
        assert (out / "model.bin").read_bytes() == saves[len(rows) - 1]
        assert (capsys.readouterr().err
                == f"error: interrupted; {len(rows)} of 4 epochs saved in {out}\n")

    def test_per_epoch_writes_leave_the_final_files(self, tmp_path):
        # model.bin and log.csv are rewritten after every epoch; the last
        # write is the full run's, byte for byte apart from wall_s
        corpus = tmp_path / "c.txt"
        make_corpus(corpus, num_lines=20)
        out = tmp_path / "o"
        rc = main(["train", "--corpus", str(corpus), "--out", str(out),
                   "--epochs", "3"] + TRAIN_FLAGS)
        assert rc == 0
        vocab = Vocab.load(str(out / "vocab.tsv"))
        head, tail = split_tokens(read_tokens(str(corpus)))
        params = init_params(LMConfig(len(vocab), 8), 1)
        cfg = TrainConfig(epochs=3, batch_size=2, bptt_len=4, learning_rate=1.0,
                          seed=1, input_noise_start=0.2)
        log = train(params, batchify(vocab.encode(head), 2, 4),
                    batchify(vocab.encode(tail), 2, 4), cfg)
        save_checkpoint(params, str(tmp_path / "direct.bin"))
        assert (out / "model.bin").read_bytes() == (tmp_path / "direct.bin").read_bytes()
        logged = TrainLog.load(str(out / "log.csv")).rows
        assert [replace(r, wall_s=0.0).as_csv() for r in logged] == \
            [replace(r, wall_s=0.0).as_csv() for r in log.rows]

    def test_memory_error_exits_2(self, trained_run, tmp_path, monkeypatch,
                                  capsys):
        # a size the machine cannot hold fails in numpy with MemoryError;
        # raised here without allocating, since overcommit might grant it
        def no_memory(*args):
            raise MemoryError("Unable to allocate 1.7 TiB")

        monkeypatch.setattr("advlm.cli.random_probes", no_memory)
        argv = ["analyze", "--checkpoint", str(trained_run["out"] / "model.bin"),
                "--out", str(tmp_path / "a"), "--num-random", "100000000000"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_model_that_does_not_fit_leaves_no_out(self, tmp_path, monkeypatch,
                                                    capsys):
        # the parameters are built before --out exists; the MemoryError is
        # raised without allocating an oversized model
        def no_memory(*args):
            raise MemoryError("Unable to allocate 1.7 TiB")

        monkeypatch.setattr("advlm.cli.init_params", no_memory)
        corpus = tmp_path / "c.txt"
        make_corpus(corpus, num_lines=20)
        out = tmp_path / "o"
        argv = ["train", "--corpus", str(corpus), "--out", str(out), "--epochs", "1"]
        assert main(argv + TRAIN_FLAGS) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not out.exists()

    def test_config_that_does_not_read_back_exits_2(self, tmp_path, capsys):
        # config.txt would hold "corpus = .../a#b.txt", read back as ".../a"
        corpus = tmp_path / "a#b.txt"
        make_corpus(corpus, num_lines=20)
        out = tmp_path / "o"
        argv = ["train", "--corpus", str(corpus), "--out", str(out), "--epochs", "1"]
        assert main(argv + TRAIN_FLAGS) == 2
        err = capsys.readouterr().err
        assert "error: corpus = " in err and "Traceback" not in err
        assert not out.exists()

    def test_bad_adv_spec(self, tmp_path):
        corpus = tmp_path / "c.txt"
        make_corpus(corpus, num_lines=10)
        rc = main(["train", "--corpus", str(corpus), "--adv", "sideways:1",
                   "--out", str(tmp_path / "o")] + TRAIN_FLAGS)
        assert rc == 2

    def test_separate_train_valid_files(self, tmp_path):
        train_file, valid_file = tmp_path / "tr.txt", tmp_path / "va.txt"
        make_corpus(train_file, num_lines=30, seed=0)
        make_corpus(valid_file, num_lines=10, seed=1)
        out = tmp_path / "o"
        rc = main(["train", "--train", str(train_file), "--valid",
                   str(valid_file), "--out", str(out), "--epochs", "1"]
                  + TRAIN_FLAGS)
        assert rc == 0
        assert len(TrainLog.load(str(out / "log.csv")).rows) == 1

    def test_env_seed_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ADVLM_SEED", "7")
        corpus = tmp_path / "c.txt"
        make_corpus(corpus, num_lines=20)
        out = tmp_path / "o"
        rc = main(["train", "--corpus", str(corpus), "--out", str(out),
                   "--epochs", "1", "--embed-dim", "8", "--batch-size", "2",
                   "--bptt-len", "4"])
        assert rc == 0
        assert parse_config((out / "config.txt").read_text())["seed"] == 7


def eval_ppl_from_stdout(capsys):
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("perplexity=")
    return lines[0]


class TestEvalCommand:
    def test_zero_init_ppl_equals_vocab_size(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        make_corpus(corpus, num_lines=20)
        vocab_size = 12  # 10 words + <unk>, <eos>
        params = init_params(LMConfig(vocab_size, 8, init_range=0.0), 0)
        save_checkpoint(params, str(tmp_path / "model.bin"))
        from advlm.corpus import build_vocab
        build_vocab(read_tokens(str(corpus))).save(str(tmp_path / "vocab.tsv"))
        rc = main(["eval", "--checkpoint", str(tmp_path / "model.bin"),
                   "--corpus", str(corpus), "--batch-size", "2",
                   "--bptt-len", "4"])
        assert rc == 0
        ppl = float(eval_ppl_from_stdout(capsys).split("=")[1])
        assert abs(ppl - vocab_size) <= 0.01 * vocab_size

    def test_eval_twice_identical(self, trained_run, capsys):
        args = ["eval", "--checkpoint", str(trained_run["out"] / "model.bin"),
                "--corpus", str(trained_run["corpus"]), "--batch-size", "2",
                "--bptt-len", "4"]
        assert main(args) == 0
        first = eval_ppl_from_stdout(capsys)
        assert main(args) == 0
        assert eval_ppl_from_stdout(capsys) == first

    def test_matches_final_logged_valid_ppl(self, trained_run, capsys):
        out = trained_run["out"]
        logged = TrainLog.load(str(out / "log.csv")).rows[-1].valid_ppl
        params = load_checkpoint(str(out / "model.bin"))
        vocab = Vocab.load(str(out / "vocab.tsv"))
        _, tail = split_tokens(read_tokens(str(trained_run["corpus"])))
        lib_ppl = evaluate(params, batchify(vocab.encode(tail), 2, 4))
        assert abs(lib_ppl - logged) <= 1e-6 * logged
        rc = main(["eval", "--checkpoint", str(out / "model.bin"),
                   "--corpus", str(trained_run["corpus"]), "--split", "valid",
                   "--batch-size", "2", "--bptt-len", "4"])
        assert rc == 0
        assert eval_ppl_from_stdout(capsys) == f"perplexity={lib_ppl:.6g}"

    def test_corrupt_checkpoint_exit_4(self, trained_run, tmp_path, capsys):
        data = (trained_run["out"] / "model.bin").read_bytes()
        cfg = load_checkpoint(str(trained_run["out"] / "model.bin")).config
        # magic + 4 config int64s + init_range, then the embedding's header
        head = 8 + 32 + 8
        huge_dims = (data[:head] + struct.pack("<3q", 2, 2 ** 60, cfg.embed_dim)
                     + data[head + 24:])
        huge_vocab = (data[:8] + struct.pack("<q", 2 ** 40) + data[16:head]
                      + struct.pack("<3q", 2, 2 ** 40, cfg.embed_dim)
                      + data[head + 24:])
        # headers declaring 10**5 and 2**40 layers over the same tensor bytes
        many_layers = [data[:32] + struct.pack("<q", n) + data[40:]
                       for n in (10 ** 5, 2 ** 40)]
        bad = tmp_path / "model.bin"
        for blob in (data[: len(data) // 2], huge_dims, huge_vocab, *many_layers):
            bad.write_bytes(blob)
            rc = main(["eval", "--checkpoint", str(bad), "--vocab",
                       str(trained_run["out"] / "vocab.tsv"), "--corpus",
                       str(trained_run["corpus"])])
            assert rc == 4
            err = capsys.readouterr().err
            assert "error:" in err and "Traceback" not in err

    def test_vocab_size_mismatch_exit_2(self, trained_run, tmp_path, capsys):
        small = Vocab(["<unk>", "<eos>", "alpha"])
        small.save(str(tmp_path / "vocab.tsv"))
        blobs = [(tmp_path / "vocab.tsv").read_bytes(),
                 b"<unk>\t0\n<eos>\t1\nfoo\tx\n",
                 b"<unk>\t0\n<eos>\t1\n\xff\t2\n"]
        for blob in blobs:
            (tmp_path / "vocab.tsv").write_bytes(blob)
            rc = main(["eval", "--checkpoint",
                       str(trained_run["out"] / "model.bin"), "--vocab",
                       str(tmp_path / "vocab.tsv"), "--corpus",
                       str(trained_run["corpus"])])
            assert rc == 2
            err = capsys.readouterr().err
            assert "error:" in err and "Traceback" not in err

    def test_eval_requires_corpus(self, trained_run, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint",
                  str(trained_run["out"] / "model.bin")])
        assert exc.value.code == 2
        assert "--corpus" in capsys.readouterr().err

    def test_nan_checkpoint_names_the_split(self, trained_run, tmp_path, capsys):
        params = load_checkpoint(str(trained_run["out"] / "model.bin"))
        params.embedding.values[3, 2] = np.nan
        save_checkpoint(params, str(tmp_path / "model.bin"))
        rc = main(["eval", "--checkpoint", str(tmp_path / "model.bin"),
                   "--vocab", str(trained_run["out"] / "vocab.tsv"),
                   "--corpus", str(trained_run["corpus"]), "--split", "valid",
                   "--batch-size", "2", "--bptt-len", "4"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == "error: --split valid perplexity is not finite: mean NLL nan\n"


def _scaled_checkpoint(trained_run, tmp_path, factor):
    """trained_run's checkpoint with every tensor times factor."""
    params = load_checkpoint(str(trained_run["out"] / "model.bin"))
    for t in params.tensors():
        t.values *= factor
    path = tmp_path / "model.bin"
    save_checkpoint(params, str(path))
    return path


def _run_unwarned(argv):
    """main(argv)'s exit code and the RuntimeWarnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestUntapedOverflow:
    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_overflowing_pass_exits_3(self, trained_run, tmp_path, capsys, command):
        # every tensor x1e200: the untaped pass's first matmul overflows
        out = tmp_path / "report"
        scaled = _scaled_checkpoint(trained_run, tmp_path, 1e200)
        argv = [command, "--checkpoint", str(scaled),
                "--vocab", str(trained_run["out"] / "vocab.tsv"),
                "--corpus", str(trained_run["corpus"]), "--batch-size", "2",
                "--bptt-len", "4"]
        if command == "analyze":
            argv += ["--out", str(out)]
        rc, warned = _run_unwarned(argv)
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ") and "overflow" in err
        assert "Traceback" not in err
        assert not warned
        assert not out.exists()


REPORT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["nn_distances", "singular_values_normalized", "sv_entropy",
                 "recognized_words"],
    "properties": {
        "nn_distances": {"type": "array", "items": {"type": "number"}},
        "singular_values_normalized":
            {"type": "array", "items": {"type": "number"}},
        "sv_entropy": {"type": "number"},
        "recognized_words": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["word_id", "probe_source", "epsilon",
                             "nn_distance"],
                "properties": {
                    "word_id": {"type": "integer"},
                    "probe_source": {"type": "string"},
                    "epsilon": {"type": "number"},
                    "nn_distance": {"type": "number"},
                },
            },
        },
    },
}


class TestAnalyzeCommand:
    def test_identity_embedding_report(self, tmp_path, capsys):
        params = init_params(LMConfig(6, 6, init_range=0.0), 0)
        params.embedding.values[:] = np.eye(6)
        ckpt = tmp_path / "model.bin"
        save_checkpoint(params, str(ckpt))
        out = tmp_path / "report"
        rc = main(["analyze", "--checkpoint", str(ckpt), "--out", str(out),
                   "--num-random", "20"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        np.testing.assert_allclose(report["nn_distances"],
                                   np.sqrt(2.0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(report["singular_values_normalized"],
                                   1.0, rtol=0, atol=1e-12)
        lines = (out / "nn_distances.csv").read_text().splitlines()
        assert lines[0] == "word,nn_distance"
        assert len(lines) == 1 + 6
        word, dist = lines[1].split(",")
        assert word == "0"
        np.testing.assert_allclose(float(dist), np.sqrt(2.0), atol=1e-9)
        capsys.readouterr()

    def test_nn_distances_csv_reads_back(self, tmp_path, capsys):
        # a token holding , or " is one quoted field, and "the" stays apart from the
        words = [",", '"the"', "the", "a,b", "x"]
        rng = np.random.default_rng(0)
        corpus = tmp_path / "c.txt"
        corpus.write_text("".join(" ".join(rng.choice(words, 6)) + "\n" for _ in range(20)),
                          encoding="utf-8")
        vocab = build_vocab(read_tokens(str(corpus)))
        save_checkpoint(init_params(LMConfig(len(vocab), 4), 0), str(tmp_path / "model.bin"))
        vocab.save(str(tmp_path / "vocab.tsv"))
        out = tmp_path / "a"
        rc = main(["analyze", "--checkpoint", str(tmp_path / "model.bin"), "--corpus",
                   str(corpus), "--out", str(out), "--num-random", "10",
                   "--batch-size", "2", "--bptt-len", "4"])
        assert rc == 0
        with open(out / "nn_distances.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 2 for row in rows)
        assert [row[0] for row in rows] == ["word"] + vocab.id_to_token
        capsys.readouterr()

    def test_report_validates_against_schema(self, trained_run, tmp_path,
                                             capsys):
        out = tmp_path / "report"
        rc = main(["analyze", "--checkpoint",
                   str(trained_run["out"] / "model.bin"), "--corpus",
                   str(trained_run["corpus"]), "--adv", "adaptive:0.05",
                   "--out", str(out), "--num-random", "50", "--batch-size",
                   "2", "--bptt-len", "4"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        sources = {e["probe_source"] for e in report["recognized_words"]}
        assert sources <= {"train", "random"}
        text = capsys.readouterr().out
        assert "median_nn_distance=" in text
        assert "sv_entropy=" in text

    def test_csv_uses_tokens_when_vocab_known(self, trained_run, tmp_path,
                                              capsys):
        out = tmp_path / "report"
        rc = main(["analyze", "--checkpoint",
                   str(trained_run["out"] / "model.bin"), "--corpus",
                   str(trained_run["corpus"]), "--out", str(out),
                   "--num-random", "10", "--batch-size", "2",
                   "--bptt-len", "4"])
        assert rc == 0
        lines = (out / "nn_distances.csv").read_text().splitlines()
        assert lines[1].split(",")[0] == "<unk>"
        assert lines[2].split(",")[0] == "<eos>"
        capsys.readouterr()

    def test_bad_adv_spec_exit_2(self, trained_run, tmp_path, capsys):
        rc = main(["analyze", "--checkpoint",
                   str(trained_run["out"] / "model.bin"), "--adv", "fixed:-1",
                   "--out", str(tmp_path / "r")])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("with_corpus", [False, True], ids=["random", "corpus"])
    def test_overflowing_distances_exit_3(self, trained_run, tmp_path, capsys,
                                          with_corpus):
        # finite entries whose squares overflow: the spectrum accepts them
        params = load_checkpoint(str(trained_run["out"] / "model.bin"))
        params.embedding.values *= 1e303
        save_checkpoint(params, str(tmp_path / "model.bin"))
        (tmp_path / "vocab.tsv").write_bytes((trained_run["out"] / "vocab.tsv").read_bytes())
        out = tmp_path / "report"
        argv = ["analyze", "--checkpoint", str(tmp_path / "model.bin"), "--out", str(out),
                "--num-random", "10", "--batch-size", "2", "--bptt-len", "4"]
        if with_corpus:
            argv += ["--corpus", str(trained_run["corpus"])]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        assert rc == 3
        assert "overflow" in capsys.readouterr().err
        assert not out.exists()
        warned = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not warned

    @pytest.mark.parametrize("adv", ["adaptive:1e308", "fixed:1e308"])
    def test_overflowing_radii_exit_3(self, tmp_path, capsys, adv):
        # rows and random probes of norm about 4.6 (d=64, init range 1): the
        # adaptive radius or the fixed margin eps*||h|| overflows
        params = init_params(LMConfig(vocab_size=12, embed_dim=64, init_range=1.0), 0)
        save_checkpoint(params, str(tmp_path / "model.bin"))
        out = tmp_path / "report"
        rc, warned = _run_unwarned(["analyze", "--checkpoint", str(tmp_path / "model.bin"),
                                    "--adv", adv, "--out", str(out), "--num-random", "10"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ") and "overflow" in err
        assert "Traceback" not in err
        assert not warned
        assert not out.exists()

    @pytest.mark.parametrize("num_random,code", [(-1, 2), (2 ** 61, 2), (3, 0)],
                             ids=["negative", "past_address_space", "valid"])
    def test_num_random_checked_before_the_context_pass(
            self, trained_run, tmp_path, capsys, monkeypatch, num_random, code):
        windows = []

        def counting(params, stream):
            for item in stream_contexts(params, stream):
                windows.append(1)
                yield item

        monkeypatch.setattr("advlm.analysis.stream_contexts", counting)
        out = tmp_path / "report"
        rc = main(["analyze", "--checkpoint", str(trained_run["out"] / "model.bin"),
                   "--corpus", str(trained_run["corpus"]), "--out", str(out),
                   "--num-random", str(num_random), "--batch-size", "2",
                   "--bptt-len", "4"])
        err = capsys.readouterr().err
        assert rc == code
        if code == 2:
            assert "num_random" in err and "Traceback" not in err
            assert not windows and not out.exists()
        else:
            assert len(windows) > 0

    def test_corrupt_checkpoint_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "model.bin"
        bad.write_bytes(b"not a checkpoint at all")
        rc = main(["analyze", "--checkpoint", str(bad),
                   "--out", str(tmp_path / "r")])
        assert rc == 4
        capsys.readouterr()


class TestVerifyCommand:
    def test_smoke_run_passes(self, capsys):
        rc = main(["verify", "--scale", "0.02", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 6
        assert all(l.startswith("PASS ") for l in lines)
