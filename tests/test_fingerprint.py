"""tools/fingerprint.py: one entry is the same twice at one revision, and
--against a REV that names no commit stops before any entry runs."""

from advlm.model import LMConfig, init_params, save_checkpoint

from support import ROOT, checkout, load

fingerprint = load("tools/fingerprint.py")


def test_desk_entry_repeats_at_one_revision(tmp_path):
    # digests depend on the BLAS build and thread count, so none is pinned:
    # two runs in one environment must agree
    names = ["desk", "cli_train", "cli_eval", "corpora"]
    inputs = fingerprint.make_inputs(names, str(tmp_path / "in"))
    a, b = (fingerprint.fingerprint(str(ROOT), names, inputs, str(tmp_path / side))
            for side in "ab")
    assert a["entries"] == b["entries"]
    desk = a["entries"]["desk"]
    assert set(desk) == {"digest", "model_bin_sha256", "records_per_backward",
                         "leaf_ratios"}
    assert len(desk["records_per_backward"]) == len(desk["leaf_ratios"]) > 0
    assert set(a["entries"]["cli_train"]) == {"model.bin", "vocab.tsv", "config.txt",
                                              "log.csv without wall_s"}
    assert set(a["entries"]["cli_eval"]) == {"eval", "report.json", "nn_distances.csv"}
    assert a["entries"]["cli_eval"]["eval"].startswith("perplexity=")
    assert set(a["entries"]["corpora"]) == {"desk (55000 tokens)", "ab_grid (2000 tokens)"}
    assert a["machine"]["openblas"] == b["machine"]["openblas"]


def test_param_diff_reports_the_largest_differences(tmp_path):
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    params = init_params(LMConfig(vocab_size=4, embed_dim=2), 0)
    save_checkpoint(params, a)
    x = params.embedding.values[1, 0]
    y = params.embedding.values[1, 0] = 2 * x + 0.5
    save_checkpoint(params, b)
    rel = abs(y - x) / max(abs(x), abs(y))
    assert fingerprint.param_diff(a, b) == \
        f"max abs diff {abs(y - x):.3g}, max rel diff {rel:.3g}"
    assert fingerprint.param_diff(a, a) == "max abs diff 0, max rel diff 0"


def test_unknown_revision_exits_2_before_any_entry(monkeypatch, capsys):
    worktrees = checkout.git(str(ROOT), "worktree", "list")
    runs = []
    monkeypatch.setattr(fingerprint, "run_entry", lambda *args: runs.append(args))
    assert fingerprint.main(["--against", "no-such-rev"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and runs == []
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert checkout.git(str(ROOT), "worktree", "list") == worktrees
