"""tools/bench.py: summarising and diffing perfbench results, on canned
results (no benchmark runs here), the per-layer timings at a tiny shape, and
the one command, written and --quick, on canned runs."""

import json
import subprocess

import pytest

from support import ROOT, load

bench = load("tools/bench.py")


def _result(setup, op, rss, figures=None, layers=None):
    metrics = layers or {"setup_s": setup, "op_s": op, "peak_rss_mb": rss}
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
            "figures": figures or {}}


def test_spread_median_iqr_values():
    s = bench.spread([4.0, 1.0, 3.0, 2.0, 5.0])
    assert s == {"median": 3.0, "iqr": 2.0, "values": [4.0, 1.0, 3.0, 2.0, 5.0]}
    assert bench.spread([0.7]) == {"median": 0.7, "iqr": 0.0, "values": [0.7]}


def test_parse_output_reads_last_line_machine_and_figures():
    line = {"correct": True, "attempted": 4, "failed": 0,
            "metrics": {"op_s": {"value": 0.5, "unit": "s"}}}
    stdout = "\n".join([
        "perfbench workload=analyze_wide seed=1 seconds=20 trace=0",
        "machine: nproc=2 git=abc",
        "  op 1: op_s=0.5000 setup_s=0.3000 peak_rss_mb=80.0",
        "  setup_s                   0.3 s          lower",
        "  train_tokens_per_s         n/a targets/s  higher",
        "  analyze_s                0.61 s          lower",
        "  op_s                      0.5 s          lower (median of 4 operations)",
        "  layer analysis.singular_values -> analyze_s on analyze_wide",
        json.dumps(line)])
    got = bench.parse_output(stdout)
    assert got["metrics"] == line["metrics"]
    assert got["machine"] == "nproc=2 git=abc"
    assert got["figures"] == {"analyze_s": 0.61}  # gated and n/a ones left out
    assert bench.is_good(got)
    assert not bench.is_good({**got, "failed": 1})
    assert not bench.is_good({**got, "correct": False})


def test_summarize_untraced_and_traced():
    untraced = [_result(0.3, 0.7, 80.0, {"analyze_s": 0.6}),
                _result(0.5, 0.9, 81.0, {"analyze_s": 0.8}),
                _result(0.4, 0.8, 79.0, {"analyze_s": 0.7})]
    traced = [_result(0, 0, 0, layers={"a.self_s": 0.2, "a.calls": 1.0}),
              _result(0, 0, 0, layers={"a.self_s": 0.4, "a.calls": 1.0})]
    got = bench.summarize(untraced, traced)
    assert got["op_s"]["median"] == 0.8
    assert got["op_s"]["values"] == [0.7, 0.9, 0.8]
    assert got["peak_rss_mb"]["iqr"] == pytest.approx(1.0)
    assert got["figures"] == {"analyze_s": 0.7}
    assert got["per_layer"] == {"a.self_s": pytest.approx(0.3), "a.calls": 1.0}
    assert "per_layer" not in bench.summarize(untraced, [])


def test_diff_against_previous_file():
    prev = {"workloads": {
        "desk": bench.summarize([_result(1.0, 2.0, 40.0)], []),
        "gone": bench.summarize([_result(1.0, 1.0, 1.0)], [])}}
    cur = {"workloads": {
        "desk": bench.summarize([_result(1.0, 1.5, 44.0, {"analyze_s": 1.0})], []),
        "new": bench.summarize([_result(1.0, 1.0, 1.0)], [])}}
    got = bench.diff(prev, cur)
    assert set(got) == {"desk"}
    assert got["desk"]["op_s"] == {"before": 2.0, "after": 1.5, "change": -0.25}
    assert got["desk"]["peak_rss_mb"]["change"] == pytest.approx(0.1)
    assert "figures.analyze_s" not in got["desk"]  # only in the new file


def test_diff_takes_layer_medians_per_shape():
    def record(ms):
        return {"layers": {"shapes": {"desk": {"V": 239, "layers": {
            "lstm_layer.forward": bench.spread([ms]),
            "train.sgd_step": bench.spread([1.0])}}}}}
    got = bench.diff(record(2.0), record(1.5))
    assert got == {"layers.desk": {
        "lstm_layer.forward": {"before": 2.0, "after": 1.5, "change": -0.25},
        "train.sgd_step": {"before": 1.0, "after": 1.0, "change": 0.0}}}
    assert bench.diff({"workloads": {}}, record(1.0)) == {}


def test_bench_paths_number_after_the_latest(tmp_path):
    assert bench.bench_paths(str(tmp_path)) == (str(tmp_path / "BENCH_1.json"), None)
    for name in ("BENCH_1.json", "BENCH_3.json", "BENCH_x.json", "BENCH_2.json.bak"):
        (tmp_path / name).write_text("{}")
    assert bench.bench_paths(str(tmp_path)) == (str(tmp_path / "BENCH_4.json"),
                                                str(tmp_path / "BENCH_3.json"))


# /proc/stat's first line: user nice system idle iowait irq softirq steal
# guest guest_nice, in ticks.
STAT_BEFORE = "cpu  1000 50 300 9000 20 5 5 0 0 0\ncpu0 500 25 150 4500 10 2 2 0 0 0\n"
STAT_AFTER = "cpu  1400 50 420 9100 30 7 8 0 400 0\ncpu0 700 25 210 4550 15 3 4 0 200 0\n"


def test_busy_cpu_s_counts_busy_ticks_but_not_guest_twice():
    assert bench.busy_cpu_s(STAT_BEFORE, 100) == pytest.approx(13.6)
    # +400 user, +120 system, +2 irq, +3 softirq; the +400 guest is in user
    assert bench.busy_cpu_s(STAT_AFTER, 100) - bench.busy_cpu_s(STAT_BEFORE, 100) \
        == pytest.approx(5.25)
    with pytest.raises(ValueError):
        bench.busy_cpu_s("intr 1 2 3\n", 100)


def test_host_load_flags_other_work_above_a_tenth_of_a_core():
    busy = bench.host_load(STAT_BEFORE, STAT_AFTER, 4.0, 10.0, 100)
    assert busy == {"wall_s": 10.0, "other_cpu_s": pytest.approx(1.25),
                    "other_cores": pytest.approx(0.125), "busy": True}
    quiet = bench.host_load(STAT_BEFORE, STAT_AFTER, 4.5, 10.0, 100)
    assert quiet["other_cores"] == pytest.approx(0.075) and not quiet["busy"]


LAYERS = ("corpus.read_tokens", "gather_rows.forward", "gather_rows.backward",
          "lstm_layer.forward", "lstm_layer.forward_taped", "lstm_layer.backward",
          "nll_rows.forward", "nll_rows.taped", "nll_rows.taped_adv", "train.sgd_step",
          "analysis.singular_values", "analysis.nearest_neighbor_distances",
          "analysis._recognized_per_probe")
TINY = {"V": 12, "d": 4, "B": 2, "L": 3}
PEAK = "train_window.peak_mb"  # beside the timed layers, at each shape


def test_time_layers_times_every_layer_at_a_tiny_shape():
    got = bench.time_layers(TINY, 3)
    assert tuple(got) == LAYERS
    for name, s in got.items():
        assert len(s["values"]) == 3 and s["median"] > 0, name


def test_window_peak_mb_is_one_traced_window_at_a_shape():
    tiny = bench.window_peak_mb(TINY)
    assert 0 < tiny == pytest.approx(bench.window_peak_mb(TINY), rel=0.1)  # seeded
    # the window's V x d arrays grow with V
    assert bench.window_peak_mb({**TINY, "V": 4000, "d": 32}) > tiny + 4000 * 32 * 8 / 2 ** 20


def test_layer_shapes_desk_is_the_acceptance_config():
    assert bench.layer_shapes() == {"desk": {"V": 239, "d": 64, "B": 8, "L": 16},
                                    "v10k": {"V": 10_000, "d": 200, "B": 32, "L": 32}}


@pytest.fixture
def canned_runs(monkeypatch):
    """Canned perfbench runs, the tiny layer shape, and a Tier-1 that records
    that it was asked for instead of starting pytest."""
    canned = {**_result(0.2, 1.0, 40.0), "machine": "canned",
              "host": {"busy": False, "other_cores": 0.0}}
    tier1 = []

    def time_tier1():
        tier1.append("called")
        return {"wall_s": 1.0, "summary": "canned"}

    monkeypatch.setattr(bench, "run_perfbench", lambda *args: canned)
    monkeypatch.setattr(bench, "layer_shapes", lambda: {"tiny": TINY})
    monkeypatch.setattr(bench, "time_tier1", time_tier1)
    return tier1


def test_one_command_writes_tier1_layers_and_change(canned_runs, monkeypatch, tmp_path,
                                                    capsys):
    real_paths = bench.bench_paths
    monkeypatch.setattr(bench, "bench_paths", lambda _: real_paths(str(tmp_path)))
    (tmp_path / "BENCH_1.json").write_text(json.dumps(
        {"workloads": {"desk": bench.summarize([_result(0.2, 2.0, 40.0)], [])}}))
    assert bench.main([]) == 0
    assert capsys.readouterr().out == ""
    record = json.loads((tmp_path / "BENCH_2.json").read_text())
    assert record["tier1"] == {"wall_s": 1.0, "summary": "canned"}
    assert canned_runs == ["called"]
    layers = record["layers"]["shapes"]["tiny"]["layers"]
    assert set(layers) == {*LAYERS, PEAK}
    assert layers[PEAK]["values"] == [pytest.approx(bench.window_peak_mb(TINY), rel=0.1)]
    assert record["seeds"] == [1, 2, 3]
    assert record["change_vs"] == "BENCH_1.json"
    assert record["change"]["desk"]["op_s"] == {"before": 2.0, "after": 1.0, "change": -0.5}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_1.json", "BENCH_2.json"]


def test_layers_quick_prints_the_section_and_writes_no_file(canned_runs, capsys):
    files = sorted(p.name for p in ROOT.glob("BENCH_*"))
    assert bench.main(["--quick"]) == 0
    assert sorted(p.name for p in ROOT.glob("BENCH_*")) == files
    record = json.loads(capsys.readouterr().out)
    assert "tier1" not in record and canned_runs == []
    assert record["seeds"] == [1] and record["seconds"] == 5.0
    layers = record["layers"]
    assert set(layers["shapes"]["tiny"]["layers"]) == {*LAYERS, PEAK}  # keys sorted
    assert layers["repeats"] == bench.LAYER_REPEATS
    assert "openblas" in layers["machine"] and "openblas_threads" in layers["machine"]


def test_git_failure_exits_before_any_run(canned_runs, monkeypatch, capsys):
    def fail(root, *args):
        raise subprocess.CalledProcessError(128, ["git", "-C", root, *args])

    runs = []
    monkeypatch.setattr(bench.checkout, "git", fail)
    monkeypatch.setattr(bench, "run_perfbench", lambda *args: runs.append(args))
    assert bench.main(["--quick"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and runs == []
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("flag", ["--tier1", "--layers"])
def test_folded_flags_are_gone(flag, canned_runs):  # stubbed, should one run
    with pytest.raises(SystemExit) as e:
        bench.main([flag])
    assert e.value.code == 2
