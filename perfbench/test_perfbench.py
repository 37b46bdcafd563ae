"""Tests for the benchmark's own arithmetic, tracer and speed rescaling, plus a smoke run.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402

# Seed the benchmark was not tuned on; the smoke runs use it.
HELD_OUT_SEED = 9001


# -- percentile rule --------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (11, None), (19, None), (20, 50), (21, 52), (30, 66), (100, 90), (1000, 99)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    p = stats.highest_percentile(n)
    assert p == expected
    if p is not None:
        assert n - math.ceil(p * n / 100) >= 10
        assert n - math.ceil((p + 1) * n / 100) < 10


def test_nearest_rank_percentile():
    values = list(range(10, 0, -1))
    assert stats.percentile(values, 50) == 5
    assert stats.percentile(values, 90) == 9
    assert stats.percentile(values, 100) == 10
    assert stats.percentile(values, 0) == 1
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# -- self time --------------------------------------------------------------


def _span(sid, parent, t0, t1, pid=1, name="x", info=None):
    return ((pid, sid), None if parent is None else (pid, parent), pid, name, t0, t1, info)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 5.0, 7.0),
    ]
    own = self_times(spans)
    assert own[(1, 0)] == pytest.approx(5.0)
    assert own[(1, 1)] == pytest.approx(2.0)
    assert own[(1, 2)] == pytest.approx(1.0)
    assert own[(1, 3)] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlap_once_and_ignores_other_processes():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 6.0),
        _span(2, 0, 4.0, 12.0),  # overlaps its sibling and outlives its parent
        ((2, 0), (1, 0), 2, "worker", 0.0, 9.0, None),  # a forked worker's span
    ]
    own = self_times(spans)
    assert own[(1, 0)] == pytest.approx(1.0)
    assert own[(2, 0)] == pytest.approx(9.0)


def test_tracer_records_nesting_and_exceptions():
    tracer = Tracer(ROOT / "unused-spill-dir")

    def inner(x):
        return x + 1

    holder = type("Holder", (), {})()
    holder.inner = tracer.wrap("inner", inner)

    def outer(x):
        return holder.inner(x) * 2

    traced_outer = tracer.wrap("outer", outer)
    assert traced_outer(1) == 4
    by_name = {s[3]: s for s in tracer.spans}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["outer"][1] is None
    own = self_times(tracer.spans)
    assert 0 <= own[by_name["outer"][0]] <= by_name["outer"][5] - by_name["outer"][4]

    with pytest.raises(ZeroDivisionError):
        tracer.wrap("boom", lambda: 1 / 0)()
    assert tracer.spans[-1][6] == {"raised": "ZeroDivisionError"}


def test_install_and_uninstall_leave_pitchlab_unchanged(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from pitchlab import cli, estimators, evaluation, sigproc

    before = (cli.main, evaluation.fuse_votes, dict(estimators.REGISTRY),
              estimators.NoteAnalysis.__dict__["spectra"], sigproc.Spectrum.__dict__["__post_init__"])
    tracer = Tracer(tmp_path / "spill")
    tracer.install()
    try:
        assert cli.main is not before[0]
        note = sigproc.AudioBuffer([2.0 * ((220 * i / 8000) % 1.0) - 1.0 for i in range(4000)], 8000)
        estimate = estimators.estimate_note(note, "hps")
        assert abs(estimate.f0 - 220) < 5
    finally:
        tracer.uninstall()
    after = (cli.main, evaluation.fuse_votes, dict(estimators.REGISTRY),
             estimators.NoteAnalysis.__dict__["spectra"], sigproc.Spectrum.__dict__["__post_init__"])
    assert after == before
    metrics = layer_metrics(tracer.collect(), jobs=1)
    assert metrics["estimators.hps.calls"] == 1
    assert metrics["estimators.NoteAnalysis.count"] == 1
    assert metrics["sigproc.Spectrum.count"] == metrics["sigproc.frames"] > 0
    assert metrics["estimators.srh.calls"] == 0


def test_layer_metrics_ratios():
    spans = [
        _span(0, None, 0.0, 4.0, name="evaluation.run_benchmark"),
        ((7, 0), None, 7, "evaluation.benchmark_task", 0.0, 3.0, None),
        ((8, 0), None, 8, "evaluation.benchmark_task", 0.0, 3.0, None),
        _span(1, None, 5.0, 5.5, name="ensemble.fuse_votes", info={"spread": 10.0, "miss": 0}),
        _span(2, None, 6.0, 6.5, name="ensemble.fuse_votes", info={"spread": None, "miss": 1}),
        _span(3, None, 7.0, 7.5, name="ensemble.fuse_votes", info={"spread": 30.0, "miss": 0}),
        _span(4, None, 8.0, 9.0, name="estimators.lpc_residual", info={"raised": "LpcUnstable"}),
    ]
    m = layer_metrics(spans, jobs=2)
    assert m["evaluation.worker_busy_s"] == pytest.approx(6.0)
    assert m["evaluation.parallel_efficiency"] == pytest.approx(6.0 / (2 * 4.0))
    assert m["ensemble.fuse_votes.calls"] == 3
    assert m["ensemble.fuse_votes.quorum_miss"] == 1
    assert m["ensemble.vote_spread_cents_p50"] == pytest.approx(20.0)
    assert m["estimators.lpc_unstable"] == 1


# -- failures and the quarter-tone check -----------------------------------


def test_failed_frac():
    assert stats.failed_frac(0, 10) == 0.0
    assert stats.failed_frac(3, 12) == 0.25
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0)
    with pytest.raises(ValueError):
        stats.failed_frac(5, 4)


def test_quarter_tone_check_is_symmetric_in_cents():
    truth = 220.0
    assert stats.within_quarter_tone(truth * 2 ** (49.9 / 1200), truth)
    assert stats.within_quarter_tone(truth * 2 ** (-49.9 / 1200), truth)
    assert not stats.within_quarter_tone(truth * 2 ** (50.1 / 1200), truth)
    assert not stats.within_quarter_tone(truth * 2 ** (-50.1 / 1200), truth)
    assert not stats.within_quarter_tone(None, truth)
    assert not stats.within_quarter_tone(2 * truth, truth)


def test_sqrt_hz_error_scores_unvoiced_as_zero_hz():
    assert stats.sqrt_hz_error([444.0], [440.0]) == pytest.approx(2.0)
    assert stats.sqrt_hz_error([None, 441.0], [100.0, 440.0]) == pytest.approx(5.5)
    with pytest.raises(ValueError):
        stats.sqrt_hz_error([1.0], [])


def test_vote_spread_cents():
    assert stats.vote_spread_cents([220.0, None, 440.0, 330.0]) == pytest.approx(1200.0)
    assert stats.vote_spread_cents([220.0, None]) is None


# -- speed rescaling -----------------------------------------------------------


def test_kernel_is_deterministic():
    assert speed.kernel() == speed.kernel()


@pytest.mark.parametrize("background", [False, True])
def test_speedometer_samples_before_the_first_call_and_after_each(monkeypatch, background):
    times = iter([0.01, 0.02, 0.03, 0.04, 0.05, 0.06])
    monkeypatch.setattr(speed, "probe", lambda clock=None: next(times))
    meter = speed.Speedometer(background=background, period=60.0, repeats=2)
    assert meter.around(lambda: "first") == "first"
    assert meter.around(lambda: "second") == "second"
    assert meter.times == [0.01, 0.02, 0.03, 0.04, 0.05, 0.06]
    assert meter.slowdown() == pytest.approx(0.035 / speed.REFERENCE_KERNEL_S)


def test_speedometer_samples_in_the_background_during_a_call(monkeypatch):
    import time

    clocks = []
    monkeypatch.setattr(speed, "probe", lambda clock=None: clocks.append(clock) or 0.02)
    meter = speed.Speedometer(background=True, period=0.01, repeats=1)
    meter.around(lambda: time.sleep(0.2))
    assert clocks.count(time.thread_time) >= 2
    assert clocks[0] is None and clocks[-1] is None
    assert meter.slowdown() == pytest.approx(0.02 / speed.REFERENCE_KERNEL_S)


# -- the declared metrics and a smoke run -----------------------------------


def test_benchmark_json_declares_what_run_reports():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize(
    "workload, trace",
    [("estimate-ensemble", 0), ("estimate-ensemble", 1), ("bench-grid", 1)],
)
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(HELD_OUT_SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    names = [n for n, _u in (run.per_layer_names() if trace else run.END_TO_END)]
    assert list(result["metrics"]) == names
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    assert values["cli.main.self_s"] > 0
    assert values["estimators.srh.calls"] > 0
    if workload == "bench-grid":
        assert values["evaluation.worker_busy_s"] > 0
        assert values["estimators.acf.calls"] > 0
        assert values["noise.NoiseRef.resolve.calls"] > 0
    else:
        assert values["estimators.acf.calls"] == 0
