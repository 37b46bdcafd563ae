import json
import os
import shlex
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pitchlab.ensemble import (
    DEFAULT_MEMBERS,
    EnsembleSpec,
    ExternalEstimator,
    ensemble_estimate,
    ensemble_f0,
    fuse_votes,
    load_ensemble_spec,
    member_votes,
    run_external,
)
from pitchlab.estimators import (
    REGISTRY,
    EstimatorConfig,
    NoteAnalysis,
    estimate_note_many,
    refine_f0,
)
from pitchlab.evaluation import QUARTER_TONE, is_gross
from pitchlab.sigproc import AudioBuffer

from conftest import saw_buffer, sine_buffer

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


class TestFuseVotes:
    def test_median_ignores_one_octave_outlier(self):
        assert fuse_votes([218.0, 219.0, 220.0, 221.0, 440.0]) == 220.0

    def test_even_count_averages_middle_pair(self):
        assert fuse_votes([220.0, 440.0]) == 330.0

    def test_unvoiced_votes_dropped(self):
        assert fuse_votes([None, 220.0, None, 222.0]) == 221.0

    def test_quorum_of_two(self):
        assert fuse_votes([220.0]) is None
        assert fuse_votes([220.0, None, None]) is None
        assert fuse_votes([]) is None
        assert fuse_votes([None, None]) is None

    def test_permutation_invariant(self, rng):
        votes = [100.0, 150.0, 200.0, 250.0, 300.0, None]
        reference = fuse_votes(votes)
        for _ in range(20):
            shuffled = list(votes)
            rng.shuffle(shuffled)
            assert fuse_votes(shuffled) == reference


# 1 to 40 votes drawn with repeats from up to 8 distinct f0s
VOTE_LISTS = st.lists(
    st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=8
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40))


@settings(max_examples=300, deadline=None)
@given(votes=VOTE_LISTS, n_unvoiced=st.integers(0, 3))
def test_medians_equal_numpys_to_the_float(votes, n_unvoiced):
    # sorting and taking the middle gives np.median's float, for odd and even
    # counts; unvoiced votes and the quorum of two are unchanged. A kernel's
    # note f0 is that median of its frames' votes: acf's at 8 kHz, on rows each
    # peaking at one lag in [2, 1024] drawn from the votes, then silent rows
    expected = float(np.median(votes))
    fused = fuse_votes(votes + [None] * n_unvoiced)
    assert fused is None if len(votes) < 2 else (type(fused) is float and fused == expected)
    lags = [2 + int(v) % 1023 for v in votes]
    r = np.zeros((len(lags) + n_unvoiced, 1026))
    r[np.arange(len(lags)), lags] = 1.0
    analysis = NoteAnalysis(AudioBuffer(np.zeros(1), 8000))
    analysis.__dict__.update(rect_corr=(r, None), live=np.arange(len(r)) < len(lags))
    estimate = REGISTRY["acf"].note_fn(analysis, EstimatorConfig(8000 / 1024, 4000.0))
    f0s = [8000 / lag for lag in lags]
    assert type(estimate.f0) is float and estimate.f0 == float(np.median(f0s))
    assert estimate.per_frame == tuple(f0s) + (None,) * n_unvoiced


class TestEnsembleSpec:
    def test_default_members(self):
        spec = EnsembleSpec()
        assert spec.members == ("hps", "stft", "ml", "srh")
        assert DEFAULT_MEMBERS == spec.members

    def test_rejects_unknown_member(self):
        with pytest.raises(ValueError):
            EnsembleSpec(members=("hps", "crepe"))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            EnsembleSpec(members=("hps", "hps"))

    def test_rejects_single_voter(self):
        with pytest.raises(ValueError):
            EnsembleSpec(members=("hps",))

    def test_single_member_plus_external_is_enough(self):
        external = ExternalEstimator(command="true")
        spec = EnsembleSpec(members=("hps",), external=external)
        assert spec.members == ("hps",)

    def test_member_configs_fill_defaults(self):
        # the override applies to its member alone; the others keep their
        # defaults, and an entry for a method that does not vote is ignored
        custom = EstimatorConfig(50.0, 700.0, 3)
        configs = {"hps": custom, "yin": EstimatorConfig(50.0, 500.0)}
        note = saw_buffer(110.0, 0.3)
        votes = member_votes(NoteAnalysis(note), EnsembleSpec(), configs)
        expected = estimate_note_many(
            NoteAnalysis(note), {"hps": custom, "stft": None, "ml": None, "srh": None}
        )
        assert votes == expected


def test_load_spec_from_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "members": ["hps", "ml"],
        "external": {"command": "mypitch --quiet", "f_min": 40, "f_max": 2000},
    }))
    spec = load_ensemble_spec(path)
    assert spec.members == ("hps", "ml")
    assert spec.external.command == "mypitch --quiet"
    assert spec.external.timeout_s == 10.0


def test_load_spec_rejects_unknown_keys(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"members": ["hps", "ml"], "quorum": 3}')
    with pytest.raises(ValueError):
        load_ensemble_spec(path)


def test_load_spec_rejects_member_configs(tmp_path):
    # member overrides come from estimate's --config file alone
    path = tmp_path / "spec.json"
    path.write_text('{"members": ["hps", "ml"], "configs": {"ml": {"f_max": 600}}}')
    with pytest.raises(ValueError, match="configs"):
        load_ensemble_spec(path)


def test_readme_spec_example_loads(tmp_path):
    # building the external member only splits its command; no process starts
    section = README.split("\n## The ensemble\n", 1)[1].split("\n## ", 1)[0]
    path = tmp_path / "spec.json"
    path.write_text(section.split("```json\n", 1)[1].split("```", 1)[0])
    spec = load_ensemble_spec(path)
    assert spec.members == DEFAULT_MEMBERS
    assert spec.external == ExternalEstimator("/path/to/estimator --quiet", timeout_s=10.0)


@pytest.mark.parametrize("command", ["", "   ", "foo \"bar", "'unclosed", "trailing\\", "a\0b"])
def test_external_rejects_a_command_that_names_no_program(command):
    with pytest.raises(ValueError, match="external command"):
        ExternalEstimator(command)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(" \t\n\\'\"#;$\0ab-"), max_size=12) | st.text(max_size=12))
def test_external_command_splits_into_a_program_or_is_rejected(command):
    # built only, never run
    try:
        estimator = ExternalEstimator(command)
    except ValueError:
        return
    argv = shlex.split(estimator.command)
    assert argv and not any("\0" in arg for arg in argv)


# ---------------------------------------------------------------------------
# external estimator subprocess protocol
# ---------------------------------------------------------------------------


def _stub(tmp_path, body: str) -> str:
    """Write a stub estimator script and return a shell command for it."""
    path = tmp_path / "stub.py"
    path.write_text(body)
    return f"{shlex.quote(sys.executable)} {shlex.quote(str(path))}"


CHECKED_READER = """
import sys
header = sys.stdin.buffer.readline().decode("ascii").split()
assert header[0] == "RATE" and header[2] == "COUNT", header
rate, count = int(header[1]), int(header[3])
payload = sys.stdin.buffer.read()
assert len(payload) == 4 * count, (len(payload), count)
"""


def test_external_conformant_stub(tmp_path):
    # the stub validates the wire format and derives its reply from the
    # declared sample rate, proving both directions of the protocol
    command = _stub(tmp_path, CHECKED_READER + 'print(f"F0 {rate / 100.0}")\n')
    est = run_external(ExternalEstimator(command=command), sine_buffer(220.0, 0.05))
    assert est.f0 == pytest.approx(441.0)


def test_external_unvoiced_reply(tmp_path):
    command = _stub(tmp_path, CHECKED_READER + 'print("UNVOICED")\n')
    est = run_external(ExternalEstimator(command=command), sine_buffer(220.0, 0.05))
    assert est.voiced is False


def test_external_malformed_reply_is_unvoiced(tmp_path, caplog):
    command = _stub(tmp_path, 'import sys; sys.stdin.buffer.read(); print("howdy")\n')
    with caplog.at_level("WARNING"):
        est = run_external(ExternalEstimator(command=command), sine_buffer(220.0, 0.05))
    assert est.voiced is False
    assert any("malformed" in r.message for r in caplog.records)


def test_external_nonzero_exit_is_unvoiced(tmp_path, caplog):
    command = _stub(tmp_path, 'import sys; sys.stdin.buffer.read(); sys.exit(3)\n')
    with caplog.at_level("WARNING"):
        est = run_external(ExternalEstimator(command=command), sine_buffer(220.0, 0.05))
    assert est.voiced is False


def test_external_timeout_is_unvoiced(tmp_path, caplog):
    command = _stub(tmp_path, 'import time, sys; sys.stdin.buffer.read(); time.sleep(5)\n')
    estimator = ExternalEstimator(command=command, timeout_s=0.5)
    with caplog.at_level("WARNING"):
        est = run_external(estimator, sine_buffer(220.0, 0.05))
    assert est.voiced is False
    assert any("timed out" in r.message for r in caplog.records)


def _running(pid):
    """True while pid is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
def test_a_timed_out_plugins_children_do_not_outlive_it(tmp_path):
    # a shell wrapper whose worker writes its PID and sleeps: the timeout
    # ends the wrapper's whole process group, the worker with it
    pid_file = tmp_path / "worker.pid"
    script = tmp_path / "plugin.sh"
    script.write_text(f"sleep 5 & echo $! > {shlex.quote(str(pid_file))}; wait\n")
    estimator = ExternalEstimator(command=f"sh {shlex.quote(str(script))}", timeout_s=0.5)
    est = run_external(estimator, sine_buffer(220.0, 0.05))
    pid = int(pid_file.read_text())
    try:
        assert est.voiced is False
        deadline = time.monotonic() + 2.0
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _running(pid)
    finally:
        if _running(pid):
            os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
def test_a_plugin_is_heard_when_it_exits_though_a_child_holds_its_stdout(tmp_path):
    # the plug-in replies and exits, leaving a worker that keeps its stdout
    # open: the vote counts at the plug-in's exit, and the worker is killed
    pid_file = tmp_path / "worker.pid"
    script = tmp_path / "plugin.sh"
    script.write_text(f"cat >/dev/null; echo 'F0 220'; sleep 3 & echo $! > {shlex.quote(str(pid_file))}\n")
    estimator = ExternalEstimator(command=f"sh {shlex.quote(str(script))}", timeout_s=1.0)
    start = time.monotonic()
    est = run_external(estimator, sine_buffer(220.0, 0.05))
    elapsed = time.monotonic() - start
    pid = int(pid_file.read_text())
    try:
        assert est.f0 == 220.0
        assert elapsed < 0.5
        deadline = time.monotonic() + 2.0
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _running(pid)
    finally:
        if _running(pid):
            os.kill(pid, signal.SIGKILL)


def test_external_out_of_range_is_unvoiced(tmp_path, caplog):
    command = _stub(tmp_path, 'import sys; sys.stdin.buffer.read(); print("F0 9999.0")\n')
    with caplog.at_level("WARNING"):
        est = run_external(ExternalEstimator(command=command), sine_buffer(220.0, 0.05))
    assert est.voiced is False
    assert any("range" in r.message for r in caplog.records)


def test_external_missing_binary_is_unvoiced(caplog):
    estimator = ExternalEstimator(command="/no/such/estimator --flag")
    with caplog.at_level("WARNING"):
        est = run_external(estimator, sine_buffer(220.0, 0.05))
    assert est.voiced is False


# ---------------------------------------------------------------------------
# fused estimates
# ---------------------------------------------------------------------------


def test_ensemble_on_clean_tone():
    est = ensemble_estimate(saw_buffer(220.0, 0.4))
    assert not is_gross(est.f0, 220.0)


def test_default_ensemble_survives_mains_hum():
    # 50 Hz hum at 0 dB: comb members allowed to search below the melody
    # floor all vote for the hum and outvote srh in the median.
    from pitchlab.evaluation import synth_song
    from pitchlab.noise import mix_at_snr, synthetic_noise_refs

    song, notes = synth_song(2002)
    hum = synthetic_noise_refs(seed=5)["hum50"].resolve(song.sample_rate)
    mixed = mix_at_snr(song, hum, 0.0)
    hits = 0
    for note in notes:
        est = ensemble_estimate(mixed.slice_seconds(note.onset, note.offset))
        hits += not is_gross(est.f0, note.f0_truth)
    assert hits >= 0.9 * len(notes), f"{hits}/{len(notes)} notes within a quarter tone"


def test_ensemble_all_silent_is_unvoiced():
    est = ensemble_estimate(AudioBuffer(np.zeros(22050), 44100))
    assert est.voiced is False


def test_the_ensemble_never_computes_lag_matrices(monkeypatch):
    # the default members are all spectral, so estimate-ensemble must not
    # pay for rect_corr, which only acf, nsdf and yin read
    from pitchlab.evaluation import estimate_song, synth_song

    def refuse(analysis):
        raise AssertionError("rect_corr evaluated")

    monkeypatch.setattr(NoteAnalysis, "rect_corr", property(refuse))
    song, notes = synth_song(404)
    f0s = estimate_song(song, notes, ["ensemble"], {})["ensemble"]
    assert len(f0s) == len(notes) and all(f0s)
    with pytest.raises(AssertionError, match="rect_corr evaluated"):
        estimate_song(song, notes[:1], ["ensemble", "yin"], {})


def test_click_where_the_hann_window_is_zero_is_unvoiced():
    # one click at sample 0 of a 4096-sample note: the periodic Hann window
    # is 0 there, so the rectangular frame holds energy and the windowed one
    # none. No method may vote on it, the time-domain ones included.
    x = np.zeros(4096)
    x[0] = 0.01
    note = AudioBuffer(x, 44100)
    analysis = NoteAnalysis(note)
    assert not analysis.live.any()
    votes = estimate_note_many(analysis, dict.fromkeys(REGISTRY))
    assert {name: vote.f0 for name, vote in votes.items()} == dict.fromkeys(REGISTRY)
    assert ensemble_estimate(note).voiced is False


def test_always_unvoiced_external_changes_nothing(tmp_path):
    # an external voter that always abstains must leave the fused result
    # exactly as if it were not configured
    command = _stub(tmp_path, 'import sys; sys.stdin.buffer.read(); print("UNVOICED")\n')
    with_ext = EnsembleSpec(external=ExternalEstimator(command=command))
    without = EnsembleSpec()
    for freq in (196.0, 261.63, 392.0):
        note = saw_buffer(freq, 0.3)
        assert ensemble_estimate(note, with_ext).f0 == ensemble_estimate(note, without).f0


def test_external_vote_joins_the_median(tmp_path):
    command = _stub(tmp_path, CHECKED_READER + 'print("F0 220.0")\n')
    spec = EnsembleSpec(
        members=("hps", "stft"),
        external=ExternalEstimator(command=command),
    )
    note = saw_buffer(220.0, 0.3)
    est = ensemble_estimate(note, spec)
    analysis = NoteAnalysis(note)
    votes = member_votes(analysis, spec, {})
    assert set(votes) == {"hps", "stft", "external"}
    assert votes["external"].f0 == 220.0
    median = float(np.median([v.f0 for v in votes.values() if v.f0 is not None]))
    assert est.f0 == refine_f0(analysis, median)


def test_ensemble_refines_below_the_bin_grid():
    # off-grid sawtooth notes: every member picks a bin, and the fused f0
    # lands within 0.2 Hz of the truth
    rng = np.random.default_rng(1618)
    for f in rng.uniform(110.0, 440.0, 10):
        note = saw_buffer(f, 0.3)
        analysis = NoteAnalysis(note)
        assert all(abs(v.f0 - f) > 0.2 for v in member_votes(analysis, EnsembleSpec(), {}).values())
        assert abs(ensemble_estimate(note).f0 - f) < 0.2


def test_a_note_whose_lpc_breaks_down_silences_srh_alone():
    # energy set to zeros by hand under an all-true live: srh's lag 0 is 0,
    # so the note's one recursion breaks down, srh votes unvoiced on every
    # frame, and the ensemble fuses the other three members
    analysis = NoteAnalysis(saw_buffer(220.0, 0.3))
    n = len(analysis.rect_matrix)
    analysis.__dict__.update(energy=np.zeros(n), live=np.ones(n, dtype=bool))
    votes = member_votes(analysis, EnsembleSpec(), {})
    assert n > 1 and votes["srh"].per_frame == (None,) * n
    others = [votes[name].f0 for name in DEFAULT_MEMBERS if name != "srh"]
    assert len(others) == 3 and None not in others
    f0 = ensemble_f0(analysis, EnsembleSpec(), {})
    assert f0 == refine_f0(analysis, fuse_votes(others))
    assert abs(f0 / 220.0 - 1.0) < QUARTER_TONE


def test_member_votes_reuses_precomputed():
    analysis = NoteAnalysis(saw_buffer(220.0, 0.3))
    earlier = estimate_note_many(analysis, {"hps": None, "ml": None})
    votes = member_votes(analysis, EnsembleSpec(), {})
    assert votes["hps"] is earlier["hps"]
    assert votes["ml"] is earlier["ml"]
    assert votes["srh"].voiced
