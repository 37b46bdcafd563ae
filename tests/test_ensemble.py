import json
import shlex
import sys

import numpy as np
import pytest

from pitchlab.ensemble import (
    DEFAULT_MEMBERS,
    EnsembleSpec,
    ExternalEstimator,
    ensemble_estimate,
    fuse_votes,
    load_ensemble_spec,
    member_votes,
    run_external,
)
from pitchlab.estimators import EstimatorConfig, NoteAnalysis, estimate_note_many, refine_f0

from conftest import saw_buffer, sine_buffer

QUARTER_TONE = 2.0 ** (1.0 / 24.0) - 1.0


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

    def test_rejects_config_for_non_member(self):
        with pytest.raises(ValueError):
            EnsembleSpec(configs={"yin": EstimatorConfig(50.0, 500.0)})

    def test_member_configs_fill_defaults(self):
        # the override applies to its member alone; the others keep their defaults
        custom = EstimatorConfig(50.0, 700.0, 3)
        spec = EnsembleSpec(configs={"hps": custom})
        note = saw_buffer(110.0, 0.3)
        votes = member_votes(NoteAnalysis(note), spec)
        expected = estimate_note_many(
            NoteAnalysis(note), {"hps": custom, "stft": None, "ml": None, "srh": None}
        )
        assert votes == expected


def test_load_spec_from_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "members": ["hps", "ml"],
        "configs": {"ml": {"f_max": 600}},
        "external": {"command": "mypitch --quiet", "f_min": 40, "f_max": 2000},
    }))
    spec = load_ensemble_spec(path)
    assert spec.members == ("hps", "ml")
    assert spec.configs["ml"].f_max == 600.0
    assert spec.external.command == "mypitch --quiet"
    assert spec.external.timeout_s == 10.0


def test_load_spec_rejects_unknown_keys(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"members": ["hps", "ml"], "quorum": 3}')
    with pytest.raises(ValueError):
        load_ensemble_spec(path)


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
    assert est.method_id == "external"


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
    assert est.method_id == "ensemble"
    assert abs(est.f0 - 220.0) / 220.0 <= QUARTER_TONE


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
        hits += est.voiced and abs(est.f0 - note.f0_truth) / note.f0_truth <= QUARTER_TONE
    assert hits >= 0.9 * len(notes), f"{hits}/{len(notes)} notes within a quarter tone"


def test_ensemble_all_silent_is_unvoiced():
    from pitchlab.sigproc import AudioBuffer
    est = ensemble_estimate(AudioBuffer(np.zeros(22050), 44100))
    assert est.voiced is False


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
    votes = member_votes(analysis, spec)
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
        assert all(abs(v.f0 - f) > 0.2 for v in member_votes(analysis, EnsembleSpec()).values())
        assert abs(ensemble_estimate(note).f0 - f) < 0.2


def test_member_votes_reuses_precomputed():
    analysis = NoteAnalysis(saw_buffer(220.0, 0.3))
    earlier = estimate_note_many(analysis, {"hps": None, "ml": None})
    votes = member_votes(analysis, EnsembleSpec())
    assert votes["hps"] is earlier["hps"]
    assert votes["ml"] is earlier["ml"]
    assert votes["srh"].voiced
