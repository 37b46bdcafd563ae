import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pitchlab
from pitchlab.audio_io import read_wav, write_wav
from pitchlab.cli import main
from pitchlab.ensemble import (
    DEFAULT_EXTERNAL_F_MAX,
    DEFAULT_EXTERNAL_F_MIN,
    DEFAULT_EXTERNAL_TIMEOUT_S,
    EXTERNAL_ENV_VAR,
    EnsembleSpec,
    ExternalEstimator,
    load_ensemble_spec,
)
from pitchlab.estimators import REGISTRY, parse_config_overrides
from pitchlab.evaluation import NoteSegment, estimate_song, hz_to_midi, is_gross, materialize_songs
from pitchlab.evaluation import pitch_error, run_benchmark, synth_song
from pitchlab.evaluation import write_annotation
from pitchlab.noise import mix_at_snr, synth_noise
from pitchlab.sigproc import AudioBuffer

from conftest import sawtooth, wav_bytes

# A 0.1 s float WAV: a 12-byte RIFF header, fmt (16-byte body) at 12, data at 36.
VALID_WAV = wav_bytes(np.full(2205, 0.1, dtype=np.float32).tobytes(), rate=22050)
MALFORMED_WAVS = {
    "riff_only": b"RIFF",
    "header_cut_at_20": VALID_WAV[:20],
    "data_header_cut": VALID_WAV[:40],
    "fmt_size_past_end": VALID_WAV[:16] + (1000).to_bytes(4, "little") + VALID_WAV[20:],
    "zero_channels": VALID_WAV[:22] + bytes(2) + VALID_WAV[24:],
}


@pytest.fixture
def song(tmp_path):
    return materialize_songs(1, 17, tmp_path, sample_rate=22050)[0]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_input_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def notes_with_one_past_the_end(song):
    """The song's .notes file, with a last note that starts after its audio ends."""
    path = song.audio_path.replace(".wav", ".notes")
    write_annotation(path, [*song.notes, NoteSegment(100.0, 101.0, 220.0)])
    return path


class TestEstimate:
    def test_lines_and_accuracy(self, song, capsys):
        code, out, err = run_cli(capsys, "estimate", song.audio_path,
                                 song.audio_path.replace(".wav", ".notes"),
                                 "--method", "hps")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == len(song.notes)
        for line, note in zip(lines, song.notes):
            onset, offset, f0, midi = (float(tok) for tok in line.split())
            assert onset == pytest.approx(note.onset, abs=1e-6)
            assert offset == pytest.approx(note.offset, abs=1e-6)
            assert not is_gross(f0, note.f0_truth)
            assert midi > 0
        assert "wall_time_s" in err

    def test_unvoiced_prints_zeros(self, tmp_path, capsys):
        write_wav(tmp_path / "quiet.wav", AudioBuffer(np.zeros(22050), 22050))
        write_annotation(tmp_path / "quiet.notes", [NoteSegment(0.0, 0.9, 220.0)])
        code, out, _ = run_cli(capsys, "estimate", str(tmp_path / "quiet.wav"),
                               str(tmp_path / "quiet.notes"), "--method", "yin")
        assert code == 0
        onset, offset, f0, midi = out.split()
        assert f0 == "0" and midi == "0"

    def test_unknown_method_fails_before_reading_audio(self, tmp_path, capsys):
        # neither file exists, yet the method name is rejected first
        code, _, err = run_cli(capsys, "estimate", str(tmp_path / "no.wav"),
                               str(tmp_path / "no.notes"), "--method", "autotune")
        assert code == 2
        assert "unknown method" in err

    def test_missing_audio_is_exit_2(self, song, capsys, tmp_path):
        notes_path = song.audio_path.replace(".wav", ".notes")
        code, _, err = run_cli(capsys, "estimate", str(tmp_path / "gone.wav"), notes_path)
        assert code == 2

    def test_bad_annotation_is_exit_3(self, song, capsys, tmp_path):
        bad = tmp_path / "bad.notes"
        bad.write_text("0.0 0.5 220.0\n0.4 0.9 220.0\n")  # overlapping
        code, _, err = run_cli(capsys, "estimate", song.audio_path, str(bad))
        assert code == 3

    def test_note_outside_audio_is_exit_3(self, song, capsys, tmp_path):
        beyond = tmp_path / "beyond.notes"
        beyond.write_text("100.0 101.0 220.0\n")
        code, out, _ = run_cli(capsys, "estimate", song.audio_path, str(beyond),
                               "--method", "yin")
        assert code == 3
        assert out == ""

    def test_onset_too_large_for_a_sample_index_is_exit_3(self, song, capsys, tmp_path):
        # 1e305 s times the rate overflows to inf, which no sample index holds
        beyond = tmp_path / "beyond.notes"
        beyond.write_text("1e305 2e305 440\n")
        code, out, err = run_cli(capsys, "estimate", song.audio_path, str(beyond),
                                 "--method", "yin")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "holds no sample" in err

    @pytest.mark.parametrize("method", ["yin", "ensemble"])
    def test_note_past_the_end_prints_no_line(self, method, song, capsys):
        # the notes before it are fine, but estimate prints only a finished song
        notes = notes_with_one_past_the_end(song)
        code, out, err = run_cli(capsys, "estimate", song.audio_path, notes, "--method", method)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "note [100, 101]" in err

    @pytest.mark.parametrize("method", [*REGISTRY, "ensemble"])
    def test_disk_round_trip_matches_estimate_song(self, method, song, capsys):
        # the CLI reads the song's WAV and .notes from disk; estimate_song and
        # run_benchmark start from the annotation that materialize_songs returned
        f0s = estimate_song(read_wav(song.audio_path), song.notes, [method], {})[method]
        code, out, _ = run_cli(capsys, "estimate", song.audio_path,
                               song.audio_path.replace(".wav", ".notes"), "--method", method)
        assert code == 0
        printed = [line.split()[2] for line in out.splitlines()]
        assert printed == ["0" if f0 is None else f"{f0:.6g}" for f0 in f0s]
        report = run_benchmark([song], [method], [], {})
        assert pitch_error(f0s, song.truths()) == report.clean[method]

    def test_config_override_applies(self, tmp_path, capsys):
        # a range that excludes the true pitch forces a clamped estimate
        wav = tmp_path / "tone.wav"
        write_wav(wav, AudioBuffer(sawtooth(220.0, 11025, 22050), 22050))
        write_annotation(tmp_path / "tone.notes", [NoteSegment(0.0, 0.5, 220.0)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"yin": {"f_min": 300.0, "f_max": 500.0}}))
        code, out, _ = run_cli(capsys, "estimate", str(wav), str(tmp_path / "tone.notes"),
                               "--method", "yin", "--config", str(cfg))
        assert code == 0
        f0 = float(out.split()[2])
        assert f0 == 0.0 or 300.0 <= f0 <= 500.0

    @pytest.mark.parametrize("config, code", [
        ({"yin": {"f_min": 5e-324}}, 0),
        ({"nsdf": {"f_min": 1e-320}}, 0),
        ({"acf": {"f_min": 0, "f_max": 5e-324}}, 2),
        ({"cepstrum": {"f_min": 0, "f_max": 1e-320}}, 2),
    ])
    def test_subnormal_search_bound(self, config, code, song, tmp_path, capsys):
        # a tiny f_min searches up to the half-frame lag; a tiny f_max has no lag
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        (method,) = config
        result = run_cli(capsys, "estimate", song.audio_path,
                         song.audio_path.replace(".wav", ".notes"), "--method", method,
                         "--config", str(path))
        if code == 0:
            assert result[0] == 0 and len(result[1].splitlines()) == len(song.notes)
        else:
            assert_one_line_input_error(*result)
            assert "no usable lags" in result[2]

    @pytest.mark.parametrize("spec", [
        {"external": {"f_min": 50}},
        # member overrides come from --config, not from the spec
        {"configs": {"ml": {"f_max": 600}}},
        [1],
        {"members": "hps"},
        {"members": ["hps"]},
        {"members": ["hps", "hps"]},
        {"members": ["autotune", "hps"]},
        {"external": {"command": "true", "f_min": 500, "f_max": 100}},
        {"external": {"command": "true", "timeout_s": float("nan")}},
        {"external": {"command": 3}},
        {"external": {"command": "true", "timeout_s": 0}},
        {"external": {}},
        {"external": {"command": "foo \"bar"}},
        # poll() takes the pipe wait in milliseconds as a C int
        {"external": {"command": "true", "timeout_s": 1e300}},
        {"external": {"command": "true", "timeout_s": 2.2e6}},
    ])
    def test_malformed_ensemble_spec_is_exit_2(self, spec, song, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert_one_line_input_error(*run_cli(
            capsys, "estimate", song.audio_path, song.audio_path.replace(".wav", ".notes"),
            "--method", "ensemble", "--ensemble-spec", str(path)))

    @pytest.mark.parametrize("command", ["   ", "foo \"bar"])
    def test_external_env_that_names_no_program_is_exit_2(self, command, song, monkeypatch,
                                                          capsys):
        monkeypatch.setenv(EXTERNAL_ENV_VAR, command)
        code, out, err = run_cli(
            capsys, "estimate", song.audio_path, song.audio_path.replace(".wav", ".notes"))
        assert_one_line_input_error(code, out, err)
        assert EXTERNAL_ENV_VAR in err

    def test_one_member_spec_and_the_external_env_are_two_voters(self, song, tmp_path,
                                                                  monkeypatch, capsys):
        stub = tmp_path / "stub.py"
        stub.write_text("import sys\n"
                        "rate = int(sys.stdin.buffer.readline().split()[1])\n"
                        "sys.stdin.buffer.read()\n"
                        "print(f'F0 {rate / 100}')\n")
        command = f"{shlex.quote(sys.executable)} {shlex.quote(str(stub))}"
        monkeypatch.setenv(EXTERNAL_ENV_VAR, command)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"members": ["hps"]}))
        notes = song.audio_path.replace(".wav", ".notes")
        code, out, _ = run_cli(capsys, "estimate", song.audio_path, notes,
                               "--ensemble-spec", str(spec_path))
        assert code == 0
        spec = EnsembleSpec(("hps",), ExternalEstimator(command))
        f0s = estimate_song(read_wav(song.audio_path), song.notes, ["ensemble"], {}, spec)
        assert out.splitlines() == [
            f"{n.onset:.6f} {n.offset:.6f} " + (f"{f0:.6g} {hz_to_midi(f0):.6g}" if f0 else "0 0")
            for n, f0 in zip(song.notes, f0s["ensemble"])
        ]
        # with no member the external is the one voter
        spec_path.write_text(json.dumps({"members": []}))
        assert_one_line_input_error(*run_cli(capsys, "estimate", song.audio_path, notes,
                                             "--ensemble-spec", str(spec_path)))

    @pytest.mark.parametrize("method", ["hps", "srh", "ensemble"])
    def test_search_range_beyond_nyquist_is_exit_2(self, method, tmp_path, capsys):
        # at 100 Hz the Nyquist frequency (50 Hz) lies below every spectral f_min
        write_wav(tmp_path / "low.wav", AudioBuffer(np.full(100, 0.1), 100))
        write_annotation(tmp_path / "low.notes", [NoteSegment(0.0, 0.9, 220.0)])
        code, out, err = run_cli(capsys, "estimate", str(tmp_path / "low.wav"),
                                 str(tmp_path / "low.notes"), "--method", method)
        assert_one_line_input_error(code, out, err)
        member = "hps" if method == "ensemble" else method
        assert f"{member}: [80, " in err and "Nyquist frequency 50 Hz" in err

    @pytest.mark.parametrize("method, config", [
        ("hps", {"hps": {"f_min": 30000}}),
        ("ensemble", {"hps": {"f_min": 30000}}),
        ("acf", {"acf": {"f_min": 0, "f_max": 1e-300}}),
    ])
    def test_range_that_cannot_fit_is_exit_2_on_a_silent_song(self, method, config, tmp_path,
                                                              capsys):
        # no frame of either note votes, yet the range is checked on each
        write_wav(tmp_path / "quiet.wav", AudioBuffer(np.zeros(44100), 44100))
        write_annotation(tmp_path / "quiet.notes",
                         [NoteSegment(0.0, 0.4, 220.0), NoteSegment(0.5, 0.9, 220.0)])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "estimate", str(tmp_path / "quiet.wav"),
                                 str(tmp_path / "quiet.notes"), "--method", method,
                                 "--config", str(path))
        assert_one_line_input_error(code, out, err)
        assert f"{next(iter(config))}: " in err

    def test_malformed_config_is_exit_2(self, song, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"yin": {"f_min": "80"}}))
        assert_one_line_input_error(*run_cli(
            capsys, "estimate", song.audio_path, song.audio_path.replace(".wav", ".notes"),
            "--method", "yin", "--config", str(path)))

    @pytest.mark.parametrize("config", [
        {"hps": 3},
        [1],
        {"hps": {"n_harmonic": 7}},
        {"hps": {"n_harmonics": 2.9}},
        {"hps": {"n_harmonics": True}},
        {"hps": {"f_min": "80"}},
        {"ml": {"f_max": False}},
        # an entry for a method that does not run must still be well formed
        {"yin": {"n_harmonics": 7}},
        {"ensemble": {"f_max": 150}},
    ])
    def test_malformed_config_with_the_ensemble_is_exit_2(self, config, song, tmp_path,
                                                          capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert_one_line_input_error(*run_cli(
            capsys, "estimate", song.audio_path, song.audio_path.replace(".wav", ".notes"),
            "--method", "ensemble", "--config", str(path)))

    def test_config_reaches_the_ensemble_members(self, song, tmp_path, capsys):
        # the members take their entries; yin does not run, so its entry is ignored
        ranges = {"hps": {"f_max": 150}, "ml": {"f_max": 150}, "stft": {"f_max": 150}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**ranges, "yin": {"f_min": 300}}))
        configs = parse_config_overrides(ranges, "ranges")
        buffer = read_wav(song.audio_path)
        f0s = estimate_song(buffer, song.notes, ["ensemble"], configs)["ensemble"]
        assert f0s != estimate_song(buffer, song.notes, ["ensemble"], {})["ensemble"]
        code, out, _ = run_cli(capsys, "estimate", song.audio_path,
                               song.audio_path.replace(".wav", ".notes"), "--config", str(path))
        assert code == 0
        printed = [line.split()[2] for line in out.splitlines()]
        assert printed == ["0" if f0 is None else f"{f0:.6g}" for f0 in f0s]

    def test_ensemble_spec_with_one_method_is_exit_2(self, song, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"members": ["hps", "ml"]}))
        code, out, err = run_cli(
            capsys, "estimate", song.audio_path, song.audio_path.replace(".wav", ".notes"),
            "--method", "hps", "--ensemble-spec", str(path))
        assert_one_line_input_error(code, out, err)
        assert "--ensemble-spec" in err and "--config" in err

    @pytest.mark.parametrize("method", ["acf", "nsdf", "yin", "cepstrum"])
    def test_n_harmonics_outside_the_combs_is_exit_2(self, method, song, tmp_path, capsys):
        # only hps, stft, ml and srh score harmonics; elsewhere the field did nothing
        path = tmp_path / "config.json"
        path.write_text(json.dumps({method: {"n_harmonics": 7}}))
        assert_one_line_input_error(*run_cli(
            capsys, "estimate", song.audio_path, song.audio_path.replace(".wav", ".notes"),
            "--method", method, "--config", str(path)))

    @pytest.mark.parametrize("content", MALFORMED_WAVS.values(), ids=MALFORMED_WAVS)
    def test_malformed_wav_is_exit_2(self, content, song, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(content)
        assert_one_line_input_error(*run_cli(
            capsys, "estimate", str(bad), song.audio_path.replace(".wav", ".notes"),
            "--method", "hps"))

    def test_float64_samples_beyond_float32_are_exit_2(self, song, tmp_path, capsys):
        # at a peak of 3e151 the frames' energies overflow and every lag
        # method voted the half-frame lag, with exit 0
        samples = read_wav(song.audio_path).samples
        huge = tmp_path / "huge.wav"
        scaled = samples * (3e151 / np.abs(samples).max())
        huge.write_bytes(wav_bytes(scaled.astype("<f8").tobytes(), rate=22050, bits=64))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "estimate", str(huge),
                                     song.audio_path.replace(".wav", ".notes"), "--method", "yin")
        assert caught == []
        assert_one_line_input_error(code, out, err)
        assert "the largest float32" in err

    @pytest.mark.parametrize("content", [
        b"0.0 0.5 220.0\n\xff\xfe\n",
        "0.0 0.5 220.0\n".encode("utf-16"),
    ], ids=["invalid-bytes", "utf-16"])
    def test_non_utf8_annotation_is_exit_3(self, content, song, tmp_path, capsys):
        bad = tmp_path / "bad.notes"
        bad.write_bytes(content)
        code, out, err = run_cli(capsys, "estimate", song.audio_path, str(bad))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "UTF-8" in err


def use_cpus(monkeypatch, n):
    """Make the process see n usable CPUs, as estimate counts them; None: a
    platform without os.sched_getaffinity."""
    if n is None:
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def long_song(tmp_path):
    """A 22.05 kHz song of 20+ notes: its WAV and .notes paths, and its notes."""
    buffer, notes = synth_song(35, 22050, min_duration_s=8.0)
    assert len(notes) >= 20
    write_wav(tmp_path / "long.wav", buffer)
    write_annotation(tmp_path / "long.notes", notes)
    return str(tmp_path / "long.wav"), str(tmp_path / "long.notes"), notes


class TestEstimateOverCpus:
    """estimate estimates the first run of notes itself and forks a worker
    for each other run; nothing it prints may tell how many ran."""

    @pytest.mark.parametrize("method", ["ensemble", "yin"])
    @pytest.mark.parametrize("n_notes", [None, 1], ids=["all_notes", "one_note"])
    def test_stdout_does_not_depend_on_the_cpus(self, method, n_notes, long_song, tmp_path,
                                                monkeypatch, capsys):
        wav, notes_path, notes = long_song
        if n_notes is not None:
            notes_path = str(tmp_path / "short.notes")
            write_annotation(notes_path, notes[:n_notes])
        outs = []
        for n in (1, 2, 3, None):
            use_cpus(monkeypatch, n)
            code, out, _ = run_cli(capsys, "estimate", wav, notes_path, "--method", method)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2] == outs[3]
        assert len(outs[0].splitlines()) == len(notes[:n_notes])

    @pytest.mark.parametrize("case", ["past_the_end", "first_of_three_past_the_end",
                                      "range_ensemble", "range_yin"])
    def test_errors_do_not_depend_on_the_cpus(self, case, long_song, tmp_path, monkeypatch,
                                              capsys):
        wav, notes_path, notes = long_song
        method, config = "yin", None
        if case == "past_the_end":  # the last note, so in the last run
            write_annotation(notes_path, [*notes, NoteSegment(100.0, 101.0, 220.0)])
        elif case == "first_of_three_past_the_end":
            # at 2 CPUs the first of these notes is in the caller's run and the
            # others in the worker's; at 3, it is in the first worker's run and
            # the others in the second's
            write_annotation(notes_path, [notes[0], *(NoteSegment(t, t + 4.0, 220.0)
                                                      for t in (100.0, 105.0, 110.0))])
        else:
            method = case.split("_")[1]
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"hps": {"f_min": 30000}} if method == "ensemble"
                                         else {"yin": {"f_min": 0, "f_max": 1e-300}}))
        argv = ["estimate", wav, notes_path, "--method", method]
        argv += ["--config", str(config)] if config else []
        results = []
        for n in (1, 2, 3):
            use_cpus(monkeypatch, n)
            results.append(run_cli(capsys, *argv))
        assert results[0] == results[1] == results[2]
        code, out, err = results[0]
        assert code == (2 if config else 3)
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
        if case.startswith("first"):
            assert "note [100, 104]" in err

    def test_each_line_is_printed_once_through_a_pipe(self, long_song):
        # stdout is block-buffered on a pipe: a forked worker that flushed a
        # copy of it would print the lines before the fork again
        wav, notes_path, notes = long_song
        src = str(Path(pitchlab.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "pitchlab.cli", "estimate", wav, notes_path],
            capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        f0s = estimate_song(read_wav(wav), notes, ["ensemble"], {})["ensemble"]
        assert result.stdout.splitlines() == [
            f"{n.onset:.6f} {n.offset:.6f} {f0:.6g} {hz_to_midi(f0):.6g}"
            for n, f0 in zip(notes, f0s)
        ]


def test_importing_the_cli_loads_no_multiprocessing(tmp_path):
    # the forked children of estimate and bench need neither it nor
    # concurrent.futures, not even when one of them dies
    src = str(Path(pitchlab.__file__).resolve().parents[1])
    code = (
        "import os, sys, pitchlab.cli\n"
        "from pitchlab.errors import WorkerFailed\n"
        "from pitchlab.estimators import REGISTRY, NoteMethod\n"
        "from pitchlab.evaluation import estimate_song, materialize_songs, run_benchmark\n"
        "from pitchlab.evaluation import synth_song\n"
        "from pitchlab.noise import NoiseRef, Scenario\n"
        "def pools(): return sorted(m for m in sys.modules\n"
        "                         if 'multiproc' in m or m.startswith('concurrent'))\n"
        "print(pools())\n"
        "buffer, notes = synth_song(36, 22050)\n"
        "assert len(estimate_song(buffer, notes[:4], ['yin'], {}, jobs=2)['yin']) == 4\n"
        "print(pools())\n"
        f"songs = materialize_songs(1, 36, {str(tmp_path)!r}, sample_rate=8000)\n"
        "refs = {'white': NoiseRef(synth_kind='white', seed=1)}\n"
        "report = run_benchmark(songs, ['yin'], [Scenario('white', 10.0)], refs, jobs=2)\n"
        "assert report.failures == () and len(report.cells) == 1\n"
        "print(pools())\n"
        "caller, yin = os.getpid(), REGISTRY['yin'].note_fn\n"
        "def dies_in_children(analysis, cfg):\n"
        "    if os.getpid() != caller:\n"
        "        os._exit(1)\n"
        "    return yin(analysis, cfg)\n"
        "REGISTRY['yin'] = NoteMethod(dies_in_children)\n"
        "try:\n"
        "    estimate_song(buffer, notes[:4], ['yin'], {}, jobs=2)\n"
        "except WorkerFailed:\n"
        "    print(pools())\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={"PYTHONPATH": src}, timeout=60)
    assert result.stdout.splitlines() == ["[]", "[]", "[]", "[]"]


class TestMix:
    def test_round_trip_snr_printed(self, song, capsys, tmp_path):
        out_path = tmp_path / "mixed.wav"
        code, out, _ = run_cli(capsys, "mix", song.audio_path, "synth:white",
                               "--snr", "0", "--out", str(out_path))
        assert code == 0
        achieved = float(out.split()[1])
        assert abs(achieved - 0.0) <= 0.01
        assert out_path.exists()

    def test_plus_prefix_equals_bare_number(self, song, capsys, tmp_path):
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        code_a, _, _ = run_cli(capsys, "mix", song.audio_path, "synth:pink",
                               "--snr", "+20", "--seed", "5", "--out", str(a))
        code_b, _, _ = run_cli(capsys, "mix", song.audio_path, "synth:pink",
                               "--snr", "20", "--seed", "5", "--out", str(b))
        assert code_a == code_b == 0
        assert a.read_bytes() == b.read_bytes()

    def test_noise_file_input(self, song, capsys, tmp_path):
        noise_path = tmp_path / "hiss.wav"
        rng = np.random.default_rng(0)
        write_wav(noise_path, AudioBuffer(rng.uniform(-0.5, 0.5, 4000), 22050))
        out_path = tmp_path / "mixed.wav"
        code, out, _ = run_cli(capsys, "mix", song.audio_path, str(noise_path),
                               "--snr", "10", "--out", str(out_path))
        assert code == 0
        assert abs(float(out.split()[1]) - 10.0) <= 0.01

    def test_hot_mix_reads_back_as_mixed_in_memory(self, song, capsys, tmp_path):
        out_path = tmp_path / "hot.wav"
        code, _, _ = run_cli(capsys, "mix", song.audio_path, "synth:babble",
                             "--snr", "-10", "--seed", "3", "--out", str(out_path))
        assert code == 0
        signal = read_wav(song.audio_path)
        noise = synth_noise("babble", len(signal), signal.sample_rate, 3)
        expected = mix_at_snr(signal, noise, -10.0).samples.astype(np.float32)
        assert np.abs(expected).max() > 1.0
        assert np.array_equal(read_wav(out_path).samples, expected)

    def test_missing_noise_file_is_exit_2(self, song, capsys, tmp_path):
        code, _, err = run_cli(capsys, "mix", song.audio_path,
                               str(tmp_path / "nothere.wav"),
                               "--snr", "0", "--out", str(tmp_path / "o.wav"))
        assert code == 2

    def test_rate_mismatch_is_exit_2(self, song, capsys, tmp_path):
        noise_path = tmp_path / "wrong_rate.wav"
        write_wav(noise_path, AudioBuffer(np.ones(1000) * 0.1, 44100))
        code, _, err = run_cli(capsys, "mix", song.audio_path, str(noise_path),
                               "--snr", "0", "--out", str(tmp_path / "o.wav"))
        assert code == 2

    @pytest.mark.parametrize("snr", ["1e300", "-4000", "inf", "nan"])
    def test_out_of_range_snr_is_exit_2(self, snr, song, capsys, tmp_path):
        out_path = tmp_path / "o.wav"
        assert_one_line_input_error(*run_cli(
            capsys, "mix", song.audio_path, "synth:white", f"--snr={snr}", "--out", str(out_path)))
        assert not out_path.exists()

    def test_silent_signal_is_exit_2_and_writes_nothing(self, capsys, tmp_path):
        # a zero-power signal takes a noise gain of 0, so no SNR can be reached
        silent = tmp_path / "silent.wav"
        write_wav(silent, AudioBuffer(np.zeros(8000), 8000))
        out_path = tmp_path / "o.wav"
        assert_one_line_input_error(*run_cli(
            capsys, "mix", str(silent), "synth:white", "--snr", "0", "--out", str(out_path)))
        assert not out_path.exists()

    @pytest.mark.parametrize("noise", ["song", "synth:white"])
    def test_empty_signal_is_exit_2_and_writes_nothing(self, noise, song, capsys, tmp_path):
        # a signal without samples has no power to set an SNR against
        empty = tmp_path / "empty.wav"
        write_wav(empty, AudioBuffer(np.zeros(0), 22050))
        noise = song.audio_path if noise == "song" else noise
        out_path = tmp_path / "o.wav"
        code, out, err = run_cli(
            capsys, "mix", str(empty), noise, "--snr", "0", "--out", str(out_path))
        assert_one_line_input_error(code, out, err)
        # the message blames the signal, not the noise it never needed
        assert err == f"error: cannot mix into {empty}: the signal holds no samples\n"
        assert not out_path.exists()

    def test_unknown_synthetic_noise_is_exit_2(self, song, capsys, tmp_path):
        out_path = tmp_path / "o.wav"
        code, out, err = run_cli(
            capsys, "mix", song.audio_path, "synth:bogus", "--snr", "0", "--out", str(out_path))
        assert_one_line_input_error(code, out, err)
        assert "unknown noise kind 'bogus'" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("n_samples", [8000, 0])
    def test_silent_noise_is_exit_2_and_writes_nothing(self, n_samples, song, capsys, tmp_path):
        # a noise of zero power (all zeros, or no samples) cannot be scaled to an SNR
        silent = tmp_path / "silent.wav"
        write_wav(silent, AudioBuffer(np.zeros(n_samples), 22050))
        out_path = tmp_path / "o.wav"
        assert_one_line_input_error(*run_cli(
            capsys, "mix", song.audio_path, str(silent), "--snr", "0", "--out", str(out_path)))
        assert not out_path.exists()

    @pytest.mark.parametrize("content", MALFORMED_WAVS.values(), ids=MALFORMED_WAVS)
    @pytest.mark.parametrize("role", ["signal", "noise"])
    def test_malformed_wav_is_exit_2(self, role, content, song, capsys, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(content)
        signal, noise = (bad, "synth:white") if role == "signal" else (song.audio_path, bad)
        out_path = tmp_path / "o.wav"
        assert_one_line_input_error(*run_cli(
            capsys, "mix", str(signal), str(noise), "--snr", "0", "--out", str(out_path)))
        assert not out_path.exists()

    def test_unwritable_out_is_exit_2(self, song, capsys, tmp_path):
        (tmp_path / "file").write_text("")
        assert_one_line_input_error(*run_cli(
            capsys, "mix", song.audio_path, "synth:white", "--snr", "0",
            "--out", str(tmp_path / "file" / "x.wav")))

    def test_rate_the_wav_header_cannot_hold_is_exit_2_and_writes_nothing(self, capsys,
                                                                          tmp_path):
        # 2**31 Hz reads back, but the byte rate written, 4 x 2**31, needs 33 bits
        signal = tmp_path / "fast.wav"
        signal.write_bytes(wav_bytes(np.full(100, 0.1, dtype="<f4").tobytes(), rate=2**31))
        out_path = tmp_path / "o.wav"
        assert_one_line_input_error(*run_cli(
            capsys, "mix", str(signal), "synth:white", "--snr", "0", "--out", str(out_path)))
        assert not out_path.exists()


class TestBench:
    def bench_config(self, tmp_path, **overrides):
        config = {
            "songs": {"count": 1, "sample_rate": 22050},
            "methods": ["yin"],
            "snrs_db": [10],
            "seed": 21,
            "out": str(tmp_path / "out"),
        }
        config.update(overrides)
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(config))
        return path

    def test_writes_reports_and_reruns_identically(self, tmp_path, capsys):
        path = self.bench_config(tmp_path)
        code, out, _ = run_cli(capsys, "bench", str(path))
        assert code == 0
        csv_path = tmp_path / "out" / "results.csv"
        table_path = tmp_path / "out" / "results.txt"
        first = csv_path.read_bytes()
        assert table_path.exists()
        assert "yin" in out

        code, _, _ = run_cli(capsys, "bench", str(path))
        assert code == 0
        assert csv_path.read_bytes() == first

    def test_jobs_do_not_change_results(self, tmp_path, capsys):
        path = self.bench_config(tmp_path)
        code, _, _ = run_cli(capsys, "bench", str(path), "--jobs", "1")
        assert code == 0
        serial = (tmp_path / "out" / "results.csv").read_bytes()
        code, _, _ = run_cli(capsys, "bench", str(path), "--jobs", "3")
        assert code == 0
        assert (tmp_path / "out" / "results.csv").read_bytes() == serial

    def test_plain_methods_keep_their_rows_on_the_acceptance_10_grid(self, tmp_path, capsys):
        # the spectral members score the decimated band, yet every plain
        # method's row stays byte for byte the one kept in tests/data,
        # scored on the songs as read back from their sidecars
        path = self.bench_config(tmp_path, songs={"count": 2, "sample_rate": 44100},
                                 methods=list(REGISTRY), snrs_db=[0, 20], seed=55)
        code, _, _ = run_cli(capsys, "bench", str(path))
        assert code == 0
        expected = (Path(__file__).parent / "data" / "bench_grid_10_plain_methods.csv").read_text()
        assert (tmp_path / "out" / "results.csv").read_text() == expected

    def test_songs_score_as_their_sidecars_do(self, tmp_path, capsys):
        # bench over songs.count and bench over the sidecars it wrote agree
        path = self.bench_config(tmp_path, methods=["yin", "ensemble"])
        assert run_cli(capsys, "bench", str(path))[0] == 0
        sidecars = sorted(str(p) for p in (tmp_path / "out" / "songs").glob("*.notes"))
        again = self.bench_config(tmp_path, songs={"annotations": sidecars},
                                  methods=["yin", "ensemble"], out=str(tmp_path / "again"))
        assert run_cli(capsys, "bench", str(again))[0] == 0
        results = [(tmp_path / d / "results.csv").read_text() for d in ("out", "again")]
        assert results[0] == results[1]

    def test_unknown_method_is_exit_2(self, tmp_path, capsys):
        path = self.bench_config(tmp_path, methods=["vamp"])
        code, _, err = run_cli(capsys, "bench", str(path))
        assert code == 2

    @pytest.mark.parametrize("overrides", [
        {"songs": [1]},
        {"noises": [1]},
        {"jobs": "x"},  # "jobs" is not a config key: --jobs sets it
        {"snrs_db": 5},
        {"songs": {"count": "two"}},
        {"seed": None},
        {"seed": -1},
        {"songs": {"count": 1, "sample_rate": 0}},
        {"songs": {"count": 1, "sample_rate": 192001}},
        {"noises": {"seed": -3}},
        {"snrs_db": [1e400]},
        {"snrs_db": [10, -1e400]},
        {"snrs_db": [1e300]},
        {"snrs_db": [-4000]},
        {"snrs_db": [10, 0, 10]},
        {"songs": {"count": 0}},
        {"songs": {"count": -3}},
        {"songs": {"annotations": []}},
        {"methods": []},
        {"methods": ["hps", "hps"]},
        {"jobs": 0},
        {"jobs": -1},
        # songs are read or synthesized, noises read or synthesized: not both
        {"songs": {"annotations": ["s.notes"], "count": 3, "sample_rate": 8000}},
        {"songs": {"annotations": ["s.notes"], "sample_rate": 8000}},
        {"noises": {"dir": "nd", "seed": 99}},
    ])
    def test_malformed_config_is_exit_2(self, overrides, tmp_path, capsys):
        path = self.bench_config(tmp_path, **overrides)
        assert_one_line_input_error(*run_cli(capsys, "bench", str(path)))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("group, keys", [
        ("songs", {"annotations": ["s.notes"], "count": 3}),
        ("noises", {"dir": "nd", "seed": 99}),
    ])
    def test_a_source_and_a_synthesis_key_name_both(self, group, keys, tmp_path, capsys):
        path = self.bench_config(tmp_path, **{group: keys})
        _, _, err = run_cli(capsys, "bench", str(path))
        first, second = keys
        assert f"{group}.{first} and {group}.{second} exclude each other" in err

    @pytest.mark.parametrize("overrides, key", [
        ({"out": "a\0b"}, "out"),
        ({"songs": {"annotations": ["a\0b.notes"]}}, "songs.annotations[0]"),
    ])
    def test_a_nul_byte_in_a_string_is_exit_2(self, overrides, key, tmp_path, capsys):
        path = self.bench_config(tmp_path, **overrides)
        code, out, err = run_cli(capsys, "bench", str(path))
        assert_one_line_input_error(code, out, err)
        assert f"{key} holds a NUL byte" in err
        assert not (tmp_path / "out").exists()

    def test_jobs_is_an_option_not_a_config_key(self, tmp_path, capsys):
        path = self.bench_config(tmp_path, jobs=2)
        code, out, err = run_cli(capsys, "bench", str(path))
        assert_one_line_input_error(code, out, err)
        assert "unknown keys in the top level: ['jobs']" in err

    def test_help_lists_no_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        assert "--jobs" in usage and "--out" in usage and "--seed" not in usage

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_argument_below_one_is_exit_2(self, jobs, tmp_path, capsys):
        path = self.bench_config(tmp_path)
        assert_one_line_input_error(*run_cli(capsys, "bench", str(path), "--jobs", jobs))
        assert not (tmp_path / "out").exists()

    def test_command_line_overrides_replace_the_config_unless_none(self, tmp_path, capsys):
        # a missing annotation stops the run just after it makes its output directory
        path = self.bench_config(tmp_path, songs={"annotations": [str(tmp_path / "none.notes")]})
        assert_one_line_input_error(*run_cli(capsys, "bench", str(path), "--out", str(tmp_path / "else")))
        assert (tmp_path / "else").is_dir() and not (tmp_path / "out").exists()
        assert_one_line_input_error(*run_cli(capsys, "bench", str(path)))
        assert (tmp_path / "out").is_dir()

    @pytest.mark.parametrize("command", ["   ", "foo \"bar"])
    def test_external_env_that_names_no_program_is_exit_2_before_out(self, command, tmp_path,
                                                                    monkeypatch, capsys):
        monkeypatch.setenv(EXTERNAL_ENV_VAR, command)
        path = self.bench_config(tmp_path)
        code, out, err = run_cli(capsys, "bench", str(path))
        assert_one_line_input_error(code, out, err)
        assert EXTERNAL_ENV_VAR in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_exit_2(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "bench", str(tmp_path / "none.json"))
        assert code == 2

    def test_non_utf8_annotation_is_exit_3(self, tmp_path, capsys):
        notes = tmp_path / "latin1.notes"
        notes.write_bytes("# chanson \u00e9t\u00e9\n0.0 0.5 220.0\n".encode("latin-1"))
        path = self.bench_config(tmp_path, songs={"annotations": [str(notes)]})
        code, out, err = run_cli(capsys, "bench", str(path))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_zero_successful_songs_is_exit_4(self, tmp_path, capsys):
        notes = tmp_path / "ghost.notes"
        notes.write_text("0.0 0.5 220.0\n")  # audio file does not exist
        path = self.bench_config(tmp_path, songs={"annotations": [str(notes)]})
        code, _, err = run_cli(capsys, "bench", str(path))
        assert code == 4
        assert "warning" in err

    def test_out_that_is_a_file_is_exit_2_before_scoring(self, tmp_path, capsys, monkeypatch):
        song = materialize_songs(1, 17, tmp_path / "songs", sample_rate=22050)[0]
        notes = song.audio_path.replace(".wav", ".notes")
        taken = tmp_path / "taken"
        taken.write_text("")
        path = self.bench_config(tmp_path, songs={"annotations": [notes]}, out=str(taken))

        def never(*args, **kwargs):
            raise AssertionError("the grid ran before --out was checked")

        monkeypatch.setattr("pitchlab.cli.run_benchmark", never)
        assert_one_line_input_error(*run_cli(capsys, "bench", str(path)))

    def test_songs_path_that_is_a_file_is_exit_2(self, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "songs").write_text("")
        assert_one_line_input_error(*run_cli(capsys, "bench", str(self.bench_config(tmp_path))))

    def test_noise_dir_with_a_repeated_id_is_exit_2(self, tmp_path, capsys):
        noises = tmp_path / "noises"
        noises.mkdir()
        for name in ("01_white.wav", "01_pink.wav"):
            write_wav(noises / name, AudioBuffer(np.full(2000, 0.5), 22050))
        path = self.bench_config(tmp_path, noises={"dir": str(noises)})
        code, out, err = run_cli(capsys, "bench", str(path))
        assert_one_line_input_error(code, out, err)
        assert "01_white.wav" in err and "01_pink.wav" in err
        # the noise directory is read before out/songs is made and written
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("make_dir", [False, True], ids=["missing", "empty"])
    def test_noise_dir_without_noises_is_exit_2_before_out(self, make_dir, tmp_path, capsys):
        noise_dir = tmp_path / "noises"
        if make_dir:
            noise_dir.mkdir()
        path = self.bench_config(tmp_path, noises={"dir": str(noise_dir)})
        assert_one_line_input_error(*run_cli(capsys, "bench", str(path)))
        assert not (tmp_path / "out").exists()

    def test_note_past_the_end_fails_each_condition_naming_it(self, tmp_path, capsys):
        song = materialize_songs(1, 17, tmp_path / "songs", sample_rate=22050)[0]
        notes = notes_with_one_past_the_end(song)
        path = self.bench_config(tmp_path, songs={"annotations": [notes]})
        code, out, err = run_cli(capsys, "bench", str(path))
        assert code == 4
        warnings_ = [line for line in err.splitlines() if line.startswith("warning: ")]
        # the clean pass plus each of the four synthetic noises at 10 dB
        assert len(warnings_) == 5
        assert all("InvalidAnnotation: note [100, 101]" in line for line in warnings_)

    def test_clean_only_grid_prints_a_dash(self, tmp_path, capsys):
        # no noisy cell to average: the summary shows "-" where it showed nan
        path = self.bench_config(tmp_path, snrs_db=[])
        csv_path = tmp_path / "out" / "results.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs = [run_cli(capsys, "bench", str(path)), run_cli(capsys, "report", str(csv_path))]
        assert caught == []
        for code, out, _ in runs:
            assert code == 0
            method, clean, noisy = out.splitlines()[-1].split()
            assert (method, noisy) == ("yin", "-") and clean != "-"
        rows = csv_path.read_text().splitlines()[1:]
        assert [row.split(",")[:3] for row in rows] == [["yin", "clean", ""]]


def test_a_deeply_nested_config_file_is_exit_2(song, tmp_path, capsys):
    # json gives up on deep nesting with RecursionError, which is no ValueError
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    notes = song.audio_path.replace(".wav", ".notes")
    for argv in (["estimate", song.audio_path, notes, "--config", str(nested)],
                 ["estimate", song.audio_path, notes, "--ensemble-spec", str(nested)],
                 ["bench", str(nested)]):
        assert_one_line_input_error(*run_cli(capsys, *argv))


class TestExternalEnv:
    def test_overrides_the_command_and_keeps_the_range(self, monkeypatch, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"external": {
            "command": "old-pitch", "f_min": 50, "f_max": 900, "timeout_s": 2.5}}))
        monkeypatch.setenv(EXTERNAL_ENV_VAR, "new-pitch --fast")
        assert load_ensemble_spec(str(spec_path)).external == ExternalEstimator(
            "new-pitch --fast", f_min=50.0, f_max=900.0, timeout_s=2.5)

    def test_installs_a_default_range_member(self, monkeypatch):
        monkeypatch.setenv(EXTERNAL_ENV_VAR, "new-pitch")
        external = load_ensemble_spec().external
        assert external == ExternalEstimator("new-pitch")
        assert (external.f_min, external.f_max, external.timeout_s) == (
            DEFAULT_EXTERNAL_F_MIN, DEFAULT_EXTERNAL_F_MAX, DEFAULT_EXTERNAL_TIMEOUT_S)

    def test_unset_leaves_the_spec_alone(self, monkeypatch):
        monkeypatch.delenv(EXTERNAL_ENV_VAR, raising=False)
        assert load_ensemble_spec() == EnsembleSpec()


class TestReport:
    def test_re_render_round_trip(self, tmp_path, capsys):
        bench = TestBench().bench_config(tmp_path)
        assert run_cli(capsys, "bench", str(bench))[0] == 0
        csv_path = tmp_path / "out" / "results.csv"
        table_path = tmp_path / "out" / "results.txt"

        code, out, _ = run_cli(capsys, "report", str(csv_path))
        assert code == 0
        assert out == table_path.read_text()

        code, out, _ = run_cli(capsys, "report", str(csv_path), "--format", "csv")
        assert code == 0
        assert out == csv_path.read_text()

    def test_noise_ids_read_back_as_written(self, tmp_path, capsys):
        # a noise id is its text: 007 stays 007, and 1 and 01 are two noises
        ids = ["007", "\u0663", "\u00b2", "1", "01"]
        rows = [f"hps,{nid},0,{k}" for k, nid in enumerate(ids, 1)]
        csv_path = tmp_path / "results.csv"
        csv_path.write_text("\n".join(["method,noise_id,snr_db,error", *rows]) + "\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "report", str(csv_path), "--format", "csv")
        assert code == 0
        assert out == csv_path.read_text(encoding="utf-8")

    def test_missing_csv_is_exit_2(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "report", str(tmp_path / "no.csv"))
        assert code == 2

    def test_unwritable_out_is_exit_2(self, tmp_path, capsys):
        bench = TestBench().bench_config(tmp_path)
        assert run_cli(capsys, "bench", str(bench))[0] == 0
        (tmp_path / "file").write_text("")
        assert_one_line_input_error(*run_cli(
            capsys, "report", str(tmp_path / "out" / "results.csv"),
            "--out", str(tmp_path / "file" / "table.txt")))

    def test_garbage_csv_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("hello,world\n")
        code, _, _ = run_cli(capsys, "report", str(bad))
        assert code == 2
