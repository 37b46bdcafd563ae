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
from pitchlab.evaluation import pitch_error, run_benchmark, synth_song, write_annotation
from pitchlab.noise import mix_at_snr, synth_noise
from pitchlab.sigproc import AudioBuffer

from conftest import Inputs, sawtooth, wav_bytes

# A 0.1 s float WAV: a 12-byte RIFF header, fmt (16-byte body) at 12, data at 36.
VALID_WAV = wav_bytes(np.full(2205, 0.1, dtype=np.float32).tobytes(), rate=22050)
# Each malformed WAV, and what its error line says of it.
MALFORMED_WAVS = {
    "riff_only": (b"RIFF", "not a WAV file"),
    "header_cut_at_20": (VALID_WAV[:20], "b'fmt ' chunk runs past the end of the file"),
    "data_header_cut": (VALID_WAV[:40], "chunk header cut short at byte 36"),
    "fmt_size_past_end": (VALID_WAV[:16] + (1000).to_bytes(4, "little") + VALID_WAV[20:],
                          "chunk runs past the end of the file"),
    "zero_channels": (VALID_WAV[:22] + bytes(2) + VALID_WAV[24:], "fmt chunk gives 0 channels"),
}


@pytest.fixture
def song(tmp_path):
    return materialize_songs(1, 17, tmp_path, sample_rate=22050)[0]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("config", [{"yin": {"f_min": 5e-324}}, {"nsdf": {"f_min": 1e-320}}])
    def test_subnormal_search_bound(self, config, song, tmp_path, capsys):
        # a tiny f_min searches up to the half-frame lag
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        (method,) = config
        code, out, _ = run_cli(capsys, "estimate", song.audio_path,
                               song.audio_path.replace(".wav", ".notes"), "--method", method,
                               "--config", str(path))
        assert code == 0 and len(out.splitlines()) == len(song.notes)

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

    # held by fails_soft to the contract that every row of
    # tests/test_exit_codes.py is held to
    @pytest.mark.parametrize("content", MALFORMED_WAVS.values(), ids=MALFORMED_WAVS)
    def test_malformed_wav_is_exit_2(self, content, song, tmp_path, fails_soft):
        content, fragment = content
        t = Inputs(tmp_path, song)
        fails_soft(t.estimate("--method", "hps", wav=t.file("bad.wav", content)), 2,
                   ("cannot read audio", fragment))


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

    @pytest.mark.parametrize("snr", ["1e300", "-4000", "inf", "nan"])
    def test_out_of_range_snr_is_exit_2(self, snr, song, tmp_path, fails_soft):
        fails_soft(Inputs(tmp_path, song).mix(snr=snr), 2, "bad --snr: SNR must be finite")

    @pytest.mark.parametrize("content", MALFORMED_WAVS.values(), ids=MALFORMED_WAVS)
    @pytest.mark.parametrize("role", ["signal", "noise"])
    def test_malformed_wav_is_exit_2(self, role, content, song, tmp_path, fails_soft):
        content, fragment = content
        t = Inputs(tmp_path, song)
        verb = {"signal": "read signal", "noise": "obtain noise"}[role]
        fails_soft(t.mix(**{role: t.file("bad.wav", content)}), 2, (f"cannot {verb} ", fragment))


class TestBench:
    def test_writes_reports_and_reruns_identically(self, tmp_path, capsys):
        argv = Inputs(tmp_path).bench()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        csv_path = tmp_path / "out" / "results.csv"
        table_path = tmp_path / "out" / "results.txt"
        first = csv_path.read_bytes()
        assert table_path.exists()
        assert "yin" in out

        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert csv_path.read_bytes() == first

    def test_jobs_do_not_change_results(self, tmp_path, capsys):
        # each run writes where its --out says, in place of the config's "out"
        argv = Inputs(tmp_path).bench()
        results = []
        for jobs in ("1", "3"):
            out_dir = tmp_path / f"jobs{jobs}"
            assert run_cli(capsys, *argv, "--jobs", jobs, "--out", str(out_dir))[0] == 0
            results.append((out_dir / "results.csv").read_bytes())
        assert results[0] == results[1]
        assert not (tmp_path / "out").exists()

    def test_plain_methods_keep_their_rows_on_the_acceptance_10_grid(self, tmp_path, capsys):
        # the spectral members score the decimated band, yet every plain
        # method's row stays byte for byte the one kept in tests/data,
        # scored on the songs as read back from their sidecars
        argv = Inputs(tmp_path).bench(songs={"count": 2, "sample_rate": 44100},
                                      methods=list(REGISTRY), snrs_db=[0, 20], seed=55)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        expected = (Path(__file__).parent / "data" / "bench_grid_10_plain_methods.csv").read_text()
        assert (tmp_path / "out" / "results.csv").read_text() == expected

    def test_songs_score_as_their_sidecars_do(self, tmp_path, capsys):
        # bench over songs.count and bench over the sidecars it wrote agree
        t = Inputs(tmp_path)
        assert run_cli(capsys, *t.bench(methods=["yin", "ensemble"]))[0] == 0
        sidecars = sorted(str(p) for p in (tmp_path / "out" / "songs").glob("*.notes"))
        again = t.bench(songs={"annotations": sidecars}, methods=["yin", "ensemble"],
                        out=t.path("again"))
        assert run_cli(capsys, *again)[0] == 0
        results = [(tmp_path / d / "results.csv").read_text() for d in ("out", "again")]
        assert results[0] == results[1]

    def test_help_lists_no_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        assert "--jobs" in usage and "--out" in usage and "--seed" not in usage

    def test_clean_only_grid_prints_a_dash(self, tmp_path, capsys):
        # no noisy cell to average: the summary shows "-" where it showed nan
        csv_path = tmp_path / "out" / "results.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs = [run_cli(capsys, *Inputs(tmp_path).bench(snrs_db=[])),
                    run_cli(capsys, "report", str(csv_path))]
        assert caught == []
        for code, out, _ in runs:
            assert code == 0
            method, clean, noisy = out.splitlines()[-1].split()
            assert (method, noisy) == ("yin", "-") and clean != "-"
        rows = csv_path.read_text().splitlines()[1:]
        assert [row.split(",")[:3] for row in rows] == [["yin", "clean", ""]]


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
        assert run_cli(capsys, *Inputs(tmp_path).bench())[0] == 0
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
