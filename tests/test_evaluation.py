import concurrent.futures
import hashlib
import math
import multiprocessing

import numpy as np
import pytest

from pitchlab.audio_io import read_wav, write_wav
from pitchlab.ensemble import EnsembleSpec, member_votes
from pitchlab.errors import CountMismatch, InvalidAnnotation, NonPositiveFrequency
from pitchlab.estimators import (
    REGISTRY,
    EstimatorConfig,
    NoteAnalysis,
    NoteMethod,
    PitchEstimate,
    refine_f0,
)
from pitchlab.evaluation import (
    QUARTER_TONE,
    BenchmarkFailure,
    ErrorReport,
    NoteSegment,
    SongAnnotation,
    estimate_song,
    hz_to_midi,
    is_gross,
    materialize_songs,
    midi_to_hz,
    parse_long_csv,
    pitch_error,
    read_annotation,
    render_long_csv,
    render_report,
    run_benchmark,
    synth_song,
    write_annotation,
)
from pitchlab.noise import NoiseRef, Scenario, scenario_grid


class TestHzMidi:
    def test_reference_points(self):
        assert hz_to_midi(440.0) == 69.0
        assert hz_to_midi(880.0) == pytest.approx(81.0)
        assert hz_to_midi(261.6255653) == pytest.approx(60.0, abs=1e-3)

    def test_round_trip(self):
        for midi in (0.0, 45.5, 69.0, 100.0):
            assert hz_to_midi(midi_to_hz(midi)) == pytest.approx(midi, abs=1e-9)

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveFrequency):
            hz_to_midi(0.0)
        with pytest.raises(NonPositiveFrequency):
            hz_to_midi(-220.0)
        with pytest.raises(NonPositiveFrequency):
            hz_to_midi(float("nan"))


class TestPitchError:
    def test_unvoiced_scores_as_zero_hz(self):
        assert pitch_error([None], [400.0]) == pytest.approx(20.0)

    def test_count_mismatch(self):
        with pytest.raises(CountMismatch):
            pitch_error([220.0], [220.0, 440.0])
        with pytest.raises(CountMismatch):
            pitch_error([], [])


def test_gross_is_unvoiced_or_past_a_quarter_tone_either_side():
    assert (1.0 + QUARTER_TONE) ** 24 == pytest.approx(2.0)  # 24 quarter tones to the octave
    truth, step = 200.0, 200.0 * QUARTER_TONE
    assert is_gross(None, truth)
    for f0 in (truth, truth + 0.999 * step, truth - 0.999 * step):
        assert not is_gross(f0, truth)
    for f0 in (truth + 1.001 * step, truth - 1.001 * step, 2.0 * truth):
        assert is_gross(f0, truth)


class TestAnnotations:
    def test_note_segment_validation(self):
        NoteSegment(0.0, 1.0, 440.0)
        with pytest.raises(InvalidAnnotation):
            NoteSegment(-0.1, 1.0, 440.0)
        with pytest.raises(InvalidAnnotation):
            NoteSegment(1.0, 1.0, 440.0)
        with pytest.raises(InvalidAnnotation):
            NoteSegment(0.0, 1.0, 5.0)
        with pytest.raises(InvalidAnnotation):
            NoteSegment(0.0, 1.0, 9000.0)

    def test_song_rejects_overlap_and_disorder(self):
        a = NoteSegment(0.0, 1.0, 220.0)
        b = NoteSegment(0.5, 1.5, 220.0)
        c = NoteSegment(2.0, 3.0, 220.0)
        with pytest.raises(InvalidAnnotation):
            SongAnnotation("s", "s.wav", (a, b))
        with pytest.raises(InvalidAnnotation):
            SongAnnotation("s", "s.wav", (c, a))
        with pytest.raises(InvalidAnnotation):
            SongAnnotation("s", "s.wav", ())

    def test_reference_pitch_is_required(self):
        with pytest.raises(TypeError):
            NoteSegment(0.0, 1.0)

    def test_round_trip(self, tmp_path):
        notes = (
            NoteSegment(0.0, 0.41, 220.0),
            NoteSegment(0.45, 0.9, 246.94),
        )
        path = tmp_path / "song.notes"
        write_annotation(path, notes)
        loaded = read_annotation(path)
        assert loaded.song_id == "song"
        assert len(loaded.notes) == 2
        for got, want in zip(loaded.notes, notes):
            assert got.onset == pytest.approx(want.onset, abs=1e-6)
            assert got.offset == pytest.approx(want.offset, abs=1e-6)
            assert got.f0_truth == pytest.approx(want.f0_truth, abs=1e-6)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "a.notes"
        path.write_text("# header\n\n0.0 0.5 220.0\n")
        assert len(read_annotation(path).notes) == 1

    def test_malformed_lines_rejected(self, tmp_path):
        path = tmp_path / "a.notes"
        path.write_text("0.0 0.5\n")
        with pytest.raises(InvalidAnnotation):
            read_annotation(path)
        path.write_text("0.0 0.5 fast\n")
        with pytest.raises(InvalidAnnotation):
            read_annotation(path)
        path.write_text("")
        with pytest.raises(InvalidAnnotation):
            read_annotation(path)


class TestSynthSong:
    def test_deterministic_per_seed(self):
        buf_a, notes_a = synth_song(5)
        buf_b, notes_b = synth_song(5)
        buf_c, notes_c = synth_song(6)
        assert np.array_equal(buf_a.samples, buf_b.samples)
        assert notes_a == notes_b
        assert not np.array_equal(buf_a.samples, buf_c.samples)

    def test_song_shape(self):
        for seed in range(12):
            buf, notes = synth_song(seed)
            assert 8 <= len(notes) <= 20
            for note in notes:
                midi = hz_to_midi(note.f0_truth)
                assert 45.0 - 1e-9 <= midi <= 69.0 + 1e-9
                assert 0.24 <= note.offset - note.onset <= 0.51
            for a, b in zip(notes, notes[1:]):
                assert b.onset >= a.offset
            assert np.max(np.abs(buf.samples)) <= 0.3 + 1e-9

    def test_samples_and_notes_are_pinned(self):
        # SHA-256 of the float64 samples and of the notes' repr
        buf, notes = synth_song(5, 44100, 15.0)
        assert len(buf) == 673273 and len(notes) == 38
        assert hashlib.sha256(buf.samples.tobytes()).hexdigest() == (
            "590d863761c5566088735f4f91721c1331fb85ea7ea237409adeb4a6aa418309")
        assert hashlib.sha256(repr(notes).encode()).hexdigest() == (
            "26dad1f209352c499a8708fcfde44a5cb8be3d9cda86ec2076947740feedb58b")

    def test_min_duration_extends_song(self):
        buf, notes = synth_song(3, min_duration_s=15.0)
        assert buf.duration >= 15.0
        assert len(notes) > 20

    def test_materialize_writes_pairs(self, tmp_path):
        songs = materialize_songs(2, 9, tmp_path, sample_rate=22050)
        assert [s.song_id for s in songs] == ["song_000", "song_001"]
        for song in songs:
            reloaded = read_annotation(tmp_path / f"{song.song_id}.notes")
            assert len(reloaded.notes) == len(song.notes)
            assert (tmp_path / f"{song.song_id}.wav").exists()


# ---------------------------------------------------------------------------
# benchmark orchestration (stub estimators keep this fast)
# ---------------------------------------------------------------------------


def constant_method(value):
    return NoteMethod(lambda analysis, cfg: PitchEstimate(value))


@pytest.fixture
def stub_registry(monkeypatch):
    monkeypatch.setitem(REGISTRY, "hps", constant_method(100.0))
    monkeypatch.setitem(REGISTRY, "stft", constant_method(100.0))
    monkeypatch.setitem(REGISTRY, "ml", constant_method(200.0))
    monkeypatch.setitem(REGISTRY, "srh", constant_method(200.0))


@pytest.fixture
def two_songs(tmp_path):
    return materialize_songs(2, 31, tmp_path, sample_rate=22050)


WHITE_REF = {"white": NoiseRef(synth_kind="white", seed=1)}


def test_run_benchmark_per_method_errors(two_songs, stub_registry):
    scenarios = [Scenario("white", 10.0)]
    report = run_benchmark(two_songs, ["hps", "ml"], scenarios, WHITE_REF)

    for song in two_songs:
        truths = song.truths()
        expected_hps = pitch_error([100.0] * len(truths), truths)
        expected_ml = pitch_error([200.0] * len(truths), truths)
        assert expected_hps != expected_ml

    per_song_hps = [pitch_error([100.0] * len(s.notes), s.truths()) for s in two_songs]
    assert report.clean["hps"] == pytest.approx(np.mean(per_song_hps))
    assert report.cells[("hps", "white", 10.0)] == pytest.approx(np.mean(per_song_hps))
    assert report.failures == ()


def test_run_benchmark_fuses_ensemble_from_members(two_songs, stub_registry):
    report = run_benchmark(
        two_songs,
        ["ensemble"],
        [Scenario("white", 0.0)],
        WHITE_REF,
        ensemble_spec=EnsembleSpec(),
    )
    # members vote 100, 100, 200, 200 on every note, so the median is
    # always 150, which the ensemble then refines on the note's spectra
    expected = []
    for song in two_songs:
        buffer = read_wav(song.audio_path)
        notes = [buffer.slice_seconds(n.onset, n.offset) for n in song.notes]
        fused = [refine_f0(NoteAnalysis(note), 150.0) for note in notes]
        expected.append(pitch_error(fused, song.truths()))
    assert report.clean["ensemble"] == np.mean(expected)


def test_a_method_and_its_member_run_the_one_config_once(two_songs, stub_registry, monkeypatch):
    # one config map serves the ml row and the ml member, so ml runs once a note
    calls = []

    def ml(analysis, cfg):
        calls.append(cfg)
        return PitchEstimate(cfg.f_min)

    monkeypatch.setitem(REGISTRY, "ml", NoteMethod(ml))
    song = two_songs[0]
    cfg = EstimatorConfig(300.0, 800.0, 5)
    buffer = read_wav(song.audio_path)
    f0s = estimate_song(buffer, song.notes, ["ml", "ensemble"], {"ml": cfg})
    assert calls == [cfg] * len(song.notes)
    notes = [buffer.slice_seconds(n.onset, n.offset) for n in song.notes]
    votes = [member_votes(NoteAnalysis(note), EnsembleSpec(), {"ml": cfg}) for note in notes]
    assert f0s["ml"] == [v["ml"].f0 for v in votes] == [300.0] * len(notes)
    # the members vote 100, 100, 300, 200: the fused median is 150
    assert f0s["ensemble"] == [refine_f0(NoteAnalysis(note), 150.0) for note in notes]


def test_estimate_song_rows_do_not_depend_on_jobs():
    # every row keeps its notes in order and its place among methods, with
    # more jobs than notes included
    buffer, notes = synth_song(36, 22050)
    methods = ["hps", "ensemble", "yin"]
    serial = estimate_song(buffer, notes, methods, {})
    assert list(serial) == methods and all(len(row) == len(notes) for row in serial.values())
    for jobs in (2, 3, len(notes) + 5):
        assert estimate_song(buffer, notes, methods, {}, jobs=jobs) == serial
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        estimate_song(buffer, notes, methods, {}, jobs=0)


def test_estimate_song_stays_serial_where_the_platform_cannot_fork(monkeypatch):
    # the caller then estimates every note and builds no pool
    def no_pool(*args, **kwargs):
        raise AssertionError("estimate_song built a process pool")

    buffer, notes = synth_song(36, 22050)
    notes = notes[:4]
    serial = estimate_song(buffer, notes, ["yin"], {})
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert estimate_song(buffer, notes, ["yin"], {}, jobs=2) == serial


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the platform cannot fork")
def test_estimate_song_builds_its_pool_with_the_fork_context(monkeypatch):
    built = []

    def pool(*args, mp_context, **kwargs):
        built.append(mp_context.get_start_method())
        return real(*args, mp_context=mp_context, **kwargs)

    real = concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    buffer, notes = synth_song(36, 22050)
    notes = notes[:4]
    assert estimate_song(buffer, notes, ["yin"], {}, jobs=2) == estimate_song(
        buffer, notes, ["yin"], {})
    assert built == ["fork"]


@pytest.mark.parametrize("note", [NoteSegment(100.0, 101.0, 220.0),
                                  NoteSegment(0.1, 0.10001, 220.0)],
                         ids=["past-the-end", "under-one-sample"])
def test_estimate_song_rejects_a_note_without_samples(two_songs, stub_registry, note):
    song = two_songs[0]
    with pytest.raises(InvalidAnnotation, match=rf"note \[{note.onset:g}, {note.offset:g}\]"):
        estimate_song(read_wav(song.audio_path), [note], ["hps"], {})


def _failure_message(load) -> str:
    with pytest.raises(Exception) as exc:
        load()
    return f"{type(exc.value).__name__}: {exc.value}"


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_benchmark_isolates_song_failures(two_songs, stub_registry, tmp_path, jobs):
    broken = SongAnnotation(
        "broken", str(tmp_path / "missing.wav"), (NoteSegment(0.0, 0.5, 220.0),)
    )
    # readable audio, but its note starts after the audio ends
    past_end = SongAnnotation(
        "past_end", two_songs[1].audio_path, (NoteSegment(100.0, 101.0, 220.0),)
    )
    songs = [broken, two_songs[0], past_end]
    conditions = [None, Scenario("white", 0.0)]
    report = run_benchmark(songs, ["hps"], conditions[1:], WHITE_REF, jobs=jobs)

    # each fails its own conditions, in task order, with the same message at any jobs
    def score_past_end():
        estimate_song(read_wav(past_end.audio_path), past_end.notes, ["hps"], {})

    assert report.failures == tuple(
        BenchmarkFailure(song.song_id, scenario, _failure_message(load))
        for song, load in [(broken, lambda: read_wav(broken.audio_path)),
                           (past_end, score_past_end)]
        for scenario in conditions
    )
    # the healthy song still contributes
    expected = pitch_error([100.0] * len(two_songs[0].notes), two_songs[0].truths())
    assert report.clean == {"hps": expected}
    assert report.cells == {("hps", "white", 0.0): expected}


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_benchmark_fails_a_nan_snr_per_condition(two_songs, stub_registry, jobs):
    # a NaN scenario is not equal to its pickled copy, so results that come
    # back from a worker must not be looked up by scenario
    bad, good = Scenario("white", math.nan), Scenario("white", 10.0)
    report = run_benchmark(two_songs, ["hps"], [bad, good], WHITE_REF, jobs=jobs)

    assert [(f.song_id, f.scenario) for f in report.failures] == [
        (song.song_id, bad) for song in two_songs
    ]
    assert all(f.message.startswith("ValueError: SNR must be finite") for f in report.failures)
    expected = np.mean([pitch_error([100.0] * len(s.notes), s.truths()) for s in two_songs])
    assert report.clean["hps"] == pytest.approx(expected)
    assert report.cells == {("hps", "white", 10.0): pytest.approx(expected)}


def counting_resolves(monkeypatch) -> list[tuple]:
    """Patch NoiseRef.resolve to record (the source's noise_id, sample_rate) per call."""
    calls = []
    resolve = NoiseRef.resolve

    def counting_resolve(self, sample_rate):
        source = resolve(self, sample_rate)
        calls.append((source.noise_id, sample_rate))
        return source

    monkeypatch.setattr(NoiseRef, "resolve", counting_resolve)
    return calls


def test_run_benchmark_resolves_each_noise_once_per_run(two_songs, stub_registry, monkeypatch):
    calls = counting_resolves(monkeypatch)
    scenarios = [Scenario("white", 0.0), Scenario("white", 10.0)]
    report = run_benchmark(two_songs, ["hps"], scenarios, WHITE_REF, jobs=1)
    assert [noise_id for noise_id, _ in calls] == ["white"]
    assert set(report.cells) == {("hps", "white", 0.0), ("hps", "white", 10.0)}


@pytest.mark.parametrize("jobs", [1, 2, 3, 4, 8])
def test_run_benchmark_report_is_the_same_at_any_jobs(two_songs, stub_registry, tmp_path, jobs):
    # clean, white and a noise whose file is missing over three songs, one
    # unreadable: jobs 1-3 give one run of songs per source, jobs 4 two
    # and jobs 8 three, and the clean pass goes to the pool last
    broken = SongAnnotation(
        "broken", str(tmp_path / "missing.wav"), (NoteSegment(0.0, 0.5, 220.0),)
    )
    songs = [two_songs[0], broken, two_songs[1]]
    refs = {**WHITE_REF, "lost": NoiseRef(path=str(tmp_path / "lost.wav"))}
    scenarios = scenario_grid(("white", "lost"), (0.0, 10.0))
    report = run_benchmark(songs, ["hps", "ml"], scenarios, refs, jobs=jobs)

    read_failure = _failure_message(lambda: read_wav(broken.audio_path))
    lost_failure = _failure_message(lambda: refs["lost"].resolve(22050))
    lost = [s for s in scenarios if s.noise_id == "lost"]
    # failures in song-major order: a song's clean pass, then its sources in grid order
    assert report.failures == (
        *(BenchmarkFailure(two_songs[0].song_id, s, lost_failure) for s in lost),
        *(BenchmarkFailure("broken", s, read_failure) for s in [None, *scenarios]),
        *(BenchmarkFailure(two_songs[1].song_id, s, lost_failure) for s in lost),
    )
    expected = {
        method: sum(pitch_error([f0] * len(s.notes), s.truths()) for s in two_songs) / 2
        for method, f0 in (("hps", 100.0), ("ml", 200.0))
    }
    assert report.clean == expected
    assert report.cells == {
        (method, "white", snr): err for method, err in expected.items() for snr in (0.0, 10.0)
    }


def test_run_benchmark_resolves_once_per_sample_rate(two_songs, tmp_path, monkeypatch):
    # an estimate that follows the mixed audio's level, so each cell
    # depends on the noise each song was mixed with
    def loudness(analysis, cfg):
        rms = float(np.sqrt(np.mean(analysis.note.samples ** 2)))
        return PitchEstimate(100.0 + 1000.0 * rms)

    monkeypatch.setitem(REGISTRY, "hps", NoteMethod(loudness))
    other_rate = materialize_songs(1, 32, tmp_path / "16k", sample_rate=16000)[0]
    songs = [two_songs[0], other_rate, two_songs[1]]
    scenarios = [Scenario("white", 0.0), Scenario("white", 10.0)]
    calls = counting_resolves(monkeypatch)
    report = run_benchmark(songs, ["hps"], scenarios, WHITE_REF, jobs=1)
    assert sorted(calls) == [("white", 16000), ("white", 22050)]

    alone = [run_benchmark([song], ["hps"], scenarios, WHITE_REF) for song in songs]
    assert report.failures == ()
    assert report.clean == {"hps": sum(a.clean["hps"] for a in alone) / len(songs)}
    assert report.cells == {
        key: sum(a.cells[key] for a in alone) / len(songs) for key in alone[0].cells
    }


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_benchmark_isolates_noise_failures(two_songs, stub_registry, tmp_path, jobs):
    refs = {**WHITE_REF, "lost": NoiseRef(path=str(tmp_path / "lost.wav"))}
    scenarios = scenario_grid(("white", "lost"), (0.0, 10.0))
    report = run_benchmark(two_songs, ["hps"], scenarios, refs, jobs=jobs)

    lost = [s for s in scenarios if s.noise_id == "lost"]
    assert [(f.song_id, f.scenario) for f in report.failures] == [
        (song.song_id, s) for song in two_songs for s in lost
    ]
    assert len({f.message for f in report.failures}) == 1
    expected = np.mean([pitch_error([100.0] * len(s.notes), s.truths()) for s in two_songs])
    assert report.clean["hps"] == pytest.approx(expected)
    assert report.cells == {("hps", "white", 0.0): pytest.approx(expected),
                            ("hps", "white", 10.0): pytest.approx(expected)}


def test_run_benchmark_rejects_unknown_method(two_songs):
    with pytest.raises(ValueError, match="unknown method 'autotune'"):
        run_benchmark(two_songs, ["autotune"], [], {})


def test_run_benchmark_rejects_no_method(two_songs):
    with pytest.raises(ValueError, match="at least one method"):
        run_benchmark(two_songs, [], [], {})


@pytest.mark.parametrize("methods", [["hps", "hps"], ["ensemble", "ml", "ensemble"]])
def test_run_benchmark_rejects_a_repeated_method(two_songs, stub_registry, methods):
    # a repeat would render the same CSV rows twice
    with pytest.raises(ValueError, match="each method once"):
        run_benchmark(two_songs, methods, [], {})


@pytest.mark.parametrize("jobs", [0, -2])
def test_run_benchmark_rejects_jobs_below_one(two_songs, stub_registry, jobs):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_benchmark(two_songs, ["hps"], [], {}, jobs=jobs)


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def example_report():
    methods = ("hps", "ensemble")
    noise_ids = ("white", "pink")
    snrs = (0.0, 10.0)
    cells = {}
    value = 1.0
    for m in methods:
        for nid in noise_ids:
            for snr in snrs:
                cells[(m, nid, snr)] = value
                value += 0.5
    clean = {"hps": 0.25, "ensemble": 0.125}
    return ErrorReport(methods, noise_ids, snrs, cells, clean)


def test_noisy_average_equals_mean_of_noise_columns():
    report = example_report()
    for m in report.methods:
        columns = [report.per_noise(m, nid) for nid in report.noise_ids]
        assert abs(report.noisy_average(m) - np.mean(columns)) < 1e-9


def test_long_csv_layout_and_round_trip():
    report = example_report()
    text = render_long_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "method,noise_id,snr_db,error"
    assert lines[1] == "hps,clean,,0.25"
    assert "hps,white,0,1" in lines
    assert len(lines) == 1 + 2 + 8

    parsed = parse_long_csv(text)
    assert parsed.methods == report.methods
    assert parsed.noise_ids == report.noise_ids
    assert parsed.snrs_db == report.snrs_db
    assert parsed.clean == dict(report.clean)
    assert parsed.cells == dict(report.cells)


def test_render_is_deterministic():
    a = render_report(example_report(), "text-table")
    b = render_report(example_report(), "text-table")
    assert a == b
    assert render_long_csv(example_report()) == render_long_csv(example_report())


def test_wide_table_contents():
    text = render_report(example_report(), "text-table")
    assert "method" in text
    assert "white" in text and "pink" in text
    assert "noisy-average" in text
    # hps noisy average: mean of 1, 1.5, 2, 2.5
    assert "1.75" in text


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_report(example_report(), "pdf")


def test_parse_rejects_bad_csv():
    header = "method,noise_id,snr_db,error\n"
    bad = [
        "not,a,benchmark\n",
        header + "hps,white,0\n",
        # errors that are not finite and non-negative
        header + "hps,white,0,nan\n",
        header + "hps,white,0,inf\n",
        header + "hps,clean,,-0.5\n",
        # an SNR that is not finite or out of range
        header + "hps,white,nan,1.0\n",
        header + "hps,white,1e9,1.0\n",
        # a clean row with an SNR
        header + "hps,clean,5,1.0\n",
        # a repeated cell, noisy or clean
        header + "hps,white,0,1.0\nhps,white,0,2.0\n",
        header + "hps,clean,,1.0\nhps,clean,,2.0\n",
        # an empty or space-padded name, which rendered a nameless row or a
        # second column for the same noise
        header + ",clean,,0.5\n",
        header + "hps,,0,0.5\n",
        header + " hps,clean,,0.5\n",
        header + "hps,white,0,0.6\nhps, white,0,0.7\n",
        header + "hps,white ,0,0.6\n",
    ]
    for text in bad:
        with pytest.raises(ValueError):
            parse_long_csv(text)
