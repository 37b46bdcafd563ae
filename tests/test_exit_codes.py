"""The command line's fail-soft contract, tested once: each bad input to
estimate, mix, bench or report ends in its documented exit code and one
`error:` line on stderr, with nothing on stdout, no traceback, no Python
warning and no output left behind."""
import os
from typing import Callable, NamedTuple

import numpy as np
import pytest

from pitchlab.audio_io import read_wav
from pitchlab.ensemble import EXTERNAL_ENV_VAR
from pitchlab.evaluation import NoteSegment, materialize_songs
from pitchlab.sigproc import AudioBuffer

from conftest import Inputs, wav_bytes

PAST_THE_END = NoteSegment(100.0, 101.0, 220.0)
RESULTS_CSV = "method,noise_id,snr_db,error\nhps,clean,,1.5\nhps,white,0,2.5\n"  # as report reads it
NESTED = "[" * 100_000  # json gives up on it with RecursionError, which is no ValueError
ABOVE_NYQUIST = "Hz starts at or above the Nyquist frequency"


@pytest.fixture(scope="module")
def song(tmp_path_factory):
    """A 22.05 kHz song that no row changes."""
    return materialize_songs(1, 17, tmp_path_factory.mktemp("song"), sample_rate=22050)[0]


class Row(NamedTuple):
    id: str
    code: int
    fragment: str | tuple  # of the error line; a tuple: each of its parts
    argv: Callable[[Inputs], list]
    before: Callable[[Inputs], object] | None = None  # lays down files the argv does not name
    env: dict = {}
    warned: tuple = (0, "")  # warning lines before the error, and a fragment of each
    # bench: how far it may get, "checks" (writes nothing), "out" (makes out/) or "scoring"
    stage: str = "checks"


def huge_float64(t):
    # at a peak of 3e151 the frames' energies overflow, and every lag
    # method voted the half-frame lag with exit 0
    samples = read_wav(t.wav).samples
    scaled = samples * (3e151 / np.abs(samples).max())
    return t.file("huge.wav", wav_bytes(scaled.astype("<f8").tobytes(), rate=22050, bits=64))


def short_song(t, buffer, notes):
    """estimate's wav and notes for a song of buffer annotated with notes."""
    return {"wav": t.file("short.wav", buffer), "notes": t.file("short.notes", notes)}


ROWS = [
    # ---- estimate ----
    Row("estimate-unknown-method-before-any-file", 2, "unknown method 'autotune'",
        lambda t: t.estimate("--method", "autotune", wav=t.path("no.wav"), notes=t.path("no.notes"))),
    Row("estimate-missing-audio", 2, ("cannot read audio", "No such file"),
        lambda t: t.estimate(wav=t.path("gone.wav"))),
    Row("estimate-missing-notes", 2, ("cannot read annotation", "No such file"),
        lambda t: t.estimate(notes=t.path("gone.notes"))),
    Row("estimate-overlapping-notes", 3, "notes overlap or are unsorted at 0.400s",
        lambda t: t.estimate(notes=t.file("bad.notes", "0.0 0.5 220.0\n0.4 0.9 220.0\n"))),
    Row("estimate-only-note-past-the-end", 3, "note [100, 101] holds no sample",
        lambda t: t.estimate("--method", "yin", notes=t.file("beyond.notes", "100.0 101.0 220.0\n"))),
    # 1e305 s times the rate overflows to inf, which no sample index holds
    Row("estimate-onset-beyond-any-sample-index", 3, "note [1e+305, 2e+305] holds no sample",
        lambda t: t.estimate("--method", "yin", notes=t.file("beyond.notes", "1e305 2e305 440\n"))),
    # the notes before it are fine, but estimate prints only a finished song
    *(Row(f"estimate-{method}-last-note-past-the-end", 3, "note [100, 101] holds no sample",
          lambda t, m=method: t.estimate(
              "--method", m, notes=t.sidecar("past", [*t.song.notes, PAST_THE_END])))
      for method in ("yin", "ensemble")),
    # with no member the external is the one voter
    Row("estimate-spec-no-member-beside-the-env-external", 2,
        ("bad configuration", "at least two voting members"),
        lambda t: t.estimate(spec={"members": []}), env={EXTERNAL_ENV_VAR: "pitch-plugin --fast"}),
    # estimate and bench alike: an external command that names no program
    *(Row(f"{command}-env-external-{name}", 2, f"{EXTERNAL_ENV_VAR}: bad external estimator",
          lambda t, c=command: getattr(t, c)(), env={EXTERNAL_ENV_VAR: value})
      for command in ("estimate", "bench")
      for name, value in [("blank", "   "), ("unclosed-quote", "foo \"bar")]),
    *(Row(f"estimate-spec-{name}", 2, ("bad configuration", fragment),
          lambda t, s=spec: t.estimate(spec=s))
      for name, spec, fragment in [
          ("external-without-command", {"external": {"f_min": 50}}, '"external" needs a "command"'),
          # member overrides come from --config, not from the spec
          ("configs-key", {"configs": {"ml": {"f_max": 600}}},
           "unknown keys in the top level: ['configs']"),
          ("a-list", [1], "the top level must be a JSON object"),
          ("members-a-string", {"members": "hps"}, "members must be a list"),
          ("repeated-member", {"members": ["hps", "hps"]}, "ensemble members must be unique"),
          ("unknown-member", {"members": ["autotune", "hps"]}, "unknown ensemble members ['autotune']"),
          ("external-f_min-above-f_max", {"external": {"command": "true", "f_min": 500, "f_max": 100}},
           "need 0 <= f_min < f_max"),
          ("command-a-number", {"external": {"command": 3}}, "command must be a string"),
          ("command-unclosed-quote", {"external": {"command": "foo \"bar"}}, "cannot be split"),
          # above 1e6 s: poll() takes the pipe wait in milliseconds as a C int
          *((f"timeout-{s:g}", {"external": {"command": "true", "timeout_s": s}},
             "timeout_s must be in (0, 1e+06] s") for s in (float("nan"), 0, 2.2e6)),
      ]),
    *(Row(f"estimate-{method}-config-{name}", 2, fragment,
          lambda t, m=method, c=config: t.estimate("--method", m, config=c))
      for method, name, config, fragment in [
          ("yin", "f_min-text", {"yin": {"f_min": "80"}}, "yin.f_min must be a number"),
          # a tiny f_max leaves no lag to search
          ("acf", "subnormal-f_max", {"acf": {"f_min": 0, "f_max": 5e-324}}, "acf: no usable lags"),
          ("cepstrum", "subnormal-f_max", {"cepstrum": {"f_min": 0, "f_max": 1e-320}},
           "cepstrum: no usable lags"),
      ]),
    *(Row(f"estimate-ensemble-config-{name}", 2, ("bad configuration", fragment),
          lambda t, c=config: t.estimate(config=c))
      for name, config, fragment in [
          ("hps-a-number", {"hps": 3}, "hps must be a JSON object"),
          ("a-list", [1], "the top level must be a JSON object"),
          ("misspelt-key", {"hps": {"n_harmonic": 7}}, "unknown keys in hps: ['n_harmonic']"),
          *((f"n_harmonics-{n}", {"hps": {"n_harmonics": n}}, "hps.n_harmonics must be an integer")
            for n in (2.9, True)),
          ("f_min-text", {"hps": {"f_min": "80"}}, "hps.f_min must be a number"),
          ("f_max-a-bool", {"ml": {"f_max": False}}, "ml.f_max must be a number"),
          # an entry for a method that does not run must still be well formed
          ("yin-n_harmonics", {"yin": {"n_harmonics": 7}}, "unknown keys in yin: ['n_harmonics']"),
          ("ensemble-key", {"ensemble": {"f_max": 150}}, "unknown keys in the top level: ['ensemble']"),
      ]),
    # only hps, stft, ml and srh score harmonics; elsewhere the field did nothing
    *(Row(f"estimate-{m}-config-n_harmonics", 2,
          ("bad configuration", f"unknown keys in {m}: ['n_harmonics']"),
          lambda t, m=m: t.estimate("--method", m, config={m: {"n_harmonics": 7}}))
      for m in ("acf", "nsdf", "cepstrum")),
    # at 100 Hz the Nyquist frequency, 50 Hz, lies below every spectral f_min
    *(Row(f"estimate-{method}-range-above-a-50-Hz-nyquist", 2, f"{searched} {ABOVE_NYQUIST} 50 Hz",
          lambda t, m=method: t.estimate("--method", m, **short_song(
              t, AudioBuffer(np.full(100, 0.1), 100), "0.0 0.9 220.0\n")))
      for method, searched in [("hps", "hps: [80, inf]"), ("srh", "srh: [80, 500]"),
                               ("ensemble", "hps: [80, inf]")]),
    # no frame of either note votes, yet the range is checked on each
    *(Row(f"estimate-{method}-config-{name}-on-a-silent-song", 2, fragment,
          lambda t, m=method, c=config: t.estimate("--method", m, config=c, **short_song(
              t, AudioBuffer(np.zeros(44100), 44100), "0.0 0.4 220.0\n0.5 0.9 220.0\n")))
      for method, name, config, fragment in [
          *((m, "f_min-above-nyquist", {"hps": {"f_min": 30000}}, f"hps: [30000, inf] {ABOVE_NYQUIST}")
            for m in ("hps", "ensemble")),
          ("acf", "no-lags", {"acf": {"f_min": 0, "f_max": 1e-300}}, "acf: no usable lags"),
      ]),
    Row("estimate-spec-with-a-plain-method", 2,
        "--ensemble-spec applies only to --method ensemble; give hps overrides with --config",
        lambda t: t.estimate("--method", "hps", spec={"members": ["hps", "ml"]})),
    Row("estimate-float64-beyond-float32", 2, ("cannot read audio", "the largest float32"),
        lambda t: t.estimate("--method", "yin", wav=huge_float64(t))),
    *(Row(f"estimate-notes-{name}", 3, "bad.notes: not UTF-8 text",
          lambda t, c=content: t.estimate(notes=t.file("bad.notes", c)))
      for name, content in [("invalid-bytes", b"0.0 0.5 220.0\n\xff\xfe\n"),
                            ("utf-16", "0.0 0.5 220.0\n".encode("utf-16"))]),
    *(Row(f"estimate-{option[2:]}-nested-too-deep", 2, ("bad configuration", "maximum recursion depth"),
          lambda t, o=option: t.estimate(o, t.file("nested.json", NESTED)))
      for option in ("--config", "--ensemble-spec")),
    # ---- mix ----
    Row("mix-missing-noise-file", 2, ("cannot obtain noise", "No such file"),
        lambda t: t.mix(noise=t.path("nothere.wav"))),
    Row("mix-rate-mismatch", 2, "cannot mix at 0 dB SNR: noise rate 44100 != signal rate 22050",
        lambda t: t.mix(noise=t.file("wrong_rate.wav", AudioBuffer(np.full(1000, 0.1), 44100)))),
    # a signal all zeros or without samples has no power to set an SNR
    # against; the message blames the signal, not the noise it never needed
    Row("mix-silent-signal", 2, ("cannot mix into", "silent.wav: the signal holds no nonzero sample"),
        lambda t: t.mix(signal=t.file("silent.wav", AudioBuffer(np.zeros(8000), 8000)))),
    *(Row(f"mix-empty-signal-{name}-noise", 2,
          ("cannot mix into", "empty.wav: the signal holds no nonzero sample"),
          lambda t, n=noise: t.mix(signal=t.file("empty.wav", AudioBuffer(np.zeros(0), 22050)),
                                   noise=n or t.wav))
      for name, noise in [("song", None), ("synth", "synth:white")]),
    Row("mix-unknown-synthetic-noise", 2, "unknown noise kind 'bogus'",
        lambda t: t.mix(noise="synth:bogus")),
    # a noise of zero power, all zeros or no samples, cannot be scaled to an SNR
    *(Row(f"mix-silent-noise-{n}-samples", 2, "noise source 'silent' has no energy",
          lambda t, k=n: t.mix(noise=t.file("silent.wav", AudioBuffer(np.zeros(k), 22050))))
      for n in (8000, 0)),
    Row("mix-out-under-a-file", 2, ("cannot write", "Not a directory"),
        lambda t: t.mix(out="file/x.wav"), before=lambda t: t.file("file", "")),
    # 2**31 Hz reads back, but the byte rate written, 4 x 2**31, needs 33 bits
    Row("mix-rate-beyond-the-wav-header", 2, "a float32 WAV header holds at most 1073741823 Hz",
        lambda t: t.mix(signal=t.file("fast.wav", wav_bytes(np.full(100, 0.1, dtype="<f4").tobytes(),
                                                             rate=2**31)))),
    # ---- bench ----
    Row("bench-unknown-method", 2, "unknown method 'vamp'", lambda t: t.bench(methods=["vamp"])),
    *(Row(f"bench-config-{name}", 2, ("bad benchmark config", fragment),
          lambda t, o=overrides: t.bench(**o))
      for name, overrides, fragment in [
          # "jobs" is not a config key: --jobs sets it
          ("jobs-2", {"jobs": 2}, "unknown keys in the top level: ['jobs']"),
          # songs are read or synthesized: not both
          ("annotations-and-count", {"songs": {"annotations": ["s.notes"], "count": 3}},
           "songs.annotations and songs.count exclude each other"),
          ("out-nul-byte", {"out": "a\0b"}, "out holds a NUL byte"),
          ("annotation-nul-byte", {"songs": {"annotations": ["a\0b.notes"]}},
           "songs.annotations[0] holds a NUL byte"),
          ("annotations-and-sample_rate", {"songs": {"annotations": ["s.notes"], "sample_rate": 8000}},
           "songs.annotations and songs.sample_rate exclude each other"),
          ("songs-a-list", {"songs": [1]}, "songs must be a JSON object"),
          ("noises-a-list", {"noises": [1]}, "noises must be a JSON object"),
          ("snrs_db-a-number", {"snrs_db": 5}, "snrs_db must be a list"),
          ("count-text", {"songs": {"count": "two"}}, "songs.count must be an integer"),
          ("count-0", {"songs": {"count": 0}}, "songs.count must be at least 1"),
          ("no-annotations", {"songs": {"annotations": []}}, "annotations must name at least one file"),
          *((f"sample_rate-{rate}", {"songs": {"count": 1, "sample_rate": rate}},
             "songs.sample_rate must be in [8000, 192000] Hz") for rate in (0, 192001)),
          ("seed-null", {"seed": None}, "seed must be an integer"),
          ("seed-negative", {"seed": -1}, "seed and noises.seed must be non-negative"),
          ("noises-seed-negative", {"noises": {"seed": -3}}, "noises.seed must be non-negative"),
          ("snrs_db-inf", {"snrs_db": [1e400]}, "SNR must be finite and in [-200, 200] dB, got inf"),
          *((f"snrs_db-{name}", {"snrs_db": snrs}, "SNR must be finite")
            for name, snrs in [("second--inf", [10, -1e400]), ("1e300", [1e300]), ("-4000", [-4000])]),
          ("snrs_db-repeat", {"snrs_db": [10, 0, 10]}, "snrs_db must not repeat an SNR"),
      ]),
    # the methods are checked with --jobs, once the config has been read
    *(Row(f"bench-methods-{name}", 2, ("cannot run the benchmark", f"each method once, got {methods}"),
          lambda t, m=methods: t.bench(methods=m))
      for name, methods in [("empty", []), ("repeated", ["hps", "hps"])]),
    # the noise directory exists, so the exclusion alone is at fault
    Row("bench-config-existing-noise-dir-and-seed", 2,
        ("bad benchmark config", "noises.dir and noises.seed exclude each other"),
        lambda t: t.bench(noises={"dir": t.path("noises"), "seed": 99}),
        before=lambda t: t.file("noises/01_white.wav", AudioBuffer(np.full(2000, 0.5), 22050))),
    *(Row(f"bench-jobs-option-{jobs}", 2, f"cannot run the benchmark: jobs must be >= 1, got {jobs}",
          lambda t, j=jobs: t.bench("--jobs", j))
      for jobs in ("0", "-3")),
    Row("bench-missing-config", 2, ("bad benchmark config", "No such file"),
        lambda t: ["bench", t.path("none.json")]),
    Row("bench-config-nested-too-deep", 2, ("bad benchmark config", "maximum recursion depth"),
        lambda t: ["bench", t.file("nested.json", NESTED)]),
    # the annotations are read before the output directory is made
    Row("bench-missing-annotation", 2, ("cannot read annotation", "none.notes"),
        lambda t: t.bench(songs={"annotations": [t.path("none.notes")]})),
    Row("bench-annotation-not-utf8", 3, "latin1.notes: not UTF-8 text",
        lambda t: t.bench(songs={"annotations": [
            t.file("latin1.notes", "# chanson été\n0.0 0.5 220.0\n".encode("latin-1"))]})),
    # the noise directory is read before the output directory is made
    Row("bench-noise-dir-repeats-an-id", 2, ("noise id 01 names both", "01_white.wav", "01_pink.wav"),
        lambda t: t.bench(noises={"dir": t.path("noises")}),
        before=lambda t: [t.file(f"noises/{name}", AudioBuffer(np.full(2000, 0.5), 22050))
                          for name in ("01_white.wav", "01_pink.wav")]),
    Row("bench-noise-dir-missing", 2, ("cannot read noise directory", "No such file"),
        lambda t: t.bench(noises={"dir": t.path("noises")})),
    Row("bench-noise-dir-empty", 2, "no NN_name.wav noises in",
        lambda t: t.bench(noises={"dir": t.path("noises")}),
        before=lambda t: os.mkdir(t.path("noises"))),
    Row("bench-out-is-a-file", 2, "cannot create output directory",
        lambda t: t.bench(songs={"annotations": [t.notes]}), before=lambda t: t.file("out", "")),
    Row("bench-songs-dir-is-a-file", 2, "cannot write the songs into",
        lambda t: t.bench(), before=lambda t: t.file("out/songs", ""), stage="out"),
    # ghost.notes has no audio, in the clean pass and at each noise
    Row("bench-no-song-scores", 4, "no songs could be evaluated",
        lambda t: t.bench(songs={"annotations": [t.file("ghost.notes", "0.0 0.5 220.0\n")]}),
        warned=(1, "ghost (clean, white@+10dB, pink@+10dB, hum50@+10dB, babble@+10dB)"),
        stage="scoring"),
    # the clean pass plus each of the four synthetic noises at 10 dB
    Row("bench-note-past-the-end-fails-each-condition", 4, "no songs could be evaluated",
        lambda t: t.bench(songs={"annotations": [t.sidecar("past", [*t.song.notes, PAST_THE_END])]}),
        warned=(1, "InvalidAnnotation: note [100, 101]"), stage="scoring"),
    # results.csv is written first: when results.txt cannot be, it is removed again
    *(Row(f"bench-results-{ext}-is-a-directory", 2, ("cannot write the results into", "Is a directory"),
          lambda t: t.bench(songs={"annotations": [t.notes]}, snrs_db=[]),
          before=lambda t, e=ext: os.makedirs(t.path(f"out/results.{e}")), stage="scoring")
      for ext in ("csv", "txt")),
    # ---- report ----
    Row("report-missing-csv", 2, ("cannot read results CSV", "No such file"),
        lambda t: t.report(t.path("no.csv"))),
    Row("report-garbage-csv", 2, "not a benchmark CSV: bad header",
        lambda t: t.report(t.file("bad.csv", "hello,world\n"))),
    Row("report-out-under-a-file", 2, ("cannot write", "Not a directory"),
        lambda t: t.report(t.file("results.csv", RESULTS_CSV), out="file/table.txt"),
        before=lambda t: t.file("file", "")),
]


def test_the_row_ids_are_unique():  # pytest would suffix a repeated one, without failing
    assert len({row.id for row in ROWS}) == len(ROWS)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.id)
def test_a_bad_input_fails_soft(row, song, tmp_path, monkeypatch, fails_soft):
    t = Inputs(tmp_path, song)
    for name, value in row.env.items():
        monkeypatch.setenv(name, value)
    if row.before:
        row.before(t)
    fails_soft(row.argv(t), row.code, row.fragment, row.warned, row.stage)
