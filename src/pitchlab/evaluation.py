"""Accuracy metrics, note annotations, synthetic songs and the benchmark.

The headline error metric for a song is the mean of sqrt(|f_est - f_true|)
over its notes, with unvoiced estimates scored as 0 Hz.
"""

from __future__ import annotations

import concurrent.futures
import functools
import logging
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .audio_io import read_wav, write_wav
from .ensemble import (
    EnsembleSpec,
    ensemble_f0,
    fuse_votes,  # unused here, but perfbench's tracer patches it in this module
)
from .errors import CountMismatch, InvalidAnnotation, NonPositiveFrequency
from .estimators import REGISTRY, EstimatorConfig, NoteAnalysis, estimate_note_many
from .noise import NoiseSource, Scenario, check_snr, mix_at_snr
from .sigproc import AudioBuffer

logger = logging.getLogger(__name__)

TRUTH_F0_RANGE = (20.0, 4000.0)

ENSEMBLE_METHOD = "ensemble"

# Synthetic melody parameters: a seeded random walk over this MIDI range,
# one sawtooth note per step.
SONG_MIDI_RANGE = (45, 69)
SONG_NOTE_COUNT = (8, 20)
SONG_NOTE_SECONDS = (0.25, 0.5)
SONG_GAP_SECONDS = 0.02
SONG_AMPLITUDE = 0.3


def hz_to_midi(f0: float) -> float:
    """Frequency in Hz to fractional MIDI number (A4 = 440 Hz = 69)."""
    if f0 <= 0 or not math.isfinite(f0):
        raise NonPositiveFrequency(f"frequency must be positive, got {f0}")
    return 69.0 + 12.0 * math.log2(f0 / 440.0)


def midi_to_hz(midi: float) -> float:
    """Fractional MIDI number to frequency in Hz."""
    return 440.0 * 2.0 ** ((midi - 69.0) / 12.0)


def _as_f0_array(values, name: str) -> np.ndarray:
    out = np.array([0.0 if v is None else float(v) for v in values], dtype=np.float64)
    if np.any(out < 0) or not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite and non-negative")
    return out


def pitch_error(estimates, truths) -> float:
    """Mean of sqrt(|f_est - f_true|) in Hz over paired notes.

    Unvoiced estimates (None) are scored as 0 Hz. Raises CountMismatch
    when the sequences differ in length or are empty.
    """
    est = _as_f0_array(estimates, "estimates")
    tru = _as_f0_array(truths, "truths")
    if est.size != tru.size or est.size == 0:
        raise CountMismatch(
            f"need equally many estimates and truths (>0), got {est.size} and {tru.size}"
        )
    return float(np.mean(np.sqrt(np.abs(est - tru))))


# MIREX's raw pitch accuracy counts a note within a quarter tone as right (Salamon et al. 2014).
QUARTER_TONE = 2.0 ** (1.0 / 24.0) - 1.0  # about 2.93 percent


def is_gross(f0: float | None, truth: float) -> bool:
    """True when f0 is None (unvoiced) or |f0 - truth| / truth > QUARTER_TONE."""
    return f0 is None or abs(f0 - truth) / truth > QUARTER_TONE


# ---------------------------------------------------------------------------
# annotations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoteSegment:
    """One note's extent in seconds plus its reference pitch."""

    onset: float
    offset: float
    f0_truth: float

    def __post_init__(self):
        if not (math.isfinite(self.onset) and math.isfinite(self.offset)):
            raise InvalidAnnotation("onset and offset must be finite")
        if self.onset < 0 or self.onset >= self.offset:
            raise InvalidAnnotation(
                f"need 0 <= onset < offset, got [{self.onset}, {self.offset}]"
            )
        if not TRUTH_F0_RANGE[0] <= self.f0_truth <= TRUTH_F0_RANGE[1]:
            raise InvalidAnnotation(
                f"reference f0 {self.f0_truth} outside {TRUTH_F0_RANGE} Hz"
            )


@dataclass(frozen=True)
class SongAnnotation:
    """A song's audio location plus its ordered, non-overlapping notes."""

    song_id: str
    audio_path: str
    notes: tuple[NoteSegment, ...]

    def __post_init__(self):
        object.__setattr__(self, "notes", tuple(self.notes))
        if not self.notes:
            raise InvalidAnnotation(f"{self.song_id}: a song needs at least one note")
        for a, b in zip(self.notes, self.notes[1:]):
            if b.onset < a.offset:
                raise InvalidAnnotation(
                    f"{self.song_id}: notes overlap or are unsorted at {b.onset:.3f}s"
                )

    def truths(self) -> list[float]:
        return [n.f0_truth for n in self.notes]


def read_annotation(path) -> SongAnnotation:
    """Parse a sidecar annotation: one "onset_sec offset_sec f0_hz" per line.

    The song's id is the file's stem. Raises InvalidAnnotation on any
    malformed content, text that is not UTF-8 included; OSError only when
    the file cannot be read.
    """
    path = Path(path)
    notes = []
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidAnnotation(f"{path}: not UTF-8 text (byte {exc.start})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise InvalidAnnotation(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
        try:
            onset, offset, f0 = (float(p) for p in parts)
        except ValueError as exc:
            raise InvalidAnnotation(f"{path}:{lineno}: non-numeric field") from exc
        notes.append(NoteSegment(onset, offset, f0))
    if not notes:
        raise InvalidAnnotation(f"{path}: no notes found")
    return SongAnnotation(
        song_id=path.stem,
        audio_path=str(path.with_suffix(".wav")),
        notes=tuple(notes),
    )


def write_annotation(path, notes: Sequence[NoteSegment]) -> None:
    lines = [f"{n.onset:.6f} {n.offset:.6f} {n.f0_truth:.6f}" for n in notes]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# synthetic songs
# ---------------------------------------------------------------------------


def synth_song(
    seed: int,
    sample_rate: int = 44100,
    min_duration_s: float | None = None,
) -> tuple[AudioBuffer, tuple[NoteSegment, ...]]:
    """A seeded sawtooth melody: a random walk over MIDI 45..69.

    8 to 20 notes by default; min_duration_s keeps adding notes until the
    song is at least that long (used for timing checks).
    """
    rng = np.random.default_rng(seed)
    lo, hi = SONG_MIDI_RANGE
    n_notes = int(rng.integers(SONG_NOTE_COUNT[0], SONG_NOTE_COUNT[1] + 1))
    midi = int(rng.integers(lo, hi + 1))
    fade = int(0.005 * sample_rate)
    gap = int(SONG_GAP_SECONDS * sample_rate)

    # every note's start, length and pitch first, then one buffer to render into
    layout: list[tuple[int, int, float]] = []
    cursor = 0
    while len(layout) < n_notes or (
        min_duration_s is not None and cursor / sample_rate < min_duration_s
    ):
        n = int(round(float(rng.uniform(*SONG_NOTE_SECONDS)) * sample_rate))
        layout.append((cursor, n, midi_to_hz(midi)))
        cursor += n + gap
        midi = int(np.clip(midi + rng.integers(-4, 5), lo, hi))

    samples = np.zeros(cursor)
    for start, n, f0 in layout:
        wave = samples[start : start + n]
        wave[:] = SONG_AMPLITUDE * (2.0 * ((f0 * (np.arange(n) / sample_rate)) % 1.0) - 1.0)
        if fade and n > 2 * fade:
            ramp = np.linspace(0.0, 1.0, fade)
            wave[:fade] *= ramp
            wave[-fade:] *= ramp[::-1]
    notes = tuple(
        NoteSegment(start / sample_rate, (start + n) / sample_rate, f0) for start, n, f0 in layout
    )
    return AudioBuffer(samples, sample_rate), notes


def materialize_songs(
    n_songs: int,
    seed: int,
    out_dir,
    sample_rate: int = 44100,
) -> list[SongAnnotation]:
    """Write n synthetic songs (WAV plus .notes sidecar) into a directory;
    they come back as read from their sidecars, so they score as on disk."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    songs = []
    for i in range(n_songs):
        buffer, notes = synth_song(seed + i, sample_rate)
        stem = f"song_{i:03d}"
        wav_path = out_dir / f"{stem}.wav"
        write_wav(wav_path, buffer)
        write_annotation(out_dir / f"{stem}.notes", notes)
        songs.append(read_annotation(out_dir / f"{stem}.notes"))
    return songs


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkFailure:
    song_id: str
    scenario: Scenario | None
    message: str


@dataclass(frozen=True)
class ErrorReport:
    """Benchmark results: one mean error per (method, noise, SNR) cell."""

    methods: tuple[str, ...]
    noise_ids: tuple
    snrs_db: tuple[float, ...]
    cells: Mapping
    clean: Mapping
    failures: tuple[BenchmarkFailure, ...] = ()

    def per_noise(self, method: str, noise_id) -> float:
        vals = [self.cells[(method, noise_id, snr)] for snr in self.snrs_db]
        return float(np.mean(vals))

    def noisy_average(self, method: str) -> float:
        vals = [
            self.cells[(method, nid, snr)]
            for nid in self.noise_ids
            for snr in self.snrs_db
        ]
        if not vals:
            raise KeyError(f"{method} has no noisy cells")
        return float(np.mean(vals))


def estimate_song(
    buffer: AudioBuffer,
    notes: Sequence[NoteSegment],
    methods: Sequence[str],
    configs: Mapping[str, EstimatorConfig],
    spec: EnsembleSpec | None = None,
    jobs: int = 1,
) -> dict[str, list[float | None]]:
    """Per-note f0s (None: unvoiced) of one audio take, for each of methods.
    A method's row and the ensemble member of its name both run its config
    in configs, its default when configs has none, once per note. "ensemble"
    fuses spec's members (EnsembleSpec() when None) on the same NoteAnalysis.

    Where the platform can fork, the notes are cut into min(jobs, notes)
    runs (_runs): the caller estimates the first run, and a forked worker
    each other run, so the caller must run no other thread when jobs > 1.
    Where it cannot fork, the caller estimates every note and builds no
    pool. The f0s, and the exception that the first failing note raises,
    do not depend on jobs: a note with no sample in the audio raises
    InvalidAnnotation. methods or jobs that check_run rejects raise
    ValueError, and a worker process that dies raises
    concurrent.futures.process.BrokenProcessPool.
    """
    check_run(methods, jobs)
    plain = {name: configs.get(name) for name in methods if name != ENSEMBLE_METHOD}
    spec = (spec or EnsembleSpec()) if ENSEMBLE_METHOD in methods else None
    song = (buffer, notes, plain, spec, configs)
    fork = None
    if jobs > 1:
        import multiprocessing  # here, so that importing pitchlab loads no multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            fork = multiprocessing.get_context("fork")
    runs = _runs(len(notes), jobs if fork else 1)
    if len(runs) < 2:
        parts = [_estimate_run(song, *run) for run in runs]
    else:
        first, *rest = runs
        # forked workers inherit the song; each task sends only its bounds
        with concurrent.futures.ProcessPoolExecutor(
            len(rest), mp_context=fork, initializer=_inherit_song, initargs=(song,),
        ) as pool:
            shares = [pool.submit(_estimate_share, *run) for run in rest]
            parts = [_estimate_run(song, *first)]
            parts += [share.result() for share in shares]
    return {name: [f0 for part in parts for f0 in part[name]] for name in methods}


def _estimate_run(song: tuple, start: int, stop: int) -> dict[str, list[float | None]]:
    """Per-note f0s of song's notes[start:stop], one list per row; song is
    (buffer, notes, {plain method: config}, ensemble spec or None, configs)."""
    buffer, notes, plain, spec, configs = song
    out: dict[str, list[float | None]] = {name: [] for name in [*plain, ENSEMBLE_METHOD]}
    for note in notes[start:stop]:
        audio = buffer.slice_seconds(note.onset, note.offset)
        if len(audio) == 0:
            raise InvalidAnnotation(
                f"note [{note.onset:g}, {note.offset:g}] holds no sample of the "
                f"{buffer.duration:g} s audio"
            )
        analysis = NoteAnalysis(audio)
        for name, estimate in estimate_note_many(analysis, plain).items():
            out[name].append(estimate.f0)
        if spec is not None:
            out[ENSEMBLE_METHOD].append(ensemble_f0(analysis, spec, configs))
    return out


def _runs(n: int, k: int) -> list[tuple[int, int]]:
    """The (start, stop) bounds of n items cut into min(n, k) contiguous
    runs whose sizes differ by at most one, in order; none when n is 0."""
    k = min(n, k)
    return [(n * r // k, n * (r + 1) // k) for r in range(k)]


# The song an estimate_song worker estimates a share of; set only in the
# workers, by _inherit_song, the pool's initializer.
_worker_song: tuple | None = None


def _inherit_song(song: tuple) -> None:
    global _worker_song
    _worker_song = song


def _estimate_share(start: int, stop: int) -> dict[str, list[float | None]]:
    return _estimate_run(_worker_song, start, stop)


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def check_run(methods: Sequence[str], jobs: int) -> None:
    """Raise ValueError unless methods names at least one method, each once
    and each "ensemble" or in REGISTRY, and jobs is at least 1."""
    methods = list(methods)
    if not methods or len(set(methods)) != len(methods):
        raise ValueError(f"methods must name at least one method, each method once, got {methods}")
    for m in methods:
        if m != ENSEMBLE_METHOD and m not in REGISTRY:
            raise ValueError(f"unknown method {m!r}; known: {[*REGISTRY, ENSEMBLE_METHOD]}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def _benchmark_task(task, methods, ensemble_spec) -> dict[tuple, dict[str, float] | str]:
    """One noise source (None: the clean pass) over a run of songs.

    task is (source index, noise_ref, conditions, first song index, songs).
    Each song in turn is read, the noise resolved at its sample rate unless
    a song before it resolved it at that rate, and each condition mixed and
    scored. Returns each condition's errors or its failure message, keyed
    by (song index, source index, condition index): a failing condition
    does not stop the others, and a song or noise that cannot be loaded
    fails all of that song's conditions.
    """
    src, noise_ref, conditions, first, songs = task
    noises: dict[int, NoiseSource] = {}  # by sample rate
    outcomes: dict[tuple, dict[str, float] | str] = {}
    for i, song in enumerate(songs, first):
        try:
            buffer = read_wav(song.audio_path)
            truths = song.truths()
            if noise_ref is not None and buffer.sample_rate not in noises:
                noises[buffer.sample_rate] = noise_ref.resolve(buffer.sample_rate)
        except Exception as exc:  # per-song failures must not abort the run
            outcomes.update({(i, src, c): _failure(exc) for c in range(len(conditions))})
            continue
        noise = noises.get(buffer.sample_rate)
        for c, scenario in enumerate(conditions):
            try:
                t0 = time.perf_counter()
                audio = buffer if scenario is None else mix_at_snr(buffer, noise, scenario.snr_db)
                per_method = estimate_song(audio, song.notes, methods, {}, ensemble_spec)
                outcomes[i, src, c] = {m: pitch_error(f0s, truths) for m, f0s in per_method.items()}
                logger.debug(
                    "song %s %s: %.3f s",
                    song.song_id,
                    "clean" if scenario is None else f"{scenario.noise_id}@{scenario.snr_db:+g}dB",
                    time.perf_counter() - t0,
                )
            except Exception as exc:
                outcomes[i, src, c] = _failure(exc)
    return outcomes


def run_benchmark(
    songs: Sequence[SongAnnotation],
    methods: Sequence[str],
    scenarios: Sequence[Scenario],
    noise_refs: Mapping,
    *,
    ensemble_spec: EnsembleSpec | None = None,
    jobs: int = 1,
) -> ErrorReport:
    """Evaluate methods over songs x scenarios; failures never abort.

    One task takes one noise source, or the clean pass, over a contiguous
    run of songs: it resolves the noise once per sample rate, then reads
    each song and scores it through estimate_song at each of the source's
    SNRs. Each source's songs are cut into min(songs, ceil(jobs / sources))
    runs, so there are at least min(jobs, songs x sources) tasks, and the
    tasks with the most conditions start first. Every method runs its
    default config. methods may include "ensemble", whose members reuse the
    estimates of the plain methods of the same name. No method, a method named
    twice or unknown, or jobs < 1 raises ValueError (check_run). Results
    and failures come back in song-major order, so they are deterministic
    for a fixed input regardless of jobs. A worker process that dies raises
    concurrent.futures.process.BrokenProcessPool.
    """
    check_run(methods, jobs)
    methods = list(methods)

    # (noise ref, its scenarios in grid order) per source, clean first.
    noise_ids = list(dict.fromkeys(s.noise_id for s in scenarios))
    sources = [(None, [None])] + [
        (noise_refs[nid], [s for s in scenarios if s.noise_id == nid]) for nid in noise_ids
    ]

    runs = _runs(len(songs), -(-jobs // len(sources)))
    tasks = [(src, ref, conditions, lo, songs[lo:hi])
             for src, (ref, conditions) in enumerate(sources) for lo, hi in runs]
    tasks.sort(key=lambda t: len(t[2]) * len(t[4]), reverse=True)  # largest first; stable
    score = functools.partial(_benchmark_task, methods=methods, ensemble_spec=ensemble_spec)
    if jobs > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(score, tasks, chunksize=1))
    else:
        results = [score(t) for t in tasks]
    outcomes = {key: outcome for result in results for key, outcome in result.items()}

    # Each cell's errors over songs, in song order; failures in song-major order.
    errors: dict[tuple, list[float]] = defaultdict(list)
    failures = []
    for i, song in enumerate(songs):
        for src, (_, conditions) in enumerate(sources):
            for c, scenario in enumerate(conditions):
                outcome = outcomes[i, src, c]
                if isinstance(outcome, str):
                    failures.append(BenchmarkFailure(song.song_id, scenario, outcome))
                    continue
                for name, err in outcome.items():
                    errors[(name, scenario)].append(err)
    means = {key: sum(v) / len(v) for key, v in errors.items()}

    return ErrorReport(
        methods=tuple(methods),
        noise_ids=tuple(noise_ids),
        snrs_db=tuple(sorted({s.snr_db for s in scenarios})),
        cells={(m, s.noise_id, s.snr_db): e for (m, s), e in means.items() if s is not None},
        clean={m: e for (m, s), e in means.items() if s is None},
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def render_long_csv(report: ErrorReport) -> str:
    """Long-form CSV: method,noise_id,snr_db,error (clean rows first)."""
    lines = ["method,noise_id,snr_db,error"]
    for m in report.methods:
        if m in report.clean:
            lines.append(f"{m},clean,,{report.clean[m]:.9g}")
    for m in report.methods:
        for nid in report.noise_ids:
            for snr in report.snrs_db:
                key = (m, nid, snr)
                if key in report.cells:
                    lines.append(f"{m},{nid},{snr:g},{report.cells[key]:.9g}")
    return "\n".join(lines) + "\n"


def parse_long_csv(text: str) -> ErrorReport:
    """Rebuild a report from its long-form CSV (for re-rendering).

    Raises ValueError on a bad header or row, an empty or space-padded
    method or noise_id, SNR (check_snr) or error (not finite and
    non-negative), a clean row with an SNR, or a repeated cell.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "method,noise_id,snr_db,error":
        raise ValueError("not a benchmark CSV: bad header")
    methods: list[str] = []
    noise_ids: list = []
    snrs: set[float] = set()
    cells = {}
    clean = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError(f"bad CSV row: {ln!r}")
        m, nid, snr_raw, err_raw = parts
        if any(not name or name != name.strip() for name in (m, nid)):
            raise ValueError(f"an empty or space-padded method or noise_id: {ln!r}")
        err = float(err_raw)
        if not 0.0 <= err < math.inf:
            raise ValueError(f"the error must be finite and non-negative: {ln!r}")
        if nid == "clean":
            if snr_raw != "":
                raise ValueError(f"a clean row has no SNR: {ln!r}")
            table, key = clean, m
        else:
            snr = float(snr_raw)
            check_snr(snr)
            if nid not in noise_ids:
                noise_ids.append(nid)
            snrs.add(snr)
            table, key = cells, (m, nid, snr)
        if key in table:
            raise ValueError(f"repeated CSV row: {ln!r}")
        table[key] = err
        if m not in methods:
            methods.append(m)
    return ErrorReport(
        methods=tuple(methods),
        noise_ids=tuple(noise_ids),
        snrs_db=tuple(sorted(snrs)),
        cells=cells,
        clean=clean,
    )


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    """Left-aligned columns, two spaces apart, under a dashed rule."""
    widths = [max(len(r[i]) for r in [headers] + rows) for i in range(len(headers))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [fmt.format(*headers), fmt.format(*["-" * w for w in widths])]
    out.extend(fmt.format(*row) for row in rows)
    return "\n".join(out) + "\n"


def render_wide_table(report: ErrorReport) -> str:
    """Methods as rows, one column per noise source (mean over SNRs)."""
    headers = ["method"] + [str(nid) for nid in report.noise_ids]
    rows = []
    for m in report.methods:
        row = [m]
        for nid in report.noise_ids:
            try:
                row.append(f"{report.per_noise(m, nid):.2f}")
            except KeyError:
                row.append("-")
        rows.append(row)
    return _render_table(headers, rows)


def render_summary(report: ErrorReport) -> str:
    """Clean and noisy-average error per method."""
    headers = ["method", "clean", "noisy-average"]
    rows = []
    for m in report.methods:
        clean = f"{report.clean[m]:.2f}" if m in report.clean else "-"
        try:
            noisy = f"{report.noisy_average(m):.2f}"
        except KeyError:
            noisy = "-"
        rows.append([m, clean, noisy])
    return _render_table(headers, rows)


def render_report(report: ErrorReport, fmt: str = "text-table") -> str:
    """Render as "csv" (long form) or "text-table" (wide plus summary)."""
    if fmt == "csv":
        return render_long_csv(report)
    if fmt == "text-table":
        return render_wide_table(report) + "\n" + render_summary(report)
    raise ValueError(f"unknown report format {fmt!r}")
