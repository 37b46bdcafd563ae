#!/usr/bin/env python3
"""pitchlab benchmark: two workloads through the `pitchlab` CLI, in-process.

Run from the repository root:

    python3 perfbench/run.py --workload estimate-ensemble --seed 1 --seconds 20 --trace 0

Workloads (README.md says why each exists):
  estimate-ensemble  `pitchlab estimate --method ensemble` on 15 s songs
  bench-grid         `pitchlab bench` over 4 noises x 4 SNRs plus clean, 9 methods

--trace 0 measures with tracing off and reports the end-to-end metrics;
--trace 1 measures once untraced, then once more with the outside-in
tracer on, and reports the per-layer metrics and the tracing overhead.
Every timing is rescaled to reference speed by a fixed kernel timed next
to it (speed.py), because a shared host's speed can drift from minute to minute.
Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. --smoke shrinks
every input for a quick functional check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import stats
from tracer import METHODS, NOISE_KINDS, Tracer, layer_metrics, note_estimates

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

WORKLOADS = ("estimate-ensemble", "bench-grid")
ENSEMBLE = "ensemble"
GRID_METHODS = list(METHODS) + [ENSEMBLE]
SAMPLE_RATE = 44100
# Songs for seed s are synth_song(SONG_SEED_STRIDE * s + i), so no two
# workload seeds share a song.
SONG_SEED_STRIDE = 1000
# The noise recipe is part of the workload definition, not of its seed.
NOISE_SEED = 3
# estimate-ensemble's untimed noisy pass mixes every song with each noise kind at
# this SNR, so every seed scores each kind on the same songs.
NOISY_SNR_DB = 0.0
# song_latency_p50_s is stated per this many seconds of song audio.
SONG_SECONDS = 15.0
# bench-grid splits its songs into this many equal groups, one bench call each.
GRID_GROUPS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("notes_per_s", "notes/s"),
    ("song_latency_p50_s", "s"),
    ("ensemble_error_clean", "sqrtHz"),
    ("ensemble_error_noisy", "sqrtHz"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = [("cli.main.self_s", "s")]
    out += [("audio_io.read_wav.calls", "count"), ("audio_io.read_wav.s", "s"),
            ("audio_io.read_wav.bytes", "bytes"), ("audio_io.write_wav.s", "s")]
    out += [("sigproc.frame_signal.calls", "count"), ("sigproc.frame_signal.s", "s"),
            ("sigproc.frames", "count"), ("sigproc.Spectrum.count", "count"),
            ("sigproc.Spectrum.s", "s"), ("sigproc.magnitude_spectrum.calls", "count"),
            ("sigproc.magnitude_spectrum.s", "s")]
    out += [("estimators.NoteAnalysis.count", "count")]
    out += [(f"estimators.analysis.{p}.s", "s")
            for p in ("hann_frames", "spectra", "spectrogram", "rect_corr")]
    for m in METHODS:
        out += [(f"estimators.{m}.calls", "count"), (f"estimators.{m}.self_s", "s"),
                (f"estimators.{m}.voiced_frame_frac", "fraction"),
                (f"estimators.{m}.error_clean", "sqrtHz"),
                (f"estimators.{m}.error_noisy", "sqrtHz")]
    out += [("estimators.lpc_residual.calls", "count"), ("estimators.lpc_residual.s", "s"),
            ("estimators.lpc_unstable", "count")]
    out += [("ensemble.ensemble_estimate.self_s", "s"), ("ensemble.member_votes.s", "s"),
            ("ensemble.fuse_votes.calls", "count"), ("ensemble.fuse_votes.s", "s"),
            ("ensemble.fuse_votes.quorum_miss", "count"),
            ("ensemble.vote_spread_cents_p50", "cents")]
    out += [("noise.NoiseRef.resolve.calls", "count"), ("noise.NoiseRef.resolve.s", "s")]
    for kind in NOISE_KINDS:
        out += [(f"noise.synth_noise.{kind}.calls", "count"), (f"noise.synth_noise.{kind}.s", "s")]
    out += [("noise.mix_at_snr.calls", "count"), ("noise.mix_at_snr.s", "s"),
            ("noise.clipped_samples", "count")]
    out += [("evaluation.run_benchmark.s", "s"), ("evaluation.worker_busy_s", "s"),
            ("evaluation.parallel_efficiency", "fraction"),
            ("evaluation.materialize_songs.s", "s")]
    out += [("trace.overhead_frac", "fraction"), ("trace.notes_per_s_traced", "notes/s"),
            ("trace.notes_per_s_untraced", "notes/s")]
    return out


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, SMOKE a quick functional check."""

    est_songs: int
    est_min_duration_s: float | None
    grid_songs: int
    grid_snrs_db: tuple[float, ...]
    setup_repeats: int


FULL = Sizes(est_songs=6, est_min_duration_s=15.0, grid_songs=6,
             grid_snrs_db=(-5.0, 0.0, 10.0, 20.0), setup_repeats=3)
SMOKE = Sizes(est_songs=1, est_min_duration_s=None, grid_songs=2,
              grid_snrs_db=(20.0,), setup_repeats=2)


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int = 0, reason: str | None = None):
        self.attempted += attempted
        self.failed += failed
        if failed and reason and len(self.reasons) < 10:
            self.reasons.append(reason)


class WarningCounter(logging.Handler):
    """Root handler that counts pitchlab's log warnings instead of printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def call_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """Run pitchlab.cli.main in-process; returns (exit code, stdout, stderr, seconds)."""
    from pitchlab import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed operation, not a crashed benchmark
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


# ---------------------------------------------------------------------------
# estimate-ensemble
# ---------------------------------------------------------------------------


@dataclass
class Take:
    """One `pitchlab estimate` input: a WAV, its annotation and the truths."""

    wav: str
    notes: str
    onsets: list[float]
    truths: list[float]
    clean: bool
    duration: float  # seconds of audio up to the end of the last note
    first: list | None = None  # estimates from the first call, for repeat checks


def _take(wav: str, notes_path: str, notes, clean: bool) -> Take:
    return Take(wav, notes_path, [n.onset for n in notes], [n.f0_truth for n in notes], clean,
                notes[-1].offset)


class EstimateWorkload:
    """Closed loop of `pitchlab estimate --method ensemble` over clean songs.

    After the timed loop, an untimed pass scores the ensemble under noise
    through the CLI: `pitchlab mix` adds each noise kind to each song at
    NOISY_SNR_DB, and `pitchlab estimate` runs on a disjoint quarter of the
    song's notes for each kind. Noise does no work in the timed loop.
    """

    def __init__(self, sizes: Sizes, seed: int):
        import speed

        self.sizes = sizes
        self.seed = seed
        self.meter = speed.Speedometer()
        # Wall-clock samples; timing_samples() rescales them to reference speed.
        self.latencies: list[float] = []  # per call, scaled to SONG_SECONDS of audio
        self.rates: list[float] = []  # notes/s of each pass over the clean songs

    def setup(self, directory: Path) -> dict:
        from pitchlab import audio_io, evaluation

        directory.mkdir(parents=True)
        songs, noisy = [], []
        for i in range(self.sizes.est_songs):
            buffer, notes = evaluation.synth_song(
                SONG_SEED_STRIDE * self.seed + i, SAMPLE_RATE, self.sizes.est_min_duration_s
            )
            stem = directory / f"song_{i}"
            audio_io.write_wav(f"{stem}.wav", buffer)
            evaluation.write_annotation(f"{stem}.notes", notes)
            songs.append(_take(f"{stem}.wav", f"{stem}.notes", notes, clean=True))
            for k, kind in enumerate(NOISE_KINDS):
                part = notes[k::len(NOISE_KINDS)]
                evaluation.write_annotation(f"{stem}_{kind}.notes", part)
                take = _take(f"{stem}_{kind}.wav", f"{stem}_{kind}.notes", part, clean=False)
                noisy.append((f"{stem}.wav", kind, take))
        n_notes = sum(len(t.truths) for t in songs)
        return {"songs": songs, "noisy": noisy, "n_notes": n_notes}

    def warm_up(self, inputs: dict):
        take = inputs["songs"][0]
        call_cli(["estimate", take.wav, take.notes, "--method", ENSEMBLE])

    def run_one(self, inputs: dict, take: Take, tally: Tally) -> float:
        """One estimate call with its checks; returns its wall time."""
        code, out, err, seconds = call_cli(["estimate", take.wav, take.notes, "--method", ENSEMBLE])
        n = len(take.truths)
        if code != 0:
            tally.add(n, n, f"{take.wav}: exit {code}: {err.strip()[-200:]}")
            return seconds
        rows = [line.split() for line in out.splitlines() if line.strip()]
        try:
            aligned = len(rows) == n and all(
                len(r) == 4 and abs(float(r[0]) - onset) <= 1e-5 for r, onset in zip(rows, take.onsets)
            )
            estimates = [float(r[2]) or None for r in rows]
        except ValueError:
            aligned = False
        if not aligned:
            tally.add(n, n, f"{take.wav}: output rows do not match its {n} notes: {out[:200]!r}")
            return seconds
        if take.first is None:
            take.first = estimates
        bad = 0
        for f0, first, truth in zip(estimates, take.first, take.truths):
            if f0 != first or (take.clean and not stats.within_quarter_tone(f0, truth)):
                bad += 1
        tally.add(n, bad, f"{take.wav}: {bad} notes off by a quarter tone or not repeatable")
        return seconds

    def clean_loop(self, inputs: dict, seconds: float, tally: Tally):
        """Pass over every clean song in turn, for `seconds` and at least one pass."""
        songs = inputs["songs"]
        t0 = time.perf_counter()
        while not self.rates or time.perf_counter() - t0 < seconds:
            pass_wall = 0.0
            for take in songs:
                wall = self.meter.around(lambda: self.run_one(inputs, take, tally))
                pass_wall += wall
                self.latencies.append(wall * SONG_SECONDS / take.duration)
            self.rates.append(inputs["n_notes"] / pass_wall)

    def noisy_pass(self, inputs: dict, tally: Tally, intervals: list | None = None):
        """Mix and estimate every noisy take once through the CLI.

        The noises are bench-grid's: synthetic_noise_refs(NOISE_SEED),
        resolved once and written as WAVs that `pitchlab mix` loops to
        each song's length.
        """
        from pitchlab import audio_io, noise

        noise_wavs = {}
        for kind, ref in noise.synthetic_noise_refs(seed=NOISE_SEED).items():
            noise_wavs[kind] = str(Path(inputs["songs"][0].wav).with_name(f"noise_{kind}.wav"))
            audio_io.write_wav(noise_wavs[kind], ref.resolve(SAMPLE_RATE).buffer)
        for source, kind, take in inputs["noisy"]:
            code, out, err, _s = call_cli(
                ["mix", source, noise_wavs[kind], "--snr", f"{NOISY_SNR_DB:g}", "--out", take.wav]
            )
            achieved = [float(ln.split()[1]) for ln in out.splitlines() if ln.startswith("achieved_snr_db")]
            ok = code == 0 and len(achieved) == 1 and abs(achieved[0] - NOISY_SNR_DB) <= 0.01
            tally.add(1, 0 if ok else 1, f"mix {take.wav}: exit {code}, {out.strip()[:80]} {err.strip()[-200:]}")
            start = time.perf_counter()
            self.run_one(inputs, take, tally)
            if intervals is not None:
                intervals.append((take, start, time.perf_counter()))

    def quality(self, inputs: dict) -> dict[str, float]:
        noisy = [take for _source, _kind, take in inputs["noisy"]]
        out = {}
        for key, takes in (("ensemble_error_clean", inputs["songs"]), ("ensemble_error_noisy", noisy)):
            done = [t for t in takes if t.first is not None]
            est = [f for t in done for f in t.first]
            tru = [f for t in done for f in t.truths]
            out[key] = stats.sqrt_hz_error(est, tru) if tru else float("nan")
        return out

    def measure(self, inputs: dict, seconds: float, tally: Tally, quality: bool = True) -> dict[str, float]:
        self.clean_loop(inputs, seconds, tally)
        if quality:
            self.noisy_pass(inputs, tally)
        rates, latencies = self.timing_samples()
        return {
            "notes_per_s": stats.median(rates),
            "song_latency_p50_s": stats.median(latencies),
            **self.quality(inputs),
        }

    def timing_samples(self) -> tuple[list[float], list[float]]:
        """Rates and latencies at reference speed."""
        slowdown = self.meter.slowdown()
        return [r * slowdown for r in self.rates], [t / slowdown for t in self.latencies]

    def traced_unit(self, inputs: dict, tally: Tally, tracer_spans) -> tuple[int, float, float, dict]:
        """Each clean song once, then the noisy pass for the members' errors.

        Returns notes and wall time of the clean pass, the instant it ended
        (layer metrics cover spans up to there) and the members' errors.
        """
        intervals: list[tuple[Take, float, float]] = []
        t0 = time.perf_counter()
        for take in inputs["songs"]:
            start = time.perf_counter()
            self.run_one(inputs, take, tally)
            intervals.append((take, start, time.perf_counter()))
        cutoff = time.perf_counter()
        self.noisy_pass(inputs, tally, intervals)
        spans = tracer_spans()
        errors = {}
        for method in METHODS:
            for suffix, clean in (("error_clean", True), ("error_noisy", False)):
                est, tru = [], []
                for take, start, end in intervals:
                    got = note_estimates(spans, method, start, end)
                    if take.clean == clean and len(got) == len(take.truths):
                        est += got
                        tru += take.truths
                errors[f"estimators.{method}.{suffix}"] = stats.sqrt_hz_error(est, tru) if tru else 0.0
        return inputs["n_notes"], cutoff - t0, cutoff, errors

    def describe(self, inputs: dict) -> str:
        return (f"{len(inputs['songs'])} clean songs ({inputs['n_notes']} notes) timed; then, untimed, each "
                f"song mixed with {len(NOISE_KINDS)} noise kinds at {NOISY_SNR_DB:+g} dB, a quarter "
                f"of its notes per kind")


# ---------------------------------------------------------------------------
# bench-grid
# ---------------------------------------------------------------------------


class GridWorkload:
    """Closed loop of `pitchlab bench` at --jobs nproc, one call at a time.

    The songs are split into GRID_GROUPS groups with one bench config
    each. The loop runs the groups in turn, so a run times several calls,
    and the quality metrics cover every song.
    """

    def __init__(self, sizes: Sizes, seed: int, jobs: int):
        import speed

        self.sizes = sizes
        self.seed = seed
        self.jobs = jobs
        # The calling thread idles while the pool works, so the kernel
        # also runs on a thread during each call.
        self.meter = speed.Speedometer(background=True)
        # Wall-clock samples; timing_samples() rescales them to reference speed.
        self.rates: list[float] = []  # note-conditions/s of each bench call
        self.latencies: list[float] = []  # per call, seconds per SONG_SECONDS of audio
        self.first_csv: dict[str, str] = {}

    def setup(self, directory: Path) -> dict:
        from pitchlab import evaluation

        if self.sizes.grid_songs % GRID_GROUPS:
            raise ValueError(f"{self.sizes.grid_songs} songs do not split into {GRID_GROUPS} equal groups")
        songs = evaluation.materialize_songs(
            self.sizes.grid_songs, SONG_SEED_STRIDE * self.seed, directory / "songs", SAMPLE_RATE
        )
        conditions = 1 + len(NOISE_KINDS) * len(self.sizes.grid_snrs_db)
        groups = []
        for g in range(GRID_GROUPS):
            members = songs[g::GRID_GROUPS]
            config = {
                "songs": {"annotations": [str(directory / "songs" / f"{s.song_id}.notes") for s in members]},
                "methods": GRID_METHODS,
                "noises": {"seed": NOISE_SEED},
                "snrs_db": list(self.sizes.grid_snrs_db),
            }
            path = directory / f"bench-{g}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            groups.append({
                "config": str(path),
                "out": str(directory / f"out-{g}"),
                "note_conditions": sum(len(s.notes) for s in members) * conditions,
                "audio_s": sum(s.notes[-1].offset for s in members),
            })
        warm = dict(config, songs={"annotations": config["songs"]["annotations"][:1]}, snrs_db=[20.0])
        warm_path = directory / "warm.json"
        warm_path.write_text(json.dumps(warm), encoding="utf-8")
        return {
            "groups": groups,
            "warm": str(warm_path),
            "n_songs": len(songs),
            "n_notes": sum(len(s.notes) for s in songs),
            "conditions": conditions,
        }

    def warm_up(self, inputs: dict):
        call_cli(["bench", inputs["warm"], "--jobs", str(self.jobs), "--out", inputs["groups"][0]["out"]])

    def expected_rows(self) -> set[tuple[str, str, str]]:
        rows = set()
        for m in GRID_METHODS:
            rows.add((m, "clean", ""))
            for kind in NOISE_KINDS:
                for snr in self.sizes.grid_snrs_db:
                    rows.add((m, kind, f"{snr:g}"))
        return rows

    def run_one(self, group: dict, tally: Tally) -> dict | None:
        """One bench call with its checks; returns {(method, noise, snr): error}."""
        code, _out, err, seconds = self.meter.around(lambda: call_cli(
            ["bench", group["config"], "--jobs", str(self.jobs), "--out", group["out"]]
        ))
        self.rates.append(group["note_conditions"] / seconds)
        self.latencies.append(seconds * SONG_SECONDS / group["audio_s"])
        expected = self.expected_rows()
        n = len(expected)
        warnings = [ln for ln in err.splitlines() if ln.startswith("warning:")]
        if code != 0 or warnings:
            tally.add(n, n, f"bench exit {code}; {len(warnings)} warnings: {warnings[:2]}")
            return None
        try:
            text = Path(group["out"], "results.csv").read_text(encoding="utf-8")
            cells = parse_results_csv(text)
        except (OSError, ValueError) as exc:
            tally.add(n, n, f"unreadable results.csv: {exc}")
            return None
        first = self.first_csv.setdefault(group["config"], text)
        bad = sum(
            1 for key in expected
            if key not in cells or not (math.isfinite(cells[key]) and cells[key] >= 0)
        )
        if text != first:
            bad = n
        tally.add(n, bad, f"{bad} grid cells missing, invalid or not repeatable")
        return cells

    def one_pass(self, inputs: dict, tally: Tally) -> list[dict]:
        """Every group once; returns each group's cells ({} when the call failed)."""
        return [self.run_one(group, tally) or {} for group in inputs["groups"]]

    def loop(self, inputs: dict, seconds: float, tally: Tally) -> list[dict]:
        """Bench calls over the groups in turn, for `seconds` and at least one pass."""
        t0 = time.perf_counter()
        cells = self.one_pass(inputs, tally)
        calls = len(cells)
        while time.perf_counter() - t0 < seconds:
            self.run_one(inputs["groups"][calls % len(cells)], tally)
            calls += 1
        return cells

    def quality(self, per_group: list[dict], method: str = ENSEMBLE) -> dict[str, float]:
        """A method's clean and mean noisy error over every song; the groups are equal-sized."""
        clean = [cells.get((method, "clean", ""), math.nan) for cells in per_group]
        noisy = [v for cells in per_group for (m, kind, _snr), v in cells.items()
                 if m == method and kind != "clean"]
        return {
            "ensemble_error_clean": sum(clean) / len(clean),
            "ensemble_error_noisy": sum(noisy) / len(noisy) if noisy else math.nan,
        }

    def measure(self, inputs: dict, seconds: float, tally: Tally, quality: bool = True) -> dict[str, float]:
        per_group = self.loop(inputs, seconds, tally)
        rates, latencies = self.timing_samples()
        return {
            "notes_per_s": stats.median(rates),
            "song_latency_p50_s": stats.median(latencies),
            **self.quality(per_group),
        }

    def timing_samples(self) -> tuple[list[float], list[float]]:
        """Rates and latencies at reference speed."""
        slowdown = self.meter.slowdown()
        return [r * slowdown for r in self.rates], [t / slowdown for t in self.latencies]

    def traced_unit(self, inputs: dict, tally: Tally, tracer_spans) -> tuple[int, float, float, dict]:
        """One pass over the groups; the members' errors come from results.csv."""
        t0 = time.perf_counter()
        per_group = self.one_pass(inputs, tally)
        wall = time.perf_counter() - t0
        errors = {}
        for method in METHODS:
            q = self.quality(per_group, method)
            errors[f"estimators.{method}.error_clean"] = q["ensemble_error_clean"]
            errors[f"estimators.{method}.error_noisy"] = q["ensemble_error_noisy"]
        return inputs["n_notes"] * inputs["conditions"], wall, math.inf, errors

    def describe(self, inputs: dict) -> str:
        return (f"{inputs['n_songs']} songs ({inputs['n_notes']} notes) in {GRID_GROUPS} bench "
                f"calls x {inputs['conditions']} conditions x {len(GRID_METHODS)} methods, jobs={self.jobs}")


def parse_results_csv(text: str) -> dict[tuple[str, str, str], float]:
    """`bench`'s results.csv as {(method, noise_id, snr_db): error}."""
    lines = text.splitlines()
    if not lines or lines[0] != "method,noise_id,snr_db,error":
        raise ValueError("results.csv has no header")
    cells = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 4:
            raise ValueError(f"bad results.csv row {line!r}")
        method, noise_id, snr, error = fields
        cells[(method, noise_id, snr)] = float(error)
    return cells


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def environment_record(jobs: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    rev = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            rev = lines[1]
    return {
        "nproc": jobs,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": rev,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs for a functional check")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def print_metric(name: str, value: float, unit: str, note: str = ""):
    print(f"{name} {value!r} {unit}{'  (' + note + ')' if note else ''}")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("PITCHLAB_EXTERNAL", None)
    if not (ROOT / "src" / "pitchlab").is_dir():
        print(f"error: no pitchlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import pitchlab.cli  # noqa: F401  (the import is part of set-up time)
    import_s = time.perf_counter() - t0
    import speed  # only now: it loads numpy, which the timed import must count

    counter = WarningCounter()
    logging.getLogger().addHandler(counter)
    sizes = SMOKE if args.smoke else FULL
    jobs = len(os.sched_getaffinity(0))
    if args.workload == "bench-grid":
        workload = GridWorkload(sizes, args.seed, jobs)
    else:
        workload = EstimateWorkload(sizes, args.seed)

    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        # Set-up time is rescaled by the slowdown of the whole run, which
        # includes these kernel runs; set-up alone gives too few of them.
        workload.meter.sample()
        setups = []
        for r in range(sizes.setup_repeats):
            t = time.perf_counter()
            inputs = workload.setup(run_dir / f"setup-{r}")
            setups.append(time.perf_counter() - t)
            workload.meter.sample()
        workload.warm_up(inputs)

        tally = Tally()
        print(f"env {json.dumps(environment_record(jobs), sort_keys=True)}")
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}: {workload.describe(inputs)}")
        metrics = workload.measure(inputs, args.seconds, tally, quality=not args.trace)
        if args.trace:
            rates, _latencies = workload.timing_samples()
            result = traced_metrics(workload, run_dir, stats.median(rates), tally, jobs)
            units = dict(per_layer_names())
        else:
            metrics["setup_s"] = (import_s + stats.median(setups)) / workload.meter.slowdown()
            metrics["peak_rss_mb"] = peak_rss_mb()
            result = {name: metrics[name] for name, _unit in END_TO_END}
            units = dict(END_TO_END)
            rates, latencies = workload.timing_samples()
            p = stats.highest_percentile(len(latencies))
            tail = "none" if p is None else f"p{p} {stats.percentile(latencies, p)!r} s"
            print(f"timing: notes_per_s is the median of {len(rates)} samples (best {max(rates)!r}); "
                  f"song_latency_p50_s is the median of {len(latencies)} calls (best {min(latencies)!r} s; "
                  f"highest percentile with {stats.SAMPLES_BEYOND_PERCENTILE} samples beyond it: {tail})")
            times = workload.meter.times
            print(f"speed: timings are rescaled to reference speed by the slowdown "
                  f"{workload.meter.slowdown()!r}, from {len(times)} kernel runs (fastest {min(times)!r} s, "
                  f"slowest {max(times)!r} s, reference {speed.REFERENCE_KERNEL_S!r} s); wall clock: "
                  f"notes_per_s {stats.median(workload.rates)!r}, song_latency_p50_s "
                  f"{stats.median(workload.latencies)!r} s, import {import_s!r} s, set-up {stats.median(setups)!r} s")
        for name, value in result.items():
            print_metric(name, value, units[name])
        print_metric("failed_frac", stats.failed_frac(tally.failed, tally.attempted), "fraction",
                     f"{tally.failed} of {tally.attempted} operations")
        print(f"log_warnings {counter.count}")
        for reason in tally.reasons:
            print(f"failure: {reason}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = tally.failed == 0 and all(math.isfinite(v) for v in result.values())
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result.items()},
    }))
    return 0


def traced_metrics(workload, run_dir: Path, untraced_rate: float, tally: Tally, jobs: int) -> dict:
    """Trace one set-up and one unit of work: each clean song once, or each bench config once."""
    import speed

    meter = speed.Speedometer(background=workload.meter.background)
    tracer = Tracer(run_dir / "spill")
    tracer.install()
    try:
        inputs = workload.setup(run_dir / "traced")
        notes, wall, cutoff, errors = meter.around(lambda: workload.traced_unit(inputs, tally, tracer.collect))
    finally:
        tracer.uninstall()
    metrics = layer_metrics([s for s in tracer.collect() if s[4] <= cutoff], jobs)
    metrics.update(errors)
    traced_rate = notes * meter.slowdown() / wall
    metrics["trace.overhead_frac"] = untraced_rate / traced_rate - 1.0
    metrics["trace.notes_per_s_traced"] = traced_rate
    metrics["trace.notes_per_s_untraced"] = untraced_rate
    return {name: metrics[name] for name, _unit in per_layer_names()}


if __name__ == "__main__":
    raise SystemExit(main())
