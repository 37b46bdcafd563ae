"""Command line front end: estimate, mix, bench and report subcommands.

estimate runs one config map, --config, for its method or the ensemble's
members, and PITCHLAB_EXTERNAL is the external command of the one spec
it builds. Exit codes: 0 success, 2 unreadable (JSON nested too deep
included) or out-of-range input, an output path that cannot be written,
an --ensemble-spec with a plain method, sample-rate mismatch, an external
command (PITCHLAB_EXTERNAL or a spec's) that splits into no program, a mix
into a silent or empty signal, of a silent noise or too large for a WAV
header, 3 invalid annotation (non-UTF-8 text
included, or a note past the end of the audio), 4 benchmark with zero
successful songs, or a bench or estimate whose worker process died before
it finished (bench writes no results, estimate prints no note line).

estimate forks or stays serial. It spreads the song's notes over the CPUs
the process may use (os.sched_getaffinity): the first run of notes in
this process, the others in forked workers. Where the platform cannot say
how many CPUs it may use, or cannot fork, it estimates every note in this
process. Its output and its errors do not depend on the number of CPUs.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from concurrent.futures import BrokenExecutor
from pathlib import Path

from .audio_io import read_wav, write_wav
from .ensemble import (
    DEFAULT_MEMBERS,
    ensemble_estimate,  # unused here, but perfbench's tracer patches it in this module
    load_ensemble_spec,
)
from .errors import ConfigOutOfRange, InvalidAnnotation, PitchlabError, SilentNoise
from .estimators import load_estimator_configs, read_json
from .evaluation import (
    ENSEMBLE_METHOD,
    check_run,
    estimate_song,
    hz_to_midi,
    materialize_songs,
    parse_long_csv,
    read_annotation,
    render_long_csv,
    render_report,
    run_benchmark,
)
from .noise import (
    DEFAULT_SNRS_DB,
    NoiseSource,
    check_snr,
    mix_at_snr,
    measure_snr,
    refs_from_dir,
    scenario_grid,
    synth_noise,
    synthetic_noise_refs,
)

EX_OK = 0
EX_INPUT = 2
EX_ANNOTATION = 3
EX_NO_SONGS = 4


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def cmd_estimate(args) -> int:
    method = args.method
    try:
        check_run([method], 1)
    except ValueError as exc:
        return _fail(EX_INPUT, str(exc))
    if method != ENSEMBLE_METHOD and args.ensemble_spec:
        return _fail(EX_INPUT, f"--ensemble-spec applies only to --method {ENSEMBLE_METHOD}; "
                     f"give {method} overrides with --config")

    try:
        configs = load_estimator_configs(args.config) if args.config else {}
        spec = load_ensemble_spec(args.ensemble_spec) if method == ENSEMBLE_METHOD else None
    except (OSError, ValueError, PitchlabError) as exc:
        return _fail(EX_INPUT, f"bad configuration: {exc}")

    try:
        annotation = read_annotation(args.notes)
    except OSError as exc:
        return _fail(EX_INPUT, f"cannot read annotation {args.notes}: {exc}")
    except InvalidAnnotation as exc:
        return _fail(EX_ANNOTATION, str(exc))

    t0 = time.perf_counter()
    try:
        buffer = read_wav(args.audio)
    except (OSError, ValueError) as exc:
        return _fail(EX_INPUT, f"cannot read audio {args.audio}: {exc}")

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    try:
        f0s = estimate_song(buffer, annotation.notes, [method], configs, spec, jobs=cpus)[method]
    except ConfigOutOfRange as exc:
        return _fail(EX_INPUT, f"the search range does not fit {args.audio}: {exc}")
    except (PitchlabError, ValueError) as exc:
        return _fail(EX_ANNOTATION, f"the notes do not fit {args.audio}: {exc}")
    except BrokenExecutor as exc:  # a worker died: BrokenProcessPool
        return _fail(EX_NO_SONGS, f"an estimate worker process died: {exc}")
    for note, f0 in zip(annotation.notes, f0s):
        if f0 is not None:
            f0_text = f"{f0:.6g}"
            midi_text = f"{hz_to_midi(f0):.6g}"
        else:
            f0_text = "0"
            midi_text = "0"
        print(f"{note.onset:.6f} {note.offset:.6f} {f0_text} {midi_text}")

    print(f"wall_time_s {time.perf_counter() - t0:.4f}", file=sys.stderr)
    return EX_OK


# ---------------------------------------------------------------------------
# mix
# ---------------------------------------------------------------------------


def _resolve_noise(noise_arg: str, n_samples: int, sample_rate: int, seed: int) -> NoiseSource:
    if noise_arg.startswith("synth:"):
        return synth_noise(noise_arg.split(":", 1)[1], n_samples, sample_rate, seed)
    buffer = read_wav(noise_arg)
    return NoiseSource(noise_id=Path(noise_arg).stem, buffer=buffer)


def cmd_mix(args) -> int:
    try:
        check_snr(args.snr)
    except ValueError as exc:
        return _fail(EX_INPUT, f"bad --snr: {exc}")
    try:
        signal = read_wav(args.signal)
    except (OSError, ValueError) as exc:
        return _fail(EX_INPUT, f"cannot read signal {args.signal}: {exc}")
    # before the noise: a synthetic one cannot be made at a length of 0
    if len(signal) == 0:
        return _fail(EX_INPUT, f"cannot mix into {args.signal}: the signal holds no samples")
    try:
        noise = _resolve_noise(args.noise, len(signal.samples), signal.sample_rate, args.seed)
    except (OSError, ValueError, SilentNoise) as exc:
        return _fail(EX_INPUT, f"cannot obtain noise {args.noise}: {exc}")

    try:
        mixed = mix_at_snr(signal, noise, args.snr)
        del noise  # the achieved SNR is measured on the mix, not the noise
        # a silent signal takes no noise at any SNR, and measure_snr rejects that
        achieved = measure_snr(signal.samples, mixed.samples - signal.samples)
    except PitchlabError as exc:
        return _fail(EX_INPUT, f"cannot mix at {args.snr:g} dB SNR: {exc}")

    try:
        write_wav(args.out, mixed)
    except (OSError, ValueError) as exc:  # ValueError: the header cannot hold the mix
        return _fail(EX_INPUT, f"cannot write {args.out}: {exc}")
    print(f"achieved_snr_db {achieved:.4f}")
    return EX_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


# The JSON shape of a benchmark config file.
BENCH_FIELDS = {
    "songs": {"annotations": [str], "count": int, "sample_rate": int},
    "noises": {"dir": str, "seed": int},
    "methods": [str],
    "snrs_db": [float],
    "seed": int,
    "out": str,
}


# Synthetic songs are rendered at a rate in this range, in Hz.
BENCH_SAMPLE_RATES = (8000, 192000)


def _bench_config(path: str, out: str | None = None) -> dict:
    """The benchmark config at path, with out (--out) put over its "out"
    unless None, every field type- and range-checked, and "methods" set to
    its default when absent."""
    config = read_json(path, BENCH_FIELDS)
    if out is not None:
        config["out"] = out
    # songs are read or synthesized, noises read from a directory or synthesized
    for group, key, other in (("songs", "annotations", "count"),
                              ("songs", "annotations", "sample_rate"), ("noises", "dir", "seed")):
        if {key, other} <= config.get(group, {}).keys():
            raise ValueError(f"{group}.{key} and {group}.{other} exclude each other")
    songs = config.get("songs", {})
    lo, hi = BENCH_SAMPLE_RATES
    if not lo <= songs.get("sample_rate", lo) <= hi:
        raise ValueError(f"songs.sample_rate must be in [{lo}, {hi}] Hz")
    if songs.get("count", 1) < 1:
        raise ValueError("songs.count must be at least 1")
    if songs.get("annotations") == []:
        raise ValueError("songs.annotations must name at least one file")
    if min(config.get("seed", 0), config.get("noises", {}).get("seed", 0)) < 0:
        raise ValueError("seed and noises.seed must be non-negative")
    snrs = config.get("snrs_db", [])
    for snr in snrs:
        check_snr(snr)
    if len(set(snrs)) != len(snrs):
        raise ValueError("snrs_db must not repeat an SNR")
    config.setdefault("methods", [*DEFAULT_MEMBERS, ENSEMBLE_METHOD])
    return config


def cmd_bench(args) -> int:
    try:
        config = _bench_config(args.config, out=args.out)
    except (OSError, ValueError) as exc:
        return _fail(EX_INPUT, f"bad benchmark config: {exc}")
    try:
        check_run(config["methods"], args.jobs)
    except ValueError as exc:
        return _fail(EX_INPUT, f"cannot run the benchmark: {exc}")
    try:
        spec = load_ensemble_spec()
    except ValueError as exc:
        return _fail(EX_INPUT, f"bad configuration: {exc}")

    seed = config.get("seed", 0)
    out_dir = Path(config.get("out", "bench_out"))

    methods = config["methods"]
    noises_cfg = config.get("noises", {})
    if "dir" in noises_cfg:
        try:
            refs = refs_from_dir(noises_cfg["dir"])
        except (OSError, ValueError) as exc:
            return _fail(EX_INPUT, f"cannot read noise directory: {exc}")
        if not refs:
            return _fail(EX_INPUT, f"no NN_name.wav noises in {noises_cfg['dir']}")
    else:
        refs = synthetic_noise_refs(seed=noises_cfg.get("seed", seed))

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(EX_INPUT, f"cannot create output directory {out_dir}: {exc}")

    songs_cfg = config.get("songs", {})
    if "annotations" in songs_cfg:
        try:
            songs = [read_annotation(p) for p in songs_cfg["annotations"]]
        except OSError as exc:
            return _fail(EX_INPUT, f"cannot read annotation: {exc}")
        except InvalidAnnotation as exc:
            return _fail(EX_ANNOTATION, str(exc))
    else:
        count = songs_cfg.get("count", 5)
        rate = songs_cfg.get("sample_rate", 44100)
        try:
            songs = materialize_songs(count, seed, out_dir / "songs", rate)
        except OSError as exc:
            return _fail(EX_INPUT, f"cannot write the songs into {out_dir / 'songs'}: {exc}")

    snrs = tuple(config.get("snrs_db", DEFAULT_SNRS_DB))
    scenarios = scenario_grid(tuple(refs), snrs)

    try:
        report = run_benchmark(songs, methods, scenarios, refs, ensemble_spec=spec, jobs=args.jobs)
    except BrokenExecutor as exc:  # a pool worker died: BrokenProcessPool
        return _fail(EX_NO_SONGS, f"a benchmark worker process died: {exc}")

    for failure in report.failures:
        where = "clean" if failure.scenario is None else (
            f"{failure.scenario.noise_id}@{failure.scenario.snr_db:+g}dB"
        )
        print(f"warning: {failure.song_id} ({where}): {failure.message}", file=sys.stderr)

    if not report.cells and not report.clean:
        return _fail(EX_NO_SONGS, "no songs could be evaluated")

    csv_path = out_dir / "results.csv"
    table_path = out_dir / "results.txt"
    table = render_report(report, "text-table")
    try:
        csv_path.write_text(render_long_csv(report), encoding="utf-8")
        table_path.write_text(table, encoding="utf-8")
    except OSError as exc:
        return _fail(EX_INPUT, f"cannot write the results into {out_dir}: {exc}")
    print(table, end="")
    print(f"wrote {csv_path} and {table_path}", file=sys.stderr)
    return EX_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report(args) -> int:
    try:
        text = Path(args.csv).read_text(encoding="utf-8")
        report = parse_long_csv(text)
    except (OSError, ValueError) as exc:
        return _fail(EX_INPUT, f"cannot read results CSV {args.csv}: {exc}")
    rendered = render_report(report, args.format)
    if args.out:
        try:
            Path(args.out).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            return _fail(EX_INPUT, f"cannot write {args.out}: {exc}")
    else:
        print(rendered, end="")
    return EX_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pitchlab",
        description="Note-level monophonic pitch estimation tools.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate one pitch per annotated note")
    est.add_argument("audio", help="WAV file to analyse")
    est.add_argument("notes", help="annotation sidecar with note boundaries")
    est.add_argument("--method", default=ENSEMBLE_METHOD,
                     help="estimator name or 'ensemble' (default)")
    est.add_argument("--ensemble-spec", help="JSON ensemble description")
    est.add_argument("--config", help="JSON overrides of the method or the ensemble's members")
    est.set_defaults(func=cmd_estimate)

    mix = sub.add_parser("mix", help="mix a noise into a signal at a target SNR")
    mix.add_argument("signal", help="clean WAV file")
    mix.add_argument("noise", help="noise WAV file or synth:<kind>")
    mix.add_argument("--snr", type=float, required=True, help="target SNR in dB")
    mix.add_argument("--seed", type=int, default=0, help="seed for synthetic noise")
    mix.add_argument("--out", required=True, help="output WAV path")
    mix.set_defaults(func=cmd_mix)

    bench = sub.add_parser("bench", help="run a benchmark described by a JSON config")
    bench.add_argument("config", help="benchmark JSON config file")
    bench.add_argument("--jobs", type=int, default=1, help="parallel worker processes (default 1)")
    bench.add_argument("--out", help="output directory, in place of the config's \"out\"")
    bench.set_defaults(func=cmd_bench)

    rep = sub.add_parser("report", help="re-render a results CSV")
    rep.add_argument("csv", help="long-form results CSV")
    rep.add_argument("--format", choices=["csv", "text-table"], default="text-table")
    rep.add_argument("--out", help="write here instead of stdout")
    rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
