"""Byte-identity check: pitchlab's outputs here against those of a revision.

    python3 tools/identity.py --base HEAD
    python3 tools/identity.py --base HEAD~1 --quick

Exports the revision with `git archive` (local; no network) into a
temporary directory and runs one battery of outputs against that tree and
against the working tree holding this script, each in a subprocess that
imports pitchlab from the tree's src. Prints one line per artefact:
"identical", or the first differing line, how many lines moved (a line is
a note, or a bench cell) and the largest relative change of a number on
them. Exits 0 only when every artefact is identical.

The battery:
    estimate  `pitchlab estimate` stdout for the 8 methods and the ensemble
              on the 15 s songs of seeds 404, 9001 and 5;
    mix       `pitchlab mix` stdout and the SHA-256 of the WAV it writes, for
              the same songs in each synthetic noise (--seed 77) at -5, 0
              and 20 dB;
    bench     `pitchlab bench` results.csv, results.txt and stdout, all 9
              rows, at --jobs 1, 2 and 3, on grid A (5 songs from seed 1000,
              noise seed 77) and grid H1 (4 songs from 6000, noise seed 11);
              at --jobs 3 grid A's 5 tasks are dealt 2/2/1 to 3 children;
    quality   tools/quality.py --set A, H1 and H2;
    rates     per-note f0s of all 9 rows on song 31 at 8, 22.05, 96 and
              192 kHz, clean and in each synthetic noise (seed 77) at 0 dB;
    silence   per-note f0s of all 9 rows on song 1000, clean, padded with
              1 s of noise at 1e-7 peak into which its last note runs
              0.5 s, so that note holds silent frames whose spectra are
              not zero: a kernel that scores them moves its f0s;
    overrides per-note f0s of all 9 rows on songs 1000 and 1001, clean,
              under OVERRIDES, a config for every method off its default:
              combs of 6 to 8 harmonics and narrowed lag ranges, which the
              default configs never run.
It takes a few minutes on 2 cores. --quick runs only per-note f0s of all
9 rows on the first 8 notes of songs 1000 and 1001, clean and in pink
noise at 0 dB, and the silence and overrides artefacts, in a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ESTIMATE_SEEDS = (404, 9001, 5)
MIX_SNRS_DB = (-5, 0, 20)
GRIDS = {"A": (1000, 5, 77), "H1": (6000, 4, 11)}
QUALITY_SETS = ("A", "H1", "H2")
RATES = (8000, 22050, 96000, 192000)
SILENCE_SEED = 1000
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
# The overrides artefact's config map, as `pitchlab estimate --config` reads it.
OVERRIDES = {
    "acf": {"f_min": 60.0, "f_max": 700.0},
    "nsdf": {"f_min": 70.0, "f_max": 800.0},
    "yin": {"f_min": 50.0, "f_max": 600.0},
    "cepstrum": {"f_min": 60.0, "f_max": 900.0},
    "hps": {"f_min": 90.0, "f_max": 1200.0, "n_harmonics": 4},
    "stft": {"n_harmonics": 6},
    "ml": {"f_max": 900.0, "n_harmonics": 7},
    "srh": {"f_min": 70.0, "f_max": 600.0, "n_harmonics": 8},
}


# ---------------------------------------------------------------------------
# the battery, run inside a tree (--emit), pitchlab imported from its src
# ---------------------------------------------------------------------------


def f0_lines(songs, noises, configs=None) -> str:
    """One line per note of each (name, buffer, notes) song, clean and in
    each noise at 0 dB: the song, its condition, the note's index and the
    f0s of every registered method and the ensemble (0: unvoiced), each
    method run under its config in configs or its default."""
    from pitchlab import REGISTRY
    from pitchlab.evaluation import ENSEMBLE_METHOD, estimate_song
    from pitchlab.noise import mix_at_snr

    methods = (*REGISTRY, ENSEMBLE_METHOD)
    lines = []
    for name, buffer, notes in songs:
        takes = {"clean": buffer}
        for kind, ref in noises.items():
            takes[kind] = mix_at_snr(buffer, ref.resolve(buffer.sample_rate), 0.0)
        for condition, take in takes.items():
            f0s = estimate_song(take, notes, methods, configs or {})
            for i in range(len(notes)):
                lines.append(" ".join([name, condition, str(i), *(repr(f0s[m][i] or 0.0) for m in methods)]))
    return "\n".join(lines) + "\n"


def _cli(argv) -> str:
    """pitchlab's stdout for one CLI call, run in this process."""
    from pitchlab.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return out.getvalue() + f"exit {code}\n"


def padded_song(seed: int):
    """Song seed with 1 s of noise at 1e-7 peak appended and its last note
    stretched 0.5 s into it: (name, buffer, notes). The noise's Hann RMS,
    about 4e-8, keeps those frames silent (SILENCE_RMS is 1e-5)."""
    import numpy as np

    from pitchlab.evaluation import synth_song
    from pitchlab.sigproc import AudioBuffer

    buffer, notes = synth_song(seed)
    rate = buffer.sample_rate
    tail = 1e-7 * np.random.default_rng(seed).uniform(-1.0, 1.0, rate)
    padded = AudioBuffer(np.concatenate([buffer.samples, tail]), rate)
    last = dataclasses.replace(notes[-1], offset=len(buffer) / rate + 0.5)
    return f"{seed}+silence", padded, (*notes[:-1], last)


def emit(tree: Path, out: Path, quick: bool) -> None:
    """Write every artefact of the battery under out, one file each."""
    from pitchlab import REGISTRY
    from pitchlab.audio_io import write_wav
    from pitchlab.estimators import parse_config_overrides
    from pitchlab.evaluation import ENSEMBLE_METHOD, synth_song, write_annotation
    from pitchlab.noise import SYNTH_KINDS, synthetic_noise_refs

    def save(name: str, text: str) -> None:
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    noises = synthetic_noise_refs(77)
    save("silence", f0_lines([padded_song(SILENCE_SEED)], {}))
    songs = [(str(seed), *synth_song(seed)) for seed in (1000, 1001)]
    save("overrides", f0_lines(songs, {}, parse_config_overrides(OVERRIDES, "OVERRIDES")))
    if quick:
        songs = [(str(seed), buffer, notes[:8])
                 for seed in (1000, 1001) for buffer, notes in [synth_song(seed)]]
        save("quick", f0_lines(songs, {"pink": noises["pink"]}))
        return
    methods = [*REGISTRY, ENSEMBLE_METHOD]
    work = out / ".work"
    mixes = []
    for seed in ESTIMATE_SEEDS:
        buffer, notes = synth_song(seed, 44100, 15.0)
        wav, sidecar = work / f"song_{seed}.wav", work / f"song_{seed}.notes"
        work.mkdir(parents=True, exist_ok=True)
        write_wav(wav, buffer)
        write_annotation(sidecar, notes)
        for method in methods:
            save(f"estimate/{seed}/{method}", _cli(["estimate", str(wav), str(sidecar), "--method", method]))
        for kind in SYNTH_KINDS:
            for snr in MIX_SNRS_DB:
                mixed = work / "mix.wav"
                stdout = _cli(["mix", str(wav), f"synth:{kind}", "--snr", str(snr), "--seed", "77",
                               "--out", str(mixed)])
                digest = hashlib.sha256(mixed.read_bytes()).hexdigest()
                mixes.append(f"{seed} {kind} {snr} dB: {' '.join(stdout.split())} sha256 {digest}")
                mixed.unlink()
    save("mix", "\n".join(mixes) + "\n")
    for grid, (seed, count, noise_seed) in GRIDS.items():
        config = work / f"bench_{grid}.json"
        config.write_text(json.dumps({"seed": seed, "songs": {"count": count},
                                      "noises": {"seed": noise_seed}, "methods": methods}))
        for jobs in (1, 2, 3):
            bench_out = work / f"bench_{grid}_{jobs}"
            stdout = _cli(["bench", str(config), "--jobs", str(jobs), "--out", str(bench_out)])
            save(f"bench/{grid}/jobs{jobs}/stdout", stdout)
            for name in ("results.csv", "results.txt"):
                save(f"bench/{grid}/jobs{jobs}/{name}", (bench_out / name).read_text())
    for name in QUALITY_SETS:
        quality = subprocess.run([sys.executable, str(tree / "tools" / "quality.py"), "--set", name],
                                 capture_output=True, text=True, check=True)
        save(f"quality/{name}", quality.stdout)
    songs = [(f"31@{rate}", *synth_song(31, rate)) for rate in RATES]
    save("rates", f0_lines(songs, noises))


# ---------------------------------------------------------------------------
# running the battery against trees, and comparing
# ---------------------------------------------------------------------------


def battery(trees, quick: bool = False) -> list[dict[str, str]]:
    """Each tree's artefacts, {name: text}, the battery run against every
    tree at once, each in a subprocess of its own."""
    with tempfile.TemporaryDirectory(prefix="identity-") as scratch:
        trees = [Path(tree).resolve() for tree in trees]
        outs = [Path(scratch) / str(i) for i in range(len(trees))]
        procs = []
        for tree, out in zip(trees, outs):
            out.mkdir()
            argv = [sys.executable, __file__, "--emit", str(tree), str(out)] + ["--quick"] * quick
            env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
            procs.append(subprocess.Popen(argv, env=env, cwd=out, stderr=subprocess.PIPE, text=True))
        for tree, proc in zip(trees, procs):
            _, stderr = proc.communicate()
            if proc.returncode:
                raise RuntimeError(f"the battery failed in {tree}:\n{stderr}")
        return [
            {str(p.relative_to(out)): p.read_text(encoding="utf-8")
             for p in sorted(out.rglob("*")) if p.is_file() and ".work" not in p.parts}
            for out in outs
        ]


def _relative_change(a: str, b: str) -> float:
    """The largest relative change between the numbers at the same places
    on two lines (1 where one is 0 and the other not, 0 where their counts
    differ)."""
    xs, ys = NUMBER.findall(a), NUMBER.findall(b)
    if len(xs) != len(ys):
        return 0.0
    worst = 0.0
    for x, y in zip(map(float, xs), map(float, ys)):
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def describe(base: str, head: str) -> str:
    """"identical", or where and how head differs from base."""
    if base == head:
        return "identical"
    a, b = base.splitlines(), head.splitlines()
    length = f"; {len(a)} lines became {len(b)}" if len(a) != len(b) else ""
    moved = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    if not moved:
        return f"differs{length}"
    i = moved[0]
    col = len(os.path.commonprefix([a[i], b[i]]))
    lo, hi = max(0, col - 30), col + 40
    change = max(_relative_change(a[j], b[j]) for j in moved)
    return (f"differs at line {i + 1}: {a[i][lo:hi]!r} became {b[i][lo:hi]!r}; {len(moved)} of "
            f"{len(a)} lines moved{length}; largest relative change {change:.3g}")


def compare(base: dict[str, str], head: dict[str, str]) -> list[str]:
    """One line per artefact of either side: its name and describe()."""
    lines = []
    for name in sorted(set(base) | set(head)):
        if name not in base or name not in head:
            lines.append(f"{name}: only in {'the base' if name in base else 'the working tree'}")
        else:
            lines.append(f"{name}: {describe(base[name], head[name])}")
    return lines


def export(rev: str, dest: Path) -> None:
    """The tree of git revision rev, unpacked into dest."""
    archive = subprocess.run(["git", "-C", str(HERE), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare the working tree against")
    parser.add_argument("--quick", action="store_true", help="the quick subset")
    parser.add_argument("--emit", nargs=2, metavar=("TREE", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(Path(args.emit[0]), Path(args.emit[1]), args.quick)
        return 0
    if not args.base:
        parser.error("--base is required")
    with tempfile.TemporaryDirectory(prefix="identity-base-") as base_tree:
        try:
            export(args.base, Path(base_tree))
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot export {args.base}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        base, head = battery([Path(base_tree), HERE], args.quick)
    lines = compare(base, head)
    print("\n".join(lines))
    return 0 if all(line.endswith(": identical") for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
