"""Held-out quality check: pooled pitch error and gross share per method.

    python3 tools/quality.py --set A

Builds one fixed set of synthetic songs from pitchlab's own generators,
scores every registered method and the ensemble on each song clean and
under each synthetic noise at each default SNR, and prints one JSON line.

Sets (first song seed, song count, noise seed):
    A   1000, 5, 77   the acceptance-2 songs, kept in memory
    H1  6000, 4, 11
    H2  7000, 6, 23

Errors are pitch_error, E[sqrt|f - f0|], over a pool's notes, an unvoiced
note scored as 0 Hz (bench averages per song first, so its figures differ
a little). A note is gross when it is unvoiced or |f - f0| / f0 exceeds a
quarter tone, 2^(1/24) - 1. Per method the line gives the clean and the
noisy pool, and the noisy pool of each noise kind. The script times
nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pitchlab import REGISTRY  # noqa: E402
from pitchlab.evaluation import (  # noqa: E402
    ENSEMBLE_METHOD,
    estimate_song,
    pitch_error,
    synth_song,
)
from pitchlab.noise import DEFAULT_SNRS_DB, mix_at_snr, synthetic_noise_refs  # noqa: E402

SETS = {"A": (1000, 5, 77), "H1": (6000, 4, 11), "H2": (7000, 6, 23)}
METHODS = (*REGISTRY, ENSEMBLE_METHOD)
QUARTER_TONE = 2.0 ** (1.0 / 24.0) - 1.0


def summary(pairs) -> dict:
    """A pool's pitch_error and the share of its notes that are gross, over
    its (f0, reference f0) pairs."""
    f0s, truths = zip(*pairs)
    gross = sum(f is None or abs(f - f0) / f0 > QUARTER_TONE for f, f0 in pairs)
    return {"error": round(pitch_error(f0s, truths), 6), "gross": round(gross / len(pairs), 6)}


def evaluate(first_seed: int, n_songs: int, refs) -> dict:
    """Per-method pools of (f0, reference f0) pairs over songs first_seed..
    and the noise refs by kind."""
    pools = {m: {k: [] for k in ("clean", "noisy", *refs)} for m in METHODS}
    wanted = dict.fromkeys(METHODS)
    for seed in range(first_seed, first_seed + n_songs):
        buffer, notes = synth_song(seed)
        truths = [n.f0_truth for n in notes]
        for method, f0s in estimate_song(buffer, notes, wanted).items():
            pools[method]["clean"] += zip(f0s, truths)
        for kind, ref in refs.items():
            noise = ref.resolve(buffer.sample_rate)
            for snr_db in DEFAULT_SNRS_DB:
                mixed = mix_at_snr(buffer, noise, snr_db)
                for method, f0s in estimate_song(mixed, notes, wanted).items():
                    pools[method]["noisy"] += zip(f0s, truths)
                    pools[method][kind] += zip(f0s, truths)
    return {
        method: {key: summary(pool) for key, pool in by_key.items()}
        for method, by_key in pools.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--set", required=True, choices=sorted(SETS), dest="name")
    args = parser.parse_args(argv)
    first_seed, n_songs, noise_seed = SETS[args.name]
    methods = evaluate(first_seed, n_songs, synthetic_noise_refs(noise_seed))
    print(json.dumps({"set": args.name, "methods": methods}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
