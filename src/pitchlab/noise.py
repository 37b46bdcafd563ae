"""Noise sources, SNR-exact mixing and the benchmark scenario grid.

Mixing never renormalizes: the noise is scaled so the requested SNR holds
exactly over the whole signal, and any samples that land beyond full
scale are counted and logged but kept.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .audio_io import read_wav
from .errors import EmptyBuffer, SampleRateMismatch, SilentNoise
from .sigproc import AudioBuffer

logger = logging.getLogger(__name__)

# Names for the default 17-source corpus, keyed by the two-digit prefix
# used in corpus filenames (01_white.wav .. 17_office.wav).
DEFAULT_NOISE_NAMES: dict[int, str] = {
    1: "white",
    2: "babble",
    3: "insect",
    4: "surf",
    5: "subway",
    6: "campus",
    7: "ventilation",
    8: "car",
    9: "train",
    10: "conservator",
    11: "exhibition",
    12: "gaussian",
    13: "wilderness",
    14: "restaurant",
    15: "airport",
    16: "street",
    17: "office",
}

DEFAULT_SNRS_DB = (-5.0, 0.0, 10.0, 20.0)

# SNRs that mixing accepts, in dB. Far outside this range the noise gain
# overflows or underflows, or the scaled noise drops below float64
# rounding of the signal; nothing meaningful is measured out there.
SNR_RANGE_DB = (-200.0, 200.0)

SYNTH_KINDS = ("white", "pink", "hum50", "babble")

# Seconds of noise that a synthetic NoiseRef resolves to.
SYNTH_NOISE_S = 10.0


@dataclass(frozen=True)
class NoiseSource:
    """A noise recording (or synthesized stand-in) with a stable id."""

    noise_id: int | str
    buffer: AudioBuffer

    def __post_init__(self):
        if len(self.buffer) == 0 or float(np.max(np.abs(self.buffer.samples))) == 0.0:
            raise SilentNoise(f"noise source {self.noise_id!r} has no energy")


@dataclass(frozen=True)
class Scenario:
    """One benchmark condition: which noise at which SNR."""

    noise_id: int | str
    snr_db: float


def scenario_grid(noise_ids, snrs_db) -> list[Scenario]:
    """Cartesian product of noises and SNRs, noise-major order."""
    return [Scenario(nid, float(snr)) for nid in noise_ids for snr in snrs_db]


def default_scenario_grid() -> list[Scenario]:
    """The full corpus grid: 17 noise sources times 4 SNR levels."""
    return scenario_grid(sorted(DEFAULT_NOISE_NAMES), DEFAULT_SNRS_DB)


# ---------------------------------------------------------------------------
# mixing and measurement
# ---------------------------------------------------------------------------


def extend_to_length(samples: np.ndarray, n: int) -> np.ndarray:
    """Loop (wrap around) or truncate a noise signal to exactly n samples."""
    if samples.size == 0:
        raise SilentNoise("cannot extend an empty noise signal")
    if samples.size >= n:
        return samples[:n].copy()
    reps = -(-n // samples.size)
    return np.tile(samples, reps)[:n]


def check_snr(snr_db: float) -> None:
    """Raise ValueError unless snr_db is finite and inside SNR_RANGE_DB."""
    lo, hi = SNR_RANGE_DB
    if not lo <= snr_db <= hi:  # NaN fails every comparison
        raise ValueError(f"SNR must be finite and in [{lo:g}, {hi:g}] dB, got {snr_db:g}")


def mix_at_snr(signal: AudioBuffer, noise: NoiseSource, snr_db: float) -> AudioBuffer:
    """Add noise to a signal at an exact overall SNR.

    The noise is looped or truncated to the signal length, then scaled by
    g = sqrt(P_signal / (P_noise * 10^(snr/10))) with powers measured
    over the full extent. The sum is returned as-is; samples beyond full
    scale are logged, not renormalized. snr_db must pass check_snr, and a
    signal without samples raises EmptyBuffer.
    """
    check_snr(snr_db)
    if len(signal) == 0:
        raise EmptyBuffer("the signal holds no samples")
    if noise.buffer.sample_rate != signal.sample_rate:
        raise SampleRateMismatch(
            f"noise rate {noise.buffer.sample_rate} != signal rate {signal.sample_rate}"
        )
    extended = extend_to_length(noise.buffer.samples, len(signal))
    p_signal = float(np.mean(signal.samples**2))
    p_noise = float(np.mean(extended**2))
    if p_noise == 0.0:
        raise SilentNoise("noise has zero power over the mixed extent")
    gain = math.sqrt(p_signal / (p_noise * 10.0 ** (snr_db / 10.0)))
    mixed = signal.samples + gain * extended
    n_clipped = int(np.count_nonzero(np.abs(mixed) > 1.0))
    if n_clipped:
        logger.info("mix at %+g dB SNR: %d samples beyond full scale", snr_db, n_clipped)
    return AudioBuffer(mixed, signal.sample_rate)


def measure_snr(signal, noise_component) -> float:
    """10 log10(P_signal / P_noise): signal is an AudioBuffer or a sample
    array, noise_component a sample array of the same length."""
    s = signal.samples if isinstance(signal, AudioBuffer) else np.asarray(signal, dtype=np.float64)
    n = np.asarray(noise_component, dtype=np.float64)
    if s.size != n.size:
        raise ValueError(f"signal and noise lengths differ ({s.size} vs {n.size})")
    p_noise = float(np.mean(n**2))
    if p_noise == 0.0:
        raise SilentNoise("noise component has zero power")
    p_signal = float(np.mean(s**2))
    if p_signal == 0.0:
        return -math.inf
    return 10.0 * math.log10(p_signal / p_noise)


# ---------------------------------------------------------------------------
# synthetic noise
# ---------------------------------------------------------------------------


# Below this frequency the pink synthesizer's spectrum stays flat instead
# of continuing to rise; see synth_noise.
_PINK_KNEE_HZ = 20.0


def _peak_normalize(x: np.ndarray) -> np.ndarray:
    top = float(np.max(np.abs(x)))
    return x * (0.95 / top) if top > 0 else x


def synth_noise(kind: str, n_samples: int, sample_rate: int, seed: int) -> NoiseSource:
    """Deterministically synthesize one of the built-in noise kinds.

    kinds: "white" (uniform iid), "pink" (-3 dB per octave), "hum50"
    (50 Hz plus decaying odd harmonics) and "babble" (eight amplitude-
    modulated band-limited streams). The same arguments always produce
    the same samples.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}; known: {SYNTH_KINDS}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)

    if kind == "white":
        samples = rng.uniform(-1.0, 1.0, n_samples)

    elif kind == "pink":
        white = rng.standard_normal(n_samples)
        spec = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(n_samples, 1.0 / sample_rate)
        # 1/f power above an audibility knee; flat below it. Recorded
        # noise has no infrasonic energy ramp, and an untamed 1/f shape
        # would put almost half the power below 20 Hz.
        spec /= np.sqrt(np.maximum(freqs, _PINK_KNEE_HZ))
        spec[0] = 0.0
        samples = _peak_normalize(np.fft.irfft(spec, n=n_samples))

    elif kind == "hum50":
        t = np.arange(n_samples) / sample_rate
        samples = np.zeros(n_samples)
        harmonic = 1
        while harmonic * 50.0 < sample_rate / 2 and harmonic <= 31:
            phase = rng.uniform(0.0, 2.0 * np.pi)
            samples += np.sin(2.0 * np.pi * 50.0 * harmonic * t + phase) / harmonic
            harmonic += 2
        samples = _peak_normalize(samples)

    else:  # babble
        edges = np.geomspace(100.0, min(4000.0, sample_rate / 2 * 0.9), 9)
        t = np.arange(n_samples) / sample_rate
        freqs = np.fft.rfftfreq(n_samples, 1.0 / sample_rate)
        total = np.zeros(n_samples)
        envelope = np.empty(n_samples)
        for lo, hi in zip(edges[:-1], edges[1:]):
            spec = np.fft.rfft(rng.standard_normal(n_samples))
            spec[(freqs < lo) | (freqs > hi)] = 0.0
            stream = np.fft.irfft(spec, n=n_samples)
            rate = rng.uniform(2.0, 8.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            # envelope = 0.5 * (1 + sin(2 pi rate t + phase)), built in place
            np.multiply(2.0 * np.pi * rate, t, out=envelope)
            envelope += phase
            np.sin(envelope, out=envelope)
            envelope += 1.0
            envelope *= 0.5
            stream *= envelope
            total += stream
        samples = _peak_normalize(total)

    return NoiseSource(noise_id=kind, buffer=AudioBuffer(samples, sample_rate))


# ---------------------------------------------------------------------------
# corpus loading
# ---------------------------------------------------------------------------

_CORPUS_NAME = re.compile(r"^(\d{2})_(.+)\.wav$")


@dataclass(frozen=True)
class NoiseRef:
    """A recipe for obtaining a noise source, cheap to pass to workers.

    Exactly one of path or synth_kind must be set. Synthetic noises are
    regenerated on demand from (kind, seed), SYNTH_NOISE_S long, so two
    resolves with the same recipe produce identical samples.
    """

    noise_id: object
    path: str | None = None
    synth_kind: str | None = None
    seed: int = 0

    def __post_init__(self):
        if (self.path is None) == (self.synth_kind is None):
            raise ValueError("set exactly one of path or synth_kind")
        if self.synth_kind is not None and self.synth_kind not in SYNTH_KINDS:
            raise ValueError(f"unknown synthetic noise kind {self.synth_kind!r}")

    def resolve(self, sample_rate: int) -> NoiseSource:
        if self.path is not None:
            return NoiseSource(noise_id=self.noise_id, buffer=read_wav(self.path))
        n = int(round(SYNTH_NOISE_S * sample_rate))
        source = synth_noise(self.synth_kind, n, sample_rate, self.seed)
        return replace(source, noise_id=self.noise_id)


def synthetic_noise_refs(seed: int = 0) -> dict[str, NoiseRef]:
    """One synthetic NoiseRef per kind, keyed by kind name."""
    return {
        kind: NoiseRef(noise_id=kind, synth_kind=kind, seed=seed * 1009 + i)
        for i, kind in enumerate(SYNTH_KINDS)
    }


def refs_from_dir(path) -> dict[int, NoiseRef]:
    """NoiseRefs for a corpus directory of NN_name.wav files, keyed by NN.

    Raises ValueError naming both files when two share an NN.
    """
    out: dict[int, NoiseRef] = {}
    for entry in sorted(Path(path).iterdir()):
        m = _CORPUS_NAME.match(entry.name)
        if not m:
            continue
        noise_id = int(m.group(1))
        if noise_id in out:
            raise ValueError(f"noise id {m.group(1)} names both {out[noise_id].path} and {entry}")
        out[noise_id] = NoiseRef(noise_id=noise_id, path=str(entry))
    return out
