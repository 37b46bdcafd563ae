"""Noise sources, SNR-exact mixing and the benchmark scenario grid.

Mixing never renormalizes: the noise is scaled so the requested SNR holds
exactly over the whole signal, and any samples that land beyond full
scale are counted and logged but kept.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import read_wav
from .errors import EmptyBuffer, SampleRateMismatch, SilentNoise
from .sigproc import AudioBuffer

logger = logging.getLogger(__name__)

# The default corpus's 17 noise ids: the two-digit prefixes of its file
# names (01_white.wav .. 17_office.wav; README's "The noise lab" lists them).
DEFAULT_NOISE_IDS = tuple(range(1, 18))

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
        if not self.buffer.samples.any():
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
    return scenario_grid(DEFAULT_NOISE_IDS, DEFAULT_SNRS_DB)


# ---------------------------------------------------------------------------
# mixing and measurement
# ---------------------------------------------------------------------------


def extend_to_length(samples: np.ndarray, n: int) -> np.ndarray:
    """Loop (wrap around) or truncate a noise signal to exactly n samples.

    The result is a new array, filled in place: a broadcast copy of the
    n // size whole repeats, then the first n % size samples.
    """
    if samples.size == 0:
        raise SilentNoise("cannot extend an empty noise signal")
    out = np.empty(n, dtype=samples.dtype)
    whole, rest = divmod(n, samples.size)
    out[: n - rest].reshape(whole, samples.size)[...] = samples
    out[n - rest :] = samples[:rest]
    return out


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
    p_signal = _power(signal.samples)
    # the looped noise's buffer becomes the mix, and it is the one
    # full-length array held beside the signal: _power squares by pieces
    mixed = extend_to_length(noise.buffer.samples, len(signal))
    p_noise = _power(mixed)
    if p_noise == 0.0:
        raise SilentNoise("noise has zero power over the mixed extent")
    gain = math.sqrt(p_signal / (p_noise * 10.0 ** (snr_db / 10.0)))
    mixed *= gain
    mixed += signal.samples
    n_clipped = np.count_nonzero(mixed > 1.0) + np.count_nonzero(mixed < -1.0)
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
    return _snr_db(_power(s), _power(n))


def achieved_snr(signal: AudioBuffer, mixed: AudioBuffer) -> float:
    """measure_snr(signal, mixed.samples - signal.samples), bit for bit,
    without the full-length difference (_power)."""
    n = len(signal)
    if n == 0 or len(mixed) != n:
        raise ValueError(f"need a signal and a mix of one length > 0, got {n} and {len(mixed)}")
    return _snr_db(_power(signal.samples), _power(mixed.samples, signal.samples))


def _power(*xs: np.ndarray) -> float:
    """np.mean(x**2) of xs = (x,), or np.mean((x - y)**2) of xs = (x, y),
    bit for bit, holding no full-length square or difference (NaN when x
    is empty)."""
    return float(_square_sum(*(x.reshape(-1) for x in xs)) / xs[0].size)


def _square_sum(*xs: np.ndarray) -> np.float64:
    """The sum of x**2, or of (x - y)**2. numpy sums a whole array pairwise,
    halving it at a multiple of 8 down to blocks of 128; this function
    splits at the same points down to _CHUNK samples, which np.sum then
    sums, so the sum is np.sum's of the full-length square."""
    n = xs[0].size
    if n <= _CHUNK:
        d = xs[0] if len(xs) == 1 else xs[0] - xs[1]
        return np.sum(d * d)
    half = n // 2 - n // 2 % 8
    return _square_sum(*(x[:half] for x in xs)) + _square_sum(*(x[half:] for x in xs))


def _snr_db(p_signal: float, p_noise: float) -> float:
    """10 log10(p_signal / p_noise); -inf for a silent signal, and
    SilentNoise for a silent noise."""
    if p_noise == 0.0:
        raise SilentNoise("noise component has zero power")
    if p_signal == 0.0:
        return -math.inf
    return 10.0 * math.log10(p_signal / p_noise)


# ---------------------------------------------------------------------------
# synthetic noise
# ---------------------------------------------------------------------------


# Below this frequency the pink synthesizer's spectrum stays flat instead
# of continuing to rise; see synth_noise.
_PINK_KNEE_HZ = 20.0


# Samples per chunk where a noise is built piece by piece (hum50, and
# babble's envelopes), or a power summed (_power), so that the work
# arrays stay small beside the output.
_CHUNK = 1 << 14


def _chunks(n: int):
    """(start, stop) of consecutive _CHUNK-long pieces of range(n)."""
    return ((i, min(i + _CHUNK, n)) for i in range(0, n, _CHUNK))


def _peak_normalize(x: np.ndarray) -> None:
    """Scale x in place to a peak magnitude of 0.95, unless it is all zero."""
    top = max(x.max(), -x.min())
    if top > 0:
        x *= 0.95 / top


def synth_noise(kind: str, n_samples: int, sample_rate: int, seed: int) -> NoiseSource:
    """Deterministically synthesize one of the built-in noise kinds.

    kinds: "white" (uniform iid), "pink" (-3 dB per octave), "hum50"
    (50 Hz plus decaying odd harmonics) and "babble" (eight amplitude-
    modulated band-limited streams). The same arguments always produce
    the same samples. The source is named kind.
    Beside the output, pink holds one full-length work array at a time (the
    white noise or its spectrum), babble two (a stream and its spectrum),
    and white and hum50 none.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}; known: {SYNTH_KINDS}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)

    if kind == "white":
        samples = rng.uniform(-1.0, 1.0, n_samples)

    elif kind == "pink":
        spec = np.fft.rfft(rng.standard_normal(n_samples))
        # 1/f power above an audibility knee; flat below it. Recorded
        # noise has no infrasonic energy ramp, and an untamed 1/f shape
        # would put almost half the power below 20 Hz.
        scale = np.fft.rfftfreq(n_samples, 1.0 / sample_rate)
        np.maximum(scale, _PINK_KNEE_HZ, out=scale)
        np.sqrt(scale, out=scale)
        spec /= scale
        del scale
        spec[0] = 0.0
        samples = np.fft.irfft(spec, n=n_samples)
        del spec
        _peak_normalize(samples)

    elif kind == "hum50":
        phases = []
        harmonic = 1
        while harmonic * 50.0 < sample_rate / 2 and harmonic <= 31:
            phases.append((harmonic, rng.uniform(0.0, 2.0 * np.pi)))
            harmonic += 2
        samples = np.zeros(n_samples)
        for start, stop in _chunks(n_samples):
            t = np.arange(start, stop) / sample_rate
            wave = np.empty_like(t)
            for harmonic, phase in phases:
                # sin(2 pi 50 harmonic t + phase) / harmonic, built in place
                np.multiply(2.0 * np.pi * 50.0 * harmonic, t, out=wave)
                wave += phase
                np.sin(wave, out=wave)
                wave /= harmonic
                samples[start:stop] += wave
        _peak_normalize(samples)

    else:  # babble
        edges = np.geomspace(100.0, min(4000.0, sample_rate / 2 * 0.9), 9)
        # each band keeps the bins lo <= f <= hi of the ascending rfft grid
        freqs = np.fft.rfftfreq(n_samples, 1.0 / sample_rate)
        bands = zip(np.searchsorted(freqs, edges[:-1], "left"),
                    np.searchsorted(freqs, edges[1:], "right"))
        del freqs
        samples = np.zeros(n_samples)
        for keep_from, keep_to in bands:
            spec = np.fft.rfft(rng.standard_normal(n_samples))
            spec[:keep_from] = 0.0
            spec[keep_to:] = 0.0
            stream = np.fft.irfft(spec, n=n_samples)
            del spec
            rate = rng.uniform(2.0, 8.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            for start, stop in _chunks(n_samples):
                # envelope = 0.5 * (1 + sin(2 pi rate t + phase))
                envelope = np.arange(start, stop) / sample_rate
                envelope *= 2.0 * np.pi * rate
                envelope += phase
                np.sin(envelope, out=envelope)
                envelope += 1.0
                envelope *= 0.5
                envelope *= stream[start:stop]
                samples[start:stop] += envelope
            del stream
        _peak_normalize(samples)

    return NoiseSource(kind, AudioBuffer(samples, sample_rate))


# ---------------------------------------------------------------------------
# corpus loading
# ---------------------------------------------------------------------------

_CORPUS_NAME = re.compile(r"^(\d{2})_(.+)\.wav$")


@dataclass(frozen=True)
class NoiseRef:
    """A recipe for obtaining a noise source, cheap to pass to workers.

    Exactly one of path or synth_kind must be set. Synthetic noises are
    regenerated on demand from (kind, seed), SYNTH_NOISE_S long, so two
    resolves with the same recipe produce identical samples. A resolved
    source is named by its kind or its file's stem.
    """

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
            return NoiseSource(noise_id=Path(self.path).stem, buffer=read_wav(self.path))
        n = int(round(SYNTH_NOISE_S * sample_rate))
        return synth_noise(self.synth_kind, n, sample_rate, self.seed)


def synthetic_noise_refs(seed: int = 0) -> dict[str, NoiseRef]:
    """One synthetic NoiseRef per kind, keyed by kind name."""
    return {
        kind: NoiseRef(synth_kind=kind, seed=seed * 1009 + i)
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
        out[noise_id] = NoiseRef(path=str(entry))
    return out
