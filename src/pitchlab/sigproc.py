"""Core signal types, framing and the spectral and lag transforms.

Audio is handled as mono float64 throughout. Every frame matrix is a
read-only view cut by _frames, whose rows the spectral transforms take whole
along the last axis. The autocorrelation instead transforms each hop-long
block of the frames once, so a frame must be whole hops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyBuffer, LagOutOfRange

# Frames quieter than this RMS are treated as silence by the estimators.
SILENCE_RMS = 1e-5


def _as_float_vector(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D sample array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class AudioBuffer:
    """A mono audio signal with its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_float_vector(self.samples))
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "sample_rate", int(self.sample_rate))
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("audio samples must be finite")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    def slice_seconds(self, start: float, stop: float) -> "AudioBuffer":
        """A view of the samples between two time points, as a buffer; the start is
        clamped to [0, n] samples and the stop to [start, n], as floats, inf and NaN too."""
        start = min(max(0.0, start * self.sample_rate), self.samples.size)
        stop = min(max(start, stop * self.sample_rate), self.samples.size)
        return AudioBuffer(self.samples[int(round(start)) : int(round(stop))], self.sample_rate)


def _check_magnitudes(mags: np.ndarray) -> None:
    """Raise ValueError unless every magnitude is finite and non-negative."""
    # min and max propagate NaN, so two reductions catch every bad value
    if mags.size and not (mags.min() >= 0 and mags.max() < np.inf):
        raise ValueError("magnitudes must be finite and non-negative")


# Spectrum stays per frame while perfbench's tracer counts them.
@dataclass(frozen=True)
class Spectrum:
    """Magnitude spectrum of a single frame (bins 0..N/2, un-normalized)."""

    magnitudes: np.ndarray
    bin_hz: float

    def __post_init__(self):
        object.__setattr__(self, "magnitudes", _as_float_vector(self.magnitudes))
        if self.bin_hz <= 0:
            raise ValueError("bin_hz must be positive")
        _check_magnitudes(self.magnitudes)

    def __len__(self) -> int:
        return self.magnitudes.size


@dataclass(frozen=True)
class CorrelationFunction:
    """Raw autocorrelation values r(tau) of one frame, tau = 0..max_lag."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_float_vector(self.values))
        if not np.all(np.isfinite(self.values)):
            raise ValueError("correlation values must be finite")


# ---------------------------------------------------------------------------
# windows and framing
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window, w[k] = 0.5 * (1 - cos(2 pi k / n)).

    Computed on the first call for each n and kept for the process, so the
    array is read-only.
    """
    k = np.arange(n, dtype=np.float64)
    w = 0.5 * (1.0 - np.cos(2.0 * np.pi * k / n))
    w.flags.writeable = False
    return w


def _frames(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """The one framing rule: x's frames, the rows of a read-only view, frame
    k being x[k hop : k hop + frame_len] for k = 0..(len - frame_len) // hop.
    An x shorter than a frame is zero-padded to one frame."""
    if x.size < frame_len:
        x = np.pad(x, (0, frame_len - x.size))
    return sliding_window_view(x, frame_len)[::hop]


def frame_signal(buffer: AudioBuffer, frame_len: int, hop: int) -> np.ndarray:
    """The buffer's frames (_frames), a read-only view of its samples."""
    if len(buffer) == 0:
        raise EmptyBuffer("cannot frame an empty buffer")
    if frame_len < 1:
        raise ValueError("frame_len must be >= 1")
    if hop < 1:
        raise ValueError("hop must be >= 1")
    return _frames(buffer.samples, frame_len, hop)


# ---------------------------------------------------------------------------
# spectral and correlation transforms
# ---------------------------------------------------------------------------


def magnitude_spectra(frames: np.ndarray) -> np.ndarray:
    """Un-normalized magnitude spectra of the frames along the last axis.

    Magnitudes are |DFT| for bins 0..N/2, so a full-scale on-bin cosine
    peaks at N/2.
    """
    return np.abs(np.fft.rfft(frames, axis=-1))


def magnitude_spectrum(frame: AudioBuffer) -> Spectrum:
    """Magnitude spectrum of one frame (see magnitude_spectra).

    No estimator calls it; it stays because perfbench's tracer patches it.
    """
    return Spectrum(magnitude_spectra(frame.samples), bin_hz=frame.sample_rate / len(frame))


def block_autocorr(samples, frame_len: int, hop: int, max_lag: int) -> np.ndarray:
    """r(tau) = sum_t x(t) x(t+tau) of each frame (_frames), tau = 0..max_lag.

    A frame is B whole blocks of hop samples, each rFFT'd once at 2 hop
    points (sectioned correlation, Stockham 1966). Blocks d < k = max_lag //
    hop + 1 apart give lags (d-1) hop + 1 .. (d+1) hop - 1 by their
    cross-spectra, summed over each frame's B - d pairs and inverted; blocks
    k apart, by direct products.
    """
    if max_lag < 0 or max_lag >= frame_len:
        raise LagOutOfRange(
            f"max_lag {max_lag} outside [0, {frame_len - 1}] for frame of length {frame_len}"
        )
    if hop < 1 or frame_len % hop:
        raise ValueError(f"frame length {frame_len} is not a whole number of hops of {hop}")
    frames = _frames(samples, frame_len, hop)
    n_frames, per_frame, k = len(frames), frame_len // hop, max_lag // hop + 1
    # each frame's first block, then the last frame's later ones
    blocks = np.concatenate([frames[:, :hop], frames[-1, hop:].reshape(-1, hop)])
    spec = np.fft.rfft(blocks, n=2 * hop, axis=1)
    cross = np.empty((k, n_frames, hop + 1), dtype=np.complex128)
    for d in range(k):
        pairs = np.conj(spec[: len(spec) - d]) * spec[d:]
        cross[d] = pairs[:n_frames]
        for i in range(1, per_frame - d):
            cross[d] += pairs[i : i + n_frames]
    # c[f, d, u] is lag d hop + u for u < hop, and lag d hop + u - 2 hop for u > hop
    c = np.fft.irfft(cross, n=2 * hop, axis=2).transpose(1, 0, 2)
    r = c[:, :, :hop].copy()
    r[:, :-1, 1:] += c[:, 1:, hop + 1 :]
    for w in range(1, max_lag % hop + 1 if k < per_frame else 1):
        ends = (blocks[: len(blocks) - k, hop - w :] * blocks[k:, :w]).sum(axis=1)
        for i in range(per_frame - k):
            r[:, -1, w] += ends[i : i + n_frames]
    return r.reshape(n_frames, k * hop)[:, : max_lag + 1]


def overlap_energy_matrix(frames: np.ndarray, max_lag: int) -> np.ndarray:
    """m(tau) = sum_t (x(t)^2 + x(t+tau)^2) over each row's overlapping region."""
    n = frames.shape[1]
    if max_lag < 0 or max_lag >= n:
        raise LagOutOfRange(f"max_lag {max_lag} outside [0, {n - 1}] for frames of length {n}")
    c = frames * frames
    np.cumsum(c, axis=1, out=c)
    # m(tau) = c[n - 1 - tau] + (c[n - 1] - c[tau - 1]), with c[-1] read as 0
    m = np.empty((c.shape[0], max_lag + 1))
    m[:, 0] = c[:, -1]
    np.subtract(c[:, -1:], c[:, :max_lag], out=m[:, 1:])
    m += c[:, n - 1 - max_lag :][:, ::-1]
    return m


def nsdf_matrix(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Normalized square difference n(tau) = 2 r(tau) / m(tau), row by row.

    Values lie in [-1, 1]; lags with an all-zero overlap are reported as 0.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        n = np.where(m > 0, 2.0 * r / m, 0.0)
    # FFT round-off can leave |n| a hair above 1 on degenerate overlaps.
    np.clip(n, -1.0, 1.0, out=n)
    return n


def cmnd_matrix(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Cumulative-mean normalized difference d'(tau) with d'(0) = 1, row by row.

    d(tau) = m(tau) - 2 r(tau) is the squared difference function; each
    later value is d(tau) divided by the running mean of d(1..tau).
    """
    d = np.clip(m - 2.0 * r, 0.0, None)
    out = np.ones_like(d)
    running = np.cumsum(d[:, 1:], axis=1)
    taus = np.arange(1, d.shape[1], dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        out[:, 1:] = np.where(running > 0, d[:, 1:] * taus / running, 1.0)
    return out


def autocorrelation(frame: AudioBuffer, max_lag: int) -> CorrelationFunction:
    """Raw autocorrelation r(tau) = sum_t x(t) x(t+tau), tau = 0..max_lag.

    block_autocorr's one-frame case (hop = frame length). Acceptance 6 checks
    it against a quadratic-time sum, which is why this entry point remains.
    """
    n = len(frame)
    return CorrelationFunction(block_autocorr(frame.samples, n, n, max_lag)[0])
