"""Core signal types, framing and the spectral and lag transforms.

Audio is handled as mono float64 throughout. A note's frames are the rows
of one (n_frames x frame_len) matrix, and the transforms work on whole
matrices along their last axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyBuffer, LagOutOfRange, NonPowerOfTwo

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
        """Return the samples between two time points as a new buffer."""
        i = max(0, int(round(start * self.sample_rate)))
        j = min(self.samples.size, int(round(stop * self.sample_rate)))
        return AudioBuffer(self.samples[i:j].copy(), self.sample_rate)


@dataclass(frozen=True)
class Frame:
    """One frame's samples with their sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __len__(self) -> int:
        return self.samples.size


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


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window, w[k] = 0.5 * (1 - cos(2 pi k / n))."""
    k = np.arange(n, dtype=np.float64)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / n))


def frame_signal(buffer: AudioBuffer, frame_len: int, hop: int) -> np.ndarray:
    """The buffer's frames as the rows of one (n_frames x frame_len) matrix.

    There are floor((len - frame_len) / hop) + 1 frames, each a copy of
    frame_len samples starting hop after the last. A buffer shorter than
    frame_len yields exactly one zero-padded frame.
    """
    if len(buffer) == 0:
        raise EmptyBuffer("cannot frame an empty buffer")
    if frame_len < 1:
        raise ValueError("frame_len must be >= 1")
    if hop < 1:
        raise ValueError("hop must be >= 1")
    x = buffer.samples
    if x.size < frame_len:
        frames = np.zeros((1, frame_len), dtype=np.float64)
        frames[0, : x.size] = x
        return frames
    return sliding_window_view(x, frame_len)[::hop].copy()


# ---------------------------------------------------------------------------
# spectral and correlation transforms
# ---------------------------------------------------------------------------


def _check_fft_length(n: int) -> None:
    """Raise NonPowerOfTwo unless n is a power of two no smaller than 64."""
    if n < 64 or n & (n - 1):
        raise NonPowerOfTwo(f"frame length {n} is not a power of two >= 64")


def magnitude_spectra(frames: np.ndarray) -> np.ndarray:
    """Un-normalized magnitude spectra of the frames along the last axis.

    The frame length must be a power of two no smaller than 64. Magnitudes
    are |DFT| for bins 0..N/2, so a full-scale on-bin cosine peaks at N/2.
    """
    _check_fft_length(frames.shape[-1])
    return np.abs(np.fft.rfft(frames, axis=-1))


def magnitude_spectrum(frame: Frame) -> Spectrum:
    """Magnitude spectrum of one frame (see magnitude_spectra).

    No estimator calls it; it stays because perfbench's tracer patches it.
    """
    return Spectrum(magnitude_spectra(frame.samples), bin_hz=frame.sample_rate / len(frame))


def autocorr_matrix(frames: np.ndarray, max_lag: int) -> np.ndarray:
    """r(tau) = sum_t x(t) x(t+tau) of each row, tau = 0..max_lag.

    One rFFT over all rows, zero-padded to a power of two of at least twice
    the frame length so that no lag wraps around.
    """
    size = 1 << (2 * frames.shape[1] - 1).bit_length()
    spec = np.fft.rfft(frames, n=size, axis=1)
    return np.fft.irfft(spec * np.conj(spec), n=size, axis=1)[:, : max_lag + 1]


def overlap_energy_matrix(frames: np.ndarray, max_lag: int) -> np.ndarray:
    """m(tau) = sum_t (x(t)^2 + x(t+tau)^2) over each row's overlapping region."""
    c = np.cumsum(frames * frames, axis=1)
    n = frames.shape[1]
    taus = np.arange(max_lag + 1)
    head = c[:, n - 1 - taus]
    tail = c[:, -1:] - np.concatenate([np.zeros((c.shape[0], 1)), c[:, :max_lag]], axis=1)
    return head + tail


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


def autocorrelation(frame: Frame, max_lag: int) -> CorrelationFunction:
    """Raw autocorrelation r(tau) = sum_t x(t) x(t+tau), tau = 0..max_lag.

    One row of autocorr_matrix. Acceptance 6 checks it against a
    quadratic-time sum, which is why a one-frame entry point remains.
    """
    if max_lag < 0 or max_lag >= len(frame):
        raise LagOutOfRange(
            f"max_lag {max_lag} outside [0, {len(frame) - 1}] for frame of length {len(frame)}"
        )
    return CorrelationFunction(autocorr_matrix(frame.samples[None], max_lag)[0])
