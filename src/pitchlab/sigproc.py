"""Core signal types and frame-level transforms.

Audio is handled as mono float64 throughout. Frames are windowed at
extraction time so downstream transforms never re-window; the window
choice is recorded on the frame itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyBuffer, LagOutOfRange, NonPowerOfTwo

WINDOW_KINDS = ("rectangular", "hann")

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
    """One analysis frame, already windowed.

    start_index is the offset of the frame's first sample in the source
    signal. window_kind records which window was applied at extraction.
    """

    samples: np.ndarray
    start_index: int
    window_kind: str
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_float_vector(self.samples))
        if self.window_kind not in WINDOW_KINDS:
            raise ValueError(f"unknown window kind {self.window_kind!r}")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def rms(self) -> float:
        if self.samples.size == 0:
            return 0.0
        return float(np.sqrt(np.mean(self.samples**2)))


def _check_magnitudes(mags: np.ndarray) -> None:
    """Raise ValueError unless every magnitude is finite and non-negative."""
    # min and max propagate NaN, so two reductions catch every bad value
    if mags.size and not (mags.min() >= 0 and mags.max() < np.inf):
        raise ValueError("magnitudes must be finite and non-negative")


# Spectrum and Spectrogram stay per frame while perfbench's tracer counts them.
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
class Spectrogram:
    """A run of equally spaced spectra from one signal."""

    spectra: tuple[Spectrum, ...]
    hop: int

    def __post_init__(self):
        object.__setattr__(self, "spectra", tuple(self.spectra))
        if not self.spectra:
            raise ValueError("a spectrogram needs at least one spectrum")
        if self.hop < 1:
            raise ValueError("hop must be >= 1")
        first = self.spectra[0]
        for s in self.spectra[1:]:
            if len(s) != len(first) or s.bin_hz != first.bin_hz:
                raise ValueError("all spectra must share length and bin spacing")

    @property
    def bin_hz(self) -> float:
        return self.spectra[0].bin_hz

    def summed_magnitudes(self) -> np.ndarray:
        """Per-bin magnitude totals across all frames."""
        return np.sum([s.magnitudes for s in self.spectra], axis=0)


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


# NoteAnalysis stacks these frames again; kept while perfbench's tracer patches it.
def frame_signal(
    buffer: AudioBuffer,
    frame_len: int,
    hop: int,
    window_kind: str = "rectangular",
) -> list[Frame]:
    """Split a buffer into windowed frames.

    Parameters
    ----------
    buffer : AudioBuffer
        Non-empty input signal.
    frame_len : int
        Samples per frame.
    hop : int
        Step between frame starts, at least 1.
    window_kind : str
        "rectangular" or "hann" (periodic).

    Returns
    -------
    list of Frame
        floor((len - frame_len) / hop) + 1 frames. A signal shorter than
        frame_len yields exactly one zero-padded frame.
    """
    if len(buffer) == 0:
        raise EmptyBuffer("cannot frame an empty buffer")
    if frame_len < 1:
        raise ValueError("frame_len must be >= 1")
    if hop < 1:
        raise ValueError("hop must be >= 1")
    if window_kind not in WINDOW_KINDS:
        raise ValueError(f"unknown window kind {window_kind!r}")

    x = buffer.samples
    if x.size < frame_len:
        padded = np.zeros(frame_len, dtype=np.float64)
        padded[: x.size] = x
        starts = [0]
        chunks = [padded]
    else:
        n_frames = (x.size - frame_len) // hop + 1
        starts = [i * hop for i in range(n_frames)]
        chunks = [x[s : s + frame_len] for s in starts]

    window = hann_window(frame_len) if window_kind == "hann" else None
    frames = []
    for start, chunk in zip(starts, chunks):
        samples = chunk * window if window is not None else chunk.copy()
        frames.append(
            Frame(
                samples=samples,
                start_index=start,
                window_kind=window_kind,
                sample_rate=buffer.sample_rate,
            )
        )
    return frames


# ---------------------------------------------------------------------------
# spectral and correlation transforms
# ---------------------------------------------------------------------------


def magnitude_spectra(frames: np.ndarray) -> np.ndarray:
    """Un-normalized magnitude spectra of the frames along the last axis.

    The frame length must be a power of two no smaller than 64. Magnitudes
    are |DFT| for bins 0..N/2, so a full-scale on-bin cosine peaks at N/2.
    """
    n = frames.shape[-1]
    if n < 64 or n & (n - 1):
        raise NonPowerOfTwo(f"frame length {n} is not a power of two >= 64")
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
