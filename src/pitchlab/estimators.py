"""Fundamental-frequency estimators.

Eight methods share one note-level contract: estimate f0 on each analysis
frame of the note, drop silent/unvoiced frames, and report the median of
the surviving frame estimates (the energy-summation method works on the
whole note directly). Frequency-domain methods window with a periodic
Hann and zero-pad frames to a long FFT for a fine candidate grid;
time-domain methods work on rectangular frames.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigOutOfRange, LpcUnstable
from .sigproc import (
    SILENCE_RMS,
    AudioBuffer,
    Frame,
    Spectrogram,
    Spectrum,
    cmnd_function,
    frame_signal,
    hann_window,
    magnitude_spectra,
    magnitude_spectrum,
    nsdf_function,
    _check_magnitudes,
    _overlap_energy,
    _raw_autocorr,
)

FRAME_LEN = 2048
HOP = 512
# Frames are zero-padded to this FFT length by the frequency-domain
# estimators; at 44.1 kHz the grid step is ~2.7 Hz, fine enough that bin
# quantization stays well inside a quarter tone down to 100 Hz.
N_FFT = 16384

LPC_ORDER = 12
YIN_THRESHOLD = 0.15
NSDF_PEAK_FRACTION = 0.8
_CEPSTRUM_FLOOR = 1e-10


@dataclass(frozen=True)
class EstimatorConfig:
    """Search range and harmonic count for one estimator."""

    f_min: float
    f_max: float
    n_harmonics: int = 1

    def __post_init__(self):
        if not 0 <= self.f_min < self.f_max:
            raise ValueError(f"need 0 <= f_min < f_max, got [{self.f_min}, {self.f_max}]")
        if self.n_harmonics < 1:
            raise ValueError("n_harmonics must be >= 1")


@dataclass(frozen=True)
class PitchEstimate:
    """One note-level (or frame-level) pitch decision.

    f0 is None when the estimator declares the input unvoiced. per_frame,
    when present, holds the raw frame-level estimates behind a note-level
    median (None entries mark unvoiced frames).
    """

    f0: float | None
    method_id: str
    per_frame: tuple[float | None, ...] | None = None

    def __post_init__(self):
        if self.f0 is not None and not (math.isfinite(self.f0) and self.f0 > 0):
            raise ValueError(f"voiced f0 must be positive and finite, got {self.f0}")

    @property
    def voiced(self) -> bool:
        return self.f0 is not None


@dataclass(frozen=True)
class CandidateGrid:
    """Ascending candidate frequencies, one per spectral bin or lag."""

    frequencies: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=np.float64)
        object.__setattr__(self, "frequencies", freqs)
        if freqs.size == 0:
            raise ValueError("a candidate grid cannot be empty")
        if np.any(freqs <= 0) or np.any(np.diff(freqs) <= 0):
            raise ValueError("candidates must be positive and strictly increasing")

    def __len__(self) -> int:
        return self.frequencies.size


# Lowest f0 the spectral comb methods search by default. Below it a 46 ms
# frame cannot tell a melody comb from a 50 Hz hum line or a 1/f noise
# ramp: in hum or pink noise, combs allowed to start lower all lock onto
# that same low-frequency energy, and their agreeing wrong votes outvote
# the right one in the ensemble median. Melodies sit above it (MIDI 45,
# 110 Hz, and up); a bass line needs a per-method f_min override.
MELODY_F_MIN = 80.0

# Default search ranges. The comb methods (hps, stft, ml) and the
# residual-harmonics method share the melody floor; hps has no top of its
# own (it is capped by the harmonic count at use time), and srh keeps a
# narrow band because its comb, evaluated on a whitened spectrum, wanders
# outside typical voice/melody ranges.
DEFAULT_CONFIGS: dict[str, EstimatorConfig] = {
    "acf": EstimatorConfig(20.0, 1000.0),
    "nsdf": EstimatorConfig(20.0, 1000.0),
    "yin": EstimatorConfig(20.0, 1000.0),
    "hps": EstimatorConfig(MELODY_F_MIN, math.inf, 3),
    "stft": EstimatorConfig(MELODY_F_MIN, 1000.0, 4),
    "ml": EstimatorConfig(MELODY_F_MIN, 800.0, 5),
    "cepstrum": EstimatorConfig(20.0, 1000.0),
    "srh": EstimatorConfig(MELODY_F_MIN, 500.0, 5),
}


def default_config(method: str) -> EstimatorConfig:
    try:
        return DEFAULT_CONFIGS[method]
    except KeyError:
        raise KeyError(f"unknown estimator {method!r}; known: {sorted(DEFAULT_CONFIGS)}")


def parse_config_overrides(raw, source) -> dict[str, EstimatorConfig]:
    """Validated configs from a {method: {f_min, f_max, n_harmonics}} mapping.

    Each override is partial: unspecified fields keep the method's
    default. Anything malformed raises ValueError naming the source.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"{source}: expected a JSON object of method overrides")
    configs = {}
    for name, fields in raw.items():
        if name not in DEFAULT_CONFIGS:
            raise ValueError(f"{source}: unknown estimator {name!r}")
        if not isinstance(fields, dict):
            raise ValueError(f"{source}: override for {name!r} must be an object")
        unknown = set(fields) - {"f_min", "f_max", "n_harmonics"}
        if unknown:
            raise ValueError(f"{source}: unknown fields {sorted(unknown)} for {name!r}")
        base = DEFAULT_CONFIGS[name]
        try:
            configs[name] = EstimatorConfig(
                f_min=float(fields.get("f_min", base.f_min)),
                f_max=float(fields.get("f_max", base.f_max)),
                n_harmonics=int(fields.get("n_harmonics", base.n_harmonics)),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{source}: bad override for {name!r}: {exc}") from None
    return configs


def load_estimator_configs(path) -> dict[str, EstimatorConfig]:
    """Read per-method config overrides from a JSON file over the defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return {**DEFAULT_CONFIGS, **parse_config_overrides(raw, path)}


# ---------------------------------------------------------------------------
# shared picking helpers
# ---------------------------------------------------------------------------


def _argmax_last(values: np.ndarray) -> int:
    return values.size - 1 - int(np.argmax(values[::-1]))


def _argmin_last(values: np.ndarray) -> int:
    return values.size - 1 - int(np.argmin(values[::-1]))


def _parabolic_offset(y_minus: float, y_center: float, y_plus: float) -> float:
    """Vertex offset in [-1, 1] of the parabola through three samples."""
    denom = y_minus - 2.0 * y_center + y_plus
    if denom == 0.0 or not math.isfinite(denom):
        return 0.0
    offset = 0.5 * (y_minus - y_plus) / denom
    return offset if abs(offset) <= 1.0 else 0.0


def _clamp(f0: float, cfg: EstimatorConfig) -> float:
    return float(min(max(f0, cfg.f_min), cfg.f_max))


def _spectral_band(
    n_bins: int, bin_hz: float, cfg: EstimatorConfig, harmonic_cap: int = 1
) -> np.ndarray:
    """Candidate bin indices for spectra of n_bins bins under a config.

    harmonic_cap > 1 keeps every candidate's highest harmonic inside the
    spectrum (needed when all terms of a product must exist).
    """
    top_bin = n_bins - 1
    nyquist = bin_hz * top_bin
    if cfg.f_min >= nyquist:
        raise ConfigOutOfRange(
            f"f_min {cfg.f_min} Hz is at or above the Nyquist frequency {nyquist} Hz"
        )
    b_lo = max(1, math.ceil(cfg.f_min / bin_hz))
    b_hi = min(math.floor(min(cfg.f_max, nyquist) / bin_hz), top_bin // harmonic_cap)
    if b_lo > b_hi:
        raise ConfigOutOfRange(
            f"no spectral candidates in [{cfg.f_min}, {cfg.f_max}] Hz at bin width "
            f"{bin_hz:.4f} Hz"
        )
    return np.arange(b_lo, b_hi + 1)


def _lag_window(sample_rate: int, frame_len: int, cfg: EstimatorConfig) -> tuple[int, int]:
    """Inclusive lag bounds for a config; long lags stop at half the frame."""
    f_max_eff = min(cfg.f_max, sample_rate / 2.0)
    lo = math.ceil(sample_rate / f_max_eff)
    hi = frame_len // 2
    if cfg.f_min > 0:
        hi = min(hi, math.floor(sample_rate / cfg.f_min))
    if lo > hi:
        raise ConfigOutOfRange(
            f"no usable lags for [{cfg.f_min}, {cfg.f_max}] Hz with frame length {frame_len}"
        )
    return lo, hi


def _is_silent(rms: float) -> bool:
    return rms < SILENCE_RMS


# ---------------------------------------------------------------------------
# frequency-domain kernels
#
# Each kernel scores a whole (n_frames x n) matrix at once and returns one
# f0 per row, NaN where the row votes unvoiced; rows not marked live are
# never voiced. The note-level entries pass a note's frame matrix, and the
# frame-level functions are one-row calls of the same kernels.
# ---------------------------------------------------------------------------


def _gather(mags: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """mags[:, idx], with 0 wherever idx runs past the last bin."""
    out = np.zeros((mags.shape[0], idx.size), dtype=np.float64)
    ok = idx < mags.shape[1]
    out[:, ok] = mags[:, idx[ok]]
    return out


def _log_comb(mags: np.ndarray, bins: np.ndarray, n_harmonics: int) -> np.ndarray:
    """Harmonic product, as a sum of logs: log|X(k)| + log|X(2k)| + ...

    A relative floor keeps the log finite on empty bins without breaking
    amplitude invariance.
    """
    with np.errstate(divide="ignore"):
        log_mags = np.log(mags + 1e-12 * mags.max(axis=1, keepdims=True))
    scores = log_mags[:, bins]
    for h in range(2, n_harmonics + 1):
        scores += log_mags[:, bins * h]
    return scores


def _sum_comb(mags: np.ndarray, bins: np.ndarray, n_harmonics: int) -> np.ndarray:
    """Comb sum: |X(k)| + |X(2k)| + ..., harmonics past the last bin add 0."""
    scores = np.zeros((mags.shape[0], bins.size), dtype=np.float64)
    for h in range(1, n_harmonics + 1):
        scores += _gather(mags, bins * h)
    return scores


def _residual_comb(mags: np.ndarray, bins: np.ndarray, n_harmonics: int) -> np.ndarray:
    """E(f) + sum_k [E(k f) - E((k - 1/2) f)] for k = 2..n, at the nearest bins."""
    scores = _gather(mags, bins)
    for k in range(2, n_harmonics + 1):
        scores += _gather(mags, bins * k)
        scores -= _gather(mags, np.floor((k - 0.5) * bins + 0.5).astype(int))
    return scores


def _comb_f0s(
    mags: np.ndarray,
    live: np.ndarray,
    bin_hz: float,
    cfg: EstimatorConfig,
    scorer: Callable[[np.ndarray, np.ndarray, int], np.ndarray],
    harmonic_cap: int = 1,
) -> np.ndarray:
    """Per-row f0 of the best-scoring candidate bin, ties to the lowest.

    harmonic_cap is passed to _spectral_band (hps needs every harmonic).
    """
    f0s = np.full(mags.shape[0], np.nan)
    if live.any():
        bins = _spectral_band(mags.shape[1], bin_hz, cfg, harmonic_cap)
        best = bins[np.argmax(scorer(mags, bins, cfg.n_harmonics), axis=1)]
        f0s[live] = np.clip(best * bin_hz, cfg.f_min, cfg.f_max)[live]
    return f0s


def _cepstrum_f0s(
    mags: np.ndarray, live: np.ndarray, sample_rate: int, cfg: EstimatorConfig
) -> np.ndarray:
    """Per-row quefrency peak of the log-magnitude spectrum's inverse transform.

    mags holds the un-padded spectra of frames of 2 (n_bins - 1) samples.
    The search window spans the lags for [f_min, f_max], capped at half
    the frame; ties go to the longest lag (lowest frequency).
    """
    f0s = np.full(mags.shape[0], np.nan)
    if live.any():
        frame_len = 2 * (mags.shape[1] - 1)
        ceps = np.fft.irfft(np.log(mags + _CEPSTRUM_FLOOR), n=frame_len, axis=1)
        q_lo, q_hi = _lag_window(sample_rate, frame_len, cfg)
        best = q_hi - np.argmax(ceps[:, q_lo : q_hi + 1][:, ::-1], axis=1)
        f0s[live] = np.clip(sample_rate / best, cfg.f_min, cfg.f_max)[live]
    return f0s


def _lpc_coefficients(frames: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row linear predictors by the Levinson-Durbin recursion.

    Returns (a, stable): a is (n_frames x order+1) with a[:, 0] = 1, and
    stable is False on rows that have no energy or whose prediction error
    stops being positive and finite at any step; their a is meaningless.
    """
    n = frames.shape[1]
    if order >= n:
        raise ValueError(f"order {order} must be smaller than the frame length {n}")
    r = np.stack(
        [np.einsum("ij,ij->i", frames[:, : n - k], frames[:, k:]) for k in range(order + 1)],
        axis=1,
    )
    stable = (r[:, 0] > 0) & np.all(np.isfinite(r), axis=1)
    a = np.zeros_like(r)
    a[:, 0] = 1.0
    err = r[:, 0].copy()
    with np.errstate(all="ignore"):
        for i in range(1, order + 1):
            acc = r[:, i] + np.sum(a[:, 1:i] * r[:, i - 1 : 0 : -1], axis=1)
            k = -acc / err
            a[:, 1 : i + 1] = a[:, 1 : i + 1] + k[:, None] * a[:, i - 1 :: -1]
            err = err * (1.0 - k * k)
            stable &= (err > 0) & np.isfinite(err)
    return a, stable


def _inverse_filter(a: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """e[t] = sum_k a[k] x[t - k] on each row, from zero initial state."""
    order = a.shape[1] - 1
    padded = np.concatenate([np.zeros((frames.shape[0], order)), frames], axis=1)
    windows = sliding_window_view(padded, order + 1, axis=1)
    return np.einsum("itk,ik->it", windows, a[:, ::-1])


def _srh_f0s(
    frames: np.ndarray,
    live: np.ndarray,
    sample_rate: int,
    n_fft: int,
    cfg: EstimatorConfig,
) -> np.ndarray:
    """Per-frame residual-harmonics f0 (Drugman & Alwan 2011).

    Each live frame is whitened by its own 12th-order predictor, and its
    residual's zero-padded magnitude spectrum is scored by _residual_comb.
    Frames whose recursion breaks down vote unvoiced.
    """
    f0s = np.full(frames.shape[0], np.nan)
    a, stable = _lpc_coefficients(frames, LPC_ORDER)
    rows = np.flatnonzero(live & stable)
    if rows.size:
        pad = max(n_fft, frames.shape[1])
        residual = _inverse_filter(a[rows], frames[rows])
        mags = np.abs(np.fft.rfft(residual, n=pad, axis=1))
        _check_magnitudes(mags)
        every = np.ones(rows.size, dtype=bool)
        f0s[rows] = _comb_f0s(mags, every, sample_rate / pad, cfg, _residual_comb)
    return f0s


# ---------------------------------------------------------------------------
# frequency-domain estimators, frame level
# ---------------------------------------------------------------------------


def _single_estimate(method_id: str, f0s: np.ndarray) -> PitchEstimate:
    f0 = float(f0s[0])
    return PitchEstimate(None if math.isnan(f0) else f0, method_id)


def _has_energy(mags: np.ndarray) -> np.ndarray:
    return np.array([np.any(mags > 0)])


def hps_estimate(spectrum: Spectrum, cfg: EstimatorConfig | None = None) -> PitchEstimate:
    """Harmonic product of bin-decimated spectrum copies.

    Each candidate's h-th factor is the bin at exactly h times its index,
    and the product is evaluated as a sum of logs for numerical stability.
    A candidate whose comb skips over a harmonic lands on near-empty bins
    and its product collapses, which is what makes the method selective.
    All-zero spectra are unvoiced.
    """
    cfg = cfg or DEFAULT_CONFIGS["hps"]
    mags = spectrum.magnitudes
    f0s = _comb_f0s(mags[None], _has_energy(mags), spectrum.bin_hz, cfg, _log_comb, cfg.n_harmonics)
    return _single_estimate("hps", f0s)


def stft_energy_estimate(
    spectrogram: Spectrogram, cfg: EstimatorConfig | None = None
) -> PitchEstimate:
    """Pick the frequency whose harmonics collect the most summed energy.

    Magnitudes are first summed over all frames of the note; candidates
    are then scored by the plain sum of their harmonic bins, with ties
    resolved toward the lowest candidate.
    """
    cfg = cfg or DEFAULT_CONFIGS["stft"]
    energy = spectrogram.summed_magnitudes()
    f0s = _comb_f0s(energy[None], _has_energy(energy), spectrogram.bin_hz, cfg, _sum_comb)
    return _single_estimate("stft", f0s)


def ml_comb_estimate(spectrum: Spectrum, cfg: EstimatorConfig | None = None) -> PitchEstimate:
    """Comb matching: score(k) = sum_n |X(n k)|, ties to the lowest candidate."""
    cfg = cfg or DEFAULT_CONFIGS["ml"]
    mags = spectrum.magnitudes
    f0s = _comb_f0s(mags[None], _has_energy(mags), spectrum.bin_hz, cfg, _sum_comb)
    return _single_estimate("ml", f0s)


def cepstrum_estimate(frame: Frame, cfg: EstimatorConfig | None = None) -> PitchEstimate:
    """Quefrency peak of the frame's real cepstrum; silent frames are unvoiced."""
    cfg = cfg or DEFAULT_CONFIGS["cepstrum"]
    if _is_silent(frame.rms):
        return PitchEstimate(None, "cepstrum")
    mags = magnitude_spectrum(frame).magnitudes[None]
    live = np.ones(1, dtype=bool)
    return _single_estimate("cepstrum", _cepstrum_f0s(mags, live, frame.sample_rate, cfg))


def lpc_residual(frame: Frame, order: int = LPC_ORDER) -> Frame:
    """Inverse-filter a frame by its own linear predictor.

    order 0 returns the frame unchanged. Raises LpcUnstable when the
    frame has no energy or the recursion loses positive definiteness.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order == 0:
        return frame
    x = frame.samples[None]
    a, stable = _lpc_coefficients(x, order)
    if not stable[0]:
        raise LpcUnstable("frame has no energy to predict, or the prediction error collapsed")
    return Frame(
        samples=_inverse_filter(a, x)[0],
        start_index=frame.start_index,
        window_kind=frame.window_kind,
        sample_rate=frame.sample_rate,
    )


def srh_scores(
    spectrum: Spectrum, cfg: EstimatorConfig | None = None
) -> tuple[CandidateGrid, np.ndarray]:
    """Residual-harmonics scores over the candidate grid.

    score(f) = E(f) + sum_k [E(k f) - E((k - 1/2) f)] for k = 2..n, where
    E is the (residual) magnitude spectrum sampled at the nearest bin.
    Returns the grid and one score per candidate.
    """
    cfg = cfg or DEFAULT_CONFIGS["srh"]
    bins = _spectral_band(len(spectrum), spectrum.bin_hz, cfg)
    scores = _residual_comb(spectrum.magnitudes[None], bins, cfg.n_harmonics)[0]
    return CandidateGrid(bins * spectrum.bin_hz), scores


def srh_pick_spectrum(spectrum: Spectrum, cfg: EstimatorConfig | None = None) -> float:
    """Best residual-harmonics candidate for one (residual) spectrum."""
    cfg = cfg or DEFAULT_CONFIGS["srh"]
    mags, live = spectrum.magnitudes[None], np.ones(1, dtype=bool)
    return float(_comb_f0s(mags, live, spectrum.bin_hz, cfg, _residual_comb)[0])


# ---------------------------------------------------------------------------
# time-domain estimators
# ---------------------------------------------------------------------------


def _acf_pick(r: np.ndarray, sample_rate: int, lo: int, hi: int, cfg: EstimatorConfig) -> float:
    lag = lo + _argmax_last(r[lo : hi + 1])
    return _clamp(sample_rate / lag, cfg)


def acf_estimate(frame: Frame, cfg: EstimatorConfig | None = None) -> PitchEstimate:
    """Autocorrelation peak inside the lag window; ties to the longest lag."""
    cfg = cfg or DEFAULT_CONFIGS["acf"]
    if _is_silent(frame.rms):
        return PitchEstimate(None, "acf")
    lo, hi = _lag_window(frame.sample_rate, len(frame), cfg)
    r = _raw_autocorr(frame.samples, hi)
    return PitchEstimate(_acf_pick(r, frame.sample_rate, lo, hi, cfg), "acf")


def _nsdf_pick(n: np.ndarray, sample_rate: int, lo: int, hi: int, cfg: EstimatorConfig) -> float:
    window = n[lo : hi + 1]
    threshold = NSDF_PEAK_FRACTION * float(np.max(window))
    tau = None
    for t in range(lo, hi + 1):
        if n[t] >= threshold and n[t] > n[t - 1] and n[t] >= n[t + 1]:
            tau = t
            break
    if tau is None:
        tau = lo + _argmax_last(window)
    offset = 0.0
    if tau >= 1 and tau + 1 < n.size:
        offset = _parabolic_offset(n[tau - 1], n[tau], n[tau + 1])
    return _clamp(sample_rate / (tau + offset), cfg)


def nsdf_estimate(frame: Frame, cfg: EstimatorConfig | None = None) -> PitchEstimate:
    """First normalized-square-difference peak within 80% of the global max.

    The winning lag is refined by parabolic interpolation before being
    converted to frequency.
    """
    cfg = cfg or DEFAULT_CONFIGS["nsdf"]
    if _is_silent(frame.rms):
        return PitchEstimate(None, "nsdf")
    lo, hi = _lag_window(frame.sample_rate, len(frame), cfg)
    n = nsdf_function(frame, min(hi + 1, len(frame) - 1)).values
    return PitchEstimate(_nsdf_pick(n, frame.sample_rate, lo, hi, cfg), "nsdf")


def _yin_pick(d: np.ndarray, sample_rate: int, lo: int, hi: int, cfg: EstimatorConfig) -> float:
    tau = None
    for t in range(lo, hi + 1):
        if d[t] < YIN_THRESHOLD:
            tau = t
            while tau + 1 <= hi and d[tau + 1] < d[tau]:
                tau += 1
            break
    if tau is None:
        tau = lo + _argmin_last(d[lo : hi + 1])
    offset = 0.0
    if tau >= 1 and tau + 1 < d.size:
        offset = _parabolic_offset(d[tau - 1], d[tau], d[tau + 1])
    return _clamp(sample_rate / (tau + offset), cfg)


def yin_estimate(frame: Frame, cfg: EstimatorConfig | None = None) -> PitchEstimate:
    """First cumulative-mean-normalized-difference dip under 0.15.

    Falls back to the window's global minimum when no dip crosses the
    threshold; the chosen lag is refined by parabolic interpolation.
    """
    cfg = cfg or DEFAULT_CONFIGS["yin"]
    if _is_silent(frame.rms):
        return PitchEstimate(None, "yin")
    lo, hi = _lag_window(frame.sample_rate, len(frame), cfg)
    d = cmnd_function(frame, min(hi + 1, len(frame) - 1)).values
    return PitchEstimate(_yin_pick(d, frame.sample_rate, lo, hi, cfg), "yin")


# ---------------------------------------------------------------------------
# note-level analysis and dispatch
# ---------------------------------------------------------------------------


class NoteAnalysis:
    """Shared per-note framing, spectra and correlations.

    Built once per note so the estimators (and the ensemble) never repeat
    FFT work. Frames and spectra are held as (n_frames x n) matrices that
    the method kernels score whole; the per-frame Frame and Spectrum lists
    are views of their rows. All properties are lazy.
    """

    def __init__(
        self,
        note: AudioBuffer,
        frame_len: int = FRAME_LEN,
        hop: int = HOP,
        n_fft: int = N_FFT,
    ):
        self.note = note
        self.frame_len = frame_len
        self.hop = hop
        self.n_fft = max(n_fft, frame_len)

    @property
    def sample_rate(self) -> int:
        return self.note.sample_rate

    @property
    def bin_hz(self) -> float:
        return self.sample_rate / self.n_fft

    @cached_property
    def rect_frames(self) -> list[Frame]:
        return frame_signal(self.note, self.frame_len, self.hop, "rectangular")

    @cached_property
    def rect_matrix(self) -> np.ndarray:
        """The rectangular frames as one (n_frames x frame_len) matrix."""
        return np.stack([f.samples for f in self.rect_frames])

    @cached_property
    def frame_rms(self) -> np.ndarray:
        return np.sqrt(np.mean(self.rect_matrix**2, axis=1))

    @cached_property
    def live(self) -> np.ndarray:
        """True on the frames whose RMS reaches the silence floor."""
        return self.frame_rms >= SILENCE_RMS

    @cached_property
    def hann_matrix(self) -> np.ndarray:
        return self.rect_matrix * hann_window(self.frame_len)

    @cached_property
    def hann_live(self) -> np.ndarray:
        """Like live, judged on the Hann-windowed frames (never more live)."""
        return np.sqrt(np.mean(self.hann_matrix**2, axis=1)) >= SILENCE_RMS

    @cached_property
    def hann_frames(self) -> list[Frame]:
        """The rows of hann_matrix as frames (views, not copies)."""
        return [
            Frame(row, f.start_index, "hann", f.sample_rate)
            for row, f in zip(self.hann_matrix, self.rect_frames)
        ]

    @cached_property
    def magnitudes(self) -> np.ndarray:
        """Zero-padded Hann magnitude spectra, (n_frames x n_fft/2+1)."""
        return np.abs(np.fft.rfft(self.hann_matrix, n=self.n_fft, axis=1))

    @cached_property
    def spectra(self) -> list[Spectrum]:
        """One validated Spectrum per frame, each a view of a magnitudes row."""
        return [Spectrum(row, self.bin_hz) for row in self.magnitudes]

    @cached_property
    def spectrogram(self) -> Spectrogram:
        return Spectrogram(tuple(self.spectra), self.hop)

    @cached_property
    def rect_corr(self) -> tuple[np.ndarray, np.ndarray]:
        """(r, m) matrices over all rectangular frames, lags 0..frame_len/2+1."""
        mat = self.rect_matrix
        max_lag = min(self.frame_len // 2 + 1, self.frame_len - 1)
        size = 1
        while size < 2 * self.frame_len:
            size *= 2
        spec = np.fft.rfft(mat, n=size, axis=1)
        r = np.fft.irfft(spec * np.conj(spec), n=size, axis=1)[:, : max_lag + 1]
        m = np.stack([_overlap_energy(f.samples, max_lag) for f in self.rect_frames])
        return r, m


def _median_estimate(method_id: str, votes: list[float | None]) -> PitchEstimate:
    voiced = [v for v in votes if v is not None]
    if not voiced:
        return PitchEstimate(None, method_id, per_frame=tuple(votes))
    return PitchEstimate(float(np.median(voiced)), method_id, per_frame=tuple(votes))


def _frame_votes(method_id: str, f0s: np.ndarray) -> PitchEstimate:
    """Median of per-frame kernel f0s, NaN marking unvoiced frames."""
    return _median_estimate(method_id, [None if math.isnan(f) else float(f) for f in f0s])


def _checked_magnitudes(analysis: NoteAnalysis) -> np.ndarray:
    """The Hann magnitude matrix, after Spectrum has validated every row."""
    analysis.spectra
    return analysis.magnitudes


def _note_hps(analysis: NoteAnalysis, cfg: EstimatorConfig) -> PitchEstimate:
    mags = _checked_magnitudes(analysis)
    f0s = _comb_f0s(mags, analysis.live, analysis.bin_hz, cfg, _log_comb, cfg.n_harmonics)
    return _frame_votes("hps", f0s)


def _note_ml(analysis: NoteAnalysis, cfg: EstimatorConfig) -> PitchEstimate:
    mags = _checked_magnitudes(analysis)
    return _frame_votes("ml", _comb_f0s(mags, analysis.live, analysis.bin_hz, cfg, _sum_comb))


def _note_stft(analysis: NoteAnalysis, cfg: EstimatorConfig) -> PitchEstimate:
    if not analysis.live.any():
        return PitchEstimate(None, "stft")
    return stft_energy_estimate(analysis.spectrogram, cfg)


def _note_cepstrum(analysis: NoteAnalysis, cfg: EstimatorConfig) -> PitchEstimate:
    mags = magnitude_spectra(analysis.hann_matrix)
    f0s = _cepstrum_f0s(mags, analysis.hann_live, analysis.sample_rate, cfg)
    return _frame_votes("cepstrum", f0s)


def _note_srh(analysis: NoteAnalysis, cfg: EstimatorConfig) -> PitchEstimate:
    f0s = _srh_f0s(
        analysis.hann_matrix, analysis.hann_live, analysis.sample_rate, analysis.n_fft, cfg
    )
    return _frame_votes("srh", f0s)


def _note_lag_method(
    analysis: NoteAnalysis, cfg: EstimatorConfig, method_id: str
) -> PitchEstimate:
    lo, hi = _lag_window(analysis.sample_rate, analysis.frame_len, cfg)
    r_mat, m_mat = analysis.rect_corr
    fs = analysis.sample_rate
    votes: list[float | None] = []
    for i, rms in enumerate(analysis.frame_rms):
        if _is_silent(rms):
            votes.append(None)
            continue
        r = r_mat[i]
        if method_id == "acf":
            votes.append(_acf_pick(r, fs, lo, hi, cfg))
        elif method_id == "nsdf":
            m = m_mat[i]
            with np.errstate(invalid="ignore", divide="ignore"):
                n = np.where(m > 0, 2.0 * r / m, 0.0)
            np.clip(n, -1.0, 1.0, out=n)
            votes.append(_nsdf_pick(n, fs, lo, hi, cfg))
        else:
            m = m_mat[i]
            d = np.clip(m - 2.0 * r, 0.0, None)
            dprime = np.ones_like(d)
            running = np.cumsum(d[1:])
            taus = np.arange(1, d.size, dtype=np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                dprime[1:] = np.where(running > 0, d[1:] * taus / running, 1.0)
            votes.append(_yin_pick(dprime, fs, lo, hi, cfg))
    return _median_estimate(method_id, votes)


def _note_acf(analysis: NoteAnalysis, cfg: EstimatorConfig) -> PitchEstimate:
    return _note_lag_method(analysis, cfg, "acf")


def _note_nsdf(analysis: NoteAnalysis, cfg: EstimatorConfig) -> PitchEstimate:
    return _note_lag_method(analysis, cfg, "nsdf")


def _note_yin(analysis: NoteAnalysis, cfg: EstimatorConfig) -> PitchEstimate:
    return _note_lag_method(analysis, cfg, "yin")


@dataclass(frozen=True)
class NoteMethod:
    """Registry entry tying a method name to its note-level entry point."""

    name: str
    default_config: EstimatorConfig
    note_fn: Callable[[NoteAnalysis, EstimatorConfig], PitchEstimate]


REGISTRY: dict[str, NoteMethod] = {
    name: NoteMethod(name, DEFAULT_CONFIGS[name], fn)
    for name, fn in {
        "acf": _note_acf,
        "nsdf": _note_nsdf,
        "yin": _note_yin,
        "hps": _note_hps,
        "stft": _note_stft,
        "ml": _note_ml,
        "cepstrum": _note_cepstrum,
        "srh": _note_srh,
    }.items()
}


def estimate_note(
    note: AudioBuffer,
    method: str,
    cfg: EstimatorConfig | None = None,
) -> PitchEstimate:
    """Note-level f0 for one method name from the registry."""
    entry = REGISTRY.get(method)
    if entry is None:
        raise KeyError(f"unknown estimator {method!r}; known: {sorted(REGISTRY)}")
    analysis = NoteAnalysis(note)
    return entry.note_fn(analysis, cfg or entry.default_config)


def estimate_note_many(
    analysis: NoteAnalysis,
    wanted: Mapping[str, EstimatorConfig | None],
) -> dict[str, PitchEstimate]:
    """Run several methods on one shared analysis (FFT work done once)."""
    out: dict[str, PitchEstimate] = {}
    for name, cfg in wanted.items():
        entry = REGISTRY.get(name)
        if entry is None:
            raise KeyError(f"unknown estimator {name!r}; known: {sorted(REGISTRY)}")
        out[name] = entry.note_fn(analysis, cfg or entry.default_config)
    return out
