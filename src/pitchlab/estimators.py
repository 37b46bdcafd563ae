"""Fundamental-frequency estimators.

Eight methods share one note-level contract: estimate f0 on each analysis
frame of the note, drop silent/unvoiced frames, and report the median of
the surviving frame estimates (the energy-summation method works on the
whole note directly). Frequency-domain methods window with a periodic
Hann and zero-pad frames to a long FFT for a fine candidate grid;
time-domain methods work on rectangular frames.
"""

from __future__ import annotations

import dataclasses
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
    Spectrum,
    autocorr_matrix,
    cmnd_matrix,
    frame_signal,
    hann_window,
    magnitude_spectrum,  # unused here, but perfbench's tracer patches it in this module
    nsdf_matrix,
    overlap_energy_matrix,
    _check_fft_length,
    _check_magnitudes,
)

FRAME_LEN = 2048
HOP = 512
# Frames are zero-padded to this FFT length by the frequency-domain
# estimators. At 44.1 kHz the grid step is ~5.4 Hz, so a member's bin
# pick stays within a quarter tone from about 92 Hz up; the ensemble
# refines its fused f0 below the grid (refine_f0).
N_FFT = 8192

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


_JSON_KINDS = {str: "a string", int: "an integer", float: "a number", dict: "a JSON object"}


def check_json(value, kind, what: str = ""):
    """value, if it has the JSON shape kind; else ValueError naming the field.

    kind is str, int, dict (any object) or float (any JSON number, returned
    as a float), [k] for a list of k, or {key: k} for an object whose keys
    are all optional. Bools are never numbers. what is the dotted path of
    value in its document.
    """
    name = what or "the top level"
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be a JSON object, got {value!r}")
        unknown = sorted(set(value) - set(kind))
        if unknown:
            raise ValueError(f"unknown keys in {name}: {unknown}")
        return {k: check_json(v, kind[k], f"{what}.{k}" if what else k) for k, v in value.items()}
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ValueError(f"{name} must be a list, got {value!r}")
        return [check_json(v, kind[0], f"{what}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"{name} must be {_JSON_KINDS[kind]}, got {value!r}")
    try:
        return float(value) if kind is float else value
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


# The JSON shape of per-method config overrides. Only the comb scorers read
# n_harmonics, so only they accept it.
_RANGE_FIELDS = {"f_min": float, "f_max": float}
CONFIG_OVERRIDES = {
    name: {**_RANGE_FIELDS, "n_harmonics": int} if name in ("hps", "stft", "ml", "srh")
    else _RANGE_FIELDS
    for name in DEFAULT_CONFIGS
}


def parse_config_overrides(raw, source) -> dict[str, EstimatorConfig]:
    """Validated configs from a {method: {f_min, f_max, n_harmonics}} mapping.

    Each override is partial: unspecified fields keep the method's
    default. f_min and f_max must be JSON numbers and n_harmonics a JSON
    integer, accepted only by hps, stft, ml and srh. Anything malformed
    raises ValueError naming the source.
    """
    try:
        overrides = check_json(raw, CONFIG_OVERRIDES)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    configs = {}
    for name, fields in overrides.items():
        try:
            configs[name] = dataclasses.replace(DEFAULT_CONFIGS[name], **fields)
        except ValueError as exc:
            raise ValueError(f"{source}: bad override for {name!r}: {exc}") from None
    return configs


def load_estimator_configs(path) -> dict[str, EstimatorConfig]:
    """Read per-method config overrides from a JSON file (the overrides alone)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return parse_config_overrides(raw, path)


# ---------------------------------------------------------------------------
# search ranges
# ---------------------------------------------------------------------------


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
            f"[{cfg.f_min:g}, {cfg.f_max:g}] Hz starts at or above the Nyquist "
            f"frequency {nyquist:g} Hz"
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


def _corr_max_lag(frame_len: int) -> int:
    """Longest lag any lag window reaches (half the frame), plus the right
    neighbour that parabolic refinement reads."""
    return min(frame_len // 2 + 1, frame_len - 1)


# ---------------------------------------------------------------------------
# frequency-domain kernels
#
# Each kernel scores a whole (n_frames x n) matrix at once and returns one
# f0 per row, NaN where the row votes unvoiced; rows not marked live are
# never voiced. The note-level entries below are their only callers, apart
# from the one-spectrum functions that acceptance 6 pins.
# ---------------------------------------------------------------------------


def _gather(mags: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """mags[:, idx], with 0 wherever idx runs past the last bin."""
    out = np.zeros((mags.shape[0], idx.size), dtype=np.float64)
    ok = idx < mags.shape[1]
    out[:, ok] = mags[:, idx[ok]]
    return out


def _log_comb(mags: np.ndarray, bins: np.ndarray, n_harmonics: int) -> np.ndarray:
    """Harmonic product, as a sum of logs: log|X(k)| + log|X(2k)| + ...

    A comb that skips a harmonic lands on near-empty bins and its product
    collapses, which is what makes the method selective. A relative floor
    keeps the log finite on empty bins without breaking amplitude
    invariance.
    """
    log_mags = np.add(mags, 1e-12 * mags.max(axis=1, keepdims=True))
    with np.errstate(divide="ignore"):
        np.log(log_mags, out=log_mags)
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


# refine_f0 reads the peaks of harmonics 1..REFINE_HARMONICS of a fused f0,
# each within +-REFINE_WINDOW of its nominal frequency.
REFINE_HARMONICS = 3
REFINE_WINDOW = 0.03


def refine_f0(analysis: NoteAnalysis, f0: float) -> float:
    """f0 moved below the bin grid by quadratic interpolation of spectral peaks.

    Sums the magnitude rows of the note's hann_live frames and takes the
    log. For each harmonic h it picks the largest bin k whose frequency
    lies within REFINE_WINDOW of h f0. Where k is a local maximum and the
    parabola through the log magnitudes at k-1, k, k+1 is concave, its
    vertex k + d gives the estimate (k + d) bin_hz / h, kept if it lies in
    the window too (QIFFT: Smith & Serra 1987; Abe & Smith 2004). Returns
    the mean of the kept estimates weighted by their peaks' summed
    magnitudes, so never more than REFINE_WINDOW from f0, or f0 itself when
    no frame is live or no harmonic gives an estimate. Takes no FFT.
    """
    live = analysis.hann_live
    mags, bin_hz = analysis.spectrogram, analysis.bin_hz
    lo_hz, hi_hz = f0 * (1.0 - REFINE_WINDOW), f0 * (1.0 + REFINE_WINDOW)
    top = min(mags.shape[1], math.floor(REFINE_HARMONICS * hi_hz / bin_hz) + 2)
    if not live.any():
        return f0
    summed = mags[live, :top].sum(axis=0)
    with np.errstate(divide="ignore"):
        log_mags = np.log(summed)
    estimates, weights = [], []
    for h in range(1, REFINE_HARMONICS + 1):
        lo = max(1, math.ceil(h * lo_hz / bin_hz))
        hi = min(top - 2, math.floor(h * hi_hz / bin_hz))
        if lo > hi:
            continue
        k = lo + int(np.argmax(summed[lo : hi + 1]))
        y_minus, y_center, y_plus = log_mags[k - 1 : k + 2]
        denom = y_minus - 2.0 * y_center + y_plus
        if not (y_center >= max(y_minus, y_plus) and np.isfinite(denom) and denom < 0.0):
            continue
        estimate = (k + 0.5 * (y_minus - y_plus) / denom) * bin_hz / h
        if lo_hz <= estimate <= hi_hz:
            estimates.append(estimate)
            weights.append(summed[k])
    return float(np.average(estimates, weights=weights)) if estimates else f0


def _cepstrum_f0s(
    mags: np.ndarray, live: np.ndarray, sample_rate: int, cfg: EstimatorConfig
) -> np.ndarray:
    """Per-row quefrency peak of the log-magnitude spectrum's inverse transform.

    mags holds the un-padded spectra of frames of 2 (n_bins - 1) samples.
    The search window spans the lags for [f_min, f_max], capped at half
    the frame; ties go to the longest lag (lowest frequency).
    """
    frame_len = 2 * (mags.shape[1] - 1)
    ceps = np.fft.irfft(np.log(mags + _CEPSTRUM_FLOOR), n=frame_len, axis=1)
    return _lag_f0s(ceps, live, sample_rate, frame_len, cfg, _acf_lag)


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


def _filter_tail(a: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """The order samples y[n + j] = sum_{m > j} a[m] x[n + j - m], j < order,
    by which the inverse filter's full convolution runs past each n-sample
    frame."""
    order = a.shape[1] - 1
    end = frames[:, -order:]
    return np.stack(
        [np.einsum("ij,ij->i", a[:, j + 1 :], end[:, j:][:, ::-1]) for j in range(order)],
        axis=1,
    )


def _residual_magnitudes(
    a: np.ndarray, frames: np.ndarray, spectrum: np.ndarray, pad: int
) -> np.ndarray:
    """|rfft(_inverse_filter(a, frames), n=pad)| on the bins spectrum holds.

    spectrum holds the leading bins of rfft(frames, n=pad). The residual is
    the full convolution of a frame with its predictor less the samples
    past the frame end, so its spectrum is R = A X - T: A is the
    predictor's DFT, X the frame's and T the tail's. The tail's phase is
    pad-periodic, so this holds also where the tail wraps past pad.
    """
    order, top = a.shape[1] - 1, spectrum.shape[1]
    k = np.arange(top)
    # w[m, k] = exp(-2 pi i m k / pad) for lags m = 0..order, and the same
    # rows moved to lag n + m for the tail of an n-sample frame
    w = np.ones((order + 1, top), dtype=complex)
    np.cumprod(np.broadcast_to(np.exp(-2j * np.pi * k / pad), (order, top)), axis=0, out=w[1:])
    w_tail = w[:order] * np.exp(-2j * np.pi * (frames.shape[1] * k % pad / pad))
    # Real rows times complex columns, through float64 views. einsum rather
    # than @: a BLAS product faults in its work buffer, which stays resident.
    A = np.einsum("im,mk->ik", a, w.view(np.float64)).view(complex)
    T = np.einsum("ij,jk->ik", _filter_tail(a, frames), w_tail.view(np.float64)).view(complex)
    return np.abs(A * spectrum - T)


def _srh_f0s(
    frames: np.ndarray,
    spectrum: np.ndarray,
    live: np.ndarray,
    sample_rate: int,
    n_fft: int,
    cfg: EstimatorConfig,
) -> np.ndarray:
    """Per-frame residual-harmonics f0 (Drugman & Alwan 2011).

    Each live frame is whitened by its own 12th-order predictor, and its
    residual's zero-padded magnitude spectrum is scored by _residual_comb.
    spectrum holds the leading bins of the frames' complex spectra,
    zero-padded to n_fft points (or the frame length); the residual's is
    built from them by _residual_magnitudes, on the bins the comb reads
    only. Where spectrum stops short of those bins, the frames are
    transformed again. Frames whose recursion breaks down vote unvoiced.
    """
    f0s = np.full(frames.shape[0], np.nan)
    a, stable = _lpc_coefficients(frames, LPC_ORDER)
    rows = np.flatnonzero(live & stable)
    if rows.size:
        pad = max(n_fft, frames.shape[1])
        n_bins, bin_hz = pad // 2 + 1, sample_rate / pad
        bins = _spectral_band(n_bins, bin_hz, cfg)
        top = min(n_bins, bins[-1] * cfg.n_harmonics + 1)
        x = frames[rows]
        if spectrum.shape[1] >= top:
            x_spectrum = spectrum[rows, :top]
        else:
            x_spectrum = np.fft.rfft(x, n=pad, axis=1)[:, :top]
        mags = _residual_magnitudes(a[rows], x, x_spectrum, pad)
        _check_magnitudes(mags)
        best = bins[np.argmax(_residual_comb(mags, bins, cfg.n_harmonics), axis=1)]
        f0s[rows] = np.clip(best * bin_hz, cfg.f_min, cfg.f_max)
    return f0s


# ---------------------------------------------------------------------------
# lag-domain kernels
#
# _lag_f0s scores a whole (n_frames x lags) matrix of autocorrelation, NSDF
# or CMND rows, with the same contract as the frequency-domain kernels.
# Each picker returns one (possibly fractional) lag per row.
# ---------------------------------------------------------------------------


def _refined(values: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """tau moved to the vertex of the parabola through values at tau-1..tau+1.

    The offset stays 0 where a neighbour is missing, the three samples are
    collinear, or the vertex lies more than one lag away.
    """
    rows = np.arange(values.shape[0])
    inside = (tau >= 1) & (tau + 1 < values.shape[1])
    t = np.clip(tau, 1, values.shape[1] - 2)
    y_minus, y_center, y_plus = values[rows, t - 1], values[rows, t], values[rows, t + 1]
    with np.errstate(all="ignore"):
        denom = y_minus - 2.0 * y_center + y_plus
        offset = 0.5 * (y_minus - y_plus) / denom
    ok = inside & (denom != 0.0) & np.isfinite(denom) & (np.abs(offset) <= 1.0)
    return tau + np.where(ok, offset, 0.0)


def _acf_lag(r: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Autocorrelation peak in [lo, hi]; ties to the longest lag."""
    return hi - np.argmax(r[:, lo : hi + 1][:, ::-1], axis=1)


def _nsdf_lag(n: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """First local NSDF peak reaching 80% of the window's maximum, refined.

    Rows without such a peak take the window's maximum, ties to the
    longest lag.
    """
    window = n[:, lo : hi + 1]
    threshold = NSDF_PEAK_FRACTION * window.max(axis=1, keepdims=True)
    peak = (window >= threshold) & (window > n[:, lo - 1 : hi]) & (window >= n[:, lo + 1 : hi + 2])
    last_max = hi - np.argmax(window[:, ::-1], axis=1)
    return _refined(n, np.where(peak.any(axis=1), lo + np.argmax(peak, axis=1), last_max))


def _yin_lag(d: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """First CMND dip under the threshold, followed down to its floor, refined.

    Rows that never dip take the window's minimum, ties to the longest lag.
    """
    window = d[:, lo : hi + 1]
    dip = window < YIN_THRESHOLD
    first = np.argmax(dip, axis=1)
    # the descent stops at the window's end or where the next value does not fall
    floor = np.ones(window.shape, dtype=bool)
    floor[:, :-1] = ~(window[:, 1:] < window[:, :-1])
    floor &= np.arange(window.shape[1]) >= first[:, None]
    last_min = hi - np.argmin(window[:, ::-1], axis=1)
    return _refined(d, np.where(dip.any(axis=1), lo + np.argmax(floor, axis=1), last_min))


def _lag_f0s(
    values: np.ndarray,
    live: np.ndarray,
    sample_rate: int,
    frame_len: int,
    cfg: EstimatorConfig,
    picker: Callable[[np.ndarray, int, int], np.ndarray],
) -> np.ndarray:
    """Per-row f0 = sample_rate / lag, the lag picked inside the config's window.

    values holds lags 0.._corr_max_lag(frame_len) of each frame.
    """
    f0s = np.full(values.shape[0], np.nan)
    if live.any():
        lo, hi = _lag_window(sample_rate, frame_len, cfg)
        f0s[live] = np.clip(sample_rate / picker(values, lo, hi), cfg.f_min, cfg.f_max)[live]
    return f0s


# ---------------------------------------------------------------------------
# one-frame entry points, each kept for the caller its docstring names
# ---------------------------------------------------------------------------


def _single_estimate(method_id: str, f0s: np.ndarray) -> PitchEstimate:
    f0 = float(f0s[0])
    return PitchEstimate(None if math.isnan(f0) else f0, method_id)


def _has_energy(mags: np.ndarray) -> np.ndarray:
    return np.array([np.any(mags > 0)])


def ml_comb_estimate(spectrum: Spectrum, cfg: EstimatorConfig | None = None) -> PitchEstimate:
    """Comb matching: score(k) = sum_n |X(n k)|, ties to the lowest candidate.

    A one-spectrum call of the ml kernel, kept because acceptance 6 checks
    it against an exhaustive search.
    """
    cfg = cfg or DEFAULT_CONFIGS["ml"]
    mags = spectrum.magnitudes
    f0s = _comb_f0s(mags[None], _has_energy(mags), spectrum.bin_hz, cfg, _sum_comb)
    return _single_estimate("ml", f0s)


def lpc_residual(frame: Frame, order: int = LPC_ORDER) -> Frame:
    """Inverse-filter a frame by its own linear predictor.

    order 0 returns the frame unchanged. Raises LpcUnstable when the
    frame has no energy or the recursion loses positive definiteness.
    Kept as the one-frame view of _lpc_coefficients that the scalar
    Levinson reference test compares against; perfbench's tracer patches it.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order == 0:
        return frame
    x = frame.samples[None]
    a, stable = _lpc_coefficients(x, order)
    if not stable[0]:
        raise LpcUnstable("frame has no energy to predict, or the prediction error collapsed")
    return Frame(_inverse_filter(a, x)[0], frame.sample_rate)


def srh_scores(
    spectrum: Spectrum, cfg: EstimatorConfig | None = None
) -> tuple[CandidateGrid, np.ndarray]:
    """Residual-harmonics scores over the candidate grid.

    score(f) = E(f) + sum_k [E(k f) - E((k - 1/2) f)] for k = 2..n, where
    E is the (residual) magnitude spectrum sampled at the nearest bin.
    Returns the grid and one score per candidate. Kept, with CandidateGrid,
    because acceptance 6 checks the scores on hand-built spectra.
    """
    cfg = cfg or DEFAULT_CONFIGS["srh"]
    bins = _spectral_band(len(spectrum), spectrum.bin_hz, cfg)
    scores = _residual_comb(spectrum.magnitudes[None], bins, cfg.n_harmonics)[0]
    return CandidateGrid(bins * spectrum.bin_hz), scores


# ---------------------------------------------------------------------------
# note-level analysis and dispatch
# ---------------------------------------------------------------------------


# The highest bin srh's default comb reads lies at or below f_max times
# n_harmonics, so NoteAnalysis keeps the complex Hann spectra up to there.
_SRH_BAND_HZ = DEFAULT_CONFIGS["srh"].f_max * DEFAULT_CONFIGS["srh"].n_harmonics


class NoteAnalysis:
    """Shared per-note framing, spectra and correlations.

    Built once per note so the estimators (and the ensemble) never repeat
    FFT work: one rFFT of the Hann frames gives the magnitudes that hps,
    ml, stft, cepstrum and refine_f0 read and the complex band that srh
    reads. Each quantity is one (n_frames x n) matrix that the method
    kernels score whole. Frames start HOP samples apart, and spectra are
    zero-padded to N_FFT points (or the frame length, if longer). All
    properties are lazy, and estimate_note_many keeps each (method, config)
    estimate here so that it runs at most once.

    perfbench's tracer patches hann_frames, spectra, spectrogram and
    rect_corr by name and counts Spectrum objects per frame, so spectra
    keeps one Spectrum per frame until the benchmark stops counting them.
    """

    def __init__(self, note: AudioBuffer, frame_len: int = FRAME_LEN):
        self.note = note
        self.frame_len = frame_len
        self.n_fft = max(N_FFT, frame_len)
        self._estimates: dict[tuple[str, EstimatorConfig], PitchEstimate] = {}

    @property
    def sample_rate(self) -> int:
        return self.note.sample_rate

    @property
    def bin_hz(self) -> float:
        return self.sample_rate / self.n_fft

    @cached_property
    def rect_matrix(self) -> np.ndarray:
        """The rectangular frames as one (n_frames x frame_len) matrix."""
        return frame_signal(self.note, self.frame_len, HOP)

    @cached_property
    def frame_rms(self) -> np.ndarray:
        return np.sqrt(np.mean(self.rect_matrix**2, axis=1))

    @cached_property
    def live(self) -> np.ndarray:
        """True on the frames whose RMS reaches the silence floor."""
        return self.frame_rms >= SILENCE_RMS

    @cached_property
    def hann_frames(self) -> np.ndarray:
        """The rectangular frames times one periodic Hann window."""
        return self.rect_matrix * hann_window(self.frame_len)

    @cached_property
    def hann_live(self) -> np.ndarray:
        """Like live, judged on the Hann-windowed frames (never more live)."""
        return np.sqrt(np.mean(self.hann_frames**2, axis=1)) >= SILENCE_RMS

    @cached_property
    def _hann_spectra(self) -> tuple[np.ndarray, np.ndarray]:
        spectrum = np.fft.rfft(self.hann_frames, n=self.n_fft, axis=1)
        band = min(spectrum.shape[1], math.floor(_SRH_BAND_HZ / self.bin_hz) + 1)
        return np.abs(spectrum), spectrum[:, :band].copy()

    @property
    def hann_band(self) -> np.ndarray:
        """The complex Hann spectra's bins up to _SRH_BAND_HZ, from the same
        rFFT as spectrogram. Only this band is kept: the whole complex matrix
        would take twice the magnitudes' memory on top of them."""
        return self._hann_spectra[1]

    @cached_property
    def spectra(self) -> list[Spectrum]:
        """One validated Spectrum per frame, each a view of a magnitude row."""
        return [Spectrum(row, self.bin_hz) for row in self._hann_spectra[0]]

    @cached_property
    def spectrogram(self) -> np.ndarray:
        """Zero-padded Hann magnitudes, (n_frames x n_fft/2+1), rows checked by spectra."""
        self.spectra
        return self._hann_spectra[0]

    @cached_property
    def rect_corr(self) -> tuple[np.ndarray, np.ndarray]:
        """Autocorrelation and overlap-energy matrices of the rectangular frames."""
        mat, max_lag = self.rect_matrix, _corr_max_lag(self.frame_len)
        return autocorr_matrix(mat, max_lag), overlap_energy_matrix(mat, max_lag)


def _frame_votes(method_id: str, f0s: np.ndarray) -> PitchEstimate:
    """Median of per-frame kernel f0s, NaN marking unvoiced frames."""
    voiced = f0s[~np.isnan(f0s)]
    return PitchEstimate(
        float(np.median(voiced)) if voiced.size else None,
        method_id,
        per_frame=tuple(None if math.isnan(f) else float(f) for f in f0s),
    )


def _note_hps(analysis: NoteAnalysis, cfg: EstimatorConfig) -> PitchEstimate:
    mags = analysis.spectrogram
    f0s = _comb_f0s(mags, analysis.live, analysis.bin_hz, cfg, _log_comb, cfg.n_harmonics)
    return _frame_votes("hps", f0s)


def _note_ml(analysis: NoteAnalysis, cfg: EstimatorConfig) -> PitchEstimate:
    mags = analysis.spectrogram
    return _frame_votes("ml", _comb_f0s(mags, analysis.live, analysis.bin_hz, cfg, _sum_comb))


def _note_stft(analysis: NoteAnalysis, cfg: EstimatorConfig) -> PitchEstimate:
    """One vote per note: the comb sum over the frames' summed magnitudes."""
    if not analysis.live.any():
        return PitchEstimate(None, "stft")
    energy = analysis.spectrogram.sum(axis=0)
    f0s = _comb_f0s(energy[None], _has_energy(energy), analysis.bin_hz, cfg, _sum_comb)
    return _single_estimate("stft", f0s)


def _note_cepstrum(analysis: NoteAnalysis, cfg: EstimatorConfig) -> PitchEstimate:
    """Zero-padding keeps a frame's own DFT bins, so its un-padded spectrum
    is every (n_fft / frame_len)-th bin of spectrogram."""
    _check_fft_length(analysis.frame_len)
    mags = analysis.spectrogram[:, :: analysis.n_fft // analysis.frame_len]
    f0s = _cepstrum_f0s(mags, analysis.hann_live, analysis.sample_rate, cfg)
    return _frame_votes("cepstrum", f0s)


def _note_srh(analysis: NoteAnalysis, cfg: EstimatorConfig) -> PitchEstimate:
    f0s = _srh_f0s(
        analysis.hann_frames,
        analysis.hann_band,
        analysis.hann_live,
        analysis.sample_rate,
        analysis.n_fft,
        cfg,
    )
    return _frame_votes("srh", f0s)


def _note_acf(analysis: NoteAnalysis, cfg: EstimatorConfig) -> PitchEstimate:
    r, _ = analysis.rect_corr
    f0s = _lag_f0s(r, analysis.live, analysis.sample_rate, analysis.frame_len, cfg, _acf_lag)
    return _frame_votes("acf", f0s)


def _note_nsdf(analysis: NoteAnalysis, cfg: EstimatorConfig) -> PitchEstimate:
    n = nsdf_matrix(*analysis.rect_corr)
    f0s = _lag_f0s(n, analysis.live, analysis.sample_rate, analysis.frame_len, cfg, _nsdf_lag)
    return _frame_votes("nsdf", f0s)


def _note_yin(analysis: NoteAnalysis, cfg: EstimatorConfig) -> PitchEstimate:
    d = cmnd_matrix(*analysis.rect_corr)
    f0s = _lag_f0s(d, analysis.live, analysis.sample_rate, analysis.frame_len, cfg, _yin_lag)
    return _frame_votes("yin", f0s)


@dataclass(frozen=True)
class NoteMethod:
    """Registry entry holding a method's note-level entry point."""

    note_fn: Callable[[NoteAnalysis, EstimatorConfig], PitchEstimate]


REGISTRY: dict[str, NoteMethod] = {
    "acf": NoteMethod(_note_acf),
    "nsdf": NoteMethod(_note_nsdf),
    "yin": NoteMethod(_note_yin),
    "hps": NoteMethod(_note_hps),
    "stft": NoteMethod(_note_stft),
    "ml": NoteMethod(_note_ml),
    "cepstrum": NoteMethod(_note_cepstrum),
    "srh": NoteMethod(_note_srh),
}


def estimate_note(
    note: AudioBuffer,
    method: str,
    cfg: EstimatorConfig | None = None,
) -> PitchEstimate:
    """Note-level f0 for one method name from the registry."""
    return estimate_note_many(NoteAnalysis(note), {method: cfg})[method]


def estimate_note_many(
    analysis: NoteAnalysis,
    wanted: Mapping[str, EstimatorConfig | None],
) -> dict[str, PitchEstimate]:
    """Run several methods on one shared analysis (FFT work done once).

    A None config means the method's default. Each (method, config) runs at
    most once per analysis; asking again returns the same estimate. A
    search range that does not fit the audio raises ConfigOutOfRange
    naming the method.
    """
    out: dict[str, PitchEstimate] = {}
    for name, cfg in wanted.items():
        entry = REGISTRY.get(name)
        if entry is None:
            raise KeyError(f"unknown estimator {name!r}; known: {sorted(REGISTRY)}")
        key = (name, cfg or DEFAULT_CONFIGS[name])
        if key not in analysis._estimates:
            try:
                analysis._estimates[key] = entry.note_fn(analysis, key[1])
            except ConfigOutOfRange as exc:
                raise ConfigOutOfRange(f"{name}: {exc}") from None
        out[name] = analysis._estimates[key]
    return out
