import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pitchlab
from pitchlab.errors import EmptyBuffer, LagOutOfRange, NonPowerOfTwo
from pitchlab.estimators import NoteAnalysis
from pitchlab.sigproc import (
    AudioBuffer,
    autocorr_matrix,
    autocorrelation,
    cmnd_matrix,
    frame_signal,
    hann_window,
    magnitude_spectrum,
    nsdf_matrix,
    overlap_energy_matrix,
)

from conftest import rect_frame, sine


def brute_autocorr(x, max_lag):
    """O(n^2) reference: r(tau) = sum_j x[j] * x[j + tau]."""
    n = len(x)
    return np.array(
        [sum(x[j] * x[j + tau] for j in range(n - tau)) for tau in range(max_lag + 1)]
    )


def lag_matrices(rows, max_lag):
    """(r, m) lag matrices of the rows of a frame matrix (or of one frame)."""
    rows = np.atleast_2d(rows)
    return autocorr_matrix(rows, max_lag), overlap_energy_matrix(rows, max_lag)


class TestAudioBuffer:
    def test_basic_properties(self):
        buf = AudioBuffer(np.ones(1000), 8000)
        assert len(buf) == 1000
        assert buf.duration == pytest.approx(0.125)
        assert buf.samples.dtype == np.float64

    def test_slice_seconds(self):
        buf = AudioBuffer(np.arange(8000, dtype=float), 8000)
        piece = buf.slice_seconds(0.25, 0.5)
        assert len(piece) == 2000
        assert piece.samples[0] == 2000.0

    def test_rejects_bad_rate_and_nonfinite(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros(4), 0)
        with pytest.raises(ValueError):
            AudioBuffer(np.array([1.0, np.nan]), 8000)

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros((2, 100)), 8000)


def test_hann_window_closed_form():
    n = 16
    w = hann_window(n)
    k = np.arange(n)
    assert np.allclose(w, 0.5 * (1.0 - np.cos(2.0 * np.pi * k / n)))
    assert w[0] == 0.0
    assert w[n // 2] == pytest.approx(1.0)


def test_hann_window_is_kept_read_only():
    n = 1000
    w = hann_window(n)
    k = np.arange(n)
    assert np.array_equal(w, 0.5 * (1.0 - np.cos(2.0 * np.pi * k / n)))
    assert not w.flags.writeable
    assert hann_window(n) is w
    with pytest.raises(ValueError):
        w[0] = 1.0


def test_importing_the_cli_fills_no_cache():
    # every per-process cache is filled on first use, never at import, so
    # importing the package costs no array work
    src = str(Path(pitchlab.__file__).resolve().parents[1])
    code = (
        "import json, sys, pitchlab.cli\n"
        "print(json.dumps({m + '.' + k: f.cache_info().currsize\n"
        "                  for m, mod in list(sys.modules.items()) if m.startswith('pitchlab')\n"
        "                  for k, f in vars(mod).items() if hasattr(f, 'cache_info')}))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={"PYTHONPATH": src}, timeout=60)
    caches = json.loads(result.stdout)
    assert {
        "pitchlab.sigproc.hann_window",
        "pitchlab.estimators._dft_rows",
        "pitchlab.estimators._spectral_band",
        "pitchlab.estimators._band_filter",
    } <= set(caches)
    assert set(caches.values()) == {0}


class TestFrameSignal:
    def test_frame_count_formula(self):
        for total, flen, hop in [(2048, 2048, 512), (4096, 2048, 512), (10000, 1024, 256)]:
            buf = AudioBuffer(np.arange(total, dtype=float), 44100)
            frames = frame_signal(buf, flen, hop)
            assert frames.shape == ((total - flen) // hop + 1, flen)

    def test_short_signal_zero_pads_one_frame(self):
        buf = AudioBuffer(np.ones(100), 44100)
        frames = frame_signal(buf, 256, 64)
        assert frames.shape == (1, 256)
        assert np.all(frames[0, :100] == 1.0)
        assert np.all(frames[0, 100:] == 0.0)

    def test_start_indices_and_content(self):
        x = np.arange(3000, dtype=float)
        frames = frame_signal(AudioBuffer(x, 44100), 1024, 512)
        for i, row in enumerate(frames):
            assert np.array_equal(row, x[512 * i : 512 * i + 1024])

    def test_frames_do_not_alias_the_buffer(self):
        x = np.arange(3000, dtype=float)
        frames = frame_signal(AudioBuffer(x, 44100), 1024, 512)
        frames[0, 0] = -1.0
        assert x[0] == 0.0
        assert frames.flags.c_contiguous

    def test_hann_windowing_applied(self):
        # the Hann frames are the rectangular frames times one periodic window
        analysis = NoteAnalysis(AudioBuffer(np.linspace(-1.0, 1.0, 5000), 44100))
        assert np.array_equal(analysis.hann_frames, analysis.rect_matrix * hann_window(2048))

    def test_empty_buffer_raises(self):
        buf = AudioBuffer(np.zeros(10), 8000)
        with pytest.raises(EmptyBuffer):
            frame_signal(AudioBuffer(np.zeros(0), 8000), 256, 64)
        assert len(frame_signal(buf, 256, 64)) == 1

    def test_rejects_bad_frame_len_and_hop(self):
        buf = AudioBuffer(np.zeros(512), 8000)
        with pytest.raises(ValueError):
            frame_signal(buf, 0, 64)
        with pytest.raises(ValueError):
            frame_signal(buf, 256, 0)


class TestMagnitudeSpectrum:
    def test_impulse_is_flat(self):
        x = np.zeros(1024)
        x[0] = 1.0
        spec = magnitude_spectrum(rect_frame(x, 8000))
        assert spec.magnitudes.shape == (513,)
        assert np.allclose(spec.magnitudes, 1.0)
        assert spec.bin_hz == pytest.approx(8000 / 1024)

    def test_on_bin_cosine_peak(self):
        # bin 32 of a 1024-point frame at 8 kHz is 250 Hz
        n, rate = 1024, 8000
        t = np.arange(n) / rate
        x = np.cos(2.0 * np.pi * 250.0 * t)
        spec = magnitude_spectrum(rect_frame(x, rate))
        assert int(np.argmax(spec.magnitudes)) == 32
        assert spec.magnitudes[32] == pytest.approx(n / 2, rel=1e-9)

    def test_parseval(self, rng):
        x = rng.standard_normal(1024)
        spec = magnitude_spectrum(rect_frame(x, 8000))
        # rfft drops conjugate bins, so double all but DC and Nyquist
        weights = np.full(513, 2.0)
        weights[0] = weights[-1] = 1.0
        assert np.sum(weights * spec.magnitudes**2) / 1024 == pytest.approx(
            np.sum(x**2), rel=1e-9
        )

    def test_rejects_non_power_of_two(self):
        with pytest.raises(NonPowerOfTwo):
            magnitude_spectrum(rect_frame(np.zeros(1000), 8000))
        with pytest.raises(NonPowerOfTwo):
            magnitude_spectrum(rect_frame(np.zeros(32), 8000))


class TestAutocorrelation:
    def test_hand_worked_pattern(self):
        # period-3 pulse train: r(0) counts 3 ones, r(3) counts 2 overlaps
        x = np.array([1.0, 0, 0, 1.0, 0, 0, 1.0, 0])
        corr = autocorrelation(rect_frame(x, 8000), 6)
        assert corr.values[0] == pytest.approx(3.0, abs=1e-12)
        assert corr.values[3] == pytest.approx(2.0, abs=1e-12)
        assert corr.values[1] == pytest.approx(0.0, abs=1e-12)
        assert corr.values[6] == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force(self, rng):
        for n in (32, 100, 256):
            x = rng.standard_normal(n)
            max_lag = n - 1
            got = autocorrelation(rect_frame(x, 8000), max_lag).values
            ref = brute_autocorr(x, max_lag)
            assert np.allclose(got, ref, rtol=1e-9, atol=1e-9)

    def test_lag_bounds(self):
        frame = rect_frame(np.ones(64), 8000)
        with pytest.raises(LagOutOfRange):
            autocorrelation(frame, 64)
        with pytest.raises(LagOutOfRange):
            autocorrelation(frame, -1)
        assert autocorrelation(frame, 0).values.shape == (1,)


class TestNsdf:
    def test_bounded_and_unity_at_zero(self, rng):
        n = nsdf_matrix(*lag_matrices(rng.standard_normal((20, 512)), 255))
        assert n.shape == (20, 256)
        assert n[:, 0] == pytest.approx(1.0)
        assert np.all(n <= 1.0 + 1e-12)
        assert np.all(n >= -1.0 - 1e-12)

    def test_sine_peaks_at_period(self):
        rate, freq = 8000, 200.0
        n = nsdf_matrix(*lag_matrices(sine(freq, 1024, rate), 500))[0]
        period = rate / freq
        peak = int(np.argmax(n[20:])) + 20
        assert abs(peak - period) <= 1


class TestCmnd:
    def test_starts_at_one(self, rng):
        d = cmnd_matrix(*lag_matrices(rng.standard_normal((8, 512)), 255))
        assert np.all(d[:, 0] == 1.0)
        assert np.all(d >= 0.0)

    def test_first_dip_at_period_of_sine(self):
        # every period multiple dips, so test the first threshold crossing
        rate, freq = 8000, 250.0
        d = cmnd_matrix(*lag_matrices(sine(freq, 1024, rate), 500))[0]
        period = int(round(rate / freq))
        first_low = int(np.argmax(d[10:] < 0.15)) + 10
        assert abs(first_low - period) <= 2
        assert d[period] < 0.05

    def test_constant_signal_degenerate_case(self):
        # zero differences everywhere give the defined fallback value 1
        d = cmnd_matrix(*lag_matrices(np.zeros(128), 60))[0]
        assert d[0] == 1.0
        assert np.all(d[1:] == 1.0)


def test_concat_framing_is_lossless():
    # frames laid end to end with hop == frame_len rebuild the signal
    x = np.arange(4096, dtype=float)
    buf = AudioBuffer(x, 44100)
    frames = frame_signal(buf, 1024, 1024)
    assert np.array_equal(frames.ravel(), x)
