import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pitchlab
from pitchlab.errors import EmptyBuffer, LagOutOfRange
from pitchlab.estimators import FRAME_LEN, HOP, NoteAnalysis
from pitchlab.sigproc import (
    AudioBuffer,
    autocorrelation,
    block_autocorr,
    cmnd_matrix,
    frame_signal,
    hann_window,
    magnitude_spectrum,
    nsdf_matrix,
    overlap_energy_matrix,
)

from conftest import rect_frame, sine


def brute_frame_lags(frames, max_lag):
    """Per-frame direct sums r(tau) = x[: n - tau] . x[tau:], tau = 0..max_lag."""
    n = frames.shape[1]
    return np.array([[row[: n - tau] @ row[tau:] for tau in range(max_lag + 1)] for row in frames])


def lag_matrices(rows, max_lag):
    """(r, m) lag matrices of the rows of a frame matrix (or of one frame):
    block_autocorr reads the rows laid end to end, one frame per hop."""
    rows = np.atleast_2d(rows)
    n = rows.shape[1]
    r = block_autocorr(rows.ravel(), n, n, max_lag)
    return r, overlap_energy_matrix(rows, max_lag)


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

    @pytest.mark.parametrize("start, stop", [(0.0, -0.5), (0.0, -np.inf), (0.0, np.nan), (0.5, 0.25)])
    def test_a_stop_before_the_start_selects_none(self, start, stop):
        buf = AudioBuffer(np.arange(100, dtype=float), 100)
        assert len(buf.slice_seconds(start, stop)) == 0

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
    # every per-process cache (sigproc's Hann windows, the estimators' combs,
    # DFT rows and band filters) is filled on first use, never at import, so
    # importing the package costs no array work
    src = str(Path(pitchlab.__file__).resolve().parents[1])
    code = (
        "import json, sys, pitchlab.cli\n"
        "print(json.dumps({f.__module__ + '.' + f.__qualname__: f.cache_info().currsize\n"
        "                  for m, mod in list(sys.modules.items()) if m.startswith('pitchlab')\n"
        "                  for f in vars(mod).values() if hasattr(f, 'cache_info')}))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={"PYTHONPATH": src}, timeout=60)
    caches = json.loads(result.stdout)
    assert len(caches) >= 4 and set(caches.values()) == {0}, caches


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

    def test_frames_are_a_read_only_view_of_the_buffer(self):
        x = np.arange(3000, dtype=float)
        frames = frame_signal(AudioBuffer(x, 44100), 1024, 512)
        assert np.shares_memory(frames, x)
        with pytest.raises(ValueError, match="read-only"):
            frames[0, 0] = -1.0
        assert x[0] == 0.0

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
        for n in (1, 2, 3, 17, 32, 97, 100, 256, 257, 1000):
            x = rng.standard_normal(n)
            max_lag = n - 1
            got = autocorrelation(rect_frame(x, 8000), max_lag).values
            ref = brute_frame_lags(x[None], max_lag)[0]
            assert np.allclose(got, ref, rtol=1e-9, atol=1e-9)
            # acceptance 6's tolerance
            assert np.allclose(got, ref, rtol=1e-9, atol=1e-9 * np.max(np.abs(ref)))

    def test_lag_bounds(self):
        frame = rect_frame(np.ones(64), 8000)
        with pytest.raises(LagOutOfRange):
            autocorrelation(frame, 64)
        with pytest.raises(LagOutOfRange):
            autocorrelation(frame, -1)
        assert autocorrelation(frame, 0).values.shape == (1,)


class TestBlockAutocorr:
    """NoteAnalysis.rect_corr's r, taken from the note's HOP-long blocks,
    against the direct per-frame sum."""

    @pytest.mark.parametrize("rate", [8000, 22050, 44100, 96000, 192000])
    def test_rows_match_the_per_frame_sum(self, rate):
        # and every frame matrix of a note is cut by the one framing rule:
        # the note a view of its song, its frames a read-only view of it
        rng = np.random.default_rng(rate)
        lengths = [1, 333, FRAME_LEN - 1, FRAME_LEN]
        lengths += [FRAME_LEN + k * HOP + r for k, r in [(0, 1), (1, -1), (1, 0), (2, HOP - 1), (5, 17)]]
        lengths += [FRAME_LEN + int(rng.integers(0, 8)) * HOP + int(rng.integers(0, HOP))]
        for n in lengths:
            song = AudioBuffer(0.5 * rng.standard_normal(n + HOP), rate)
            note = song.slice_seconds(0.0, n / rate)
            assert len(note) == n and np.shares_memory(note.samples, song.samples)
            analysis = NoteAnalysis(note)
            r, _ = analysis.rect_corr
            # lag windows stop at half the frame, and refinement reads one lag past
            ref = brute_frame_lags(analysis.rect_matrix, FRAME_LEN // 2 + 1)
            assert r.shape == ref.shape == (len(analysis.rect_matrix), FRAME_LEN // 2 + 2)
            assert np.all(np.abs(r - ref) <= 1e-12 * ref[:, :1]), n
            assert len(analysis.band_frames) == len(r) == len(analysis.live) == len(ref)
            assert not analysis.rect_matrix.flags.writeable
            assert np.shares_memory(analysis.rect_matrix, note.samples) == (n >= FRAME_LEN)

    def test_a_silent_frame_inside_a_loud_note_is_exactly_zero(self, rng):
        x = 0.9 * rng.standard_normal(FRAME_LEN + 8 * HOP)
        x[3 * HOP : 3 * HOP + FRAME_LEN] = 0.0
        r, _ = NoteAnalysis(AudioBuffer(x, 44100)).rect_corr
        assert np.all(r[3] == 0.0)
        assert np.all(np.delete(r, 3, axis=0)[:, 0] > 0.0)

    def test_any_geometry_of_whole_hops(self, rng):
        x = rng.standard_normal(61)
        for frame_len, hop in [(12, 3), (10, 5), (9, 1), (8, 8), (16, 4)]:
            frames = frame_signal(AudioBuffer(x, 8000), frame_len, hop)
            for max_lag in range(frame_len):
                got = block_autocorr(x, frame_len, hop, max_lag)
                ref = brute_frame_lags(frames, max_lag)
                assert np.allclose(got, ref, rtol=0.0, atol=1e-12 * ref[:, 0].max())

    def test_lags_past_the_frame_raise(self):
        rows = np.ones((1, 8))
        for max_lag in (-1, 8, 20):
            with pytest.raises(LagOutOfRange):
                block_autocorr(rows[0], 8, 8, max_lag)
            with pytest.raises(LagOutOfRange):
                overlap_energy_matrix(rows, max_lag)
        r, m = lag_matrices(rows, 7)
        assert r.shape == m.shape == (1, 8)
        assert r[0, 7] == pytest.approx(1.0) and m[0, 7] == 2.0

    def test_a_frame_must_be_whole_hops(self):
        for hop in (0, 3, 5, 16):
            with pytest.raises(ValueError, match="whole number of hops"):
                block_autocorr(np.ones(32), 8, hop, 4)


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
