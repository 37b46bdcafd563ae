import dataclasses
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from pitchlab import estimators
from pitchlab.ensemble import DEFAULT_MEMBERS
from pitchlab.errors import ConfigOutOfRange, LpcUnstable
from pitchlab.estimators import (
    DEFAULT_CONFIGS,
    FRAME_LEN,
    HOP,
    LPC_ORDER,
    MELODY_F_MIN,
    N_FFT,
    NSDF_PEAK_FRACTION,
    YIN_THRESHOLD,
    EstimatorConfig,
    NoteAnalysis,
    NoteMethod,
    PitchEstimate,
    REFINE_WINDOW,
    REGISTRY,
    _acf_lag,
    _comb,
    _comb_f0s,
    _comb_scores,
    _lag_window,
    _whitened,
    _yin_lag,
    estimate_note,
    estimate_note_many,
    load_estimator_configs,
    lpc_residual,
    ml_comb_estimate,
    refine_f0,
    srh_scores,
)
from pitchlab.sigproc import (
    SILENCE_RMS,
    AudioBuffer,
    Spectrum,
    cmnd_matrix,
    nsdf_matrix,
)

from conftest import one_frame_estimate, rect_frame, saw_buffer, sawtooth, sine, sine_buffer

QUARTER_TONE = 2.0 ** (1.0 / 24.0) - 1.0  # about 2.93 percent


def test_default_search_ranges():
    assert DEFAULT_CONFIGS == {
        "acf": EstimatorConfig(20.0, 1000.0, 1),
        "nsdf": EstimatorConfig(20.0, 1000.0, 1),
        "yin": EstimatorConfig(20.0, 1000.0, 1),
        "hps": EstimatorConfig(80.0, math.inf, 3),
        "stft": EstimatorConfig(80.0, 1000.0, 4),
        "ml": EstimatorConfig(80.0, 800.0, 5),
        "cepstrum": EstimatorConfig(20.0, 1000.0, 1),
        "srh": EstimatorConfig(80.0, 500.0, 5),
    }


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(-1.0, 100.0)
    with pytest.raises(ValueError):
        EstimatorConfig(200.0, 100.0)
    with pytest.raises(ValueError):
        EstimatorConfig(100.0, 100.0)
    with pytest.raises(ValueError):
        EstimatorConfig(20.0, 1000.0, 0)


def test_pitch_estimate_validation():
    assert PitchEstimate(None).voiced is False
    assert PitchEstimate(440.0).voiced is True
    with pytest.raises(ValueError):
        PitchEstimate(0.0)
    with pytest.raises(ValueError):
        PitchEstimate(-5.0)


def test_load_configs_partial_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"yin": {"f_max": 600}, "ml": {"n_harmonics": 3}}')
    configs = load_estimator_configs(path)
    assert configs["yin"] == EstimatorConfig(20.0, 600.0, 1)
    assert configs["ml"] == EstimatorConfig(80.0, 800.0, 3)
    assert set(configs) == {"yin", "ml"}


def test_load_configs_rejects_unknown(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"swipe": {"f_max": 600}}')
    with pytest.raises(ValueError):
        load_estimator_configs(path)
    path.write_text('{"yin": {"threshold": 0.1}}')
    with pytest.raises(ValueError):
        load_estimator_configs(path)


# ---------------------------------------------------------------------------
# time-domain estimators on one-frame notes
# ---------------------------------------------------------------------------


def test_acf_exact_on_integer_period():
    # 100 Hz at 8 kHz: the period is a whole 80 samples
    est = one_frame_estimate("acf", sine(100.0, 2048, 8000), 8000)
    assert est.f0 == pytest.approx(100.0, abs=1e-9)


def test_acf_prefers_longest_lag_on_tie():
    # hand-built autocorrelation rows over lags 0..6, window [1, 5]: the
    # first ties at lags 2 and 4 and the second at every lag, so the longest
    # tied lag (lowest frequency) wins; the third has a single peak
    r = np.array([
        [10.0, 2.0, 5.0, 1.0, 5.0, 0.0, 9.0],
        [10.0, 3.0, 3.0, 3.0, 3.0, 3.0, 9.0],
        [10.0, 1.0, 6.0, 1.0, 5.0, 0.0, 9.0],
    ])
    assert _acf_lag(r, 1, 5).tolist() == [4, 5, 2]


def test_yin_follows_first_dip_to_its_floor():
    # hand-built CMND rows over lags 0..7, window [1, 6]; every floor has
    # equal neighbours, so parabolic refinement leaves the lag unchanged
    d = np.array([
        # first dip at lag 2, descending to its floor at lag 4
        [1.0, 0.9, 0.12, 0.08, 0.04, 0.08, 0.9, 0.9],
        # the first dip is its own floor; a deeper dip later does not count
        [1.0, 0.5, 0.10, 0.5, 0.05, 0.5, 0.9, 0.9],
        # no dip under the threshold: the window's minimum, ties to the longest lag
        [1.0, 0.5, 0.30, 0.5, 0.30, 0.5, 0.9, 0.9],
    ])
    assert d[:, 1:7].min(axis=1)[:2].max() < YIN_THRESHOLD < d[2, 1:7].min()
    assert _yin_lag(d, 1, 6).tolist() == [4.0, 2.0, 4.0]


def test_yin_finds_fundamental_not_subharmonic():
    est = one_frame_estimate("yin", sine(250.0, 2048, 8000), 8000)
    assert est.f0 == pytest.approx(250.0, rel=1e-3)


def test_yin_silence_unvoiced():
    assert one_frame_estimate("yin", np.zeros(2048), 44100).voiced is False


def test_nsdf_interpolates_fractional_period():
    # 247 Hz at 44.1 kHz has period 178.54 samples
    est = one_frame_estimate("nsdf", sine(247.0, 2048, 44100), 44100)
    assert est.f0 == pytest.approx(247.0, rel=2e-3)


@pytest.mark.parametrize("tiny", [5e-324, 1e-320])
def test_lag_window_takes_subnormal_bounds(tiny):
    # sample_rate / tiny is inf: a tiny f_min searches up to the half-frame
    # cap, and a tiny f_max leaves no usable lag
    assert _lag_window(8000, EstimatorConfig(tiny, 1000.0)) == (8, FRAME_LEN // 2)
    with pytest.raises(ConfigOutOfRange, match="no usable lags"):
        _lag_window(8000, EstimatorConfig(0.0, tiny))


@pytest.mark.parametrize("method", ["acf", "nsdf", "yin"])
def test_lag_methods_respect_range(method, rng):
    cfg = EstimatorConfig(150.0, 400.0)
    for _ in range(10):
        est = one_frame_estimate(method, rng.standard_normal(2048) * 0.3, 44100, cfg)
        if est.voiced:
            assert 150.0 <= est.f0 <= 400.0


# ---------------------------------------------------------------------------
# spectral kernels on hand-built one-row matrices
# ---------------------------------------------------------------------------

HPS = DEFAULT_CONFIGS["hps"]


def comb_vote(mags, bin_hz, cfg, residual=False):
    """The comb picker's f0 for one spectrum row."""
    row = np.asarray(mags, dtype=np.float64)[None]
    return float(_comb_f0s(row, _comb(row.shape[1], bin_hz, cfg, residual), bin_hz, cfg)[0])


def one_frame(**quantities):
    """A stand-in NoteAnalysis of one live frame, holding only the
    quantities (spectrogram, bin_hz, hann_frames, ...) a kernel reads."""
    return SimpleNamespace(live=np.ones(1, dtype=bool), **quantities)


def hps_vote(mags, bin_hz):
    analysis = one_frame(spectrogram=np.asarray(mags, dtype=np.float64)[None], bin_hz=bin_hz)
    return REGISTRY["hps"].note_fn(analysis, HPS).f0


def test_hps_picks_fundamental_of_harmonic_comb():
    mags = np.zeros(64)
    mags[10], mags[20], mags[30] = 1.0, 0.5, 0.25
    assert hps_vote(mags, 10.0) == pytest.approx(100.0)


def test_hps_all_zero_unvoiced():
    assert one_frame_estimate("hps", np.zeros(2048), 44100).voiced is False


def test_hps_amplitude_invariant_on_scaled_spectrum():
    mags = np.zeros(128)
    mags[[7, 14, 21]] = [1.0, 0.4, 0.2]
    assert hps_vote(mags, 10.0) == hps_vote(mags * 1000.0, 10.0)


def test_stft_sums_over_frames():
    row = np.zeros(128)
    row[12], row[24], row[36] = 1.0, 0.6, 0.3
    assert comb_vote(3.0 * row, 10.0, DEFAULT_CONFIGS["stft"]) == pytest.approx(120.0)
    # the note's one vote is the comb over its live spectrogram rows' sums
    analysis = NoteAnalysis(saw_buffer(220.0, 0.3))
    assert analysis.live.all()
    energy = analysis.spectrogram.sum(axis=0)
    assert np.array_equal(analysis.live_spectrum, energy)
    expected = comb_vote(energy, analysis.bin_hz, DEFAULT_CONFIGS["stft"])
    assert REGISTRY["stft"].note_fn(analysis, DEFAULT_CONFIGS["stft"]).f0 == expected


def test_stft_subdivision_tie_goes_to_lowest():
    # an on-bin pure tone: candidates 10, 20 and 40 each collect exactly
    # the one nonzero magnitude, and the tie resolves to the lowest
    row = np.zeros(128)
    row[40] = 1.0
    assert comb_vote(row, 10.0, DEFAULT_CONFIGS["stft"]) == pytest.approx(100.0)


def test_ml_comb_tie_goes_to_lowest():
    mags = np.zeros(128)
    mags[4], mags[8], mags[16] = 1.0, 1.0, 1.0
    est = ml_comb_estimate(Spectrum(mags, 10.0), EstimatorConfig(20.0, 800.0, 2))
    # score(4) = M[4] + M[8] = 2 and score(8) = M[8] + M[16] = 2
    assert est.f0 == pytest.approx(40.0)


def test_ml_matches_exhaustive_search(rng):
    cfg = DEFAULT_CONFIGS["ml"]
    for _ in range(50):
        n = int(rng.integers(64, 400))
        mags = rng.uniform(0.0, 1.0, n)
        bin_hz = float(rng.uniform(2.0, 12.0))
        spectrum = Spectrum(mags, bin_hz)

        nyquist = bin_hz * (n - 1)
        b_lo = max(1, math.ceil(cfg.f_min / bin_hz))
        b_hi = min(int(math.floor(min(cfg.f_max, nyquist) / bin_hz)), n - 1)
        best_b, best_score = None, -1.0
        for b in range(b_lo, b_hi + 1):
            score = sum(mags[b * h] for h in range(1, 6) if b * h < n)
            if score > best_score:
                best_b, best_score = b, score
        expected = min(max(best_b * bin_hz, cfg.f_min), cfg.f_max)

        est = ml_comb_estimate(spectrum, cfg)
        assert est.f0 == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n_bins", [128, 4097])
@pytest.mark.parametrize("residual", [False, True], ids=["sum", "residual"])
def test_combs_score_harmonics_past_the_last_bin_as_zero(residual, n_bins, rng):
    # the reference pads every row with zeros past each harmonic, so none of
    # its indices runs out; at 128 bins of 10 Hz the upper harmonics of the
    # high candidates do run past the last bin, at 4097 bins none does
    cfg = EstimatorConfig(20.0, 1000.0, 5)
    bins, terms = _comb(n_bins, 10.0, cfg, residual)
    assert (bins * cfg.n_harmonics >= n_bins).any() == (n_bins == 128)
    mags = rng.uniform(0.0, 1.0, (3, n_bins))
    padded = np.concatenate([mags, np.zeros((3, cfg.n_harmonics * n_bins))], axis=1)
    padded_bins, padded_terms = _comb(padded.shape[1], 10.0, cfg, residual)
    assert np.array_equal(padded_bins, bins) and all(i.size == bins.size for i, _ in padded_terms)
    expected = _comb_scores(padded, padded_bins, padded_terms)
    assert np.array_equal(_comb_scores(mags, bins, terms), expected)


@pytest.mark.parametrize("method", ["ml", "stft", "srh"])
def test_a_huge_harmonic_count_stops_past_the_band(method):
    # harmonics past the largest count whose comb still reaches the band
    # add only zeros, so 10^9 of them vote as that count does, at once
    analysis = NoteAnalysis(saw_buffer(220.0, 0.3))
    n_bins = analysis.spectrogram.shape[1]
    b_lo = int(_comb(n_bins, analysis.bin_hz, DEFAULT_CONFIGS[method])[0][0])
    if method == "srh":  # its k-th term also reads the bin nearest (k - 1/2) f
        reach = max(k for k in range(1, n_bins) if math.floor((k - 0.5) * b_lo + 0.5) < n_bins)
    else:
        reach = (n_bins - 1) // b_lo

    def estimate(n_harmonics):
        cfg = dataclasses.replace(DEFAULT_CONFIGS[method], n_harmonics=n_harmonics)
        return estimate_note_many(analysis, {method: cfg})[method]

    expected = estimate(reach)
    t0 = time.perf_counter()
    assert estimate(10**9) == expected
    assert time.perf_counter() - t0 < 1.0


def test_srh_scores_reward_harmonics():
    # peaks at bins 5..25 in steps of 5: candidate bin 5 collects all five
    mags = np.zeros(40)
    mags[[5, 10, 15, 20, 25]] = 1.0
    grid, scores = srh_scores(Spectrum(mags, 100.0))
    assert list(grid.frequencies) == [100.0, 200.0, 300.0, 400.0, 500.0]
    assert scores[4] == pytest.approx(5.0)
    assert np.all(scores[:4] <= 0.5)
    assert comb_vote(mags, 100.0, DEFAULT_CONFIGS["srh"], residual=True) == pytest.approx(500.0)


def test_srh_interharmonic_energy_penalized():
    # energy halfway between candidate 5's harmonics drives its score
    # negative while the true comb on bins of 3 stays positive
    mags = np.zeros(40)
    mags[[8, 13, 18, 23]] = 1.0
    mags[[3, 6, 9, 12, 15]] = 1.0
    grid, scores = srh_scores(Spectrum(mags, 100.0))
    assert scores[4] == pytest.approx(-3.0)
    assert scores[2] == pytest.approx(4.0)
    assert comb_vote(mags, 100.0, DEFAULT_CONFIGS["srh"], residual=True) == pytest.approx(300.0)


# ---------------------------------------------------------------------------
# cepstrum
# ---------------------------------------------------------------------------


def test_cepstrum_impulse_train_exact():
    # period of 100 samples at 16 kHz, on the unwindowed spectrum
    x = np.zeros(2048)
    x[::100] = 1.0
    analysis = one_frame(hann_frames=x[None], sample_rate=16000)
    est = REGISTRY["cepstrum"].note_fn(analysis, DEFAULT_CONFIGS["cepstrum"])
    assert est.f0 == pytest.approx(160.0, abs=1e-9)


def test_cepstrum_noise_stays_in_range(rng):
    est = one_frame_estimate("cepstrum", rng.uniform(-0.5, 0.5, 2048), 16000)
    if est.voiced:
        assert 20.0 <= est.f0 <= 1000.0


def test_cepstrum_silence_unvoiced():
    assert one_frame_estimate("cepstrum", np.zeros(2048), 16000).voiced is False


# ---------------------------------------------------------------------------
# linear prediction
# ---------------------------------------------------------------------------


def test_lpc_whitens_resonant_signal(rng):
    # AR(2) process with a strong resonance; prediction should shrink it
    x = np.zeros(4096)
    e = rng.standard_normal(4096)
    for t in range(2, 4096):
        x[t] = 1.6 * x[t - 1] - 0.81 * x[t - 2] + e[t]
    frame = rect_frame(x[2048:4096], 8000)
    residual = lpc_residual(frame)
    gain = np.var(frame.samples) / np.var(residual.samples)
    assert gain > 5.0


def test_lpc_gain_at_least_one_on_noise(rng):
    for _ in range(5):
        frame = rect_frame(rng.standard_normal(2048), 8000)
        residual = lpc_residual(frame)
        assert np.var(frame.samples) / np.var(residual.samples) >= 0.99


def test_lpc_matches_scalar_levinson_recursion(rng):
    # textbook Levinson-Durbin, one frame at a time, then a direct-form FIR
    order = LPC_ORDER
    for _ in range(5):
        x = np.convolve(rng.standard_normal(2100), [1.0, 1.5, 0.9, 0.3])[:2048]
        r = np.array([np.dot(x[: x.size - k], x[k:]) for k in range(order + 1)])
        a = np.zeros(order + 1)
        a[0], err = 1.0, r[0]
        for i in range(1, order + 1):
            k = -(r[i] + np.dot(a[1:i], r[i - 1 : 0 : -1])) / err
            a[1 : i + 1] = a[1 : i + 1] + k * a[i - 1 :: -1]
            err *= 1.0 - k * k
        expected = np.convolve(x, a)[: x.size]
        got = lpc_residual(rect_frame(x, 8000)).samples
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-9 * np.max(np.abs(x)))


def test_lpc_rejects_bad_inputs():
    # an order-12 predictor needs a frame of more than 12 samples
    with pytest.raises(ValueError):
        lpc_residual(rect_frame(np.ones(LPC_ORDER), 8000))
    with pytest.raises(LpcUnstable):
        lpc_residual(rect_frame(np.zeros(64), 8000))


# ---------------------------------------------------------------------------
# note-level behavior
# ---------------------------------------------------------------------------

ALL_METHODS = sorted(REGISTRY)


def test_registry_lists_all_eight():
    assert ALL_METHODS == ["acf", "cepstrum", "hps", "ml", "nsdf", "srh", "stft", "yin"]


@pytest.mark.parametrize("method", ALL_METHODS)
def test_all_silent_note_is_unvoiced(method):
    note = AudioBuffer(np.zeros(44100 // 4), 44100)
    assert estimate_note(note, method).voiced is False


def test_unknown_method_raises():
    with pytest.raises(KeyError):
        estimate_note(sine_buffer(220.0), "pyin")


SWEEP_METHODS = ["acf", "nsdf", "yin", "hps", "stft", "ml", "srh"]


@pytest.mark.parametrize("method", SWEEP_METHODS)
def test_clean_sawtooth_sweep_within_quarter_tone(method):
    for freq in np.geomspace(110.0, 440.0, 8):
        est = estimate_note(saw_buffer(float(freq), 0.3), method)
        assert est.voiced, (method, freq)
        assert abs(est.f0 - freq) / freq <= QUARTER_TONE, (method, freq, est.f0)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_amplitude_invariance(method):
    loud = estimate_note(saw_buffer(220.0, 0.3, amp=0.5), method)
    soft = estimate_note(saw_buffer(220.0, 0.3, amp=0.005), method)
    assert loud.f0 == pytest.approx(soft.f0, rel=1e-9)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_estimate_is_deterministic(method):
    note = saw_buffer(330.0, 0.3)
    first = estimate_note(note, method)
    second = estimate_note(note, method)
    assert first == second


def test_note_median_over_frames():
    est = estimate_note(saw_buffer(220.0, 0.5), "yin")
    assert est.per_frame is not None
    voiced = [v for v in est.per_frame if v is not None]
    assert est.f0 == pytest.approx(float(np.median(voiced)))


def test_stft_per_frame_is_its_one_vote():
    est = estimate_note(saw_buffer(220.0, 0.5), "stft")
    assert est.per_frame == (est.f0,) and est.voiced
    assert estimate_note(AudioBuffer(np.zeros(4410), 44100), "stft").per_frame == (None,)


def test_note_with_silent_tail_still_voiced():
    samples = np.concatenate([saw_buffer(196.0, 0.3).samples, np.zeros(22050)])
    est = estimate_note(AudioBuffer(samples, 44100), "yin")
    assert est.voiced
    assert est.f0 == pytest.approx(196.0, rel=QUARTER_TONE)


def test_estimate_note_many_matches_single_calls():
    note = saw_buffer(261.63, 0.4)
    analysis = NoteAnalysis(note)
    wanted = {name: None for name in ALL_METHODS}
    combined = estimate_note_many(analysis, wanted)
    for name in ALL_METHODS:
        assert combined[name].f0 == estimate_note(note, name).f0


def test_estimate_note_many_runs_each_method_and_config_once(monkeypatch):
    calls = []

    def counting(analysis, cfg):
        calls.append(cfg)
        return PitchEstimate(100.0)

    monkeypatch.setitem(REGISTRY, "hps", NoteMethod(counting))
    analysis = NoteAnalysis(saw_buffer(220.0, 0.1))
    first = estimate_note_many(analysis, {"hps": None})["hps"]
    assert estimate_note_many(analysis, {"hps": None})["hps"] is first
    assert estimate_note_many(analysis, {"hps": DEFAULT_CONFIGS["hps"]})["hps"] is first
    assert calls == [DEFAULT_CONFIGS["hps"]]

    other = EstimatorConfig(100.0, 500.0, 3)
    assert estimate_note_many(analysis, {"hps": other})["hps"] is not first
    estimate_note_many(analysis, {"hps": other})
    assert calls == [DEFAULT_CONFIGS["hps"], other]

    estimate_note_many(NoteAnalysis(analysis.note), {"hps": None})
    assert calls == [DEFAULT_CONFIGS["hps"], other, DEFAULT_CONFIGS["hps"]]


def _mixed_note(fs=44100):
    # sawtooth frames, a silent stretch, a pure tone whose Hann frames
    # drive the order-12 recursion to collapse on some frames, white noise,
    # on which yin finds no dip, and a random walk, whose NSDF falls from
    # lag 0 across the whole window so that nsdf finds no peak either
    rng = np.random.default_rng(7)
    walk = np.cumsum(rng.standard_normal(int(0.2 * fs)))
    return AudioBuffer(np.concatenate([
        sawtooth(220.0, int(0.3 * fs), fs),
        np.zeros(int(0.15 * fs)),
        sine(440.0, int(0.3 * fs), fs),
        rng.uniform(-0.3, 0.3, int(0.2 * fs)),
        0.3 * walk / np.abs(walk).max(),
    ]), fs)


def _lpc_breaks_down(frame):
    try:
        lpc_residual(frame)
        return False
    except LpcUnstable:
        return True


def _frame(analysis, i):
    """A stand-in NoteAnalysis holding frame i of analysis alone."""
    one = slice(i, i + 1)
    return SimpleNamespace(
        sample_rate=analysis.sample_rate, bin_hz=analysis.bin_hz, live=analysis.live[one],
        spectrogram=analysis.spectrogram[one], hann_frames=analysis.hann_frames[one],
        energy=analysis.energy[one],
        rect_corr=tuple(matrix[one] for matrix in analysis.rect_corr),
    )


def test_note_kernels_match_frame_level_functions():
    analysis = NoteAnalysis(_mixed_note())
    methods = ("hps", "ml", "srh", "cepstrum", "acf", "nsdf", "yin")
    got = estimate_note_many(analysis, {m: None for m in methods})
    fs, live = analysis.sample_rate, analysis.live

    # Each kernel but srh on the whole note equals its one-row calls exactly.
    for method in methods:
        if method == "srh":
            continue
        rows = [REGISTRY[method].note_fn(_frame(analysis, i), DEFAULT_CONFIGS[method])
                for i in range(len(live))]
        assert got[method].per_frame == tuple(row.per_frame[0] for row in rows), method

    # srh fits one predictor to the note's live frames, so a frame's vote
    # reads the other frames' samples but no other frame's spectrum: it is
    # the vote it gets when every frame's spectrum is its own.
    srh = got["srh"].per_frame
    for i in np.flatnonzero(live):
        alike = SimpleNamespace(
            sample_rate=fs, bin_hz=analysis.bin_hz, live=live, hann_frames=analysis.hann_frames,
            energy=analysis.energy,
            spectrogram=np.broadcast_to(analysis.spectrogram[i], analysis.spectrogram.shape))
        assert REGISTRY["srh"].note_fn(alike, DEFAULT_CONFIGS["srh"]).per_frame[i] == srh[i], i

    # srh votes unvoiced exactly on silent frames: the one-frame LPC breaks
    # down on some live frames (the pure tone), but the note's does not
    broken = [_lpc_breaks_down(rect_frame(row, fs)) for row in analysis.hann_frames]
    assert any(b and row_live for b, row_live in zip(broken, live))
    assert [v is None for v in srh] == list(~live)

    # Lag members: each frame as a one-frame note. The note path transforms
    # all frames in one batched rFFT, whose last bits may differ from a
    # one-row transform's.
    silent = list(~live)
    for method in ("acf", "nsdf", "yin"):
        expected = [one_frame_estimate(method, row, fs).f0 for row in analysis.rect_matrix]
        assert [v is None for v in got[method].per_frame] == silent
        assert [e is None for e in expected] == silent
        voiced = [v for v in got[method].per_frame if v is not None]
        assert voiced == pytest.approx([e for e in expected if e is not None], rel=1e-12)


def _gapped_note(fs=44100):
    """A note with silent frames between loud ones."""
    return AudioBuffer(np.concatenate([
        sawtooth(220.0, int(0.2 * fs), fs), np.zeros(int(0.2 * fs)), sawtooth(330.0, int(0.2 * fs), fs),
    ]), fs)


def test_no_kernel_is_handed_a_silent_row(monkeypatch):
    # every kernel gets the live rows alone (srh's are the rows of mags, its
    # second argument; its first is the note's one predictor), and stft its
    # one summed row
    analysis = NoteAnalysis(_gapped_note())
    n_live = int(analysis.live.sum())
    assert 0 < n_live < len(analysis.live) - 5
    handed = []
    for name, matrix in (("_comb_f0s", 0), ("_lag_f0s", 0), ("_srh_f0s", 1)):
        kernel = getattr(estimators, name)
        monkeypatch.setattr(estimators, name, lambda *args, _kernel=kernel, _name=name, _i=matrix: (
            handed.append((_name, len(args[_i]))) or _kernel(*args)))
    for method in ALL_METHODS:
        handed.clear()
        estimate = estimate_note_many(analysis, {method: None})[method]
        expected = 1 if method == "stft" else n_live
        assert handed and all(n == expected for _, n in handed), (method, handed)
        assert sum(v is not None for v in estimate.per_frame) == expected, method


def test_stft_votes_on_the_live_frames_alone():
    # an analysis whose spectrogram and silence mask are set by hand: its
    # silent rows peak, louder, at another pitch than its live row, and
    # stft votes the live row's pitch
    analysis = NoteAnalysis(saw_buffer(220.0, 0.3))
    live_row, silent_row = np.zeros(1025), np.zeros(1025)
    live_row[[41, 82, 123]] = 1.0
    silent_row[[61, 122, 183]] = 100.0
    analysis.__dict__.update(spectrogram=np.stack([silent_row, live_row, silent_row]),
                             live=np.array([False, True, False]))
    cfg, bin_hz = DEFAULT_CONFIGS["stft"], analysis.bin_hz
    expected = comb_vote(live_row, bin_hz, cfg)
    assert expected == 41 * bin_hz != comb_vote(2 * silent_row + live_row, bin_hz, cfg)
    assert REGISTRY["stft"].note_fn(analysis, cfg).per_frame == (expected,)
    assert np.array_equal(analysis.live_spectrum, live_row)


def srh_predictor(analysis, monkeypatch):
    """The one predictor by which srh whitens analysis's live frames."""
    seen = []
    kernel = estimators._srh_f0s
    monkeypatch.setattr(estimators, "_srh_f0s", lambda a, *args: seen.append(a) or kernel(a, *args))
    estimate_note_many(analysis, {"srh": None})
    (a,) = seen
    return a


def textbook_predictor(rows, r0=None):
    """Textbook Levinson-Durbin on autocorrelation lags 0..LPC_ORDER summed
    over rows by direct products, with r0 for lag 0 when given."""
    n = rows.shape[1]
    r = [sum(np.dot(row[: n - k], row[k:]) for row in rows) for k in range(LPC_ORDER + 1)]
    r[0] = r[0] if r0 is None else r0
    a = np.zeros(LPC_ORDER + 1)
    a[0], err = 1.0, r[0]
    for i in range(1, LPC_ORDER + 1):
        k = -(r[i] + np.dot(a[1:i], r[i - 1 : 0 : -1])) / err
        a[1 : i + 1] = a[1 : i + 1] + k * a[i - 1 :: -1]
        err *= 1.0 - k * k
    return a


def test_live_and_srh_share_one_frame_energy(monkeypatch):
    # live thresholds each Hann frame's sum of squares, and srh's predictor
    # takes that same array, summed over the live frames, as its lag 0: with
    # energy raised by hand on every frame, silent ones too, the predictor
    # is the textbook one on that sum and the live frames' own lags 1-12
    analysis = NoteAnalysis(_gapped_note())
    hann = analysis.hann_frames
    assert np.array_equal(analysis.energy, np.einsum("ij,ij->i", hann, hann))
    assert np.array_equal(analysis.live, analysis.energy >= FRAME_LEN * SILENCE_RMS**2)
    assert analysis.live.any() and not analysis.live.all()
    assert np.array_equal(analysis.live, np.sqrt(np.mean(hann**2, axis=1)) >= SILENCE_RMS)
    energy = analysis.energy + 1.0
    analysis.__dict__["energy"] = energy
    expected = textbook_predictor(hann[analysis.live], energy[analysis.live].sum())
    assert not np.allclose(expected, textbook_predictor(hann[analysis.live]), rtol=1e-3)
    np.testing.assert_allclose(srh_predictor(analysis, monkeypatch), expected, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("first_only", [False, True], ids=["live", "hand_set_live"])
def test_srh_fits_one_predictor_to_the_live_frames(first_only, monkeypatch):
    # the note's one predictor is the textbook one on the lags of its live
    # Hann frames alone; with live set by hand to the first sawtooth's
    # frames, the loud frames of the second add nothing to it
    analysis = NoteAnalysis(_gapped_note())
    live = analysis.live.copy()
    if first_only:
        live[len(live) // 2 :] = False
        analysis.__dict__["live"] = live
    expected = textbook_predictor(analysis.hann_frames[live])
    np.testing.assert_allclose(srh_predictor(analysis, monkeypatch), expected, rtol=1e-9, atol=1e-12)


def test_padding_a_note_with_silent_frames_leaves_srh_voiced_votes(rng):
    # a note that starts and ends in a frame of silence, padded with whole
    # hops of noise below the silence threshold: every frame of the note is
    # a frame of the padded note, and the new frames are silent, so the
    # predictor, and with it every voiced vote, stays
    fs = 44100
    note = np.concatenate([np.zeros(FRAME_LEN), sawtooth(220.0, int(0.2 * fs), fs), np.zeros(FRAME_LEN)])
    hops = lambda n: 2e-5 * rng.uniform(-1.0, 1.0, n * HOP)
    padded = NoteAnalysis(AudioBuffer(np.concatenate([hops(3), note, hops(5)]), fs))
    plain = NoteAnalysis(AudioBuffer(note, fs))
    assert len(padded.live) == len(plain.live) + 8 and plain.live.sum() == padded.live.sum()
    assert not padded.live[:3].any() and padded.energy[:3].all()
    votes = [[v for v in estimate_note_many(a, {"srh": None})["srh"].per_frame if v is not None]
             for a in (plain, padded)]
    assert votes[0] and votes[0] == votes[1]


# 8 harmonics of up to 1 kHz: a comb reaching 8 kHz, past the band's
# last bin at 5.5 kHz at 44.1 kHz
PAST_THE_BAND = EstimatorConfig(80.0, 1000.0, 8)


@pytest.mark.parametrize("cfg, fs", [
    (DEFAULT_CONFIGS["srh"], 44100),
    # a comb reaching past srh's default f_max times n_harmonics, and past
    # the band
    (PAST_THE_BAND, 44100),
    # q = 1: the band is the full-rate spectrum
    (DEFAULT_CONFIGS["srh"], 16000),
], ids=["default", "past_the_band", "default_at_16k"])
def test_srh_residual_spectrum_matches_a_second_fft(cfg, fs):
    # the comb past the band scores its harmonics there as 0, so 12 of its
    # frames vote otherwise than on the full-rate residual
    differ = check_residual_against_a_second_fft(cfg, fs)
    assert differ == (12 if cfg == PAST_THE_BAND else 0)


def check_residual_against_a_second_fft(cfg, fs):
    # srh whitens the band's Hann magnitudes by |A|, the DFT of the note's
    # one predictor, fitted to its live full-rate Hann frames
    # (textbook_predictor), zero-padded to the full-rate FFT length. Two
    # references, each from a second FFT:
    # - the band's magnitudes times |A| taken by an rFFT of the predictor;
    # - the full-rate residual spectrum: each Hann frame convolved with the
    #   note's predictor in full, which fits in the FFT length, and transformed
    #   again. The band's magnitudes are the full-rate ones over q to
    #   1.6e-4 of the frame's peak below 4 kHz, so the product matches
    #   there to 2e-4 of it times |A|'s largest gain there, where that
    #   gain is above 1 (1.35 at 3.7 kHz at 44.1 kHz); at q = 1 it is the
    #   residual spectrum itself, to rounding.
    # Where the predictor attenuates a frame's spectrum most, either way of
    # computing the product rounds at the frame's scale, so the tolerances
    # have a floor there.
    # srh's votes must be those picked from the full-rate residual spectrum
    # when its comb stays below 4 kHz. A comb reaching past the band votes
    # on the band product, and the frames where that differs from the
    # full-rate pick are counted.
    analysis = NoteAnalysis(_mixed_note(fs))
    pad, hann, q = N_FFT, analysis.hann_frames, analysis.decimation
    assert q == (4 if fs == 44100 else 1)
    mags = analysis.spectrogram
    rows = np.flatnonzero(analysis.live)
    a = textbook_predictor(hann[rows])
    bins = _comb(mags.shape[1], fs / pad, cfg)[0]
    top = min(mags.shape[1], bins[-1] * cfg.n_harmonics + 1)
    edge = math.floor(4000.0 / analysis.bin_hz) + 1
    in_band = bins[-1] * cfg.n_harmonics + 1 <= edge
    flat = min(top, edge)
    got = _whitened(a, mags[rows, :top])
    gain = np.abs(np.fft.rfft(a, n=pad))

    def vote(spectrum):
        grid, scores = srh_scores(Spectrum(spectrum, fs / pad), cfg)
        return min(max(float(grid.frequencies[np.argmax(scores)]), cfg.f_min), cfg.f_max)

    votes = [None] * len(hann)
    differ = 0
    for j, i in enumerate(rows):
        product = mags[i, :top] * gain[:top]
        np.testing.assert_allclose(got[j], product, rtol=1e-9, atol=1e-9 * mags[i].max())
        residual = np.abs(np.fft.rfft(np.convolve(hann[i], a), n=pad))
        peak = np.abs(np.fft.rfft(hann[i], n=pad)).max()
        bound = (2e-4 if q > 1 else 1e-9) * peak * max(1.0, gain[:flat].max())
        assert np.abs(q * got[j, :flat] - residual[:flat]).max() <= bound
        votes[i] = vote(residual) if in_band else vote(product)
        differ += votes[i] != vote(residual)
    assert rows.size and REGISTRY["srh"].note_fn(analysis, cfg).per_frame == tuple(votes)
    return differ


def test_the_note_path_takes_one_forward_rfft(monkeypatch):
    # the ensemble's members, refine_f0 and an srh comb reaching past its
    # default band all read the one Hann rFFT of NoteAnalysis
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *args, **kw: calls.append(1) or rfft(*args, **kw))
    analysis = NoteAnalysis(saw_buffer(220.0, 0.3))
    votes = estimate_note_many(analysis, {m: None for m in DEFAULT_MEMBERS})
    refine_f0(analysis, votes["hps"].f0)
    assert estimate_note_many(analysis, {"srh": EstimatorConfig(80.0, 1000.0, 8)})["srh"].voiced
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the band
# ---------------------------------------------------------------------------


BAND_DECIMATION = {
    8000: 1, 11025: 1, 16000: 1, 22050: 2, 24000: 2, 44100: 4, 48000: 4, 96000: 8,
    # the top of the benchmark's rates: q stops at the band's 11025 Hz floor
    128000: 8, 192000: 16,
}


@pytest.mark.parametrize("fs", BAND_DECIMATION)
def test_band_decimation_per_rate(fs):
    q = BAND_DECIMATION[fs]
    analysis = NoteAnalysis(saw_buffer(220.0, 0.2, fs))
    assert analysis.decimation == q
    assert analysis.band_frames.shape[1] == FRAME_LEN // q
    assert analysis.spectrogram.shape[1] == N_FFT // (2 * q) + 1
    assert analysis.bin_hz == fs / N_FFT


@pytest.mark.parametrize("fs", [22050, 44100, 96000])
def test_band_has_as_many_frames_as_the_full_rate(fs, rng):
    q = NoteAnalysis(AudioBuffer(np.ones(1), fs)).decimation
    assert q > 1
    lengths = [1, 2, 3, 100, FRAME_LEN - 1, FRAME_LEN]
    # every residue mod q, on both sides of a frame boundary
    lengths += [FRAME_LEN + 3 * HOP + r for r in range(-q, q)]
    for n in lengths:
        analysis = NoteAnalysis(AudioBuffer(rng.uniform(-0.3, 0.3, n), fs))
        assert analysis.band_frames.shape == (len(analysis.rect_matrix), FRAME_LEN // q)
        assert len(analysis.spectrogram) == len(analysis.live)


def test_band_spectrum_is_the_full_rate_one_below_4_khz():
    # band frame k spans full-rate frame k, and the band is flat to about
    # 4 kHz at 44.1 kHz: there its magnitudes are the full-rate ones over q
    analysis = NoteAnalysis(_mixed_note())
    q, live = analysis.decimation, analysis.live
    full = np.abs(np.fft.rfft(analysis.hann_frames, n=N_FFT, axis=1))
    flat = math.floor(4000.0 / analysis.bin_hz) + 1
    error = np.abs(q * analysis.spectrogram[:, :flat] - full[:, :flat]).max(axis=1)
    assert q == 4 and np.all(error[live] <= 2e-4 * full[live].max(axis=1))


def test_cepstrum_votes_match_the_padded_full_rate_spectrum(monkeypatch):
    # every (N_FFT / FRAME_LEN)-th bin of the full-rate spectrum zero-padded
    # to N_FFT is the frame's own spectrum, which cepstrum takes itself
    note = _mixed_note()
    got = estimate_note_many(NoteAnalysis(note), {"cepstrum": None})["cepstrum"].per_frame
    padded = lambda frames: np.abs(np.fft.rfft(frames, n=N_FFT, axis=1))[:, :: N_FFT // FRAME_LEN]
    monkeypatch.setattr(estimators, "magnitude_spectra", padded)
    expected = estimate_note_many(NoteAnalysis(note), {"cepstrum": None})["cepstrum"].per_frame
    assert got == expected and any(v is not None for v in got)


def test_stft_comb_past_the_band_finds_a_high_note():
    # f_max 2000 Hz with 4 harmonics reaches 8 kHz, past the band's last
    # bin at 5.5 kHz; the harmonics beyond it score 0
    cfg = EstimatorConfig(MELODY_F_MIN, 2000.0, 4)
    analysis = NoteAnalysis(saw_buffer(1500.0, 0.3))
    assert cfg.f_max * cfg.n_harmonics > analysis.bin_hz * (analysis.spectrogram.shape[1] - 1)
    f0 = estimate_note_many(analysis, {"stft": cfg})["stft"].f0
    assert abs(f0 / 1500.0 - 1.0) < QUARTER_TONE


def test_hps_default_ceiling_is_the_bands():
    # hps's harmonics must fit the band, so at 44.1 kHz (q = 4) its default
    # search stops at 5512.5 / 3 = 1.84 kHz and a 2.5 kHz note is gross;
    # at 16 kHz (q = 1) the ceiling is 8000 / 3 = 2.67 kHz and it is found
    high = NoteAnalysis(saw_buffer(2500.0, 0.3, 44100))
    assert high.decimation == 4
    f0 = estimate_note_many(high, {"hps": None})["hps"].f0
    assert f0 <= 44100 / 8 / 3
    low = NoteAnalysis(saw_buffer(2500.0, 0.3, 16000))
    assert low.decimation == 1
    assert estimate_note_many(low, {"hps": None})["hps"].f0 == pytest.approx(2500.0, rel=QUARTER_TONE)


@pytest.mark.parametrize("method", ["hps", "stft", "ml", "srh"])
def test_comb_range_above_the_band_is_out_of_range(method):
    # at 44.1 kHz the band's Nyquist is 5512.5 Hz: a range starting above
    # it has no candidate, though it lies below the full-rate Nyquist
    analysis = NoteAnalysis(saw_buffer(2500.0, 0.3, 44100))
    with pytest.raises(ConfigOutOfRange, match="5512.5 Hz"):
        estimate_note_many(analysis, {method: EstimatorConfig(6000.0, 7000.0, 2)})


def test_comb_is_kept_read_only():
    cfg = EstimatorConfig(80.0, 1000.0, 4)
    bin_hz = 44100 / N_FFT
    bins = np.arange(math.ceil(80.0 / bin_hz), math.floor(1000.0 / bin_hz) + 1)
    for residual in (False, True):
        comb = _comb(1025, 44100 / N_FFT, cfg, residual)
        again = _comb(1025, 44100 / N_FFT, cfg, residual)
        assert again[0] is comb[0] and np.array_equal(comb[0], bins)
        assert not comb[0].flags.writeable
        assert all(a is b for (a, _), (b, _) in zip(again[1], comb[1]))
        assert len(comb[1]) == (6 if residual else 3)
        assert not any(idx.flags.writeable for idx, _ in comb[1])


class TestRefineF0:
    def _one_frame(self, samples):
        # at 11025 Hz the band is the full-rate Hann frame (q = 1), so the
        # spectrogram holds the frame's exact DFT magnitudes
        analysis = NoteAnalysis(AudioBuffer(samples, 11025))
        assert analysis.decimation == 1
        return analysis

    def test_silent_note_keeps_f0(self):
        analysis = NoteAnalysis(AudioBuffer(np.zeros(4096), 44100))
        assert not analysis.live.any()
        assert refine_f0(analysis, 220.0) == 220.0

    def test_window_without_a_peak_keeps_f0(self):
        # a doublet at the Hann window's centre: its magnitude rises over
        # the whole band, so every window's largest bin has a larger
        # neighbour above it
        x = np.zeros(2048)
        x[1024], x[1025] = 1.0, -1.0
        analysis = self._one_frame(x)
        assert np.all(np.diff(analysis.spectrogram[0]) > 0)
        assert refine_f0(analysis, 220.0) == 220.0

    def test_flat_spectrum_keeps_f0(self):
        # a click at the Hann window's centre: every bin has magnitude 1,
        # so no parabola is concave
        x = np.zeros(2048)
        x[1024] = 1.0
        analysis = self._one_frame(x)
        assert np.all(analysis.spectrogram == 1.0)
        for f0 in (110.0, 220.0, 1000.0):
            assert refine_f0(analysis, f0) == f0

    def test_stays_inside_the_window(self):
        # guesses off by a few percent, a fifth or an octave, on tones and
        # on noise: the result never leaves +-3% of the guess
        rng = np.random.default_rng(4242)
        notes = [saw_buffer(f, 0.3) for f in rng.uniform(110.0, 440.0, 6)]
        notes.append(AudioBuffer(rng.uniform(-0.3, 0.3, 13230), 44100))
        for note in notes:
            analysis = NoteAnalysis(note)
            for guess in rng.uniform(80.0, 900.0, 40):
                got = refine_f0(analysis, guess)
                assert abs(got / guess - 1.0) <= REFINE_WINDOW

    @pytest.mark.parametrize("fs", [22050, 44100])
    def test_off_grid_sawtooth_within_a_fifth_of_a_hz(self, fs):
        # the guess is the truth rounded to the nearest bin, as a member's
        # pick is
        rng = np.random.default_rng(2718)
        guess_errors = []
        for f in rng.uniform(110.0, 440.0, 12):
            analysis = NoteAnalysis(saw_buffer(f, 0.3, fs))
            guess = round(f / analysis.bin_hz) * analysis.bin_hz
            guess_errors.append(abs(guess - f))
            assert abs(refine_f0(analysis, guess) - f) < 0.2
        assert max(guess_errors) > 1.0


def _refined_lag(values, tau):
    y_minus, y_center, y_plus = values[tau - 1], values[tau], values[tau + 1]
    denom = y_minus - 2.0 * y_center + y_plus
    offset = 0.5 * (y_minus - y_plus) / denom if denom != 0.0 else 0.0
    return tau + (offset if abs(offset) <= 1.0 else 0.0)


def test_lag_pickers_match_scalar_reference():
    # lag window of the default 20-1000 Hz range at 44.1 kHz
    lo, hi, fs = 45, 1024, 44100
    lags = range(lo, hi + 1)
    analysis = NoteAnalysis(_mixed_note())
    got = estimate_note_many(analysis, {"nsdf": None, "yin": None})
    r, m = analysis.rect_corr
    no_peak = no_dip = 0
    for i in np.flatnonzero(analysis.live):
        n = nsdf_matrix(r[i : i + 1], m[i : i + 1])[0]
        threshold = NSDF_PEAK_FRACTION * n[lo : hi + 1].max()
        peaks = [t for t in lags if n[t] >= threshold and n[t - 1] < n[t] >= n[t + 1]]
        # without a peak: the window's maximum, ties to the longest lag
        tau = peaks[0] if peaks else max(lags, key=lambda t: (n[t], t))
        no_peak += not peaks
        assert got["nsdf"].per_frame[i] == min(max(fs / _refined_lag(n, tau), 20.0), 1000.0)

        d = cmnd_matrix(r[i : i + 1], m[i : i + 1])[0]
        dips = [t for t in lags if d[t] < YIN_THRESHOLD]
        if dips:
            tau = dips[0]
            while tau < hi and d[tau + 1] < d[tau]:
                tau += 1
        else:
            tau = min(lags, key=lambda t: (d[t], -t))
        no_dip += not dips
        assert got["yin"].per_frame[i] == min(max(fs / _refined_lag(d, tau), 20.0), 1000.0)
    assert no_peak and no_dip


def test_custom_range_clamps_note_estimate():
    cfg = EstimatorConfig(300.0, 500.0)
    est = estimate_note(saw_buffer(220.0, 0.3), "yin", cfg)
    if est.voiced:
        assert 300.0 <= est.f0 <= 500.0


@pytest.mark.parametrize("method", ALL_METHODS)
def test_noise_estimates_stay_in_configured_range(method, rng):
    cfg_kwargs = {"n_harmonics": DEFAULT_CONFIGS[method].n_harmonics}
    cfg = EstimatorConfig(100.0, 450.0, **cfg_kwargs)
    for _ in range(5):
        note = AudioBuffer(rng.uniform(-0.4, 0.4, 22050), 44100)
        est = estimate_note(note, method, cfg)
        if est.voiced:
            assert 100.0 <= est.f0 <= 450.0
