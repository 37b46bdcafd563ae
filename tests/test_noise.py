import hashlib

import numpy as np
import pytest
from scipy import signal as sps

from pitchlab.audio_io import write_wav
from pitchlab.errors import EmptyBuffer, SampleRateMismatch, SilentNoise
from pitchlab.evaluation import synth_song
from pitchlab.noise import (
    SYNTH_NOISE_S,
    NoiseRef,
    NoiseSource,
    Scenario,
    extend_to_length,
    measure_snr,
    mix_at_snr,
    refs_from_dir,
    scenario_grid,
    synth_noise,
    synthetic_noise_refs,
)
from pitchlab.sigproc import AudioBuffer

from conftest import sine


def constant_noise(value, n=1000, rate=8000):
    return NoiseSource(noise_id="const", buffer=AudioBuffer(np.full(n, value), rate))


class TestMixAtSnr:
    def test_zero_db_equal_power_gain(self):
        # signal power 1, noise power 4: gain must be exactly 1/2
        signal = AudioBuffer(np.ones(1000), 8000)
        mixed = mix_at_snr(signal, constant_noise(2.0), 0.0)
        assert np.allclose(mixed.samples, 2.0)

    def test_twenty_db_gain(self):
        signal = AudioBuffer(np.ones(1000), 8000)
        mixed = mix_at_snr(signal, constant_noise(2.0), 20.0)
        assert np.allclose(mixed.samples, 1.1)

    def test_mix_is_exactly_signal_plus_scaled_noise(self, rng):
        x = rng.standard_normal(4000) * 0.2
        n = rng.standard_normal(4000)
        signal = AudioBuffer(x, 8000)
        noise = NoiseSource("n", AudioBuffer(n, 8000))
        snr = 7.5
        mixed = mix_at_snr(signal, noise, snr)
        gain = np.sqrt(np.mean(x**2) / (np.mean(n**2) * 10.0 ** (snr / 10.0)))
        assert np.array_equal(mixed.samples, x + gain * n)

    @pytest.mark.parametrize("kind, n_noise, seed, snr, digest", [
        ("pink", 5003, 3, 0.0, "1988cee9e7f6492306053de6d221d3f12e4ca4628d054fbaae1c754005ce1370"),
        ("white", 52727, 4, -5.0, "8b3d7a4c0fd07bc766656ae0db655a4999bf2710719a704a94d8f4088ca47489"),
    ])
    def test_mixes_are_pinned(self, kind, n_noise, seed, snr, digest):
        # SHA-256 of the float64 mix of synth_song(5, 8000), 51,493 samples
        # long, with a noise looped up to that length and one cut down to it
        song, _ = synth_song(5, 8000)
        mixed = mix_at_snr(song, synth_noise(kind, n_noise, 8000, seed), snr)
        assert hashlib.sha256(mixed.samples.tobytes()).hexdigest() == digest

    def test_short_noise_is_looped(self):
        signal = AudioBuffer(np.ones(1000), 8000)
        burst = NoiseSource("n", AudioBuffer(np.array([1.0, -1.0]), 8000))
        mixed = mix_at_snr(signal, burst, 0.0)
        # looped +1/-1 alternation scaled to power 1
        assert np.allclose(np.abs(mixed.samples - 1.0), 1.0)

    def test_output_not_renormalized(self, caplog):
        loud = AudioBuffer(sine(100.0, 8000, 8000, amp=0.9), 8000)
        with caplog.at_level("INFO"):
            mixed = mix_at_snr(loud, constant_noise(1.0, rate=8000), -5.0)
        assert np.max(np.abs(mixed.samples)) > 1.0

    def test_rate_mismatch_rejected(self):
        signal = AudioBuffer(np.ones(100), 8000)
        with pytest.raises(SampleRateMismatch):
            mix_at_snr(signal, constant_noise(1.0, rate=16000), 0.0)

    @pytest.mark.parametrize("snr", [1e300, -4000.0, np.inf])
    def test_out_of_range_snr_rejected(self, snr):
        signal = AudioBuffer(np.ones(100), 8000)
        with pytest.raises(ValueError, match="SNR must be finite"):
            mix_at_snr(signal, constant_noise(1.0, n=100), snr)

    def test_silent_noise_rejected(self):
        # the noise's only energy lies past the 100 samples it is cut to
        signal = AudioBuffer(np.ones(100), 8000)
        late = NoiseSource("late", AudioBuffer(np.r_[np.zeros(100), 1.0], 8000))
        with pytest.raises(SilentNoise):
            mix_at_snr(signal, late, 0.0)
        for silent in (np.zeros(100), np.full(100, -0.0), np.zeros(0)):
            with pytest.raises(SilentNoise):
                NoiseSource("z", AudioBuffer(silent, 8000))

    def test_empty_signal_rejected(self):
        # no samples have no power to measure an SNR against
        with pytest.raises(EmptyBuffer):
            mix_at_snr(AudioBuffer(np.zeros(0), 8000), constant_noise(1.0, rate=8000), 0.0)


class TestMeasureSnr:
    def test_worked_example(self):
        signal = np.ones(100)
        noise = np.full(100, 0.1)
        assert measure_snr(signal, noise) == pytest.approx(20.0)

    def test_silent_signal_is_minus_infinity(self):
        assert measure_snr(np.zeros(10), np.ones(10)) == -np.inf

    def test_silent_noise_rejected(self):
        with pytest.raises(SilentNoise):
            measure_snr(np.ones(10), np.zeros(10))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            measure_snr(np.ones(10), np.ones(11))


class TestExtendToLength:
    def test_truncates(self):
        out = extend_to_length(np.arange(10.0), 4)
        assert np.array_equal(out, np.arange(4.0))

    def test_tiles(self):
        out = extend_to_length(np.array([1.0, 2.0]), 5)
        assert np.array_equal(out, np.array([1.0, 2.0, 1.0, 2.0, 1.0]))

    def test_tiling_preserves_character(self, rng):
        x = rng.standard_normal(1000)
        out = extend_to_length(x, 3777)
        original_rms = np.sqrt(np.mean(x**2))
        tiled_rms = np.sqrt(np.mean(out**2))
        assert abs(tiled_rms - original_rms) / original_rms < 0.2


class TestSynthNoise:
    def test_deterministic_per_seed(self):
        a = synth_noise("pink", 4096, 16000, 7)
        b = synth_noise("pink", 4096, 16000, 7)
        c = synth_noise("pink", 4096, 16000, 8)
        assert np.array_equal(a.buffer.samples, b.buffer.samples)
        assert not np.array_equal(a.buffer.samples, c.buffer.samples)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            synth_noise("brown", 1024, 8000, 0)

    @pytest.mark.parametrize("kind", ["pink", "hum50", "babble"])
    def test_peak_normalized(self, kind):
        src = synth_noise(kind, 32768, 16000, 3)
        assert np.max(np.abs(src.buffer.samples)) == pytest.approx(0.95)

    def test_white_is_spectrally_flat(self):
        src = synth_noise("white", 262144, 44100, 5)
        slope = self._psd_slope_db_per_octave(src.buffer.samples, 44100)
        assert abs(slope) < 1.0

    def test_pink_rolls_off_three_db_per_octave(self):
        src = synth_noise("pink", 262144, 44100, 5)
        slope = self._psd_slope_db_per_octave(src.buffer.samples, 44100)
        assert slope == pytest.approx(-3.0, abs=1.0)

    @staticmethod
    def _psd_slope_db_per_octave(x, rate):
        freqs, psd = sps.welch(x, fs=rate, nperseg=8192)
        band = (freqs >= 100.0) & (freqs <= 10000.0)
        octaves = np.log2(freqs[band])
        level_db = 10.0 * np.log10(psd[band])
        slope, _ = np.polyfit(octaves, level_db, 1)
        return slope

    def test_hum_has_odd_harmonics_only(self):
        rate = 8000
        src = synth_noise("hum50", rate * 4, rate, 2)
        spec = np.abs(np.fft.rfft(src.buffer.samples))
        hz_per_bin = rate / (rate * 4)

        def level(freq):
            return spec[int(round(freq / hz_per_bin))]

        assert level(50.0) > 100.0 * level(100.0)
        assert level(150.0) > 100.0 * level(200.0)

    def test_babble_is_band_limited(self):
        rate = 16000
        src = synth_noise("babble", rate * 2, rate, 4)
        spec = np.abs(np.fft.rfft(src.buffer.samples)) ** 2
        freqs = np.fft.rfftfreq(rate * 2, 1.0 / rate)
        in_band = spec[(freqs >= 100.0) & (freqs <= 4000.0)].sum()
        out_band = spec[freqs > 4800.0].sum() + spec[freqs < 60.0].sum()
        assert out_band < 0.01 * in_band

    @pytest.mark.parametrize("seed, rate, n_samples, digest", [
        (3, 8000, 16007, "cbd39218ed49c7d1133573a3f8e04bfa22100bd2e7ace5562c7a0477e007fe0c"),
        (11, 22050, 22057, "2fc0822cd7566565bd288e48200319dd2ded135990dc2d3dd12639aeed559490"),
        (77, 22050, 22057, "b70cab5c02e981e85f9f745ebdab3c20bea4ea9c264cf41ab00e2119fcd697b9"),
    ])
    def test_babble_samples_are_pinned(self, seed, rate, n_samples, digest):
        # SHA-256 of the float64 samples: however the streams are built
        # and summed, every bit of the noise must stay the same
        samples = synth_noise("babble", n_samples, rate, seed).buffer.samples
        assert hashlib.sha256(samples.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("kind, seed, rate, n_samples, digest", [
        ("white", 3, 8000, 16007, "548a6673dafdbf8b759a11e7146247672ccbf9c84069e7f7a254fba04f1c4333"),
        ("white", 11, 22050, 22057, "01755af289759feb1b6a64e287be24a49fdfe74f1909e1568c04c2fd3a598342"),
        ("white", 77, 22050, 22057, "e32b5c0d5e5fd92bc37a2efcc8ff7efca40a066d10f8582e427437823473e8e7"),
        ("pink", 3, 8000, 16007, "cbb87554b06f4ff78598539dc029005a0e1b8707224ee07b2f071f5a6fe219d2"),
        ("pink", 11, 22050, 22057, "c3a050f38628eefa3dc6c3bfc76b1810a137c86366c46a0b13bb9d474a49319e"),
        ("pink", 77, 22050, 22057, "281e936ddd67e1f1e830a2b6883c3c0482b5a74f47623e1d6205c045e3b701b6"),
        ("hum50", 3, 8000, 16007, "2360a9539dfbf001a74769a9f0bcb63de8f9e5f63bf15ccd0e309c34f2a6d88d"),
        ("hum50", 11, 22050, 22057, "b6a8e12648f2c181ba0275def26343c7644064c07e8864617146411be6067e4d"),
        ("hum50", 77, 22050, 22057, "e52f4a6c63e3b0a2b0ebe5c2a2ffe701a7d0db50ee3dbd1ce251c1ca825150cd"),
    ])
    def test_other_kinds_are_pinned(self, kind, seed, rate, n_samples, digest):
        samples = synth_noise(kind, n_samples, rate, seed).buffer.samples
        assert hashlib.sha256(samples.tobytes()).hexdigest() == digest


class TestScenarios:
    def test_noise_major_ordering(self):
        grid = scenario_grid((1, 2), (-5.0, 0.0, 10.0))
        assert [(s.noise_id, s.snr_db) for s in grid] == [
            (1, -5.0), (1, 0.0), (1, 10.0),
            (2, -5.0), (2, 0.0), (2, 10.0),
        ]

    def test_scenario_fields(self):
        s = Scenario(3, 10.0)
        assert s.noise_id == 3
        assert s.snr_db == 10.0


class TestNoiseRefs:
    def test_synth_ref_resolves_deterministically(self):
        ref = NoiseRef(synth_kind="pink", seed=5)
        a = ref.resolve(16000)
        b = ref.resolve(16000)
        assert a.noise_id == "pink"
        assert np.array_equal(a.buffer.samples, b.buffer.samples)
        assert len(a.buffer) == 16000 * SYNTH_NOISE_S

    def test_synth_ref_checks_its_energy_once(self, monkeypatch):
        checks = []
        check = NoiseSource.__post_init__
        monkeypatch.setattr(NoiseSource, "__post_init__", lambda source: checks.append(check(source)))
        source = NoiseRef(synth_kind="white", seed=1).resolve(8000)
        assert source.noise_id == "white"
        assert len(checks) == 1

    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            NoiseRef()
        with pytest.raises(ValueError):
            NoiseRef(path="x.wav", synth_kind="white")

    def test_synthetic_refs_cover_all_kinds(self):
        refs = synthetic_noise_refs(seed=3)
        assert set(refs) == {"white", "pink", "hum50", "babble"}
        seeds = {r.seed for r in refs.values()}
        assert len(seeds) == 4

    def test_file_ref_and_corpus_loading(self, tmp_path):
        rate = 8000
        for name, value in [("01_white.wav", 0.5), ("07_vacuum.wav", 0.25)]:
            write_wav(tmp_path / name, AudioBuffer(np.full(2000, value), rate))
        write_wav(tmp_path / "readme_not_noise.wav", AudioBuffer(np.ones(10), rate))
        (tmp_path / "notes.txt").write_text("not audio")

        refs = refs_from_dir(tmp_path)
        assert set(refs) == {1, 7}
        assert refs[1].resolve(rate).buffer.sample_rate == rate
        resolved = refs[7].resolve(rate)
        assert resolved.noise_id == "07_vacuum"  # named as `pitchlab mix` names it
        assert np.allclose(resolved.buffer.samples, 0.25, atol=1e-6)

    def test_corpus_rejects_a_repeated_id(self, tmp_path):
        for name in ("01_white.wav", "01_pink.wav"):
            write_wav(tmp_path / name, AudioBuffer(np.full(100, 0.5), 8000))
        with pytest.raises(ValueError, match="01_pink.wav and .*01_white.wav"):
            refs_from_dir(tmp_path)
