import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import pitchlab
from pitchlab.audio_io import read_wav, write_wav
from pitchlab.sigproc import AudioBuffer

from conftest import extensible_fmt_tail, sine, wav_bytes, wav_chunk


def test_float_round_trip(tmp_path):
    x = sine(440.0, 4410)
    path = tmp_path / "tone.wav"
    write_wav(path, AudioBuffer(x, 44100))
    buf = read_wav(path)
    assert buf.sample_rate == 44100
    assert np.allclose(buf.samples, x, atol=1e-6)


def test_int16_scaling(tmp_path):
    path = tmp_path / "int16.wav"
    data = np.array([0, 16384, -16384, 32767, -32768], dtype=np.int16)
    wavfile.write(path, 8000, data)
    buf = read_wav(path)
    assert buf.samples[0] == 0.0
    assert buf.samples[1] == pytest.approx(0.5)
    assert buf.samples[2] == pytest.approx(-0.5)
    assert buf.samples[3] == pytest.approx(32767 / 32768)
    assert buf.samples[4] == -1.0


def test_stereo_downmix(tmp_path):
    path = tmp_path / "stereo.wav"
    left = np.full(100, 0.2, dtype=np.float32)
    right = np.full(100, 0.6, dtype=np.float32)
    wavfile.write(path, 8000, np.stack([left, right], axis=1))
    buf = read_wav(path)
    assert buf.samples.ndim == 1
    assert np.allclose(buf.samples, 0.4, atol=1e-6)


def test_overrange_float_is_kept(tmp_path, caplog):
    path = tmp_path / "hot.wav"
    wavfile.write(path, 8000, np.array([0.5, 1.5, -2.0], dtype=np.float32))
    with caplog.at_level("WARNING"):
        buf = read_wav(path)
    assert buf.samples.tolist() == [0.5, 1.5, -2.0]
    assert any(r.levelname == "WARNING" and "2 samples beyond full scale" in r.getMessage()
               for r in caplog.records)


@pytest.mark.parametrize("peak, readable", [
    (3e37, True), (float(np.finfo(np.float32).max), True), (3.5e38, False), (3e151, False),
])
def test_float64_samples_are_bounded_by_the_largest_float32(tmp_path, peak, readable):
    # every float32 WAV reads back; float64 samples past float32's range are
    # rejected, as their frames' energies overflow near 1e150
    path = tmp_path / "f64.wav"
    samples = np.array([0.0, peak, -peak / 2])
    path.write_bytes(wav_bytes(samples.astype("<f8").tobytes(), bits=64))
    if readable:
        assert read_wav(path).samples.tolist() == samples.tolist()
    else:
        with pytest.raises(ValueError, match="the largest float32"):
            read_wav(path)


def test_channels_whose_mean_overflows_are_rejected_without_a_warning(tmp_path):
    path = tmp_path / "f64.wav"
    frames = np.full((10, 2), 1.7e308)
    path.write_bytes(wav_bytes(frames.astype("<f8").tobytes(), channels=2, bits=64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            read_wav(path)


def test_missing_file_raises(tmp_path):
    with pytest.raises((OSError, FileNotFoundError)):
        read_wav(tmp_path / "nope.wav")


def test_write_read_preserves_rate(tmp_path):
    buf = AudioBuffer(np.zeros(100), 22050)
    path = tmp_path / "z.wav"
    write_wav(path, buf)
    assert read_wav(path).sample_rate == 22050


# scipy stays a test dependency as the independent reference reader and writer.


@pytest.mark.parametrize("n", [0, 1, 7, 4410])
@pytest.mark.parametrize("rate", [8000, 44100])
def test_write_matches_scipy_bytes(tmp_path, n, rate):
    x = np.random.default_rng(n).uniform(-1.5, 1.5, n)
    ours, reference = tmp_path / "ours.wav", tmp_path / "scipy.wav"
    write_wav(ours, AudioBuffer(x, rate))
    wavfile.write(reference, rate, x.astype(np.float32))
    assert ours.read_bytes() == reference.read_bytes()


def _scipy_samples(path):
    """The samples read_wav should give, through scipy's reader."""
    rate, data = wavfile.read(path)
    samples = data.astype(np.float64)
    if data.dtype == np.int16:
        samples /= 32768.0
    return rate, samples.mean(axis=1) if samples.ndim == 2 else samples


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.int16, np.float32, np.float64])
def test_read_matches_scipy(tmp_path, dtype, channels):
    rng = np.random.default_rng(channels)
    scale = 20000 if dtype == np.int16 else 0.5
    data = (rng.standard_normal((1001, channels)) * scale).astype(dtype)
    path = tmp_path / "ref.wav"
    wavfile.write(path, 16000, data[:, 0] if channels == 1 else data)
    rate, expected = _scipy_samples(path)
    buf = read_wav(path)
    assert buf.sample_rate == rate == 16000
    assert np.array_equal(buf.samples, expected)


@pytest.mark.parametrize("sub_tag, bits, dtype", [(1, 16, "<i2"), (3, 32, "<f4")])
def test_extensible_format_reads_its_sub_format(tmp_path, sub_tag, bits, dtype):
    frames = np.array([[1000, -2000], [3000, 4000], [-32768, 32767]])
    payload = (frames if sub_tag == 1 else frames / 32768.0).astype(dtype).tobytes()
    path = tmp_path / "ext.wav"
    path.write_bytes(wav_bytes(payload, tag=0xFFFE, channels=2, bits=bits,
                               fmt_extra=extensible_fmt_tail(sub_tag, bits)))
    assert np.array_equal(read_wav(path).samples, frames.mean(axis=1) / 32768.0)
    assert np.array_equal(read_wav(path).samples, _scipy_samples(path)[1])


def test_odd_sized_chunk_before_data_is_skipped(tmp_path):
    x = np.array([0.25, -0.5, 0.75], dtype=np.float32)
    skipped = wav_chunk(b"LIST", b"abc") + wav_chunk(b"fact", struct.pack("<I", 3))
    path = tmp_path / "list.wav"
    path.write_bytes(wav_bytes(x.tobytes(), before_data=skipped))
    assert read_wav(path).samples.tolist() == [0.25, -0.5, 0.75]
    assert np.array_equal(read_wav(path).samples, _scipy_samples(path)[1])


def test_rf64_takes_the_data_size_from_ds64(tmp_path, caplog):
    x = np.array([0.1, -0.2, 0.3, 0.4], dtype=np.float32)
    fmt = wav_chunk(b"fmt ", struct.pack("<HHIIHHH", 3, 1, 22050, 4 * 22050, 4, 32, 0))
    # a chunk after the data, which only ds64's data size tells apart from samples
    data = b"data" + b"\xff\xff\xff\xff" + x.tobytes() + wav_chunk(b"LIST", b"tail")
    riff_size = 4 + 36 + len(fmt) + len(data)
    ds64 = wav_chunk(b"ds64", struct.pack("<QQQI", riff_size, x.nbytes, x.size, 0))
    path = tmp_path / "rf64.wav"
    path.write_bytes(b"RF64" + b"\xff\xff\xff\xff" + b"WAVE" + ds64 + fmt + data)
    with caplog.at_level("WARNING"):
        buf = read_wav(path)
    assert not caplog.records
    assert buf.sample_rate == 22050
    assert np.array_equal(buf.samples, x.astype(np.float64))
    assert np.array_equal(buf.samples, _scipy_samples(path)[1])


@pytest.mark.parametrize("dtype", [np.uint8, np.int32])
def test_other_integer_widths_are_unsupported(tmp_path, dtype):
    path = tmp_path / "int.wav"
    wavfile.write(path, 8000, np.arange(10, dtype=dtype))
    with pytest.raises(ValueError, match="unsupported WAV encoding"):
        read_wav(path)


def test_24_bit_pcm_is_unsupported(tmp_path):
    path = tmp_path / "int24.wav"
    path.write_bytes(wav_bytes(bytes(30), tag=1, bits=24))
    with pytest.raises(ValueError, match="unsupported WAV encoding 24-bit PCM"):
        read_wav(path)


def test_cut_data_chunk_reads_whole_frames_with_one_warning(tmp_path, caplog):
    stereo = np.arange(20, dtype=np.float32) / 40.0
    path = tmp_path / "cut.wav"
    path.write_bytes(wav_bytes(stereo.tobytes(), channels=2)[:-5])  # 9 of 10 frames whole
    with warnings.catch_warnings(), caplog.at_level("WARNING"):
        warnings.simplefilter("error")
        buf = read_wav(path)
    assert np.array_equal(buf.samples, stereo[:18].astype(np.float64).reshape(9, 2).mean(axis=1))
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: data chunk cut short, 75 of 80 bytes present; read 9 whole frames"
    ]


def test_importing_the_cli_loads_no_scipy():
    src = str(Path(pitchlab.__file__).resolve().parents[1])
    code = "import sys, pitchlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={"PYTHONPATH": src}, timeout=60)
    assert result.stdout.strip() == "[]"
