import numpy as np
import pytest
from scipy.io import wavfile

from pitchlab.audio_io import read_wav, write_wav
from pitchlab.sigproc import AudioBuffer

from conftest import sine


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


def test_missing_file_raises(tmp_path):
    with pytest.raises((OSError, FileNotFoundError)):
        read_wav(tmp_path / "nope.wav")


def test_write_read_preserves_rate(tmp_path):
    buf = AudioBuffer(np.zeros(100), 22050)
    path = tmp_path / "z.wav"
    write_wav(path, buf)
    assert read_wav(path).sample_rate == 22050
