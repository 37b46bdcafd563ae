"""Peak memory of the functions that build full-length signals.

numpy reports its data buffers to tracemalloc, so a call's traced peak
counts every array it holds at once. Each peak is read in units of the
output's float64 size and held to a bound that leaves room for the output,
the one or two full-length work arrays the function may hold beside it
(README lists them) and small chunks.
"""

import tracemalloc

import pytest

from pitchlab.audio_io import read_wav, write_wav
from pitchlab.evaluation import synth_song
from pitchlab.noise import mix_at_snr, synth_noise

RATE = 44100
NOISE_SAMPLES = 441000  # 10 s, what a synthetic NoiseRef resolves to at 44.1 kHz


def _song():
    return synth_song(5, RATE, 15.0)[0]


def _noise_case(kind):
    return lambda tmp_path: lambda: synth_noise(kind, NOISE_SAMPLES, RATE, 3).buffer


def _mix_case(tmp_path):
    song, noise = _song(), synth_noise("pink", NOISE_SAMPLES, RATE, 1)
    return lambda: mix_at_snr(song, noise, 0.0)


def _read_case(tmp_path):
    write_wav(tmp_path / "song.wav", _song())
    return lambda: read_wav(tmp_path / "song.wav")


def _song_case(tmp_path):
    return _song


@pytest.mark.parametrize("case, bound", [
    pytest.param(_noise_case("white"), 1.25, id="synth_noise-white"),
    pytest.param(_noise_case("pink"), 2.25, id="synth_noise-pink"),
    pytest.param(_noise_case("hum50"), 1.25, id="synth_noise-hum50"),
    pytest.param(_noise_case("babble"), 3.25, id="synth_noise-babble"),
    pytest.param(_mix_case, 2.25, id="mix_at_snr-15s-song-10s-noise"),
    pytest.param(_read_case, 1.75, id="read_wav-15s-float32"),
    pytest.param(_song_case, 1.35, id="synth_song-15s"),
])
def test_peak_in_units_of_the_output(tmp_path, case, bound):
    call = case(tmp_path)
    call()  # a first call may load and cache what later calls reuse
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / (8 * len(out)) <= bound
