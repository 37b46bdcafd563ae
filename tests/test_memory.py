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
from pitchlab.noise import extend_to_length, measure_snr, mix_at_snr, synth_noise

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


def _traced_peak(call):
    """call's output and the bytes it held at most beyond what it started with."""
    call()  # a first call may load and cache what later calls reuse
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("case, bound", [
    pytest.param(_noise_case("white"), 1.25, id="synth_noise-white"),
    pytest.param(_noise_case("pink"), 2.25, id="synth_noise-pink"),
    pytest.param(_noise_case("hum50"), 1.25, id="synth_noise-hum50"),
    pytest.param(_noise_case("babble"), 3.25, id="synth_noise-babble"),
    pytest.param(_mix_case, 1.25, id="mix_at_snr-15s-song-10s-noise"),
    pytest.param(_read_case, 1.75, id="read_wav-15s-float32"),
    pytest.param(_song_case, 1.35, id="synth_song-15s"),
])
def test_peak_in_units_of_the_output(tmp_path, case, bound):
    out, peak = _traced_peak(case(tmp_path))
    assert peak / (8 * len(out)) <= bound


def test_measure_snr_holds_no_full_length_array():
    # both powers are summed piece by piece: no square of either input
    song, noise = _song(), synth_noise("pink", NOISE_SAMPLES, RATE, 1).buffer.samples
    noise = extend_to_length(noise, len(song))
    _, peak = _traced_peak(lambda: measure_snr(song, noise))
    assert peak / (8 * len(song)) < 0.25
