"""Fuzzing the WAV reader.

read_wav returns an AudioBuffer or raises ValueError naming the path,
whatever the bytes: raw bytes, and valid files whose header fields are
overwritten, whose form is changed or which are cut short.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pitchlab.audio_io import read_wav
from pitchlab.sigproc import AudioBuffer

from conftest import extensible_fmt_tail, wav_bytes, wav_chunk


@st.composite
def wav_files(draw):
    tag, bits = draw(st.sampled_from([(1, 16), (3, 32), (3, 64), (0xFFFE, 16)])
                     | st.tuples(st.sampled_from([1, 3, 0xFFFE, 6, 0]),
                                 st.sampled_from([0, 8, 16, 24, 32, 64])))
    channels = draw(st.sampled_from([1, 2, 3, 0]))
    rate = draw(st.sampled_from([8000, 44100]) | st.integers(0, 2**32 - 1))
    extra = b""
    if tag == 0xFFFE:
        extra = extensible_fmt_tail(draw(st.sampled_from([1, 3, 0xFFFE])), bits)
    before = draw(st.sampled_from([b"", wav_chunk(b"LIST", b"abc"), wav_chunk(b"fact", bytes(4))]))
    payload = draw(st.binary(max_size=96))
    data = bytearray(wav_bytes(payload, tag=tag, channels=channels, rate=rate, bits=bits,
                               fmt_extra=extra, before_data=before))
    data[:4] = draw(st.sampled_from([b"RIFF", b"RIFF", b"RIFX", b"RF64"]))
    fields = st.tuples(st.integers(0, 80), st.binary(min_size=1, max_size=4))
    for offset, value in draw(st.lists(fields, max_size=2)):
        data[offset:offset + len(value)] = value
    cut = draw(st.just(0) | st.integers(0, len(data)))
    return bytes(data[:len(data) - cut])


@settings(max_examples=300, deadline=None)
@given(wav_files() | st.binary(max_size=64) | st.binary(max_size=64).map(lambda b: b"RIFF" + b))
def test_read_wav_returns_a_buffer_or_raises_value_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.wav"
    path.write_bytes(data)
    try:
        buffer = read_wav(path)
    except ValueError as exc:
        assert str(path) in str(exc)
    else:
        assert isinstance(buffer, AudioBuffer)
        assert buffer.samples.ndim == 1 and np.all(np.isfinite(buffer.samples))
