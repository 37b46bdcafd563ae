import errno
import os
import struct

import numpy as np
import pytest

from pitchlab.estimators import FRAME_LEN, NoteAnalysis, estimate_note_many
from pitchlab.sigproc import AudioBuffer


def sine(freq, n_samples, sample_rate=44100, amp=0.8, phase=0.0):
    t = np.arange(n_samples) / sample_rate
    return amp * np.sin(2.0 * np.pi * freq * t + phase)


def sawtooth(freq, n_samples, sample_rate=44100, amp=0.3):
    t = np.arange(n_samples) / sample_rate
    return amp * (2.0 * ((freq * t) % 1.0) - 1.0)


def sine_buffer(freq, seconds=0.5, sample_rate=44100, amp=0.8):
    return AudioBuffer(sine(freq, int(seconds * sample_rate), sample_rate, amp), sample_rate)


def saw_buffer(freq, seconds=0.5, sample_rate=44100, amp=0.3):
    return AudioBuffer(sawtooth(freq, int(seconds * sample_rate), sample_rate, amp), sample_rate)


def rect_frame(samples, sample_rate=44100):
    return AudioBuffer(samples, sample_rate)


def one_frame_estimate(method, samples, rate, cfg=None):
    """method's estimate on a note of exactly one frame."""
    assert len(samples) == FRAME_LEN
    analysis = NoteAnalysis(AudioBuffer(samples, rate))
    return estimate_note_many(analysis, {method: cfg})[method]


def fail_the_second_fork(monkeypatch):
    """Make os.fork fork for real once, then raise EAGAIN as it does when the
    system is out of processes; no process is started for the failure."""
    real = os.fork
    calls = []

    def fork():
        calls.append(os.getpid())
        if len(calls) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


def wav_chunk(chunk_id, body):
    """One RIFF chunk, with the pad byte an odd-sized body takes."""
    return chunk_id + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) % 2)


def extensible_fmt_tail(sub_tag, bits):
    """What follows the 16-byte fmt core in a WAVE_FORMAT_EXTENSIBLE file:
    cbSize 22, the valid bits, a channel mask of 0 and the sub-format GUID
    {sub_tag-0000-0010-8000-00AA00389B71}."""
    return struct.pack("<HHII", 22, bits, 0, sub_tag) + bytes.fromhex("000010008000 00aa00389b71")


def wav_bytes(payload, *, tag=3, channels=1, rate=8000, bits=32, fmt_extra=b"",
              before_data=b""):
    """A RIFF WAV file: a fmt chunk, the chunks in before_data, then data."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, rate, (rate * block) % 2**32, block, bits)
    body = b"WAVE" + wav_chunk(b"fmt ", fmt + fmt_extra) + before_data + wav_chunk(b"data", payload)
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# One line per acceptance criterion, appended by test_acceptance.announce
# and echoed after the run (terminal-summary hooks run outside capture,
# so the lines are visible without -s).
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
