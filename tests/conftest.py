import numpy as np
import pytest

from pitchlab.estimators import NoteAnalysis, estimate_note_many
from pitchlab.sigproc import AudioBuffer, Frame


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
    return Frame(
        samples=np.asarray(samples, dtype=np.float64),
        start_index=0,
        window_kind="rectangular",
        sample_rate=sample_rate,
    )


def one_frame_estimate(method, samples, rate, cfg=None):
    """method's estimate on a note analysed as one frame of all its samples."""
    analysis = NoteAnalysis(AudioBuffer(samples, rate), frame_len=len(samples))
    return estimate_note_many(analysis, {method: cfg})[method]


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
