import json
import os
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from pitchlab.audio_io import write_wav
from pitchlab.cli import main
from pitchlab.estimators import FRAME_LEN, NoteAnalysis, estimate_note_many
from pitchlab.evaluation import write_annotation
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


class Inputs:
    """What a bad input to the command line is built from, under one test's
    tmp_path; song, where the argv names one, a song that no test changes."""

    def __init__(self, tmp_path, song=None):
        self.tmp, self.song = tmp_path, song

    @property
    def wav(self):
        return self.song.audio_path

    @property
    def notes(self):
        return self.wav.replace(".wav", ".notes")

    def path(self, name):
        return str(self.tmp / name)

    def file(self, name, content):
        """Write bytes, text, an AudioBuffer as a WAV, or anything else as JSON to name; its path."""
        path = self.tmp / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, AudioBuffer):
            write_wav(path, content)
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content if isinstance(content, str) else json.dumps(content))
        return str(path)

    def sidecar(self, stem, notes):
        """stem.notes holding notes, beside stem.wav, a link to the song's audio."""
        os.symlink(self.wav, self.tmp / f"{stem}.wav")
        write_annotation(self.tmp / f"{stem}.notes", notes)
        return self.path(f"{stem}.notes")

    def estimate(self, *options, wav=None, notes=None, config=None, spec=None):
        """estimate's argv, with config and spec written as its --config and --ensemble-spec."""
        for flag, content in (("--config", config), ("--ensemble-spec", spec)):
            if content is not None:
                options += (flag, self.file(f"{flag[2:]}.json", content))
        return ["estimate", wav or self.wav, notes or self.notes, *options]

    def mix(self, signal=None, noise="synth:white", snr="0", out="o.wav"):
        return ["mix", signal or self.wav, noise, f"--snr={snr}", "--out", self.path(out)]

    def bench(self, *options, **overrides):
        config = {"songs": {"count": 1, "sample_rate": 22050}, "methods": ["yin"],
                  "snrs_db": [10], "seed": 21, "out": self.path("out")}
        return ["bench", self.file("bench.json", {**config, **overrides}), *options]

    def report(self, csv, out="table.txt"):
        return ["report", csv, "--out", self.path(out)]


def never(*args, **kwargs):
    raise AssertionError("the grid ran before every input was checked")


@pytest.fixture
def fails_soft(tmp_path, monkeypatch, capsys):
    """Run an argv of Inputs(tmp_path) through main and assert the command
    line's fail-soft contract: the exit code, nothing on stdout, one `error:`
    line holding each fragment, after warned[0] `warning:` lines that each
    hold warned[1], no traceback, no Python warning and no output left
    behind. bench may get as far as stage: "checks" (writes nothing),
    "out" (makes out/) or "scoring"."""
    def check(argv, code, fragment, warned=(0, ""), stage="checks"):
        if argv[0] == "bench" and stage != "scoring":
            monkeypatch.setattr("pitchlab.cli.run_benchmark", never)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            exit_code = main(argv)
        out, err = capsys.readouterr()
        assert (exit_code, out, caught) == (code, "", [])
        assert err.endswith("\n") and "Traceback" not in err
        *warning_lines, error = err.splitlines()
        assert len(warning_lines) == warned[0]
        assert all(line.startswith("warning: ") and warned[1] in line for line in warning_lines)
        fragments = (fragment,) if isinstance(fragment, str) else fragment
        assert error.startswith("error: ") and all(part in error for part in fragments), error
        if argv[0] in ("mix", "report"):
            assert not Path(argv[argv.index("--out") + 1]).exists()
        if argv[0] == "bench":
            assert not (tmp_path / "out" / "results.csv").is_file()
            if stage == "checks":
                assert not (tmp_path / "out").is_dir()
    return check


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
