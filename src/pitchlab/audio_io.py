"""WAV ingestion and export.

Reads PCM 16-bit and IEEE float WAV files, mono or stereo (stereo is
downmixed by averaging the channels). No resampling is performed. Files
are written as 32-bit float, and float samples are read back as written,
so mixes that exceed full scale round-trip without clipping.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .sigproc import AudioBuffer

logger = logging.getLogger(__name__)

# Small headroom over full scale so dithered PCM does not trip the check.
_RANGE_LIMIT = 1.000001


def read_wav(path: str | Path) -> AudioBuffer:
    """Load a WAV file as a mono AudioBuffer.

    Supported encodings are 16-bit PCM and 32/64-bit float. Integer
    samples are scaled to [-1, 1); float samples are taken as-is, and any
    beyond full scale (hot mixes) are counted in a logged warning but kept.
    """
    rate, data = wavfile.read(str(path))
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise ValueError(
            f"{path}: unsupported WAV encoding {data.dtype}; expected int16 or float32"
        )
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"{path}: WAV contains non-finite samples")
    over = np.abs(samples) > _RANGE_LIMIT
    if np.any(over):
        logger.warning(
            "%s: %d samples beyond full scale (kept as read)",
            path,
            int(np.count_nonzero(over)),
        )
    return AudioBuffer(samples, int(rate))


def write_wav(path: str | Path, buffer: AudioBuffer) -> None:
    """Write a buffer as a 32-bit float WAV file."""
    wavfile.write(str(path), buffer.sample_rate, buffer.samples.astype(np.float32))
