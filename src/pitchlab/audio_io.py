"""WAV ingestion and export, with struct and numpy alone.

Reads RIFF and RF64 WAV files whose samples are 16-bit PCM (format
tag 1) or 32/64-bit IEEE float (tag 3), given directly or as the
sub-format of WAVE_FORMAT_EXTENSIBLE. Only the `fmt ` and `data` chunks
(and RF64's `ds64`) are read; any other chunk is skipped. Any number of channels is downmixed by averaging them. No
resampling is performed. Files are written as mono 32-bit float, and
float samples are read back as written, so mixes that exceed full scale
round-trip without clipping.
"""

from __future__ import annotations

import logging
import struct
from pathlib import Path

import numpy as np

from .sigproc import AudioBuffer

logger = logging.getLogger(__name__)

# Small headroom over full scale so dithered PCM does not trip the check.
_RANGE_LIMIT = 1.000001
# The largest sample magnitude read: float32's largest value, so any file
# pitchlab writes reads back. Float64 samples near 1e150 overflow the
# frames' sums of squares, and every lag method then votes a wrong pitch.
_SAMPLE_LIMIT = float(np.finfo(np.float32).max)

_PCM, _FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# (format tag, bits per sample) -> numpy sample type; WAV is little-endian
_SAMPLE_TYPES = {(_PCM, 16): "<i2", (_FLOAT, 32): "<f4", (_FLOAT, 64): "<f8"}
# An extensible sub-format GUID is {tag-0000-0010-8000-00AA00389B71}
# (RFC 2361); these are its bytes after the 4-byte tag.
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# write_wav's header fields are 32 bits: they hold the byte rate, 4 bytes
# a sample times the sample rate, and the RIFF size, 50 + the data bytes.
_MAX_WRITE_RATE = 0xFFFFFFFF // 4
_MAX_WRITE_BYTES = 0xFFFFFFFF - 50


def read_wav(path: str | Path) -> AudioBuffer:
    """Load a WAV file as a mono AudioBuffer.

    Supported encodings are 16-bit PCM and 32/64-bit float. Integer
    samples are scaled to [-1, 1); float samples are taken as-is, and any
    beyond full scale (hot mixes) are counted in a logged warning but kept.
    Samples that are not finite or exceed float32's largest value in
    magnitude raise ValueError.
    A data chunk cut short by the end of the file is read up to its last
    whole frame, with a logged warning. Any other malformation raises
    ValueError naming the path.
    """
    data = Path(path).read_bytes()
    try:
        rate, channels, dtype, offset, size = _parse_wav(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    present = min(size, len(data) - offset)
    n_frames = present // (channels * dtype.itemsize)
    if present < size:
        logger.warning(
            "%s: data chunk cut short, %d of %d bytes present; read %d whole frames",
            path, present, size, n_frames,
        )
    raw = np.frombuffer(data, dtype=dtype, count=n_frames * channels, offset=offset)
    samples = raw.astype(np.float64)
    del raw, data  # the file's bytes; only the float64 samples are held from here
    if dtype.kind == "i":
        samples /= 32768.0
    if channels > 1:
        with np.errstate(over="ignore"):  # a mean that overflows is rejected below
            samples = samples.reshape(n_frames, channels).mean(axis=1)
    # min and max propagate NaN, so two reductions catch every bad value
    if samples.size and not (-_SAMPLE_LIMIT <= samples.min() and samples.max() <= _SAMPLE_LIMIT):
        raise ValueError(f"{path}: WAV contains non-finite samples or samples beyond "
                         f"±{_SAMPLE_LIMIT:.4g}, the largest float32")
    n_over = np.count_nonzero(samples > _RANGE_LIMIT) + np.count_nonzero(samples < -_RANGE_LIMIT)
    if n_over:
        logger.warning("%s: %d samples beyond full scale (kept as read)", path, n_over)
    return AudioBuffer(samples, rate)


def _parse_wav(data: bytes) -> tuple[int, int, np.dtype, int, int]:
    """Walk a WAV file's chunks up to its data chunk.

    Returns the sample rate, the channel count, the sample dtype, and the
    data chunk's offset and declared size (which may run past the end).
    """
    form = data[:4]
    if len(data) < 12 or form not in (b"RIFF", b"RF64") or data[8:12] != b"WAVE":
        raise ValueError("not a WAV file (no RIFF or RF64 WAVE header)")
    chunks: dict[bytes, bytes] = {}
    pos = 12
    while True:
        if pos + 8 > len(data):
            raise ValueError("no data chunk" if pos >= len(data) else
                             f"chunk header cut short at byte {pos}")
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        pos += 8
        if chunk_id == b"data":
            break
        if pos + size > len(data):
            raise ValueError(f"{chunk_id!r} chunk runs past the end of the file")
        if chunk_id in (b"fmt ", b"ds64"):
            chunks[chunk_id] = data[pos:pos + size]
        pos += size + size % 2  # an odd-sized chunk is followed by a pad byte

    fmt = chunks.get(b"fmt ")
    if fmt is None:
        raise ValueError("no fmt chunk before the data chunk")
    if len(fmt) < 16:
        raise ValueError(f"fmt chunk of {len(fmt)} bytes; expected at least 16")
    tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _EXTENSIBLE and len(fmt) >= 40 and fmt[28:40] == _GUID_TAIL:
        (tag,) = struct.unpack_from("<I", fmt, 24)
    if channels == 0:
        raise ValueError("fmt chunk gives 0 channels")
    if rate == 0:
        raise ValueError("fmt chunk gives a sample rate of 0")
    sample_type = _SAMPLE_TYPES.get((tag, bits))
    if sample_type is None:
        kind = {_PCM: "PCM", _FLOAT: "float"}.get(tag)
        encoding = f"{bits}-bit {kind}" if kind else f"format tag {tag:#06x}"
        raise ValueError(f"unsupported WAV encoding {encoding}; expected int16 or float32")
    if form == b"RF64":
        ds64 = chunks.get(b"ds64", b"")
        if len(ds64) < 16:
            raise ValueError("RF64 file without a ds64 chunk")
        # the data chunk's own size field holds 0xFFFFFFFF; ds64 has the size
        (size,) = struct.unpack_from("<Q", ds64, 8)
    return rate, channels, np.dtype(sample_type), pos, size


def write_wav(path: str | Path, buffer: AudioBuffer) -> None:
    """Write a buffer as a mono 32-bit float WAV file.

    The layout is the one scipy.io.wavfile.write gives float32 samples:
    a RIFF header, an 18-byte fmt chunk (format tag 3, cbSize 0), a fact
    chunk holding the frame count, then the data chunk. A sample rate or a
    sample count that those 32-bit fields cannot hold raises ValueError
    before the file is opened.
    """
    rate = buffer.sample_rate
    if rate > _MAX_WRITE_RATE or 4 * len(buffer) > _MAX_WRITE_BYTES:
        raise ValueError(f"a float32 WAV header holds at most {_MAX_WRITE_RATE} Hz and "
                         f"{_MAX_WRITE_BYTES // 4} samples; got {rate} Hz and {len(buffer)} samples")
    samples = buffer.samples.astype("<f4")
    header = struct.pack(
        "<4sI4s" "4sIHHIIHHH" "4sII" "4sI",
        b"RIFF", 50 + samples.nbytes, b"WAVE",
        b"fmt ", 18, _FLOAT, 1, rate, 4 * rate, 4, 32, 0,
        b"fact", 4, samples.size,
        b"data", samples.nbytes,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        samples.tofile(fh)
