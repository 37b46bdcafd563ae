"""Median fusion of estimator votes, with an optional external member.

The fused median is then refined below the FFT bin grid (refine_f0).

The external member is any executable speaking a tiny one-shot protocol:
it receives "RATE <hz> COUNT <n>\\n" followed by the note's samples as
little-endian float32 on stdin, and must answer a single line on stdout,
either "F0 <hz>" or "UNVOICED". Timeouts and malformed replies demote
that vote to unvoiced; they never abort the ensemble.
"""

from __future__ import annotations

import contextlib
import logging
import os
import shlex
import signal
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .estimators import (
    REGISTRY,
    NoteAnalysis,
    PitchEstimate,
    estimate_note_many,
    read_json,
    refine_f0,
    vote_median,
)
from .sigproc import AudioBuffer

logger = logging.getLogger(__name__)

DEFAULT_MEMBERS = ("hps", "stft", "ml", "srh")

# Declared range for an external estimator when its spec does not say.
DEFAULT_EXTERNAL_F_MIN = 33.0
DEFAULT_EXTERNAL_F_MAX = 3951.0
DEFAULT_EXTERNAL_TIMEOUT_S = 10.0
# Longest external timeout: the pipe wait hands it to poll() in milliseconds
# as a C int, which overflows past 2**31 - 1 ms (about 24.8 days).
MAX_EXTERNAL_TIMEOUT_S = 1e6

MIN_VOICED_VOTES = 2

# A command line in this variable is the external member's command.
EXTERNAL_ENV_VAR = "PITCHLAB_EXTERNAL"


@dataclass(frozen=True)
class ExternalEstimator:
    """Subprocess-backed estimator with its declared frequency range."""

    command: str
    f_min: float = DEFAULT_EXTERNAL_F_MIN
    f_max: float = DEFAULT_EXTERNAL_F_MAX
    timeout_s: float = DEFAULT_EXTERNAL_TIMEOUT_S

    def __post_init__(self):
        try:
            argv = shlex.split(self.command)
        except ValueError as exc:
            raise ValueError(f"external command {self.command!r} cannot be split: {exc}") from None
        if not argv:
            raise ValueError("external command must be non-empty")
        if "\0" in self.command:
            raise ValueError("external command must not hold a NUL byte")
        if not 0 <= self.f_min < self.f_max:
            raise ValueError("need 0 <= f_min < f_max for the external range")
        if not 0 < self.timeout_s <= MAX_EXTERNAL_TIMEOUT_S:
            raise ValueError(f"timeout_s must be in (0, {MAX_EXTERNAL_TIMEOUT_S:g}] s")


@dataclass(frozen=True)
class EnsembleSpec:
    """Which estimators vote: registry members and an optional external one."""

    members: tuple[str, ...] = DEFAULT_MEMBERS
    external: ExternalEstimator | None = None

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if len(set(self.members)) != len(self.members):
            raise ValueError("ensemble members must be unique")
        unknown = [m for m in self.members if m not in REGISTRY]
        if unknown:
            raise ValueError(f"unknown ensemble members {unknown}; known: {sorted(REGISTRY)}")
        n_voters = len(self.members) + (1 if self.external else 0)
        if n_voters < MIN_VOICED_VOTES:
            raise ValueError("an ensemble needs at least two voting members")


# The JSON shape of an ensemble spec file.
SPEC_FIELDS = {
    "members": [str],
    "external": {"command": str, "f_min": float, "f_max": float, "timeout_s": float},
}


def load_ensemble_spec(path=None) -> EnsembleSpec:
    """The ensemble in the JSON file at path, or the default one without a
    path, with PITCHLAB_EXTERNAL put in place before the spec is checked.

    Recognized keys: "members" (list of estimator names) and "external"
    ({command, f_min, f_max, timeout_s}). PITCHLAB_EXTERNAL, when set,
    replaces the file's external command, keeping its range and timeout,
    or adds an external with the default range. Member configs are no part
    of a spec: a run passes them to estimate_song. Anything malformed
    raises ValueError naming the path, and the variable when it is set.
    """
    raw = read_json(path, SPEC_FIELDS) if path else {}
    external = raw.get("external")
    if external is not None and "command" not in external:
        raise ValueError(f"{path}: \"external\" needs a \"command\" string")
    command = os.environ.get(EXTERNAL_ENV_VAR)
    if command:
        external = {**(external or {}), "command": command}
    if external is not None:
        try:
            external = ExternalEstimator(**external)
        except ValueError as exc:
            where = ", ".join(str(s) for s in (path, command and EXTERNAL_ENV_VAR) if s)
            raise ValueError(f"{where}: bad external estimator: {exc}") from None
    return EnsembleSpec(raw.get("members", DEFAULT_MEMBERS), external=external)


def run_external(estimator: ExternalEstimator, note: AudioBuffer) -> PitchEstimate:
    """One-shot subprocess round trip for a single note.

    Any failure mode (timeout, crash, malformed or out-of-range reply)
    yields an unvoiced vote with a logged warning; errors never propagate.
    The plug-in runs in a session of its own, its reply is read from a
    temporary file once it exits, and every call ends by killing its process
    group, so no worker it started outlives its vote or holds it up.
    """
    payload = (
        f"RATE {note.sample_rate} COUNT {len(note)}\n".encode("ascii")
        + note.samples.astype("<f4").tobytes()
    )
    argv = shlex.split(estimator.command)
    try:
        with tempfile.TemporaryFile() as out, subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=out, stderr=subprocess.DEVNULL,
                start_new_session=True) as proc:
            try:
                proc.communicate(payload, timeout=estimator.timeout_s)
            finally:  # also on a timeout, or an interruption while waiting
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            out.seek(0)
            reply = out.readline().decode("ascii", errors="replace").strip()
    except subprocess.TimeoutExpired:
        logger.warning("external estimator timed out after %.1f s: %s", estimator.timeout_s, estimator.command)
        return PitchEstimate(None)
    except OSError as exc:
        logger.warning("external estimator failed to launch (%s): %s", exc, estimator.command)
        return PitchEstimate(None)
    if proc.returncode != 0:
        logger.warning("external estimator exited with %d: %s", proc.returncode, estimator.command)
        return PitchEstimate(None)
    if reply == "UNVOICED":
        return PitchEstimate(None)
    parts = reply.split()
    if len(parts) == 2 and parts[0] == "F0":
        try:
            f0 = float(parts[1])
        except ValueError:
            f0 = None
        if f0 is not None and np.isfinite(f0) and f0 > 0:
            if estimator.f_min <= f0 <= estimator.f_max:
                return PitchEstimate(f0)
            logger.warning(
                "external estimate %.2f Hz outside declared range [%g, %g]; treating as unvoiced",
                f0,
                estimator.f_min,
                estimator.f_max,
            )
            return PitchEstimate(None)
    logger.warning("malformed reply from external estimator: %r", reply)
    return PitchEstimate(None)


def fuse_votes(votes) -> float | None:
    """Median of the voiced votes; None without a quorum of two.

    An even vote count yields the mean of the two middle values.
    """
    voiced = [v for v in votes if v is not None]
    if len(voiced) < MIN_VOICED_VOTES:
        return None
    return vote_median(voiced)


def member_votes(analysis: NoteAnalysis, spec: EnsembleSpec,
                 configs: Mapping) -> dict[str, PitchEstimate]:
    """Per-member note estimates in spec order, the external one last. A
    member runs its config in configs (method -> config), its default when
    configs has none, and one already estimated on the analysis under that
    config is reused rather than estimated again."""
    votes = estimate_note_many(analysis, {m: configs.get(m) for m in spec.members})
    if spec.external is not None:
        votes["external"] = run_external(spec.external, analysis.note)
    return votes


def ensemble_f0(analysis: NoteAnalysis, spec: EnsembleSpec, configs: Mapping) -> float | None:
    """The ensemble's f0 on one note: the median of its members' votes under
    configs (fuse_votes), refined below the bin grid on the note's spectra."""
    f0 = fuse_votes([v.f0 for v in member_votes(analysis, spec, configs).values()])
    return None if f0 is None else refine_f0(analysis, f0)


def ensemble_estimate(note: AudioBuffer, spec: EnsembleSpec | None = None) -> PitchEstimate:
    """Fused note-level estimate over the spec's members, each at its default config."""
    return PitchEstimate(ensemble_f0(NoteAnalysis(note), spec or EnsembleSpec(), {}))
