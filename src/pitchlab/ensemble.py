"""Median fusion of estimator votes, with an optional external member.

The fused median is then refined below the FFT bin grid (refine_f0).

The external member is any executable speaking a tiny one-shot protocol:
it receives "RATE <hz> COUNT <n>\\n" followed by the note's samples as
little-endian float32 on stdin, and must answer a single line on stdout,
either "F0 <hz>" or "UNVOICED". Timeouts and malformed replies demote
that vote to unvoiced; they never abort the ensemble.
"""

from __future__ import annotations

import json
import logging
import shlex
import subprocess
from dataclasses import dataclass, field

import numpy as np

from .estimators import (
    REGISTRY,
    NoteAnalysis,
    PitchEstimate,
    check_json,
    estimate_note_many,
    parse_config_overrides,
    refine_f0,
)
from .sigproc import AudioBuffer

logger = logging.getLogger(__name__)

DEFAULT_MEMBERS = ("hps", "stft", "ml", "srh")

# Declared range for an external estimator when its spec does not say.
DEFAULT_EXTERNAL_F_MIN = 33.0
DEFAULT_EXTERNAL_F_MAX = 3951.0
DEFAULT_EXTERNAL_TIMEOUT_S = 10.0

MIN_VOICED_VOTES = 2


@dataclass(frozen=True)
class ExternalEstimator:
    """Subprocess-backed estimator with its declared frequency range."""

    command: str
    f_min: float = DEFAULT_EXTERNAL_F_MIN
    f_max: float = DEFAULT_EXTERNAL_F_MAX
    timeout_s: float = DEFAULT_EXTERNAL_TIMEOUT_S

    def __post_init__(self):
        if not self.command.strip():
            raise ValueError("external command must be non-empty")
        if not 0 <= self.f_min < self.f_max:
            raise ValueError("need 0 <= f_min < f_max for the external range")
        if not 0 < self.timeout_s < np.inf:
            raise ValueError("timeout_s must be positive and finite")


@dataclass(frozen=True)
class EnsembleSpec:
    """Which estimators vote, with any per-member config overrides."""

    members: tuple[str, ...] = DEFAULT_MEMBERS
    configs: dict = field(default_factory=dict)
    external: ExternalEstimator | None = None

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if len(set(self.members)) != len(self.members):
            raise ValueError("ensemble members must be unique")
        unknown = [m for m in self.members if m not in REGISTRY]
        if unknown:
            raise ValueError(f"unknown ensemble members {unknown}; known: {sorted(REGISTRY)}")
        for name in self.configs:
            if name not in self.members:
                raise ValueError(f"config override for non-member {name!r}")
        n_voters = len(self.members) + (1 if self.external else 0)
        if n_voters < MIN_VOICED_VOTES:
            raise ValueError("an ensemble needs at least two voting members")


# The JSON shape of an ensemble spec file; "configs" is checked as overrides.
SPEC_FIELDS = {
    "members": [str],
    "configs": dict,
    "external": {"command": str, "f_min": float, "f_max": float, "timeout_s": float},
}


def load_ensemble_spec(path) -> EnsembleSpec:
    """Read an ensemble description from a JSON file.

    Recognized keys: "members" (list of estimator names), "configs"
    (per-member {f_min, f_max, n_harmonics} overrides) and "external"
    ({command, f_min, f_max, timeout_s}).
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        raw = check_json(raw, SPEC_FIELDS)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    configs = parse_config_overrides(raw.get("configs", {}), f"{path}: \"configs\"")
    external = raw.get("external") or None
    if external is not None:
        if "command" not in external:
            raise ValueError(f"{path}: \"external\" needs a \"command\" string")
        try:
            external = ExternalEstimator(**external)
        except ValueError as exc:
            raise ValueError(f"{path}: bad external estimator: {exc}") from None
    return EnsembleSpec(raw.get("members", DEFAULT_MEMBERS), configs, external)


def run_external(estimator: ExternalEstimator, note: AudioBuffer) -> PitchEstimate:
    """One-shot subprocess round trip for a single note.

    Any failure mode (timeout, crash, malformed or out-of-range reply)
    yields an unvoiced vote with a logged warning; errors never propagate.
    """
    payload = (
        f"RATE {note.sample_rate} COUNT {len(note)}\n".encode("ascii")
        + note.samples.astype("<f4").tobytes()
    )
    argv = shlex.split(estimator.command)
    try:
        proc = subprocess.run(
            argv,
            input=payload,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=estimator.timeout_s,
        )
    except subprocess.TimeoutExpired:
        logger.warning("external estimator timed out after %.1f s: %s", estimator.timeout_s, estimator.command)
        return PitchEstimate(None, "external")
    except OSError as exc:
        logger.warning("external estimator failed to launch (%s): %s", exc, estimator.command)
        return PitchEstimate(None, "external")
    if proc.returncode != 0:
        logger.warning("external estimator exited with %d: %s", proc.returncode, estimator.command)
        return PitchEstimate(None, "external")
    reply = proc.stdout.split(b"\n", 1)[0].decode("ascii", errors="replace").strip()
    if reply == "UNVOICED":
        return PitchEstimate(None, "external")
    parts = reply.split()
    if len(parts) == 2 and parts[0] == "F0":
        try:
            f0 = float(parts[1])
        except ValueError:
            f0 = None
        if f0 is not None and np.isfinite(f0) and f0 > 0:
            if estimator.f_min <= f0 <= estimator.f_max:
                return PitchEstimate(f0, "external")
            logger.warning(
                "external estimate %.2f Hz outside declared range [%g, %g]; treating as unvoiced",
                f0,
                estimator.f_min,
                estimator.f_max,
            )
            return PitchEstimate(None, "external")
    logger.warning("malformed reply from external estimator: %r", reply)
    return PitchEstimate(None, "external")


def fuse_votes(votes) -> float | None:
    """Median of the voiced votes; None without a quorum of two.

    An even vote count yields the mean of the two middle values.
    """
    voiced = [v for v in votes if v is not None]
    if len(voiced) < MIN_VOICED_VOTES:
        return None
    return float(np.median(voiced))


def member_votes(analysis: NoteAnalysis, spec: EnsembleSpec) -> dict[str, PitchEstimate]:
    """Per-member note estimates in spec order, the external one last.

    A member already estimated on the analysis under the same config is
    reused rather than estimated again.
    """
    votes = estimate_note_many(analysis, {m: spec.configs.get(m) for m in spec.members})
    if spec.external is not None:
        votes["external"] = run_external(spec.external, analysis.note)
    return votes


def ensemble_f0(analysis: NoteAnalysis, spec: EnsembleSpec) -> float | None:
    """The ensemble's f0 on one note: the median of its members' votes
    (fuse_votes), refined below the bin grid on the note's spectra."""
    f0 = fuse_votes([v.f0 for v in member_votes(analysis, spec).values()])
    return None if f0 is None else refine_f0(analysis, f0)


def ensemble_estimate(note: AudioBuffer, spec: EnsembleSpec | None = None) -> PitchEstimate:
    """Fused note-level estimate over the spec's members."""
    return PitchEstimate(ensemble_f0(NoteAnalysis(note), spec or EnsembleSpec()), "ensemble")
