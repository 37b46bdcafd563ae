"""Note-level monophonic pitch estimation, noise mixing and benchmarking.

The names below are the documented API (see README.md, "Public API").
Everything else is reached through its module, e.g. pitchlab.evaluation.
"""

from .ensemble import EnsembleSpec, ensemble_estimate
from .errors import PitchlabError
from .estimators import (
    DEFAULT_CONFIGS,
    REGISTRY,
    EstimatorConfig,
    NoteAnalysis,
    PitchEstimate,
    estimate_note,
    estimate_note_many,
)
from .evaluation import run_benchmark
from .noise import measure_snr, mix_at_snr
from .sigproc import AudioBuffer

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "DEFAULT_CONFIGS",
    "EnsembleSpec",
    "EstimatorConfig",
    "NoteAnalysis",
    "PitchEstimate",
    "PitchlabError",
    "REGISTRY",
    "ensemble_estimate",
    "estimate_note",
    "estimate_note_many",
    "measure_snr",
    "mix_at_snr",
    "run_benchmark",
]
