"""Exception types shared across the package."""


class PitchlabError(Exception):
    """Base class for all pitchlab errors."""


class EmptyBuffer(PitchlabError):
    """Raised when an operation receives audio with zero samples."""


class LagOutOfRange(PitchlabError):
    """Raised when a correlation is requested past the last computable lag."""


class ConfigOutOfRange(PitchlabError):
    """Raised when an estimator's frequency range is empty at the given sample rate."""


class LpcUnstable(PitchlabError):
    """Raised when the linear-prediction recursion breaks down (degenerate input)."""


class SampleRateMismatch(PitchlabError):
    """Raised when two buffers that must share a sample rate do not."""


class SilentNoise(PitchlabError):
    """Raised when a noise buffer has zero power and cannot be scaled to a target SNR."""


class CountMismatch(PitchlabError):
    """Raised when paired sequences (estimates vs. ground truth) differ in length."""


class NonPositiveFrequency(PitchlabError):
    """Raised when a frequency that must be positive is zero or negative."""


class InvalidAnnotation(PitchlabError):
    """Raised when a note annotation file is malformed or inconsistent."""


class WorkerFailed(PitchlabError):
    """Raised when a forked worker process exits without a reply or cannot be started."""
