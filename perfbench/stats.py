"""The benchmark's own arithmetic: percentiles, errors, failure ratios.

Kept free of pitchlab imports so that the checks on the program's outputs
do not reuse the code they check.
"""

from __future__ import annotations

import math
import statistics

# A note estimate passes when it lies within a quarter tone (50 cents)
# of the annotated truth.
QUARTER_TONE_CENTS = 50.0

# A timing's percentile is reported only when at least this many samples
# lie beyond it; fewer would make the tail a handful of outliers.
SAMPLES_BEYOND_PERCENTILE = 10


def cents(f0: float, truth: float) -> float:
    """Signed distance of f0 from truth in cents."""
    return 1200.0 * math.log2(f0 / truth)


def within_quarter_tone(f0: float | None, truth: float) -> bool:
    """True when a voiced estimate lies within a quarter tone of truth."""
    if f0 is None or not math.isfinite(f0) or f0 <= 0:
        return False
    return abs(cents(f0, truth)) <= QUARTER_TONE_CENTS


def sqrt_hz_error(estimates, truths) -> float:
    """Mean of sqrt(|f_est - f_true|) over paired notes; unvoiced counts as 0 Hz."""
    if len(estimates) != len(truths) or not truths:
        raise ValueError(f"need equally many estimates and truths, got {len(estimates)} and {len(truths)}")
    total = sum(math.sqrt(abs((f or 0.0) - t)) for f, t in zip(estimates, truths))
    return total / len(truths)


def failed_frac(failed: int, attempted: int) -> float:
    """Failed operations as a share of attempted ones."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside [0, {attempted}]")
    return failed / attempted


def highest_percentile(n: int, beyond: int = SAMPLES_BEYOND_PERCENTILE) -> int | None:
    """Highest whole percentile of n samples with `beyond` samples above it.

    Uses the nearest-rank definition: percentile p is the sample of rank
    ceil(p * n / 100), so n - rank samples lie beyond it. Returns None
    when not even the median qualifies.
    """
    if n - math.ceil(n / 2) < beyond:
        return None
    p = (100 * (n - beyond)) // n
    while n - math.ceil(p * n / 100) < beyond:
        p -= 1
    return p


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def median(values) -> float:
    return float(statistics.median(values))


def vote_spread_cents(votes) -> float | None:
    """Spread of the voiced votes in cents, or None with fewer than two."""
    voiced = [v for v in votes if v is not None and v > 0]
    if len(voiced) < 2:
        return None
    return cents(max(voiced), min(voiced))
