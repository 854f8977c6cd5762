"""Statistics and accounting shared by the benchmark's runs.

Kept free of I/O so `test_stats.py` can pin every rule the reported
numbers depend on.
"""

import math
import re
import statistics

# A metric name: starts with a letter or digit, then letters, digits,
# `_`, `.` and `-`, at most 64 characters.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def valid_name(name):
    return NAME_RE.fullmatch(name) is not None


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) < 2:
        v = median(values)
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def samples_beyond(n, p):
    """How many of `n` samples lie above the `p`-th percentile."""
    return math.floor(n * (100.0 - p) / 100.0 + 1e-9)


def has_tail(n, p):
    """Whether `n` samples put at least MIN_BEYOND beyond percentile `p`."""
    return samples_beyond(n, p) >= MIN_BEYOND


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least `p` %
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def more_commands(walls, elapsed, seconds):
    """Whether a one-shot workload runs another whole command: at least
    three, so no single slow schedule of the worker pool sets the median;
    then two more at a time while they fit in `seconds`, so the count
    stays odd and the median is one of the samples."""
    if len(walls) < 3 or len(walls) % 2 == 0:
        return True
    return elapsed + 2 * median(walls) <= seconds


def overhead_pct(base, other):
    """How much longer `other` took than `base`, in % of `base`."""
    return 100.0 * (other - base) / base


def resolved(values):
    """Whether repeated overhead estimates agree in sign; a range that
    spans zero leaves the overhead unresolved."""
    return min(values) > 0 or max(values) < 0


class Tally:
    """Operations attempted and failed, the basis of the failed share."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok, count=1):
        self.attempted += count
        if not ok:
            self.failed += count

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def correct(self):
        return self.attempted > 0 and self.failed == 0
