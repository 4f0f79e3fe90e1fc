"""Latency percentiles, failure accounting and AUC for the benchmark.

Every timing is reported as a median plus one tail percentile.  A tail
is only trustworthy when enough samples lie beyond it, so
:func:`tail` refuses a percentile with fewer than
:data:`MIN_BEYOND` samples above it instead of quietly reporting the
maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Samples that must lie beyond a tail percentile for it to be valid.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``0 <= q <= 100``).

    Same definition as NumPy's default (``method="linear"``), kept
    dependency-free so the statistics have their own tests.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the q-th rank."""
    return count - math.ceil(count * q / 100.0)


def tail_is_valid(count: int, q: float) -> bool:
    """True when at least :data:`MIN_BEYOND` samples lie beyond ``q``."""
    return samples_beyond(count, q) >= MIN_BEYOND


def min_samples_for(q: float) -> int:
    """Smallest sample count that makes the ``q``-th percentile valid."""
    count = MIN_BEYOND
    while not tail_is_valid(count, q):
        count += 1
    return count


def tail(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, or ``ValueError`` when it is unsupported."""
    if not tail_is_valid(len(values), q):
        raise ValueError(
            f"p{q:g} needs at least {min_samples_for(q)} samples "
            f"({MIN_BEYOND} beyond it), got {len(values)}")
    return percentile(values, q)


def auc(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Area under the ROC curve by the rank-sum formula (ties averaged)."""
    if len(labels) != len(scores):
        raise ValueError("one score per label required")
    positives = sum(1 for label in labels if label == 1)
    negatives = len(labels) - positives
    if positives == 0 or negatives == 0:
        raise ValueError("AUC needs both positive and negative labels")
    order = sorted(range(len(scores)), key=lambda k: scores[k])
    ranks = [0.0] * len(scores)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and \
                scores[order[end + 1]] == scores[order[start]]:
            end += 1
        for k in range(start, end + 1):
            ranks[order[k]] = (start + end) / 2.0 + 1.0
        start = end + 1
    rank_sum = sum(rank for rank, label in zip(ranks, labels) if label == 1)
    return (rank_sum - positives * (positives + 1) / 2.0) \
        / (positives * negatives)


@dataclass
class Tally:
    """Attempted/failed accounting for one measured phase.

    An operation fails when it returns an error value, the transport
    fails or times out, or its reply later fails the correctness
    oracle.  A failed operation counts as missing every latency limit,
    so it is kept out of the latency samples but never out of
    ``attempted``.
    """

    attempted: int = 0
    failed: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)
    examples: List[str] = field(default_factory=list)

    def fail(self, reason: str, example: Optional[str] = None,
             count: int = 1) -> None:
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count
        if example is not None and len(self.examples) < 5:
            self.examples.append(example)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    @property
    def error_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
