"""Percentiles with their sample counts, and metric records.

A timing is reported as its median, plus its 90th percentile where there
are at least 100 samples (ten beyond it). Every number carries the count
it was computed from.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

P90_MIN_SAMPLES = 100


def check_name(name: str) -> str:
    """Return `name` if it is a valid metric or workload name, else raise."""
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise ValueError(
            f"bad metric name {name!r}: want 1-64 of [A-Za-z0-9_.-] "
            f"starting with a letter or digit")
    return name


def check_unit(unit: str) -> str:
    if not isinstance(unit, str) or not UNIT_RE.fullmatch(unit):
        raise ValueError(f"bad unit {unit!r}: want 1-16 of [A-Za-z0-9_/%.-]")
    return unit


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule), q in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    n: int                      # samples behind the value

    def __post_init__(self):
        check_name(self.name)
        check_unit(self.unit)
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"{self.name}: sample count must be an int >= 0")
        self.value = float(self.value)
        if not math.isfinite(self.value):
            raise ValueError(f"{self.name}: non-finite value {self.value}")


def timing_metrics(prefix: str, values, unit: str) -> list:
    """Median of `values`, plus p90 from P90_MIN_SAMPLES samples on."""
    out = [Metric(f"{prefix}_p50", median(values), unit, len(values))]
    if len(values) >= P90_MIN_SAMPLES:
        out.append(Metric(f"{prefix}_p90", percentile(values, 90.0), unit,
                          len(values)))
    return out
