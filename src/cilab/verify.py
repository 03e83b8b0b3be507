"""Verification helpers: the ``CheckReport`` record of one measured-vs-target
comparison, and least-squares scaling regressions on log-log axes."""

from dataclasses import dataclass, asdict

import numpy as np


@dataclass
class CheckReport:
    """One measured-vs-target comparison."""

    name: str
    measured: float
    target: float
    ratio: float
    passed: bool
    anchor: str = ""

    def to_record(self) -> dict:
        return asdict(self)

    @classmethod
    def from_record(cls, rec: dict) -> "CheckReport":
        return cls(**rec)

    @classmethod
    def build(cls, name, measured, target, anchor="", tol=1.0):
        measured = float(measured)
        target = float(target)
        ratio = measured / target if target != 0 else np.inf
        return cls(name, measured, target, float(ratio), bool(ratio <= tol),
                   anchor)


def scaling_regression(pairs):
    """Least-squares slope on log-log axes.

    ``pairs`` is a sequence of (scale, value) with positive entries and at
    least four distinct scales; returns (slope, r_squared).
    """
    pairs = list(pairs)
    if len(pairs) < 4:
        raise ValueError("need at least 4 points for a scaling regression")
    scales = np.array([p[0] for p in pairs], dtype=float)
    values = np.array([p[1] for p in pairs], dtype=float)
    if np.any(scales <= 0) or np.any(values <= 0):
        raise ValueError("scaling regression needs positive scales and values")
    if np.unique(scales).size < 2:
        raise ValueError("underdetermined: all scales identical")
    x = np.log(scales)
    y = np.log(values)
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(r2)
