"""Temporal gluing cutoffs and space-time squiggling cutoffs.

chi_i: a smooth partition of unity in time subordinate to the window
structure I_{i-1} u J_i u I_i; exactly 1 on J_i and exactly 0 outside its
window, so the glued stress vanishes identically between the I intervals.

eta_i: mollified indicators of sinusoidally tilted time slabs; the tilt
keeps sum_i int eta_i^2 dx uniformly positive (target 1/5) at every time,
which is what lets the energy gap be pumped strictly between gluing times.
The slabs are mollified in time by smoothstep', a C_c^infty kernel of unit
mass on [0, width]: each slab edge reads ``smoothstep``, so the eta_i are
smooth, with the closed-form time derivative that ``smoothstep_deriv``
gives.

The package's one bump kernel (``bump``) and one smooth step
(``smoothstep``) live here too.  Each ``EtaFamily`` build reads and
checks the shape constants, ``_EPS_TILT`` in (0, 1/3) and ``_EPS_MOLL``
positive and finite, and tier-1 asserts that they hold.
"""

from dataclasses import dataclass, field

import numpy as np

from .grids import checked_index, is_integer

_EPS_TILT = 0.25       # slab shrink fraction (epsilon in (0, 1/3))
_EPS_MOLL = 1.0 / 64.0  # mollification fraction (epsilon_0)
_ETA_BLOCK_POINTS = 32768  # per smoothstep call of an eta build (in cache)


def smoothstep(s):
    """C^infty step: exactly 0 for s <= 0, exactly 1 for s >= 1.

    Write a falling tail as ``smoothstep(1 - s)``, never ``1 - smoothstep(s)``:
    the latter cancels to exactly 0 for s near 1, inside the open ramp.
    """
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    out[s >= 1.0] = 1.0
    mid = (s > 0.0) & (s < 1.0)
    if np.any(mid):
        a = np.exp(-1.0 / s[mid])
        b = np.exp(-1.0 / (1.0 - s[mid]))
        out[mid] = a / (a + b)
    return out if out.ndim else float(out)


def smoothstep_deriv(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    mid = (s > 0.0) & (s < 1.0)
    if np.any(mid):
        x = s[mid]
        a = np.exp(-1.0 / x)
        b = np.exp(-1.0 / (1.0 - x))
        da = a / x**2
        db = -b / (1.0 - x) ** 2
        out[mid] = (da * (a + b) - a * (da + db)) / (a + b) ** 2
    return out if out.ndim else float(out)


def bump(r2):
    """Standard bump exp(-1/(1 - r^2)) of the squared radius ``r2``: exactly
    0 for r2 >= 1."""
    r2 = np.asarray(r2, dtype=float)
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out if out.ndim else float(out)


def bump_deriv(r):
    """Derivative of the profile r -> bump(r^2) with respect to r: exactly 0
    for |r| >= 1."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = r * r < 1.0
    ri = r[inside]
    out[inside] = bump(ri * ri) * (-2.0 * ri / (1.0 - ri * ri) ** 2)
    return out if out.ndim else float(out)


def window_count(tau: float, horizon: float) -> int:
    """Number of gluing windows covering [0, horizon].

    The last window's rest interval J_m must reach past the horizon so the
    chi family stays a partition of unity on all of [0, horizon].
    """
    if not 0.0 < tau < np.inf:
        raise ValueError(f"window length tau={tau} is not positive and finite")
    return int(np.floor(max(horizon - tau / 3.0, 0.0) / tau)) + 2


def _time_samples(times) -> tuple[np.ndarray, float]:
    """``times`` as a float array, and its largest time, the horizon;
    ValueError naming them unless they hold a time and every one is finite."""
    t = np.asarray(times, dtype=float)
    if t.size == 0:
        raise ValueError("times must hold at least one time")
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    return t, float(t.max())


@dataclass
class ChiFamily:
    """Temporal partition of unity for the gluing step."""

    tau: float
    times: np.ndarray
    n_windows: int = field(init=False)
    values: np.ndarray = field(init=False)     # (n_windows, n_times)
    dvalues: np.ndarray = field(init=False)

    def __post_init__(self):
        t, horizon = _time_samples(self.times)
        m = window_count(self.tau, horizon)
        self.n_windows = m
        third = self.tau / 3.0
        # s[i]: the ramp coordinate of I_{i-1} before t_i, where chi_i
        # rises, and of I_i from t_i on, where it falls.  chi_0 never rises:
        # its rising part reads s = 2, where smoothstep is 1 and flat
        i = np.arange(m)[:, None]
        rising = t < i * self.tau
        s = np.where(rising, i - 1, i) * self.tau
        s += third
        np.subtract(t, s, out=s)
        s /= third
        s[0, rising[0]] = 2.0
        dvals = smoothstep_deriv(s)
        np.negative(dvals, out=dvals, where=~rising)
        dvals /= third
        self.dvalues = dvals
        np.subtract(1.0, s, out=s, where=~rising)
        self.values = smoothstep(s)

    def window_span(self, i: int, horizon: float):
        """Solve span [anchor, end] for the exact solution of window i."""
        i = checked_index("window index", i, self.n_windows)
        anchor = max((i - 1) * self.tau, 0.0)
        end = min((i + 1) * self.tau + self.tau / 3.0, horizon)
        return anchor, end

    def partition_defect(self) -> float:
        return float(np.max(np.abs(self.values.sum(axis=0) - 1.0)))


@dataclass
class EtaFamily:
    """Squiggling space-time cutoffs (plus the Cauchy-mode variants).

    Values are held on (time grid) x (x1 grid); the fields depend on x only
    through x1.  Slabs shrink by ``_EPS_TILT``, mollify by ``_EPS_MOLL``.
    ``straight_zero`` replaces eta_0 by the straight temporal cutoff and adds
    the zeta ramp used to seed the energy before t_1.
    """

    tau: float
    times: np.ndarray
    n_x1: int
    straight_zero: bool = False
    n_windows: int = field(init=False)
    values: np.ndarray = field(init=False)   # (n_windows, n_times, n_x1)
    zeta: np.ndarray = field(init=False)     # (n_times,)

    def __post_init__(self):
        t, horizon = _time_samples(self.times)
        window_count(self.tau, horizon)   # rejects the same tau as ChiFamily
        if not (is_integer(self.n_x1) and self.n_x1 >= 1):
            raise ValueError(f"n_x1={self.n_x1!r} is not an integer >= 1")
        if not 0.0 < _EPS_MOLL < np.inf:   # read at each build
            raise ValueError(f"eps_moll={_EPS_MOLL} is not positive and finite")
        if not 0.0 < _EPS_TILT < 1.0 / 3.0:
            raise ValueError(f"eps_tilt={_EPS_TILT} is not in (0, 1/3)")
        self.n_windows = int(np.floor(horizon / self.tau)) + 1
        x1 = np.arange(self.n_x1) / self.n_x1
        tilt = 2.0 * _EPS_TILT * self.tau / 3.0
        # x-mollification nodes: average the shift over the kernel
        ny = 33
        y = (np.arange(ny) + 0.5) / ny * _EPS_MOLL
        wy = bump((2.0 * (y / _EPS_MOLL) - 1.0) ** 2)
        wy /= wy.sum()
        vals = np.zeros((self.n_windows, len(t), self.n_x1))
        width = _EPS_MOLL * self.tau
        shifts = tilt * np.sin(2 * np.pi * (x1 - y[:, None]))
        if self.straight_zero:
            vals[0] = self._straight0(t)[:, None]
        # smoothstep is exactly 0 below 0 and exactly 1 above 1, so each term
        # vanishes unless lo < t - shift < hi + width: only times within that
        # span, padded by the tilt and by width, can be nonzero.  The live
        # (window, time) rows of all windows go through the nodes at once.
        # A window is live for (1 + 2 eps_tilt / 3 + 3 eps_moll) tau, 1.21 tau
        # at the defaults, so the rows number about 1.2 times the times.
        i = np.arange(int(self.straight_zero), self.n_windows)
        lo = i * self.tau + _EPS_TILT * self.tau / 3.0
        hi = i * self.tau + (3.0 - _EPS_TILT) * self.tau / 3.0
        w, r = np.nonzero((t > (lo - tilt - width)[:, None])
                          & (t < (hi + tilt + 2.0 * width)[:, None]))
        tr, lo_r, hi_r = t[r, None], lo[w, None], hi[w, None]
        acc = np.zeros((len(r), self.n_x1))
        block = max(1, _ETA_BLOCK_POINTS // max(acc.size, 1))
        for b in range(0, ny, block):
            arg = tr - shifts[b:b + block, None, :]
            up = smoothstep((arg - lo_r) / width)
            down = smoothstep((arg - hi_r) / width)
            for wk, u, d in zip(wy[b:b + block], up, down):
                acc += wk * (u - d)
        vals[i[w], r] = acc
        self.values = vals
        if self.straight_zero:
            te1 = self.tau
            self.zeta = smoothstep(1.0 - (t - te1) / (self.tau / 3.0))
        else:
            self.zeta = np.zeros(len(t))

    def _straight0(self, t):
        """Straight cutoff: supported on [tau/6, 5tau/6], 1 on I_0."""
        sixth = self.tau / 6.0
        up = smoothstep((t - sixth) / sixth)
        down = smoothstep(1.0 - (t - 4.0 * sixth) / sixth)
        return np.where(t < 3.0 * sixth, up, down)

    def on_grid(self, i: int, t_idx: int, n: int) -> np.ndarray:
        """eta_i(t, .) broadcast to an (n, n, n) grid array; n must be the
        family's ``n_x1``."""
        if n != self.n_x1:
            raise ValueError(f"grid size {n} differs from the family's "
                             f"n_x1={self.n_x1}")
        i = checked_index("window index", i, self.n_windows)
        t_idx = checked_index("time index", t_idx, self.values.shape[1])
        prof = self.values[i, t_idx]
        return np.broadcast_to(prof[:, None, None], (n, n, n))

    def sum_int_sq(self, t_idx: int) -> float:
        """sum_i integral eta_i^2 dx at one time sample."""
        t_idx = checked_index("time index", t_idx, self.values.shape[1])
        return float(np.sum(np.mean(self.values[:, t_idx, :] ** 2, axis=1)))

    def overlap_defect(self) -> float:
        """max over (t, x1) of eta_i * eta_j for i != j.

        eta >= 0, so a pair whose live (time) rows do not meet has products
        exactly 0 and leaves the max at its start value 0; only the pairs
        whose live rows meet are multiplied, over the rows they share."""
        live = np.any(self.values != 0.0, axis=2)
        # shared[i, j]: the number of live rows that windows i < j share
        live_f = live.astype(float)
        shared = np.triu(live_f @ live_f.T, 1)
        worst = 0.0
        for i, j in zip(*np.nonzero(shared)):
            rows = live[i] & live[j]
            worst = max(worst, float(np.max(self.values[i, rows]
                                            * self.values[j, rows])))
        return worst
