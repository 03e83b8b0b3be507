"""Uniform grids on the periodic unit box [0,1)^3, the integer and index
checks of the library, the rule that splits a job on a grid over the usable
CPUs, and ``run_parts``, the one way the library runs the parts of a job on
threads."""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Cubic grid on the torus [0,1)^3 with ``n`` points per axis.

    ``n`` should be a power of two in normal use; the hard requirements are
    n >= 8 and even.  The maximum resolvable (integer) wavenumber is n/2.
    """

    n: int

    def __post_init__(self):
        if not is_integer(self.n) or self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid size must be an even int >= 8, got {self.n!r}")

    @property
    def nyquist(self) -> int:
        return self.n // 2

    @property
    def dx(self) -> float:
        return 1.0 / self.n

    def axes(self):
        """1D sample coordinates (identical for the three axes)."""
        return np.arange(self.n) / self.n

    def wavenumbers(self):
        """Integer wavenumber arrays (kx, ky, kz) broadcastable to rfftn layout."""
        return _wavenumbers(self.n)

    def k_squared(self):
        """|k|^2 as an integer array in rfftn layout."""
        return _k_squared(self.n)

    def mesh(self):
        """Full (3, n, n, n) array of grid point coordinates."""
        x = self.axes()
        return np.stack(np.meshgrid(x, x, x, indexing="ij"))


def is_integer(x) -> bool:
    """Whether x is an int or a numpy integer, and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def checked_index(name: str, i, count: int) -> int:
    """``i`` if it is an integer in 0..count-1, else ValueError naming it:
    numpy would wrap a negative index to one from the end."""
    if not (is_integer(i) and 0 <= i < count):
        raise ValueError(f"{name} {i!r} outside 0..{count - 1}")
    return i


# both caches hand every caller the same arrays: they are read-only, so no
# caller can change what a later one sees
@lru_cache(maxsize=16)
def _wavenumbers(n: int):
    k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    kz = np.arange(n // 2 + 1, dtype=np.int64)
    k.flags.writeable = kz.flags.writeable = False
    return k[:, None, None], k[None, :, None], kz[None, None, :]


@lru_cache(maxsize=16)
def _k_squared(n: int):
    kx, ky, kz = _wavenumbers(n)
    ksq = kx * kx + ky * ky + kz * kz
    ksq.flags.writeable = False
    return ksq


# a whole-grid job takes 2 parts on a grid of more points than this,
# n >= 33.  Alternating runs on 2 CPUs, one part against two: advection
# kernel calls n = 32 3.5 -> 3.8 ms (two won 4 of 12), n = 36 5.6 -> 4.9 ms
# (8 of 12), n = 40 7.4 -> 5.6 ms (11 of 12); stepbench step-n32 with every
# ``fields`` transform on 2 workers, two rounds of 6 pairs of 20 s runs:
# setup_s 0.0203 -> 0.0251 s and 0.0250 -> 0.0254 s (two won 1 of 6 each),
# step_s 1.249 -> 1.282 s and 1.374 -> 1.362 s (2 of 6 each)
_GRID_PART_POINTS = 32 ** 3


def _usable_cpus() -> int:
    """CPUs this process may run on (all CPUs where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _part_count(points: int, part_points: int, cpus: int) -> int:
    """Threads for a job of ``points``: one per ``part_points`` or part of
    it, and at most ``cpus``."""
    return max(1, min(cpus, -(-points // part_points)))


def _grid_parts(points: int, cpus: int) -> int:
    """Parts of a whole-grid job of ``points``: 2 on a grid of more than
    ``_GRID_PART_POINTS`` points with at least 2 of ``cpus``, else 1."""
    return min(2, _part_count(points, _GRID_PART_POINTS, cpus))


def run_parts(phases, parts: int) -> None:
    """phase(p) for p = 0..parts-1, one phase after another: part 0 on the
    calling thread, the others on ``parts - 1`` threads that the call starts
    and joins before it returns or raises (leaving the pool's block waits
    for every part it was given).  Every part of a phase ends before the next
    phase starts, and an error of any part is raised here.  One part is a
    plain loop on the calling thread."""
    if parts == 1:
        for phase in phases:
            phase(0)
        return
    with ThreadPoolExecutor(max_workers=parts - 1) as pool:
        for phase in phases:
            others = [pool.submit(phase, p) for p in range(1, parts)]
            phase(0)
            for other in others:
                other.result()
