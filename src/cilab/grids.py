"""Uniform grids on the periodic unit box [0,1)^3."""

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
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got {self.n}")

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


@lru_cache(maxsize=16)
def _wavenumbers(n: int):
    k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    kz = np.arange(n // 2 + 1, dtype=np.int64)
    return k[:, None, None], k[None, :, None], kz[None, None, :]


@lru_cache(maxsize=16)
def _k_squared(n: int):
    kx, ky, kz = _wavenumbers(n)
    return kx * kx + ky * ky + kz * kz
