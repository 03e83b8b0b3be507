"""Grid estimation of Hoelder norms.

True C^{N+kappa} norms are not computable from samples; the estimators here
are lower bounds.  The kappa-quotient is the exact maximum over all
axis-aligned grid pairs (x, x + h e_j) at the dyadic gaps h = 1, 2, 4, ...,
n/2, so every estimate is deterministic and invariant under translation of
the field by whole grid steps.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .fields import SpectralField, _inverse_transform, _sup, spectral_tables


@dataclass
class HolderNormReport:
    """Lower-bound estimates of sup-norms and Hoelder seminorms.

    ``c0``/``c1`` follow the usual convention: sums over multi-indices up to
    the given total order of the sup-norm of each derivative.  ``order`` is
    the order N + kappa the report was built at, and ``seminorm`` the exact
    maximum of the kappa-quotients of the N-th derivatives over all
    axis-aligned grid pairs at dyadic gaps (0 when kappa = 0).
    """

    order: float
    c0: float
    c1: float
    c2: float = 0.0
    seminorm: float = 0.0

    def value(self, order: float) -> float:
        """Full C^{N+kappa} estimate; ``order`` must be the order the report
        was built at, since other orders need other derivatives and
        seminorms."""
        if abs(order - self.order) > 1e-12:
            raise ValueError(f"report was built at order {self.order}, "
                             f"not {order}")
        n_whole = int(np.floor(self.order + 1e-12))
        return (self.c0, self.c1, self.c2)[n_whole] + self.seminorm


def _derivative_levels(f: SpectralField, up_to: int):
    """Grid samples of all derivatives D^alpha f grouped by |alpha|, with the
    multipliers of ``fields.differential``: per level, one array of shape
    (multi-indices, ncomp, n, n, n) from one batched inverse transform."""
    deriv = spectral_tables(f.grid.n).deriv
    out = {}
    for level in range(up_to + 1):
        alphas = list(combinations_with_replacement(range(3), level))
        c = np.empty((len(alphas),) + f.coeffs.shape, dtype=complex)
        for spec, alpha in zip(c, alphas):
            spec[...] = f.coeffs
            for ax in alpha:
                np.multiply(deriv[ax], spec, out=spec)
        out[level] = _inverse_transform(c)
    return out


def _seminorm(stacks, kappa: float) -> float:
    """Max of |f(x) - f(x + h e_j)| / (h/n)^kappa over every grid point x,
    axis j and dyadic gap h = 1, 2, 4, ..., n/2 (the torus distance)."""
    n = stacks[0].shape[-1]
    gaps = [2**p for p in range(n.bit_length() - 1)]
    return max(_sup(s - np.roll(s, h, axis=axis)) / (h / n) ** kappa
               for s in stacks for axis in (-3, -2, -1) for h in gaps)


def holder_norm(f: SpectralField, order: float) -> HolderNormReport:
    """Estimate the C^{N+kappa} norm of f for order = N + kappa.

    N must be 0, 1 or 2 and kappa in [0, 1).  Derivatives are taken
    spectrally before sampling; the kappa-seminorm is the exact max
    difference quotient of the N-th derivatives over all axis-aligned grid
    pairs at dyadic gaps.  The result is deterministic, invariant under
    whole-grid translations, and a lower bound of the continuum norm.
    """
    n_whole = int(np.floor(order + 1e-12))
    kappa = order - n_whole
    if n_whole not in (0, 1, 2) or not 0.0 <= kappa < 1.0:
        raise ValueError("order must be N + kappa with N in {0,1,2}, "
                         "kappa in [0,1)")
    levels = _derivative_levels(f, n_whole)
    sums = {}
    for level in sorted(levels):
        sums[level] = sum(_sup(s) for s in levels[level])
    c0 = sums[0]
    c1 = c0 + sums.get(1, 0.0)
    c2 = c1 + sums.get(2, 0.0)
    seminorm = _seminorm(levels[n_whole], kappa) if kappa > 0.0 else 0.0
    return HolderNormReport(order=order, c0=c0, c1=c1, c2=c2,
                            seminorm=seminorm)

