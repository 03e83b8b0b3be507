"""Grid estimation of Hoelder norms.

True C^{N+kappa} norms are not computable from samples; the estimators here
are lower bounds built from dyadic-separation difference quotients, which is
all the inductive bookkeeping needs (consistent, comparable numbers).
"""

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np
from scipy import fft as _fft

from .fields import SpectralField, _dcomp


@dataclass
class HolderNormReport:
    """Lower-bound estimates of sup-norms and Hoelder seminorms.

    ``c0``/``c1`` follow the usual convention: sums over multi-indices up to
    the given total order of the sup-norm of each derivative.  ``order`` is
    the order N + kappa the report was built at.
    """

    order: float
    c0: float
    c1: float
    c2: float = 0.0
    seminorms: dict = field(default_factory=dict)

    def value(self, order: float) -> float:
        """Full C^{N+kappa} estimate; ``order`` must be the order the report
        was built at, since other orders need other derivatives and
        seminorms."""
        if abs(order - self.order) > 1e-12:
            raise ValueError(f"report was built at order {self.order}, "
                             f"not {order}")
        n_whole = int(np.floor(self.order + 1e-12))
        kappa = self.order - n_whole
        base = (self.c0, self.c1, self.c2)[n_whole]
        if kappa <= 0:
            return base
        return base + self.seminorms[round(kappa, 12)]


def _derivative_levels(f: SpectralField, up_to: int):
    """Grid samples of all derivatives D^alpha f grouped by |alpha|, with the
    multipliers of ``fields.differential``."""
    g = f.grid
    out = {}
    for level in range(up_to + 1):
        out[level] = []
        for alpha in combinations_with_replacement(range(3), level):
            c = f.coeffs
            for ax in alpha:
                c = _dcomp(g, c, ax)
            out[level].append(_fft.irfftn(c, s=(g.n,) * 3, axes=(1, 2, 3),
                                          norm="forward"))
    return out


def _seminorm(stacks, kappa: float, n_pairs: int,
              rng: np.random.Generator) -> float:
    """Max of |f(x)-f(y)|/|x-y|^kappa over sampled axis-aligned pairs at
    dyadic grid separations."""
    n = stacks[0].shape[-1]
    flat = np.concatenate([s.reshape(-1, n, n, n) for s in stacks])
    best = 0.0
    h = 1
    while h <= n // 2:
        idx = rng.integers(0, n, size=(3, n_pairs))
        axis = rng.integers(0, 3, size=n_pairs)
        shifted = idx.copy()
        cols = np.arange(n_pairs)
        shifted[axis, cols] = (shifted[axis, cols] + h) % n
        diffs = (flat[:, idx[0], idx[1], idx[2]]
                 - flat[:, shifted[0], shifted[1], shifted[2]])
        dist = min(h, n - h) / n  # torus distance of the pair
        best = max(best, float(np.max(np.abs(diffs)) / dist**kappa))
        h *= 2
    return best


def holder_norm(f: SpectralField, order: float, n_pairs: int = 10000,
                seed: int = 0) -> HolderNormReport:
    """Estimate the C^{N+kappa} norm of f for order = N + kappa.

    N must be 0, 1 or 2 and kappa in [0, 1).  Derivatives are taken
    spectrally before sampling; the kappa-seminorm is a max difference
    quotient over sampled dyadic-gap pairs applied to the N-th derivatives.
    The result is a lower bound of the continuum norm.
    """
    n_whole = int(np.floor(order + 1e-12))
    kappa = order - n_whole
    if n_whole not in (0, 1, 2) or not 0.0 <= kappa < 1.0:
        raise ValueError("order must be N + kappa with N in {0,1,2}, "
                         "kappa in [0,1)")
    rng = np.random.default_rng(seed)
    levels = _derivative_levels(f, n_whole)
    sums = {}
    for level in sorted(levels):
        sums[level] = sum(float(np.max(np.abs(s))) for s in levels[level])
    c0 = sums[0]
    c1 = c0 + sums.get(1, 0.0)
    c2 = c1 + sums.get(2, 0.0)
    report = HolderNormReport(order=order, c0=c0, c1=c1, c2=c2)
    if kappa > 0.0:
        report.seminorms[round(kappa, 12)] = _seminorm(
            levels[n_whole], kappa, n_pairs, rng)
    return report

