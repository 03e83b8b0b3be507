"""Trace-class Wiener process on the torus and its one-sided mollifications.

The driving noise is B(t) = sum_k sqrt(c_k) beta_k(t) e_k with finitely many
retained wavevectors, two divergence-free polarizations per wavevector, and
eigenvalues c_k = scale * (1+|k|^2)^(-p).  The spectrum is a frozen value:
read-only arrays with basis element m in row m, rows 2j and 2j+1 the cosine
and sine branch of the j-th wavevector.  Brownian increments come from
counter-based Philox streams keyed by (seed, mode index), so paths are
bit-reproducible regardless of evaluation order.  A stream depends on its key
and counter alone (Salmon et al., SC 2011), so one bit generator re-keyed per
mode draws what a new generator per mode would.

Mode work goes through ``fields.ModeTable``.  Each grid keeps the table's
``write_plan`` of the fixed stamps, so a field of B or of its mollification,
whose weights are real, is one gather of the weights, one product with the
stored stamps and one ``np.add.at`` into a zeroed half-spectrum, which adds
repeated slots in mode order.  Path norms run over all modes and samples at
once; the mollification over all modes at once, one matrix product per
block of output samples; the Ito sum over all modes of a few samples at a
time, the projections <u(t_j), e_k> of each sample one gather.
"""

from dataclasses import dataclass, field

import numpy as np

from .cutoffs import bump, bump_deriv
from .fields import ModeTable, SpectralField, zeros
from .grids import GridSpec, checked_index, is_integer

_SQRT2 = np.sqrt(2.0)
_BLOCK = 32   # output samples per Toeplitz block product of MollifiedPath
_ITO_CHUNK = 8   # samples per projection in ito_integral


@dataclass(frozen=True)
class SpectrumSpec:
    """Finite noise spectrum: |k| <= k_max, c_k = scale*(1+|k|^2)^(-p).

    A frozen value, equal and hashed by (p, scale, k_max), whose one
    representation is read-only arrays with basis element m in row m:
    wavevectors ``k`` (M, 3), eigenvalues ``c`` (M,) of GG* and ``stamps``
    (M, 3), the coefficient of the basis field at +k (conjugate at -k).  Rows
    2j and 2j+1 are sqrt(2) a cos(2 pi k.x) and sqrt(2) b sin(2 pi k.x) for
    the j-th wavevector k and unit vectors a, b orthogonal to k and each
    other."""

    p: float = 6.0
    scale: float = 1.0
    k_max: int = 4
    k: np.ndarray = field(init=False, repr=False, compare=False)
    c: np.ndarray = field(init=False, repr=False, compare=False)
    stamps: np.ndarray = field(init=False, repr=False, compare=False)

    @np.errstate(over="ignore")   # an overflowing c_k is inf, reported below
    def __post_init__(self):
        if not is_integer(self.k_max) or self.k_max < 1:
            raise ValueError(f"k_max={self.k_max!r} is not an integer >= 1")
        if not 0.0 < self.scale < np.inf:
            raise ValueError(f"scale={self.scale} is not positive and finite")
        if not -np.inf < self.p < np.inf:
            raise ValueError(f"p={self.p} is not finite")
        r = np.arange(-self.k_max, self.k_max + 1, dtype=np.int64)
        ks = np.stack(np.meshgrid(r, r, r, indexing="ij"), -1).reshape(-1, 3)
        # in sorted order, one representative per +-k pair: the one whose
        # first nonzero component is positive
        lead = ks[np.arange(len(ks)), np.argmax(ks != 0, axis=1)]
        ks = ks[(lead > 0) & (np.sum(ks**2, 1) <= self.k_max**2)]
        # two unit vectors a, b orthogonal to each k and to each other; a norm
        # is sqrt(row @ row), the dot product np.linalg.norm takes of a vector
        kf = ks.astype(float)
        khat = kf / np.sqrt(kf[:, None, :] @ kf[:, :, None])[:, 0]
        a = np.cross(khat, np.eye(3)[np.argmin(np.abs(khat), axis=1)])
        a /= np.sqrt(a[:, None, :] @ a[:, :, None])[:, 0]
        b = np.cross(khat, a)
        k2 = np.sum(ks**2, 1)
        c = self.scale * (1.0 + k2) ** (-self.p)
        if np.isinf(c).any():
            raise ValueError(f"p={self.p}: c_k overflows at |k|^2 = "
                             f"{k2[np.argmax(np.isinf(c))]}")
        stamps = np.stack([a / _SQRT2, -1j * b / _SQRT2], 1).reshape(-1, 3)
        for name, value in (("k", np.repeat(ks, 2, axis=0)),
                            ("c", np.repeat(c, 2)), ("stamps", stamps)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_modes(self) -> int:
        return len(self.c)

    def eigenvalues(self) -> np.ndarray:
        return self.c

    def k_squared(self) -> np.ndarray:
        return np.sum(self.k**2, axis=1).astype(float)

    def sobolev_weight(self, s: float) -> np.ndarray:
        """(1 + 4 pi^2 |k|^2)^s per mode: the symbol of (I - Lap)^s."""
        return (1.0 + 4.0 * np.pi**2 * self.k_squared()) ** s


def trace(spec: SpectrumSpec, s: float = 0.0) -> float:
    """Tr((I - Lap)^s GG*) = sum_k c_k (1 + 4 pi^2 |k|^2)^s."""
    return float(np.sum(spec.eigenvalues() * spec.sobolev_weight(s)))


class NoisePath:
    """Sampled path of B on a uniform time grid, plus mode machinery.

    Row m of ``increments`` is sqrt(dt) times the Philox stream keyed by
    (seed, m).  One bit generator draws every row; re-keyed to (seed, m) with
    counter 0 and an empty buffer, it is a new ``Philox(key=[seed, m])``."""

    def __init__(self, spec: SpectrumSpec, dt: float, horizon: float,
                 seed: int):
        for name, value in (("dt", dt), ("horizon", horizon)):
            if not np.isfinite(value):
                raise ValueError(f"{name}={value} is not finite")
        if dt <= 0 or horizon < dt:
            raise ValueError("need dt > 0 and horizon >= dt")
        if not (is_integer(seed) and 0 <= seed < 2**63):
            raise ValueError(f"seed={seed!r} is not an integer in [0, 2**63)")
        self.spec = spec
        self.dt = float(dt)
        self.seed = int(seed)
        self.n_steps = int(round(horizon / dt))
        self.horizon = self.n_steps * self.dt
        self.times = np.arange(self.n_steps + 1) * self.dt
        self.increments = np.empty((spec.n_modes, self.n_steps))
        bits = np.random.Philox(key=[self.seed, 0])
        gen, state = np.random.Generator(bits), bits.state
        for m, row in enumerate(self.increments):
            state["state"]["key"][1] = m   # counter 0, empty buffer
            bits.state = state
            gen.standard_normal(out=row)
        self.increments *= np.sqrt(self.dt)
        self.beta = np.zeros((spec.n_modes, self.n_steps + 1))
        np.cumsum(self.increments, axis=1, out=self.beta[:, 1:])
        self._roots = np.sqrt(spec.c)
        self._grids = {}   # grid.n -> (ModeTable of spec.k, its stamp writes)

    # -- field assembly --------------------------------------------------
    def _plan(self, grid: GridSpec):
        """The ModeTable on ``grid`` and ``write_plan`` of the stamps."""
        if grid.n not in self._grids:
            table = ModeTable(self.spec.k, grid)
            self._grids[grid.n] = table, *table.write_plan(self.spec.stamps.T)
        return self._grids[grid.n]

    def _assemble(self, weights: np.ndarray, grid: GridSpec) -> SpectralField:
        _, targets, modes, stamps = self._plan(grid)
        f = zeros(grid, "vector3")
        np.add.at(f.coeffs.reshape(-1), targets, weights[modes] * stamps)
        return f

    def _sample_index(self, i: int) -> int:
        """``i`` if it indexes a sample t_0..t_{n_steps}, else ValueError."""
        return checked_index("sample index", i, self.n_steps + 1)

    def field_at(self, i: int, grid: GridSpec) -> SpectralField:
        """B(t_i) as a spectral field."""
        i = self._sample_index(i)
        return self._assemble(self._roots * self.beta[:, i], grid)

    def index_of(self, t: float) -> int:
        """Index of the sample nearest t; ValueError if t is off the path."""
        i = float(t) / self.dt
        if not -np.inf < i < np.inf:   # NaN or +-inf has no nearest sample
            raise ValueError(f"t={t} is off the path [0, {self.horizon}]")
        return self._sample_index(int(round(i)))


def sample_path(spec: SpectrumSpec, dt: float, horizon: float,
                seed: int) -> NoisePath:
    """Sample a Wiener path; bit-reproducible from (spec, dt, horizon, seed)."""
    return NoisePath(spec, dt, horizon, seed)


# ---------------------------------------------------------------------------
# one-sided temporal mollification
# ---------------------------------------------------------------------------

class MollifiedPath:
    """z(t) = sum_j w_j B(t - s_j) with kernel weights supported in (0, iota).

    Only strictly past path samples enter each value (adaptedness); the
    time derivative uses the analytic derivative of the kernel discretized
    on the same quadrature points.
    """

    def __init__(self, path: NoisePath, iota: float):
        if not np.isfinite(iota):
            raise ValueError(f"iota={iota} is not finite")
        if iota < 2.0 * path.dt:
            raise ValueError("kernel under-resolved in time: need "
                             f"iota >= 2*dt, got iota={iota}, dt={path.dt}")
        if iota > path.horizon:
            raise ValueError("kernel wider than the path: need iota <= "
                             f"path.horizon, got iota={iota}, "
                             f"path.horizon={path.horizon}")
        self.path = path
        self.iota = float(iota)
        n_taps = int(np.ceil(iota / path.dt))
        s = np.arange(1, n_taps) * path.dt       # quadrature nodes in (0, iota)
        r = 2.0 * (s / iota) - 1.0               # the kernel is bump(r^2)
        w = bump(r * r)
        total = w.sum() * path.dt
        self.weights = w * path.dt / total        # sum to 1 exactly
        dw = bump_deriv(r) * 2.0 / iota
        self.dweights = dw * path.dt / total
        # mollified per-mode coordinates and their time derivative, B taken
        # as 0 before time 0: z(t_i) = sum_lag w[lag-1] B(t_{i-lag}).  Each
        # block of _BLOCK outputs from t_{i0} on is one product with the
        # Toeplitz block T: row r holds the sample t_{i0-taps+r}, and column
        # pair c gives z and dz/dt at t_{i0+c}.  T is exactly 0 where a
        # sample lies at or after the output's time, and a + x * 0 == a for
        # finite x, so z(t_i) does not depend on later samples, not even at
        # rounding level.
        taps, L = n_taps - 1, _BLOCK
        kern = np.zeros((taps + 2 * L, 2))   # (w, dw) at lag, in row L + lag
        kern[L + 1:L + 1 + taps] = np.stack([self.weights, self.dweights], 1)
        T = kern[L + taps + np.arange(L) - np.arange(taps + L - 1)[:, None]]
        beta = path.beta
        M, N1 = beta.shape
        self.beta_z, self.dbeta_z = np.zeros((2, M, N1))
        for i0 in range(1, N1, L):
            j0 = max(i0 - taps, 0)
            rows = beta[:, j0:i0 + L - 1]
            if i0 + L - 1 > N1:
                # zeros past the last sample give the last block the shape it
                # has on a longer path: z does not depend on the horizon
                rows = np.pad(rows, ((0, 0), (0, i0 + L - 1 - N1)))
            zz = rows @ T[j0 + taps - i0:].reshape(-1, 2 * L)
            zz = zz.reshape(M, L, 2)
            self.beta_z[:, i0:i0 + L] = zz[:, :N1 - i0, 0]
            self.dbeta_z[:, i0:i0 + L] = zz[:, :N1 - i0, 1]

    def field_at(self, i: int, grid: GridSpec) -> SpectralField:
        i = self.path._sample_index(i)
        return self.path._assemble(self.path._roots * self.beta_z[:, i], grid)

    def dfield_at(self, i: int, grid: GridSpec) -> SpectralField:
        """Analytic-kernel time derivative of z at t_i."""
        i = self.path._sample_index(i)
        return self.path._assemble(self.path._roots * self.dbeta_z[:, i],
                                   grid)


# ---------------------------------------------------------------------------
# stopping time
# ---------------------------------------------------------------------------

@dataclass
class StoppingTimeResult:
    value: float
    triggered_by: str          # "norm_threshold" or "horizon_cap"
    L: float
    alpha: float
    certified: bool = True     # False when horizon < L and no crossing


def stopping_time(path: NoisePath, L: float, alpha: float, gamma: float,
                  sobolev_constant: float = 1.0,
                  kind: str = "holder") -> StoppingTimeResult:
    """First time the discrete path norm crosses L / C_S, capped at L.

    ``kind='holder'`` uses the C^{1/2-alpha}_t H^{7/2+gamma} norm evaluated
    over dyadic-gap sample pairs; ``kind='sup'`` uses sup_t H^{5/2+gamma}.
    The Sobolev constant is folded into the user-chosen L by default.
    """
    for name, value in (("L", L), ("sobolev_constant", sobolev_constant)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name}={value} is not positive and finite")
    if not np.isfinite(gamma):
        raise ValueError(f"gamma={gamma} is not finite")
    if kind == "holder":
        if not 0.0 < alpha < 0.5:
            raise ValueError("alpha must lie in (0, 1/2)")
        s = 3.5 + gamma
    elif kind == "sup":
        s = 2.5 + gamma
    else:
        raise ValueError("kind must be 'holder' or 'sup'")
    threshold = L / sobolev_constant
    kappa = 0.5 - alpha
    w = path.spec.eigenvalues()
    mult = path.spec.sobolev_weight(s)

    def hs(rows):
        """H^s norms sqrt(sum_m c_m b_m^2 (1 + 4 pi^2 |k_m|^2)^s) of the mode
        vectors b in the rows; the basis diagonalizes (I - Lap)."""
        return np.sqrt(np.sum((w * rows**2) * mult, axis=1))

    beta = np.ascontiguousarray(path.beta.T)      # one sample per row
    norm = hs(beta)
    if kind == "holder":
        # difference quotients over each dyadic gap g
        g = 1
        while g <= path.n_steps:
            quotient = hs(beta[g:] - beta[:-g]) / (g * path.dt) ** kappa
            norm[g:] = np.maximum(norm[g:], quotient)
            g *= 2
    # the running maximum first reaches the threshold where the norm does
    hits = np.flatnonzero(norm >= threshold)
    if hits.size:
        crossing = path.times[hits[0]]
        value = min(crossing, L)
        trig = "norm_threshold" if crossing < L else "horizon_cap"
        return StoppingTimeResult(float(value), trig, L, alpha, True)
    if path.horizon < L:
        return StoppingTimeResult(float(path.horizon), "horizon_cap", L,
                                  alpha, certified=False)
    return StoppingTimeResult(float(L), "horizon_cap", L, alpha, True)


# ---------------------------------------------------------------------------
# Ito integrals
# ---------------------------------------------------------------------------

def ito_integral(u_samples, path: NoisePath) -> np.ndarray:
    """Left-endpoint sums of <u(t_j), B(t_{j+1}) - B(t_j)>.

    ``u_samples`` holds one vector field per sample of the path's time
    grid.  Returns the running integral, one entry per sample time.
    """
    n = path.n_steps
    if len(u_samples) < n + 1:
        raise ValueError("u_samples does not cover the path time grid")
    db = path._roots[:, None] * path.increments                 # (M, n)
    # <u(t_j), e_k> for _ITO_CHUNK samples at a time, from the stored slots
    # of each sample gathered into one reused buffer.  Where the table
    # stores a mode conjugated, conjugating its stamp instead leaves the
    # real part of each product, and so <u, e_k>, unchanged
    conj = path._plan(u_samples[0].grid)[0].conj[:, None]
    stamps = np.where(conj, path.spec.stamps, np.conj(path.spec.stamps))
    cu = np.empty((_ITO_CHUNK, 3, path.spec.n_modes), complex)
    steps = np.empty(n)
    for j0 in range(0, n, _ITO_CHUNK):
        m = min(_ITO_CHUNK, n - j0)
        for buf, u in zip(cu, u_samples[j0:j0 + m]):
            np.take(u.coeffs.reshape(len(u.coeffs), -1),
                    path._plan(u.grid)[0].slot, axis=1, out=buf)
        proj = 2.0 * np.real(np.einsum("jcm,mc->jm", cu[:m], stamps))
        steps[j0:j0 + m] = np.einsum("jm,mj->j", proj, db[:, j0:j0 + m])
    return np.concatenate([[0.0], np.cumsum(steps)])
