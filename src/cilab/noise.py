"""Trace-class Wiener process on the torus and its one-sided mollifications.

The driving noise is B(t) = sum_k sqrt(c_k) beta_k(t) e_k with finitely many
retained wavevectors, two divergence-free polarizations per wavevector, and
eigenvalues c_k = scale * (1+|k|^2)^(-p).  Brownian increments come from
counter-based Philox streams keyed by (seed, mode index), so paths are
bit-reproducible regardless of evaluation order.  A stream depends on its key
and counter alone (Salmon et al., SC 2011), so one bit generator re-keyed per
mode draws what a new generator per mode would.

Mode work goes through ``fields.ModeTable``.  Each grid keeps the table's
``write_plan`` of the fixed stamps, so a field of B or of its mollification,
whose weights are real, is one gather of the weights, one product with the
stored stamps and one ``np.add.at`` into a zeroed half-spectrum, which adds
repeated slots in mode order; the projections <u, e_k> are one gather.
Path norms and the Ito sum of a fixed field run over all modes and samples
at once; the mollification over all modes at once, one matrix product per
block of output samples; the Ito sum of one field per sample over all modes
of a few samples at a time.
"""

from dataclasses import dataclass, field

import numpy as np

from .cutoffs import bump, bump_deriv
from .fields import ModeTable, SpectralField, zeros
from .grids import GridSpec

_SQRT2 = np.sqrt(2.0)
_BLOCK = 32   # output samples per Toeplitz block product of MollifiedPath
_ITO_CHUNK = 8   # samples per projection in ito_integral


@dataclass(frozen=True)
class NoiseMode:
    """One basis element sqrt(2) * dir * trig(2 pi k.x)."""

    k: tuple            # integer wavevector
    polarization: int   # 1 (cosine branch) or 2 (sine branch)
    c: float            # eigenvalue of GG*
    direction: tuple    # unit vector orthogonal to k

    def stamp(self) -> np.ndarray:
        """Coefficient of the basis field at +k (conjugate at -k implied)."""
        return _stamps(self.direction, self.polarization)


def _stamps(direction, polarization) -> np.ndarray:
    """``NoiseMode.stamp`` per row, by the same elementwise operations."""
    d = np.asarray(direction)
    return np.where(np.asarray(polarization)[..., None] == 1,
                    (d / _SQRT2).astype(complex), -1j * d / _SQRT2)


@dataclass
class SpectrumSpec:
    """Finite noise spectrum: |k| <= k_max, c_k = scale*(1+|k|^2)^(-p).  Its
    one representation is ``modes``; a new path derives its arrays from it."""

    p: float = 6.0
    scale: float = 1.0
    k_max: int = 4
    modes: list = field(default_factory=list)

    def __post_init__(self):
        if self.modes:
            return
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if not 0.0 < self.scale < np.inf:
            raise ValueError(f"scale={self.scale} is not positive and finite")
        if not -np.inf < self.p < np.inf:
            raise ValueError(f"p={self.p} is not finite")
        r = np.arange(-self.k_max, self.k_max + 1)
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
        for k, k2, da, db in zip(ks.tolist(), np.sum(ks**2, 1).tolist(),
                                 a.tolist(), b.tolist()):
            try:
                c = self.scale * (1.0 + k2) ** (-self.p)
            except OverflowError:   # the power alone overflows
                c = np.inf
            if c == np.inf:
                raise ValueError(f"p={self.p}: c_k overflows at |k|^2 = {k2}")
            self.modes += [NoiseMode(tuple(k), 1, c, tuple(da)),
                           NoiseMode(tuple(k), 2, c, tuple(db))]

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def eigenvalues(self) -> np.ndarray:
        return np.array([m.c for m in self.modes])

    def k_squared(self) -> np.ndarray:
        return np.array([sum(v * v for v in m.k) for m in self.modes], float)

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
        self._stamps = _stamps([m.direction for m in spec.modes],  # (M, 3)
                               [m.polarization for m in spec.modes])
        self._roots = np.sqrt(spec.eigenvalues())
        self._k = np.array([m.k for m in spec.modes], dtype=np.int64)
        self._grids = {}   # grid.n -> (ModeTable of self._k, its stamp writes)

    # -- field assembly --------------------------------------------------
    def _plan(self, grid: GridSpec):
        """The ModeTable on ``grid`` and ``write_plan`` of the stamps."""
        if grid.n not in self._grids:
            table = ModeTable(self._k, grid)
            self._grids[grid.n] = (table, *table.write_plan(self._stamps.T))
        return self._grids[grid.n]

    def _assemble(self, weights: np.ndarray, grid: GridSpec) -> SpectralField:
        _, targets, modes, stamps = self._plan(grid)
        f = zeros(grid, "vector3")
        np.add.at(f.coeffs.reshape(-1), targets, weights[modes] * stamps)
        return f

    def _sample_index(self, i: int) -> int:
        """``i`` if it indexes a sample t_0..t_{n_steps}, else ValueError:
        numpy would wrap a negative index to a sample from the end."""
        if not 0 <= i <= self.n_steps:
            raise ValueError(f"sample index {i} outside 0..{self.n_steps}")
        return i

    def field_at(self, i: int, grid: GridSpec) -> SpectralField:
        """B(t_i) as a spectral field."""
        i = self._sample_index(i)
        return self._assemble(self._roots * self.beta[:, i], grid)

    def project(self, u: SpectralField) -> np.ndarray:
        """All inner products <u, e_k> at once."""
        cu = self._plan(u.grid)[0].gather(u.coeffs)       # (3, M)
        return 2.0 * np.real(np.einsum("cm,mc->m", cu, np.conj(self._stamps)))

    def index_of(self, t: float) -> int:
        """Index of the sample nearest t; ValueError if t is off the path."""
        return self._sample_index(int(round(t / self.dt)))


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
        self.lags = np.arange(1, n_taps)
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

def ito_integral(u_samples, path: NoisePath, n_steps: int | None = None) -> np.ndarray:
    """Left-endpoint sums of <u(t_j), B(t_{j+1}) - B(t_j)>.

    ``u_samples`` is a sequence of vector fields on the path's time grid (or
    a single field, treated as constant in time).  Returns the running
    integral, one entry per sample time.
    """
    n = path.n_steps if n_steps is None else n_steps
    if not 0 <= n <= path.n_steps:
        raise ValueError(f"n_steps={n} outside the path's {path.n_steps} "
                         "steps")
    single = isinstance(u_samples, SpectralField)
    if not single and len(u_samples) < n + 1:
        raise ValueError("u_samples does not cover the path time grid")
    db = path._roots[:, None] * path.increments[:, :n]       # (M, n)
    if single:
        steps = path.project(u_samples) @ db
    else:
        # <u(t_j), e_k> for _ITO_CHUNK samples at a time, from the stored
        # slots of each sample gathered into one reused buffer.  Where the
        # table stores a mode conjugated, conjugating its stamp instead
        # leaves the real part of each product, and so <u, e_k>, unchanged
        conj = path._plan(u_samples[0].grid)[0].conj[:, None]
        stamps = np.where(conj, path._stamps, np.conj(path._stamps))
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
