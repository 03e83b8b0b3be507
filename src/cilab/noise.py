"""Trace-class Wiener process on the torus and its one-sided mollifications.

The driving noise is B(t) = sum_k sqrt(c_k) beta_k(t) e_k with finitely many
retained wavevectors, two divergence-free polarizations per wavevector, and
eigenvalues c_k = scale * (1+|k|^2)^(-p).  Brownian increments come from
counter-based Philox streams keyed by (seed, mode index), so paths are
bit-reproducible regardless of evaluation order.
"""

from dataclasses import dataclass, field

import numpy as np

from .fields import SpectralField, zeros
from .grids import GridSpec

_SQRT2 = np.sqrt(2.0)

# standard bump on (0,1); one-sided mollification kernel
def _bump(s):
    out = np.zeros_like(s)
    inside = (s > 0.0) & (s < 1.0)
    u = 2.0 * s[inside] - 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u * u))
    return out


@dataclass(frozen=True)
class NoiseMode:
    """One basis element sqrt(2) * dir * trig(2 pi k.x)."""

    k: tuple            # integer wavevector
    polarization: int   # 1 (cosine branch) or 2 (sine branch)
    c: float            # eigenvalue of GG*
    direction: tuple    # unit vector orthogonal to k

    def stamp(self) -> np.ndarray:
        """Coefficient of the basis field at +k (conjugate at -k implied)."""
        d = np.asarray(self.direction)
        if self.polarization == 1:
            return (d / _SQRT2).astype(complex)
        return -1j * d / _SQRT2


def _frame(k: np.ndarray):
    """Two unit vectors orthogonal to k (and to each other)."""
    khat = k / np.linalg.norm(k)
    ax = int(np.argmin(np.abs(khat)))
    e = np.zeros(3)
    e[ax] = 1.0
    a = np.cross(khat, e)
    a /= np.linalg.norm(a)
    b = np.cross(khat, a)
    return a, b


@dataclass
class SpectrumSpec:
    """Finite noise spectrum: |k| <= k_max, c_k = scale*(1+|k|^2)^(-p)."""

    p: float = 6.0
    scale: float = 1.0
    k_max: int = 4
    modes: list = field(default_factory=list)

    def __post_init__(self):
        if self.modes:
            return
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        half = []
        r = self.k_max
        for kx in range(-r, r + 1):
            for ky in range(-r, r + 1):
                for kz in range(-r, r + 1):
                    k = (kx, ky, kz)
                    if k == (0, 0, 0):
                        continue
                    if k <= tuple(-v for v in k):
                        continue  # one representative per +-k pair
                    if kx * kx + ky * ky + kz * kz > r * r:
                        continue
                    half.append(k)
        half.sort()
        for k in half:
            kv = np.array(k, dtype=float)
            c = self.scale * (1.0 + float(kv @ kv)) ** (-self.p)
            a, b = _frame(kv)
            self.modes.append(NoiseMode(k, 1, c, tuple(a)))
            self.modes.append(NoiseMode(k, 2, c, tuple(b)))
        if not self.modes:
            raise ValueError("empty mode list")

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def eigenvalues(self) -> np.ndarray:
        return np.array([m.c for m in self.modes])

    def k_squared(self) -> np.ndarray:
        return np.array([sum(v * v for v in m.k) for m in self.modes], float)

    def orthonormality_defect(self) -> float:
        """Max deviation of the basis Gram matrix from the identity.

        The basis fields are single-frequency trig fields; inner products are
        evaluated exactly from their coefficient stamps.
        """
        worst = 0.0
        for i, mi in enumerate(self.modes):
            for j, mj in enumerate(self.modes):
                if mi.k == mj.k:
                    wi, wj = mi.stamp(), mj.stamp()
                    g = 2.0 * np.real(wi @ np.conj(wj))
                else:
                    g = 0.0  # distinct frequencies are exactly orthogonal
                target = 1.0 if i == j else 0.0
                worst = max(worst, abs(g - target))
        return worst


def trace(spec: SpectrumSpec, s: float = 0.0) -> float:
    """Tr((I - Lap)^s GG*) = sum_k c_k (1 + 4 pi^2 |k|^2)^s."""
    c = spec.eigenvalues()
    ksq = spec.k_squared()
    return float(np.sum(c * (1.0 + 4.0 * np.pi**2 * ksq) ** s))


class NoisePath:
    """Sampled path of B on a uniform time grid, plus mode machinery."""

    def __init__(self, spec: SpectrumSpec, dt: float, horizon: float,
                 seed: int):
        if dt <= 0 or horizon < dt:
            raise ValueError("need dt > 0 and horizon >= dt")
        self.spec = spec
        self.dt = float(dt)
        self.seed = int(seed)
        self.n_steps = int(round(horizon / dt))
        self.horizon = self.n_steps * self.dt
        self.times = np.arange(self.n_steps + 1) * self.dt
        incr = np.empty((spec.n_modes, self.n_steps))
        root_dt = np.sqrt(self.dt)
        for m in range(spec.n_modes):
            gen = np.random.Generator(np.random.Philox(key=[self.seed, m]))
            incr[m] = gen.standard_normal(self.n_steps) * root_dt
        self.increments = incr
        self.beta = np.concatenate(
            [np.zeros((spec.n_modes, 1)), np.cumsum(incr, axis=1)], axis=1)
        self._stamps = np.stack([m.stamp() for m in spec.modes])  # (M, 3)
        self._roots = np.sqrt(spec.eigenvalues())

    # -- field assembly --------------------------------------------------
    def _assemble(self, weights: np.ndarray, grid: GridSpec) -> SpectralField:
        f = zeros(grid, "vector3", mean_zero=True)
        for m, mode in enumerate(self.spec.modes):
            if weights[m] == 0.0:
                continue
            cur = f.get_mode(mode.k).copy()
            f.set_mode(mode.k, cur + weights[m] * self._stamps[m])
        return f

    def field_at(self, i: int, grid: GridSpec) -> SpectralField:
        """B(t_i) as a spectral field."""
        return self._assemble(self._roots * self.beta[:, i], grid)

    def project(self, u: SpectralField) -> np.ndarray:
        """All inner products <u, e_k> at once."""
        out = np.empty(self.spec.n_modes)
        for m, mode in enumerate(self.spec.modes):
            cu = u.get_mode(mode.k)
            out[m] = 2.0 * np.real(cu @ np.conj(self._stamps[m]))
        return out

    # -- path norms (mode space; the basis diagonalizes (I - Lap)) -------
    def hs_norm(self, i: int, s: float) -> float:
        """H^s norm of B(t_i)."""
        w = self.spec.eigenvalues() * self.beta[:, i] ** 2
        mult = (1.0 + 4.0 * np.pi**2 * self.spec.k_squared()) ** s
        return float(np.sqrt(np.sum(w * mult)))

    def hs_increment_norm(self, i: int, j: int, s: float) -> float:
        db = self.beta[:, j] - self.beta[:, i]
        w = self.spec.eigenvalues() * db**2
        mult = (1.0 + 4.0 * np.pi**2 * self.spec.k_squared()) ** s
        return float(np.sqrt(np.sum(w * mult)))

    def index_of(self, t: float) -> int:
        return int(round(t / self.dt))


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
        u = s / iota
        w = _bump(u)
        total = w.sum() * path.dt
        self.weights = w * path.dt / total        # sum to 1 exactly
        dw = _dbump(u) / iota
        self.dweights = dw * path.dt / total
        self.lags = np.arange(1, n_taps)
        # mollified per-mode coordinates and their time derivative
        beta = path.beta
        M, N1 = beta.shape
        self.beta_z = np.zeros((M, N1))
        self.dbeta_z = np.zeros((M, N1))
        for tap, lag in enumerate(self.lags):
            seg = np.zeros((M, N1))
            seg[:, lag:] = beta[:, :N1 - lag]   # B(t - lag*dt), zero before 0
            self.beta_z += self.weights[tap] * seg
            self.dbeta_z += self.dweights[tap] * seg

    def field_at(self, i: int, grid: GridSpec) -> SpectralField:
        return self.path._assemble(self.path._roots * self.beta_z[:, i], grid)

    def dfield_at(self, i: int, grid: GridSpec) -> SpectralField:
        """Analytic-kernel time derivative of z at t_i."""
        return self.path._assemble(self.path._roots * self.dbeta_z[:, i], grid)


def _dbump(u):
    out = np.zeros_like(u)
    inside = (u > 0.0) & (u < 1.0)
    v = 2.0 * u[inside] - 1.0
    out[inside] = np.exp(-1.0 / (1.0 - v * v)) * (-2.0 * v / (1.0 - v * v) ** 2) * 2.0
    return out


def mollify_time_one_sided(path: NoisePath, iota: float) -> MollifiedPath:
    return MollifiedPath(path, iota)


class LowpassPath:
    """Sharp Fourier truncation of B to |k| <= cutoff (Cauchy-mode noise)."""

    def __init__(self, path: NoisePath, cutoff: float):
        self.path = path
        self.cutoff = float(cutoff)
        self.mask = (path.spec.k_squared() <= cutoff * cutoff + 1e-9).astype(float)

    def field_at(self, i: int, grid: GridSpec) -> SpectralField:
        w = self.path._roots * self.path.beta[:, i] * self.mask
        return self.path._assemble(w, grid)


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
    if L <= 0:
        raise ValueError("L must be positive")
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
    mult = (1.0 + 4.0 * np.pi**2 * path.spec.k_squared()) ** s
    energy = (w * mult)[:, None] * path.beta**2
    hs = np.sqrt(energy.sum(axis=0))              # H^s norm at each sample
    n = path.n_steps
    running = 0.0
    crossing = None
    gaps = [1]
    while gaps[-1] * 2 <= n:
        gaps.append(gaps[-1] * 2)
    for i in range(n + 1):
        running = max(running, hs[i])
        if kind == "holder":
            for g in gaps:
                if g > i:
                    break
                dn = path.hs_increment_norm(i - g, i, s)
                running = max(running, dn / (g * path.dt) ** kappa)
        if running >= threshold:
            crossing = path.times[i]
            break
    if crossing is not None:
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
    single = isinstance(u_samples, SpectralField)
    if not single and len(u_samples) < n + 1:
        raise ValueError("u_samples does not cover the path time grid")
    roots = path._roots
    out = np.zeros(n + 1)
    proj = path.project(u_samples) if single else None
    for j in range(n):
        if not single:
            proj = path.project(u_samples[j])
        db = path.increments[:, j]
        out[j + 1] = out[j] + float(np.sum(roots * db * proj))
    return out
