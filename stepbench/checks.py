"""Correctness checks of the benchmark, made apart from the program.

Every reference here is either a computation the benchmark makes itself with
numpy (direct Fourier sums, numpy-FFT derivatives, closed-form solutions) or
a property the method must have (zero divergence, unit Jacobian, partition
of unity, the discrete Ito identity).  None compares against stored output.
Each check returns a ``Check`` whose ``value`` must not exceed ``limit``.
"""

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass
class Check:
    name: str
    value: float
    limit: float

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.value) and self.value <= self.limit)

    def record(self) -> dict:
        return {"name": self.name, "value": float(self.value),
                "limit": self.limit, "passed": self.passed}


# ---------------------------------------------------------------------------
# numpy spectral calculus on grid samples (independent of cilab.fields)
# ---------------------------------------------------------------------------

def _wavenumbers(n):
    k = np.fft.fftfreq(n, 1.0 / n)
    kz = np.fft.rfftfreq(n, 1.0 / n)
    return k[:, None, None], k[None, :, None], kz[None, None, :]


def grid_gradient(f):
    """d_j f_i of real samples f of shape (c, n, n, n) -> (c, 3, n, n, n)."""
    n = f.shape[-1]
    ks = _wavenumbers(n)
    fh = np.fft.rfftn(f, axes=(-3, -2, -1))
    return np.stack([np.stack([np.fft.irfftn(1j * TWO_PI * k * c, s=(n,) * 3,
                                             axes=(-3, -2, -1))
                               for k in ks]) for c in fh])


def grid_curl(v):
    g = grid_gradient(v)
    return np.stack([g[2, 1] - g[1, 2], g[0, 2] - g[2, 0], g[1, 0] - g[0, 1]])


def det3(m):
    return (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))


def sym6_to_full(s):
    """(6, ...) samples in cilab's (xx, xy, xz, yy, yz, zz) order -> (3, 3, ...)."""
    idx = ((0, 1, 2), (1, 3, 4), (2, 4, 5))
    return np.stack([np.stack([s[idx[i][j]] for j in range(3)]) for i in range(3)])


def direct_sum(coeffs, pts):
    """Exact value at points (3, P) of the real field with rfftn
    half-spectrum ``coeffs`` (c, n, n, n//2+1), f = sum_k c_k e^{2 pi i k.x}.

    Modes on the kz = 0 plane are stored for both signs, interior kz planes
    stand for their conjugate partner too (weight 2); the field must vanish
    on the kz = n/2 plane.  Modes below 1e-14 of the largest are rounding
    residue of a grid transform and are left out.
    """
    n = coeffs.shape[1]
    mag = np.abs(coeffs).max(axis=0)
    floor = 1e-14 * mag.max()
    if np.any(mag[..., n // 2] > floor):
        raise ValueError("direct_sum needs an empty Nyquist plane")
    kx, ky, kz = _wavenumbers(n)
    live = np.argwhere(mag > floor)
    k = np.stack([kx[live[:, 0], 0, 0], ky[0, live[:, 1], 0],
                  kz[0, 0, live[:, 2]]], axis=1)
    w = np.where(live[:, 2] == 0, 1.0, 2.0)
    c = coeffs[:, live[:, 0], live[:, 1], live[:, 2]] * w
    out = np.zeros((coeffs.shape[0], pts.shape[1]))
    for lo in range(0, pts.shape[1], 1024):
        phase = np.exp(1j * TWO_PI * (k @ pts[:, lo:lo + 1024]))
        out[:, lo:lo + 1024] = np.real(c @ phase)
    return out


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def interpolation(values, exact, limit=1e-6):
    """Off-grid error of an evaluator: RMS error over the points relative to
    the RMS of the exact values."""
    err = np.sqrt(np.mean((values - exact) ** 2) / np.mean(exact ** 2))
    return Check("interpolant_vs_direct_sum", err, limit)


def jacobian_defect(displacement):
    """det grad Phi - 1 on the grid, with grad Phi = Id + grad(displacement)."""
    g = grid_gradient(displacement)
    for a in range(3):
        g[a, a] += 1.0
    return det3(g) - 1.0


def volume(defect, limit=1e-6):
    """A divergence-free velocity has a flow map with det grad Phi = 1."""
    return Check("flow_map_unit_jacobian", np.max(np.abs(defect)), limit)


def uniform_shift(displacement, velocity, span, limit=1e-10):
    """The backward flow map of a uniform velocity c over ``span`` is the
    shift x -> x - c * span."""
    exact = -np.asarray(velocity)[:, None, None, None] * span
    return Check("flow_map_uniform_shift",
                 np.max(np.abs(displacement - exact)), limit)


def second_moment(gammas, W_grids, R, limit=1e-10):
    """sum_xi gamma_xi(R)^2 int W_xi (x) W_xi dx = R, by grid quadrature."""
    n3 = W_grids[0][0].size
    total = sum(g ** 2 * np.tensordot(w, w, axes=(range(1, w.ndim),) * 2) / n3
                for g, w in zip(gammas, W_grids))
    return Check("mikado_second_moment", np.max(np.abs(total - R)), limit)


def mikado_identities(W_grids, V_grids, limit=1e-10):
    """div W = 0 and curl V = W, relative to max |grad W| and max |W|."""
    worst = 0.0
    for w, v in zip(W_grids, V_grids):
        gw = grid_gradient(w)
        worst = max(worst,
                    np.max(np.abs(gw[0, 0] + gw[1, 1] + gw[2, 2]))
                    / np.max(np.abs(gw)),
                    np.max(np.abs(grid_curl(v) - w)) / np.max(np.abs(w)))
    return Check("mikado_div_free_and_curl", worst, limit)


def stress(R6, target, limit=1e-10):
    """div R = target - mean(target) and tr R = 0, relative to max |target|."""
    full = sym6_to_full(R6)
    div = np.stack([np.einsum("jj...->...", grid_gradient(full[i]))
                    for i in range(3)])
    rhs = target - target.mean(axis=(1, 2, 3), keepdims=True)
    scale = np.max(np.abs(target))
    trace = np.max(np.abs(full[0, 0] + full[1, 1] + full[2, 2]))
    return Check("new_stress_div_and_trace",
                 max(np.max(np.abs(div - rhs)), trace) / scale, limit)


def divergence(samples_list, limit=1e-10):
    """max |div v| / max |grad v| over a list of (3, n, n, n) samples."""
    worst = 0.0
    for s in samples_list:
        g = grid_gradient(s)
        worst = max(worst, np.max(np.abs(g[0, 0] + g[1, 1] + g[2, 2]))
                    / np.max(np.abs(g)))
    return Check("divergence_at_rounding", worst, limit)


def abc_samples(n, amp, wavenumber, phases):
    """Arnold-Beltrami-Childress field on one shell |k| = wavenumber:
    curl v = 2 pi wavenumber v.  ``phases`` shift x, y, z."""
    x = (np.arange(n) / n)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    a = TWO_PI * wavenumber
    px, py, pz = phases
    return amp * np.stack([np.sin(a * (Z + pz)) + np.cos(a * (Y + py)),
                           np.sin(a * (X + px)) + np.cos(a * (Z + pz)),
                           np.sin(a * (Y + py)) + np.cos(a * (X + px))])


def translate(numerical, exact, limit=1e-6):
    """Relative sup error of the drifted Beltrami solve against the exact
    translate v0(x - X(t))."""
    return Check("beltrami_translate",
                 np.max(np.abs(numerical - exact)) / np.max(np.abs(exact)),
                 limit)


def ito_identity(running, beta, c, limit=1e-10):
    """sum_j <B_j, dB_j> = (sum_k c_k beta_k(T)^2
    - sum_j sum_k c_k dbeta_{k,j}^2) / 2, exactly in exact arithmetic."""
    db = np.diff(beta, axis=1)
    quad = float(np.sum(c[:, None] * db ** 2))
    end = float(np.sum(c * beta[:, -1] ** 2))
    rhs = 0.5 * (end - quad)
    return Check("ito_identity", abs(running[-1] - rhs) / (end + quad), limit)


def discrete_holder_norm(beta, c, ksq, dt, s, kappa):
    """Running maximum of the stopping time's discrete path norm, one
    vectorized pass per dyadic gap."""
    w = (c * (1.0 + 4.0 * np.pi ** 2 * ksq) ** s)[:, None]
    norm = np.sqrt(np.sum(w * beta ** 2, axis=0))
    n = beta.shape[1] - 1
    g = 1
    while g <= n:
        inc = np.sqrt(np.sum(w * (beta[:, g:] - beta[:, :-g]) ** 2, axis=0))
        norm[g:] = np.maximum(norm[g:], inc / (g * dt) ** kappa)
        g *= 2
    return np.maximum.accumulate(norm)


def stopping_index(running, threshold):
    hit = np.nonzero(running >= threshold)[0]
    return int(hit[0]) if hit.size else None


def stopping(name, value, expected, limit=0.0):
    return Check(name, abs(value - expected), limit)


def parseval(B_grids, beta_cols, c, limit=1e-10):
    """||B(t)||^2 by grid quadrature = sum_k c_k beta_k(t)^2."""
    worst = 0.0
    for b, col in zip(B_grids, beta_cols):
        quad = np.mean(np.sum(b ** 2, axis=0))
        exact = float(np.sum(c * col ** 2))
        if exact > 0:
            worst = max(worst, abs(quad - exact) / exact)
    return Check("parseval", worst, limit)


def hermitian(coeff_list, limit=1e-12):
    """A stored half-spectrum is that of a real field: rfftn(irfftn(c)) = c."""
    worst = 0.0
    for c in coeff_list:
        n = c.shape[1]
        back = np.fft.rfftn(np.fft.irfftn(c, s=(n,) * 3, axes=(1, 2, 3)),
                            axes=(1, 2, 3))
        scale = np.max(np.abs(c))
        if scale > 0:
            worst = max(worst, np.max(np.abs(back - c)) / scale)
    return Check("hermitian_symmetry", worst, limit)


def spectral_divergence(coeff_list, limit=1e-12):
    """max |k . c_k| / max |k| |c_k| over stored modes."""
    worst = 0.0
    for c in coeff_list:
        kx, ky, kz = _wavenumbers(c.shape[1])
        kdotc = np.abs(kx * c[0] + ky * c[1] + kz * c[2])
        scale = np.max(np.sqrt(kx ** 2 + ky ** 2 + kz ** 2)
                       * np.abs(c).max(axis=0))
        if scale > 0:
            worst = max(worst, np.max(kdotc) / scale)
    return Check("noise_divergence_free", worst, limit)


def reproducible(beta_a, beta_b, beta_other):
    """Same (spec, dt, horizon, seed) gives a bit-identical path; another
    seed gives a different one."""
    bad = (not np.array_equal(beta_a, beta_b)) or np.array_equal(beta_a,
                                                                 beta_other)
    return Check("path_reproducible", float(bad), 0.0)


def partition(values, limit=1e-12):
    return Check("chi_partition_of_unity",
                 np.max(np.abs(values.sum(axis=0) - 1.0)), limit)
