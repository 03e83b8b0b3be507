"""Smooth local Euler solutions with an imposed drift, and flow maps of the
advecting velocity by backward characteristics.

The solver integrates  d_t v = -P[div((v+Z) (x) (v+Z))]  pseudo-spectrally
with an explicit fourth-order scheme; Leray projection absorbs the pressure
so divergence stays at rounding.  Products are dealiased by the 2/3 rule.

The right-hand side is one fused kernel, ``_Advection``: u = mask (v+Z), one
3-component inverse transform, the 6 products u_i u_j, one 6-component
forward transform, and -P div on the 2/3 box.  Its mask and multipliers are
the box entries of the per-n ``fields.spectral_tables``, from which every
operator of ``fields`` reads its multipliers too.  One kernel and its work
arrays serve every right-hand side of a solve.

The two per-step diagnostics only decide an integer and a yes/no, so they
are first settled from l1 bounds of the stored spectrum (``_sup_bounds``),
which take no transform.  An output interval gets one RK4 step when
span (n U + G) <= ``_CFL_FACTOR`` for the bounds U >= max|u| and
G >= max|grad u| of u = v + Z; the exact rule ``_cfl_dt`` would give one
step too.  A state passes the blow-up guard when its bound U is within
``cfg.blowup_guard``.  Only when a bound cannot settle the answer (a large
bound, or nan or inf) do the grid transforms run, and then they decide as
before, so the step counts and the outputs are those of the exact rules.
"""

from dataclasses import dataclass

import numpy as np
from scipy import fft as _fft

from .fields import (
    SYM_INDEX, SYM_SLOT, SpectralField, _check_same, _dcomp, _leray, c0_norm,
    differential, from_grid, leray_project, spectral_tables,
)
from .grids import GridSpec
from .holder import holder_norm

# bound on dt * (n |u|_0 + |grad u|_0) per RK4 step.  The count of an
# interval is certified as 1 when span * (n U + G) is within it for the l1
# bounds U, G of ``_sup_bounds``; float division and ceil are monotone, so
# ``_cfl_dt``'s rule gives 1 too.  Otherwise ``_cfl_dt`` transforms u.
_CFL_FACTOR = 0.25
# relative slack of the l1 bounds over the rounding of the transforms and
# of the exact rule's division
_BOUND_SLACK = 1.0 + 1e-9


@dataclass
class SolverConfig:
    pad_factor: int = 2        # FFT refinement for off-grid evaluation
    interp_points: int = 6     # B-spline stencil width per axis (2..6)
    blowup_guard: float = 1e6


def local_time_limit(v0: SpectralField, z_c2_alpha: float,
                     alpha: float = 0.05, horizon: float = np.inf) -> float:
    """Admissible gluing window from grid-estimated norms.

    tau <= min( (1/4) (||v0||_{C^{1+a}} + ||Z||_{C_T C^{2+a}})^{-1}, horizon ).
    ``z_c2_alpha`` is the caller's estimate of the drift norm (pass 0 for
    none); the limit is advisory at desk scale.
    """
    order = 1.0 + alpha
    v_norm = (holder_norm(v0, order, n_pairs=4000).value(order)
              if c0_norm(v0) > 0 else 0.0)
    total = v_norm + z_c2_alpha
    if total <= 0:
        return horizon
    return min(0.25 / total, horizon)


class _Advection:
    """-P[div((v+z) (x) (v+z))], dealiased, on one grid.

    Holds the dealiased velocity ``u`` and the product tensor between calls,
    so repeated calls allocate only the transforms' outputs; a call may take
    its input v in ``u`` itself.  Both transforms run axis by axis and skip
    the lines that are zero (inverse) or never reach the 2/3 box (forward).
    ``out`` is written on the box only: outside it must already be zero.
    """

    def __init__(self, grid: GridSpec):
        n = grid.n
        self.grid = grid
        self.tables = spectral_tables(n)
        self.u = np.empty((3, n, n, n // 2 + 1), dtype=complex)
        self._prod = np.empty((6, n, n, n))

    def __call__(self, v: SpectralField, z: SpectralField | None,
                 out: np.ndarray) -> np.ndarray:
        tab, n = self.tables, self.grid.n
        m, hi = tab.kmax + 1, n - tab.kmax   # box rows: [0, m) and [hi, n)
        u = self.u
        if z is None:
            np.multiply(v.coeffs, tab.mask, out=u)
        else:
            _check_same(v, z)
            np.add(v.coeffs, z.coeffs, out=u)
            u *= tab.mask
        for lines in (u[:, :, :m, :m], u[:, :, hi:, :m]):
            _transform_lines(_fft.ifft, lines, 1)
        _transform_lines(_fft.ifft, u[..., :m], 2)
        ug = _fft.irfft(u, n, axis=3, norm="forward")
        prod = self._prod
        for slot, (i, j) in enumerate(SYM_INDEX):
            np.multiply(ug[i], ug[j], out=prod[slot])
        del ug
        t = _fft.rfft(prod, axis=3, norm="forward")
        _transform_lines(_fft.fft, t[..., :m], 1)
        for lines in (t[:, :m, :, :m], t[:, hi:, :, :m]):
            _transform_lines(_fft.fft, lines, 2)
        t = t[tab.box]
        d = tab.box_deriv
        div = np.empty((3,) + t.shape[1:], dtype=complex)
        for i in range(3):
            np.multiply(d[0], t[SYM_SLOT[i, 0]], out=div[i])
            div[i] += d[1] * t[SYM_SLOT[i, 1]]
            div[i] += d[2] * t[SYM_SLOT[i, 2]]
        del t
        _leray(div, d, tab.box_inv_lap)
        out[tab.box] = -div
        return out


def _transform_lines(fft, lines: np.ndarray, axis: int) -> None:
    """``fft`` of ``lines`` along ``axis``, left in ``lines``.  scipy.fft
    transforms complex input in place under ``overwrite_x``, but does not
    promise to."""
    out = fft(lines, axis=axis, norm="forward", overwrite_x=True)
    if (out.ctypes.data, out.strides) != (lines.ctypes.data, lines.strides):
        lines[...] = out


def _advection_rhs(v: SpectralField,
                   z: SpectralField | None) -> SpectralField:
    """-P[div((v+z) (x) (v+z))], dealiased by the 2/3 rule: one call of the
    solver's fused kernel ``_Advection``, whose mask is the one
    ``fields.dealias`` reads (``fields.spectral_tables``).  The result is
    zero outside the 2/3 box and at the mean, whatever v and z hold there."""
    out = np.zeros_like(v.coeffs)
    _Advection(v.grid)(v, z, out)
    return SpectralField(v.grid, "vector3", out, mean_zero=True)


def _sup_bounds(u: SpectralField) -> tuple[float, float]:
    """Upper bounds of max_x |u_i| and max_x |d_j u_i| over i and j, from one
    pass over |c|: sum_k w_k |c_ik| and sum_k w_k |2 pi k'_j| |c_ik|, where
    w_k is 1 on the rfft columns k_z = 0 and n/2 and 2 elsewhere, and k'_j
    is read from ``spectral_tables`` (0 on the plane k_j = n/2, as in
    ``_dcomp``).  They hold for any stored array, whatever its k_z = 0
    plane, Nyquist planes or modes outside the 2/3 box, and carry
    ``_BOUND_SLACK`` over the grid maxima the transforms compute.  A
    non-finite spectrum gives nan or inf."""
    n = u.grid.n
    a = np.abs(u.coeffs)
    a[..., 1:n // 2] *= 2.0
    d = [np.abs(line.imag).ravel() for line in spectral_tables(n).deriv]
    rows = a.sum(axis=3)   # (ncomp, k_x, k_y)
    grad = np.max([rows.sum(axis=2) @ d[0], rows.sum(axis=1) @ d[1],
                   a.sum(axis=(1, 2)) @ d[2]])
    return (float(rows.sum(axis=(1, 2)).max()) * _BOUND_SLACK,
            float(grad) * _BOUND_SLACK)


def _cfl_dt(u: SpectralField) -> float:
    """CFL step from n max|u| + max|grad u| on the grid, with the gradient
    transformed one row d_j u_i (j = 1..3) at a time; nan for a non-finite
    state."""
    umax = c0_norm(u)
    gmax = 0.0
    if umax > 0:
        g = u.grid
        for ui in u.coeffs:
            row = np.stack([_dcomp(g, ui, j) for j in range(3)])
            row = _fft.ifftn(row, axes=(1, 2), norm="forward",
                             overwrite_x=True)
            row = _fft.irfft(row, g.n, axis=3, norm="forward")
            gmax = max(gmax, float(np.abs(row).max()))
    speed = umax * u.grid.n + gmax
    if not np.isfinite(speed):
        return np.nan
    if speed == 0:
        return np.inf
    return _CFL_FACTOR / speed


class _RK4:
    """Classical RK4 steps of the drifted system on one grid.

    The current k and the kernel's velocity array, which holds the stages,
    are reused by every step; each step returns a new coefficient array.
    """

    def __init__(self, grid: GridSpec, z_eval):
        self.grid = grid
        self.z_eval = z_eval
        self.rhs = _Advection(grid)
        self.k = np.zeros_like(self.rhs.u)   # the kernel writes its box only

    def _z(self, t):
        return self.z_eval(t) if self.z_eval else None

    def _stage(self, v: SpectralField, k: np.ndarray,
               c: float) -> SpectralField:
        """v + c k, in the kernel's velocity array."""
        np.multiply(k, c, out=self.rhs.u)
        self.rhs.u += v.coeffs
        return SpectralField(self.grid, "vector3", self.rhs.u, v.mean_zero)

    def first_k(self, v: SpectralField, t: float) -> np.ndarray:
        """k1 at (v, t) in its own array, for steps that share it."""
        return self.rhs(v, self._z(t), np.zeros_like(self.k))

    def step(self, v: SpectralField, t: float, dt: float,
             k1: np.ndarray | None = None) -> SpectralField:
        """v(t + dt) from v(t); ``k1`` is reused if given."""
        k = self.k
        if k1 is None:
            k1 = self.rhs(v, self._z(t), k)
        new = k1.copy()   # k1 + 2 k2 + 2 k3 + k4, then v(t + dt)
        zm = self._z(t + 0.5 * dt)
        self.rhs(self._stage(v, k1, 0.5 * dt), zm, k)          # k2
        stage = self._stage(v, k, 0.5 * dt)
        k *= 2.0
        new += k
        self.rhs(stage, zm, k)                                  # k3
        del zm   # one drift field alive at a time
        stage = self._stage(v, k, dt)
        k *= 2.0
        new += k
        self.rhs(stage, self._z(t + dt), k)                     # k4
        new += k
        new *= dt / 6.0
        new += v.coeffs
        return SpectralField(self.grid, "vector3", new, v.mean_zero)


def solve_euler_with_drift(v0: SpectralField, z_eval, t0: float,
                           out_times, cfg: SolverConfig | None = None):
    """Integrate the drifted Euler system from t0 over the requested times.

    ``z_eval`` is a callable t -> SpectralField (or None for no drift);
    ``out_times`` must be strictly increasing with out_times[0] == t0.  The
    initial field is returned unchanged as the first sample; every later
    sample has its own coefficient array.  Returns (fields,
    diagnostics) where diagnostics records the CFL step count, an embedded
    step-doubling truncation estimate, and the kinetic energy of v+Z at
    each output time, and ``cfl_exact``, the number of output intervals
    whose step count needed the grid transforms of ``_cfl_dt``.  A state or
    drift that is not finite, or a state beyond ``cfg.blowup_guard``, raises
    ``RuntimeError`` naming the step and the time.
    """
    cfg = cfg or SolverConfig()
    out_times = np.asarray(out_times, dtype=float)
    if abs(out_times[0] - t0) > 1e-12:
        raise ValueError("out_times must start at t0")
    if not np.all(np.diff(out_times) > 0):
        raise ValueError("out_times must be strictly increasing")
    rk4 = _RK4(v0.grid, z_eval)
    v = v0
    fields = [v0]
    n_steps = 0
    trunc = 0.0
    energies = [_kinetic(v0, z_eval, t0)]
    cfl_exact = 0
    first = True
    for a, b in zip(out_times[:-1], out_times[1:]):
        span = b - a
        u = v if z_eval is None else v + z_eval(a)
        u_bound, g_bound = _sup_bounds(u)
        if span * (u.grid.n * u_bound + g_bound) <= _CFL_FACTOR:
            n_sub = 1
        else:
            cfl_exact += 1
            dt_max = _cfl_dt(u)
            if np.isnan(dt_max):
                raise RuntimeError("non-finite state or drift at step "
                                   f"{n_steps} (t={a:.4f})")
            n_sub = max(1, int(np.ceil(span / dt_max)))
        del u   # not kept alive through the steps
        dt = span / n_sub
        t = a
        for _ in range(n_sub):
            if first:
                # the coarse step and the first half step share k1
                k1 = rk4.first_k(v, t)
                coarse = rk4.step(v, t, dt, k1)
                half = rk4.step(v, t, dt / 2, k1)
                del k1
                fine = rk4.step(half, t + dt / 2, dt / 2)
                trunc = c0_norm(coarse - fine) / dt  # per unit time
                v = fine
                first = False
            else:
                v = rk4.step(v, t, dt)
            t += dt
            n_steps += 1
            size = _sup_bounds(v)[0]
            if not size <= cfg.blowup_guard:   # the bound cannot settle it
                size = c0_norm(v)
            if not size <= cfg.blowup_guard:   # also catches nan
                what = ("field magnitude blow-up" if np.isfinite(size)
                        else "non-finite state or drift")
                raise RuntimeError(f"{what} at step {n_steps} (t={t:.4f})")
        fields.append(v)
        energies.append(_kinetic(v, z_eval, b))
    diag = {"steps": n_steps, "truncation_per_time": float(trunc),
            "energy": np.array(energies), "cfl_exact": cfl_exact}
    return fields, diag


def _kinetic(v: SpectralField, z_eval, t: float) -> float:
    from .fields import inner
    u = v if z_eval is None else v + z_eval(t)
    return inner(u, u)


# ---------------------------------------------------------------------------
# off-grid evaluation of band-limited fields
# ---------------------------------------------------------------------------

class SpectralInterpolant:
    """Padded-FFT refinement plus a prefiltered periodic B-spline.

    Zero padding refines the field to ``pad_factor * n`` points per axis;
    each component is prefiltered once into coefficients of the periodic
    B-spline of degree ``order - 1`` (``order`` points per axis; Thevenaz,
    Blu and Unser, IEEE TMI 2000), which reproduces the refined samples at
    the fine nodes and band-limited fields to ~(k_max / (pad_factor*n))^order.
    """

    def __init__(self, f: SpectralField, pad_factor: int = 2, order: int = 6):
        if not 2 <= order <= 6:
            raise ValueError(f"interpolation order {order} not in 2..6")
        from scipy import ndimage  # only runs that leave the grid load it
        self.order = order
        n = f.grid.n
        self.nf = n * pad_factor
        c = f.coeffs
        ncomp = c.shape[0]
        big = np.zeros((ncomp, self.nf, self.nf, self.nf // 2 + 1),
                       dtype=complex)
        h = n // 2
        # copy all modes except the (empty for band-limited fields) Nyquist
        # planes; negative frequencies go to the end of the padded axes
        src = np.r_[0:h, n - h + 1:n]
        dst = np.r_[0:h, self.nf - h + 1:self.nf]
        big[np.ix_(range(ncomp), dst, dst, range(h))] = \
            c[np.ix_(range(ncomp), src, src, range(h))]
        self.spline = _fft.irfftn(big, s=(self.nf,) * 3, axes=(1, 2, 3),
                                  norm="forward")
        for axis in (1, 2, 3):
            ndimage.spline_filter1d(self.spline, order - 1, axis,
                                    output=self.spline, mode="grid-wrap")

    def __call__(self, points: np.ndarray, order: int | None = None) -> np.ndarray:
        """Values at points of shape (3, ...), as (ncomp, ...); ``order``, if
        given, must be the one the interpolant was built with."""
        from scipy import ndimage
        if order is not None and order != self.order:
            raise ValueError(f"interpolant built with order {self.order}, "
                             f"called with order {order}")
        shape = points.shape[1:]
        x = (points.reshape(3, -1) % 1.0) * self.nf
        out = np.empty((self.spline.shape[0], x.shape[1]))
        for comp, coef in zip(out, self.spline):
            ndimage.map_coordinates(coef, x, output=comp,
                                    order=self.order - 1, mode="grid-wrap",
                                    prefilter=False)
        return out.reshape((self.spline.shape[0],) + shape)


# ---------------------------------------------------------------------------
# flow maps
# ---------------------------------------------------------------------------

class FlowMap:
    """Periodic flow map of a velocity, anchored at ``anchor_time``.

    Stores the displacement from identity at each requested time; gradients
    are spectral in the displacement, so volume preservation of the
    divergence-free advection is inherited to rounding.
    """

    def __init__(self, grid: GridSpec, anchor_time: float):
        self.grid = grid
        self.anchor_time = float(anchor_time)
        self.times = [float(anchor_time)]
        self.displacements = [np.zeros((3, grid.n, grid.n, grid.n))]

    def index_of(self, t: float) -> int:
        arr = np.asarray(self.times)
        i = int(np.argmin(np.abs(arr - t)))
        if abs(arr[i] - t) > 1e-9:
            raise KeyError(f"flow map not sampled at t={t}")
        return i

    def positions(self, i: int) -> np.ndarray:
        return (self.grid.mesh() + self.displacements[i]) % 1.0

    def grad(self, i: int) -> np.ndarray:
        """(3, 3, n, n, n) array of d_j Phi_i components."""
        from .fields import gradient_tensor
        disp = from_grid(self.displacements[i], self.grid, "vector3")
        g = gradient_tensor(disp)
        for a in range(3):
            g[a, a] += 1.0
        return g

    def det_grad(self, i: int) -> np.ndarray:
        return _det_3x3(self.grad(i))


def _det_3x3(m: np.ndarray) -> np.ndarray:
    return (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))


def solve_flow_map(u_eval, times, grid: GridSpec,
                   cfg: SolverConfig | None = None,
                   n_substeps: int | None = None) -> FlowMap:
    """Backward-characteristic flow map of u on the given time samples.

    ``u_eval(t)`` returns the advecting velocity; ``times[0]`` is the
    anchor where the map is the identity.  Each new sample composes the
    previous map with a one-step backward characteristic solved by RK4;
    velocities and the previous displacement are evaluated off the grid by
    ``SpectralInterpolant`` with ``cfg.pad_factor`` and
    ``cfg.interp_points``.  Each substep's last stage time is the next
    substep's first, so that velocity interpolant is built once for both;
    a velocity whose coefficients equal those of the last build (compared
    by value against a kept copy) reuses that build.
    Substeps are chosen so each RK4 step sees
    dt*||grad u|| <= 0.1 (keeps the volume defect of the non-conservative
    integrator near rounding over admissible spans).
    """
    cfg = cfg or SolverConfig()
    times = np.asarray(times, dtype=float)
    fm = FlowMap(grid, times[0])
    mesh = grid.mesh()
    if n_substeps is None:
        from .fields import gradient_tensor
        gmax = float(np.abs(gradient_tensor(u_eval(times[0]))).max())
        span = float(np.max(np.diff(times))) if len(times) > 1 else 0.0
        n_substeps = max(1, int(np.ceil(span * max(gmax, 1e-12) / 0.1)))

    last = None   # (coefficients, interpolant) of the last velocity build

    def interp_at(t):
        nonlocal last
        u = u_eval(t)
        if last is None or not np.array_equal(u.coeffs, last[0]):
            last = (u.coeffs.copy(), SpectralInterpolant(
                u, cfg.pad_factor, cfg.interp_points))
        return last[1]

    for a, b in zip(times[:-1], times[1:]):
        # backward characteristics from t=b to t=a for every grid node
        pts = mesh.copy()
        dt = (b - a) / n_substeps
        t = b
        end = interp_at(t)
        for _ in range(n_substeps):
            k1 = -end(pts)
            mid = interp_at(t - dt / 2)
            k2 = -mid((pts + (dt / 2) * k1) % 1.0)
            k3 = -mid((pts + (dt / 2) * k2) % 1.0)
            end = interp_at(t - dt)
            k4 = -end((pts + dt * k3) % 1.0)
            pts = (pts + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)) % 1.0
            t -= dt
        new_disp = _wrap(pts - mesh)
        if len(fm.times) > 1:
            # compose with the stored map: Phi(b, x) = Phi(a, psi(x)); on
            # the first interval the stored map is the identity
            prev = from_grid(fm.displacements[-1], grid, "vector3")
            new_disp += SpectralInterpolant(
                prev, cfg.pad_factor, cfg.interp_points)(
                    pts, order=cfg.interp_points)
        fm.times.append(float(b))
        fm.displacements.append(new_disp)
    return fm


def _wrap(d: np.ndarray) -> np.ndarray:
    """Periodic wrap of displacements into [-1/2, 1/2)."""
    return (d + 0.5) % 1.0 - 0.5


# ---------------------------------------------------------------------------
# time-grid helpers shared with the scheme
# ---------------------------------------------------------------------------

def time_derivative(series, dt: float):
    """Second-order finite differences of a field series (central inside,
    one-sided at the ends)."""
    n = len(series)
    if n < 3:
        raise ValueError("need at least three samples")
    out = []
    for i in range(n):
        if i == 0:
            d = (-1.5 * series[0].coeffs + 2.0 * series[1].coeffs
                 - 0.5 * series[2].coeffs)
        elif i == n - 1:
            d = (1.5 * series[-1].coeffs - 2.0 * series[-2].coeffs
                 + 0.5 * series[-3].coeffs)
        else:
            d = 0.5 * (series[i + 1].coeffs - series[i - 1].coeffs)
        out.append(SpectralField(series[0].grid, series[0].rank, d / dt))
    return out


def momentum_residual(v_series, z_series, stress_series, dt: float):
    """Residual of  P[d_t v + div((v+z) (x) (v+z)) - div R]  on the grid.

    Returns (per-time residual sup-norms, finite-difference tolerance
    estimate).  The tolerance is the size of the third-difference remainder
    of the time derivative, i.e. what the discretization itself allows.
    """
    dv = time_derivative(v_series, dt)
    resid = []
    for i, v in enumerate(v_series):
        z = z_series[i] if z_series is not None else None
        adv = -1.0 * _advection_rhs(v, z)   # +P div((v+z)(x)(v+z))
        total = dv[i] + adv
        if stress_series is not None:
            total = total - leray_project(differential(stress_series[i], "div"))
        resid.append(c0_norm(total))
    # FD error estimate: ||d^3 v / dt^3|| * dt^2 / 6 via third differences
    tol = 0.0
    for i in range(1, len(v_series) - 2):
        third = (v_series[i + 2].coeffs - 3 * v_series[i + 1].coeffs
                 + 3 * v_series[i].coeffs - v_series[i - 1].coeffs)
        f = SpectralField(v_series[0].grid, v_series[0].rank, third / dt**3)
        tol = max(tol, c0_norm(f) * dt**2 / 6.0)
    return np.array(resid), float(tol)
