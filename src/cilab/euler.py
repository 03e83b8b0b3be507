"""Smooth local Euler solutions with an imposed drift, and flow maps of the
advecting velocity by backward characteristics.

The solver integrates  d_t v = -P[div((v+Z) (x) (v+Z))]  pseudo-spectrally
with an explicit fourth-order scheme; Leray projection absorbs the pressure
so divergence stays at rounding.  Products are dealiased by the 2/3 rule.

The right-hand side is one fused kernel, ``_Advection``, on compact arrays of
the 2/3 box (Orszag, J. Atmos. Sci. 1971) in the layout of
``fields.spectral_tables(n).box``: shape (3, 2K+1, 2K+1, K+1) with
K = n // 3, 30 % of the half-spectrum at n = 64.  The right-hand side is 0
outside the box, so those modes never change during a solve: the RK4 state
and increments are box arrays, and each output is v0's coefficients with
the box overwritten.  The kernel transforms u = v + Z up from the box,
forms five products, transforms them back to the box and applies -P div
there.  The products are those of T = u (x) u - u_z^2 Id; the dropped part
div(u_z^2 Id) = grad(u_z^2) is a gradient, which the Leray projection
removes, so P div T = P div(u (x) u).  Only the two passes of x-transforms
run over the whole work array; each x-slab of max(1, 16384 // n^2) planes
does the rest while it is in cache: y-transform, z-transform, products,
z-transform, y-transform.  The z-transforms are products with real DFT
matrices that read and write only the columns k_z <= K (they beat the FFTs
of whole lines at n <= 128), so neither the velocity grid nor the product
tensor is ever built whole.  The kernel's multipliers are the box entries
of the per-n ``fields.spectral_tables``, from which every operator of
``fields`` reads its multipliers too.  One kernel and its work arrays serve
every right-hand side of a solve.

A kernel call has three phases, each split into two halves, and
``grids.run_parts`` ends each phase before the next: the head, per half of
the box along y, writes v + c k + Z into the box blocks and transforms along
x; the slab loop runs its x-slabs in two contiguous halves; the tail, per
half of the box along y, transforms along x back to the box and forms -P div
there.  On a grid of more than ``grids._GRID_PART_POINTS`` = 32^3 points
(n >= 33) with 2 usable CPUs, the two halves of each phase run at once, one
on the calling thread and one on the thread that the call starts and joins.
Every element goes through the same operations on one part or two, so the
outputs do not depend on the part count.  In alternating batches of calls on a 2-CPU host, one part
against two: 13.4 -> 9.1 ms per call at n = 48, 29.2 -> 18.0 ms at n = 64.
The same rule, ``grids._grid_parts``, sets the workers of the grid
transforms of ``fields`` that the CFL rule, the flow map and the
interpolant builds run.

The two per-step diagnostics only decide an integer and a yes/no, so they
are first settled from l1 bounds of the stored spectrum (``_sup_bounds``),
which take no transform.  An output interval gets one RK4 step when
span (n U + G) <= ``_CFL_FACTOR`` for the bounds U >= max|u| and
G >= max|grad u| of u = v + Z; the exact rule ``_cfl_dt`` would give one
step too.  A state passes the blow-up guard when its bound U is within
``cfg.blowup_guard``.  Only when a bound cannot settle the answer (a large
bound, or nan or inf) do the grid transforms run, and then they decide as
before, so the step counts and the outputs are those of the exact rules.
The head forms each RK4 stage v + c k; u = v + Z of an output time lives in
the kernel's work array: free between calls, and 5 (K+1) >= 3 (n/2+1).
"""

from dataclasses import dataclass
from math import comb, factorial

import numpy as np
from scipy import fft as _fft

from .fields import (
    SpectralField, _check_same, _column_weights, _inverse_transform, _leray,
    _sup, c0_norm, differential, from_grid, gradient_tensor, inner,
    leray_project, spectral_tables,
)
from .grids import (
    GridSpec, _grid_parts, _part_count, _usable_cpus, run_parts,
)
from .holder import holder_norm

# bound on dt * (n |u|_0 + |grad u|_0) per RK4 step.  The count of an
# interval is certified as 1 when span * (n U + G) is within it for the l1
# bounds U, G of ``_sup_bounds``; float division and ceil are monotone, so
# ``_cfl_dt``'s rule gives 1 too.  Otherwise ``_cfl_dt`` transforms u.
_CFL_FACTOR = 0.25
# relative slack of the l1 bounds over the rounding of the transforms and
# of the exact rule's division
_BOUND_SLACK = 1.0 + 1e-9
# grid points per x-slab of the advection kernel's y- and z-transforms: 4
# planes at n = 64, 16 at n = 32, the whole grid at n <= 16
_SLAB_POINTS = 16384
# the terms (j, slot) of (div T)_i = sum_j d_j T_ij, for the products of
# T = u (x) u - u_z^2 Id in the slots (u_x^2 - u_z^2, u_y^2 - u_z^2, u_x u_y,
# u_x u_z, u_y u_z); T_zz = 0 has no term
_DIV_TERMS = (((0, 0), (1, 2), (2, 3)),
              ((0, 2), (1, 1), (2, 4)),
              ((0, 3), (1, 4)))
# an interpolant call takes at most one part per this many points, so a
# small call runs on one thread
_PART_POINTS = 8192
_HALO_LO, _HALO_HI = 2, 3   # halo planes: taps at x in [0, nf) span -2..nf+2


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
    none); the limit is advisory at desk scale.  Either norm negative or not
    finite, or a horizon that is not positive (or nan), raises
    ``ValueError``.
    """
    if not 0.0 <= z_c2_alpha < np.inf:
        raise ValueError(f"z_c2_alpha={z_c2_alpha} is negative or not finite")
    if not horizon > 0.0:
        raise ValueError(f"horizon={horizon} is not positive")
    order = 1.0 + alpha
    total = holder_norm(v0, order).value(order) + z_c2_alpha
    if not np.isfinite(total):
        raise ValueError("the Hoelder estimate of v0 is not finite")
    if total <= 0:
        return horizon
    return min(0.25 / total, horizon)


class _Advection:
    """-P[div((v+z) (x) (v+z))], dealiased by the 2/3 rule, on box arrays.

    v and the result are compact arrays of the 2/3 box, of shape ``shape``
    = (3, 2K+1, 2K+1, K+1) with K = ``kmax``, laid out as
    ``c[spectral_tables(n).box]``: along x and y the box rows are k = 0..K,
    then -K..-1.  Of the drift z, a full field or None, only the box is read.

    A call runs in one persistent (5, n, n, K+1) complex work array, the
    columns k_z <= K of five half-spectra, in three phases.  Each phase has
    two halves, which touch disjoint parts of the arrays, and ends when both
    have:

    - head, per half of the box along y (grid rows [0, K] and [n-K, n)):
      the first 3 components take u = v + c k + z in the 2 box blocks of
      that half, the rows off the box along x are zeroed, and the lines are
      inverse-transformed along x;
    - slabs, in two contiguous halves of the x-slabs of ``slab`` =
      max(1, 16384 // n^2) planes: each slab, while it is in cache, has its
      rows off the box along y zeroed and is inverse-transformed along y.
      Along z, one product with the c2r matrix of ``_z_matrices`` takes the
      slab's lines, each as its 2K+2 floats, to their grid values in the
      half's buffer; the columns k_z > K, which are 0, are never stored.
      The five products are formed there, the r2c matrix takes them
      straight back into the same planes of the work array, where the
      velocity is spent, and those planes are forward-transformed along y.
      So neither the (3, n, n, n) velocity grid nor the product tensor is
      built whole;
    - tail, per half of the box along y: forward transforms along x bring
      the products to the box, and -P div is formed on its 2 blocks and
      projected by ``_leray`` on that half's columns.

    ``parts`` is ``grids._grid_parts`` of the grid: 2 when at least 2 CPUs
    are usable and the grid has more than 32^3 points, else 1.  A call runs
    its phases through ``grids.run_parts`` on ``parts`` parts, and part p
    runs the halves p, p + parts, ... of each phase: with 2 parts the second
    half runs on the thread the call starts, at the same time as the first.
    Each part has its own slab buffers, the leading axis of ``_grid`` and
    ``_prod``.  Every element goes through the same operations either way,
    so the result does not depend on ``parts``.

    The five products are those of T = u (x) u - u_z^2 Id:
    u_x^2 - u_z^2, u_y^2 - u_z^2, u_x u_y, u_x u_z and u_y u_z.  The dropped
    part div(u_z^2 Id) = grad(u_z^2) is a gradient, which ``_leray`` removes
    on the box, so P div T = P div(u (x) u), with 8 multiply-adds for div T
    instead of 9.
    """

    def __init__(self, grid: GridSpec):
        n = grid.n
        self.grid = grid
        self.tables = spectral_tables(n)
        K = self.tables.kmax
        self.shape = (3, 2 * K + 1, 2 * K + 1, K + 1)
        self.slab = min(n, max(1, _SLAB_POINTS // (n * n)))
        # a phase has two halves, and the rule gives 2 parts at most
        self.parts = _grid_parts(n ** 3, _usable_cpus())
        starts = range(0, n, self.slab)
        cut = -(-len(starts) // 2)
        self._slab_starts = (starts[:cut], starts[cut:])   # per x-half
        self.work = np.zeros((5, n, n, K + 1), dtype=complex)
        # the work array's (x, y) lines as 2K+2 floats, re and im interleaved
        self._lines = self.work.view(float).reshape(5, n * n, 2 * K + 2)
        # the slab buffers of each part
        self._grid = np.empty((self.parts, 3, self.slab * n, n))
        self._prod = np.empty((self.parts, 5, self.slab * n, n))
        self._c2r, self._r2c = _z_matrices(n, K + 1)

    def __call__(self, v: np.ndarray, z: SpectralField | None,
                 out: np.ndarray, k: np.ndarray | None = None,
                 c: float = 0.0) -> np.ndarray:
        """The right-hand side at the box array v + c k (v without k) under
        the drift z, written into ``out`` (which may be v or k) and returned."""
        if z is not None and (z.grid != self.grid or z.rank != "vector3"):
            raise ValueError("drift lives on a different grid or rank")
        tab, n = self.tables, self.grid.n
        m, hi = tab.kmax + 1, n - tab.kmax   # box rows: [0, m) and [hi, n)
        # (box rows, grid rows) of the two halves of the box along x or y
        halves = ((slice(0, m), slice(0, m)), (slice(m, None), slice(hi, n)))
        work = self.work
        u = work[:3]
        dx, dy, dz = tab.box_deriv

        def head(h):
            by, gy = halves[h]
            # the rows that no box block covers: those off the box along x
            # here, those off it along y slab by slab
            u[:, m:hi, gy] = 0.0
            for bx, gx in halves:
                ub, vb = u[:, gx, gy], v[:, bx, by]
                if k is not None:   # the stage c k + v, summed in that order
                    vb = np.multiply(k[:, bx, by], c, out=ub)
                    vb += v[:, bx, by]
                if z is not None:
                    np.add(vb, z.coeffs[:, gx, gy, :m], out=ub)
                elif k is None:
                    ub[...] = vb
            _transform_lines(_fft.ifft, u[:, :, gy], 1)

        def slabs(h):
            # one part runs both halves in its buffers
            grid, prod = self._grid[h % self.parts], self._prod[h % self.parts]
            for s in self._slab_starts[h]:
                e = min(s + self.slab, n)
                u[:, s:e, m:hi] = 0.0
                _transform_lines(_fft.ifft, u[:, s:e], 2)
                lines = self._lines[:, s * n:e * n]
                ux, uy, uz = np.matmul(lines[:3], self._c2r,
                                       out=grid[:, :(e - s) * n])
                p = prod[:, :(e - s) * n]
                np.multiply(ux, uy, out=p[2])
                np.multiply(ux, uz, out=p[3])
                np.multiply(uy, uz, out=p[4])
                uz *= uz
                np.multiply(ux, ux, out=p[0])
                p[0] -= uz
                np.multiply(uy, uy, out=p[1])
                p[1] -= uz
                np.matmul(p, self._r2c, out=lines)
                _transform_lines(_fft.fft, work[:, s:e], 2)

        def tail(h):
            by, gy = halves[h]
            _transform_lines(_fft.fft, work[:, :, gy], 1)
            for bx, gx in halves:
                t, o = work[:, gx, gy], out[:, bx, by]
                d = (dx[bx], dy[:, by], dz)
                for i, ((j, slot), *rest) in enumerate(_DIV_TERMS):
                    np.multiply(d[j], t[slot], out=o[i])
                    for j, slot in rest:
                        o[i] += d[j] * t[slot]
            o = out[:, :, by]
            _leray(o, (dx, dy[:, by], dz), tab.box_inv_lap[:, by])
            np.negative(o, out=o)

        # part p runs the halves p, p + parts, ... of each phase, in turn
        run_parts([lambda p, f=f: [f(h) for h in range(p, 2, self.parts)]
                   for f in (head, slabs, tail)], self.parts)
        return out


def _z_matrices(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Real DFT matrices along z, under ``norm="forward"``, for a line held
    as the 2m floats re, im, re, im, ... of its columns k_z < m.

    line @ c2r, with c2r of shape (2m, n), is the line's n grid values: the
    c2r transform with 0 in the columns k_z >= m, which drops the imaginary
    part at k_z = 0.  values @ r2c, with r2c of shape (n, 2m), is the line:
    the columns k_z < m of the r2c transform."""
    k, x = np.arange(m), np.arange(n)
    angle = (2.0 * np.pi / n) * (np.outer(k, x) % n)
    cos, sin = np.cos(angle), np.sin(angle)
    weight = np.where(k == 0, 1.0, 2.0)[:, None]   # the implicit -k_z
    c2r = np.stack([weight * cos, -weight * sin], axis=1).reshape(2 * m, n)
    r2c = np.stack([cos.T, -sin.T], axis=2).reshape(n, 2 * m) / n
    return c2r, r2c


def _transform_lines(fft, lines: np.ndarray, axis: int) -> None:
    """``fft`` of ``lines`` along ``axis``, left in ``lines``.  scipy.fft
    transforms complex input in place under ``overwrite_x``, but does not
    promise to."""
    out = fft(lines, axis=axis, norm="forward", overwrite_x=True)
    if (out.ctypes.data, out.strides) != (lines.ctypes.data, lines.strides):
        lines[...] = out


def _advection_rhs(v: SpectralField,
                   z: SpectralField | None) -> SpectralField:
    """-P[div((v+z) (x) (v+z))], dealiased by the 2/3 rule, as a full field:
    a thin wrapper that hands v's box to one call of the solver's kernel
    ``_Advection`` and puts the box result into zeros.  The box is
    ``fields.spectral_tables(n).box``.  The result is zero outside the 2/3
    box and at the mean, whatever v and z hold there."""
    box = spectral_tables(v.grid.n).box
    out = np.zeros_like(v.coeffs)
    c = v.coeffs[box]
    out[box] = _Advection(v.grid)(c, z, c)
    return SpectralField(v.grid, "vector3", out)


def _weighted_abs(c: np.ndarray, n: int) -> np.ndarray:
    """w_k |c_k| for a block of rfft columns that starts at k_z = 0, with
    the column weights w_k of ``fields._column_weights``, so that the sum
    over the block bounds the grid maximum of the modes it holds."""
    a = np.abs(c)
    a *= _column_weights(n)[:a.shape[-1]]
    return a


def _sup_bounds(u: SpectralField) -> tuple[float, float]:
    """Upper bounds of max_x |u_i| and max_x |d_j u_i| over i and j, from one
    pass over |c|: sum_k w_k |c_ik| and sum_k w_k |2 pi k'_j| |c_ik|, with
    the weights w_k of ``_weighted_abs`` and k'_j read from
    ``spectral_tables`` (0 on the plane k_j = n/2, as in ``differential``).
    They hold for any stored array, whatever its k_z = 0 plane, Nyquist
    planes or modes outside the 2/3 box, and carry ``_BOUND_SLACK`` over the
    grid maxima the transforms compute.  A non-finite spectrum gives nan or
    inf."""
    n = u.grid.n
    a = _weighted_abs(u.coeffs, n)
    d = [np.abs(line.imag).ravel() for line in spectral_tables(n).deriv]
    rows = a.sum(axis=3)   # (ncomp, k_x, k_y)
    grad = np.max([rows.sum(axis=2) @ d[0], rows.sum(axis=1) @ d[1],
                   a.sum(axis=(1, 2)) @ d[2]])
    return (float(rows.sum(axis=(1, 2)).max()) * _BOUND_SLACK,
            float(grad) * _BOUND_SLACK)


def _cfl_dt(u: SpectralField) -> float:
    """CFL step from n max|u| + max|grad u| on the grid; nan for a
    non-finite state."""
    gmax = _sup(gradient_tensor(u))
    speed = c0_norm(u) * u.grid.n + gmax
    if not np.isfinite(speed):
        return np.nan
    if speed == 0:
        return np.inf
    return _CFL_FACTOR / speed


class _RK4:
    """Classical RK4 steps of the drifted system on one grid, on box arrays.

    The current k is reused by every step; each step returns a new box
    array.  The kernel forms each stage v + c k; k3 and k4 read k already
    doubled, with c halved (exact).  The drift of the last time asked for is
    kept: k4's time t + dt is the next step's k1 time, and an output time's.
    """

    def __init__(self, grid: GridSpec, z_eval):
        self.z_eval = z_eval
        self.rhs = _Advection(grid)
        self.k = np.empty(self.rhs.shape, dtype=complex)
        self._last = None   # (t, z_eval(t)) of the last drift evaluated

    def drift(self, t: float) -> SpectralField | None:
        """z_eval(t), evaluated again only when t is not exactly the last
        time asked for; None without a drift."""
        if self.z_eval is None:
            return None
        if self._last is None or self._last[0] != t:
            self._last = None   # one drift field alive at a time
            self._last = (t, self.z_eval(t))
        return self._last[1]

    def step(self, v: np.ndarray, t: float, dt: float,
             k1: np.ndarray | None = None) -> np.ndarray:
        """v(t + dt) from v(t); ``k1`` is reused if given."""
        k = self.k
        if k1 is None:
            k1 = self.rhs(v, self.drift(t), k)
        new = k1.copy()   # k1 + 2 k2 + 2 k3 + k4, then v(t + dt)
        zm = self.drift(t + 0.5 * dt)
        self.rhs(v, zm, k, k1, 0.5 * dt)                        # k2
        k *= 2.0
        new += k
        self.rhs(v, zm, k, k, 0.25 * dt)                        # k3
        del zm   # one drift field alive at a time
        k *= 2.0
        new += k
        self.rhs(v, self.drift(t + dt), k, k, 0.5 * dt)         # k4
        new += k
        new *= dt / 6.0
        new += v
        return new


def _time_grid(times, name: str) -> np.ndarray:
    """``times`` as a float array; ValueError naming it unless it holds at
    least one time, every time is finite and they strictly increase."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError(f"{name} must hold at least one time")
    if not np.all(np.isfinite(times)):
        raise ValueError(f"{name} must be finite")
    if not np.all(np.diff(times) > 0):
        raise ValueError(f"{name} must be strictly increasing")
    return times


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
    out_times = _time_grid(out_times, "out_times")
    if abs(out_times[0] - t0) > 1e-12:
        raise ValueError("out_times must start at t0")
    grid, n = v0.grid, v0.grid.n
    box = spectral_tables(n).box
    rk4 = _RK4(grid, z_eval)
    u_mem = rk4.rhs.work.reshape(-1)[:v0.coeffs.size].reshape(v0.coeffs.shape)

    def with_drift(v: SpectralField, t: float) -> SpectralField:
        if z_eval is None:
            return v
        z = rk4.drift(t)
        _check_same(v, z)
        np.add(v.coeffs, z.coeffs, out=u_mem)
        return SpectralField(grid, v.rank, u_mem)

    def full(c: np.ndarray) -> np.ndarray:
        """v0's coefficients with the box array ``c`` in the box."""
        out = v0.coeffs.copy()
        out[box] = c
        return out

    # the right-hand side is 0 outside the box, so the state is the box
    # array w; the modes outside keep v0's values, and so does their part
    # of the guard's bound of max|v|
    rest = _weighted_abs(v0.coeffs, n)
    rest[box] = 0.0
    rest = rest.sum(axis=(1, 2, 3))
    w = v0.coeffs[box]
    fields = [v0]
    n_steps = 0
    trunc = 0.0
    u = with_drift(v0, t0)
    energies = [inner(u, u)]
    cfl_exact = 0
    first = True
    for a, b in zip(out_times[:-1], out_times[1:]):
        span = b - a
        # u = v + z(a) is the field whose energy was taken at a
        u_bound, g_bound = _sup_bounds(u)
        if span * (n * u_bound + g_bound) <= _CFL_FACTOR:
            n_sub = 1
        else:
            cfl_exact += 1
            dt_max = _cfl_dt(u)
            if np.isnan(dt_max):
                raise RuntimeError("non-finite state or drift at step "
                                   f"{n_steps} (t={a:.4f})")
            n_sub = max(1, int(np.ceil(span / dt_max)))
        dt = span / n_sub
        t = a
        for _ in range(n_sub):
            if first:
                # the coarse step and the first half step share k1
                k1 = rk4.rhs(w, rk4.drift(t), np.empty_like(w))
                coarse = rk4.step(w, t, dt, k1)
                half = rk4.step(w, t, dt / 2, k1)
                del k1
                w = rk4.step(half, t + dt / 2, dt / 2)
                diff = np.zeros_like(v0.coeffs)
                diff[box] = coarse - w
                trunc = _sup(_inverse_transform(diff)) / dt
                del diff, coarse, half   # trunc is per unit time
                first = False
            else:
                w = rk4.step(w, t, dt)
            t += dt
            n_steps += 1
            box_sums = _weighted_abs(w, n).sum(axis=(1, 2, 3))
            size = float((rest + box_sums).max()) * _BOUND_SLACK
            if not size <= cfg.blowup_guard:   # the bound cannot settle it
                size = _sup(_inverse_transform(full(w)))
            if not size <= cfg.blowup_guard:   # also catches nan
                what = ("field magnitude blow-up" if np.isfinite(size)
                        else "non-finite state or drift")
                raise RuntimeError(f"{what} at step {n_steps} (t={t:.4f})")
        v = SpectralField(grid, "vector3", full(w))
        fields.append(v)
        u = with_drift(v, b)
        energies.append(inner(u, u))
    diag = {"steps": n_steps, "truncation_per_time": float(trunc),
            "energy": np.array(energies), "cfl_exact": cfl_exact}
    return fields, diag


# ---------------------------------------------------------------------------
# off-grid evaluation of band-limited fields
# ---------------------------------------------------------------------------

class SpectralInterpolant:
    """Padded-FFT refinement plus a prefiltered periodic B-spline.

    Zero padding refines the field to ``pad_factor * n`` points per axis;
    each component is prefiltered into coefficients of the periodic
    B-spline of degree ``order - 1`` (``order`` points per axis; Thevenaz,
    Blu and Unser, IEEE TMI 2000), which reproduces the refined samples at
    the fine nodes and band-limited fields to ~(k_max / (pad_factor*n))^order.
    The prefilter is a Fourier multiplier: along each axis the copied modes
    are divided by the symbol of the sampled spline, so an inverse
    transform, ``fields._inverse_transform`` on the padded grid, gives the
    coefficients; on 2 usable CPUs it runs on 2 workers when the padded
    grid has more than 32^3 points, with the same coefficients as on one.
    Each component in turn is transformed into the interior of ``halo``,
    which wraps it periodically by ``_HALO_LO`` planes below and
    ``_HALO_HI`` above on each axis; ``spline`` is that interior.  A build
    holds the halo and one component's spectra and samples.
    ``solve_flow_map`` frees its spent velocity spline before each build,
    so at most one velocity spline is alive during one.

    A call reads every tap in the halo, at x = (point mod 1) nf +
    ``_HALO_LO``.  It splits its points into min(usable CPUs, ceil(points /
    ``_PART_POINTS``)) contiguous parts and evaluates them through
    ``grids.run_parts``: the first on the calling thread, the others on
    threads the call starts and joins; ``map_coordinates`` releases the
    interpreter lock, so the parts run at once.  Each point's value is
    computed alone, so the split changes no value.  The class is to be
    replaced by an Eulerian flow map solved on the grid (ROADMAP
    direction 1).
    """

    def __init__(self, f: SpectralField, pad_factor: int = 2, order: int = 6):
        if not 2 <= order <= 6:
            raise ValueError(f"interpolation order {order} not in 2..6")
        if (not isinstance(pad_factor, (int, np.integer)) or pad_factor < 1
                or pad_factor is True):
            raise ValueError(f"pad_factor {pad_factor!r} not an integer >= 1")
        self.order = order
        n = f.grid.n
        nf = self.nf = n * pad_factor
        h = n // 2
        # copy all modes except the (empty for band-limited fields) Nyquist
        # planes; negative frequencies go to the end of the padded axes
        k = np.r_[0:h, 1 - h:0]
        src = np.ix_(k % n, k % n, range(h))
        dst = np.ix_(k % nf, k % nf, range(h))
        inv = 1.0 / _spline_symbol(order - 1, k / nf)
        mult = inv[:, None, None] * inv[None, :, None] * inv[None, None, :h]
        lo, hi = _HALO_LO, _HALO_HI
        self.halo = np.empty((len(f.coeffs),) + (lo + nf + hi,) * 3)
        core = slice(lo, lo + nf)
        for comp, coef in zip(self.halo, f.coeffs):
            spectra = np.zeros((nf, nf, nf // 2 + 1), dtype=complex)
            spectra[dst] = coef[src] * mult
            comp[core, core, core] = _inverse_transform(spectra)
            for axis in range(3):   # then the wrapped faces along x, y, z
                faces = np.moveaxis(comp, axis, 0)
                faces[:lo] = faces[nf:nf + lo]
                faces[lo + nf:] = faces[lo:lo + hi]
        self.spline = self.halo[:, core, core, core]

    def __call__(self, points: np.ndarray, order: int | None = None) -> np.ndarray:
        """Values at points of shape (3, ...), as (ncomp, ...); ``order``, if
        given, must be the one the interpolant was built with."""
        from scipy import ndimage
        if order is not None and order != self.order:
            raise ValueError(f"interpolant built with order {self.order}, "
                             f"called with order {order}")
        shape = points.shape[1:]
        x = (points.reshape(3, -1) % 1.0) * self.nf
        x[x == self.nf] = 0.0   # a tiny negative point gives (point mod 1) = 1
        x += _HALO_LO
        m = x.shape[1]
        out = np.empty((self.halo.shape[0], m))
        k = _part_count(m, _PART_POINTS, _usable_cpus())

        def evaluate(i):
            part = slice(m * i // k, m * (i + 1) // k)
            for comp, coef in zip(out, self.halo):
                ndimage.map_coordinates(coef, x[:, part], output=comp[part],
                                        order=self.order - 1,
                                        mode="nearest", prefilter=False)

        run_parts((evaluate,), k)
        return out.reshape((self.halo.shape[0],) + shape)


def _spline_symbol(degree: int, freq: np.ndarray) -> np.ndarray:
    """sum_m b(m) cos(2 pi m freq) for the centred B-spline b of ``degree``
    sampled at the integers m: the Fourier symbol of interpolation on the
    grid by that spline, which the prefilter divides by."""
    half = (degree + 1) / 2
    out = np.zeros(np.shape(freq))
    for m in range(int(half) + 1):
        # b(m) = sum_j (-1)^j C(degree+1, j) (m + half - j)_+^degree / degree!
        b = sum((-1) ** j * comb(degree + 1, j)
                * max(m + half - j, 0.0) ** degree
                for j in range(degree + 2)) / factorial(degree)
        out += (1.0 if m == 0 else 2.0) * b * np.cos(2.0 * np.pi * m * freq)
    return out


# ---------------------------------------------------------------------------
# flow maps
# ---------------------------------------------------------------------------

class FlowMap:
    """Periodic flow map of a velocity, the identity at ``times[0]``, the
    anchor.

    Stores the displacement from identity at each requested time; gradients
    are spectral in the displacement, so volume preservation of the
    divergence-free advection is inherited to rounding.
    """

    def __init__(self, grid: GridSpec, anchor_time: float):
        self.grid = grid
        self.times = [float(anchor_time)]
        self.displacements = [np.zeros((3, grid.n, grid.n, grid.n))]

    def positions(self, i: int) -> np.ndarray:
        return (self.grid.mesh() + self.displacements[i]) % 1.0

    def grad(self, i: int) -> np.ndarray:
        """(3, 3, n, n, n) array of d_j Phi_i components."""
        disp = from_grid(self.displacements[i], self.grid, "vector3")
        g = gradient_tensor(disp)
        for a in range(3):
            g[a, a] += 1.0
        return g


def solve_flow_map(u_eval, times, grid: GridSpec,
                   cfg: SolverConfig | None = None,
                   n_substeps: int | None = None) -> FlowMap:
    """Backward-characteristic flow map of u on the given time samples.

    ``u_eval(t)`` returns the advecting velocity; ``times``, finite and
    strictly increasing, start at the anchor where the map is the identity.
    Each new sample composes the previous map with a one-step backward
    characteristic solved by RK4;
    velocities and the previous displacement are evaluated off the grid by
    ``SpectralInterpolant`` with ``cfg.pad_factor`` and
    ``cfg.interp_points``, whose calls read every tap from the spline's
    wrapped halo and split the grid nodes over the usable CPUs; the split
    changes no value, so the map is that of a one-thread evaluation, bit for
    bit.  The interpolant, and with it this tracing of characteristics off
    the grid, is to be replaced by an Eulerian map solved on the grid
    (ROADMAP direction 1).  Each substep's last stage time is the next
    substep's first, so that velocity interpolant is built once for both; a
    velocity whose coefficients equal those of the last build (compared by
    value against a kept copy) reuses that build.  At most one velocity
    spline is alive during a build: each stage drops the spline it called, a
    new build frees the kept one first, and the kept one is freed before the
    composition's build unless the interval reused it throughout, as a
    constant velocity does.  The RK4 sum takes each stage as it comes, so a
    build sees two stage arrays.
    Substeps are chosen so each RK4 step sees
    dt*||grad u|| <= 0.1 (keeps the volume defect of the non-conservative
    integrator near rounding over admissible spans).
    """
    cfg = cfg or SolverConfig()
    times = _time_grid(times, "times")
    fm = FlowMap(grid, times[0])
    mesh = grid.mesh()
    if n_substeps is None:
        gmax = _sup(gradient_tensor(u_eval(times[0])))
        span = float(np.max(np.diff(times))) if len(times) > 1 else 0.0
        n_substeps = max(1, int(np.ceil(span * max(gmax, 1e-12) / 0.1)))

    last = None   # (coefficients, interpolant) of the last velocity build
    builds = 0

    def interp_at(t):
        nonlocal last, builds
        u = u_eval(t)
        if last is None or not np.array_equal(u.coeffs, last[0]):
            last = None   # the spent spline is freed before the next build
            built = SpectralInterpolant(u, cfg.pad_factor, cfg.interp_points)
            last = (u.coeffs.copy(), built)   # copied after the build peak
            builds += 1
        return last[1]

    for a, b in zip(times[:-1], times[1:]):
        # backward characteristics from t=b to t=a for every grid node
        pts = mesh.copy()
        dt = (b - a) / n_substeps
        t = b
        start = builds
        end = interp_at(t)
        for _ in range(n_substeps):
            k = -end(pts)   # then k1 + 2 k2 + 2 k3 + k4, summed in that order
            del end   # each stage holds only the spline it calls
            mid = interp_at(t - dt / 2)
            stage = -mid((pts + (dt / 2) * k) % 1.0)
            k += 2 * stage
            stage = -mid((pts + (dt / 2) * stage) % 1.0)
            k += 2 * stage
            del mid
            end = interp_at(t - dt)
            k += -end((pts + dt * stage) % 1.0)
            pts = (pts + (dt / 6) * k) % 1.0
            t -= dt
        del end, k, stage   # spent before the composition's build
        new_disp = _wrap(pts - mesh)
        if len(fm.times) > 1:
            if builds > start:
                # the velocity changed within the interval, so the next one
                # will not reuse its spline: free it before the build below;
                # a constant velocity keeps it for the next interval
                last = None
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
