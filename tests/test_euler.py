import sys
import threading
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from cilab import GridSpec, band_project, from_grid, leray_project, to_grid
from cilab.fields import c0_norm, divergence_defect, inner, zeros
from cilab.euler import (
    SpectralInterpolant, local_time_limit,
    momentum_residual, solve_euler_with_drift, solve_flow_map,
    time_derivative,
)
from cilab.euler import _advection_rhs
from cilab import euler
from cilab.fields import SpectralField, gradient_tensor, spectral_tables

GRID = GridSpec(32)


def smooth_div_free(grid, kmax, seed, amp=1.0):
    rng = np.random.default_rng(seed)
    f = from_grid(rng.standard_normal((3,) + (grid.n,) * 3), grid, "vector3",
                  mean_zero=True)
    f = band_project(f, "leq", kmax)
    f = leray_project(f)
    f.coeffs[:, 0, 0, 0] = 0.0
    return (amp / max(c0_norm(f), 1e-30)) * f


class TestLocalTimeLimit:
    def test_formula(self):
        v0 = zeros(GRID, "vector3")
        assert local_time_limit(v0, 2.0) == pytest.approx(1 / 8)

    def test_reciprocal_in_v0(self):
        v1 = smooth_div_free(GRID, 4, seed=0, amp=4.0)
        v2 = 2.0 * v1
        t1 = local_time_limit(v1, 0.0)
        t2 = local_time_limit(v2, 0.0)
        assert t2 == pytest.approx(t1 / 2, rel=1e-6)

    def test_horizon_cap(self):
        v0 = zeros(GRID, "vector3")
        assert local_time_limit(v0, 2.0, horizon=0.05) == pytest.approx(0.05)

    def test_non_finite_velocity_estimate(self):
        v0 = zeros(GridSpec(8), "vector3")
        v0.coeffs[0, 1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="v0"):
            local_time_limit(v0, 0.0)

    @pytest.mark.parametrize("bound", [-1e6, np.nan, np.inf])
    def test_drift_bound_negative_or_not_finite(self, bound):
        with pytest.raises(ValueError, match="z_c2_alpha"):
            local_time_limit(zeros(GridSpec(8), "vector3"), bound)

    # unchecked, min() drops a nan horizon and passes a negative one on
    @pytest.mark.parametrize("horizon", [np.nan, 0.0, -1.0, -np.inf])
    def test_horizon_not_positive(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            local_time_limit(zeros(GridSpec(8), "vector3"), 0.0,
                             horizon=horizon)


class TestEulerSolver:
    def test_zero_stays_zero(self):
        v0 = zeros(GRID, "vector3")
        out, diag = solve_euler_with_drift(v0, None, 0.0, [0.0, 0.05, 0.1])
        assert all(c0_norm(f) == 0.0 for f in out)

    def test_stationary_shear(self):
        # v = (0, sin 2 pi x1, 0): the advective term is a pure gradient
        x = GRID.mesh()[0]
        v0 = from_grid(np.stack([0 * x, np.sin(2 * np.pi * x), 0 * x]),
                       GRID, "vector3", mean_zero=True)
        out, _ = solve_euler_with_drift(v0, None, 0.0, [0.0, 0.05, 0.1])
        assert c0_norm(out[-1] - v0) < 1e-8

    def test_energy_conserved(self):
        v0 = smooth_div_free(GRID, 4, seed=1, amp=1.0)
        out, diag = solve_euler_with_drift(v0, None, 0.0,
                                           np.linspace(0, 0.1, 6))
        e = diag["energy"]
        assert abs(e[-1] - e[0]) < 1e-6 * e[0]

    def test_divergence_free_throughout(self):
        v0 = smooth_div_free(GRID, 5, seed=2, amp=1.0)
        out, _ = solve_euler_with_drift(v0, None, 0.0, [0.0, 0.04, 0.08])
        assert all(divergence_defect(f) < 1e-10 for f in out)

    def test_momentum_conserved_with_steady_drift(self):
        z = smooth_div_free(GRID, 3, seed=3, amp=0.5)
        v0 = smooth_div_free(GRID, 4, seed=4, amp=1.0)
        out, _ = solve_euler_with_drift(v0, lambda t: z, 0.0,
                                        np.linspace(0, 0.08, 5))
        # integral (v+Z).e dx is conserved for constant e (projected dynamics)
        p0 = (out[0] + z).coeffs[:, 0, 0, 0].real
        p1 = (out[-1] + z).coeffs[:, 0, 0, 0].real
        assert np.max(np.abs(p1 - p0)) < 1e-8 * max(np.abs(p0).max(), 1.0)

    def test_semigroup_property(self):
        v0 = smooth_div_free(GRID, 4, seed=5, amp=1.0)
        full, _ = solve_euler_with_drift(v0, None, 0.0, [0.0, 0.03, 0.06])
        half, _ = solve_euler_with_drift(full[1], None, 0.03, [0.03, 0.06])
        rel = c0_norm(full[2] - half[1]) / max(c0_norm(full[2]), 1e-30)
        assert rel < 1e-6

    def test_blowup_guard(self, monkeypatch):
        v0 = smooth_div_free(GRID, 3, seed=6, amp=1.0)
        monkeypatch.setattr(euler, "_BLOWUP_GUARD", 1e-3)
        with pytest.raises(RuntimeError, match="blow-up"):
            solve_euler_with_drift(v0, None, 0.0, [0.0, 0.05])


class TestInterpolant:
    def test_reproduces_band_limited_field(self):
        f = smooth_div_free(GRID, 6, seed=7, amp=1.0)
        interp = SpectralInterpolant(f, pad_factor=4, order=6)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, size=(3, 500))
        approx = interp(pts)
        # exact evaluation by direct mode sum over significant coefficients
        exact = _direct_eval(f, pts)
        assert np.max(np.abs(approx - exact)) < 2e-5 * np.abs(exact).max()

    def test_grid_points_near_exact(self):
        f = smooth_div_free(GRID, 6, seed=8, amp=1.0)
        interp = SpectralInterpolant(f, pad_factor=4, order=6)
        pts = GRID.mesh()[:, ::4, ::4, ::4].reshape(3, -1)
        vals = interp(pts)
        gridded = to_grid(f)[:, ::4, ::4, ::4].reshape(3, -1)
        assert np.max(np.abs(vals - gridded)) < 1e-12

    def test_defaults_reproduce_band_limited_field(self):
        f = smooth_div_free(GRID, 6, seed=7, amp=1.0)
        interp = SpectralInterpolant(f)
        assert (interp.nf, interp.order) == (2 * GRID.n, 6)
        pts = np.random.default_rng(0).uniform(0, 1, size=(3, 500))
        exact = _direct_eval(f, pts)
        assert np.max(np.abs(interp(pts) - exact)) < 2e-5 * np.abs(exact).max()

    def test_rejects_other_order(self):
        interp = SpectralInterpolant(zeros(GRID, "vector3"), order=6)
        pts = np.zeros((3, 4))
        assert np.all(interp(pts, order=6) == 0.0)
        with pytest.raises(ValueError, match="order"):
            interp(pts, order=8)

    @pytest.mark.parametrize("order", [1, 7])
    def test_rejects_order_outside_spline_range(self, order):
        with pytest.raises(ValueError, match="order"):
            SpectralInterpolant(zeros(GRID, "vector3"), order=order)

    @pytest.mark.parametrize("pad_factor", [0, -1, 1.5, True])
    def test_rejects_pad_factor_that_is_not_a_positive_integer(self,
                                                               pad_factor):
        with pytest.raises(ValueError, match="pad_factor"):
            SpectralInterpolant(zeros(GRID, "vector3"), pad_factor=pad_factor)

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_matches_wrapped_spline_at_every_point(self, order):
        # the taps live in the halo, never wrapped or clamped by
        # map_coordinates: every value is the periodic spline's.  -1e-17 % 1
        # is exactly 1.0, so its coordinate is nf, the far edge of the box
        from scipy import ndimage
        interp = SpectralInterpolant(smooth_div_free(GridSpec(16), 4, seed=69),
                                     order=order)
        edge = np.array([0.0, -1e-17, 1.0 - 2.0 ** -53])
        corners = np.stack(np.meshgrid(edge, edge, edge, indexing="ij"))
        uniform = np.random.default_rng(order).uniform(-1.0, 2.0, (3, 2000))
        pts = np.concatenate([corners.reshape(3, -1), uniform], axis=1)
        x = (pts % 1.0) * interp.nf
        assert np.any(x == interp.nf)
        ref = np.stack([ndimage.map_coordinates(coef, x, order=order - 1,
                                                mode="grid-wrap",
                                                prefilter=False)
                        for coef in interp.spline])
        assert (np.max(np.abs(interp(pts) - ref))
                <= 1e-13 * np.max(np.abs(ref)))


class TestInterpolantParts:
    # four usable CPUs on any host: the counts take 1, 1, 2 and 4 parts
    @pytest.mark.parametrize("m", [1, 8191, 8193, 3 * 8192 + 1])
    @pytest.mark.parametrize("order", [None, 6])
    def test_matches_one_thread_loop(self, monkeypatch, m, order):
        from scipy import ndimage
        monkeypatch.setattr(euler, "_usable_cpus", lambda: 4)
        interp = SpectralInterpolant(smooth_div_free(GridSpec(16), 4, seed=9))
        pts = np.random.default_rng(m).uniform(-1.0, 2.0, size=(3, m))
        x = (pts % 1.0) * interp.nf + euler._HALO_LO
        ref = np.stack([ndimage.map_coordinates(coef, x,
                                                order=interp.order - 1,
                                                mode="nearest",
                                                prefilter=False)
                        for coef in interp.halo])
        threads = threading.active_count()
        assert np.array_equal(interp(pts, order=order), ref)
        # the call's pool is joined before it returns
        assert threading.active_count() == threads


class TestPrefilter:
    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_matches_ndimage_prefilter(self, order):
        from scipy import ndimage
        f, refined = _refined_samples()
        expected = refined
        for axis in (1, 2, 3):
            expected = ndimage.spline_filter1d(expected, order - 1, axis,
                                               mode="grid-wrap")
        spline = SpectralInterpolant(f, pad_factor=2, order=order).spline
        assert (np.max(np.abs(spline - expected))
                < 1e-12 * np.max(np.abs(expected)))


@lru_cache(maxsize=1)
def _refined_samples():
    """A band-limited n=16 field and its samples on the 32-point grid, by
    direct mode sums."""
    f = smooth_div_free(GridSpec(16), 4, seed=68, amp=1.0)
    mesh = GridSpec(32).mesh()
    return f, _direct_eval(f, mesh.reshape(3, -1)).reshape(mesh.shape)


def _direct_eval(f, pts):
    n = f.grid.n
    kx, ky, kz = f.grid.wavenumbers()
    out = np.zeros((len(f.coeffs), pts.shape[1]))
    c = f.coeffs
    idx = np.argwhere(np.abs(c).max(axis=0) > 1e-14 * np.abs(c).max())
    for (i, j, l) in idx:
        k = np.array([kx[i, 0, 0], ky[0, j, 0], kz[0, 0, l]])
        w = 2.0 if l not in (0, n // 2) else 1.0
        phase = np.exp(2j * np.pi * (k @ pts))
        out += w * np.real(c[:, i, j, l][:, None] * phase[None, :])
    return out


class TestFlowMap:
    def test_zero_velocity_identity(self):
        fm = solve_flow_map(lambda t: zeros(GRID, "vector3"),
                            [0.0, 0.02, 0.04], GRID)
        assert np.max(np.abs(fm.displacements[-1])) < 1e-14
        g = fm.grad(2)
        eye = np.zeros_like(g)
        for a in range(3):
            eye[a, a] = 1.0
        assert np.max(np.abs(g - eye)) < 1e-12

    def test_uniform_translation(self):
        c = np.array([0.3, -0.1, 0.2])
        u = zeros(GRID, "vector3")
        u.coeffs[:, 0, 0, 0] = c
        fm = solve_flow_map(lambda t: u, [0.0, 0.05, 0.1], GRID)
        expected = -c[:, None, None, None] * 0.1
        err = np.max(np.abs(fm.displacements[-1] - expected))
        assert err < 1e-10

    def test_volume_preserved(self):
        # over an admissible gluing span (span <= local time limit)
        u = smooth_div_free(GRID, 4, seed=9, amp=2.0)
        span = min(local_time_limit(u, 0.0), 0.05)
        fm = solve_flow_map(lambda t: u, np.linspace(0, span, 4), GRID)
        det = np.linalg.det(np.moveaxis(fm.grad(3), (0, 1), (-2, -1)))
        assert np.max(np.abs(det - 1.0)) < 1e-4

    def test_grad_deviation_bound(self):
        # |grad Phi - Id| <= 1.1 * span * ||grad u|| * exp(same)
        from cilab.fields import gradient_tensor
        u = smooth_div_free(GRID, 4, seed=10, amp=1.5)
        span = 0.04
        fm = solve_flow_map(lambda t: u, np.linspace(0, span, 4), GRID)
        g = fm.grad(3)
        for a in range(3):
            g[a, a] -= 1.0
        dev = np.abs(g).max()
        gmax = float(np.abs(gradient_tensor(u)).max())
        bound = 1.1 * span * gmax * np.exp(span * gmax)
        assert dev <= bound


class TestResidual:
    def test_time_derivative_accuracy(self):
        # series f(t) = cos(t) * field: second-order differences
        f = smooth_div_free(GRID, 3, seed=11, amp=1.0)
        dt = 1e-3
        times = np.arange(8) * dt
        series = [np.cos(t) * f for t in times]
        dv = time_derivative(series, dt)
        for i in (3, 4):
            expected = -np.sin(times[i]) * f
            assert c0_norm(dv[i] - expected) < 1e-6 * c0_norm(f)

    def test_solver_output_satisfies_euler(self):
        v0 = smooth_div_free(GRID, 4, seed=12, amp=1.0)
        times = np.linspace(0, 0.05, 11)
        out, diag = solve_euler_with_drift(v0, None, 0.0, times)
        resid, tol = momentum_residual(out, None, None, times[1] - times[0])
        # residual should be explained by the finite-difference tolerance
        assert resid[1:-1].max() < 10 * tol


def _white(grid, seed, amp=1.0):
    """Real field with content in every mode, the Nyquist planes included."""
    rng = np.random.default_rng(seed)
    return from_grid(amp * rng.standard_normal((3,) + (grid.n,) * 3), grid,
                     "vector3")


def _reference_rhs(v, z):
    """-P div((v+z) (x) (v+z)) by numpy.fft, with the 2/3 mask on every axis
    and the projection Id - k k^T / |k|^2 written out."""
    n = v.grid.n
    k = np.fft.fftfreq(n, 1.0 / n)
    K = np.meshgrid(k, k, np.arange(n // 2 + 1), indexing="ij")
    keep = np.ones(K[0].shape, bool)
    for ki in K:
        keep &= np.abs(ki) <= n // 3
    c = v.coeffs if z is None else v.coeffs + z.coeffs
    u = np.fft.irfftn(c * keep, s=(n,) * 3, axes=(1, 2, 3)) * n**3
    tens = np.fft.rfftn(u[:, None] * u[None, :], axes=(2, 3, 4)) / n**3 * keep
    div = sum(2j * np.pi * K[j] * tens[:, j] for j in range(3))
    ksq = sum(ki * ki for ki in K)
    kdiv = sum(K[i] * div[i] for i in range(3)) / np.where(ksq == 0, 1, ksq)
    return -np.stack([div[i] - K[i] * kdiv for i in range(3)]), keep


class TestAdvectionRHS:
    # the kernel's y- and z-transforms run over x-slabs of 16384 // n^2
    # planes: one slab at n = 16, 2 at n = 32, 16 at n = 64, and at n = 48
    # six of 7 and one of 6
    @pytest.mark.parametrize("n", [16, 32, 48, 64])
    @pytest.mark.parametrize("drift", [False, True])
    def test_matches_reference(self, n, drift):
        g = GridSpec(n)
        v = _white(g, seed=n)
        z = _white(g, seed=n + 1, amp=0.3) if drift else None
        ref, keep = _reference_rhs(v, z)
        out = _advection_rhs(v, z).coeffs
        assert np.max(np.abs(out - ref)) < 1e-13 * np.max(np.abs(ref))
        assert np.all(out[:, ~keep] == 0.0)
        assert np.all(out[:, 0, 0, 0] == 0.0)


class TestBoxState:
    def test_outside_modes_kept_and_box_matches_full_rk4(self):
        g = GridSpec(16)
        v0 = _white(g, seed=66, amp=0.05)
        z = _white(g, seed=67, amp=0.02)

        def z_eval(t):
            return (1 + 20 * t) * z

        _, keep = _reference_rhs(v0, None)
        assert np.any(v0.coeffs[:, ~keep] != 0)
        assert np.any(v0.coeffs[:, 8] != 0) and np.any(v0.coeffs[..., 8] != 0)
        h = 5e-4
        fields, diag = solve_euler_with_drift(v0, z_eval, 0.0, np.arange(4) * h)
        assert diag["steps"] == 3   # one RK4 step per interval

        def rhs(c, t):
            return _reference_rhs(SpectralField(g, "vector3", c), z_eval(t))[0]

        def rk4(c, t, dt):
            k1 = rhs(c, t)
            k2 = rhs(c + 0.5 * dt * k1, t + 0.5 * dt)
            k3 = rhs(c + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = rhs(c + dt * k3, t + dt)
            return c + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        # the solver takes its first step as two half steps (step doubling)
        c = rk4(rk4(v0.coeffs, 0.0, h / 2), h / 2, h / 2)
        for i, f in enumerate(fields[1:], start=1):
            assert np.array_equal(f.coeffs[:, ~keep], v0.coeffs[:, ~keep])
            scale = np.max(np.abs(c[:, keep]))
            assert np.max(np.abs(f.coeffs[:, keep] - c[:, keep])) < 1e-12 * scale
            # the state has moved by far more than the tolerance
            assert np.max(np.abs(c[:, keep] - v0.coeffs[:, keep])) > 1e-5 * scale
            c = rk4(c, i * h, h)

    def test_energy_field_serves_the_next_cfl_bound(self):
        g = GridSpec(16)
        z = smooth_div_free(g, 2, seed=70, amp=0.3)
        v0 = smooth_div_free(g, 4, seed=71, amp=1.0)
        calls = []

        def z_eval(t):
            calls.append(t)
            return (1 + 10 * t) * z

        times = np.linspace(0.0, 0.008, 5)
        fields, diag = solve_euler_with_drift(v0, z_eval, 0.0, times)
        assert diag["steps"] == len(times) - 1
        for f, t, e in zip(fields, times, diag["energy"]):
            u = f + (1 + 10 * t) * z
            assert e == inner(u, u)
        # one call at t0, for the energy, the first CFL bound and k1; 6 more
        # for the step-doubled first step; 2 for every later step (k2 and
        # k3 share one, k4's serves the energy and the next step's k1)
        assert len(calls) == 1 + 6 + 2 * (len(times) - 2)
        # the drift is evaluated again only at a new time
        assert all(s != t for s, t in zip(calls, calls[1:]))

    def test_guard_sees_the_modes_outside_the_box(self, monkeypatch):
        # the box part stays 0 (no drift, and the kernel reads only the box),
        # so all of max|v| comes from the modes the solver never changes
        g = GridSpec(16)
        v0 = _white(g, seed=69)
        _, keep = _reference_rhs(v0, None)
        v0.coeffs[:, keep] = 0.0
        monkeypatch.setattr(euler, "_BLOWUP_GUARD", 0.5 * c0_norm(v0))
        with pytest.raises(RuntimeError, match="blow-up at step 1"):
            solve_euler_with_drift(v0, None, 0.0, [0.0, 1e-4])


class TestSolverInputs:
    @pytest.mark.parametrize("times", [[0.0, 0.01, 0.005], [0.0, 0.0, 0.01]])
    def test_rejects_times_not_increasing(self, times):
        v0 = smooth_div_free(GridSpec(16), 3, seed=20, amp=1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            solve_euler_with_drift(v0, None, 0.0, times)

    # unchecked, an infinite end time overflows the CFL substep count
    @pytest.mark.parametrize("times", [[0.0, np.inf], [0.0, 0.01, np.inf],
                                       [np.nan, 0.01]])
    def test_rejects_times_not_finite(self, times):
        v0 = smooth_div_free(GridSpec(16), 3, seed=20, amp=1.0)
        with pytest.raises(ValueError, match="out_times must be finite"):
            solve_euler_with_drift(v0, None, 0.0, times)

    # unchecked, these end in IndexError or int(nan), and decreasing times
    # give the flow map one substep whatever |grad u| is
    @pytest.mark.parametrize("solver, times, message", [
        ("drifted", [], "out_times must hold at least one time"),
        ("flow_map", [], "times must hold at least one time"),
        ("flow_map", [0.0, np.nan], "times must be finite"),
        ("flow_map", [0.0, 0.02, 0.01], "times must be strictly increasing"),
        ("flow_map", [0.0, 0.0], "times must be strictly increasing")])
    def test_bad_time_grid_is_named(self, solver, times, message):
        u = smooth_div_free(GridSpec(16), 3, seed=20, amp=1.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            if solver == "drifted":
                solve_euler_with_drift(u, None, 0.0, times)
            else:
                solve_flow_map(lambda t: u, times, GridSpec(16))

    def test_nan_initial_field(self):
        v0 = smooth_div_free(GridSpec(16), 3, seed=21, amp=1.0)
        v0.coeffs[1, 2, 1, 1] = np.nan
        with pytest.raises(RuntimeError, match=r"step 0 \(t=0\.0000\)"):
            solve_euler_with_drift(v0, None, 0.0, [0.0, 0.01])

    @pytest.mark.parametrize("t_bad, step", [(0.0, 0), (0.005, 1)])
    def test_nan_drift(self, t_bad, step):
        g = GridSpec(16)
        v0 = smooth_div_free(g, 3, seed=22, amp=1.0)
        z = smooth_div_free(g, 2, seed=23, amp=0.2)
        bad = z.copy()
        bad.coeffs[0, 1, 0, 0] = np.nan

        def z_eval(t):
            return bad if t >= t_bad else z

        # from t = 0 the CFL step sees it; later only the RK4 stages do, and
        # the guard rejects the non-finite state after the step
        with pytest.raises(RuntimeError, match=f"at step {step} "):
            solve_euler_with_drift(v0, z_eval, 0.0, [0.0, 0.01, 0.02])


class TestWorkArrays:
    def test_interleaved_solves_are_reproducible(self):
        g = GridSpec(16)
        z = smooth_div_free(g, 2, seed=24, amp=0.3)
        a = smooth_div_free(g, 4, seed=25, amp=1.0)
        b = smooth_div_free(g, 5, seed=26, amp=2.0)
        inputs = (a, b, a.copy())
        times = np.linspace(0.0, 0.03, 4)
        runs = [solve_euler_with_drift(f, lambda t: (1 + t) * z, 0.0, times)
                for f in inputs]
        (fa, da), (fb, _), (fa2, da2) = runs
        # the first sample is the input itself, left unchanged
        assert all(fields[0] is f for (fields, _), f in zip(runs, inputs))
        assert np.array_equal(a.coeffs, inputs[2].coeffs)
        assert all(np.array_equal(x.coeffs, y.coeffs)
                   for x, y in zip(fa, fa2))
        assert da["steps"] == da2["steps"]
        assert da["truncation_per_time"] == da2["truncation_per_time"]
        assert np.array_equal(da["energy"], da2["energy"])
        assert not np.array_equal(fa[-1].coeffs, fb[-1].coeffs)
        out = [f.coeffs for fields, _ in runs for f in fields]
        for i, x in enumerate(out):
            for y in out[i + 1:]:
                assert not np.shares_memory(x, y)

    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_kernel_ignores_stale_work_arrays(self, n):
        """A kernel whose work arrays hold nan in every slot, after a call
        on other input, gives the result of a fresh kernel bit for bit."""
        g = GridSpec(n)
        box = spectral_tables(n).box
        v, w = (_white(g, seed=n + i).coeffs[box] for i in range(2))
        z = _white(g, seed=n + 2, amp=0.3)
        fresh = euler._Advection(g)(v, z, np.empty_like(v))
        kernel = euler._Advection(g)
        kernel(w, z, np.empty_like(w))
        for arr in (kernel.work, kernel._prod, kernel._grid):
            arr.fill(np.nan)
        assert np.array_equal(kernel(v, z, np.empty_like(v)), fresh)
        for arr in (kernel.work, kernel._prod, kernel._grid):
            arr.fill(np.nan)
        assert np.array_equal(kernel(v, None, np.empty_like(v)),
                              euler._Advection(g)(v, None, np.empty_like(v)))


class TestKernelParts:
    """The kernel's two parts, each half of the box on its own thread,
    against one part: 1, 2 and 4 usable CPUs give 1, 2 and 2 parts at
    n = 48 and 64."""

    @staticmethod
    def _cpus(monkeypatch, cpus):
        monkeypatch.setattr(euler, "_usable_cpus", lambda: cpus)

    # at n = 48 the 7 slabs split 4 and 3, and the last slab has 6 planes
    @pytest.mark.parametrize("n", [48, 64])
    @pytest.mark.parametrize("drift", [False, True])
    def test_part_counts_agree(self, monkeypatch, n, drift):
        g = GridSpec(n)
        v = _white(g, seed=n)
        z = _white(g, seed=n + 1, amp=0.3) if drift else None
        v0 = smooth_div_free(g, 4, seed=n + 2, amp=1.0)
        zs = smooth_div_free(g, 2, seed=n + 3, amp=0.3)
        z_eval = (lambda t: (1 + 10 * t) * zs) if drift else None
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # the parts interleave finely
        try:
            for cpus in (1, 2, 4):
                self._cpus(monkeypatch, cpus)
                assert euler._Advection(g).parts == min(cpus, 2)
                threads = threading.active_count()
                rhs = _advection_rhs(v, z)
                fields, diag = solve_euler_with_drift(v0, z_eval, 0.0,
                                                      [0.0, 5e-4, 1e-3])
                # the call and the solve join their workers
                assert threading.active_count() == threads
                runs.append((rhs, fields, diag))
        finally:
            sys.setswitchinterval(interval)
        (rhs, fields, diag), *others = runs
        assert diag["steps"] == 2
        for other_rhs, other_fields, other_diag in others:
            assert np.array_equal(other_rhs.coeffs, rhs.coeffs)
            assert all(np.array_equal(f.coeffs, h.coeffs)
                       for f, h in zip(fields, other_fields))
            assert np.array_equal(other_diag["energy"], diag["energy"])
            assert (other_diag["truncation_per_time"]
                    == diag["truncation_per_time"])

    def test_nan_drift_names_the_step(self, monkeypatch):
        self._cpus(monkeypatch, 2)
        g = GridSpec(48)
        v0 = smooth_div_free(g, 3, seed=27, amp=1.0)
        z = smooth_div_free(g, 2, seed=28, amp=0.2)
        bad = z.copy()
        bad.coeffs[0, 1, 0, 0] = np.nan
        threads = threading.active_count()
        # only the RK4 stages from t = 2.5e-4 on see it; the guard rejects
        # the non-finite state after the first step
        with pytest.raises(RuntimeError, match=r"non-finite state or drift "
                                               r"at step 1 \(t=0\.0005\)"):
            solve_euler_with_drift(v0, lambda t: bad if t >= 2.5e-4 else z,
                                   0.0, [0.0, 5e-4, 1e-3])
        assert threading.active_count() == threads

    def test_drift_on_another_grid(self, monkeypatch):
        self._cpus(monkeypatch, 2)
        g = GridSpec(48)
        v0 = smooth_div_free(g, 3, seed=29, amp=1.0)
        z = smooth_div_free(g, 2, seed=30, amp=0.2)
        other = smooth_div_free(GridSpec(16), 2, seed=30, amp=0.2)
        threads = threading.active_count()
        # the right grid at t0, for the energy; the kernel's own check
        # meets the other one at the first stage after t0
        with pytest.raises(ValueError, match="drift lives on a different"):
            solve_euler_with_drift(v0, lambda t: other if t > 0 else z,
                                   0.0, [0.0, 5e-4])
        assert threading.active_count() == threads

    def test_error_in_the_worker_part_surfaces(self, monkeypatch):
        self._cpus(monkeypatch, 2)
        transform = euler._transform_lines

        def failing(fft, lines, axis):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("in the worker's part")
            transform(fft, lines, axis)

        monkeypatch.setattr(euler, "_transform_lines", failing)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="worker's part"):
            _advection_rhs(_white(GridSpec(48), seed=31), None)
        assert threading.active_count() == threads


class TestKernelStage:
    """The stage v + c k that the kernel forms in its head, against the
    kernel at the stage formed outside it, on one part and on two (two only
    at n = 48 and 64)."""

    @pytest.mark.parametrize("n", [16, 32, 48, 64])
    @pytest.mark.parametrize("drift", [False, True])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_matches_the_explicit_stage(self, monkeypatch, n, drift, cpus):
        monkeypatch.setattr(euler, "_usable_cpus", lambda: cpus)
        g = GridSpec(n)
        box = spectral_tables(n).box
        v, k = (_white(g, seed=n + i).coeffs[box] for i in range(2))
        z = _white(g, seed=n + 2, amp=0.3) if drift else None
        c = 3.7e-3
        kernel = euler._Advection(g)
        ref = kernel(np.multiply(k, c) + v, z, np.empty_like(v))
        assert np.array_equal(kernel(v, z, np.empty_like(v), k, c), ref)
        # k3 and k4 read the doubled k with c halved
        assert np.array_equal(kernel(v, z, np.empty_like(v), 2.0 * k, c / 2),
                              ref)
        # the result may overwrite the k it was formed from, as in _RK4
        out = k.copy()
        assert np.array_equal(kernel(v, z, out, out, c), ref)


class TestSolveFootprint:
    def test_no_whole_temporaries_in_a_drifted_solve(self):
        # at its peak a drifted solve holds its outputs, the kernel's work
        # array and slab buffers, the drift field it evaluated last, and box
        # arrays: the state, the step's sum and k.  The stages are formed in
        # the kernel's head and u = v + z of each output time in its work
        # array, so a stage array or a whole u would break the bound.
        g = GridSpec(48)
        v0 = smooth_div_free(g, 4, seed=80, amp=1.0)
        z = smooth_div_free(g, 2, seed=81, amp=0.3)
        times = np.linspace(0.0, 2e-3, 5)

        def run():
            return solve_euler_with_drift(v0, lambda t: (1 + 10 * t) * z,
                                          0.0, times)

        run()   # first-call imports and caches are not the solve's
        tracemalloc.start()
        try:
            fields, diag = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one step per interval, each certified without the grid transforms
        assert diag["steps"] == len(times) - 1 and diag["cfl_exact"] == 0
        kernel = euler._Advection(g)
        field = v0.coeffs.nbytes
        outputs = (len(fields) - 1) * field
        work = kernel.work.nbytes + kernel._grid.nbytes + kernel._prod.nbytes
        box = np.empty(kernel.shape, dtype=complex).nbytes
        assert peak < outputs + work + field + 3 * box


def _arbitrary(grid, seed):
    """A stored array no real field has: complex entries in every slot, so
    the k_z = 0 and k_z = n/2 planes are not Hermitian and every Nyquist
    plane is filled."""
    rng = np.random.default_rng(seed)
    shape = (3, grid.n, grid.n, grid.n // 2 + 1)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpectralField(grid, "vector3", c)


def _grid_maxima(f):
    return c0_norm(f), float(np.abs(gradient_tensor(f)).max())


class TestSupBounds:
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("kind", ["white", "arbitrary"])
    def test_bounds_dominate_grid_maxima(self, n, kind):
        g = GridSpec(n)
        f = _white(g, 40 + n) if kind == "white" else _arbitrary(g, 50 + n)
        if kind == "white":
            assert np.any(f.coeffs[:, n // 2] != 0)   # Nyquist planes filled
            assert np.any(f.coeffs[..., n // 2] != 0)
        else:
            assert f.hermitian_defect() > 0.1
        u_bound, g_bound = euler._sup_bounds(f)
        u_max, g_max = _grid_maxima(f)
        assert u_max <= u_bound and g_max <= g_bound

    @pytest.mark.parametrize("k", [(1, -2, 3), (1, 2, 0), (3, 0, 8)])
    def test_tight_for_one_cosine(self, k):
        # (3, 0, 8) sits on the k_z = n/2 column, where the derivative is 0
        g = GridSpec(16)
        x = g.mesh()
        phase = 2 * np.pi * sum(kj * xj for kj, xj in zip(k, x))
        f = from_grid(np.stack([np.cos(phase), 0 * phase, 0 * phase]), g,
                      "vector3")
        u_bound, g_bound = euler._sup_bounds(f)
        u_max, g_max = _grid_maxima(f)
        assert u_bound == pytest.approx(1.0, rel=1e-8)
        assert u_bound == pytest.approx(u_max, rel=1e-8)
        k_prime = [0 if abs(kj) == 8 else abs(kj) for kj in k]
        assert g_bound == pytest.approx(2 * np.pi * max(k_prime), rel=1e-8)
        assert g_bound == pytest.approx(g_max, rel=1e-8)

    def test_non_finite(self):
        f = _white(GridSpec(8), seed=60)
        f.coeffs[2, 1, 1, 1] = np.nan
        assert all(np.isnan(b) for b in euler._sup_bounds(f))


class TestCertifiedDiagnostics:
    G = GridSpec(16)

    def _drifted(self):
        z = smooth_div_free(self.G, 2, seed=61, amp=0.3)
        v0 = smooth_div_free(self.G, 4, seed=62, amp=1.0)
        return v0, (lambda t: (1 + t) * z)

    def test_forced_exact_path_gives_the_same_solve(self, monkeypatch):
        v0, z_eval = self._drifted()
        times = np.linspace(0.0, 0.008, 5)
        fields, diag = solve_euler_with_drift(v0, z_eval, 0.0, times)
        assert diag["cfl_exact"] == 0
        monkeypatch.setattr(euler, "_sup_bounds",
                            lambda u: (np.inf, np.inf))
        exact, exact_diag = solve_euler_with_drift(v0, z_eval, 0.0, times)
        assert exact_diag["cfl_exact"] == len(times) - 1
        assert all(np.array_equal(a.coeffs, b.coeffs)
                   for a, b in zip(fields, exact))
        assert diag["steps"] == exact_diag["steps"]
        assert diag["truncation_per_time"] == exact_diag["truncation_per_time"]
        assert np.array_equal(diag["energy"], exact_diag["energy"])

    def test_long_span_takes_the_exact_rule_count(self):
        v0, z_eval = self._drifted()
        span = 0.2
        u = v0 + z_eval(0.0)
        expected = max(1, int(np.ceil(span / euler._cfl_dt(u))))
        assert expected > 1
        # the short interval is certified, the long one is not
        _, diag = solve_euler_with_drift(v0, z_eval, 0.0, [0.0, 1e-3, span])
        assert diag["cfl_exact"] == 1
        _, diag = solve_euler_with_drift(v0, z_eval, 0.0, [0.0, span])
        assert diag["cfl_exact"] == 1
        assert diag["steps"] == expected

    @pytest.mark.parametrize("factor, steps", [(0.999, 1), (1.001, 2)])
    def test_threshold_of_a_tight_bound(self, factor, steps):
        # a steady shear whose bounds equal its grid maxima: the count is
        # certified just below the CFL threshold and transformed just above
        x = self.G.mesh()[1]
        v0 = from_grid(np.stack([np.cos(2 * np.pi * x), 0 * x, 0 * x]),
                       self.G, "vector3", mean_zero=True)
        span = factor * 0.25 / (self.G.n + 2 * np.pi)
        _, diag = solve_euler_with_drift(v0, None, 0.0, [0.0, span])
        assert (diag["steps"], diag["cfl_exact"]) == (steps, steps - 1)

    def test_guard_beyond_the_bound_but_not_the_grid_max(self, monkeypatch):
        v0 = 0.01 * _white(self.G, seed=63)
        u_bound, _ = euler._sup_bounds(v0)
        guard = np.sqrt(c0_norm(v0) * u_bound)   # between the two
        monkeypatch.setattr(euler, "_BLOWUP_GUARD", guard)
        out, diag = solve_euler_with_drift(v0, None, 0.0, [0.0, 1e-4, 2e-4])
        assert diag["steps"] >= 2
        assert all(c0_norm(f) <= guard < euler._sup_bounds(f)[0]
                   for f in out)


class TestFlowMapBuilds:
    G = GridSpec(16)

    def _run(self, monkeypatch, u_eval, times):
        """The flow map and the number of interpolants it built."""
        builds = []

        class Counting(SpectralInterpolant):
            def __init__(self, *args, **kw):
                builds.append(1)
                super().__init__(*args, **kw)

        monkeypatch.setattr(euler, "SpectralInterpolant", Counting)
        fm = solve_flow_map(u_eval, times, self.G, n_substeps=2)
        return fm, len(builds)

    def test_constant_velocity_is_built_once(self, monkeypatch):
        u = smooth_div_free(self.G, 3, seed=64, amp=1.0)
        fm, builds = self._run(monkeypatch, lambda t: u, [0.0, 0.01, 0.02])
        assert builds == 1 + 1   # one velocity, one composition

    def test_velocity_edited_in_place_is_rebuilt(self, monkeypatch):
        base = smooth_div_free(self.G, 3, seed=65, amp=1.0)
        shared = base.copy()

        def in_place(t):
            shared.coeffs[...] = (1 + 10 * t) * base.coeffs
            return shared

        times = [0.0, 0.01, 0.02]
        fm, builds = self._run(monkeypatch, in_place, times)
        fresh, fresh_builds = self._run(
            monkeypatch, lambda t: (1 + 10 * t) * base, times)
        # 5 distinct stage times per interval, one composition
        assert builds == fresh_builds == 2 * 5 + 1
        assert all(np.array_equal(a, b) for a, b in
                   zip(fm.displacements, fresh.displacements))

    def test_constant_velocity_is_reused_on_every_interval(self, monkeypatch):
        u = smooth_div_free(self.G, 3, seed=66, amp=1.0)
        fm, builds = self._run(monkeypatch, lambda t: u,
                               [0.0, 0.01, 0.02, 0.03])
        assert builds == 1 + 2   # one velocity, two compositions

    def test_one_velocity_spline_alive_during_a_build(self):
        # a time-varying velocity builds at every stage; over two intervals
        # the map also builds its composition.  Each build holds its padded
        # spectra and its spline; the slack of three n^3 vector fields
        # covers the map's own grid arrays (mesh, points, stages, stored
        # displacements).  A spent spline kept alive through a build would
        # break the bound.
        base = smooth_div_free(self.G, 3, seed=67, amp=1.0)
        times = [0.0, 0.01, 0.02]

        def run():
            solve_flow_map(lambda t: (1 + 10 * t) * base, times, self.G,
                           n_substeps=2)

        run()   # first-call imports and caches are not the map's
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, nf = self.G.n, 2 * self.G.n
        spline = 3 * nf ** 3 * 8
        spectra = 3 * nf * nf * (nf // 2 + 1) * 16
        assert peak < spline + (spectra + spline) + 3 * (3 * n ** 3 * 8)
