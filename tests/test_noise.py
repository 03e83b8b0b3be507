import numpy as np
import pytest

from cilab import GridSpec
from cilab.fields import c0_norm, differential, from_grid, inner, to_grid
from cilab.noise import (
    LowpassPath, MollifiedPath, SpectrumSpec, ito_integral,
    mollify_time_one_sided,
    sample_path, stopping_time, trace,
)

GRID = GridSpec(16)
SPEC = SpectrumSpec(p=6.0, scale=1.0, k_max=2)


class TestSpectrum:
    def test_basis_orthonormal(self):
        assert SPEC.orthonormality_defect() < 1e-10

    def test_basis_fields_div_free_mean_zero(self):
        path = sample_path(SPEC, 0.1, 0.5, seed=1)
        B = path.field_at(3, GRID)
        assert np.abs(B.coeffs[:, 0, 0, 0]).max() == 0.0
        dv = c0_norm(differential(B, "div"))
        assert dv < 1e-10 * max(c0_norm(B), 1e-300)

    def test_trace_hypothesis_finite(self):
        # direct summation of Tr((I - Lap)^{7/2+gamma} GG*)
        assert np.isfinite(trace(SPEC, 3.5 + 0.01))

    def test_trace_single_mode(self):
        spec = SpectrumSpec(p=6.0, scale=1.0, k_max=1)
        one = SpectrumSpec(modes=[m for m in spec.modes][:1])
        one.modes[0] = type(one.modes[0])(one.modes[0].k, 1, 0.5,
                                          one.modes[0].direction)
        assert trace(one, 0.0) == pytest.approx(0.5)

    def test_trace_monotone_in_s(self):
        assert trace(SPEC, 0.0) <= trace(SPEC, 1.0) <= trace(SPEC, 2.0)


class TestSamplePath:
    def test_deterministic(self):
        p1 = sample_path(SPEC, 0.05, 1.0, seed=42)
        p2 = sample_path(SPEC, 0.05, 1.0, seed=42)
        assert np.array_equal(p1.beta, p2.beta)

    def test_seed_changes_path(self):
        p1 = sample_path(SPEC, 0.05, 1.0, seed=1)
        p2 = sample_path(SPEC, 0.05, 1.0, seed=2)
        assert not np.allclose(p1.beta, p2.beta)

    def test_ito_isometry_of_field_norm(self):
        # E ||B(t)||_{L2}^2 = t * Tr(GG*) within 3 standard errors
        t_idx, dt = 10, 0.02
        t = t_idx * dt
        vals = []
        for seed in range(200):
            p = sample_path(SPEC, dt, t, seed=seed)
            w = p.spec.eigenvalues() * p.beta[:, t_idx] ** 2
            vals.append(w.sum())
        vals = np.array(vals)
        target = t * trace(SPEC, 0.0)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - target) < 3 * se

    def test_single_mode_variance(self):
        spec = SpectrumSpec(p=2.0, scale=1.0, k_max=1)
        single = SpectrumSpec(modes=spec.modes[:1])
        t_idx, dt = 8, 0.05
        t = t_idx * dt
        c = single.modes[0].c
        vals = [sample_path(single, dt, t, seed=s).beta[0, t_idx] ** 2 * c
                for s in range(300)]
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - c * t) < 3 * se


class TestMollified:
    def test_zero_at_time_zero(self):
        p = sample_path(SPEC, 0.01, 1.0, seed=3)
        z = mollify_time_one_sided(p, 0.1)
        assert np.all(z.beta_z[:, 0] == 0.0)

    def test_rejects_under_resolved(self):
        p = sample_path(SPEC, 0.1, 1.0, seed=3)
        with pytest.raises(ValueError, match="under-resolved"):
            mollify_time_one_sided(p, 0.15)

    def test_rejects_kernel_wider_than_path(self):
        p = sample_path(SpectrumSpec(p=6, scale=0.0075, k_max=4), 1e-3,
                        0.064, seed=7)
        with pytest.raises(ValueError, match="iota.*path.horizon"):
            MollifiedPath(p, 1.0)

    def test_adapted(self):
        # values at time <= t_i are unchanged by perturbing the future
        p1 = sample_path(SPEC, 0.01, 1.0, seed=4)
        p2 = sample_path(SPEC, 0.01, 1.0, seed=4)
        cut = 50
        p2.beta[:, cut + 1:] += 7.0
        z1 = mollify_time_one_sided(p1, 0.1)
        z2 = mollify_time_one_sided(p2, 0.1)
        assert np.array_equal(z1.beta_z[:, :cut + 1], z2.beta_z[:, :cut + 1])

    def test_derivative_matches_finite_differences(self):
        # oracle: replace the Brownian coordinates by smooth functions and
        # compare the analytic kernel-derivative weights to central FD of z
        p = sample_path(SPEC, 1e-3, 1.0, seed=5)
        tt = p.times
        for m in range(p.spec.n_modes):
            p.beta[m] = np.sin(3.0 * tt + 0.37 * m) + 0.5 * tt
        z = mollify_time_one_sided(p, 0.128)
        i0, i1 = 400, 900
        b = z.beta_z
        fd = (-b[:, i0 + 2:i1 + 2] + 8 * b[:, i0 + 1:i1 + 1]
              - 8 * b[:, i0 - 1:i1 - 1] + b[:, i0 - 2:i1 - 2]) / (12 * p.dt)
        an = z.dbeta_z[:, i0:i1]
        rel = np.max(np.abs(fd - an)) / np.max(np.abs(an))
        assert rel < 1e-6

    def test_convergence_rate_to_path(self):
        # || z(t) - B(t) ||_{C1} ~ iota^{1/2 - alpha}; empirical slope
        from cilab.verify import scaling_regression
        alpha = 0.02
        p = sample_path(SPEC, 2e-4, 1.0, seed=6)
        iotas = [2.0 ** (-e) for e in range(3, 8)]
        errs = []
        for iota in iotas:
            z = mollify_time_one_sided(p, iota)
            # C1 norm of z - B via mode coefficients: sup_x |f| <= sum_k ...
            diff = np.abs(z.beta_z - p.beta)
            w = np.sqrt(p.spec.eigenvalues())
            c1_weight = w * (1.0 + 2.0 * np.pi * np.sqrt(p.spec.k_squared()))
            errs.append(np.max(c1_weight @ diff))
        slope, _ = scaling_regression(list(zip(iotas, errs)))
        assert abs(slope - (0.5 - alpha)) < 0.15


class TestStoppingTime:
    def test_horizon_cap_for_huge_threshold(self):
        p = sample_path(SPEC, 0.01, 0.5, seed=7)
        res = stopping_time(p, L=1e9, alpha=0.02, gamma=0.01)
        assert res.triggered_by == "horizon_cap"
        assert res.value == pytest.approx(0.5)
        assert not res.certified  # horizon < L, no crossing observed

    def test_threshold_crossing(self):
        p = sample_path(SPEC, 0.01, 1.0, seed=8)
        # compute the running norm cap-free, then bisect the threshold
        full = stopping_time(p, L=1e9, alpha=0.02, gamma=0.01)
        assert full.triggered_by == "horizon_cap"
        # use a threshold at 90% of the max observed norm
        s = 3.5 + 0.01
        max_norm = max(p.hs_norm(i, s) for i in range(p.n_steps + 1))
        res = stopping_time(p, L=0.9 * max_norm, alpha=0.02, gamma=0.01)
        assert res.triggered_by == "norm_threshold"
        assert 0.0 < res.value < p.horizon

    def test_monotone_in_threshold(self):
        p = sample_path(SPEC, 0.01, 1.0, seed=9)
        s = 3.5 + 0.01
        max_norm = max(p.hs_norm(i, s) for i in range(p.n_steps + 1))
        r1 = stopping_time(p, L=0.5 * max_norm, alpha=0.02, gamma=0.01)
        r2 = stopping_time(p, L=0.9 * max_norm, alpha=0.02, gamma=0.01)
        assert r1.value <= r2.value


class TestItoIntegral:
    def test_zero_integrand(self):
        p = sample_path(SPEC, 0.02, 0.5, seed=10)
        u = from_grid(np.zeros((3,) + (GRID.n,) * 3), GRID, "vector3")
        assert np.all(ito_integral(u, p) == 0.0)

    def test_constant_integrand_telescopes(self):
        p = sample_path(SPEC, 0.02, 0.5, seed=11)
        u = p.field_at(5, GRID)  # arbitrary fixed field
        run = ito_integral(u, p)
        # telescoping: integral at t equals <u, B(t)>
        for i in (3, 10, p.n_steps):
            B = p.field_at(i, GRID)
            assert run[i] == pytest.approx(inner(u, B), rel=1e-10, abs=1e-12)

    def test_ito_isometry(self):
        spec = SpectrumSpec(p=4.0, scale=1.0, k_max=1)
        rng = np.random.default_rng(0)
        u = from_grid(rng.standard_normal((3,) + (GRID.n,) * 3), GRID,
                      "vector3")
        t, dt = 0.5, 0.02
        vals = []
        for seed in range(200):
            p = sample_path(spec, dt, t, seed=seed)
            vals.append(ito_integral(u, p)[-1] ** 2)
        vals = np.array(vals)
        p0 = sample_path(spec, dt, t, seed=0)
        proj = p0.project(u)
        target = float(np.sum(spec.eigenvalues() * proj**2) * t)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - target) < 3 * se

    def test_time_grid_mismatch(self):
        p = sample_path(SPEC, 0.02, 0.5, seed=12)
        u = p.field_at(0, GRID)
        with pytest.raises(ValueError, match="time grid"):
            ito_integral([u] * 3, p)


class TestLowpass:
    def test_projects_high_modes(self):
        spec = SpectrumSpec(p=2.0, scale=1.0, k_max=2)
        p = sample_path(spec, 0.02, 0.5, seed=13)
        z = LowpassPath(p, cutoff=1.0)
        f = z.field_at(10, GRID)
        for mode in spec.modes:
            ksq = sum(v * v for v in mode.k)
            if ksq > 1:
                assert np.abs(f.get_mode(mode.k)).max() < 1e-14
