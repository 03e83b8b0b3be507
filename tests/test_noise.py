import dataclasses
import itertools
import re

import numpy as np
import pytest

from cilab import GridSpec
from cilab.fields import (c0_norm, differential, from_grid, inner, to_grid,
                          zeros)
from cilab.noise import (_BLOCK, MollifiedPath, SpectrumSpec,
                         StoppingTimeResult, ito_integral, sample_path,
                         stopping_time, trace)

GRID = GridSpec(16)
SPEC = SpectrumSpec(p=6.0, scale=1.0, k_max=2)


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _assemble_loop(path, weights, grid):
    """Reference field assembly: one get_mode/set_mode per mode."""
    f = zeros(grid, "vector3")
    for w, k, stamp in zip(weights, path.spec.k, path.spec.stamps):
        if w != 0.0:
            f.set_mode(k, f.get_mode(k) + w * stamp)
    return f


def _project_loop(path, u):
    return np.array([2.0 * np.real(u.get_mode(k) @ np.conj(stamp))
                     for k, stamp in zip(path.spec.k, path.spec.stamps)])


def _hs_norm(path, i, s):
    """H^s norm of B(t_i): the basis diagonalizes (I - Lap)."""
    mult = (1.0 + 4.0 * np.pi**2 * path.spec.k_squared()) ** s
    return float(np.sqrt(np.sum(path.spec.eigenvalues() * path.beta[:, i]**2
                                * mult)))


def _running_norm(path, alpha, gamma, kind):
    """Reference for the stopping time: a scalar scan, sample by sample and
    dyadic gap by dyadic gap, of the running maximum of the path norm."""
    s = 3.5 + gamma if kind == "holder" else 2.5 + gamma
    c = path.spec.eigenvalues()
    mult = (1.0 + 4.0 * np.pi**2 * path.spec.k_squared()) ** s
    running, out = 0.0, []
    for i in range(path.n_steps + 1):
        running = max(running, _hs_norm(path, i, s))
        g = 1
        while kind == "holder" and g <= i:
            db = path.beta[:, i] - path.beta[:, i - g]
            dn = float(np.sqrt(np.sum(c * db**2 * mult)))
            running = max(running, dn / (g * path.dt) ** (0.5 - alpha))
            g *= 2
        out.append(running)
    return np.array(out)


def _stopping_scan(path, L, alpha, running):
    hit = np.flatnonzero(running >= L)
    if hit.size:
        t = float(path.times[hit[0]])
        trig = "norm_threshold" if t < L else "horizon_cap"
        return StoppingTimeResult(min(t, L), trig, L, alpha, True)
    if path.horizon < L:
        return StoppingTimeResult(path.horizon, "horizon_cap", L, alpha, False)
    return StoppingTimeResult(L, "horizon_cap", L, alpha, True)


class TestSpectrum:
    def test_basis_orthonormal(self):
        # Gram matrix from the coefficient stamps: single-frequency fields,
        # so distinct frequencies are exactly orthogonal
        k, st = SPEC.k, SPEC.stamps
        same = np.all(k[:, None] == k[None], axis=2)
        gram = np.where(same, 2.0 * np.real(st @ np.conj(st).T), 0.0)
        assert np.max(np.abs(gram - np.eye(len(k)))) < 1e-10

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
        # six modes, all at |k|^2 = 1 with c = (1 + 1)^-1 = 0.5
        one = SpectrumSpec(p=1.0, scale=1.0, k_max=1)
        assert np.array_equal(one.eigenvalues(), [0.5] * 6)
        assert trace(one, 0.0) == 3.0

    def test_trace_monotone_in_s(self):
        assert trace(SPEC, 0.0) <= trace(SPEC, 1.0) <= trace(SPEC, 2.0)

    # unchecked, a path's mode roots sqrt(c_k) are nan, inf or all 0
    @pytest.mark.parametrize("name, value", [
        ("scale", 0.0), ("scale", -1.0), ("scale", np.nan),
        ("scale", np.inf), ("p", np.nan), ("p", np.inf), ("p", -np.inf),
        ("p", -1000.0)])
    def test_rejects_a_spectrum_without_finite_roots(self, name, value):
        with pytest.raises(ValueError, match=f"^{name}="):
            SpectrumSpec(**{name: value})

    # unchecked, k_max = 1.5 builds 8 modes with non-integer wavevectors
    @pytest.mark.parametrize("k_max", [0, -2, 1.5, 2.0, True])
    def test_rejects_k_max_not_a_positive_integer(self, k_max):
        with pytest.raises(ValueError, match=re.escape(f"k_max={k_max!r} ")):
            SpectrumSpec(k_max=k_max)


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
        # row 0 is keyed by (seed, 0): bitwise the path of mode 0 alone
        spec = SpectrumSpec(p=2.0, scale=1.0, k_max=1)
        t_idx, dt = 8, 0.05
        t = t_idx * dt
        c = spec.c[0]
        vals = [sample_path(spec, dt, t, seed=s).beta[0, t_idx] ** 2 * c
                for s in range(300)]
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - c * t) < 3 * se

    # unchecked, NaN or an infinite horizon fails in the count of steps
    @pytest.mark.parametrize("dt, horizon, name", [
        (np.nan, 1.0, "dt"), (np.inf, 1.0, "dt"), (0.01, np.nan, "horizon"),
        (0.01, np.inf, "horizon")])
    def test_rejects_not_finite(self, dt, horizon, name):
        with pytest.raises(ValueError, match=f"^{name}=.* not finite"):
            sample_path(SPEC, dt, horizon, seed=1)

    # unchecked, 1.5, True and "3" give the paths of seeds 1, 1 and 3; -1
    # and 2**64 - 1 draw through an invalid cast; 2**64 overflows
    @pytest.mark.parametrize("seed", [1.5, True, "3", -1, 2**64 - 1, 2**64])
    def test_rejects_seed_not_a_key(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed={seed!r} ")):
            sample_path(SPEC, 0.05, 0.2, seed=seed)

    def test_accepts_integer_seeds_below_2_63(self):
        top = sample_path(SPEC, 0.05, 0.2, seed=2**63 - 1)
        assert top.seed == 2**63 - 1 and np.all(np.isfinite(top.beta))
        for seed in (np.int64(3), np.uint64(3)):
            assert np.array_equal(sample_path(SPEC, 0.05, 0.2, seed).beta,
                                  sample_path(SPEC, 0.05, 0.2, 3).beta)


class TestSampleIndex:
    """An index off 0..n_steps raises, at either end: numpy would wrap a
    negative one to a sample from the end of the path."""

    PATH = sample_path(SPEC, 0.01, 0.2, seed=5)

    @pytest.mark.parametrize("i", [-1, -20, 21])
    @pytest.mark.parametrize("which", ["B", "z", "dz"])
    def test_field_at_rejects(self, which, i):
        z = MollifiedPath(self.PATH, 0.05)
        at = {"B": self.PATH.field_at, "z": z.field_at,
              "dz": z.dfield_at}[which]
        with pytest.raises(ValueError, match=rf"index {i} outside 0\.\.20"):
            at(i, GRID)

    def test_ends_are_samples(self):
        p = self.PATH
        z = MollifiedPath(p, 0.05)
        for i in (0, p.n_steps):
            for at, rows in ((p.field_at, p.beta), (z.field_at, z.beta_z),
                             (z.dfield_at, z.dbeta_z)):
                assert np.array_equal(at(i, GRID).coeffs,
                                      p._assemble(p._roots * rows[:, i],
                                                  GRID).coeffs)

    def test_index_of_rejects_times_off_the_path(self):
        p = self.PATH
        assert p.index_of(0.0) == 0 and p.index_of(p.horizon) == p.n_steps
        for t in (-p.dt, p.horizon + p.dt):
            with pytest.raises(ValueError, match="outside 0..20"):
                p.index_of(t)
        # unchecked, NaN and +-inf raise a foreign ValueError or an
        # OverflowError in the rounding
        for t in (np.nan, np.inf, -np.inf, 1e308):
            with pytest.raises(ValueError, match=re.escape(
                    f"t={t} is off the path [0, {p.horizon}]")):
                p.index_of(t)


def _spectrum_loop(p, scale, k_max):
    """Reference spectrum: one frame per wavevector, vector by vector, and
    the stamp of each mode from its own direction."""
    out = []
    for k in itertools.product(range(-k_max, k_max + 1), repeat=3):
        nonzero = [x for x in k if x != 0]
        if not nonzero or nonzero[0] < 0 or sum(x * x for x in k) > k_max**2:
            continue   # k = 0, the -k of a kept pair, or outside the ball
        kv = np.array(k, dtype=float)
        khat = kv / np.linalg.norm(kv)
        e = np.zeros(3)
        e[int(np.argmin(np.abs(khat)))] = 1.0
        a = np.cross(khat, e)
        a /= np.linalg.norm(a)
        b = np.cross(khat, a)
        c = scale * (1.0 + float(kv @ kv)) ** (-p)
        out.append((k, c, (a / np.sqrt(2.0)).astype(complex)))
        out.append((k, c, -1j * b / np.sqrt(2.0)))
    return out


class TestSpectrumBatch:
    @pytest.mark.parametrize("p, scale, k_max", [
        (6.0, 1.0, 1), (6.0, 1.0, 2), (6.0, 1.0, 3), (6.0, 1.0, 4),
        (6.0, 0.0075, 4)])   # the last is the benchmark spectrum
    def test_matches_frame_loop(self, p, scale, k_max):
        spec = SpectrumSpec(p=p, scale=scale, k_max=k_max)
        ref = _spectrum_loop(p, scale, k_max)
        assert spec.k.dtype == np.int64
        assert spec.k.tolist() == [list(r[0]) for r in ref]
        assert np.array_equal(spec.c, [r[1] for r in ref])
        assert np.array_equal(spec.eigenvalues(), spec.c)
        assert np.array_equal(spec.k_squared(),
                              [sum(x * x for x in r[0]) for r in ref])
        # bit for bit, signs of zeros included
        stamps = np.array([r[2] for r in ref])
        assert np.array_equal(spec.stamps.view(np.uint64),
                              stamps.view(np.uint64))

    def test_frozen_value_whose_arrays_a_path_reads(self):
        spec = SpectrumSpec(p=6.0, scale=1.0, k_max=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.p = 5.0
        for rows in (spec.k, spec.c, spec.stamps, spec.eigenvalues()):
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = 0
        same, other = SpectrumSpec(6.0, 1.0, 2), SpectrumSpec(6.0, 1.0, 3)
        assert spec == same and hash(spec) == hash(same) and spec != other
        # a path keeps no copy of the wavevectors, eigenvalues or stamps:
        # its per-mode arrays are its samples and sqrt(c)
        path = sample_path(spec, 0.05, 0.5, seed=8)
        assert path.spec is spec
        assert {name for name, value in vars(path).items()
                if isinstance(value, np.ndarray)
                and len(value) == spec.n_modes} == {"increments", "beta",
                                                    "_roots"}
        assert np.array_equal(path._roots, np.sqrt(spec.c))


class TestKeyedStreams:
    @pytest.mark.parametrize("seed", [5, 2**40 + 17])
    def test_matches_one_generator_per_mode(self, seed):
        dt, horizon = 0.01, 0.37
        path = sample_path(SPEC, dt, horizon, seed)
        incr = np.array([
            np.random.Generator(np.random.Philox(key=[seed, m]))
            .standard_normal(path.n_steps) * np.sqrt(dt)
            for m in range(SPEC.n_modes)])
        assert np.array_equal(path.increments, incr)
        beta = np.concatenate([np.zeros((SPEC.n_modes, 1)),
                               np.cumsum(incr, axis=1)], axis=1)
        assert np.array_equal(path.beta, beta)

    def test_row_depends_on_seed_and_mode_only(self):
        # the 6 modes of k_max = 1 are the first 6 rows of k_max = 2
        whole = sample_path(SPEC, 0.01, 0.3, seed=12)
        head = sample_path(SpectrumSpec(p=6.0, scale=1.0, k_max=1), 0.01, 0.3,
                           seed=12)
        assert head.spec.n_modes == 6
        assert np.array_equal(head.increments, whole.increments[:6])
        assert np.array_equal(head.beta, whole.beta[:6])

    def test_shorter_path_is_a_prefix(self):
        long = sample_path(SPEC, 1e-3, 1.0, seed=13)
        short = sample_path(SPEC, 1e-3, 0.5, seed=13)
        assert (short.n_steps, long.n_steps) == (500, 1000)
        assert np.array_equal(short.increments, long.increments[:, :500])
        assert np.array_equal(short.beta, long.beta[:, :501])


class TestModeAssembly:
    def test_field_at_matches_mode_loop(self):
        p = sample_path(SpectrumSpec(p=6.0, scale=1.0, k_max=4), 0.01, 0.2,
                        seed=14)
        roots = np.sqrt(p.spec.eigenvalues())
        for i in (0, 1, 9, p.n_steps):
            ref = _assemble_loop(p, roots * p.beta[:, i], GRID)
            assert np.array_equal(p.field_at(i, GRID).coeffs, ref.coeffs)
        z = MollifiedPath(p, 0.05)
        ref = _assemble_loop(p, roots * z.dbeta_z[:, 12], GridSpec(32))
        assert np.array_equal(z.dfield_at(12, GridSpec(32)).coeffs,
                              ref.coeffs)

    def test_field_at_matches_mode_loop_at_n64(self):
        # the grid of the drift in a 64^3 Euler solve, 256 modes
        p = sample_path(SpectrumSpec(p=6.0, scale=0.0075, k_max=4), 0.01,
                        0.2, seed=21)
        z = MollifiedPath(p, 0.05)
        roots, g = np.sqrt(p.spec.eigenvalues()), GridSpec(64)
        for i in (3, p.n_steps):
            for got, w in ((p.field_at(i, g), p.beta[:, i]),
                           (z.field_at(i, g), z.beta_z[:, i]),
                           (z.dfield_at(i, g), z.dbeta_z[:, i])):
                ref = _assemble_loop(p, roots * w, g)
                assert np.array_equal(got.coeffs, ref.coeffs)

    @pytest.mark.parametrize("k,pol", [((1, 1, -1), 1), ((1, -1, 0), 2)])
    def test_single_mode_field_matches_mode_loop(self, k, pol):
        # rows 2j and 2j + 1: the cosine and sine branch of wavevector j
        j = SPEC.k[::2].tolist().index(list(k))
        m = 2 * j + pol - 1
        p = sample_path(SPEC, 0.01, 0.1, seed=22)
        z = MollifiedPath(p, 0.05)
        roots = np.sqrt(p.spec.eigenvalues())
        for rows, i in ((p.beta, 7), (z.beta_z, 9), (z.dbeta_z, 9)):
            w = np.zeros(SPEC.n_modes)
            w[m] = roots[m] * rows[m, i]
            got = p._assemble(w, GRID)
            assert np.array_equal(got.coeffs,
                                  _assemble_loop(p, w, GRID).coeffs)
            assert np.any(got.coeffs != 0)

    def test_rejects_grid_too_coarse_for_the_spectrum(self):
        p = sample_path(SpectrumSpec(p=6.0, scale=1.0, k_max=4), 0.01, 0.1,
                        seed=16)
        with pytest.raises(ValueError, match="half-spectrum"):
            p.field_at(0, GridSpec(8))


class TestMollified:
    def test_matches_tap_loop(self):
        p = sample_path(SPEC, 0.01, 1.0, seed=17)
        z = MollifiedPath(p, 0.23)
        ref_z, ref_dz = np.zeros_like(p.beta), np.zeros_like(p.beta)
        for lag, (w, dw) in enumerate(zip(z.weights, z.dweights), 1):
            ref_z[:, lag:] += w * p.beta[:, :-lag]
            ref_dz[:, lag:] += dw * p.beta[:, :-lag]
        assert _rel(z.beta_z, ref_z) < 1e-13
        assert _rel(z.dbeta_z, ref_dz) < 1e-13

    def test_zero_at_time_zero(self):
        p = sample_path(SPEC, 0.01, 1.0, seed=3)
        z = MollifiedPath(p, 0.1)
        assert np.all(z.beta_z[:, 0] == 0.0)

    def test_rejects_under_resolved(self):
        p = sample_path(SPEC, 0.1, 1.0, seed=3)
        with pytest.raises(ValueError, match="under-resolved"):
            MollifiedPath(p, 0.15)

    def test_rejects_kernel_wider_than_path(self):
        p = sample_path(SpectrumSpec(p=6, scale=0.0075, k_max=4), 1e-3,
                        0.064, seed=7)
        with pytest.raises(ValueError, match="iota.*path.horizon"):
            MollifiedPath(p, 1.0)

    # unchecked, NaN fails in the count of taps
    @pytest.mark.parametrize("iota", [np.nan, np.inf, -np.inf])
    def test_rejects_iota_not_finite(self, iota):
        p = sample_path(SPEC, 0.01, 1.0, seed=3)
        with pytest.raises(ValueError, match="^iota=.* not finite"):
            MollifiedPath(p, iota)

    def test_adapted(self):
        # values at time <= t_i are unchanged by perturbing the future
        p1 = sample_path(SPEC, 0.01, 1.0, seed=4)
        p2 = sample_path(SPEC, 0.01, 1.0, seed=4)
        cut = 50
        p2.beta[:, cut + 1:] += 7.0
        z1 = MollifiedPath(p1, 0.1)
        z2 = MollifiedPath(p2, 0.1)
        assert np.array_equal(z1.beta_z[:, :cut + 1], z2.beta_z[:, :cut + 1])

    @pytest.mark.parametrize("where", ["block_start", "mid_block", "last"])
    def test_adapted_across_block_edges(self, where):
        # more than 3 output blocks and a kernel longer than a block, so a
        # block reads samples of the block before it
        dt = 0.01
        p1 = sample_path(SPEC, dt, 4 * _BLOCK * dt, seed=21)
        p2 = sample_path(SPEC, dt, 4 * _BLOCK * dt, seed=21)
        iota = 1.5 * _BLOCK * dt
        cut = {"block_start": 1 + 2 * _BLOCK,
               "mid_block": 1 + 2 * _BLOCK + _BLOCK // 2,
               "last": p1.n_steps}[where]
        p2.beta[:, cut:] += 7.0
        z1, z2 = MollifiedPath(p1, iota), MollifiedPath(p2, iota)
        assert len(z1.weights) > _BLOCK
        assert np.array_equal(z1.beta_z[:, :cut + 1], z2.beta_z[:, :cut + 1])
        assert np.array_equal(z1.dbeta_z[:, :cut + 1],
                              z2.dbeta_z[:, :cut + 1])
        if cut < p1.n_steps:   # the perturbation reaches the later values
            assert not np.array_equal(z1.beta_z[:, cut + 1:],
                                      z2.beta_z[:, cut + 1:])

    def test_independent_of_the_horizon(self):
        # same seed, two horizons: z on the shared samples is the same,
        # whether the shorter path ends at a block edge or inside a block.
        # A 750-sample kernel makes the block products long enough for the
        # BLAS to split their inner dimension into panels
        dt, iota = 1e-3, 0.75
        long = sample_path(SPEC, dt, 1.0, seed=22)
        z_long = MollifiedPath(long, iota)
        for steps in (25 * _BLOCK, 25 * _BLOCK + 5):
            short = sample_path(SPEC, dt, steps * dt, seed=22)
            n1 = short.n_steps + 1
            assert np.array_equal(short.beta, long.beta[:, :n1])
            z = MollifiedPath(short, iota)
            assert np.array_equal(z.beta_z, z_long.beta_z[:, :n1])
            assert np.array_equal(z.dbeta_z, z_long.dbeta_z[:, :n1])

    def test_derivative_matches_finite_differences(self):
        # oracle: replace the Brownian coordinates by smooth functions and
        # compare the analytic kernel-derivative weights to central FD of z
        p = sample_path(SPEC, 1e-3, 1.0, seed=5)
        tt = p.times
        for m in range(p.spec.n_modes):
            p.beta[m] = np.sin(3.0 * tt + 0.37 * m) + 0.5 * tt
        z = MollifiedPath(p, 0.128)
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
            z = MollifiedPath(p, iota)
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
        max_norm = max(_hs_norm(p, i, s) for i in range(p.n_steps + 1))
        res = stopping_time(p, L=0.9 * max_norm, alpha=0.02, gamma=0.01)
        assert res.triggered_by == "norm_threshold"
        assert 0.0 < res.value < p.horizon

    def test_monotone_in_threshold(self):
        p = sample_path(SPEC, 0.01, 1.0, seed=9)
        s = 3.5 + 0.01
        max_norm = max(_hs_norm(p, i, s) for i in range(p.n_steps + 1))
        r1 = stopping_time(p, L=0.5 * max_norm, alpha=0.02, gamma=0.01)
        r2 = stopping_time(p, L=0.9 * max_norm, alpha=0.02, gamma=0.01)
        assert r1.value <= r2.value

    @pytest.mark.parametrize("kind", ["holder", "sup"])
    def test_matches_scalar_scan(self, kind):
        p = sample_path(SPEC, 0.01, 0.6, seed=18)
        running = _running_norm(p, 0.1, 0.01, kind)
        rises = np.flatnonzero(running[1:] > running[:-1]) + 1
        # exactly the running norm where it rises, and one ulp above it,
        # so a norm one ulp off moves the stopping time; then the cap
        thresholds = [f(running[j]) for j in rises
                      for f in (float, lambda v: np.nextafter(v, np.inf))]
        got = [stopping_time(p, L, 0.1, 0.01, kind=kind)
               for L in thresholds + [1e9]]
        assert got == [_stopping_scan(p, L, 0.1, running)
                       for L in thresholds + [1e9]]
        assert [r.value for r in got[:-2:2]] == list(p.times[rises])
        assert got[0].triggered_by == "norm_threshold"
        assert got[-1].triggered_by == "horizon_cap"

    # unchecked, these give a certified NaN stopping time, a
    # ZeroDivisionError, a stop at t = 0 and an uncertified horizon cap
    @pytest.mark.parametrize("L, sobolev_constant, name", [
        (np.nan, 1.0, "L"), (1.0, 0.0, "sobolev_constant"),
        (1.0, -1.0, "sobolev_constant"), (1.0, np.nan, "sobolev_constant")])
    def test_rejects_threshold_not_positive_and_finite(self, L,
                                                       sobolev_constant, name):
        p = sample_path(SPEC, 0.01, 0.2, seed=19)
        with pytest.raises(ValueError, match=f"^{name}="):
            stopping_time(p, L, 0.1, 0.01, sobolev_constant=sobolev_constant)

    # unchecked, NaN and -inf give a certified stop at the horizon cap L,
    # where gamma = 0 stops at t = 0.01, and inf an infinite norm
    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["holder", "sup"])
    def test_rejects_gamma_not_finite(self, gamma, kind):
        p = sample_path(SPEC, 1e-2, 1.0, seed=7)
        assert stopping_time(p, 0.5, 0.1, 0.0, kind=kind).value < 0.5
        with pytest.raises(ValueError, match="^gamma="):
            stopping_time(p, 0.5, 0.1, gamma, kind=kind)


class TestItoIntegral:
    def test_matches_step_loop(self):
        p = sample_path(SPEC, 0.02, 0.4, seed=19)
        fields = [p.field_at(j, GRID) for j in range(p.n_steps + 1)]
        roots = np.sqrt(p.spec.eigenvalues())
        fixed = _project_loop(p, fields[3])
        ref, ref_fixed = np.zeros(p.n_steps + 1), np.zeros(p.n_steps + 1)
        for j in range(p.n_steps):
            step = roots * p.increments[:, j]
            ref[j + 1] = ref[j] + np.sum(step * _project_loop(p, fields[j]))
            ref_fixed[j + 1] = ref_fixed[j] + np.sum(step * fixed)
        assert _rel(ito_integral(fields, p), ref) < 1e-14
        assert _rel(ito_integral([fields[3]] * (p.n_steps + 1), p),
                    ref_fixed) < 1e-14

    def test_zero_integrand(self):
        p = sample_path(SPEC, 0.02, 0.5, seed=10)
        u = from_grid(np.zeros((3,) + (GRID.n,) * 3), GRID, "vector3")
        assert np.all(ito_integral([u] * (p.n_steps + 1), p) == 0.0)

    def test_constant_integrand_telescopes(self):
        p = sample_path(SPEC, 0.02, 0.5, seed=11)
        u = p.field_at(5, GRID)  # arbitrary fixed field
        run = ito_integral([u] * (p.n_steps + 1), p)
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
            vals.append(ito_integral([u] * (p.n_steps + 1), p)[-1] ** 2)
        vals = np.array(vals)
        proj = _project_loop(sample_path(spec, dt, t, seed=0), u)
        target = float(np.sum(spec.eigenvalues() * proj**2) * t)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - target) < 3 * se

    def test_time_grid_mismatch(self):
        p = sample_path(SPEC, 0.02, 0.5, seed=12)
        u = p.field_at(0, GRID)
        with pytest.raises(ValueError, match="time grid"):
            ito_integral([u] * 3, p)
