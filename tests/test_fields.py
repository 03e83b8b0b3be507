import struct

import numpy as np
import pytest

from cilab import (
    GridSpec, band_project, differential, from_grid,
    inverse_divergence, leray_project, load_field, mollify_space, save_field,
    to_grid,
)
from cilab.fields import (
    SYM_SLOT, SYM_WEIGHT, ModeTable, c0_norm, dealias, divergence_defect,
    inner, l2_norm, mollifier_multiplier, zeros,
)

GRID = GridSpec(32)


def _grid_derivative(samples, axis):
    """d/dx_axis of real samples by numpy's FFT, Nyquist mode dropped."""
    n = samples.shape[axis]
    k = np.fft.fftfreq(n, 1.0 / n)
    k[n // 2] = 0.0
    shape = [1, 1, 1]
    shape[axis] = n
    d = np.fft.ifft(2j * np.pi * k.reshape(shape)
                    * np.fft.fft(samples, axis=axis), axis=axis)
    return d.real


def random_band_limited(grid, rank, kmax, seed, mean_zero=False, div_free=False):
    rng = np.random.default_rng(seed)
    n = grid.n
    ncomp = {"scalar": 1, "vector3": 3, "symtensor3x3": 6}[rank]
    raw = rng.standard_normal((ncomp, n, n, n))
    f = from_grid(raw, grid, rank, mean_zero=mean_zero)
    f = band_project(f, "leq", kmax)
    if mean_zero:
        f.coeffs[:, 0, 0, 0] = 0.0
    if div_free:
        f = leray_project(f)
    return f


def _white_vector(n, seed):
    """Vector field of unit white grid samples: not band-limited."""
    raw = np.random.default_rng(seed).standard_normal((3, n, n, n))
    return from_grid(raw, GridSpec(n), "vector3")


class TestTransforms:
    def test_zero_field_round_trip(self):
        f = zeros(GRID, "scalar")
        assert np.all(to_grid(f) == 0.0)

    def test_in_place_edit_reaches_the_grid(self):
        raw = np.random.default_rng(20).standard_normal((8, 8, 8)) + 5.0
        f = from_grid(raw, GridSpec(8), "scalar")
        f.coeffs[0, 0, 0, 0] = 0.0
        assert abs(to_grid(f).mean()) < 1e-14

    def test_single_mode_coefficients(self):
        x = GRID.mesh()[0]
        f = from_grid(np.sin(2 * np.pi * x), GRID, "scalar")
        assert f.get_mode((1, 0, 0))[0] == pytest.approx(-0.5j, abs=1e-14)
        assert f.get_mode((-1, 0, 0))[0] == pytest.approx(0.5j, abs=1e-14)
        others = f.coeffs.copy()
        others[0, 1, 0, 0] = 0.0
        others[0, -1, 0, 0] = 0.0  # conjugate slot on the kz=0 plane
        assert np.max(np.abs(others)) < 1e-14

    def test_round_trip_band_limited(self):
        f = random_band_limited(GRID, "vector3", 10, seed=1)
        g = to_grid(f)
        f2 = from_grid(g, GRID, "vector3")
        assert np.max(np.abs(f2.coeffs - f.coeffs)) < 1e-12

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            from_grid(np.zeros((3, 16, 16, 16)), GRID, "vector3")


def _full_spectrum(c):
    """The whole lattice of coefficients from the stored half: the columns
    k_z > n/2 are the conjugates of the stored modes at -k."""
    n = c.shape[1]
    full = np.empty(c.shape[:3] + (n,), dtype=complex)
    full[..., :n // 2 + 1] = c
    neg = -np.arange(n) % n
    for kz in range(n // 2 + 1, n):
        full[..., kz] = np.conj(c[:, neg][:, :, neg][..., n - kz])
    return full


class TestInner:
    @pytest.mark.parametrize("rank,ncomp",
                             [("scalar", 1), ("vector3", 3),
                              ("symtensor3x3", 6)])
    def test_matches_sum_over_the_full_lattice(self, rank, ncomp):
        grid = GridSpec(8)
        rng = np.random.default_rng(ncomp)
        f, g = (from_grid(rng.standard_normal((ncomp, 8, 8, 8)), grid, rank)
                for _ in range(2))
        # white fields: the columns k_z = 0 and n/2 hold modes too
        for h in (f, g):
            assert np.all(h.coeffs[..., [0, 4]].real != 0)
        weight = SYM_WEIGHT if rank == "symtensor3x3" else np.ones(ncomp)
        full_f, full_g = _full_spectrum(f.coeffs), _full_spectrum(g.coeffs)
        ref = sum(weight[c] * np.sum(full_f[c] * np.conj(full_g[c])).real
                  for c in range(ncomp))
        assert inner(f, g) == pytest.approx(ref, rel=1e-14)
        # and the full lattice is the grid's spectrum
        samples = to_grid(f).reshape(ncomp, 8, 8, 8)
        assert np.allclose(full_f, np.fft.fftn(samples, axes=(1, 2, 3),
                                               norm="forward"), atol=1e-14)


class TestDifferential:
    def test_grad_of_constant(self):
        f = zeros(GRID, "scalar")
        f.coeffs[0, 0, 0, 0] = 3.7
        g = differential(f, "grad")
        assert c0_norm(g) == 0.0

    def test_div_curl_identity(self):
        v = random_band_limited(GRID, "vector3", 8, seed=3)
        dcv = differential(differential(v, "curl"), "div")
        assert c0_norm(dcv) < 1e-12 * max(c0_norm(v), 1.0)

    def test_curl_of_shear(self):
        # v = (sin 2 pi x2, 0, 0) has curl (0, 0, -2 pi cos 2 pi x2)
        y = GRID.mesh()[1]
        v = from_grid(np.stack([np.sin(2 * np.pi * y), 0 * y, 0 * y]),
                      GRID, "vector3")
        c = to_grid(differential(v, "curl"))
        expected = -2 * np.pi * np.cos(2 * np.pi * y)
        assert np.max(np.abs(c[2] - expected)) < 1e-12 * 2 * np.pi
        assert np.max(np.abs(c[:2])) < 1e-12

    def test_grad_along_a_nyquist_plane(self):
        # d/dx_j is 0 on the plane k_j = n/2 only: f alternates in x, so
        # df/dx is 0 on the grid while df/dy is exact
        x, y = GRID.mesh()[:2]
        alt = np.cos(np.pi * GRID.n * x)
        f = from_grid(alt * np.sin(2 * np.pi * y), GRID, "scalar")
        g = to_grid(differential(f, "grad"))
        expected = 2 * np.pi * alt * np.cos(2 * np.pi * y)
        assert np.max(np.abs(g[1] - expected)) < 1e-12 * 2 * np.pi
        assert np.max(np.abs(g[[0, 2]])) < 1e-12

    def test_curl_grad_is_zero(self):
        f = random_band_limited(GRID, "scalar", 8, seed=4)
        cg = differential(differential(f, "grad"), "curl")
        assert c0_norm(cg) < 1e-12 * max(c0_norm(f), 1.0)


class TestLeray:
    def test_kills_gradients(self):
        p = random_band_limited(GRID, "scalar", 9, seed=5)
        g = differential(p, "grad")
        assert c0_norm(leray_project(g)) < 1e-12 * max(c0_norm(g), 1.0)

    def test_fixes_div_free(self):
        v = random_band_limited(GRID, "vector3", 9, seed=6, div_free=True)
        pv = leray_project(v)
        assert np.max(np.abs(pv.coeffs - v.coeffs)) < 1e-12

    def test_idempotent(self):
        v = random_band_limited(GRID, "vector3", 9, seed=7)
        p1 = leray_project(v)
        p2 = leray_project(p1)
        assert np.max(np.abs(to_grid(p2) - to_grid(p1))) < 1e-12

    def test_single_mode_gradient_field(self):
        x = GRID.mesh()[0]
        v = from_grid(np.stack([np.sin(2 * np.pi * x), 0 * x, 0 * x]),
                      GRID, "vector3")
        assert c0_norm(leray_project(v)) < 1e-13

    def test_mean_passes_through(self):
        v = zeros(GRID, "vector3")
        v.coeffs[:, 0, 0, 0] = [1.0, 2.0, 3.0]
        pv = leray_project(v)
        assert np.allclose(pv.coeffs[:, 0, 0, 0], [1.0, 2.0, 3.0])

    def test_exact_on_nyquist_planes(self):
        # white samples have modes on the Nyquist planes
        v = _white_vector(16, seed=22)
        pv = leray_project(v)
        assert pv.hermitian_defect() <= 1e-15
        assert np.max(np.abs(leray_project(pv).coeffs - pv.coeffs)) < 1e-15
        assert divergence_defect(pv) < 1e-13


class TestInverseDivergence:
    def test_right_inverse(self):
        v = random_band_limited(GRID, "vector3", 9, seed=9, mean_zero=True)
        r = inverse_divergence(v)
        err = c0_norm(differential(r, "div") - v)
        assert err < 1e-10 * c0_norm(v)

    def test_trace_free_on_the_grid(self):
        v = random_band_limited(GRID, "vector3", 9, seed=10, mean_zero=True)
        r = inverse_divergence(v)
        s = to_grid(r)
        trace = s[SYM_SLOT[(0, 0)]] + s[SYM_SLOT[(1, 1)]] + s[SYM_SLOT[(2, 2)]]
        assert np.max(np.abs(trace)) < 1e-12 * max(c0_norm(r), 1.0)

    def test_zero(self):
        r = inverse_divergence(zeros(GRID, "vector3"))
        assert c0_norm(r) == 0.0

    def test_right_inverse_of_div_off_band(self):
        # T from samples that are not band-limited has Nyquist-plane modes;
        # the grid divergence of R(div T) must still be div T
        raw = np.random.default_rng(21).standard_normal((6, 16, 16, 16))
        target = differential(from_grid(raw, GridSpec(16), "symtensor3x3"),
                              "div")
        r = to_grid(inverse_divergence(target))
        full = [[r[SYM_SLOT[(i, j)]] for j in range(3)] for i in range(3)]
        div = np.stack([sum(_grid_derivative(full[i][j], j) for j in range(3))
                        for i in range(3)])
        rhs = to_grid(target)
        assert np.max(np.abs(div - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_mean_removed_automatically(self):
        v = random_band_limited(GRID, "vector3", 6, seed=11)
        v.coeffs[:, 0, 0, 0] = [1.0, -2.0, 0.5]
        r = inverse_divergence(v)
        w = v.copy()
        w.coeffs[:, 0, 0, 0] = 0.0
        assert c0_norm(differential(r, "div") - w) < 1e-10 * c0_norm(w)

    def test_right_inverse_on_nyquist_planes(self):
        # div R(w) is w without its mean and its 7 all-Nyquist corners,
        # where every derivative vanishes
        v = _white_vector(16, seed=23)
        target = v.coeffs.copy()
        for corner in np.ndindex(2, 2, 2):
            target[(slice(None),) + tuple(8 * np.array(corner))] = 0.0
        div = differential(inverse_divergence(v), "div")
        assert np.max(np.abs(div.coeffs - target)) < 1e-14


class TestBandProject:
    def test_identity_on_band_limited(self):
        f = random_band_limited(GRID, "scalar", 5, seed=12)
        g = band_project(f, "leq", 5)
        assert np.max(np.abs(g.coeffs - f.coeffs)) == 0.0

    def test_partition(self):
        f = random_band_limited(GRID, "vector3", 14, seed=13)
        lo = band_project(f, "leq", 6.5)
        hi = band_project(f, "geq", 6.5)
        assert np.max(np.abs(lo.coeffs + hi.coeffs - f.coeffs)) == 0.0

    def test_kills_high_mode(self):
        x = GRID.mesh()[0]
        f = from_grid(np.sin(4 * np.pi * x), GRID, "scalar")
        assert c0_norm(band_project(f, "leq", 1)) < 1e-14

    def test_clamps_beyond_nyquist(self):
        f = random_band_limited(GRID, "scalar", 10, seed=14)
        with pytest.warns(UserWarning, match="Nyquist"):
            g = band_project(f, "leq", 100.0)
        assert np.max(np.abs(g.coeffs - f.coeffs)) == 0.0


class TestMollify:
    def test_constant_preserved(self):
        f = zeros(GRID, "scalar")
        f.coeffs[0, 0, 0, 0] = 2.5
        g = mollify_space(f, 0.25)
        assert abs(to_grid(g) - 2.5).max() < 1e-12

    def test_commutes_with_differential(self):
        f = random_band_limited(GRID, "scalar", 10, seed=15)
        a = differential(mollify_space(f, 0.1), "grad")
        b = mollify_space(differential(f, "grad"), 0.1)
        assert c0_norm(a - b) < 1e-12 * max(c0_norm(b), 1.0)

    def test_smooths(self):
        f = random_band_limited(GRID, "scalar", 12, seed=16, mean_zero=True)
        g = mollify_space(f, 0.2)
        assert l2_norm(g) < l2_norm(f)

    def test_warns_under_resolved(self):
        f = random_band_limited(GRID, "scalar", 4, seed=17)
        with pytest.warns(UserWarning, match="under-resolved"):
            mollify_space(f, 0.5 / GRID.n)

    def test_rejects_bad_width(self):
        f = zeros(GRID, "scalar")
        with pytest.raises(ValueError):
            mollify_space(f, 1.5)

    def test_multiplier_matches_reference(self):
        from scipy import fft
        n, ell = 16, 0.3
        x = np.arange(n) / n
        d = np.minimum(x, 1.0 - x)
        r2 = (d[:, None, None] ** 2 + d[None, :, None] ** 2
              + d[None, None, :] ** 2) / ell**2
        inside = r2 < 1.0
        kern = np.zeros((n, n, n))
        kern[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        kern *= n**3 / kern.sum()
        ref = fft.rfftn(kern).real / n**3
        assert np.array_equal(mollifier_multiplier(GridSpec(n), ell), ref)


class TestDealias:
    def test_keeps_low_band(self):
        f = random_band_limited(GRID, "scalar", 8, seed=18)
        g = dealias(f)
        assert np.max(np.abs(g.coeffs - f.coeffs)) == 0.0

    def test_removes_corner_modes(self):
        f = zeros(GRID, "scalar")
        f.set_mode((12, 12, 12), [1.0])
        assert c0_norm(dealias(f)) == 0.0


class TestSnapshot:
    @pytest.mark.parametrize("rank", ["scalar", "vector3", "symtensor3x3"])
    def test_file_round_trip_bit_exact(self, rank, tmp_path):
        f = random_band_limited(GRID, rank, 9, seed=19)
        p1 = tmp_path / "a.fld"
        p2 = tmp_path / "b.fld"
        save_field(f, p1)
        g = load_field(p1)
        save_field(g, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert g.rank == rank

    def test_reads_version_1(self, tmp_path):
        # format 1: header, then float64 grid samples, x fastest
        f = random_band_limited(GridSpec(8), "vector3", 3, seed=22)
        samples = to_grid(f)
        header = b"CILABFLD" + struct.pack("<IIBB", 1, 8, 1, 0)
        p = tmp_path / "v1.fld"
        p.write_bytes(header + b"\x00" * (64 - len(header)) + b"".join(
            np.ascontiguousarray(c.T, dtype="<f8").tobytes() for c in samples))
        assert np.array_equal(to_grid(load_field(p)), to_grid(from_grid(
            samples, GridSpec(8), "vector3")))

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "x.fld"
        p.write_bytes(b"NOTAFILE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_field(p)


def _loop_get(coeffs, k):
    """Reference single-mode read: index arithmetic of one wavevector."""
    kx, ky, kz = (int(v) for v in k)
    n = coeffs.shape[1]
    if kz < 0:
        return np.conj(coeffs[:, (-kx) % n, (-ky) % n, -kz])
    return coeffs[:, kx % n, ky % n, kz].copy()


def _loop_set(coeffs, k, values):
    """Reference single-mode write, with the Hermitian partner on k_z = 0."""
    kx, ky, kz = (int(v) for v in k)
    n = coeffs.shape[1]
    values = np.asarray(values, dtype=complex)
    if kz < 0:
        kx, ky, kz, values = -kx, -ky, -kz, np.conj(values)
    coeffs[:, kx % n, ky % n, kz] = values
    if kz == 0 and (kx, ky) != (0, 0):
        coeffs[:, (-kx) % n, (-ky) % n, 0] = np.conj(values)


def _wavevectors(n, count, seed):
    """Random modes with |k_i| < n/2, a third of them on the k_z = 0 plane,
    and repeats, including -k for modes on that plane."""
    rng = np.random.default_rng(seed)
    k = rng.integers(-(n // 2) + 1, n // 2, size=(count, 3))
    k[: count // 3, 2] = 0
    k[~k.any(axis=1)] = (1, 0, 0)
    return np.concatenate([k, k[:5], -k[: count // 3][:5]])


class TestModeTable:
    @pytest.mark.parametrize("n", [16, 32])
    def test_write_plan_matches_mode_loop(self, n):
        grid = GridSpec(n)
        k = _wavevectors(n, 60, seed=n)
        assert (k[:, 2] < 0).any() and (k[:, 2] == 0).any()
        rng = np.random.default_rng(1)
        vals = rng.standard_normal((3, len(k), 2))
        vals = vals[..., 0] + 1j * vals[..., 1]
        w = rng.standard_normal(len(k))
        slots, modes, plan = ModeTable(k, grid).write_plan(vals)
        assert len(modes) == 3     # some slot is written three times
        sums = w[modes[0]] * plan[0]
        for m, v in zip(modes[1:], plan[1:]):
            sums += w[m] * v
        f = zeros(grid, "vector3")
        f.coeffs.reshape(-1)[slots] = sums.ravel()
        ref = zeros(grid, "vector3").coeffs
        for m, km in enumerate(k):
            _loop_set(ref, km, _loop_get(ref, km) + w[m] * vals[:, m])
        assert np.array_equal(f.coeffs, ref)
        assert f.hermitian_defect() == 0.0

    @pytest.mark.parametrize("n", [16, 32])
    def test_gather_matches_mode_loop(self, n):
        grid = GridSpec(n)
        f = random_band_limited(grid, "vector3", n // 2, seed=n)
        k = _wavevectors(n, 60, seed=n + 1)
        got = ModeTable(k, grid).gather(f.coeffs)
        ref = np.stack([_loop_get(f.coeffs, km) for km in k], axis=1)
        assert np.array_equal(got, ref)
        assert np.array_equal(got[:, 7], f.get_mode(k[7]))

    @pytest.mark.parametrize("n", [16, 32])
    def test_scatter_set_matches_set_mode_loop(self, n):
        grid = GridSpec(n)
        k = np.unique(_wavevectors(n, 60, seed=n + 2), axis=0)
        k = k[[tuple(-v) not in set(map(tuple, k)) for v in k]]
        vals = np.random.default_rng(2).standard_normal((3, len(k)))
        f = zeros(grid, "vector3")
        ModeTable(k, grid).scatter_set(f.coeffs, vals * (1 - 0.5j))
        ref = zeros(grid, "vector3")
        for m, km in enumerate(k):
            ref.set_mode(km, vals[:, m] * (1 - 0.5j))
        loop = zeros(grid, "vector3").coeffs
        for m, km in enumerate(k):
            _loop_set(loop, km, vals[:, m] * (1 - 0.5j))
        assert np.array_equal(f.coeffs, loop)
        assert np.array_equal(ref.coeffs, loop)
        assert f.hermitian_defect() == 0.0

    @pytest.mark.parametrize("k", [(8, 0, 0), (0, -8, 1), (1, 2, -8)])
    def test_rejects_mode_beyond_half_grid(self, k):
        with pytest.raises(ValueError, match="half-spectrum"):
            ModeTable([k], GridSpec(16))
        with pytest.raises(ValueError, match="half-spectrum"):
            zeros(GridSpec(16), "scalar").set_mode(k, [1.0])

    def test_set_rejects_shared_slots(self):
        # k and -k on the k_z = 0 plane are one stored coefficient
        table = ModeTable([(1, 2, 0), (-1, -2, 0)], GridSpec(16))
        with pytest.raises(ValueError, match="distinct"):
            table.scatter_set(zeros(GridSpec(16), "scalar").coeffs,
                              [[1.0, 2.0]])


class TestGridSpec:
    def test_rejects_small_or_odd(self):
        with pytest.raises(ValueError):
            GridSpec(6)
        with pytest.raises(ValueError):
            GridSpec(34 + 1)

    def test_nyquist(self):
        assert GridSpec(32).nyquist == 16
