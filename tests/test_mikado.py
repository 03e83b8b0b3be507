import re
import tracemalloc

import numpy as np
import pytest

from cilab import GridSpec
from cilab.fields import SYM_INDEX, c0_norm, differential, to_grid, zeros
from cilab.mikado import (
    _DENOMINATOR, DirectionFamily, _profile_modes, build_direction_family,
    build_family_flows, build_mikado, decomposition_coefficients,
    gamma_coefficients, second_moment, spanning_second_moment,
    support_overlap,
)

FAM0 = build_direction_family(0)
FAM1 = build_direction_family(1)
GRID = GridSpec(64)


def _profile_modes_loop(family, row, lam, grid):
    """Reference for ``_profile_modes``: one (m1, m2) at a time, m1-major,
    on K_A = n_star A and K_B = n_star xi x A for the first zero slot A."""
    numer = family.numerators[row]
    axis = np.zeros(3, dtype=int)
    axis[[i for i in range(3) if numer[i] == 0][0]] = 1
    ka = lam * _DENOMINATOR * axis
    kb = lam * np.cross(numer, axis)
    keep = grid.nyquist - grid.n // 8
    mmax = int(keep // min(np.max(np.abs(ka)), np.max(np.abs(kb))) + 1)
    ks, ms = [], []
    for m1 in range(-mmax, mmax + 1):
        for m2 in range(-mmax, mmax + 1):
            k = m1 * ka + m2 * kb
            if (m1, m2) > (0, 0) and np.max(np.abs(k)) <= keep:
                ks.append(k)
                ms.append((m1, m2))
    return np.array(ks, dtype=np.int64), np.array(ms, dtype=np.int64)


def random_ball_matrix(rng, radius=0.5):
    e = rng.standard_normal((3, 3))
    e = 0.5 * (e + e.T)
    e *= rng.uniform(0, radius) / np.linalg.norm(e)
    return np.eye(3) + e


class TestDirectionFamily:
    """The frozen tables, certified here once rather than at each build."""

    def test_families_disjoint(self):
        s0 = {tuple(r) for r in FAM0.numerators}
        s1 = {tuple(r) for r in FAM1.numerators}
        s1 |= {tuple(-np.array(r)) for r in FAM1.numerators}
        assert not (s0 & s1)

    def test_frames_integer(self):
        for fam in (FAM0, FAM1):
            assert fam.numerators.dtype.kind == "i"
            for row in range(6):
                xi = fam.numerators[row]
                assert int(xi @ xi) == _DENOMINATOR ** 2
                # n_star * xi is trivially integer; check minimality
                assert np.gcd.reduce(np.abs(xi[xi != 0])) == 1

    def test_every_numerator_has_a_zero_component(self):
        # the pipe lattice's axis A_xi is the coordinate axis at that slot,
        # with A_xi . xi = 0 and |xi x A_xi| = 1
        for fam in (FAM0, FAM1):
            for xi in fam.numerators:
                assert np.count_nonzero(xi == 0) >= 1
                axis = np.eye(3, dtype=int)[np.argmax(xi == 0)]
                assert int(axis @ xi) == 0
                b = np.cross(xi, axis)
                assert int(b @ b) == _DENOMINATOR ** 2

    def test_gram_matrix_invertible(self):
        for fam in (FAM0, FAM1):
            d = fam.directions()
            gram = np.stack([d[:, i] * d[:, j] for (i, j) in SYM_INDEX])
            assert abs(np.linalg.det(gram)) > 1e-3
            assert np.max(np.abs(gram @ fam.gram_inv - np.eye(6))) < 1e-13

    def test_a_read_only_value_keyed_by_index(self):
        for index, fam in enumerate((FAM0, FAM1)):
            again = build_direction_family(index)
            assert again == fam and hash(again) == hash(fam)
            assert again == DirectionFamily(index) != (FAM0, FAM1)[1 - index]
            for name in ("numerators", "shifts", "gram_inv",
                         "id_coefficients", "dual_norms"):
                arr = getattr(fam, name)
                assert not arr.flags.writeable, name
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0
            with pytest.raises(AttributeError):
                fam.index = 1 - index

    def test_id_coefficients_positive_with_margin(self):
        for fam in (FAM0, FAM1):
            assert fam.id_coefficients.min() > 0.01
            recon = sum(c * np.outer(x, x) for c, x in
                        zip(fam.id_coefficients, fam.directions()))
            assert np.max(np.abs(recon - np.eye(3))) < 1e-12

    def test_certified_radius(self):
        for fam in (FAM0, FAM1):
            assert 0.4 < fam.certified_radius() < 0.5

    def test_bad_index(self):
        with pytest.raises(ValueError):
            build_direction_family(2)
        # True and 0.0 compare equal to 1 and 0 but are not indices
        for index in (-1, True, 0.0):
            with pytest.raises(ValueError, match="family index"):
                build_direction_family(index)


class TestCertifiedRadius:
    @staticmethod
    def dual_matrices(fam):
        """M_i symmetric with <M_i, R>_F = c_i(R), from c on a basis."""
        m = np.empty((6, 3, 3))
        for a in range(3):
            for b in range(3):
                e = np.zeros((3, 3))
                e[a, b] += 0.5
                e[b, a] += 0.5
                m[:, a, b] = decomposition_coefficients(e, fam)
        return m

    @pytest.mark.parametrize("index", [0, 1])
    def test_radius_is_sharp(self, index):
        fam = (FAM0, FAM1)[index]
        m = self.dual_matrices(fam)
        norms = np.sqrt(np.sum(m**2, axis=(1, 2)))
        radii = fam.id_coefficients / norms
        i_star = int(np.argmin(radii))
        r_star = fam.certified_radius()
        assert r_star == pytest.approx(radii[i_star], rel=1e-14)
        # the nearest point of the ball's boundary where c_{i*} vanishes
        c = decomposition_coefficients(
            np.eye(3) - r_star * m[i_star] / norms[i_star], fam)
        assert abs(c[i_star]) < 1e-14
        assert np.all(np.delete(c, i_star) > 0)


class TestGammaDerivativeSup:
    @pytest.mark.parametrize("index", [0, 1])
    def test_attained_at_the_worst_boundary_point(self, index):
        """A central difference of gamma_xi at R = Id - r M_xi / |M_xi|_F,
        where c_xi is least on the ball, gives the closed-form sup."""
        fam = (FAM0, FAM1)[index]
        m = TestCertifiedRadius.dual_matrices(fam)
        norms = np.sqrt(np.sum(m**2, axis=(1, 2)))
        r = 0.98 * min(fam.certified_radius(), 0.5)
        h = 1e-5
        worst = 0.0
        for xi in range(6):
            R = np.eye(3) - r * m[xi] / norms[xi]
            for (i, j) in SYM_INDEX:
                d = np.zeros((3, 3))
                d[i, j] = d[j, i] = h
                diff = (gamma_coefficients(R + d, fam)[xi]
                        - gamma_coefficients(R - d, fam)[xi]) / (2 * h)
                worst = max(worst, abs(diff))
        assert worst == pytest.approx(fam.gamma_derivative_sup(), rel=1e-6)

    def test_bounds_differences_inside_the_ball(self):
        rng = np.random.default_rng(12)
        h = 1e-6
        for fam in (FAM0, FAM1):
            sup = fam.gamma_derivative_sup()
            r = 0.98 * min(fam.certified_radius(), 0.5)
            for _ in range(50):
                R = random_ball_matrix(rng, r - h)
                for (i, j) in SYM_INDEX:
                    d = np.zeros((3, 3))
                    d[i, j] = d[j, i] = h
                    diff = (gamma_coefficients(R + d, fam)
                            - gamma_coefficients(R - d, fam)) / (2 * h)
                    assert np.max(np.abs(diff)) <= sup * (1 + 1e-6)


class TestGamma:
    def test_identity_reconstruction(self):
        gam = gamma_coefficients(np.eye(3), FAM0)
        recon = sum(g**2 * np.outer(x, x)
                    for g, x in zip(gam, FAM0.directions()))
        assert np.max(np.abs(recon - np.eye(3))) < 1e-12

    def test_random_ball_reconstruction(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            R = random_ball_matrix(rng)
            gam = gamma_coefficients(R, FAM0)
            assert np.all(np.isreal(gam)) and np.all(gam > 0)
            recon = sum(g**2 * np.outer(x, x)
                        for g, x in zip(gam, FAM0.directions()))
            worst = max(worst, float(np.max(np.abs(recon - R))))
        assert worst < 1e-10

    def test_affine_linearity(self):
        rng = np.random.default_rng(8)
        r1 = random_ball_matrix(rng, 0.2)
        r2 = random_ball_matrix(rng, 0.2)
        c1 = decomposition_coefficients(r1, FAM0)
        c2 = decomposition_coefficients(r2, FAM0)
        cid = decomposition_coefficients(np.eye(3), FAM0)
        c12 = decomposition_coefficients(r1 + r2 - np.eye(3), FAM0)
        assert np.allclose(c12, c1 + c2 - cid, atol=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="ball"):
            gamma_coefficients(np.eye(3) + 0.6 * np.diag([1, -1, 0]), FAM0)

    @pytest.mark.parametrize("index", [0, 1])
    def test_outside_the_certified_ball(self, index):
        # |R - Id|_F = 0.49 along the direction of the least radius: inside
        # the 1/2 ball that gamma accepts, past r* = 0.4631, where the
        # coefficient is -2.902e-02
        fam = (FAM0, FAM1)[index]
        m = TestCertifiedRadius.dual_matrices(fam)
        norms = np.sqrt(np.sum(m**2, axis=(1, 2)))
        i_star = int(np.argmin(fam.id_coefficients / norms))
        R = np.eye(3) - 0.49 * m[i_star] / norms[i_star]
        assert np.min(decomposition_coefficients(R, fam)) == pytest.approx(
            -2.902e-02, abs=1e-5)
        with pytest.raises(ValueError, match=re.escape(
                f"family {index}: decomposition coefficient -2.902e-02 <= 0 "
                "at |R - Id|_F = 0.4900, outside the certified ball of "
                "radius 0.4631")):
            gamma_coefficients(R, fam)
        # the same point among certified ones in a field of matrices
        field = np.stack([np.eye(3), R, np.eye(3)], axis=-1)
        with pytest.raises(ValueError, match=r"\|R - Id\|_F = 0\.4900"):
            gamma_coefficients(field, fam)

    # unchecked, both ball tests are False for NaN and gamma comes out NaN
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_R_not_finite(self, bad):
        R = np.repeat(np.eye(3)[..., None], 4, axis=2)
        R[0, 1, 2] = bad
        with pytest.raises(ValueError, match="ball.*R is not finite"):
            gamma_coefficients(R, FAM0)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(9)
        Rs = np.stack([random_ball_matrix(rng, 0.3) for _ in range(5)])
        field = np.moveaxis(Rs, 0, -1)  # (3, 3, 5)
        gam_field = gamma_coefficients(field, FAM0)
        for i in range(5):
            gam = gamma_coefficients(Rs[i], FAM0)
            assert np.allclose(gam_field[:, i], gam, atol=1e-14)


class TestMikadoFlow:
    @pytest.mark.parametrize("lam", [2, 4])
    def test_defining_identities(self, lam):
        flow = build_mikado(0, lam, FAM0, GRID)
        w = c0_norm(flow.W)
        # div W = 0 and mean zero
        assert c0_norm(differential(flow.W, "div")) < 1e-10 * w * GRID.n
        assert np.abs(flow.W.coeffs[:, 0, 0, 0]).max() == 0.0
        # curl V = W
        err = c0_norm(differential(flow.V, "curl") - flow.W)
        assert err < 1e-8 * w
        # xi . grad phi = 0
        g = to_grid(differential(flow.phi, "grad"))
        along = np.abs(np.tensordot(flow.xi, g, axes=1)).max()
        assert along < 1e-8 * c0_norm(flow.phi) * GRID.n

    @pytest.mark.parametrize("lam", [2, 4])
    def test_unit_second_moment(self, lam):
        flow = build_mikado(2, lam, FAM0, GRID)
        mom = second_moment(flow)
        xi = flow.xi
        assert np.max(np.abs(mom - np.outer(xi, xi))) < 1e-6
        # grid quadrature agrees
        w = to_grid(flow.W)
        quad = np.tensordot(w, w, axes=([1, 2, 3], [1, 2, 3])) / GRID.n**3
        assert np.max(np.abs(quad - np.outer(xi, xi))) < 1e-6

    def test_normalized_profile(self):
        flow = build_mikado(1, 2, FAM0, GRID)
        phi = to_grid(flow.phi)
        assert np.mean(phi**2) == pytest.approx(1.0, abs=1e-6)
        # profile mean vanishes (mode 0 of the profile is dropped exactly)
        assert abs(np.mean(phi)) < 1e-12

    def test_laplacian_relation(self):
        flow = build_mikado(3, 2, FAM0, GRID)
        nl = _DENOMINATOR * flow.lam
        lap = differential(differential(flow.Psi, "grad"), "div")
        resid = c0_norm(-1.0 * lap - (nl**2) * flow.phi)
        assert resid < 1e-10 * nl**2 * c0_norm(flow.phi)

    def test_lattice_support(self):
        # spectral support on the n_star*lambda lattice: the self-product is
        # (T/lambda)^3-periodic, so all its nonzero modes sit at |k| >= lam
        lam = 2
        flow = build_mikado(4, lam, FAM0, GRID)
        for k in flow.mode_k:
            assert np.all(np.asarray(k) % lam == 0)
            assert int(np.round(k @ (FAM0.numerators[4]))) == 0

    def test_periodicity_of_self_product(self):
        from cilab.fields import band_project, from_grid
        lam = 2
        flow = build_mikado(0, lam, FAM0, GRID)
        w = to_grid(flow.W)
        prod = w[0] * w[0] + w[1] * w[1] + w[2] * w[2]
        f = from_grid(prod - prod.mean(), GRID, "scalar", mean_zero=True)
        high = band_project(f, "geq", lam / 2)
        assert c0_norm(high - f) < 1e-10 * max(c0_norm(f), 1e-30)

    def test_exact_evaluation_matches_grid(self):
        flow = build_mikado(5, 2, FAM0, GRID)
        pts = GRID.mesh()[:, ::8, ::8, ::8]
        direct = flow.eval_W(pts)
        gridded = to_grid(flow.W)[:, ::8, ::8, ::8]
        assert np.max(np.abs(direct - gridded)) < 1e-10

    def test_norm_scaling_across_lambda(self):
        # ||W||_C0 and lam*||V||_C0 are each lambda-independent (the N=0
        # content of the pipe bounds).  Their mutual ratio is a fixed
        # profile constant n_star*||phi||/||grad Psi|| >= 2*pi*n_star, so it
        # can never be a small factor; we pin the lambda-stability instead.
        vals = []
        for lam, n in ((2, 64), (4, 128), (8, 256)):
            g = GridSpec(n)
            flow = build_mikado(0, lam, FAM0, g)
            vals.append((c0_norm(flow.W), lam * c0_norm(flow.V)))
        w_vals = [w for w, _ in vals]
        lv_vals = [lv for _, lv in vals]
        assert max(w_vals) / min(w_vals) < 1.2
        assert max(lv_vals) / min(lv_vals) < 1.2
        ratio = w_vals[0] / lv_vals[0]
        assert ratio > 2 * np.pi * _DENOMINATOR * 0.9  # provable lower bound

    @pytest.mark.parametrize("row,lam,n", [(0, 1, 32), (4, 2, 32),
                                           (5, 3, 64)])
    def test_coefficients_match_set_mode_loop(self, row, lam, n):
        g = GridSpec(n)
        flow = build_mikado(row, lam, FAM1, g)
        nl = _DENOMINATOR * lam
        ref = {name: zeros(g, rank) for name, rank in
               (("phi", "scalar"), ("Psi", "scalar"), ("W", "vector3"),
                ("V", "vector3"))}
        assert (flow.mode_k[:, 2] < 0).any() and (flow.mode_k[:, 2] == 0).any()
        for k, pc, sc in zip(flow.mode_k, flow.mode_phi, flow.mode_psi):
            ref["phi"].set_mode(k, [pc])
            ref["Psi"].set_mode(k, [sc])
            ref["W"].set_mode(k, flow.xi * pc)
            ref["V"].set_mode(k, np.cross((2j * np.pi) * k * sc, flow.xi)
                              / nl**2)
        for name, f in ref.items():
            assert np.array_equal(getattr(flow, name).coeffs, f.coeffs), name

    @pytest.mark.parametrize("lam,n", [(1, 64), (2, 64), (3, 64), (2, 32)])
    def test_profile_modes_match_loop(self, lam, n):
        for fam in (FAM0, FAM1):
            for row in range(6):
                got = _profile_modes(fam, row, lam, GridSpec(n))
                ref = _profile_modes_loop(fam, row, lam, GridSpec(n))
                for g, r in zip(got, ref, strict=True):
                    assert g.dtype == r.dtype and np.array_equal(g, r)

    def test_flows_keep_only_their_modes(self):
        # four eager dense fields per flow would take about 100 MB here
        tracemalloc.start()
        try:
            flows = build_family_flows(FAM0, 1, GridSpec(64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(flows) == 6 and peak < 5e6

    def test_dense_fields_are_built_on_access(self):
        flow = build_mikado(2, 2, FAM0, GridSpec(32))
        first, second = flow.W, flow.W
        assert first is not second
        assert np.array_equal(first.coeffs, second.coeffs)
        assert not np.may_share_memory(first.coeffs, second.coeffs)
        first.coeffs[:] = 0.0
        assert np.array_equal(second.coeffs, flow.W.coeffs)
        assert np.any(second.coeffs != 0)

    def test_unresolvable_lambda(self):
        with pytest.raises(ValueError, match="unresolvable"):
            build_mikado(0, 16, FAM0, GridSpec(32))

    # unchecked, row -1 builds row 5's pipe, row 6 raises IndexError and
    # row True fails to broadcast
    @pytest.mark.parametrize("row", [-1, 6, 2.0, True])
    def test_rejects_row_outside_the_family(self, row):
        with pytest.raises(ValueError, match="row"):
            build_mikado(row, 2, FAM0, GRID)

    # unchecked, lam=True builds the lambda = 1 pipe
    @pytest.mark.parametrize("lam", [0, -2, 1.5, 2.0, True])
    def test_rejects_lambda_not_a_positive_integer(self, lam):
        with pytest.raises(ValueError, match=re.escape(f"lambda={lam!r} ")):
            build_mikado(0, lam, FAM0, GridSpec(32))

    def test_spanning_second_moment(self):
        rng = np.random.default_rng(11)
        R = random_ball_matrix(rng, 0.3)
        got = spanning_second_moment(R, 2, FAM0, GRID)
        assert np.max(np.abs(got - R)) < 1e-6

    def test_support_overlap_reported(self):
        # The pipe axes of two rational directions always pass within
        # 1/(2|d x d'|) ~ 0.021 of each other, so at lambda <= 8 the pipes
        # genuinely meet and pointwise support overlap is O(amp^2); the
        # cancellation machinery relies on the lattice structure instead.
        # This records the fact; the low-band cross-talk is tested in the
        # scheme suite.
        flows = build_family_flows(FAM0, 2, GridSpec(64))
        amp = max(c0_norm(f.phi) for f in flows) ** 2
        overlap = support_overlap(flows)
        assert np.isfinite(overlap) and 0.0 < overlap <= amp * (1 + 1e-9)
