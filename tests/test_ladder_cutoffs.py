import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cilab import cutoffs
from cilab.ladder import ladder
from cilab.cutoffs import (ChiFamily, EtaFamily, bump, bump_deriv, smoothstep,
                           smoothstep_deriv, window_count)


class TestLadder:
    def test_frequencies_small_a(self):
        lad = ladder(a=2, b=1.5, alpha=0.02, beta=0.1, L=2, q_max=3)
        assert lad.lam[0] == 2 and lad.lam[1] == 3 and lad.lam[2] == 5
        # lambda_3 = ceil(2^{3.375}) = 11
        assert lad.lam[3] == 11

    def test_delta_start_values(self):
        lad = ladder(a=2, b=1.5, alpha=0.02, beta=0.1, L=2)
        assert lad.delta[0] == pytest.approx(16 * lad.lam[1] ** 0.06)
        assert lad.delta[1] == pytest.approx(4 * lad.lam[1] ** 0.06)

    def test_inadmissible_flags_choice_b(self):
        lad = ladder(a=100.0, b=1.05, alpha=1e-4, beta=0.32, L=1)
        assert not lad.admissible
        assert any("(choice:b)" in v for v in lad.violations)

    def test_admissible_regime_exists(self):
        # tiny alpha, b close to 1, a astronomically large: (choice:a) needs
        # a^((b-1)beta) >= 2, i.e. a >= 2^(1/((b-1)beta)) = 2^125 here
        lad = ladder(a=2.0**130, b=1.04, alpha=1e-4, beta=0.2, L=1, q_max=2)
        assert lad.admissible, lad.violations

    def test_monotonicity(self):
        lad = ladder(a=2.0**40, b=1.04, alpha=1e-4, beta=0.2, L=1, q_max=3)
        assert np.all(np.diff(lad.lam) > 0)
        assert np.all(np.diff(lad.delta[1:]) < 0)
        assert np.all(np.diff(lad.ell) < 0)

    def test_overrides(self):
        lad = ladder(a=2, b=1.5, alpha=0.02, beta=0.1, L=2,
                     overrides={1: 4, 2: 8})
        assert lad.lam[1] == 4 and lad.lam[2] == 8

    def test_cauchy_needs_beta_bar(self):
        with pytest.raises(ValueError):
            ladder(a=2, b=1.1, alpha=0.001, beta=0.1, L=2, mode="cauchy")

    # unchecked, numpy fails on q_max: negative dimensions or a float size
    @pytest.mark.parametrize("q_max", [-1, -5, 1.5, 2.0, True, None])
    def test_rejects_q_max_not_a_count(self, q_max):
        with pytest.raises(ValueError, match=re.escape(f"q_max={q_max!r} ")):
            ladder(a=2, b=1.5, alpha=0.02, beta=0.1, L=2, q_max=q_max)
        assert len(ladder(a=2, b=1.5, alpha=0.02, beta=0.1, L=2,
                          q_max=np.int64(0)).lam) == 3

    def test_cauchy_varsigma(self):
        lad = ladder(a=2, b=1.05, alpha=1e-3, beta=0.05, L=2, mode="cauchy",
                     beta_bar=0.2, K=3.0)
        assert lad.varsigma[2] == pytest.approx(3.0 * lad.delta[2])
        assert lad.varsigma[3] == pytest.approx(lad.delta[3])

    def test_overflow_is_a_violation(self):
        # a^(b^6) = 2^(125 * 1.5^6) lies beyond the float range
        lad = ladder(a=2.0**125, b=1.5, alpha=1e-4, beta=0.2, L=1, q_max=6)
        assert not lad.admissible
        assert any("lambda_6" in v and "overflow" in v
                   for v in lad.violations), lad.violations
        assert np.all(np.isfinite(lad.lam[:6])) and np.isinf(lad.lam[6])

    @pytest.mark.parametrize("name, value", [
        ("L", np.nan), ("L", -1.0), ("L", 0.0), ("L", np.inf),
        ("a", np.nan), ("a", np.inf), ("a", 2**2000), ("a", -3.0),
        ("a", 0.0), ("b", np.nan), ("b", -np.inf),
        ("alpha", np.nan), ("alpha", np.inf), ("beta", np.nan),
        ("beta", np.inf), ("b", 2**2000), ("alpha", 2**2000),
        ("beta", 2**2000), ("L", 2**2000), ("L", -2**2000)])
    def test_bad_real_parameter_is_a_range_violation(self, name, value):
        # the admissible ladder of test_admissible_regime_exists with one
        # parameter replaced; unchecked, L = nan gives tau all nan and
        # L = -1 a negative tau, both with admissible=True.  An integer
        # beyond the float range reads as +-inf
        kw = dict(a=2.0**130, b=1.04, alpha=1e-4, beta=0.2, L=1)
        kw[name] = value
        lad = ladder(**kw, q_max=2)
        assert not lad.admissible
        assert any(v.startswith(f"(range) {name}=") for v in lad.violations)

    @given(st.floats(0.02, 0.32), st.floats(1.01, 1.9))
    @settings(max_examples=25, deadline=None)
    def test_ladder_never_crashes(self, beta, b):
        lad = ladder(a=4.0, b=b, alpha=0.01, beta=beta, L=1, q_max=2)
        assert isinstance(lad.admissible, bool)
        assert np.all(np.isfinite(lad.delta))


class TestSmoothstep:
    def test_exact_endpoints(self):
        assert smoothstep(-0.1) == 0.0 and smoothstep(0.0) == 0.0
        assert smoothstep(1.0) == 1.0 and smoothstep(1.5) == 1.0

    def test_monotone(self):
        s = np.linspace(-0.2, 1.2, 101)
        v = smoothstep(s)
        assert np.all(np.diff(v) >= 0)

    def test_derivative_matches(self):
        s = np.linspace(0.05, 0.95, 19)
        h = 1e-6
        fd = (smoothstep(s + h) - smoothstep(s - h)) / (2 * h)
        assert np.max(np.abs(fd - smoothstep_deriv(s))) < 1e-6


class TestBump:
    def test_exact_zero_outside(self):
        assert bump(1.0) == 0.0 and bump(2.5) == 0.0
        assert bump_deriv(1.0) == 0.0 and bump_deriv(-1.0) == 0.0
        assert bump_deriv(1.5) == 0.0
        assert bump(0.0) == np.exp(-1.0)

    def test_derivative_matches(self):
        r = np.linspace(-0.95, 0.95, 39)
        h = 1e-6
        fd = (bump((r + h) ** 2) - bump((r - h) ** 2)) / (2 * h)
        assert np.max(np.abs(fd - bump_deriv(r))) < 1e-6


class TestChi:
    def setup_method(self):
        self.tau = 0.05
        self.times = np.linspace(0.0, 0.14, 57)
        self.chi = ChiFamily(self.tau, self.times)

    def test_partition_of_unity(self):
        assert self.chi.partition_defect() < 1e-10

    def test_one_on_rest_intervals(self):
        # chi_i == 1 exactly on J_i: t mod tau outside [tau/3, 2 tau/3]
        third = self.tau / 3.0
        for k, t in enumerate(self.times):
            r = np.mod(t, self.tau)
            if r < third or r > 2 * third:
                col = self.chi.values[:, k]
                assert np.max(col) == 1.0
                assert np.sum(col > 0) == 1

    def test_compact_overlap(self):
        # supp chi_i and supp chi_{i+2} are disjoint
        v = self.chi.values
        for i in range(self.chi.n_windows - 2):
            assert np.max(v[i] * v[i + 2]) == 0.0

    def test_derivative_scale(self):
        # ||d_t chi|| ~ tau^{-1} (within a modest factor)
        dmax = np.abs(self.chi.dvalues).max()
        assert dmax < 20.0 / self.tau
        assert dmax > 1.0 / self.tau

    # unchecked, window 7 of a 3-window family gives the inverted span
    # (0.6, 0.2) and window -1 the span (0, 0.0333)
    @pytest.mark.parametrize("i", [-1, 3, 7, 1.0])
    def test_window_span_rejects_window_off_the_family(self, i):
        chi = ChiFamily(0.1, np.arange(25) * 0.1 / 12)
        assert chi.n_windows == 3
        assert chi.window_span(2, 0.2) == pytest.approx((0.1, 0.2))
        with pytest.raises(ValueError, match=re.escape(
                f"window index {i!r} outside 0..2")):
            chi.window_span(i, 0.2)


def _chi_window_loop(tau, times):
    """Reference for ChiFamily: values and derivatives one window at a time,
    rising over I_{i-1} before t_i and falling over I_i from t_i on."""
    t = np.asarray(times)
    m = window_count(tau, t.max())
    vals, dvals = np.zeros((m, len(t))), np.zeros((m, len(t)))
    third = tau / 3.0
    for i in range(m):
        rise_a = (i - 1) * tau + third
        fall_a = i * tau + third
        if i == 0:
            up, dup = np.ones_like(t), np.zeros_like(t)
        else:
            up = smoothstep((t - rise_a) / third)
            dup = smoothstep_deriv((t - rise_a) / third) / third
        down = smoothstep(1.0 - (t - fall_a) / third)
        ddown = -smoothstep_deriv((t - fall_a) / third) / third
        vals[i] = np.where(t < i * tau, up, down)
        dvals[i] = np.where(t < i * tau, dup, ddown)
    return vals, dvals


def _path_grid_tau():
    """tau_0 of the toy ladder that a 1000-step path with dt = 1e-3 is glued
    on: about 97 windows."""
    lad = ladder(a=2.0 ** 130, b=1.04, alpha=1e-4, beta=0.2, L=24.0,
                 q_max=2, overrides={0: 1.0, 1: 2.0, 2: 3.0})
    return lad.tau[0]


class TestChiOnePass:
    @pytest.mark.parametrize("tau, times", [
        (0.05, np.linspace(0.0, 0.14, 57)),
        (_path_grid_tau(), np.arange(1001) * 1e-3)])
    def test_matches_window_loop(self, tau, times):
        chi = ChiFamily(tau, times)
        vals, dvals = _chi_window_loop(tau, times)
        assert np.array_equal(chi.values, vals)
        assert np.array_equal(chi.dvalues, dvals)


class TestShuffledTimes:
    # both families read the horizon as the latest time, wherever it sits
    def setup_method(self):
        self.tau = 0.05
        self.times = np.linspace(0.0, 0.14, 113)
        self.perm = np.random.default_rng(3).permutation(len(self.times))

    def test_chi(self):
        ref = ChiFamily(self.tau, self.times)
        chi = ChiFamily(self.tau, self.times[self.perm])
        assert chi.n_windows == ref.n_windows
        assert np.array_equal(chi.values, ref.values[:, self.perm])
        assert np.array_equal(chi.dvalues, ref.dvalues[:, self.perm])

    @pytest.mark.parametrize("straight_zero", [False, True])
    def test_eta(self, straight_zero):
        ref = EtaFamily(self.tau, self.times, n_x1=16,
                        straight_zero=straight_zero)
        eta = EtaFamily(self.tau, self.times[self.perm], n_x1=16,
                        straight_zero=straight_zero)
        assert eta.n_windows == ref.n_windows == 3
        assert np.array_equal(eta.values, ref.values[:, self.perm])
        assert np.array_equal(eta.zeta, ref.zeta[self.perm])


class TestWindowLength:
    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
    def test_rejected_by_both_families(self, tau):
        times = np.linspace(0.0, 0.14, 57)
        with pytest.raises(ValueError, match="tau"):
            ChiFamily(tau, times)
        with pytest.raises(ValueError, match="tau"):
            EtaFamily(tau, times, n_x1=16)


class TestTimeSamples:
    @pytest.mark.parametrize("times, message", [
        ([], "hold at least one time"), ([np.nan], "be finite"),
        ([0.0, np.nan, 0.1], "be finite"), ([0.0, np.inf], "be finite")])
    def test_rejected_by_both_families(self, times, message):
        with pytest.raises(ValueError, match=f"^times must {message}$"):
            ChiFamily(0.05, times)
        with pytest.raises(ValueError, match=f"^times must {message}$"):
            EtaFamily(0.05, times, n_x1=16)


class TestEta:
    def setup_method(self):
        self.tau = 0.05
        self.times = np.linspace(0.0, 0.14, 113)
        self.eta = EtaFamily(self.tau, self.times, n_x1=64)

    def test_disjoint_supports(self):
        assert self.eta.overlap_defect() == 0.0

    def test_equal_one_on_core_interval(self):
        # eta_i == 1 on I_i x T^3
        third = self.tau / 3.0
        for i in range(self.eta.n_windows):
            lo, hi = i * self.tau + third, i * self.tau + 2 * third
            sel = (self.times >= lo) & (self.times <= hi)
            if np.any(sel):
                assert self.eta.values[i][sel].min() > 1.0 - 1e-10

    def test_sum_int_sq_in_band(self):
        vals = [self.eta.sum_int_sq(k) for k in range(len(self.times))]
        assert min(vals) >= 0.2
        assert max(vals) <= 1.0 + 1e-12

    def test_range(self):
        assert self.eta.values.min() >= 0.0
        assert self.eta.values.max() <= 1.0 + 1e-12

    def test_on_grid(self):
        prof = self.eta.on_grid(1, 40, 64)
        assert prof.shape == (64, 64, 64)
        assert np.array_equal(prof[:, 5, 7], self.eta.values[1, 40])
        with pytest.raises(ValueError, match="n_x1=64"):
            self.eta.on_grid(1, 40, 32)

    def test_matches_evaluation_at_every_time(self):
        # reference: each window evaluated at every time of a shuffled grid
        times = np.random.default_rng(3).permutation(self.times)
        eta = EtaFamily(self.tau, times, n_x1=16)
        x1 = np.arange(16) / 16
        y = (np.arange(33) + 0.5) / 33 * cutoffs._EPS_MOLL
        u = 2.0 * (y / cutoffs._EPS_MOLL) - 1.0
        wy = np.exp(-1.0 / np.maximum(1.0 - u * u, 1e-300))
        wy /= wy.sum()
        width = cutoffs._EPS_MOLL * self.tau
        for i in range(eta.n_windows):
            lo = i * self.tau + cutoffs._EPS_TILT * self.tau / 3.0
            hi = i * self.tau + (3.0 - cutoffs._EPS_TILT) * self.tau / 3.0
            ref = np.zeros((len(times), 16))
            for yk, wk in zip(y, wy):
                sh = ((2.0 * cutoffs._EPS_TILT * self.tau / 3.0)
                      * np.sin(2 * np.pi * (x1 - yk)))
                ref += wk * (smoothstep((times[:, None] - sh - lo) / width)
                             - smoothstep((times[:, None] - sh - hi) / width))
            assert np.array_equal(eta.values[i], ref)

    def test_time_derivative_is_closed_form(self):
        # eta_i is the slab indicator mollified in time by smoothstep', so
        # d/dt eta_i is that kernel read at the two slab edges
        tau = self.tau
        eps_tilt, eps_moll = cutoffs._EPS_TILT, cutoffs._EPS_MOLL
        width, tilt = eps_moll * tau, 2.0 * eps_tilt * tau / 3.0
        lo = tau + eps_tilt * tau / 3.0
        hi = tau + (3.0 - eps_tilt) * tau / 3.0
        span = np.linspace(-tilt, tilt + width, 201)
        t = np.concatenate([lo + span, hi + span])
        h = width * 1e-5
        eta = EtaFamily(tau, np.concatenate([t - h, t + h]), n_x1=16)
        fd = (eta.values[1, len(t):] - eta.values[1, :len(t)]) / (2 * h)
        x1 = np.arange(16) / 16
        y = (np.arange(33) + 0.5) / 33 * eps_moll
        wy = bump((2.0 * (y / eps_moll) - 1.0) ** 2)
        wy /= wy.sum()
        exact = np.zeros_like(fd)
        for yk, wk in zip(y, wy):
            sh = tilt * np.sin(2 * np.pi * (x1 - yk))
            exact += wk * (smoothstep_deriv((t[:, None] - sh - lo) / width)
                           - smoothstep_deriv((t[:, None] - sh - hi) / width))
        exact /= width
        assert np.max(np.abs(fd - exact)) < 1e-7 * np.max(np.abs(exact))

    @pytest.mark.parametrize("name, value", [
        ("eps_moll", 0.0), ("eps_moll", -0.01), ("eps_moll", np.nan),
        ("eps_moll", np.inf), ("eps_tilt", 0.0), ("eps_tilt", 1.0 / 3.0),
        ("eps_tilt", 0.6), ("eps_tilt", np.nan), ("n_x1", 0), ("n_x1", -1),
        ("n_x1", 2.5), ("n_x1", True)])
    def test_rejects_parameter_out_of_range(self, name, value, monkeypatch):
        kw = {"n_x1": 16}
        if name == "n_x1":
            kw[name] = value
        else:   # eps_tilt and eps_moll are module constants, read each build
            monkeypatch.setattr(cutoffs, f"_{name.upper()}", value)
        with pytest.raises(ValueError, match=name):
            EtaFamily(self.tau, self.times, **kw)

    def test_shape_constants_in_range(self):
        # the slabs need 0 < eps_tilt < 1/3 to stay disjoint, the mollifier
        # a positive finite width
        assert 0.0 < cutoffs._EPS_TILT < 1.0 / 3.0
        assert 0.0 < cutoffs._EPS_MOLL < np.inf

    # unchecked, numpy wraps a negative window or time to one from the end
    @pytest.mark.parametrize("i, t_idx, name", [
        (-1, 40, "window index -1 outside 0..2"),
        (3, 40, "window index 3 outside 0..2"),
        (1, -1, "time index -1 outside 0..112"),
        (1, 113, "time index 113 outside 0..112"),
        (1, 40.0, "time index 40.0 outside")])
    def test_rejects_index_off_the_family(self, i, t_idx, name):
        with pytest.raises(ValueError, match=re.escape(name)):
            self.eta.on_grid(i, t_idx, 64)
        if i == 1:
            with pytest.raises(ValueError, match=re.escape(name)):
                self.eta.sum_int_sq(t_idx)


def _eta_window_loop(eta):
    """Reference for EtaFamily: the nodes summed in order over the live
    rows of one window at a time."""
    t = np.asarray(eta.times)
    x1 = np.arange(eta.n_x1) / eta.n_x1
    tilt = 2.0 * cutoffs._EPS_TILT * eta.tau / 3.0
    y = (np.arange(33) + 0.5) / 33 * cutoffs._EPS_MOLL
    wy = bump((2.0 * (y / cutoffs._EPS_MOLL) - 1.0) ** 2)
    wy /= wy.sum()
    width = cutoffs._EPS_MOLL * eta.tau
    ref = np.zeros_like(eta.values)
    for i in range(eta.n_windows):
        if eta.straight_zero and i == 0:
            ref[0] = eta._straight0(t)[:, None]
            continue
        lo = i * eta.tau + cutoffs._EPS_TILT * eta.tau / 3.0
        hi = i * eta.tau + (3.0 - cutoffs._EPS_TILT) * eta.tau / 3.0
        rows = (t > lo - tilt - width) & (t < hi + tilt + 2.0 * width)
        tr = t[rows]
        acc = np.zeros((len(tr), eta.n_x1))
        for yk, wk in zip(y, wy):
            sh = tilt * np.sin(2 * np.pi * (x1 - yk))
            acc += wk * (smoothstep((tr[:, None] - sh - lo) / width)
                         - smoothstep((tr[:, None] - sh - hi) / width))
        ref[i, rows] = acc
    return ref


class TestEtaWindowBatch:
    @pytest.mark.parametrize("straight_zero", [False, True])
    def test_matches_window_loop_on_a_path_grid(self, straight_zero):
        # the grid of a 1000-step path with dt = 1e-3 and the toy ladder's
        # tau_0: about 97 windows
        lad = ladder(a=2.0 ** 130, b=1.04, alpha=1e-4, beta=0.2, L=24.0,
                     q_max=2, overrides={0: 1.0, 1: 2.0, 2: 3.0})
        eta = EtaFamily(lad.tau[0], np.arange(1001) * 1e-3, n_x1=16,
                        straight_zero=straight_zero)
        assert eta.n_windows >= 90
        assert np.array_equal(eta.values, _eta_window_loop(eta))

    def test_small_family_takes_one_smoothstep_call_per_edge(self,
                                                              monkeypatch):
        # the 25 times and 32 x1 nodes of a glued step: all 33 mollifier
        # nodes of a slab edge go through one call
        shapes = []

        def spy(s):
            shapes.append(np.shape(s))
            return smoothstep(s)

        monkeypatch.setattr(cutoffs, "smoothstep", spy)
        tau = 0.05
        eta = EtaFamily(tau, np.arange(25) * tau / 12, n_x1=32)
        assert [shape[0] for shape in shapes] == [33, 33]
        assert np.array_equal(eta.values, _eta_window_loop(eta))


def _overlap_all_pairs(eta):
    """Reference for EtaFamily.overlap_defect: every window pair, whole
    arrays."""
    worst = 0.0
    for i in range(eta.n_windows):
        for j in range(i + 1, eta.n_windows):
            worst = max(worst, float(np.max(eta.values[i] * eta.values[j])))
    return worst


class TestEtaOverlap:
    # _EPS_MOLL = 0.3 widens the mollifier until neighbouring windows
    # overlap, so the defect is positive there and 0 at the default
    @pytest.mark.parametrize("straight_zero", [False, True])
    @pytest.mark.parametrize("eps_moll", [1.0 / 64.0, 0.3])
    def test_matches_all_pairs_on_a_path_grid(self, straight_zero, eps_moll,
                                              monkeypatch):
        monkeypatch.setattr(cutoffs, "_EPS_MOLL", eps_moll)
        lad = ladder(a=2.0 ** 130, b=1.04, alpha=1e-4, beta=0.2, L=24.0,
                     q_max=2, overrides={0: 1.0, 1: 2.0, 2: 3.0})
        eta = EtaFamily(lad.tau[0], np.arange(1001) * 1e-3, n_x1=16,
                        straight_zero=straight_zero)
        assert eta.n_windows >= 90
        ref = _overlap_all_pairs(eta)
        assert (ref > 0.0) == (eps_moll == 0.3)
        assert eta.overlap_defect() == ref


class TestEtaCauchy:
    def setup_method(self):
        self.tau = 0.05
        self.times = np.linspace(0.0, 0.14, 113)
        self.eta = EtaFamily(self.tau, self.times, n_x1=64,
                             straight_zero=True)

    def test_straight_window_vanishes_early(self):
        # eta_0 == 0 on [0, tau/6]
        sel = self.times <= self.tau / 6 + 1e-12
        assert np.max(self.eta.values[0][sel]) == 0.0

    def test_zeta_profile(self):
        t1 = self.tau
        z = self.eta.zeta
        assert np.all(z[self.times <= t1] == 1.0)
        assert np.all(z[self.times >= t1 + self.tau / 3] == 0.0)
        mid = (self.times > t1) & (self.times < t1 + self.tau / 3)
        assert np.all((z[mid] > 0) & (z[mid] < 1))

    def test_denominator_positive(self):
        for k in range(len(self.times)):
            s = self.eta.zeta[k] + sum(
                np.mean(self.eta.values[i, k] ** 2)
                for i in range(1, self.eta.n_windows))
            assert s > 0.05
