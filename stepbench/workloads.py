"""The three workloads: set-up, one timed unit, and the checks of its output.

There is no ``scheme`` module yet, so ``StepN32`` assembles the step
q -> q+1 itself from the public functions of the cilab layers.  Every call
into a layer sits inside a span named after it; with a ``NullTracer`` the
spans cost nothing.  Work per unit does not depend on the seed: the
velocity's Lipschitz number is fixed by the ladder (seeds translate it), so
the flow map's substep count is fixed; every output interval of the Euler
solves needs exactly one CFL step; and the stopping-time threshold lies far
above the path norm, so the stopping time is always the horizon cap.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from cilab import GridSpec, euler
from cilab.cutoffs import ChiFamily, EtaFamily
from cilab.euler import (SolverConfig, SpectralInterpolant, local_time_limit,
                         solve_euler_with_drift, solve_flow_map)
from cilab.fields import (SpectralField, band_project, differential,
                          from_grid, gradient_tensor, inverse_divergence,
                          leray_project, mollify_space, outer_sym, to_grid,
                          zeros)
from cilab.holder import holder_norm
from cilab.ladder import ladder
from cilab.mikado import (build_direction_family, build_family_flows,
                          gamma_coefficients)
from cilab.noise import (MollifiedPath, SpectrumSpec, ito_integral,
                         sample_path, stopping_time)

import checks

# toy ladder: a, b, alpha, beta admissible as in the ladder tests; the
# overrides put lambda_{q+1} = 2 for q = 0, the Mikado frequency, which the
# n = 32 grid resolves
LADDER = dict(a=2.0 ** 130, b=1.04, alpha=1e-4, beta=0.2, L=24.0, q_max=2,
              overrides={0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 5.0})
Q = 0
# 256 noise modes (|k| <= 4, two polarizations); ||B(1)||_L2 is about 0.03
SPEC = dict(p=6.0, scale=0.0075, k_max=4)
# C^{1/2-alpha}_t H^{7/2+gamma} stopping norm; the discrete norm of these
# paths stays near 60, so a threshold of 1e4 scans the whole path
HOLDER_ALPHA, HOLDER_GAMMA, THRESHOLD = 0.1, 0.01, 1e4
# constant of the inductive bound ||grad v_q||_0 <= M lambda_q delta_q^{1/2}:
# the mollified velocity sits on this bound.  With M = 1 the flow map of a
# 1.5 tau span needs one RK4 substep under solve_flow_map's rule
# dt ||grad u|| <= 0.1; M = 2 is the smallest integer for which it needs two
LIPSCHITZ_M = 2.0


@dataclass(frozen=True)
class Sizes:
    """Grid sizes and path lengths.  ``FULL`` is the benchmark; ``TINY`` is
    the smoke test's (the n = 16 step needs Mikado frequency 1)."""

    n_step: int = 32
    mikado_lambda: int = 2
    n_euler: int = 64
    n_noise: int = 16
    n_flows: int = 64
    n_probe: int = 16
    noise_steps: int = 1000
    warm_steps: int = 100
    points: int = 4096


FULL = Sizes()
TINY = Sizes(n_step=16, mikado_lambda=1, n_euler=16, noise_steps=64,
             warm_steps=16, points=256)


def seeded_velocity(grid, seed, kmax):
    """Mean-free, divergence-free field on |k| <= kmax with |c_k| ~ |k|^-2.
    Its shape is the same for every seed, and the seed translates it by a
    random shift: with seeded phases instead, the volume defect of the
    step's flow map moved by 19 % (IQR over median) between seeds."""
    rng = np.random.default_rng([grid.n, kmax])
    white = from_grid(rng.standard_normal((3,) + (grid.n,) * 3), grid,
                      "vector3", mean_zero=True)
    c = leray_project(band_project(white, "leq", kmax)).coeffs
    mag = np.sqrt(np.sum(np.abs(c) ** 2, axis=0))
    live = mag > 0
    scale = np.zeros_like(mag)
    scale[live] = 1.0 / grid.k_squared()[live] / mag[live]
    shift = np.random.default_rng([seed, grid.n, kmax]).uniform(0.0, 1.0, 3)
    kx, ky, kz = grid.wavenumbers()
    phase = np.exp(-2j * np.pi * (kx * shift[0] + ky * shift[1]
                                  + kz * shift[2]))
    return SpectralField(grid, "vector3", c * scale * phase, mean_zero=True)


def lipschitz(v):
    """max |d_j v_i| on the grid: the figure the flow map's substep rule and
    the solver's CFL step read."""
    return float(np.abs(gradient_tensor(v)).max())


def ladder_velocity(lad, grid, seed, kmax):
    """The seeded velocity scaled so that its mollification at ell_q has
    Lipschitz number M lambda_q delta_q^{1/2}, whatever the seed."""
    v = seeded_velocity(grid, seed, kmax)
    target = LIPSCHITZ_M * lad.lam[Q] * np.sqrt(lad.delta[Q])
    return (target / lipschitz(mollify_space(v, lad.ell[Q]))) * v


def drop_nyquist(f):
    """``f`` without its Nyquist planes, whose derivatives no real grid
    field can carry."""
    c = f.coeffs.copy()
    h = f.grid.n // 2
    c[:, h] = 0
    c[:, :, h] = 0
    c[..., h] = 0
    return SpectralField(f.grid, f.rank, c, f.mean_zero)


def build_ladder(tr):
    with tr.span("ladder.build"):
        return ladder(**LADDER)


def build_path(tr, dt, horizon, seed):
    with tr.span("noise.sample_path"):
        return sample_path(SpectrumSpec(**SPEC), dt, horizon, seed)


def stop(path, tr):
    with tr.span("noise.stopping_time"):
        return stopping_time(path, LADDER["L"], HOLDER_ALPHA, HOLDER_GAMMA,
                             sobolev_constant=LADDER["L"] / THRESHOLD)


def drift(mp, grid, tr):
    """z_eval handed to the Euler solver: the mollified path at the nearest
    path sample."""
    def z_eval(t):
        with tr.span("noise.field_at"):
            return mp.field_at(mp.path.index_of(t), grid)
    return tr.wrap("euler.solve.z_eval", z_eval)


def solve(v, z_eval, times, tr):
    with tr.span("euler.solve"):
        out, diag = solve_euler_with_drift(v, z_eval, times[0], times)
    tr.count("euler.solve.rk4_steps", diag["steps"])
    return out, diag


# ---------------------------------------------------------------------------
# accuracy probes: the stage on a seeded field, outside the timed units
# ---------------------------------------------------------------------------

def interpolation_probe(field, n_points, seed):
    cfg = SolverConfig()
    pts = np.random.default_rng([seed, 11]).uniform(0.0, 1.0, (3, n_points))
    values = SpectralInterpolant(field, cfg.pad_factor, cfg.interp_points)(pts)
    return checks.interpolation(values, checks.direct_sum(field.coeffs, pts))


def volume_probe(displacement):
    """The check on max |det grad Phi - 1|, and its grid RMS (the metric:
    the max of a random-phase field moves 15 % between seeds, the RMS 4 %)."""
    defect = checks.jacobian_defect(displacement)
    return checks.volume(defect), float(np.sqrt(np.mean(defect ** 2)))


def beltrami_probe(n, seed):
    """One drifted solve from an ABC field under a spatially constant drift
    U(t); the exact solution is v0(x - X(t)) with X' = U.  Each output
    interval (1/(8n)) takes one CFL step, so the error is RK4 truncation."""
    g = GridSpec(n)
    phases = np.random.default_rng([seed, 7]).uniform(0.0, 1.0, 3)
    amp, wavenumber = 0.1, 3
    h = 1.0 / (8 * n)
    u0, u1 = np.array([0.31, 0.23, 0.17]), np.array([0.05, -0.07, 0.03])
    omega = 2.0 * np.pi   # U varies slowly against the step h

    def z_eval(t):
        f = zeros(g, "vector3")
        f.coeffs[:, 0, 0, 0] = u0 + u1 * np.cos(omega * t)
        return f

    v0 = from_grid(checks.abc_samples(n, amp, wavenumber, phases), g,
                   "vector3", mean_zero=True)
    times = np.arange(7) * h
    out, diag = solve_euler_with_drift(v0, z_eval, 0.0, times)
    shift = u0 * times[-1] + u1 * np.sin(omega * times[-1]) / omega
    exact = checks.abc_samples(n, amp, wavenumber, phases - shift)
    return checks.translate(to_grid(out[-1]), exact), diag


def uniform_shift_probe(n, seed):
    g = GridSpec(n)
    c = np.random.default_rng([seed, 13]).uniform(-0.3, 0.3, 3)
    u = zeros(g, "vector3")
    u.coeffs[:, 0, 0, 0] = c
    fm = solve_flow_map(lambda t: u, [0.0, 0.01], g)
    return checks.uniform_shift(fm.displacements[1], c, 0.01)


def reference_probe(seed, sizes):
    """The accuracy metrics of the stages a workload does not run, from one
    fixed probe: the interpolant and a one-substep flow map of an ABC field,
    and the Beltrami solve, all at n = ``sizes.n_probe``.  The figures are
    the same on every workload that reports them; they are not checks."""
    n = sizes.n_probe
    phases = np.random.default_rng([seed, 5]).uniform(0.0, 1.0, 3)
    u = from_grid(checks.abc_samples(n, 0.15, 2, phases), GridSpec(n),
                  "vector3", mean_zero=True)
    fm = solve_flow_map(lambda t: u, [0.0, 0.01], u.grid)
    belt, _ = beltrami_probe(n, seed)
    return {"interp_err": interpolation_probe(u, sizes.points, seed).value,
            "flowmap_vol_defect": volume_probe(fm.displacements[1])[1],
            "euler_err": belt.value}


def mikado_checks(directions, flows, R):
    gam = gamma_coefficients(R, directions)
    W = [to_grid(f.W) for f in flows]
    V = [to_grid(f.V) for f in flows]
    return [checks.second_moment(gam, W, R), checks.mikado_identities(W, V)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed, sizes=FULL):
        self.seed = int(seed)
        self.sizes = sizes

    def warmup(self, inp, tr):
        return self.unit(inp, tr)


class StepN32(Workload):
    """One glued step q -> q+1 on three gluing windows of length tau."""

    name = "step-n32"
    STAR = 18     # evaluation time 1.5 tau (in units of tau/12): chi_1 = 1/2
    OUT = 2       # Euler outputs every tau/6: one CFL step each

    @property
    def n(self):
        return self.sizes.n_step

    def grids(self):
        return {"step": self.n, "flow_map": self.n, "probes": self.sizes.n_probe}

    def setup(self, tr):
        lad = build_ladder(tr)
        g = GridSpec(self.n)
        tau, iota = lad.tau[Q], lad.iota[Q]
        dt = tau / 3
        # the step starts once the one-sided mollifier of width iota sees
        # only path samples
        t0 = round(iota / dt) * dt
        path = build_path(tr, dt, t0 + 2 * tau, self.seed)
        with tr.span("noise.mollified_path"):
            mp = MollifiedPath(path, iota)
        v = ladder_velocity(lad, g, self.seed, kmax=self.n // 4)
        with tr.span("mikado.build_family_flows"):
            dirs = [build_direction_family(i) for i in (0, 1)]
            fams = [build_family_flows(d, self.sizes.mikado_lambda, g)
                    for d in dirs]
        tr.count("mikado.modes", sum(len(f.mode_k) for fl in fams for f in fl))
        # triangle-inequality bound of ||z||_{C_t C^{2+alpha}} from the
        # mode coordinates, for the local time limit
        k = np.sqrt(path.spec.k_squared())
        zb = np.sqrt(2.0) * np.sum(np.sqrt(path.spec.eigenvalues())
                                   * np.abs(mp.beta_z).max(axis=1)
                                   * (2 * np.pi * k) ** (2 + 0.05))
        return SimpleNamespace(grid=g, tau=tau, ell=lad.ell[Q], t0=t0,
                               delta_next=lad.delta[Q + 1], path=path, mp=mp,
                               v=v, dirs=dirs, fams=fams, z_bound=zb)

    def unit(self, inp, tr):
        g, tau, t0 = inp.grid, inp.tau, inp.t0
        h = tau / 12
        st = stop(inp.path, tr)
        horizon = min(2 * tau, st.value - t0)
        with tr.span("fields.mollify_space"):
            v_l = mollify_space(inp.v, inp.ell)
        with tr.span("euler.local_time_limit"):
            tau_limit = local_time_limit(v_l, inp.z_bound, horizon=horizon)
        s = np.arange(25) * h
        with tr.span("cutoffs.chi"):
            chi = ChiFamily(tau, s)
        with tr.span("cutoffs.eta"):
            eta = EtaFamily(tau, s, n_x1=g.n)
        z_eval = drift(inp.mp, g, tr)
        sols, diags = [], []
        for i in range(chi.n_windows):
            a, b = (round(x / h) for x in chi.window_span(i, horizon))
            idx = list(range(a, b + 1, self.OUT))
            out, diag = solve(v_l, z_eval, t0 + np.array(idx) * h, tr)
            sols.append(dict(zip(idx, out)))
            diags.append(diag)

        j = self.STAR
        v1, v2 = sols[1][j], sols[2][j]
        c1, dc1 = chi.values[1, j], chi.dvalues[1, j]
        w = v1 - v2
        with tr.span("fields.inverse_divergence"):
            Rw = inverse_divergence(w)
        with tr.span("fields.transforms"):
            Rw_g, w_g = to_grid(Rw), to_grid(w)
        glued = dc1 * Rw_g - c1 * (1 - c1) * outer_sym(w_g, w_g, traceless=True)

        def u_eval(t):
            """Window 1's velocity, linear in time between its outputs."""
            x = (t - t0) / (self.OUT * h)
            i = min(int(np.floor(x + 1e-9)), len(sols[1]) - 2)
            frac = x - i
            lo = sols[1][self.OUT * i]
            if abs(frac) < 1e-9:
                return lo
            return (1 - frac) * lo + frac * sols[1][self.OUT * (i + 1)]

        # the map of window 1 from its start, where the velocity is v_l, to
        # the gluing time: 1.5 tau ||grad v_l|| / 0.1 = 1.25, two substeps
        with tr.span("euler.flow_map"):
            fm = solve_flow_map(tr.wrap("euler.flow_map.u_eval", u_eval),
                                [t0, t0 + j * h], g)
        pos = fm.positions(1)

        full = checks.sym6_to_full(glued)
        rho = inp.delta_next + 2.0 * np.sqrt(np.max(np.sum(full ** 2, (0, 1))))
        M = np.eye(3).reshape(3, 3, 1, 1, 1) - full / rho
        with tr.span("mikado.gamma"):
            gam = gamma_coefficients(M, inp.dirs[1])
        with tr.span("mikado.eval_W"):
            Ws = [f.eval_W(pos) for f in inp.fams[1]]
        amp = np.sqrt(rho) * eta.on_grid(1, j, g.n)
        pert_g = amp * sum(gm * W for gm, W in zip(gam, Ws))
        tens_g = outer_sym(pert_g, pert_g, traceless=True) + glued
        with tr.span("fields.transforms"):
            pert = from_grid(pert_g, g, "vector3")
            tens = from_grid(tens_g, g, "symtensor3x3")
        v_new = c1 * v1 + (1 - c1) * v2 + pert
        target = differential(drop_nyquist(tens), "div")
        with tr.span("fields.inverse_divergence"):
            R_new = inverse_divergence(target)
        with tr.span("holder.holder_norm"):
            norms = (holder_norm(v_new, 1.5), holder_norm(R_new, 0.5))
        return SimpleNamespace(sols=sols, diags=diags, chi=chi, eta=eta,
                               fm=fm, u_end=v1, M=M, R_new=R_new,
                               target=target, norms=norms,
                               tau_limit=tau_limit)

    def checks(self, inp, out):
        rng = np.random.default_rng([self.seed, 17])
        x = tuple(rng.integers(0, self.n, 3))
        R = out.M[(slice(None), slice(None)) + x]
        interp = interpolation_probe(out.u_end, self.sizes.points, self.seed)
        vol, vol_rms = volume_probe(out.fm.displacements[1])
        res = [interp, vol,
               uniform_shift_probe(self.sizes.n_probe, self.seed),
               *mikado_checks(inp.dirs[1], inp.fams[1], R),
               checks.stress(to_grid(out.R_new), to_grid(out.target)),
               checks.divergence([to_grid(v) for sol in out.sols
                                  for v in sol.values()]),
               checks.partition(out.chi.values)]
        return res, {
            "interp_err": interp.value, "flowmap_vol_defect": vol_rms,
            "euler.solve.truncation_per_time":
                max(d["truncation_per_time"] for d in out.diags),
            "cutoffs.eta.overlap_defect": out.eta.overlap_defect()}


class EulerN64(Workload):
    """One gluing-window solve at n = 64 (window 0 up to tau, eight tau/8
    intervals) under the mollified-noise drift."""

    name = "euler-n64"

    @property
    def n(self):
        return self.sizes.n_euler

    def grids(self):
        return {"solve": self.n, "beltrami": self.n,
                "probes": self.sizes.n_probe}

    def setup(self, tr):
        lad = build_ladder(tr)
        g = GridSpec(self.n)
        tau, iota = lad.tau[Q], lad.iota[Q]
        dt = tau / 3
        t0 = round(iota / dt) * dt
        path = build_path(tr, dt, t0 + 4 * dt, self.seed)
        with tr.span("noise.mollified_path"):
            mp = MollifiedPath(path, iota)
        v = ladder_velocity(lad, g, self.seed, kmax=self.n // 3)
        return SimpleNamespace(grid=g, tau=tau, ell=lad.ell[Q], t0=t0,
                               path=path, mp=mp, v=v)

    def unit(self, inp, tr):
        with tr.span("fields.mollify_space"):
            v_l = mollify_space(inp.v, inp.ell)
        # outputs every tau/8: one CFL step each
        s = np.arange(9) * (inp.tau / 8)
        with tr.span("cutoffs.chi"):
            chi = ChiFamily(inp.tau, s)
        a, b = (round(x * 8 / inp.tau) for x in chi.window_span(0, s[-1]))
        out, diag = solve(v_l, drift(inp.mp, inp.grid, tr),
                          inp.t0 + s[a:b + 1], tr)
        return SimpleNamespace(out=out, diag=diag, chi=chi)

    def checks(self, inp, out):
        belt, _ = beltrami_probe(self.n, self.seed)
        res = [belt, checks.divergence([to_grid(v) for v in out.out]),
               checks.partition(out.chi.values)]
        return res, {"euler_err": belt.value,
                     "euler.solve.truncation_per_time":
                         out.diag["truncation_per_time"]}


class NoiseModes(Workload):
    """One pass over a seeded 256-mode Wiener path: stopping time, mollified
    path, B, z and dz/dt as fields at every sample, the Ito integral, the
    cutoff families on the path's time grid and the Mikado flows."""

    name = "noise-modes"
    DT = 1e-3
    LAMBDAS = (1, 2, 3)
    KEEP = 10

    def grids(self):
        return {"noise_fields": self.sizes.n_noise,
                "mikado": self.sizes.n_flows, "probes": self.sizes.n_probe,
                "path_steps": self.sizes.noise_steps, "path_dt": self.DT}

    def setup(self, tr):
        lad = build_ladder(tr)
        path = build_path(tr, self.DT, self.sizes.noise_steps * self.DT,
                          self.seed)
        warm = build_path(tr, self.DT, self.sizes.warm_steps * self.DT,
                          self.seed)
        dirs = [build_direction_family(i) for i in (0, 1)]
        return SimpleNamespace(grid=GridSpec(self.sizes.n_noise),
                               flow_grid=GridSpec(self.sizes.n_flows),
                               tau=lad.tau[Q], iota=lad.iota[Q], path=path,
                               warm=warm, dirs=dirs)

    def unit(self, inp, tr):
        return self._pass(inp, tr, inp.path)

    def warmup(self, inp, tr):
        return self._pass(inp, tr, inp.warm)

    def _pass(self, inp, tr, path):
        g = inp.grid
        st = stop(path, tr)
        with tr.span("noise.mollified_path"):
            # MollifiedPath needs iota within the horizon; the warm-up path
            # is shorter than iota
            mp = MollifiedPath(path, min(inp.iota, path.horizon))
        B, Z, dZ = [], [], []
        for i in range(path.n_steps + 1):
            with tr.span("noise.field_at"):
                B.append(path.field_at(i, g))
            with tr.span("noise.field_at"):
                z = mp.field_at(i, g)
            with tr.span("noise.field_at"):
                dz = mp.dfield_at(i, g)
            if i % self.KEEP == 0:    # the checks read every KEEP-th z, dz/dt
                Z.append(z)
                dZ.append(dz)
        with tr.span("noise.ito_integral"):
            ito = ito_integral(B, path)
        with tr.span("cutoffs.chi"):
            chi = ChiFamily(inp.tau, path.times)
        with tr.span("cutoffs.eta"):
            eta = EtaFamily(inp.tau, path.times, n_x1=g.n)
        for lam in self.LAMBDAS:
            with tr.span("mikado.build_family_flows"):
                fl = [build_family_flows(d, lam, inp.flow_grid)
                      for d in inp.dirs]
            tr.count("mikado.modes", sum(len(f.mode_k) for x in fl for f in x))
            if lam == self.LAMBDAS[0]:
                checked = fl[0]    # the checks read one family at one lambda
            del fl
        return SimpleNamespace(path=path, st=st, B=B, Z=Z, dZ=dZ, ito=ito,
                               chi=chi, eta=eta, flows=checked)

    def checks(self, inp, out):
        path, spec = out.path, out.path.spec
        c, ksq = spec.eigenvalues(), spec.k_squared()
        s, kappa = 3.5 + HOLDER_GAMMA, 0.5 - HOLDER_ALPHA
        running = checks.discrete_holder_norm(path.beta, c, ksq, path.dt, s,
                                              kappa)
        first = checks.stopping_index(running, THRESHOLD)
        expected = path.horizon if first is None else path.times[first]
        res = [checks.ito_identity(out.ito, path.beta, c),
               checks.stopping("stopping_time_scans_path", out.st.value,
                               expected)]
        # a threshold just under the running norm at a seeded sample where
        # it rises must stop exactly there
        rises = np.nonzero(running[1:] > running[:-1] * (1 + 1e-6))[0] + 1
        rng = np.random.default_rng([self.seed, 19])
        j = int(rng.choice(rises[rises <= path.n_steps // 4]))
        st = stopping_time(path, LADDER["L"], HOLDER_ALPHA, HOLDER_GAMMA,
                           sobolev_constant=LADDER["L"]
                           / (running[j] * (1 - 1e-9)))
        res.append(checks.stopping("stopping_time_crossing", st.value,
                                   path.times[j]))
        res.append(checks.parseval([to_grid(b) for b in out.B], path.beta.T,
                                   c))
        coeffs = [f.coeffs for f in out.B + out.Z + out.dZ]
        res += [checks.hermitian(coeffs), checks.spectral_divergence(coeffs)]
        again = sample_path(spec, path.dt, path.horizon, self.seed).beta
        other = sample_path(spec, path.dt, path.horizon, self.seed + 1).beta
        res += [checks.reproducible(path.beta, again, other),
                checks.partition(out.chi.values)]
        x = tuple(np.random.default_rng([self.seed, 23]).integers(0, 2, 3))
        R = np.eye(3) + 0.1 * np.array([[0, x[0], x[1]], [x[0], 0, x[2]],
                                        [x[1], x[2], 0]])
        res += mikado_checks(inp.dirs[0], out.flows, R)
        return res, {"cutoffs.eta.overlap_defect": out.eta.overlap_defect()}


WORKLOADS = {w.name: w for w in (StepN32, EulerN64, NoiseModes)}


@contextmanager
def instrument(tr):
    """During a traced run, time the flow map's interpolant builds and calls
    by handing ``solve_flow_map`` a subclass that records spans."""
    if not tr.enabled:
        yield
        return
    base = euler.SpectralInterpolant

    class Traced(base):
        def __init__(self, *args, **kw):
            with tr.span("euler.interpolant.build"):
                super().__init__(*args, **kw)

        def __call__(self, points, order=None):
            if order is None:   # velocity stages; the composition passes one
                tr.count("euler.flow_map.velocity_calls")
            with tr.span("euler.interpolant.call"):
                return super().__call__(points, order)

    euler.SpectralInterpolant = Traced
    try:
        yield
    finally:
        euler.SpectralInterpolant = base
