"""Tests of the benchmark itself: every check passes on sound output and
fails on a deliberately corrupted copy, the traced figures add up, and a
tiny-size run of each workload finishes in seconds.

    python3 -m pytest stepbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cilab import GridSpec  # noqa: E402
from cilab.euler import SpectralInterpolant, solve_flow_map  # noqa: E402
from cilab.fields import to_grid  # noqa: E402
from cilab.mikado import (build_direction_family,  # noqa: E402
                          build_family_flows, gamma_coefficients)
from cilab.noise import (SpectrumSpec, ito_integral, sample_path,  # noqa: E402
                         stopping_time)
from tracer import Tracer, layer_times  # noqa: E402

G = GridSpec(16)


def both(check_ok, check_bad):
    assert check_ok.passed, check_ok
    assert not check_bad.passed, check_bad


@pytest.fixture(scope="module")
def velocity():
    from cilab.fields import l2_norm
    v = workloads.seeded_velocity(G, 3, kmax=4)
    return (0.15 / l2_norm(v)) * v


@pytest.fixture(scope="module")
def path():
    return sample_path(SpectrumSpec(**workloads.SPEC), 1e-3, 0.064, seed=4)


def test_interpolation(velocity):
    pts = np.random.default_rng(0).uniform(0, 1, (3, 300))
    values = SpectralInterpolant(velocity)(pts)
    exact = checks.direct_sum(velocity.coeffs, pts)
    both(checks.interpolation(values, exact),
         checks.interpolation(values + 1e-6, exact))


def test_direct_sum_matches_grid(velocity):
    pts = G.mesh()[:, ::5, ::3, ::2].reshape(3, -1)
    grid = to_grid(velocity)[:, ::5, ::3, ::2].reshape(3, -1)
    assert np.max(np.abs(checks.direct_sum(velocity.coeffs, pts) - grid)) \
        < 1e-14


def test_volume(velocity):
    fm = solve_flow_map(lambda t: velocity, [0.0, 0.01], G)
    disp = fm.displacements[1]
    x = G.mesh()[0]
    squeezed = disp.copy()
    squeezed[0] += 1e-6 * np.sin(2 * np.pi * x)    # det grad Phi moves off 1
    both(checks.volume(checks.jacobian_defect(disp)),
         checks.volume(checks.jacobian_defect(squeezed)))


def test_uniform_shift():
    assert workloads.uniform_shift_probe(16, 1).passed
    c = np.array([0.1, -0.2, 0.3])
    exact = -c[:, None, None, None] * 0.01 + np.zeros((3, 4, 4, 4))
    both(checks.uniform_shift(exact, c, 0.01),
         checks.uniform_shift(exact + 1e-9, c, 0.01))


def test_ladder_velocity_sits_on_the_inductive_bound():
    from cilab.fields import mollify_space
    from cilab.ladder import ladder
    lad = ladder(**workloads.LADDER)
    target = workloads.LIPSCHITZ_M * lad.lam[0] * np.sqrt(lad.delta[0])
    for seed in (1, 2):
        v = workloads.ladder_velocity(lad, G, seed, kmax=4)
        v_l = mollify_space(v, lad.ell[0])
        assert workloads.lipschitz(v_l) == pytest.approx(target, rel=1e-12)


def test_drop_nyquist():
    from cilab.fields import from_grid
    samples = np.random.default_rng(1).standard_normal((3, 16, 16, 16))
    f = from_grid(samples, G, "vector3")
    c = workloads.drop_nyquist(f).coeffs
    k = np.abs(np.fft.fftfreq(16, 1 / 16))
    kz = np.arange(9)
    nyq = ((k[:, None, None] == 8) | (k[None, :, None] == 8)
           | (kz[None, None, :] == 8))
    assert np.all(c[:, nyq] == 0)
    assert np.array_equal(c[:, ~nyq], f.coeffs[:, ~nyq])


def test_reference_probe():
    values = workloads.reference_probe(3, workloads.TINY)
    assert set(values) == set(run.ACCURACY)
    assert all(0 < v < 1e-6 for v in values.values())


def test_mikado():
    fam = build_direction_family(0)
    flows = build_family_flows(fam, 1, G)
    R = np.eye(3) + 0.1 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    ok = workloads.mikado_checks(fam, flows, R)
    assert all(c.passed for c in ok)
    gam = gamma_coefficients(R, fam)
    W = [to_grid(f.W) for f in flows]
    V = [to_grid(f.V) for f in flows]
    assert not checks.second_moment(gam * (1 + 1e-8), W, R).passed
    assert not checks.mikado_identities(W, [1.001 * v for v in V]).passed
    x = G.mesh()[0]
    bent = [w + 1e-6 * np.stack([np.sin(2 * np.pi * x)] * 3) for w in W]
    assert not checks.mikado_identities(bent, V).passed


def test_stress(velocity):
    from cilab.fields import inverse_divergence
    R = to_grid(inverse_divergence(velocity))
    target = to_grid(velocity)
    traced = R.copy()
    traced[0] += 1e-8 * np.max(np.abs(target))
    both(checks.stress(R, target), checks.stress(traced, target))
    both(checks.stress(R, target), checks.stress(R, 1.001 * target))


def test_divergence(velocity):
    v = to_grid(velocity)
    x = G.mesh()[0]
    leaky = v.copy()
    leaky[0] += 1e-8 * np.sin(2 * np.pi * x)
    both(checks.divergence([v]), checks.divergence([v, leaky]))


def test_beltrami_translate():
    ok, _ = workloads.beltrami_probe(16, 2)
    assert ok.passed
    phases = np.array([0.1, 0.2, 0.3])
    exact = checks.abc_samples(16, 0.1, 3, phases)
    off = checks.abc_samples(16, 0.1, 3, phases + 1e-7)
    assert not checks.translate(off, exact).passed


def test_ito_identity(path):
    B = [path.field_at(i, G) for i in range(path.n_steps + 1)]
    running = ito_integral(B, path)
    c = path.spec.eigenvalues()
    # drop the j-th increment's term from the sum
    j = 10
    term = np.sum(c * path.beta[:, j] * path.increments[:, j])
    both(checks.ito_identity(running, path.beta, c),
         checks.ito_identity(running - term, path.beta, c))


def test_stopping_time_matches_vectorized_norm(path):
    c, ksq = path.spec.eigenvalues(), path.spec.k_squared()
    running = checks.discrete_holder_norm(path.beta, c, ksq, path.dt,
                                          3.51, 0.4)
    j = 20 + int(np.argmax(running[21:] > running[20:-1] * (1 + 1e-6))) + 1
    threshold = running[j] * (1 - 1e-9)
    L = 24.0
    st = stopping_time(path, L, 0.1, 0.01, sobolev_constant=L / threshold)
    assert checks.stopping_index(running, threshold) == j
    both(checks.stopping("x", st.value, path.times[j]),
         checks.stopping("x", st.value, path.times[j + 1]))


def test_parseval_hermitian_divergence(path):
    B = [path.field_at(i, G) for i in range(0, path.n_steps + 1, 8)]
    cols = path.beta.T[::8]
    c = path.spec.eigenvalues()
    grids = [to_grid(b) for b in B]
    both(checks.parseval(grids, cols, c),
         checks.parseval([1.0001 * g for g in grids], cols, c))
    coeffs = [b.coeffs for b in B]
    assert checks.hermitian(coeffs).passed
    assert checks.spectral_divergence(coeffs).passed
    bad = coeffs[-1].copy()
    bad[:, 1, 0, 0] += 1e-3 * np.abs(bad).max()    # c(-k) != conj c(k)
    assert not checks.hermitian(coeffs[:-1] + [bad]).passed
    bad = coeffs[-1].copy()
    bad[0, 1, 0, 0] += 1e-3 * np.abs(bad).max()    # k . c_k != 0
    assert not checks.spectral_divergence(coeffs[:-1] + [bad]).passed


def test_reproducible(path):
    spec = path.spec
    again = sample_path(spec, path.dt, path.horizon, 4).beta
    other = sample_path(spec, path.dt, path.horizon, 5).beta
    both(checks.reproducible(path.beta, again, other),
         checks.reproducible(path.beta, again, again))
    assert not checks.reproducible(path.beta, other, other).passed


def test_partition():
    from cilab.cutoffs import ChiFamily
    chi = ChiFamily(0.05, np.linspace(0, 0.2, 81))
    bad = chi.values.copy()
    bad[1, 40] += 1e-9
    both(checks.partition(chi.values), checks.partition(bad))


def test_layer_times_self_time():
    tr = Tracer()
    tr.spans = [["setup", 0.0, 1.0, -1], ["ladder.build", 0.1, 0.3, 0],
                ["unit", 2.0, 4.0, -1], ["euler.solve", 2.0, 3.5, 2],
                ["euler.solve.z_eval", 2.1, 2.6, 3],
                ["unit", 5.0, 7.0, -1], ["euler.solve", 5.0, 6.0, 5]]
    lt = layer_times(tr)
    solve = lt["layers"]["euler.solve"]
    assert solve["self_s"] == pytest.approx((1.0 + 1.0) / 2)
    assert solve["calls"] == pytest.approx(1.0)
    assert lt["layers"]["ladder.build"]["self_s"] == pytest.approx(0.2)
    assert lt["unattributed_s"] == pytest.approx((0.5 + 1.0) / 2)


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = {m: u for m, (u, _, _) in run.PER_LAYER.items()}
    printed.update({m: "1" for m in run.READINGS})
    assert per_layer == printed
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(name, trace, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    monkeypatch.setattr(run, "MIN_SETUPS", 2)
    monkeypatch.setattr(run, "MIN_UNITS", 1)
    line, record, spans = run.run_workload(name, 7, 0.0, trace,
                                           workloads.TINY)
    assert line["correct"] and line["failed"] == 0, record["checks"]
    names = ({m for m, _ in run.END_TO_END} if not trace
             else set(run.PER_LAYER) | set(run.READINGS))
    assert set(line["metrics"]) == names
    assert all(np.isfinite(m["value"]) for m in line["metrics"].values())
    if trace:
        unit = line["metrics"]["step.unit_s"]["value"]
        assert line["metrics"]["step.unattributed_s"]["value"] < 0.05 * unit
    if trace and name == "step-n32":
        # two RK4 substeps, so the interpolant cache is hit once: five
        # velocity builds, one u_eval for the substep rule
        assert line["metrics"]["euler.flow_map.substeps"]["value"] == 2
        assert line["metrics"]["euler.flow_map.u_eval.calls"]["value"] == 6


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "step-n32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
