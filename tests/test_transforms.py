"""The grid transforms of ``fields``: one batched path on 1 or 2 workers,
bitwise equal to one transform per component and to one worker."""

import os
import subprocess
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest
from scipy import fft

from cilab import GridSpec, from_grid, to_grid
from cilab import fields
from cilab.euler import SpectralInterpolant
from cilab.fields import _sup, gradient_tensor, spectral_tables
from cilab.holder import holder_norm


def _white(n, ncomp, seed):
    return np.random.default_rng(seed).standard_normal((ncomp,) + (n,) * 3)


def _cpus(monkeypatch, cpus):
    monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)


class TestWorkers:
    @pytest.mark.parametrize("n, cpus, workers",
                             [(32, 2, 1), (48, 1, 1), (48, 2, 2), (64, 4, 2)])
    def test_rule(self, monkeypatch, n, cpus, workers):
        seen = []

        def spy(transform):
            def call(*args, **kwargs):
                seen.append(kwargs["workers"])
                return transform(*args, **kwargs)
            return call

        _cpus(monkeypatch, cpus)
        for name in ("rfftn", "ifftn", "irfft"):
            monkeypatch.setattr(fields._fft, name, spy(getattr(fft, name)))
        to_grid(from_grid(_white(n, 1, n), GridSpec(n), "scalar"))
        # the forward transform, then the inverse's two passes
        assert seen == [workers] * 3

    @pytest.mark.parametrize("n", [48, 64])
    def test_outputs_do_not_depend_on_workers(self, monkeypatch, n):
        g = GridSpec(n)
        samples = _white(n, 3, n)
        runs = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            v = from_grid(samples, g, "vector3")
            rep = holder_norm(v, 2.5)
            runs.append((v.coeffs, to_grid(v), gradient_tensor(v),
                         (rep.c0, rep.c1, rep.c2, rep.seminorm),
                         SpectralInterpolant(
                             from_grid(samples[0], g, "scalar")).spline))
        one, two = runs
        for a, b in zip(one, two):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [16, 48])
def test_gradient_tensor_matches_per_row_transforms(n):
    v = from_grid(_white(n, 3, n + 1), GridSpec(n), "vector3")
    deriv = spectral_tables(n).deriv
    rows = []
    for i in range(3):
        c = np.stack([deriv[j] * v.coeffs[i] for j in range(3)])
        rows.append(fft.irfftn(c, s=(n,) * 3, axes=(1, 2, 3), norm="forward"))
    assert np.array_equal(gradient_tensor(v), np.stack(rows))


@pytest.mark.parametrize("n", [16, 48])
@pytest.mark.parametrize("rank, ncomp", [("scalar", 1), ("vector3", 3)])
def test_derivative_levels_match_per_index_transforms(n, rank, ncomp):
    f = from_grid(_white(n, ncomp, n + 2), GridSpec(n), rank)
    deriv = spectral_tables(n).deriv
    for level in range(3):
        got = fields.derivative_grids(f, level)
        alphas = list(combinations_with_replacement(range(3), level))
        assert got.shape == (len(alphas), ncomp, n, n, n)
        for samples, alpha in zip(got, alphas):
            c = f.coeffs
            for ax in alpha:
                c = deriv[ax] * c
            ref = fft.irfftn(c, s=(n,) * 3, axes=(1, 2, 3), norm="forward")
            assert np.array_equal(samples, ref)


@pytest.mark.parametrize("values", [
    [0.0], [-0.0], [0.0, -0.0], [-0.0, 0.0], [-3.0, 2.0], [3.0, -2.0],
    [-np.inf, 1.0], [1e-300, -5e-324]])
def test_sup_is_max_abs_bitwise(values):
    a = np.array(values)
    got, ref = _sup(a), float(np.abs(a).max())
    assert got == ref and np.signbit(got) == np.signbit(ref)


def test_sup_propagates_nan():
    assert np.isnan(_sup(np.array([1.0, np.nan, -2.0])))


class TestConsumingInverse:
    """``_inverse_transform`` overwrites its input to hold two full arrays,
    not three; its samples are scipy ``irfftn``'s, bit for bit."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("n", [16, 48, 64])
    @pytest.mark.parametrize("ncomp", [1, 3, 6, 9])
    def test_matches_irfftn(self, monkeypatch, cpus, n, ncomp):
        _cpus(monkeypatch, cpus)
        c = fft.rfftn(_white(n, ncomp, 10 * n + ncomp), axes=(1, 2, 3),
                      norm="forward")
        ref = fft.irfftn(c, s=(n,) * 3, axes=(1, 2, 3), norm="forward")
        assert np.array_equal(fields._inverse_transform(c), ref)

    @pytest.mark.parametrize("n", [16, 48])
    @pytest.mark.parametrize("m", [1, 4, 8])
    def test_narrow_spectra_are_zero_padded(self, n, m):
        # (..., n, n, m) with m < n/2 + 1 columns: the missing ones are zero
        c = fft.rfftn(_white(n, 3, n + m), axes=(1, 2, 3),
                      norm="forward")[..., :m]
        wide = np.zeros(c.shape[:-1] + (n // 2 + 1,), dtype=complex)
        wide[..., :m] = c
        assert np.array_equal(fields._inverse_transform(c.copy()),
                              fields._inverse_transform(wide))

    @pytest.mark.parametrize("rank, ncomp", [("scalar", 1), ("vector3", 3)])
    def test_to_grid_and_c0_norm_keep_the_field(self, rank, ncomp):
        f = from_grid(_white(16, ncomp, 3), GridSpec(16), rank)
        kept = f.coeffs.copy()
        to_grid(f)
        assert np.array_equal(f.coeffs, kept)
        fields.c0_norm(f)
        assert np.array_equal(f.coeffs, kept)


_PEAK_SCRIPT = """
import sys
import numpy as np
from cilab import GridSpec, from_grid, to_grid
from cilab.fields import gradient_tensor


def status(key):
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1]) * 1024


n = int(sys.argv[1])
g = GridSpec(n)
v = from_grid(np.random.default_rng(1).standard_normal((3, n, n, n)), g,
              "vector3")
to_grid(from_grid(np.zeros((n, n, n)), g, "scalar"))   # plans for n
now = status("VmRSS")
gradient_tensor(v)
print(status("VmHWM") - now)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmRSS and VmHWM from /proc/self/status")
def test_gradient_tensor_peak_is_its_spectra_and_grids():
    # pocketfft allocates the copy that irfftn makes in C++, where
    # tracemalloc does not see it, so the peak resident memory of a fresh
    # interpreter is read instead (VmHWM, not ru_maxrss, which keeps the
    # resident size of the process that forked it): irfftn rises by 1.5
    # times the arrays, this path by 1.0-1.1 (pocketfft's line buffers and
    # page rounding)
    n = 32
    src = Path(fields.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, str(n)],
                         env=env, capture_output=True, text=True, check=True)
    rise = int(out.stdout)
    arrays = 9 * n * n * (n // 2 + 1) * 16 + 9 * n ** 3 * 8
    assert rise <= 1.1 * arrays
