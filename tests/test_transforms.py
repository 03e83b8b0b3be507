"""The grid transforms of ``fields``: one batched path on 1 or 2 workers,
bitwise equal to one transform per component and to one worker."""

from itertools import combinations_with_replacement

import numpy as np
import pytest
from scipy import fft

from cilab import GridSpec, from_grid, to_grid
from cilab import fields, holder
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
        monkeypatch.setattr(fields._fft, "rfftn", spy(fft.rfftn))
        monkeypatch.setattr(fields._fft, "irfftn", spy(fft.irfftn))
        to_grid(from_grid(_white(n, 1, n), GridSpec(n), "scalar"))
        assert seen == [workers, workers]

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
    levels = holder._derivative_levels(f, 2)
    assert sorted(levels) == [0, 1, 2]
    for level, got in levels.items():
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
