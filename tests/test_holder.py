import numpy as np
import pytest

from cilab import GridSpec, differential, from_grid, to_grid
from cilab.fields import zeros
from cilab.holder import holder_norm


GRID = GridSpec(64)


def test_zero_field_all_zero():
    rep = holder_norm(zeros(GRID, "scalar"), 0.5)
    assert rep.c0 == 0.0 and rep.c1 == 0.0
    assert all(v == 0.0 for v in rep.seminorms.values())


def test_single_mode_norms():
    x = GRID.mesh()[0]
    f = from_grid(np.sin(2 * np.pi * x), GRID, "scalar")
    rep = holder_norm(f, 1.0)
    assert rep.c0 == pytest.approx(1.0, abs=1e-3)
    # only the x1 derivative is nonzero: c1 - c0 = max |2 pi cos| = 2 pi
    assert rep.c1 - rep.c0 == pytest.approx(2 * np.pi, abs=1e-2)


def test_c0_below_full_norm():
    rng = np.random.default_rng(0)
    f = from_grid(rng.standard_normal((GRID.n,) * 3), GRID, "scalar")
    rep = holder_norm(f, 0.4)
    assert rep.c0 <= rep.value(0.4)


@pytest.mark.parametrize("other", [0.0, 0.7, 1.0, 1.4])
def test_value_rejects_order_not_built(other):
    rng = np.random.default_rng(2)
    f = from_grid(rng.standard_normal((16,) * 3), GridSpec(16), "scalar")
    rep = holder_norm(f, 0.4, n_pairs=500)
    assert rep.order == 0.4
    assert rep.value(0.4) == rep.c0 + rep.seminorms[0.4]
    with pytest.raises(ValueError, match="built at order 0.4"):
        rep.value(other)


def test_seminorm_scaling_consistency():
    # with k_hi > k_lo: [f]_{k_hi} >= [f]_{k_lo} * diam^{k_lo - k_hi}
    # (diam = 1/2 on the torus); same seed so both use the same pairs
    rng = np.random.default_rng(1)
    f = from_grid(rng.standard_normal((GRID.n,) * 3), GRID, "scalar")
    lo = holder_norm(f, 0.3, seed=5).seminorms[0.3]
    hi = holder_norm(f, 0.7, seed=5).seminorms[0.7]
    assert hi >= lo * 0.5 ** (0.3 - 0.7) * (1 - 1e-12)


def test_rejects_bad_order():
    f = zeros(GRID, "scalar")
    with pytest.raises(ValueError):
        holder_norm(f, 3.5)


def test_lower_bound_of_known_seminorm():
    # f(x) = |sin(2 pi x1)|^0.5-like roughness: use a Weierstrass-type sum
    x = GRID.mesh()[0]
    theta = 0.5
    f_samples = sum(2.0 ** (-j * theta) * np.cos(2 * np.pi * 2**j * x)
                    for j in range(5))
    f = from_grid(f_samples, GRID, "scalar")
    rep = holder_norm(f, theta, n_pairs=20000)
    assert rep.seminorms[theta] > 1.0  # genuinely rough at exponent 0.5


def test_c1_matches_differential_with_nyquist_content():
    # white noise has modes on the Nyquist planes |k_i| = n/2, where every
    # derivative of a real grid field is zero
    rng = np.random.default_rng(0)
    f = from_grid(rng.standard_normal((16,) * 3), GridSpec(16), "scalar")
    rep = holder_norm(f, 1.0)
    grad = to_grid(differential(f, "grad"))
    expected = sum(float(np.max(np.abs(g))) for g in grad)
    assert rep.c1 - rep.c0 == pytest.approx(expected, rel=1e-12)
