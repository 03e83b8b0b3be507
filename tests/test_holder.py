import numpy as np
import pytest

from cilab import GridSpec, differential, from_grid, to_grid
from cilab.fields import gradient_tensor, zeros
from cilab.holder import holder_norm


GRID = GridSpec(64)


def test_zero_field_all_zero():
    rep = holder_norm(zeros(GRID, "scalar"), 0.5)
    assert rep.c0 == 0.0 and rep.c1 == 0.0
    assert rep.seminorm == 0.0


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
    rep = holder_norm(f, 0.4)
    assert rep.order == 0.4
    assert rep.value(0.4) == rep.c0 + rep.seminorm
    with pytest.raises(ValueError, match="built at order 0.4"):
        rep.value(other)


def test_seminorm_scaling_consistency():
    # with k_hi > k_lo: [f]_{k_hi} >= [f]_{k_lo} * diam^{k_lo - k_hi}
    # (diam = 1/2 on the torus)
    rng = np.random.default_rng(1)
    f = from_grid(rng.standard_normal((GRID.n,) * 3), GRID, "scalar")
    lo = holder_norm(f, 0.3).seminorm
    hi = holder_norm(f, 0.7).seminorm
    assert hi >= lo * 0.5 ** (0.3 - 0.7) * (1 - 1e-12)


def test_rejects_bad_order():
    f = zeros(GRID, "scalar")
    with pytest.raises(ValueError):
        holder_norm(f, 3.5)


# unchecked, int(np.floor(nan)) fails before the order check runs
@pytest.mark.parametrize("order", [np.nan, np.inf, -np.inf])
def test_rejects_order_not_finite(order):
    with pytest.raises(ValueError, match=r"order must be N \+ kappa"):
        holder_norm(zeros(GridSpec(8), "scalar"), order)


def test_lower_bound_of_known_seminorm():
    # f(x) = |sin(2 pi x1)|^0.5-like roughness: use a Weierstrass-type sum
    x = GRID.mesh()[0]
    theta = 0.5
    f_samples = sum(2.0 ** (-j * theta) * np.cos(2 * np.pi * 2**j * x)
                    for j in range(5))
    f = from_grid(f_samples, GRID, "scalar")
    rep = holder_norm(f, theta)
    assert rep.seminorm > 1.0  # genuinely rough at exponent 0.5


def test_c1_matches_differential_with_nyquist_content():
    # white noise has modes on the Nyquist planes |k_i| = n/2, where every
    # derivative of a real grid field is zero
    rng = np.random.default_rng(0)
    f = from_grid(rng.standard_normal((16,) * 3), GridSpec(16), "scalar")
    rep = holder_norm(f, 1.0)
    grad = to_grid(differential(f, "grad"))
    expected = sum(float(np.max(np.abs(g))) for g in grad)
    assert rep.c1 - rep.c0 == pytest.approx(expected, rel=1e-12)


def _brute_force_seminorm(samples, kappa):
    """Max of |f(x) - f(y)| / |x - y|^kappa over every grid point x, axis j
    and dyadic gap h, with y = x + h e_j on the torus, one pair at a time.
    ``samples`` has the grid on its last three axes."""
    n = samples.shape[-1]
    flat = samples.reshape(-1, n, n, n)
    gaps = [2**p for p in range(int(np.log2(n)))]
    best = 0.0
    for x in np.ndindex(n, n, n):
        for axis in range(3):
            for h in gaps:
                y = list(x)
                y[axis] = (y[axis] + h) % n
                dist = min(h, n - h) / n
                diff = np.max(np.abs(flat[(slice(None),) + x]
                                     - flat[(slice(None),) + tuple(y)]))
                best = max(best, diff / dist**kappa)
    return best


@pytest.mark.parametrize("rank, order", [("scalar", 0.3), ("vector3", 1.5)])
def test_seminorm_matches_brute_force(rank, order):
    # the mode along x3 puts the maximum on the last axis, at gap n/2 for
    # the scalar; the noise makes the pairs distinct
    grid = GridSpec(8)
    shape = (8,) * 3 if rank == "scalar" else (3,) + (8,) * 3
    samples = (np.cos(2 * np.pi * grid.mesh()[2])
               + 0.02 * np.random.default_rng(4).standard_normal(shape))
    f = from_grid(samples, grid, rank)
    derivatives = to_grid(f) if order < 1 else gradient_tensor(f)
    expected = _brute_force_seminorm(derivatives, order % 1)
    assert holder_norm(f, order).seminorm == pytest.approx(expected,
                                                            rel=1e-14)


@pytest.mark.parametrize("order", [0.5, 1.5])
def test_seminorm_invariant_under_grid_translation(order):
    grid = GridSpec(16)
    rng = np.random.default_rng(3)
    samples = rng.standard_normal((3,) + (16,) * 3)
    f = from_grid(samples, grid, "vector3")
    shifted = from_grid(np.roll(samples, (5, -3, 7), axis=(1, 2, 3)), grid,
                        "vector3")
    assert holder_norm(f, order) == holder_norm(f, order)
    assert (holder_norm(shifted, order).seminorm
            == pytest.approx(holder_norm(f, order).seminorm, rel=1e-12))
