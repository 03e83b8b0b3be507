"""Pipe-flow building blocks and the geometric decomposition of symmetric
matrices near the identity.

Two frozen, disjoint families of six rational unit directions carry the
decomposition R = sum_xi gamma_xi^2(R) xi (x) xi via an exact 6x6 linear
solve; the tables are constants that tier-1 certifies once (unit, disjoint,
a zero component per direction, Gram-invertible, positive at Id).  Each
direction gets a stationary pressureless pipe flow built spectrally on the
lattice orthogonal to it, so the defining identities (div W = 0, curl V =
W, xi.grad phi = 0, unit second moment) hold to rounding by construction.

Support disjointness is genuinely unreachable at desk scale: spectral
confinement to the coarse pipe lattice bounds the number of zeros any
profile can have (a degree-d trigonometric polynomial has at most 2d zeros
per period), and the axis lines of two rational pipes always pass within
1/(2|d x d'|) of each other regardless of shifts.  The builder therefore
keeps exact spectral identities and reports the measured support overlap.
"""

from dataclasses import dataclass, field

import numpy as np

from .fields import SYM_INDEX, SYM_WEIGHT, ModeTable, SpectralField, zeros
from .grids import GridSpec, is_integer

# frozen direction families: integer numerators over _DENOMINATOR, the one
# pipe denominator; their identity coefficients are all 1/2
_FAMILY_NUMERATORS = (
    ((0, 4, -3), (0, 4, 3), (3, 0, -4), (3, 0, 4), (4, -3, 0), (4, 3, 0)),
    ((0, 3, -4), (0, 3, 4), (3, -4, 0), (3, 4, 0), (4, 0, -3), (4, 0, 3)),
)
_DENOMINATOR = 5

# shifts from a 1/80-lattice search maximizing the min pairwise distance of
# the pipe axes (the attainable distance is capped near 0.021 by the lattice
# geometry; see module docstring)
_FAMILY_SHIFTS = (
    ((0.5125, 0.2125, 0.8875), (0.4875, 0.7375, 0.9625),
     (0.1125, 0.0375, 0.4125), (0.6375, 0.0125, 0.2375),
     (0.8625, 0.5000, 0.8875), (0.0875, 0.4875, 0.2875)),
    ((0.3750, 0.9625, 0.3375), (0.1875, 0.0000, 0.9625),
     (0.4375, 0.3625, 0.8375), (0.6625, 0.3375, 0.6125),
     (0.7375, 0.8875, 0.9625), (0.3500, 0.9500, 0.6250)),
)


@dataclass(frozen=True)
class DirectionFamily:
    """One of the two frozen 6-direction families: a value, equal and
    hashed by ``index``, whose read-only arrays are built in one pass:
    ``numerators`` (6, 3) int, the directions times ``_DENOMINATOR``,
    ``shifts`` (6, 3) in [0, 1), and the solver's ``gram_inv`` (6, 6),
    ``id_coefficients`` (6,) and ``dual_norms`` (6,)."""

    index: int
    numerators: np.ndarray = field(init=False, repr=False, compare=False)
    shifts: np.ndarray = field(init=False, repr=False, compare=False)
    gram_inv: np.ndarray = field(init=False, repr=False, compare=False)
    id_coefficients: np.ndarray = field(init=False, repr=False,
                                        compare=False)
    dual_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (is_integer(self.index) and 0 <= self.index <= 1):
            raise ValueError(f"family index {self.index!r} is not 0 or 1")

        def store(name, value):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

        store("numerators", np.array(_FAMILY_NUMERATORS[self.index], int))
        store("shifts", np.array(_FAMILY_SHIFTS[self.index]))
        d = self.directions()
        # columns: xi (x) xi in the fields.SYM_INDEX component layout
        store("gram_inv", np.linalg.inv(
            np.stack([d[:, i] * d[:, j] for (i, j) in SYM_INDEX])))
        store("id_coefficients", decomposition_coefficients(np.eye(3), self))
        # c_i(R) = <M_i, R>_F with M_i = row_i / SYM_WEIGHT, so the Frobenius
        # dual norm of c_i is |M_i|_F = sqrt(sum row_i^2 / SYM_WEIGHT)
        store("dual_norms", np.sqrt(np.sum(self.gram_inv**2 / SYM_WEIGHT,
                                           axis=1)))

    def directions(self) -> np.ndarray:
        return self.numerators / _DENOMINATOR

    def certified_radius(self) -> float:
        """Exact radius (Frobenius) of the ball around Id on which all
        decomposition coefficients stay positive."""
        return float(np.min(self.id_coefficients / self.dual_norms))

    def gamma_derivative_sup(self) -> float:
        """Exact sup of |d gamma_xi / d R_s| over xi, the 6 components s of
        ``SYM_INDEX`` and the ball |R - Id|_F <= r, r = 0.98 min(certified
        radius, 1/2): the smoothness constant of the decomposition.

        gamma_xi = sqrt(c_xi) with c_xi affine in R, so the derivative is
        gram_inv[xi, s] / (2 sqrt(c_xi(R))), largest where c_xi is least,
        at R = Id - r M_xi / |M_xi|_F, where c_xi = c_xi(Id) - r |M_xi|_F.
        """
        r = 0.98 * min(self.certified_radius(), 0.5)
        c_min = self.id_coefficients - r * self.dual_norms
        return float(np.max(np.abs(self.gram_inv).max(axis=1)
                            / (2.0 * np.sqrt(c_min))))


def build_direction_family(index: int) -> DirectionFamily:
    """Return one of the two frozen families."""
    return DirectionFamily(index)


# ---------------------------------------------------------------------------
# decomposition coefficients
# ---------------------------------------------------------------------------

def decomposition_coefficients(R, family: DirectionFamily) -> np.ndarray:
    """Solve sum_xi c_xi xi(x)xi = R; c is affine-linear in R.

    Accepts a single symmetric 3x3 matrix or a field of them with shape
    (3, 3, ...); returns (6,) or (6, ...).
    """
    R = np.asarray(R, dtype=float)
    v = np.stack([R[i, j] for (i, j) in SYM_INDEX])
    return np.einsum("ab,b...->a...", family.gram_inv, v)


def gamma_coefficients(R, family: DirectionFamily):
    """gamma_xi(R) = sqrt(c_xi(R)) for R in the ball |R - Id|_F <= 1/2.

    Every c_xi is positive on the certified ball |R - Id|_F <=
    ``family.certified_radius()``, 0.4631 for both families; between it and
    1/2 an R where some c_xi <= 0 raises a ValueError naming that radius.
    """
    R = np.asarray(R, dtype=float)
    dev = R - np.eye(3).reshape((3, 3) + (1,) * (R.ndim - 2))
    frob = np.sqrt(np.sum(dev**2, axis=(0, 1)))
    worst = float(np.max(frob))
    if not worst <= 0.5 + 1e-12:   # a NaN norm fails this test too
        why = " > 1/2" if worst < np.inf else ": R is not finite"
        raise ValueError("R outside the admissible ball: |R - Id|_F = "
                         f"{worst:.4f}{why}")
    c = decomposition_coefficients(R, family)
    at = np.unravel_index(np.argmin(c), c.shape)
    if c[at] <= 0.0:
        raise ValueError(
            f"family {family.index}: decomposition coefficient {c[at]:.3e} "
            f"<= 0 at |R - Id|_F = {np.asarray(frob)[at[1:]]:.4f}, outside "
            f"the certified ball of radius {family.certified_radius():.4f}")
    return np.sqrt(c)


# ---------------------------------------------------------------------------
# pipe flows
# ---------------------------------------------------------------------------

@dataclass
class MikadoFlow:
    """One spectral pipe flow: W = xi * phi, V with curl V = W.

    The mode list is the flow; the dense fields phi, Psi, W and V on ``grid``
    are scattered from it into fresh arrays on each access.
    """

    xi: np.ndarray
    lam: int
    grid: GridSpec
    mode_k: np.ndarray        # (M, 3) integer wavevectors (half list)
    mode_phi: np.ndarray      # (M,) complex coefficients of phi
    mode_psi: np.ndarray      # (M,) complex coefficients of Psi

    def _field(self, values: np.ndarray) -> SpectralField:
        rank = "scalar" if len(values) == 1 else "vector3"
        f = zeros(self.grid, rank)
        ModeTable(self.mode_k, self.grid).scatter_set(f.coeffs, values)
        return f

    phi = property(lambda self: self._field(self.mode_phi[None]))
    Psi = property(lambda self: self._field(self.mode_psi[None]))
    W = property(lambda self: self._field(self.xi[:, None]
                                          * self.mode_phi[None]))
    V = property(lambda self: self._field(self._v_hat().T))

    def eval_phi(self, points: np.ndarray) -> np.ndarray:
        """Exact evaluation of phi at arbitrary points, shape (3, N)."""
        phase = np.exp((2j * np.pi) * (self.mode_k @ points.reshape(3, -1)))
        vals = 2.0 * np.real(self.mode_phi @ phase)
        return vals.reshape(points.shape[1:])

    def eval_W(self, points: np.ndarray) -> np.ndarray:
        vals = self.eval_phi(points)
        return self.xi.reshape((3,) + (1,) * vals.ndim) * vals

    def _v_hat(self) -> np.ndarray:
        """(M, 3) coefficients of V = grad Psi x xi / (n_star lambda)^2."""
        grad = (2j * np.pi) * self.mode_k * self.mode_psi[:, None]
        return np.cross(grad, self.xi) / (_DENOMINATOR * self.lam) ** 2


def _profile_modes(family: DirectionFamily, row: int, lam: int,
                   grid: GridSpec):
    """Admissible profile lattice modes k = m1*K_A + m2*K_B inside the grid,
    |k_i| <= n/2 - n/8 (a guard band of n/8 below Nyquist)."""
    # A_xi, the axis at the numerator's zero slot, and n_star xi x A_xi
    numer = family.numerators[row]
    axis = np.eye(3, dtype=int)[np.argmax(numer == 0)]
    ka, kb = lam * _DENOMINATOR * axis, lam * np.cross(numer, axis)
    keep = grid.nyquist - grid.n // 8
    mmax = int(keep // min(np.max(np.abs(ka)), np.max(np.abs(kb))) + 1)
    m = np.arange(-mmax, mmax + 1, dtype=np.int64)
    ms = np.stack(np.meshgrid(m, m, indexing="ij"), axis=-1).reshape(-1, 2)
    ks = ms[:, :1] * ka + ms[:, 1:] * kb
    # one of each +-m pair, (m1, m2) > (0, 0), in m1-major order
    half = (ms[:, 0] > 0) | ((ms[:, 0] == 0) & (ms[:, 1] > 0))
    live = half & (np.abs(ks).max(axis=1) <= keep)
    if not live.any():
        raise ValueError(
            f"pipe profile unresolvable: lambda={lam} with n_star="
            f"{_DENOMINATOR} leaves no admissible modes on grid n={grid.n}")
    return ks[live], ms[live]


def build_mikado(row: int, lam: int, family: DirectionFamily,
                 grid: GridSpec) -> MikadoFlow:
    """Build the pipe flow of the family's direction ``row`` at frequency
    ``lam``.  Its cross-section is a periodized Gaussian whose width sigma
    (profile-cell units) adapts to the number of resolvable harmonics, so
    the spectral truncation tail stays near rounding."""
    if not (is_integer(row) and 0 <= row < 6):
        raise ValueError(f"row {row!r} is not one of the family's rows 0..5")
    if not (is_integer(lam) and lam >= 1):
        raise ValueError(f"lambda={lam!r} is not an integer >= 1")
    lam = int(lam)
    kvecs, mvecs = _profile_modes(family, row, lam, grid)
    sigma = min(max(1.1 / np.max(np.abs(mvecs)), 0.10), 0.80)
    msq = (mvecs**2).sum(axis=1).astype(float)
    psi_hat = np.exp(-2.0 * np.pi**2 * sigma**2 * msq)
    phi_hat = 4.0 * np.pi**2 * msq * psi_hat
    # normalize so that integral phi^2 dx = 1 exactly (Parseval over +-m)
    norm = np.sqrt(2.0 * np.sum(phi_hat**2))
    psi_hat /= norm
    phi_hat /= norm
    phase = np.exp(-2j * np.pi * (kvecs @ family.shifts[row]))
    return MikadoFlow(xi=family.directions()[row], lam=lam, grid=grid,
                      mode_k=kvecs, mode_phi=phi_hat * phase,
                      mode_psi=psi_hat * phase)


def build_family_flows(family: DirectionFamily, lam: int,
                       grid: GridSpec) -> list:
    """All six pipe flows of a family at the same frequency."""
    return [build_mikado(row, lam, family, grid) for row in range(6)]


def second_moment(flow: MikadoFlow) -> np.ndarray:
    """integral W (x) W dx, exact from the coefficients."""
    mass = 2.0 * float(np.sum(np.abs(flow.mode_phi) ** 2))
    return mass * np.outer(flow.xi, flow.xi)


def spanning_second_moment(R, lam: int, family: DirectionFamily,
                           grid: GridSpec) -> np.ndarray:
    """Grid quadrature of the diagonal terms sum_xi gamma_xi^2(R) W_xi (x) W_xi,
    which equal R.  The cross terms gamma_xi gamma_xi' int W_xi (x) W_xi' of
    int w (x) w, with w = sum_xi gamma_xi W_xi, are left out: int W_xi . W_xi'
    reaches 0.14, against 1 on the diagonal, on the three pipe pairs of a
    family that share an axis wavevector."""
    from .fields import to_grid
    gam = gamma_coefficients(R, family)
    out = np.zeros((3, 3))
    for row in range(6):
        flow = build_mikado(row, lam, family, grid)
        w = to_grid(flow.W)
        quad = np.tensordot(w, w, axes=([1, 2, 3], [1, 2, 3])) / grid.n**3
        out += gam[row] ** 2 * quad
    return out


def support_overlap(flows) -> float:
    """max over the grid of |phi_xi * phi_xi'| over distinct pairs."""
    from .fields import to_grid
    worst = 0.0
    grids = [to_grid(f.phi) for f in flows]
    for i in range(len(grids)):
        for j in range(i + 1, len(grids)):
            worst = max(worst, float(np.max(np.abs(grids[i] * grids[j]))))
    return worst
