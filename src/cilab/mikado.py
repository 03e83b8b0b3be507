"""Pipe-flow building blocks and the geometric decomposition of symmetric
matrices near the identity.

Two frozen, disjoint families of six rational unit directions carry the
decomposition R = sum_xi gamma_xi^2(R) xi (x) xi via an exact 6x6 linear
solve.  Each direction gets a stationary pressureless pipe flow built
spectrally on the lattice orthogonal to it, so the defining identities
(div W = 0, curl V = W, xi.grad phi = 0, unit second moment) hold to
rounding by construction.

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
from .grids import GridSpec


class CertificationError(RuntimeError):
    """A frozen family failed one of its construction-time checks."""


# frozen direction families: integer numerators over denominator 5,
# mutually disjoint, Gram-invertible, identity coefficients all 1/2
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

def _axis_frame(numer):
    """A_xi = the coordinate axis in the zero slot of the direction."""
    zero_slots = [i for i, v in enumerate(numer) if v == 0]
    if not zero_slots:
        raise CertificationError(f"direction {numer} has no zero component")
    a = np.zeros(3, dtype=int)
    a[zero_slots[0]] = 1
    return a


@dataclass
class DirectionFamily:
    """One certified 6-direction family with frames, shifts and solver."""

    index: int
    numerators: np.ndarray          # (6,3) int, directions * denominator
    denominator: int
    frame_a: np.ndarray             # (6,3) int unit vectors, A_xi
    frame_b: np.ndarray             # (6,3) int, (xi x A_xi) * denominator
    n_star: int
    shifts: np.ndarray              # (6,3) floats in [0,1)
    gram: np.ndarray = field(init=False)
    gram_inv: np.ndarray = field(init=False)
    id_coefficients: np.ndarray = field(init=False)
    dual_norms: np.ndarray = field(init=False)

    def __post_init__(self):
        self._validate_rational()
        d = self.directions()
        # columns: xi (x) xi in the fields.SYM_INDEX component layout
        self.gram = np.stack([d[:, i] * d[:, j] for (i, j) in SYM_INDEX])
        det = np.linalg.det(self.gram)
        if abs(det) < 1e-12:
            raise CertificationError("gram matrix is singular")
        self.gram_inv = np.linalg.inv(self.gram)
        self.id_coefficients = decomposition_coefficients(np.eye(3), self)
        if self.id_coefficients.min() <= 0:
            raise CertificationError("identity coefficients not all positive")
        # c_i(R) = <M_i, R>_F with M_i = row_i / SYM_WEIGHT, so the Frobenius
        # dual norm of c_i is |M_i|_F = sqrt(sum row_i^2 / SYM_WEIGHT)
        self.dual_norms = np.sqrt(np.sum(self.gram_inv**2 / SYM_WEIGHT,
                                         axis=1))

    def _validate_rational(self):
        den = self.denominator
        for row in range(6):
            xi, a, b = self.numerators[row], self.frame_a[row], self.frame_b[row]
            if int(xi @ xi) != den * den:
                raise CertificationError(f"{tuple(xi)} is not a unit vector")
            if int(a @ a) != 1 or int(xi @ a) != 0:
                raise CertificationError(f"bad frame for {tuple(xi)}")
            if not np.array_equal(np.cross(xi, a), b):
                raise CertificationError(f"frame_b mismatch for {tuple(xi)}")
            if int(b @ b) != den * den:
                raise CertificationError(f"|xi x A| != 1 for {tuple(xi)}")
        # n_star * {xi, A, xi x A} must be integer vectors: exact by storage,
        # verify minimality
        if self.n_star != den:
            raise CertificationError("n_star must equal the denominator")

    def directions(self) -> np.ndarray:
        return self.numerators / self.denominator

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
    """Return one of the two frozen families, re-certifying on construction."""
    if index not in (0, 1):
        raise ValueError("family index must be 0 or 1")
    numer = np.array(_FAMILY_NUMERATORS[index], dtype=int)
    other = np.array(_FAMILY_NUMERATORS[1 - index], dtype=int)
    seen = {tuple(r) for r in numer} | {tuple(-r) for r in numer}
    for r in other:
        if tuple(r) in seen or tuple(-r) in seen:
            raise CertificationError("families are not disjoint")
    fa = np.stack([_axis_frame(r) for r in numer])
    fb = np.stack([np.cross(numer[i], fa[i]) for i in range(6)])
    return DirectionFamily(index=index, numerators=numer,
                           denominator=_DENOMINATOR, frame_a=fa, frame_b=fb,
                           n_star=_DENOMINATOR,
                           shifts=np.array(_FAMILY_SHIFTS[index]))


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
    """gamma_xi(R) = sqrt(c_xi(R)) for R in the ball |R - Id|_F <= 1/2."""
    R = np.asarray(R, dtype=float)
    dev = R - np.eye(3).reshape((3, 3) + (1,) * (R.ndim - 2))
    frob = np.sqrt(np.sum(dev**2, axis=(0, 1)))
    worst = float(np.max(frob))
    if worst > 0.5 + 1e-12:
        raise ValueError(f"R outside the admissible ball: "
                         f"|R - Id|_F = {worst:.4f} > 1/2")
    c = decomposition_coefficients(R, family)
    cmin = float(np.min(c))
    if cmin <= 0.0:
        raise CertificationError(
            f"decomposition coefficient {cmin:.3e} <= 0 inside the stated "
            "ball; family certification violated")
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
    family_index: int
    shift: np.ndarray
    grid: GridSpec
    mode_k: np.ndarray        # (M, 3) integer wavevectors (half list)
    mode_phi: np.ndarray      # (M,) complex coefficients of phi
    mode_psi: np.ndarray      # (M,) complex coefficients of Psi
    sigma: float

    def _field(self, values: np.ndarray) -> SpectralField:
        rank = "scalar" if len(values) == 1 else "vector3"
        f = zeros(self.grid, rank, mean_zero=True)
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

    def eval_V(self, points: np.ndarray) -> np.ndarray:
        vhat = self._v_hat()
        phase = np.exp((2j * np.pi) * (self.mode_k @ points.reshape(3, -1)))
        vals = 2.0 * np.real(vhat.T @ phase)
        return vals.reshape((3,) + points.shape[1:])

    def _v_hat(self) -> np.ndarray:
        """(M, 3) coefficients of V = grad Psi x xi / (n_star lambda)^2."""
        grad = (2j * np.pi) * self.mode_k * self.mode_psi[:, None]
        return np.cross(grad, self.xi) / (_DENOMINATOR * self.lam) ** 2


def _profile_modes(family: DirectionFamily, row: int, lam: int,
                   grid: GridSpec):
    """Admissible profile lattice modes k = m1*K_A + m2*K_B inside the grid,
    |k_i| <= n/2 - n/8 (a guard band of n/8 below Nyquist)."""
    ka = lam * family.n_star * family.frame_a[row]          # integer
    kb = lam * family.frame_b[row]                          # n_star*B integer
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
            f"{family.n_star} leaves no admissible modes on grid n={grid.n}")
    return ks[live], ms[live]


def build_mikado(row: int, lam: int, family: DirectionFamily, grid: GridSpec,
                 sigma: float | None = None) -> MikadoFlow:
    """Build the pipe flow of the family's direction ``row`` at frequency
    ``lam``.

    The cross-section profile is a periodized Gaussian of width ``sigma``
    (profile-cell units); by default sigma adapts to the number of
    resolvable harmonics so the spectral truncation tail stays near rounding.
    """
    if lam < 1 or int(lam) != lam:
        raise ValueError("lambda must be a positive integer")
    lam = int(lam)
    kvecs, mvecs = _profile_modes(family, row, lam, grid)
    m_eff = np.max(np.abs(mvecs))
    if sigma is None:
        sigma = min(max(1.1 / m_eff, 0.10), 0.80)
    msq = (mvecs**2).sum(axis=1).astype(float)
    psi_hat = np.exp(-2.0 * np.pi**2 * sigma**2 * msq)
    phi_hat = 4.0 * np.pi**2 * msq * psi_hat
    # normalize so that integral phi^2 dx = 1 exactly (Parseval over +-m)
    norm = np.sqrt(2.0 * np.sum(phi_hat**2))
    psi_hat /= norm
    phi_hat /= norm
    shift = family.shifts[row]
    phase = np.exp(-2j * np.pi * (kvecs @ shift))
    return MikadoFlow(xi=family.directions()[row], lam=lam,
                      family_index=family.index,
                      shift=np.asarray(shift, float), grid=grid, mode_k=kvecs,
                      mode_phi=phi_hat * phase, mode_psi=psi_hat * phase,
                      sigma=float(sigma))


def build_family_flows(family: DirectionFamily, lam: int, grid: GridSpec,
                       sigma: float | None = None) -> list:
    """All six pipe flows of a family at the same frequency."""
    return [build_mikado(row, lam, family, grid, sigma)
            for row in range(6)]


def second_moment(flow: MikadoFlow) -> np.ndarray:
    """integral W (x) W dx, exact from the coefficients."""
    mass = 2.0 * float(np.sum(np.abs(flow.mode_phi) ** 2))
    return mass * np.outer(flow.xi, flow.xi)


def spanning_second_moment(R, lam: int, family: DirectionFamily,
                           grid: GridSpec) -> np.ndarray:
    """Grid quadrature of sum_xi gamma_xi^2(R) W_xi (x) W_xi; equals R."""
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


# ---------------------------------------------------------------------------
# universal constants
# ---------------------------------------------------------------------------

def _profile_2d(sigma_ref: float, m_max: int = 48, n_eval: int = 192):
    """Evaluate the reference cross-section profile and its spectral
    derivatives on an n_eval^2 grid (separable mode sums)."""
    m = np.arange(-m_max, m_max + 1)
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    msq = (m1**2 + m2**2).astype(float)
    psi_hat = np.exp(-2.0 * np.pi**2 * sigma_ref**2 * msq)
    psi_hat[m_max, m_max] = 0.0
    phi_hat = 4.0 * np.pi**2 * msq * psi_hat
    norm = np.sqrt(np.sum(phi_hat**2))
    psi_hat /= norm
    phi_hat /= norm
    x = np.arange(n_eval) / n_eval
    E = np.exp(2j * np.pi * np.outer(m, x))  # (modes, points)

    def eval2(coeffs):
        return np.real(E.T @ coeffs @ E)

    out = {}
    for name, coeffs in (("phi", phi_hat), ("psi", psi_hat)):
        d1 = (2j * np.pi) * m1 * coeffs
        d2 = (2j * np.pi) * m2 * coeffs
        vals = eval2(coeffs)
        c0 = float(np.abs(vals).max())
        c1 = c0 + float(np.abs(eval2(d1)).max()) + float(np.abs(eval2(d2)).max())
        c2 = c1
        for dd in ((2j * np.pi * m1) * d1, (2j * np.pi * m2) * d1,
                   (2j * np.pi * m2) * d2):
            c2 += float(np.abs(eval2(dd)).max())
        out[name] = (c0, c1, c2)
    return out


def universal_constants(family0: DirectionFamily, family1: DirectionFamily,
                        sigma_ref: float = 0.15):
    """Empirical bookkeeping constants of the construction.

    Returns the reference-profile norms, the decomposition smoothness sup,
    and the smallest admissible amplitude constant M_bar (the one entering
    the ladder targets).
    """
    prof = _profile_2d(sigma_ref)
    phi_c1 = prof["phi"][1]
    psi_c2 = prof["psi"][2]
    n_star = family0.n_star
    cardinality = 12
    c_lambda = 32 * n_star * cardinality * (phi_c1 + psi_c2)
    gamma_sup = max(f.gamma_derivative_sup() for f in (family0, family1))
    gamma_c0 = 0.0  # exact sup of |gamma| over the certified ball
    for fam in (family0, family1):
        r = min(fam.certified_radius(), 0.5)
        gamma_c0 = max(gamma_c0, float(np.max(
            np.sqrt(fam.id_coefficients + r * fam.dual_norms))))
    m_over_cl = gamma_c0 + gamma_sup
    m_bar = 100.0 * cardinality * m_over_cl
    return {
        "profile_phi_c1": float(phi_c1),
        "profile_psi_c2": float(psi_c2),
        "c_lambda": float(c_lambda),
        "gamma_smoothness_sup": float(gamma_sup),
        "m_over_c_lambda": float(m_over_cl),
        "m_bar_min": float(m_bar),
    }

