"""Band-limited real fields on [0,1)^3 stored as Fourier coefficients.

Normalization: a field with coefficient array ``c`` represents
``f(x) = sum_k c_k exp(2*pi*i k.x)`` so that ``c_0`` is the spatial mean and
Parseval reads ``integral |f|^2 dx = sum_k |c_k|^2`` (sum over the full
integer lattice; storage is the rfftn half-spectrum, the other half is the
complex conjugate).  Every grid transform uses ``norm="forward"``, so grid
samples and coefficients need no rescaling.  A field is its coefficients:
the mean is the stored ``c_0``, never cached, and every operation carries it.

The spectral calculus takes its Fourier multipliers from one per-n table,
``spectral_tables(n)``.  Its one rule for the Nyquist planes: d/dx_j is 0 on
the plane k_j = n/2, where the modes n/2 and -n/2 alias and the derivative of
a real grid field has no real coefficient (Trefethen, Spectral Methods in
MATLAB, 2000, ch. 3).  Everything built from derivatives follows it: the
Laplacian is -4 pi^2 |k'|^2, with k' the wavevector whose Nyquist components
are zeroed, and its inverse is 0 where k' = 0, at the mean and at the 7
corner modes whose every component is Nyquist.  So Leray projection and
inverse divergence are exact on the whole stored spectrum.

Every 3-D grid transform of the package goes through one pair of helpers,
``_forward_transform`` and ``_inverse_transform``, over the last three axes
of an array of any leading shape, so a batch of components or derivatives
is one call.  They run pocketfft on ``grids._grid_parts`` workers, the rule
that also sets the advection kernel's part count: 2 on a grid of more than
32^3 points with at least 2 usable CPUs, else 1.  pocketfft gives each
worker whole lines, so the samples and coefficients do not depend on the
worker count.

``_inverse_transform`` consumes its input: it runs ``ifftn`` in place over
the two leading grid axes, then ``irfft`` along z.  scipy's ``irfftn``
(pocketfft ``c2rn``) ignores ``overwrite_x`` and holds a full complex copy
of the spectra beside them and the samples; so one n = 64
``gradient_tensor`` raises a fresh process's peak resident memory by 1.5
times its nine spectra and nine grids through ``irfftn``, and by 1.0 times
through the two passes, whose samples are bitwise ``irfftn``'s.
``to_grid``, and ``c0_norm`` through it, hand the transform a copy, so no
caller's field changes.  The callers whose spectra are their own scratch
hand them over: ``derivative_grids``, the build of
``euler.SpectralInterpolant``, and the drifted solver's truncation and
blow-up sup-norms.

``derivative_grids`` samples every D^alpha f of one level |alpha| with one
batched inverse transform.  ``holder_norm`` takes it per level; the CFL
rule, the flow map's substep rule and ``FlowMap.grad`` read its first level
through ``gradient_tensor``, with the two leading axes swapped.
One ``gradient_tensor`` call, medians of 21 alternating calls
on a 2-CPU host, in three runs: at n = 64, one transform per row of the
Jacobian and a stack took 72-74 ms, the batched transform 59-62 ms on one
worker and 42-43 ms on two; at n = 32, 6.7-9.7 ms on one worker and
5.9-8.8 ms on two.  Grids of n <= 32 keep one worker all the same: the
kernel's two parts lose at n = 32, and stepbench step-n32 does not gain end
to end from two workers on every transform (``grids._GRID_PART_POINTS``).
"""

import warnings
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np
from scipy import fft as _fft

from .cutoffs import bump
from .grids import GridSpec, _grid_parts, _usable_cpus

RANK_COMPONENTS = {"scalar": 1, "vector3": 3, "symtensor3x3": 6}

# component order of the 6 stored entries of a symmetric 3x3 tensor
SYM_INDEX = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
SYM_SLOT = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2,
            (1, 1): 3, (1, 2): 4, (2, 1): 4, (2, 2): 5}
# multiplicity of each stored component inside the full tensor
SYM_WEIGHT = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 1.0])


class SpectralField:
    """Real scalar/vector/symmetric-tensor field, held spectrally.  Its mean
    is the stored c_0, never a cached flag: the construction keyword of
    ``__init__`` zeroes c_0 once, and the property of that name reads it."""

    __slots__ = ("grid", "rank", "coeffs")

    def __init__(self, grid: GridSpec, rank: str, coeffs: np.ndarray,
                 mean_zero: bool = False):
        if rank not in RANK_COMPONENTS:
            raise ValueError(f"unknown rank {rank!r}")
        ncomp = RANK_COMPONENTS[rank]
        n = grid.n
        if coeffs.shape != (ncomp, n, n, n // 2 + 1):
            raise ValueError(
                f"coefficient array has shape {coeffs.shape}, expected "
                f"{(ncomp, n, n, n // 2 + 1)}")
        self.grid = grid
        self.rank = rank
        self.coeffs = coeffs
        if mean_zero:
            self.coeffs[:, 0, 0, 0] = 0.0

    @property
    def mean_zero(self) -> bool:
        """Whether the stored mean c_0 is 0 in every component."""
        return not self.coeffs[:, 0, 0, 0].any()

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.rank, self.coeffs.copy())

    # -- light arithmetic (same grid and rank) --------------------------
    def __add__(self, other):
        _check_same(self, other)
        return SpectralField(self.grid, self.rank, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same(self, other)
        return SpectralField(self.grid, self.rank, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.rank, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    # -- single-mode access ---------------------------------------------
    def get_mode(self, k) -> np.ndarray:
        """Copy of the coefficient vector (one entry per component) at
        wavevector k, which must have every |k_i| < n/2."""
        return ModeTable([k], self.grid).gather(self.coeffs)[:, 0]

    def set_mode(self, k, values) -> None:
        """Set the coefficient at k (and its Hermitian partner)."""
        values = np.asarray(values, dtype=complex).reshape(-1, 1)
        ModeTable([k], self.grid).scatter_set(self.coeffs, values)

    def hermitian_defect(self) -> float:
        """Max violation of c(-k) = conj(c(k)) on the self-conjugate planes."""
        out, r = 0.0, -np.arange(self.grid.n) % self.grid.n   # k -> -k
        for plane in (0, self.grid.n // 2):
            p = self.coeffs[:, :, :, plane]
            q = np.conj(p[:, r][:, :, r])
            out = max(out, float(np.max(np.abs(p - q))))
        return out


def _check_same(a: SpectralField, b: SpectralField):
    if a.grid != b.grid or a.rank != b.rank:
        raise ValueError("fields live on different grids or ranks")


class ModeTable:
    """The map from integer wavevectors to rfftn storage slots.

    Row m of the (M, 3) array ``k`` is stored at flat index ``slot[m]`` of
    each component's (n, n, n//2+1) half-spectrum: as itself when k_z >= 0,
    and as the conjugate of -k when k_z < 0 (``conj[m]``).  A nonzero mode on
    the k_z = 0 plane is stored twice, at k and, conjugated, at -k.  Every
    |k_i| must be below n/2: beyond that, k and k - n share a slot.

    Scatters take values of shape (ncomp, M), write the partner as well, and
    so keep the stored spectrum that of a real field.  ``write_plan`` lists
    the writes of a weighted sum of fixed values in mode order, so that one
    ``np.add.at`` accumulates repeated wavevectors exactly as one
    ``set_mode(k, get_mode(k) + w v)`` per row would.
    """

    def __init__(self, k, grid: GridSpec):
        k = np.asarray(k, dtype=np.int64).reshape(-1, 3)
        n = grid.n
        if k.size and np.abs(k).max() >= n // 2:
            raise ValueError("mode outside the unambiguous half-spectrum")
        self.grid = grid
        self.conj = k[:, 2] < 0
        rep = np.where(self.conj[:, None], -k, k)
        nz = n // 2 + 1
        self.slot = ((rep[:, 0] % n) * n + rep[:, 1] % n) * nz + rep[:, 2]
        paired = (rep[:, 2] == 0) & np.any(rep[:, :2] != 0, axis=1)
        partner = np.where(
            paired, ((-rep[:, 0]) % n * n + (-rep[:, 1]) % n) * nz, -1)
        # write order: each mode's slot, then its partner (if it has one);
        # the stored value is conjugated for k_z < 0, the partner's always
        both = np.stack([self.slot, partner], axis=1).ravel()
        keep = both >= 0
        self._targets = both[keep]
        self._source = np.repeat(np.arange(len(k)), 2)[keep]
        self._conj_write = np.stack(
            [self.conj, np.ones(len(k), bool)], axis=1).ravel()[keep]

    def _flat(self, coeffs: np.ndarray) -> np.ndarray:
        n = self.grid.n
        if coeffs.shape[1:] != (n, n, n // 2 + 1):
            raise ValueError(f"coefficient array of shape {coeffs.shape} is "
                             f"not on the table's grid n={n}")
        flat = coeffs.reshape(coeffs.shape[0], -1)
        if not np.may_share_memory(flat, coeffs):
            # a scatter must write into the field, not into a copy
            raise ValueError("coefficient array is not contiguous per "
                             "component")
        return flat

    def gather(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients at every k, shape (ncomp, M)."""
        vals = self._flat(coeffs)[:, self.slot]
        return np.where(self.conj, np.conj(vals), vals)

    def _writes(self, values) -> np.ndarray:
        """Values for ``_targets``: the stored value, then the partner's."""
        vals = np.take(np.asarray(values, dtype=complex), self._source, axis=1)
        return np.conjugate(vals, out=vals, where=self._conj_write)

    def write_plan(self, values):
        """The writes of sum_m w_m values[:, m], for any real weights w: the
        flat index into the whole (ncomp, n, n, n//2+1) array, the mode and
        the value as stored of every write, component by component and in
        mode order.  ``np.add.at(flat, targets, w[modes] * stored)`` on a
        zeroed array adds each slot's writes in index order, so in mode
        order, starting from +0.
        """
        stored = self._writes(values)
        size = self.grid.n ** 2 * (self.grid.n // 2 + 1)
        targets = size * np.arange(len(stored))[:, None] + self._targets
        modes = np.tile(self._source, len(stored))
        return targets.ravel(), modes, stored.ravel()

    def scatter_set(self, coeffs: np.ndarray, values) -> None:
        """Set the coefficients at every k; the slots must be distinct."""
        if np.unique(self._targets).size != self._targets.size:
            raise ValueError("scatter_set needs wavevectors with distinct "
                             "storage slots")
        self._flat(coeffs)[:, self._targets] = self._writes(values)


# ---------------------------------------------------------------------------
# grid transforms
# ---------------------------------------------------------------------------

def _forward_transform(samples: np.ndarray) -> np.ndarray:
    """rfftn over the last three axes of real samples on an n^3 grid, under
    ``norm="forward"``, on the workers of the module docstring's rule."""
    n = samples.shape[-1]
    return _fft.rfftn(samples, axes=(-3, -2, -1), norm="forward",
                      workers=_grid_parts(n ** 3, _usable_cpus()))


def _inverse_transform(coeffs: np.ndarray) -> np.ndarray:
    """irfftn over the last three axes of (..., n, n, n//2+1) half-spectra,
    under ``norm="forward"``, on the workers of the module docstring's rule.

    The input is consumed: ``ifftn`` runs in place over the two leading
    grid axes, then ``irfft`` along z writes the real samples.  scipy's
    ``irfftn`` ignores ``overwrite_x`` and copies the whole input for those
    two passes, so it holds three full arrays where this holds two; it runs
    the same passes in the same order, so the samples are bitwise its own.
    Pass a copy to keep the spectra, as ``to_grid`` does.  Narrower spectra
    read as zero-padded to n//2 + 1 columns, bitwise; ``irfft`` pads a copy.
    """
    n = coeffs.shape[-2]
    workers = _grid_parts(n ** 3, _usable_cpus())
    lines = _fft.ifftn(coeffs, axes=(-3, -2), norm="forward",
                       overwrite_x=True, workers=workers)
    return _fft.irfft(lines, n=n, axis=-1, norm="forward", workers=workers)


def zeros(grid: GridSpec, rank: str) -> SpectralField:
    ncomp = RANK_COMPONENTS[rank]
    c = np.zeros((ncomp, grid.n, grid.n, grid.n // 2 + 1), dtype=complex)
    return SpectralField(grid, rank, c)


def from_grid(samples: np.ndarray, grid: GridSpec, rank: str,
              mean_zero: bool = False) -> SpectralField:
    """Forward transform of real grid samples (x-,y-,z-indexed)."""
    ncomp = RANK_COMPONENTS[rank]
    samples = np.asarray(samples, dtype=float)
    if rank == "scalar" and samples.ndim == 3:
        samples = samples[None]
    n = grid.n
    if samples.shape != (ncomp, n, n, n):
        raise ValueError(
            f"sample array has shape {samples.shape}, expected {(ncomp, n, n, n)}")
    return SpectralField(grid, rank, _forward_transform(samples), mean_zero)


def to_grid(f: SpectralField) -> np.ndarray:
    """Real grid samples; scalar fields come back as a bare (n,n,n) array.
    ``f`` is left as it is: the transform consumes a copy of its spectra."""
    out = _inverse_transform(f.coeffs.copy())
    return out[0] if f.rank == "scalar" else out


# ---------------------------------------------------------------------------
# Fourier multipliers and differential operators
# ---------------------------------------------------------------------------

class SpectralTables(NamedTuple):
    """Read-only Fourier multipliers of one grid, under the module's Nyquist
    rule, built from integer wavenumbers.

    ``deriv[j]`` is d/dx_j = 2 pi i k_j, 0 on the plane k_j = n/2, kept as
    the line along axis j that broadcasts over a (..., n, n, n//2+1)
    coefficient array.  ``inv_lap`` is 1/(4 pi^2 |k'|^2), 0 where k' = 0.

    The 2/3 rule (Orszag, J. Atmos. Sci. 1971) keeps the box of modes with
    every |k_i| <= kmax = n // 3: ``box`` indexes it in a
    (ncomp, n, n, n//2+1) array as ``c[box]``, and ``box_deriv`` and
    ``box_inv_lap`` are ``deriv`` and ``inv_lap`` there.
    """

    deriv: tuple
    inv_lap: np.ndarray
    kmax: int
    box: tuple
    box_deriv: tuple
    box_inv_lap: np.ndarray


@lru_cache(maxsize=16)
def spectral_tables(n: int) -> SpectralTables:
    """The multiplier tables of the n-point grid, built once per n."""
    g = GridSpec(n)
    k = g.wavenumbers()
    kp = [np.where(np.abs(kj) == g.nyquist, 0, kj) for kj in k]   # k'
    deriv = []
    for kj in kp:
        line = np.zeros(kj.shape, dtype=complex)
        line.imag = 2.0 * np.pi * kj
        deriv.append(line)
    ksq = kp[0] * kp[0] + kp[1] * kp[1] + kp[2] * kp[2]
    inv_lap = np.zeros(ksq.shape)
    inv_lap[ksq > 0] = 1.0 / (4.0 * np.pi**2 * ksq[ksq > 0])
    kmax = n // 3  # floor(2/3 * n/2)
    lo_hi = np.r_[0:kmax + 1, n - kmax:n]
    box = (lo_hi[:, None], lo_hi[None, :], slice(0, kmax + 1))
    box_deriv = (deriv[0][lo_hi], deriv[1][:, lo_hi], deriv[2][..., :kmax + 1])
    box_inv_lap = inv_lap[box]
    for table in (lo_hi, *deriv, inv_lap, *box_deriv, box_inv_lap):
        table.flags.writeable = False
    return SpectralTables(tuple(deriv), inv_lap, kmax,
                          (slice(None),) + box, box_deriv, box_inv_lap)


def differential(f: SpectralField, op: str) -> SpectralField:
    """grad (scalar -> vector3), div (vector3 -> scalar, symtensor3x3 ->
    vector3) or curl (vector3 -> vector3)."""
    g, d, c = f.grid, spectral_tables(f.grid.n).deriv, f.coeffs
    if op == "grad":
        if f.rank != "scalar":
            raise ValueError("grad expects a scalar field")
        grad = np.stack([d[a] * c[0] for a in range(3)])
        return SpectralField(g, "vector3", grad)
    if op == "div":
        if f.rank == "vector3":
            div = sum(d[a] * c[a] for a in range(3))
            return SpectralField(g, "scalar", div[None])
        if f.rank == "symtensor3x3":
            rows = [sum(d[j] * c[SYM_SLOT[(i, j)]] for j in range(3))
                    for i in range(3)]
            return SpectralField(g, "vector3", np.stack(rows))
        raise ValueError("div expects a vector3 or symtensor3x3 field")
    if op == "curl":
        if f.rank != "vector3":
            raise ValueError("curl expects a vector3 field")
        curl = [d[1] * c[2] - d[2] * c[1], d[2] * c[0] - d[0] * c[2],
                d[0] * c[1] - d[1] * c[0]]
        return SpectralField(g, "vector3", np.stack(curl))
    raise ValueError(f"unknown differential op {op!r}")


def derivative_grids(f: SpectralField, level: int) -> np.ndarray:
    """Grid samples of every D^alpha f with |alpha| = ``level``, shape
    (multi-indices, ncomp, n, n, n) in the order of
    ``combinations_with_replacement``, from one inverse transform.  Each
    spectrum is deriv[alpha[0]] * f.coeffs, written into the batch, times
    the other factors of alpha in place."""
    deriv = spectral_tables(f.grid.n).deriv
    alphas = list(combinations_with_replacement(range(3), level))
    c = np.empty((len(alphas),) + f.coeffs.shape, dtype=complex)
    for spec, alpha in zip(c, alphas):
        if not alpha:
            spec[...] = f.coeffs
            continue
        np.multiply(deriv[alpha[0]], f.coeffs, out=spec)
        for ax in alpha[1:]:
            np.multiply(deriv[ax], spec, out=spec)
    return _inverse_transform(c)


def gradient_tensor(v: SpectralField) -> np.ndarray:
    """Grid samples of the full Jacobian d_j v_i, shape (3, 3, n, n, n),
    indexed [i, j]: ``derivative_grids(v, 1)`` with its axes swapped."""
    if v.rank != "vector3":
        raise ValueError("gradient_tensor expects a vector3 field")
    return derivative_grids(v, 1).swapaxes(0, 1)


# ---------------------------------------------------------------------------
# projections and inverse operators
# ---------------------------------------------------------------------------

def _leray(c: np.ndarray, deriv, inv_lap: np.ndarray) -> None:
    """c + d (d.c) inv_lap, in place: the Leray projection of the 3 vector
    components ``c`` under the multipliers ``deriv`` (d) and ``inv_lap``."""
    s = (deriv[0] * c[0] + deriv[1] * c[1] + deriv[2] * c[2]) * inv_lap
    for i in range(3):
        c[i] += deriv[i] * s


def leray_project(v: SpectralField) -> SpectralField:
    """Project onto divergence-free fields: mode action Id - k' k'^T/|k'|^2;
    the mean and the all-Nyquist corners pass through unchanged."""
    if v.rank != "vector3":
        raise ValueError("leray_project expects a vector3 field")
    tab = spectral_tables(v.grid.n)
    c = v.coeffs.copy()
    _leray(c, tab.deriv, tab.inv_lap)
    return SpectralField(v.grid, "vector3", c)


def divergence_defect(v: SpectralField) -> float:
    """max |div v| relative to max |v| (0 for v = 0)."""
    dv = c0_norm(differential(v, "div"))
    scale = c0_norm(v)
    return dv / scale if scale > 0 else 0.0


def inverse_divergence(v: SpectralField) -> SpectralField:
    """Right inverse of div producing symmetric trace-free tensors.

    Lap^{-1} drops the mean and the all-Nyquist corners, so
    div(inverse_divergence(v)) is v without them.
    """
    if v.rank != "vector3":
        raise ValueError("inverse_divergence expects a vector3 field")
    tab = spectral_tables(v.grid.n)
    d, lap_inv = tab.deriv, -tab.inv_lap
    w = [lap_inv * c for c in v.coeffs]        # Lap^{-1} v
    s = sum(d[j] * w[j] for j in range(3))     # div Lap^{-1} v
    out = np.empty((6,) + s.shape, dtype=complex)
    for slot, (i, j) in enumerate(SYM_INDEX):
        t = d[i] * w[j] + d[j] * w[i]
        if i == j:
            t = t - 0.5 * s
        out[slot] = t - 0.5 * (d[i] * (lap_inv * (d[j] * s)))
    return SpectralField(v.grid, "symtensor3x3", out)


# ---------------------------------------------------------------------------
# band projection and mollification
# ---------------------------------------------------------------------------

def band_project(f: SpectralField, mode: str, cutoff: float) -> SpectralField:
    """Sharp spectral truncation on |k|.

    ``leq`` keeps |k| <= cutoff, ``geq`` keeps the complement |k| > cutoff,
    so the two modes sum to the identity.
    """
    g = f.grid
    if not cutoff >= 0.0:
        raise ValueError(f"band cutoff {cutoff} is negative or NaN")
    if cutoff > g.nyquist:
        warnings.warn(f"band cutoff {cutoff} beyond Nyquist {g.nyquist}; "
                      "clamping")
        cutoff = float(g.nyquist)
    ksq = g.k_squared()
    keep = ksq <= cutoff * cutoff + 1e-9
    if mode == "leq":
        mask = keep
    elif mode == "geq":
        mask = ~keep
    else:
        raise ValueError("mode must be 'leq' or 'geq'")
    return SpectralField(g, f.rank, f.coeffs * mask)


@lru_cache(maxsize=16)
def mollifier_multiplier(grid: GridSpec, ell: float) -> np.ndarray:
    """rfftn multiplier of the rescaled unit-mass bump kernel phi_ell.

    The kernel bump(|x/ell|^2) on the ball |x| < ell is sampled on the
    grid (periodically wrapped) and normalized so its discrete integral is
    one; convolution is then exact for grid-sampled fields and constants are
    preserved.  Built once per (grid, ell), read-only.
    """
    if not 0.0 < ell < 1.0:
        raise ValueError("mollification length must lie in (0, 1)")
    x = grid.axes()
    d = np.minimum(x, 1.0 - x)  # distance to 0 on the circle
    r2 = (d[:, None, None] ** 2 + d[None, :, None] ** 2
          + d[None, None, :] ** 2) / ell**2
    kern = bump(r2)
    kern *= grid.n**3 / kern.sum()
    mult = _forward_transform(kern).real.copy()   # not a view of the spectra
    mult.flags.writeable = False
    return mult


def mollify_space(f: SpectralField, ell: float) -> SpectralField:
    """Exact periodic convolution with the unit-mass bump kernel phi_ell."""
    mult = mollifier_multiplier(f.grid, ell)
    if ell < f.grid.dx:
        warnings.warn(f"mollifier width {ell} below one grid cell "
                      f"(1/{f.grid.n}); kernel under-resolved")
    return SpectralField(f.grid, f.rank, f.coeffs * mult)


# ---------------------------------------------------------------------------
# inner products and norms
# ---------------------------------------------------------------------------

def _column_weights(n: int) -> np.ndarray:
    """Weight of each stored rfft column k_z = 0..n/2: 1 on the columns
    k_z = 0 and n/2, which store their conjugate partners too, and 2
    elsewhere, where the partner is implicit."""
    w = np.full(n // 2 + 1, 2.0)
    w[[0, n // 2]] = 1.0
    return w


def inner(f: SpectralField, g: SpectralField) -> float:
    """L^2 inner product; for tensors this is the integrated Frobenius
    pairing (off-diagonal components counted twice).  One einsum over the
    float views of the coefficients sums w (Re f Re g + Im f Im g) per
    x-plane, with w of ``_column_weights`` on both floats of a mode, so no
    full-size temporary is made and numpy's pairwise sum adds the planes."""
    _check_same(f, g)
    fr, gr = (np.ascontiguousarray(h.coeffs, dtype=complex).view(float)
              for h in (f, g))
    w = np.repeat(_column_weights(f.grid.n), 2)   # (Re, Im) interleaved
    planes = np.einsum("cxyk,cxyk,k->cx", fr, gr, w)
    total = planes.sum(axis=1)
    if f.rank == "symtensor3x3":
        total = total * SYM_WEIGHT
    return float(total.sum())


def l2_norm(f: SpectralField) -> float:
    return float(np.sqrt(max(inner(f, f), 0.0)))


def _sup(a: np.ndarray) -> float:
    """max |a| without an |a| temporary; nan if a holds one.  Adding 0.0
    turns the -0.0 that an array of zeros can give into max |a|'s 0.0."""
    return float(np.maximum(a.max(), -a.min())) + 0.0


def c0_norm(f: SpectralField) -> float:
    """Grid sup-norm max over components (exact for the stored samples)."""
    return _sup(to_grid(f))


# ---------------------------------------------------------------------------
# symmetric-tensor helpers
# ---------------------------------------------------------------------------

def outer_sym(a: np.ndarray, b: np.ndarray, traceless: bool = False) -> np.ndarray:
    """Symmetric part of the outer product of two (3,n,n,n) grid fields,
    returned in 6-component layout; optionally with the trace removed."""
    out = np.stack([0.5 * (a[i] * b[j] + a[j] * b[i]) for (i, j) in SYM_INDEX])
    if traceless:
        tr = (out[0] + out[3] + out[5]) / 3.0
        for slot in (0, 3, 5):
            out[slot] = out[slot] - tr
    return out
