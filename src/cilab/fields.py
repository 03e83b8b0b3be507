"""Band-limited real fields on [0,1)^3 stored as Fourier coefficients.

Normalization: a field with coefficient array ``c`` represents
``f(x) = sum_k c_k exp(2*pi*i k.x)`` so that ``c_0`` is the spatial mean and
Parseval reads ``integral |f|^2 dx = sum_k |c_k|^2`` (sum over the full
integer lattice; storage is the rfftn half-spectrum, the other half is the
complex conjugate).  Every grid transform uses ``norm="forward"``, so grid
samples and coefficients need no rescaling.

The spectral calculus takes its Fourier multipliers from one per-n table,
``spectral_tables(n)``.  Its one rule for the Nyquist planes: d/dx_j is 0 on
the plane k_j = n/2, where the modes n/2 and -n/2 alias and the derivative of
a real grid field has no real coefficient (Trefethen, Spectral Methods in
MATLAB, 2000, ch. 3).  Everything built from derivatives follows it: the
Laplacian is -4 pi^2 |k'|^2, with k' the wavevector whose Nyquist components
are zeroed, and its inverse is 0 where k' = 0, at the mean and at the 7
corner modes whose every component is Nyquist.  So Leray projection and
inverse divergence are exact on the whole stored spectrum.
"""

import struct
import warnings
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import fft as _fft

from .cutoffs import bump
from .grids import GridSpec

RANK_COMPONENTS = {"scalar": 1, "vector3": 3, "symtensor3x3": 6}

# component order of the 6 stored entries of a symmetric 3x3 tensor
SYM_INDEX = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
SYM_SLOT = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2,
            (1, 1): 3, (1, 2): 4, (2, 1): 4, (2, 2): 5}
# multiplicity of each stored component inside the full tensor
SYM_WEIGHT = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 1.0])


class SpectralField:
    """Real scalar/vector/symmetric-tensor field, held spectrally."""

    __slots__ = ("grid", "rank", "coeffs", "mean_zero")

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
        self.mean_zero = mean_zero
        if mean_zero:
            self.coeffs[:, 0, 0, 0] = 0.0

    @property
    def ncomp(self) -> int:
        return RANK_COMPONENTS[self.rank]

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.rank, self.coeffs.copy(),
                             self.mean_zero)

    # -- light arithmetic (same grid and rank) --------------------------
    def __add__(self, other):
        _check_same(self, other)
        return SpectralField(self.grid, self.rank, self.coeffs + other.coeffs,
                             self.mean_zero and other.mean_zero)

    def __sub__(self, other):
        _check_same(self, other)
        return SpectralField(self.grid, self.rank, self.coeffs - other.coeffs,
                             self.mean_zero and other.mean_zero)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.rank, self.coeffs * scalar,
                             self.mean_zero)

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
        out = 0.0
        for plane in (0, self.grid.n // 2):
            p = self.coeffs[:, :, :, plane]
            q = np.conj(p[:, _reflect(self.grid.n), :][:, :, _reflect(self.grid.n)])
            out = max(out, float(np.max(np.abs(p - q))))
        return out


def _reflect(n: int):
    idx = (-np.arange(n)) % n
    return idx


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
    so keep the stored spectrum that of a real field.  ``write_plan`` splits
    a weighted sum of fixed values into passes of distinct slots, so that
    repeated wavevectors accumulate in mode order, exactly as one
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
        """Plan for storing sum_m w_m values[:, m], for any real weights w:
        the flat indices of the distinct slots written, component by
        component; per pass p the mode of each slot's p-th write, shape
        (P, S), and its value as stored, shape (P, ncomp, S), 0 past the
        slot's last write.  Summing w[modes[p]] * vals[p] in pass order into
        a zeroed array at the indices adds each slot's writes in mode order.
        """
        slots, where, count = np.unique(self._targets, return_inverse=True,
                                        return_counts=True)
        order = np.argsort(where, kind="stable")     # by slot, in mode order
        where = where[order]
        rank = np.arange(order.size) - (np.cumsum(count) - count)[where]
        modes = np.zeros((count.max(), slots.size), np.int64)
        vals = np.zeros((count.max(), len(values), slots.size), complex)
        modes[rank, where] = self._source[order]
        vals[rank, :, where] = self._writes(values)[:, order].T
        size = self.grid.n ** 2 * (self.grid.n // 2 + 1)
        comp = size * np.arange(len(values))[:, None]
        return (comp + slots).ravel(), modes, vals

    def scatter_set(self, coeffs: np.ndarray, values) -> None:
        """Set the coefficients at every k; the slots must be distinct."""
        if np.unique(self._targets).size != self._targets.size:
            raise ValueError("scatter_set needs wavevectors with distinct "
                             "storage slots")
        self._flat(coeffs)[:, self._targets] = self._writes(values)


# ---------------------------------------------------------------------------
# grid transforms
# ---------------------------------------------------------------------------

def zeros(grid: GridSpec, rank: str, mean_zero: bool = False) -> SpectralField:
    ncomp = RANK_COMPONENTS[rank]
    c = np.zeros((ncomp, grid.n, grid.n, grid.n // 2 + 1), dtype=complex)
    return SpectralField(grid, rank, c, mean_zero)


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
    coeffs = _fft.rfftn(samples, axes=(1, 2, 3), norm="forward")
    return SpectralField(grid, rank, coeffs, mean_zero)


def to_grid(f: SpectralField) -> np.ndarray:
    """Real grid samples; scalar fields come back as a bare (n,n,n) array."""
    n = f.grid.n
    out = _fft.irfftn(f.coeffs, s=(n, n, n), axes=(1, 2, 3), norm="forward")
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
    every |k_i| <= kmax = n // 3: ``mask`` is the box in rfftn layout,
    ``box`` indexes it in a (ncomp, n, n, n//2+1) array as ``c[box]``, and
    ``box_deriv`` and ``box_inv_lap`` are ``deriv`` and ``inv_lap`` there.
    """

    deriv: tuple
    inv_lap: np.ndarray
    kmax: int
    mask: np.ndarray
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
    mask = ((np.abs(k[0]) <= kmax) & (np.abs(k[1]) <= kmax)
            & (np.abs(k[2]) <= kmax))
    lo_hi = np.r_[0:kmax + 1, n - kmax:n]
    box = (lo_hi[:, None], lo_hi[None, :], slice(0, kmax + 1))
    box_deriv = (deriv[0][lo_hi], deriv[1][:, lo_hi], deriv[2][..., :kmax + 1])
    box_inv_lap = inv_lap[box]
    for table in (lo_hi, *deriv, inv_lap, mask, *box_deriv, box_inv_lap):
        table.flags.writeable = False
    return SpectralTables(tuple(deriv), inv_lap, kmax, mask,
                          (slice(None),) + box, box_deriv, box_inv_lap)


def _dcomp(grid: GridSpec, comp: np.ndarray, axis: int) -> np.ndarray:
    """Coefficients of d/dx_axis."""
    return spectral_tables(grid.n).deriv[axis] * comp


def differential(f: SpectralField, op: str) -> SpectralField:
    """grad (scalar -> vector3), div (vector3 -> scalar, symtensor3x3 ->
    vector3) or curl (vector3 -> vector3)."""
    g = f.grid
    if op == "grad":
        if f.rank != "scalar":
            raise ValueError("grad expects a scalar field")
        c = np.stack([_dcomp(g, f.coeffs[0], a) for a in range(3)])
        return SpectralField(g, "vector3", c, mean_zero=True)
    if op == "div":
        if f.rank == "vector3":
            c = sum(_dcomp(g, f.coeffs[a], a) for a in range(3))
            return SpectralField(g, "scalar", c[None], mean_zero=True)
        if f.rank == "symtensor3x3":
            rows = []
            for i in range(3):
                rows.append(sum(_dcomp(g, f.coeffs[SYM_SLOT[(i, j)]], j)
                                for j in range(3)))
            return SpectralField(g, "vector3", np.stack(rows), mean_zero=True)
        raise ValueError("div expects a vector3 or symtensor3x3 field")
    if op == "curl":
        if f.rank != "vector3":
            raise ValueError("curl expects a vector3 field")
        cx = _dcomp(g, f.coeffs[2], 1) - _dcomp(g, f.coeffs[1], 2)
        cy = _dcomp(g, f.coeffs[0], 2) - _dcomp(g, f.coeffs[2], 0)
        cz = _dcomp(g, f.coeffs[1], 0) - _dcomp(g, f.coeffs[0], 1)
        return SpectralField(g, "vector3", np.stack([cx, cy, cz]),
                             mean_zero=True)
    raise ValueError(f"unknown differential op {op!r}")


def gradient_tensor(v: SpectralField) -> np.ndarray:
    """Grid samples of the full Jacobian d_j v_i, shape (3, 3, n, n, n)."""
    if v.rank != "vector3":
        raise ValueError("gradient_tensor expects a vector3 field")
    g = v.grid
    rows = []
    for i in range(3):
        c = np.stack([_dcomp(g, v.coeffs[i], j) for j in range(3)])
        rows.append(_fft.irfftn(c, s=(g.n,) * 3, axes=(1, 2, 3),
                                norm="forward"))
    return np.stack(rows)


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
    return SpectralField(v.grid, "vector3", c, v.mean_zero)


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
    return SpectralField(v.grid, "symtensor3x3", out, mean_zero=True)


# ---------------------------------------------------------------------------
# band projection, mollification, dealiasing
# ---------------------------------------------------------------------------

def band_project(f: SpectralField, mode: str, cutoff: float) -> SpectralField:
    """Sharp spectral truncation on |k|.

    ``leq`` keeps |k| <= cutoff, ``geq`` keeps the complement |k| > cutoff,
    so the two modes sum to the identity.
    """
    g = f.grid
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
    return SpectralField(g, f.rank, f.coeffs * mask,
                         f.mean_zero or mode == "geq")


def mollifier_multiplier(grid: GridSpec, ell: float) -> np.ndarray:
    """rfftn multiplier of the rescaled unit-mass bump kernel phi_ell.

    The kernel bump(|x/ell|^2) on the ball |x| < ell is sampled on the
    grid (periodically wrapped) and normalized so its discrete integral is
    one; convolution is then exact for grid-sampled fields and constants are
    preserved.
    """
    if not 0.0 < ell < 1.0:
        raise ValueError("mollification length must lie in (0, 1)")
    n = grid.n
    if ell < grid.dx:
        warnings.warn(f"mollifier width {ell} below one grid cell (1/{n}); "
                      "kernel under-resolved")
    x = grid.axes()
    d = np.minimum(x, 1.0 - x)  # distance to 0 on the circle
    r2 = (d[:, None, None] ** 2 + d[None, :, None] ** 2
          + d[None, None, :] ** 2) / ell**2
    kern = bump(r2)
    kern *= n**3 / kern.sum()
    return _fft.rfftn(kern, norm="forward").real


def mollify_space(f: SpectralField, ell: float) -> SpectralField:
    """Exact periodic convolution with the unit-mass bump kernel phi_ell."""
    mult = mollifier_multiplier(f.grid, ell)
    return SpectralField(f.grid, f.rank, f.coeffs * mult, f.mean_zero)


def dealias(f: SpectralField) -> SpectralField:
    """Zero all modes with any |k_i| beyond the 2/3 (per-axis) cutoff."""
    return SpectralField(f.grid, f.rank,
                         f.coeffs * spectral_tables(f.grid.n).mask,
                         f.mean_zero)


# ---------------------------------------------------------------------------
# inner products and norms
# ---------------------------------------------------------------------------

def _pair_weights(grid: GridSpec) -> np.ndarray:
    """Weight of each float of a stored rfft line (real and imaginary parts
    interleaved): 2 for modes whose conjugate partner is implicit, else 1."""
    n = grid.n
    w = np.full((n // 2 + 1, 2), 2.0)
    w[0] = 1.0
    w[n // 2] = 1.0
    return w.ravel()


def inner(f: SpectralField, g: SpectralField) -> float:
    """L^2 inner product; for tensors this is the integrated Frobenius
    pairing (off-diagonal components counted twice).  One einsum over the
    float views of the coefficients sums w (Re f Re g + Im f Im g) per
    x-plane, so no full-size temporary is made and numpy's pairwise sum
    adds the planes."""
    _check_same(f, g)
    fr, gr = (np.ascontiguousarray(h.coeffs, dtype=complex).view(float)
              for h in (f, g))
    planes = np.einsum("cxyk,cxyk,k->cx", fr, gr, _pair_weights(f.grid))
    total = planes.sum(axis=1)
    if f.rank == "symtensor3x3":
        total = total * SYM_WEIGHT
    return float(total.sum())


def l2_norm(f: SpectralField) -> float:
    return float(np.sqrt(max(inner(f, f), 0.0)))


def c0_norm(f: SpectralField) -> float:
    """Grid sup-norm max over components (exact for the stored samples)."""
    return float(np.max(np.abs(to_grid(f))))


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


# ---------------------------------------------------------------------------
# field snapshot files
# ---------------------------------------------------------------------------

_MAGIC = b"CILABFLD"
_VERSION = 2
_RANK_CODE = {"scalar": 0, "vector3": 1, "symtensor3x3": 2}
_RANK_NAME = {v: k for k, v in _RANK_CODE.items()}


def save_field(f: SpectralField, path) -> None:
    """Write a snapshot: 64-byte header then the rfftn half-spectrum as
    little-endian complex128, shape (ncomp, n, n, n//2+1) in C order.

    Storing the coefficients, not grid samples, makes save -> load -> save
    byte-identical.
    """
    header = _MAGIC + struct.pack("<IIBB", _VERSION, f.grid.n,
                                  _RANK_CODE[f.rank], int(f.mean_zero))
    header += b"\x00" * (64 - len(header))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(f.coeffs, dtype="<c16").tobytes())


def load_field(path, grid: GridSpec | None = None) -> SpectralField:
    """Read a snapshot of format version 2 (half-spectrum) or 1 (float64
    grid samples, x-fastest within each component)."""
    with open(path, "rb") as fh:
        header = fh.read(64)
        if header[:8] != _MAGIC:
            raise ValueError("not a field snapshot file")
        version, n, rank_code, mean_zero = struct.unpack("<IIBB", header[8:18])
        if version not in (1, 2):
            raise ValueError(f"unsupported snapshot version {version}")
        rank = _RANK_NAME[rank_code]
        ncomp = RANK_COMPONENTS[rank]
        g = grid if grid is not None else GridSpec(n)
        if g.n != n:
            raise ValueError(f"snapshot grid {n} does not match requested {g.n}")
        if version == 1:
            raw = np.frombuffer(fh.read(ncomp * n**3 * 8), dtype="<f8")
            samples = raw.reshape(ncomp, n, n, n).transpose(0, 3, 2, 1)
            return from_grid(samples, g, rank, mean_zero=bool(mean_zero))
        shape = (ncomp, n, n, n // 2 + 1)
        raw = np.frombuffer(fh.read(int(np.prod(shape)) * 16), dtype="<c16")
    return SpectralField(g, rank, raw.reshape(shape).astype(complex),
                         bool(mean_zero))
