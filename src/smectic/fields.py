"""Periodic scalar fields on the unit torus with dual grid/spectral representation.

Samples live on the uniform grid x = (i/n1, j/n2); spectral coefficients are
indexed by integer mode pairs (m1, m2) with wavenumber k = 2*pi*(m1, m2).  The
transform is normalized so that the (0, 0) coefficient is the mean of the
field, which makes Parseval read  mean(|f|^2) = sum_k |fhat(k)|^2.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import numpy.fft  # at import, not first transform: perfbench's tracer wraps it

from .errors import NonAdmissibleInput

#: Relative tolerance for the k1 = 0 admissibility gate.
ADMISSIBLE_TOL = 1e-10

#: Relative imaginary residue above which an inverse transform is rejected.
CONJUGATE_TOL = 1e-10


@dataclass(frozen=True)
class GridSpec:
    """Uniform n1 x n2 sampling of the torus [0,1)^2."""

    n1: int
    n2: int

    def __post_init__(self):
        for n in (self.n1, self.n2):
            if n < 8 or n % 2 != 0:
                raise ValueError(f"grid sides must be even and >= 8, got {self.n1}x{self.n2}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n1, self.n2)

    @property
    def npoints(self) -> int:
        return self.n1 * self.n2

    def x1(self) -> np.ndarray:
        return np.arange(self.n1)[:, None] / self.n1

    def x2(self) -> np.ndarray:
        return np.arange(self.n2)[None, :] / self.n2

    def modes1(self) -> np.ndarray:
        """Integer modes m1 along axis 0, FFT ordering, shape (n1, 1)."""
        return _axis(self.n1)[0][:, None]

    def modes2(self) -> np.ndarray:
        """Integer modes m2 along axis 1, FFT ordering, shape (1, n2)."""
        return _axis(self.n2)[0][None, :]

    def k1(self) -> np.ndarray:
        return _axis(self.n1)[1][:, None]

    def k2(self) -> np.ndarray:
        return _axis(self.n2)[1][None, :]


@functools.lru_cache(maxsize=None)
def _axis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only integer modes and wavenumbers 2*pi*m of an n-point axis in
    FFT ordering, built once per n."""
    m = np.fft.fftfreq(n, 1.0 / n).astype(int)
    return _freeze(m), _freeze(2.0 * np.pi * m.astype(float))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TorusField:
    """Real scalar field on the torus, held as samples and/or coefficients.

    At least one representation is present; the missing one is computed on
    first access and cached.  Instances are immutable; every operation in this
    package returns a new field.  The Burgers quantity is cached the same
    way: the first successful operators.eta_with_residual(w) stores it in
    `_eta`, and since w never changes, it cannot go stale.
    """

    grid: GridSpec
    _samples: np.ndarray | None = field(default=None, repr=False)
    _spectrum: np.ndarray | None = field(default=None, repr=False)
    _eta: tuple[AdmissibleField, float] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self._samples is None and self._spectrum is None:
            raise ValueError("field needs samples or spectrum")
        for a in (self._samples, self._spectrum):
            if a is not None and a.shape != self.grid.shape:
                raise ValueError(f"array shape {a.shape} != grid {self.grid.shape}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_samples(cls, grid: GridSpec, samples: np.ndarray) -> "TorusField":
        return cls(grid, _samples=_freeze(np.asarray(samples, dtype=float)))

    @classmethod
    def from_spectrum(cls, grid: GridSpec, spectrum: np.ndarray) -> "TorusField":
        return cls(grid, _spectrum=_freeze(np.asarray(spectrum, dtype=complex)))

    @classmethod
    def zero(cls, grid: GridSpec) -> "TorusField":
        return cls.from_samples(grid, np.zeros(grid.shape))

    # -- representations ----------------------------------------------------

    @property
    def has_samples(self) -> bool:
        return self._samples is not None

    @property
    def has_spectrum(self) -> bool:
        return self._spectrum is not None

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            raw = np.fft.ifft2(self._spectrum) * self.grid.npoints
            scale = np.max(np.abs(raw)) or 1.0
            if np.max(np.abs(raw.imag)) > CONJUGATE_TOL * scale:
                raise ValueError("inverse transform has imaginary residue; "
                                 "spectrum violates conjugate symmetry")
            object.__setattr__(self, "_samples", _freeze(raw.real))
        return self._samples

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            spec = np.fft.fft2(self._samples) / self.grid.npoints
            object.__setattr__(self, "_spectrum", _freeze(spec))
        return self._spectrum

    # -- norms and algebra --------------------------------------------------

    def l2(self) -> float:
        """L^2(T^2) norm, exact for the trigonometric interpolant."""
        if self.has_spectrum:
            return float(np.sqrt(np.sum(np.abs(self._spectrum) ** 2)))
        return float(np.sqrt(np.mean(self._samples ** 2)))

    def lp(self, p: float) -> float:
        """L^p grid norm (rectangle rule)."""
        return float(np.mean(np.abs(self.samples) ** p) ** (1.0 / p))

    def linf(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def __add__(self, other: "TorusField") -> "TorusField":
        return TorusField.from_spectrum(self.grid, self.spectrum + other.spectrum)

    def __sub__(self, other: "TorusField") -> "TorusField":
        return TorusField.from_spectrum(self.grid, self.spectrum - other.spectrum)

    def __mul__(self, c: float) -> "TorusField":
        return TorusField.from_spectrum(self.grid, c * self.spectrum)

    __rmul__ = __mul__


class AdmissibleField(TorusField):
    """TorusField whose k1 = 0 spectral column vanishes (vanishing x1-mean)."""


def inner(f: TorusField, g: TorusField) -> float:
    """L^2 inner product <f, g> on the torus."""
    return float(np.real(np.vdot(f.spectrum, g.spectrum)))


def k1zero_residual(f: TorusField) -> float:
    """Relative L^2 mass of the k1 = 0 column."""
    norm = f.l2()
    if norm == 0.0:
        return 0.0
    col = f.spectrum[0, :]
    return float(np.sqrt(np.sum(np.abs(col) ** 2)) / norm)


def require_admissible(f: TorusField, tol: float = ADMISSIBLE_TOL) -> None:
    if not f.spectrum[0].any():
        return  # an empty k1 = 0 row: residual 0 (or NaN), never above tol
    res = k1zero_residual(f)
    if res > tol:
        raise NonAdmissibleInput(
            f"k1=0 spectral content at relative level {res:.3e} exceeds {tol:.1e}")


def project_vanishing_x1_mean(f: TorusField) -> AdmissibleField:
    """Zero every coefficient with k1 = 0 (orthogonal projection onto the
    admissible subspace); idempotent."""
    spec = f.spectrum.copy()
    spec[0, :] = 0.0
    return AdmissibleField.from_spectrum(f.grid, spec)


def as_admissible(f: TorusField, tol: float = ADMISSIBLE_TOL) -> AdmissibleField:
    """Validate the admissibility gate and retag; roundoff in the k1 = 0
    column is cleaned, genuine content raises NonAdmissibleInput."""
    require_admissible(f, tol)
    return project_vanishing_x1_mean(f)


def random_band_limited(grid: GridSpec, seed: int, kmax: int,
                        amplitude: float = 1.0) -> AdmissibleField:
    """Deterministic random admissible field supported on 0 < |m1| <= kmax,
    |m2| <= kmax, rescaled to the requested max-norm amplitude."""
    if kmax >= min(grid.n1, grid.n2) / 3:
        raise ValueError(f"kmax {kmax} leaves no dealiasing headroom on {grid.n1}x{grid.n2}")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(grid.shape)
    spec = np.fft.fft2(raw) / grid.npoints
    m1, m2 = grid.modes1(), grid.modes2()
    keep = (np.abs(m1) <= kmax) & (np.abs(m2) <= kmax) & (m1 != 0)
    spec = np.where(keep, spec, 0.0)
    f = TorusField.from_spectrum(grid, spec)
    peak = f.linf()
    if amplitude == 0.0 or peak == 0.0:
        return AdmissibleField.from_samples(grid, np.zeros(grid.shape))
    return AdmissibleField.from_spectrum(grid, spec * (amplitude / peak))


def negated_modes(spec: np.ndarray) -> np.ndarray:
    """The spectrum at the negated mode: out[m] = spec[-m] on the FFT index
    grid (a real field has spec[-m] = conj spec[m])."""
    return np.roll(spec[::-1, ::-1], 1, axis=(0, 1))


def _embed_band(spec: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Copy the modes -h..h-1 of a spectrum into a zero spectrum of `shape`,
    h = min(n_src, n_dst) // 2 per axis: zero padding onto a finer grid,
    truncation onto a coarser one."""
    out = np.zeros(shape, dtype=complex)
    h1 = min(spec.shape[0], shape[0]) // 2
    h2 = min(spec.shape[1], shape[1]) // 2
    for rows in (slice(None, h1), slice(-h1, None)):
        for cols in (slice(None, h2), slice(-h2, None)):
            out[rows, cols] = spec[rows, cols]
    return out


def regrid(f: TorusField, grid: GridSpec) -> TorusField:
    """Re-express f on another grid by spectral embedding/truncation; only
    modes |m| < min(n_src, n_dst) / 2 are carried over."""
    out = _embed_band(f.spectrum, grid.shape)
    out[-(min(f.grid.n1, grid.n1) // 2), :] = 0.0
    out[:, -(min(f.grid.n2, grid.n2) // 2)] = 0.0
    cls = AdmissibleField if isinstance(f, AdmissibleField) else TorusField
    return cls.from_spectrum(grid, out)


# -- field file format ------------------------------------------------------
#
# A field NAME is stored as NAME.json (header) plus NAME.bin (raw block).
# The header records {n1, n2, layout, dtype}; the block is float64
# little-endian with x1 varying fastest.

_LAYOUT = "row-major-x1-fastest"
_DTYPE = "f64-le"


def _field_paths(path: str | Path) -> tuple[Path, Path]:
    p = Path(path)
    if p.suffix == ".json":
        p = p.with_suffix("")
    return p.with_suffix(p.suffix + ".json"), p.with_suffix(p.suffix + ".bin")


def save_field(f: TorusField, path: str | Path) -> None:
    header_path, data_path = _field_paths(path)
    header = {"n1": f.grid.n1, "n2": f.grid.n2, "layout": _LAYOUT, "dtype": _DTYPE}
    header_path.write_text(json.dumps(header, indent=2) + "\n")
    # x1-fastest: transpose so the axis-0 (x1) index is contiguous
    np.ascontiguousarray(f.samples.T).astype("<f8").tofile(data_path)


def load_field(path: str | Path) -> TorusField:
    header_path, data_path = _field_paths(path)
    header = json.loads(header_path.read_text())
    if header.get("layout") != _LAYOUT or header.get("dtype") != _DTYPE:
        raise ValueError(f"unsupported field file layout/dtype in {header_path}")
    grid = GridSpec(int(header["n1"]), int(header["n2"]))
    raw = np.fromfile(data_path, dtype="<f8")
    if raw.size != grid.npoints:
        raise ValueError(f"{data_path}: expected {grid.npoints} samples, got {raw.size}")
    if not np.all(np.isfinite(raw)):
        raise ValueError(f"{data_path}: non-finite samples")
    return TorusField.from_samples(grid, raw.reshape(grid.n2, grid.n1).T)
