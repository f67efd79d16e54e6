"""Periodic scalar fields on the unit torus, held as half spectra.

Spectral coefficients are indexed by integer mode pairs (m1, m2) with
wavenumber k = 2*pi*(m1, m2); a field's samples, on the uniform grid
x = (i/n1, j/n2), are a value derived from its spectrum.  The transform is
normalized so that the (0, 0) coefficient is the mean of the field.  A real
field has fhat(-m) = conj fhat(m), so only the half m1 = 0..n1/2 is held:
rfftn(samples, axes=(1, 0)) / N, of shape (n1/2 + 1, n2), m2 in FFT
ordering.  Each held mode stands for its partner -m too (the rows m1 = 0
and n1/2 are their own), so Parseval reads
mean(|f|^2) = sum_m w(m1) |fhat(m)|^2 with w = 2 for 0 < m1 < n1/2, else 1;
no other module applies that weight.
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

#: Relative L^2 mass of the anti-Hermitian part of rows m1 = 0 and n1/2 that
#: `TorusField.from_spectrum` accepts: the spectra of `from_samples` fields
#: hold those rows Hermitian only to roundoff, about 1e-16 of their norm.
HERMITIAN_TOL = 1e-12

#: `load_field` zeroes every mode below this fraction of the largest: the
#: transform leaves roundoff in every mode, which pads products at full band.
LOAD_FLOOR = 1e-14


@dataclass(frozen=True)
class GridSpec:
    """Uniform n1 x n2 sampling of the torus [0,1)^2."""

    n1: int
    n2: int

    def __post_init__(self):
        for n in (self.n1, self.n2):
            if n < 2 or n % 2 != 0:
                raise ValueError(f"grid sides must be even and >= 2, got {self.n1}x{self.n2}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n1, self.n2)

    @property
    def npoints(self) -> int:
        return self.n1 * self.n2

    @property
    def spectrum_shape(self) -> tuple[int, int]:
        """Shape of the held half spectrum: rows m1 = 0..n1/2."""
        return (self.n1 // 2 + 1, self.n2)

    def x1(self) -> np.ndarray:
        return np.arange(self.n1)[:, None] / self.n1

    def x2(self) -> np.ndarray:
        return np.arange(self.n2)[None, :] / self.n2

    def modes1(self) -> np.ndarray:
        """Integer modes m1 = 0..n1/2 of the held rows, shape (n1/2 + 1, 1)."""
        return _axis(self.n1, True)[0][:, None]

    def modes2(self) -> np.ndarray:
        """Integer modes m2 along axis 1, FFT ordering, shape (1, n2)."""
        return _axis(self.n2, False)[0][None, :]

    def k1(self) -> np.ndarray:
        return _axis(self.n1, True)[1][:, None]

    def k2(self) -> np.ndarray:
        return _axis(self.n2, False)[1][None, :]

    def x2_free(self) -> "GridSpec":
        """The grid an x2-independent field needs: n1 x 2, the fewest
        columns a grid may have, the m2 = 0 column and the (empty) Nyquist
        column.  Such a field is held by its m2 = 0 column, which regrid
        carries over exactly in both directions."""
        return GridSpec(self.n1, 2)


@functools.lru_cache(maxsize=None)
def _axis(n: int, half: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read-only integer modes and wavenumbers 2*pi*m of an n-point axis,
    0..n/2 for the half axis, else in FFT ordering; built once per axis."""
    m = (np.fft.rfftfreq if half else np.fft.fftfreq)(n, 1.0 / n).astype(int)
    return _freeze(m), _freeze(2.0 * np.pi * m.astype(float))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _held(a: np.ndarray, dtype) -> np.ndarray:
    """The read-only array a field holds for a caller's `a`: a frozen copy of a
    writeable `a` (the caller's array stays writeable), else `a` itself
    (another field's)."""
    a = np.asarray(a, dtype=dtype)
    return _freeze(a.copy() if a.flags.writeable else a)


def _made(grid: "GridSpec", spectrum: np.ndarray) -> "TorusField":
    """The field of a half spectrum the package has just made: frozen in
    place, not copied as `from_samples` and `from_spectrum` copy a caller's."""
    return TorusField(grid, _freeze(np.asarray(spectrum, complex)))


def _sampled(grid: "GridSpec", samples: np.ndarray) -> "TorusField":
    """The field of samples the package has just made, as `_made` is of a
    spectrum: transformed once, the samples kept frozen in place."""
    samples = _freeze(np.asarray(samples, float))
    if samples.shape != grid.shape:
        raise ValueError(f"samples shape {samples.shape} != {grid.shape}")
    f = _made(grid, np.fft.rfftn(samples, axes=(1, 0)) / grid.npoints)
    keep(f, _grid_samples.key, samples)
    return f


@dataclass(frozen=True, eq=False)
class TorusField:
    """Real scalar field on the torus, held as its half spectrum.

    Instances are immutable; every operation in this package returns a new
    field.  Values derived from it (see `derived`), its samples among them,
    are kept in `_derived`, not shown.  Fields compare (and hash) by
    identity, as the dedupe of operators._dealiased_product does.
    """

    grid: GridSpec
    _spectrum: np.ndarray = field(repr=False)
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self._spectrum.shape != self.grid.spectrum_shape:
            raise ValueError(f"spectrum shape {self._spectrum.shape} != {self.grid.spectrum_shape}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_samples(cls, grid: GridSpec, samples: np.ndarray) -> "TorusField":
        """The field of samples on `grid`: transformed once, a copy kept."""
        return _sampled(grid, _held(samples, float))

    @classmethod
    def from_spectrum(cls, grid: GridSpec, spectrum: np.ndarray) -> "TorusField":
        """The field of a half spectrum.  Rows m1 = 0 and n1/2 are their own
        partners, so a real field holds them Hermitian in m2,
        row(-m2) = conj row(m2); `samples` would drop the rest, which `l2`
        and `inner` count.  Raises ValueError when their anti-Hermitian part
        holds more than HERMITIAN_TOL of the spectrum's L^2 norm."""
        f = cls(grid, _held(spectrum, complex))
        rows = f._spectrum[[0, -1]]
        # their anti-Hermitian part, halved before the difference so that it
        # cannot overflow; as a two-row half spectrum spectral_l2 weighs it once
        anti = 0.5 * rows - 0.5 * np.conj(np.roll(rows[:, ::-1], 1, axis=1))
        if anti.any():
            res = spectral_l2(anti) / spectral_l2(f._spectrum)
            if res > HERMITIAN_TOL:
                raise ValueError(f"rows m1 = 0 and n1/2 are not Hermitian in m2: anti-Hermitian "
                                 f"part at relative level {res:.3e} exceeds {HERMITIAN_TOL:.1e}")
        return f

    @classmethod
    def zero(cls, grid: GridSpec) -> "TorusField":
        return _made(grid, np.zeros(grid.spectrum_shape, dtype=complex))

    # -- representations ----------------------------------------------------

    @property
    def has_samples(self) -> bool:
        """Whether the samples are kept (see `samples`)."""
        return _grid_samples.key in self._derived

    @property
    def has_spectrum(self) -> bool:
        return True  # the one state a field holds

    @property
    def samples(self) -> np.ndarray:
        return _grid_samples(self)

    @property
    def spectrum(self) -> np.ndarray:
        return self._spectrum

    # -- norms and algebra --------------------------------------------------

    def l2(self) -> float:
        """L^2(T^2) norm, exact for the trigonometric interpolant, summed
        from `_scaled_squares`: a nonzero field has a nonzero norm."""
        return spectral_l2(self._spectrum)

    def lp(self, p: float) -> float:
        """L^p grid norm (rectangle rule)."""
        return float(np.mean(np.abs(self.samples) ** p) ** (1.0 / p))

    def linf(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def __add__(self, other: "TorusField") -> "TorusField":
        return _made(self.grid, self.spectrum + other.spectrum)

    def __sub__(self, other: "TorusField") -> "TorusField":
        return _made(self.grid, self.spectrum - other.spectrum)

    def __mul__(self, c: float) -> "TorusField":
        return _made(self.grid, c * self.spectrum)

    __rmul__ = __mul__


def derived(build):
    """Decorator: `build(f)` runs once per field instance f and its value is
    kept on f under `get.key`, so a later call returns the same object.
    Fields never change, so a kept value cannot go stale; a build that raises
    keeps nothing and raises again on the next call.  The key rides along
    when a wrapper copies the getter's attributes (functools.wraps does)."""
    @functools.wraps(build)
    def get(f: TorusField):
        if build not in f._derived:
            keep(f, build, build(f))
        return f._derived[build]
    get.key = build
    return get


@derived
def _grid_samples(f: TorusField) -> np.ndarray:
    """f's samples on its grid: those `from_samples` was given, else one
    inverse transform; kept under a key no GridSpec equals (see `keep`)."""
    g = f.grid
    return _freeze(np.fft.irfftn(f.spectrum, s=(g.n2, g.n1), axes=(1, 0)) * g.npoints)


def keep(f: TorusField, key, value) -> None:
    """Keep `value` on f under `key`: a `derived` getter's `key` for the value
    it would build, or a GridSpec for f's samples on that (finer) grid.  The
    one writer of `_derived`: a value kept here must be the one its key
    names, as a field never changes."""
    f._derived[key] = value


def kept(f: TorusField, key):
    """The value kept on f under `key` (see `keep`), else None."""
    return f._derived.get(key)


def inner(f: TorusField, g: TorusField) -> float:
    """L^2 inner product <f, g> on the torus: each row 0 < m1 < n1/2 counts
    for its partner -m1 too."""
    return spectral_inner(f.spectrum, g.spectrum)


def spectral_inner(a: np.ndarray, b: np.ndarray) -> float:
    """<f, g> of the fields whose half spectra are the C-contiguous a and b
    (see `inner`).  Summed by numpy's own (pairwise) reduction, not BLAS, so
    its bits do not depend on the BLAS thread count."""
    # Re(conj(a) b) summed over the real and imaginary parts side by side
    re = a.view(float) * b.view(float)
    return float(2.0 * re[1:-1].sum() + re[0].sum() + re[-1].sum())


def spectral_l2(spec: np.ndarray) -> float:
    """The L^2 norm of the field whose half spectrum is spec (see `l2`)."""
    sq, e = _scaled_squares(spec, spectral=True)
    return float(np.ldexp(np.sqrt(sq.sum()), e))


def _scaled_squares(values: np.ndarray, spectral: bool = False) -> tuple[np.ndarray, int]:
    """(|values|^2 * 4^-e, e), with e the exponent that brings the largest
    finite magnitude into [1/2, 1) (0 if there is none); for a half
    spectrum (`spectral`), the rows 0 < m1 < n1/2 doubled for their partners
    -m1, so the squares sum to the L^2 mass times 4^-e.

    The magnitudes are scaled before they are squared, so a nonzero array
    cannot underflow to a zero sum of squares (1e-170 cos(2 pi x2) squares
    to nothing unscaled), and since the scaling is exact, a sum of squares
    or its square root scaled back keeps its bits wherever the unscaled
    squares did not underflow or overflow."""
    a = np.abs(values)
    e = int(np.frexp(np.max(a, where=np.isfinite(a), initial=0.0))[1])
    np.ldexp(a, -e, out=a)
    np.square(a, out=a)
    if spectral:
        a[1:-1] *= 2.0
    return a, e


def mode_masses(spec: np.ndarray) -> np.ndarray:
    """The L^2 mass of each held mode of a half spectrum (rows m1 = 0..n1/2),
    its partner -m included: summed over a set of modes, their mass."""
    sq, e = _scaled_squares(spec, spectral=True)
    return np.ldexp(sq, 2 * e)


def relative_mass(spec: np.ndarray, part) -> float:
    """Relative L^2 mass of spec[part] in the half spectrum spec: 0.0 at once when
    spec[part] is exactly zero (the rest is not read), else summed from
    `_scaled_squares`, so a field whose squares underflow reads its true ratio."""
    if not spec[part].any():
        return 0.0
    sq, _ = _scaled_squares(spec, spectral=True)
    return float(np.sqrt(np.sum(sq[part])) / np.sqrt(np.sum(sq)))


def k1zero_residual(f: TorusField) -> float:
    """Relative L^2 mass of the k1 = 0 row."""
    return relative_mass(f.spectrum, 0)


def require_admissible(f: TorusField, tol: float = ADMISSIBLE_TOL) -> None:
    res = k1zero_residual(f)
    if res > tol:
        raise NonAdmissibleInput(
            f"k1=0 spectral content at relative level {res:.3e} exceeds {tol:.1e}")


def project_vanishing_x1_mean(f: TorusField) -> TorusField:
    """Zero every coefficient with k1 = 0 (orthogonal projection onto the
    admissible subspace); idempotent."""
    return _made(f.grid, np.where(f.grid.modes1() == 0, 0.0, f.spectrum))


def as_admissible(f: TorusField, tol: float = ADMISSIBLE_TOL) -> TorusField:
    """Validate the admissibility gate and project; roundoff in the k1 = 0
    row is cleaned, genuine content raises NonAdmissibleInput."""
    require_admissible(f, tol)
    return project_vanishing_x1_mean(f)


def random_band_limited(grid: GridSpec, seed: int, kmax: int,
                        amplitude: float = 1.0) -> TorusField:
    """Deterministic random admissible field supported on 0 < |m1| <= kmax,
    |m2| <= kmax, rescaled to the requested max-norm amplitude."""
    if kmax >= min(grid.n1, grid.n2) / 3:
        raise ValueError(f"kmax {kmax} leaves no dealiasing headroom on {grid.n1}x{grid.n2}")
    rng = np.random.default_rng(seed)
    spec = _sampled(grid, rng.standard_normal(grid.shape)).spectrum
    m1, m2 = grid.modes1(), grid.modes2()
    band = (0 < m1) & (m1 <= kmax) & (np.abs(m2) <= kmax)
    spec = np.where(band, spec, 0.0)
    peak = _made(grid, spec).linf()
    if amplitude == 0.0 or peak == 0.0:
        return TorusField.zero(grid)
    return _made(grid, spec * (amplitude / peak))


def _band(spec: np.ndarray, shape: tuple[int, int], c1: int, c2: int) -> np.ndarray:
    """The half spectrum of `shape` holding spec's modes |m1| <= c1, |m2| <= c2."""
    out = np.zeros(shape, dtype=complex)
    out[:c1 + 1, :c2 + 1] = spec[:c1 + 1, :c2 + 1]
    out[:c1 + 1, shape[1] - c2:] = spec[:c1 + 1, spec.shape[1] - c2:]
    return out


def regrid(f: TorusField, grid: GridSpec) -> TorusField:
    """Re-express f on another grid by spectral embedding/truncation; only
    modes |m| < min(n_src, n_dst) / 2 are carried over, so the Nyquist row
    and column of the coarser grid are dropped."""
    c1, c2 = (min(a, b) // 2 - 1 for a, b in zip(f.grid.shape, grid.shape))
    return _made(grid, _band(f.spectrum, grid.spectrum_shape, c1, c2))


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
    """The field of a field file, its modes below LOAD_FLOOR times the largest
    zeroed (an approximation: in-band modes below the floor go too)."""
    header_path, data_path = _field_paths(path)
    header = json.loads(header_path.read_text())
    if not (isinstance(header, dict) and all(type(header.get(n)) is int for n in ("n1", "n2"))):
        raise ValueError(f"{header_path}: header must be a JSON object with integer n1 and n2")
    if header.get("layout") != _LAYOUT or header.get("dtype") != _DTYPE:
        raise ValueError(f"unsupported field file layout/dtype in {header_path}")
    grid = GridSpec(header["n1"], header["n2"])
    raw = np.fromfile(data_path, dtype="<f8")
    if raw.size != grid.npoints:
        raise ValueError(f"{data_path}: expected {grid.npoints} samples, got {raw.size}")
    if not np.all(np.isfinite(raw)):
        raise ValueError(f"{data_path}: non-finite samples")
    spec = _sampled(grid, raw.reshape(grid.n2, grid.n1).T).spectrum
    mag = np.abs(spec)
    return _made(grid, np.where(mag < LOAD_FLOOR * mag.max(), 0.0, spec))
