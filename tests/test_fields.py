import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smectic import fields
from smectic.besov import tail_mass
from smectic import minimize as minimize_module
from smectic.energy import EnergyLine, energy_eps, gradient_eps
from smectic.errors import NonAdmissibleInput
from smectic.fields import (ADMISSIBLE_TOL, HERMITIAN_TOL, LOAD_FLOOR, GridSpec, TorusField,
                            as_admissible, inner, k1zero_residual,
                            load_field, project_vanishing_x1_mean,
                            random_band_limited, regrid, relative_mass,
                            require_admissible, save_field)
from smectic.minimize import minimize
from smectic.operators import (d1, inv_abs_d1, multiply_dealiased, outer_band, shift1,
                               square_dealiased, support)

SRC = Path(__file__).resolve().parents[1] / "src"


def sine_field(grid, a=1.0, m=1):
    x = grid.x1()
    return TorusField.from_samples(
        grid, np.repeat(a * np.sin(2 * np.pi * m * x), grid.n2, axis=1))


class TestGridSpec:
    def test_rejects_odd_and_small(self):
        for sides in [(7, 16), (16, 1), (0, 16), (16, 0), (-2, 16)]:
            with pytest.raises(ValueError, match="even and >= 2"):
                GridSpec(*sides)
        assert GridSpec(2, 2).spectrum_shape == (2, 2)
        assert GridSpec(16, 2).x2_free() == GridSpec(16, 2)

    def test_mode_layout(self):
        g = GridSpec(8, 16)
        # the held half m1 = 0..n1/2; m2 in FFT ordering
        assert g.modes1().ravel().tolist() == [0, 1, 2, 3, 4]
        assert g.modes2().ravel().tolist() == [0, 1, 2, 3, 4, 5, 6, 7,
                                               -8, -7, -6, -5, -4, -3, -2, -1]
        assert g.k1()[1, 0] == pytest.approx(2 * np.pi)
        assert g.shape == (8, 16)
        assert g.spectrum_shape == (5, 16)
        assert g.npoints == 128

    def test_mode_arrays_built_once_per_axis_length(self, monkeypatch):
        g = GridSpec(48, 40)
        w = random_band_limited(g, seed=3, kmax=6, amplitude=0.3)
        energy_eps(w, 0.1), gradient_eps(w, 0.1)
        calls = []
        fftfreq = np.fft.fftfreq
        monkeypatch.setattr(np.fft, "fftfreq",
                            lambda *a, **k: calls.append(a) or fftfreq(*a, **k))
        energy_eps(w, 0.1), gradient_eps(w, 0.1)
        assert calls == []
        for a in (g.modes1(), g.modes2(), g.k1(), g.k2()):
            assert not a.flags.writeable


class TestTorusField:
    def test_constructors_leave_the_callers_array_writeable(self):
        g = GridSpec(8, 8)
        # a real field's spectrum: rows m1 = 0 and n1/2 Hermitian in m2
        samples0 = np.random.default_rng(0).standard_normal(g.shape)
        H = TorusField.from_samples(g, samples0).spectrum.copy()
        samples = np.random.default_rng(1).standard_normal(g.shape)
        f, s = TorusField.from_spectrum(g, H), TorusField.from_samples(g, samples)
        kept, kept_samples = H.copy(), samples.copy()
        H[0] = 0
        samples[0] = 0
        assert np.array_equal(f.spectrum, kept)
        assert np.array_equal(s.samples, kept_samples)
        assert not f.spectrum.flags.writeable and not s.samples.flags.writeable

    def test_spectrum_with_non_hermitian_rows_is_refused(self):
        """A random complex half spectrum: its samples would drop the
        anti-Hermitian part of rows m1 = 0 and n1/2, which l2 counts."""
        g = GridSpec(8, 8)
        rng = np.random.default_rng(0)
        spec = rng.standard_normal(g.spectrum_shape) + 1j * rng.standard_normal(g.spectrum_shape)
        with pytest.raises(ValueError, match="not Hermitian"):
            TorusField.from_spectrum(g, spec)

    @pytest.mark.parametrize("row", [0, -1])
    @pytest.mark.parametrize("m2, part", [(0, 1j), (4, 1j), (1, 1.0), (3, 1j)])
    def test_hermitian_tolerance(self, row, m2, part):
        """The anti-Hermitian part of a self-partner row is refused above
        HERMITIAN_TOL of the norm, accepted below it; m2 = 0 and -n2/2 are
        their own partners, so their imaginary parts are anti-Hermitian."""
        g = GridSpec(8, 8)
        f = TorusField.from_samples(g, np.random.default_rng(2).standard_normal(g.shape))
        for level, refused in ((1e-3 * HERMITIAN_TOL, False), (1e3 * HERMITIAN_TOL, True)):
            bent = f.spectrum.copy()
            bent[row, m2] += part * level * f.l2()
            if refused:
                with pytest.raises(ValueError, match="not Hermitian"):
                    TorusField.from_spectrum(g, bent)
            else:
                TorusField.from_spectrum(g, bent)

    @pytest.mark.parametrize("shape", [(8, 8), (10, 12), (64, 64), (512, 512), (1024, 8)])
    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    def test_spectra_of_sampled_fields_are_accepted(self, shape, scale):
        g = GridSpec(*shape)
        f = TorusField.from_samples(g, scale * np.random.default_rng(1).standard_normal(shape))
        twin = TorusField.from_spectrum(g, f.spectrum.copy())
        assert np.max(np.abs(twin.samples - f.samples)) <= 1e-13 * scale

    def test_public_constructors_copy_only_a_writeable_array(self):
        """A caller's writeable array is copied; another field's read-only
        array is held as it is."""
        g = GridSpec(8, 8)
        samples = np.random.default_rng(3).standard_normal(g.shape)
        f = TorusField.from_samples(g, samples)
        assert not np.shares_memory(f.samples, samples) and samples.flags.writeable
        twin = TorusField.from_spectrum(g, f.spectrum)
        assert twin.spectrum is f.spectrum

    def test_operator_results_are_held_without_a_copy(self, monkeypatch):
        """The package hands the arrays it makes to its fields as they are:
        no operator, energy, line or descent goes through the copying
        constructors' `_held`."""
        g = GridSpec(32, 32)
        w = random_band_limited(g, seed=4, kmax=4, amplitude=0.3)
        v = random_band_limited(g, seed=5, kmax=4, amplitude=0.3)
        minimize_module.gradient_certificate(g)
        copies = []
        real = fields._held
        monkeypatch.setattr(fields, "_held", lambda *a: copies.append(a) or real(*a))
        made = [d1(w), inv_abs_d1(w), shift1(w, 0.1), w + v, w - v, 2.0 * w,
                regrid(w, GridSpec(16, 16)), square_dealiased(w), multiply_dealiased(w, v),
                gradient_eps(w, 0.1), random_band_limited(g, seed=6, kmax=4),
                EnergyLine(w, v, 0.1).point(0.5),
                minimize(w, 0.1, minimize_module.MinimizeOptions(max_iters=3))[0]]
        energy_eps(made[-1], 0.1)
        assert copies == []
        assert all(not f.spectrum.flags.writeable for f in made)

    def test_equal_arrays_make_distinct_fields(self):
        """Fields compare by identity: two fields of equal but distinct
        arrays are unequal, and == compares no arrays (which would raise)."""
        g = GridSpec(8, 8)
        samples = np.random.default_rng(2).standard_normal(g.shape)
        f, twin = (TorusField.from_samples(g, samples.copy()) for _ in range(2))
        assert f == f and f != twin and not f == twin

    def test_roundtrip(self):
        g = GridSpec(32, 16)
        rng = np.random.default_rng(0)
        samples = rng.standard_normal(g.shape)
        f = TorusField.from_samples(g, samples)
        back = TorusField.from_spectrum(g, f.spectrum)
        assert np.allclose(back.samples, samples, atol=1e-13)

    def test_mean_is_zero_mode(self):
        g = GridSpec(16, 16)
        f = TorusField.from_samples(g, np.full(g.shape, 2.5))
        assert f.spectrum[0, 0] == pytest.approx(2.5)

    def test_parseval(self):
        g = GridSpec(64, 32)
        f = TorusField.from_samples(g, np.random.default_rng(1).standard_normal(g.shape))
        grid_norm = float(np.sqrt(np.mean(f.samples ** 2)))
        assert f.l2() == pytest.approx(grid_norm, rel=1e-13)

    def test_norms_single_mode(self):
        g = GridSpec(64, 64)
        f = sine_field(g, a=2.0)
        assert f.l2() == pytest.approx(2.0 / np.sqrt(2.0), rel=1e-12)
        assert f.linf() == pytest.approx(2.0, rel=1e-10)
        assert f.lp(2.0) == pytest.approx(f.l2(), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(-600, 600), seed=st.integers(0, 2 ** 16))
    def test_l2_scales_exactly_by_powers_of_two(self, k, seed):
        """l2(2^k f) == 2^k l2(f) bit for bit, also for a field built from
        scaled samples, and where the squares of 2^k f underflow or
        overflow."""
        f = random_band_limited(GridSpec(16, 16), seed=seed, kmax=4)
        assert (2.0 ** k * f).l2() == 2.0 ** k * f.l2()
        samples = TorusField.from_samples(f.grid, f.samples)
        assert (TorusField.from_samples(f.grid, np.ldexp(f.samples, k)).l2()
                == 2.0 ** k * samples.l2())

    def test_l2_of_a_field_whose_squares_underflow(self):
        g = GridSpec(16, 16)
        tiny = random_band_limited(g, seed=1, kmax=2, amplitude=1e-170)
        unit = random_band_limited(g, seed=1, kmax=2, amplitude=1.0)
        assert tiny.l2() == pytest.approx(1e-170 * unit.l2(), rel=1e-14, abs=0.0)
        from_samples = TorusField.from_samples(g, tiny.samples).l2()
        assert from_samples == pytest.approx(tiny.l2(), rel=1e-14, abs=0.0)
        assert TorusField.zero(g).l2() == 0.0

    def test_arithmetic(self):
        g = GridSpec(16, 16)
        f = sine_field(g)
        h = 2.0 * f + f - f
        assert np.allclose(h.samples, 2.0 * f.samples, atol=1e-14)

    def test_inner_orthogonality(self):
        g = GridSpec(32, 32)
        assert inner(sine_field(g, m=1), sine_field(g, m=2)) == pytest.approx(0.0, abs=1e-15)
        assert inner(sine_field(g, a=3.0), sine_field(g)) == pytest.approx(1.5, rel=1e-12)

    def test_inner_does_not_depend_on_the_blas_thread_count(self):
        """inner sums with numpy's own reduction: two 512^2 fields give the
        same bits with one BLAS thread and with two."""
        script = ("from smectic.fields import GridSpec, inner, random_band_limited\n"
                  "g = GridSpec(512, 512)\n"
                  "print(repr(inner(random_band_limited(g, 1, 160), "
                  "random_band_limited(g, 2, 160))))\n")
        reads = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            reads.append(done.stdout)
        assert reads[0] == reads[1] != ""

    def test_needs_a_representation(self):
        with pytest.raises(TypeError):
            TorusField(GridSpec(16, 16))

    def test_immutability(self):
        f = sine_field(GridSpec(16, 16))
        with pytest.raises(ValueError):
            f.samples[0, 0] = 1.0


class TestNonFinite:
    """The scaling exponent comes from the largest finite magnitude, so a
    huge value beside a NaN is scaled before it is squared: NaN in, NaN out,
    with no overflow warning."""

    @staticmethod
    def spectrum_with_nan(huge_at):
        spec = np.zeros(GridSpec(8, 8).spectrum_shape, complex)
        spec[1, 1], spec[huge_at] = np.nan, 1e300
        return TorusField.from_spectrum(GridSpec(8, 8), spec)

    def test_l2(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(self.spectrum_with_nan((2, 2)).l2())

    def test_k1zero_residual(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(k1zero_residual(self.spectrum_with_nan((0, 0))))


class TestHalfLayout:
    """The held half m1 = 0..n1/2 against the full fft2 spectrum of the same
    samples: every weighted sum equals its full sum."""

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from([(8, 8), (10, 12), (12, 10), (16, 40), (40, 16), (64, 64)]),
           seed=st.integers(0, 2 ** 32 - 1), box=st.tuples(st.integers(0, 24), st.integers(0, 24)))
    def test_weighted_sums_equal_full_sums(self, shape, seed, box):
        grid = GridSpec(*shape)
        rng = np.random.default_rng(seed)
        f, g = (TorusField.from_samples(grid, rng.standard_normal(shape)) for _ in range(2))
        assert f.spectrum.shape == grid.spectrum_shape
        full_f, full_g = (np.fft.fft2(h.samples) / grid.npoints for h in (f, g))
        m1 = np.fft.fftfreq(grid.n1, 1.0 / grid.n1)[:, None]
        m2 = np.fft.fftfreq(grid.n2, 1.0 / grid.n2)[None, :]
        mass = np.abs(full_f) ** 2
        total = mass.sum()

        spectral = TorusField.from_spectrum(grid, f.spectrum)
        assert spectral.l2() == pytest.approx(np.sqrt(total), rel=1e-13, abs=0.0)
        ref_inner = np.real(np.vdot(full_f, full_g))
        assert abs(inner(f, g) - ref_inner) <= 1e-13 * spectral.l2() * g.l2()
        full_outer = (np.abs(m1) > 7 * grid.n1 / 16) | (np.abs(m2) > 7 * grid.n2 / 16)
        for part, full_part in ((0, m1 == 0), (outer_band(grid), full_outer)):
            expected = np.sqrt(mass[np.broadcast_to(full_part, shape)].sum() / total)
            assert relative_mass(f.spectrum, part) == pytest.approx(expected, abs=1e-13)
        outside = (np.abs(m1) > box[0]) | (np.abs(m2) > box[1])
        expected = mass[np.broadcast_to(outside, shape)].sum()
        assert tail_mass(f, *box) == pytest.approx(expected, rel=0.0, abs=1e-13 * total)


    def test_relative_mass_of_an_exactly_zero_part_reads_nothing_else(self):
        """An exactly zero part is 0.0 at once, without squaring the spectrum."""
        g = GridSpec(8, 8)
        spec = np.fft.rfft2(np.random.default_rng(0).standard_normal(g.shape))
        spec[0, :] = 0.0
        with mock.patch.object(fields, "_scaled_squares") as squares:
            assert relative_mass(spec, 0) == 0.0
            squares.assert_not_called()
        spec[0, 1] = 1e-12
        assert 0.0 < relative_mass(spec, 0) < 1e-12

class TestAdmissibility:
    def test_gate(self):
        g = GridSpec(16, 16)
        bad = TorusField.from_samples(g, np.ones(g.shape))
        with pytest.raises(NonAdmissibleInput):
            require_admissible(bad)
        assert k1zero_residual(bad) == pytest.approx(1.0)

    def test_gate_sees_mass_whose_squares_underflow(self):
        """1e-170 cos(2 pi x2) holds all its mass at k1 = 0, though each
        squared coefficient underflows to 0.0."""
        g = GridSpec(8, 8)
        tiny = TorusField.from_samples(g, np.repeat(1e-170 * np.cos(2 * np.pi * g.x2()), 8, axis=0))
        assert k1zero_residual(tiny) == 1.0
        with pytest.raises(NonAdmissibleInput):
            require_admissible(tiny)

    def test_projection_idempotent(self):
        g = GridSpec(32, 32)
        f = TorusField.from_samples(g, np.random.default_rng(2).standard_normal(g.shape))
        p = project_vanishing_x1_mean(f)
        assert k1zero_residual(p) == 0.0
        p2 = project_vanishing_x1_mean(p)
        assert np.allclose(p.spectrum, p2.spectrum)
        require_admissible(p, ADMISSIBLE_TOL)

    def test_as_admissible_cleans_roundoff(self):
        g = GridSpec(32, 32)
        f = sine_field(g)
        spec = f.spectrum.copy()
        spec[0, 3] = 1e-14
        w = as_admissible(TorusField.from_spectrum(g, spec))
        assert k1zero_residual(w) == 0.0
        assert w.spectrum[0, 3] == 0.0


class TestRandomBandLimited:
    def test_deterministic_and_banded(self):
        g = GridSpec(64, 64)
        w1 = random_band_limited(g, seed=9, kmax=8, amplitude=0.3)
        w2 = random_band_limited(g, seed=9, kmax=8, amplitude=0.3)
        assert np.array_equal(w1.spectrum, w2.spectrum)
        assert w1.linf() == pytest.approx(0.3, rel=1e-12)
        m1, m2 = g.modes1(), g.modes2()
        outside = (np.abs(m1) > 8) | (np.abs(m2) > 8) | (m1 == 0)
        assert np.all(w1.spectrum[np.broadcast_to(outside, g.spectrum_shape)] == 0.0)

    def test_headroom_guard(self):
        with pytest.raises(ValueError):
            random_band_limited(GridSpec(32, 32), seed=0, kmax=11)


class TestRegrid:
    def test_refine_preserves_field(self):
        w = random_band_limited(GridSpec(32, 32), seed=4, kmax=8, amplitude=0.5)
        fine = regrid(w, GridSpec(64, 64))
        assert fine.l2() == pytest.approx(w.l2(), rel=1e-13)
        back = regrid(fine, GridSpec(32, 32))
        assert np.allclose(back.spectrum, w.spectrum, atol=1e-15)
        assert k1zero_residual(fine) == 0.0

    @pytest.mark.parametrize("target", [(16, 16), (8, 16), (16, 8), (8, 8)])
    def test_drops_minus_half_row_and_column(self, target):
        # only modes |m| < min(n_src, n_dst)/2 are carried over
        g = GridSpec(16, 16)
        spec = np.zeros(g.spectrum_shape, complex)
        spec[8, :] = 1.0  # the Nyquist row m1 = 8 (its own partner -8)
        spec[:, 8] = 1.0  # the Nyquist column m2 = -8
        out = regrid(TorusField.from_spectrum(g, spec), GridSpec(*target))
        assert np.all(out.spectrum == 0.0)

    def test_coarse_band_edge_dropped_on_refine(self):
        g = GridSpec(8, 8)
        spec = np.zeros(g.spectrum_shape, complex)
        spec[4, 1] = spec[4, 7] = spec[1, 4] = 1.0  # m1 = 4 and m2 = -4 on the coarse grid
        spec[1, 1] = 2.0
        fine = regrid(TorusField.from_spectrum(g, spec), GridSpec(16, 16))
        expected = np.zeros((9, 16), complex)
        expected[1, 1] = 2.0
        assert np.array_equal(fine.spectrum, expected)


class TestFieldFiles:
    def test_roundtrip(self, tmp_path):
        w = random_band_limited(GridSpec(32, 16), seed=5, kmax=4, amplitude=0.5)
        save_field(w, tmp_path / "w")
        back = load_field(tmp_path / "w")
        assert back.grid == w.grid
        assert np.allclose(back.samples, w.samples, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(sides=st.tuples(*[st.sampled_from([8, 16, 32, 64, 128])] * 2),
           seed=st.integers(0, 2 ** 16), kmax=st.integers(1, 42))
    def test_roundtrip_keeps_the_support(self, sides, seed, kmax):
        """The transform of the saved samples leaves roundoff in every mode;
        the load floor drops it, so the field comes back with its support,
        and its samples move by a few ulps of max|w|."""
        grid = GridSpec(*sides)
        kmax = min(kmax, (min(sides) - 1) // 3)
        w = random_band_limited(grid, seed=seed, kmax=kmax)
        with tempfile.TemporaryDirectory() as tmp:
            save_field(w, Path(tmp) / "w")
            back = load_field(Path(tmp) / "w")
        assert support(back) == support(w) == (kmax, kmax)
        peak = np.max(np.abs(w.samples))
        assert np.max(np.abs(back.samples - w.samples)) <= 8 * np.spacing(peak)

    def test_floor_keeps_small_modes_above_it(self, tmp_path):
        g = GridSpec(16, 16)
        spec = np.zeros(g.spectrum_shape, complex)
        spec[1, 1], spec[2, 3], spec[3, 2] = 1.0, 1e-12, 1e-16
        save_field(TorusField.from_spectrum(g, spec), tmp_path / "w")
        back = load_field(tmp_path / "w").spectrum
        assert 1e-16 < LOAD_FLOOR < 1e-12
        assert back[2, 3] == pytest.approx(1e-12, rel=1e-3)
        assert back[3, 2] == 0.0
        assert np.count_nonzero(back) == 2

    def test_zero_file_loads_as_the_zero_field(self, tmp_path):
        save_field(TorusField.zero(GridSpec(16, 8)), tmp_path / "w")
        back = load_field(tmp_path / "w")
        assert not back.spectrum.any() and not back.samples.any()

    def test_layout_x1_fastest(self, tmp_path):
        g = GridSpec(8, 16)
        samples = np.arange(g.npoints, dtype=float).reshape(g.shape)
        save_field(TorusField.from_samples(g, samples), tmp_path / "f")
        raw = np.fromfile(tmp_path / "f.bin", dtype="<f8")
        # first n1 values scan x1 at fixed x2 = 0
        assert np.array_equal(raw[:g.n1], samples[:, 0])

    def test_bad_header(self, tmp_path):
        w = random_band_limited(GridSpec(16, 16), seed=0, kmax=4)
        save_field(w, tmp_path / "w")
        hdr = (tmp_path / "w.json")
        hdr.write_text(hdr.read_text().replace("f64-le", "f32-be"))
        with pytest.raises(ValueError):
            load_field(tmp_path / "w")

    @pytest.mark.parametrize("header", [
        {"n2": 16}, {"n1": 16.7, "n2": 16}, {"n1": 16, "n2": "16"}, {"n1": True, "n2": 16},
        [16, 16]], ids=["no-n1", "float-n1", "str-n2", "bool-n1", "list"])
    def test_malformed_header_is_a_value_error(self, tmp_path, header):
        save_field(TorusField.zero(GridSpec(16, 16)), tmp_path / "w")
        if isinstance(header, dict):
            header = {"layout": "row-major-x1-fastest", "dtype": "f64-le", **header}
        (tmp_path / "w.json").write_text(json.dumps(header))
        with pytest.raises(ValueError, match="integer n1 and n2"):
            load_field(tmp_path / "w")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, tmp_path, bad):
        samples = np.zeros((16, 16))
        samples[3, 5] = bad
        save_field(TorusField.zero(GridSpec(16, 16)), tmp_path / "w")
        samples.astype("<f8").tofile(tmp_path / "w.bin")
        with pytest.raises(ValueError, match="non-finite"):
            load_field(tmp_path / "w")
