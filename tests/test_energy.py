import contextlib
import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smectic import energy, operators
from smectic.besov import verify_b2s
from smectic.energy import (EnergyLine, EnergyReport, energy_eps, energy_indep,
                            gradient_eps)
from smectic.errors import NonAdmissibleInput
from smectic.fields import (GridSpec, TorusField, as_admissible, inner, kept,
                            project_vanishing_x1_mean, random_band_limited, regrid)
from smectic.operators import (d1, d2, eta, eta_with_residual, inv_abs_d1,
                               multiply_dealiased, padded_samples, support)

GRID = GridSpec(128, 128)
#: every numpy.fft transform the package could call
FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "fftn", "ifftn", "rfftn", "irfftn")


def sine1(grid, a=1.0):
    return TorusField.from_samples(
        grid, np.repeat(a * np.sin(2 * np.pi * grid.x1()), grid.n2, axis=1))


class TestClosedForms:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("eps", [1.0 / 16.0, 1.0 / 64.0])
    def test_single_mode(self, a, eps):
        rep = energy_eps(sine1(GRID, a), eps)
        assert rep.compression == pytest.approx(a ** 4 / 32.0, rel=1e-12)
        assert rep.bending == pytest.approx(2 * np.pi ** 2 * a ** 2, rel=1e-12)
        assert rep.energy_eps == pytest.approx(
            a ** 4 / (64.0 * eps) + np.pi ** 2 * a ** 2 * eps, rel=1e-10)
        assert rep.energy_indep == pytest.approx(np.pi * a ** 3 / 4.0, rel=1e-10)

    def test_zero_field(self):
        rep = energy_eps(TorusField.zero(GRID), 0.1)
        assert rep.energy_eps == 0.0
        assert rep.energy_indep == 0.0

    def test_indep_is_min_over_eps(self):
        w = random_band_limited(GRID, seed=1, kmax=16, amplitude=0.5)
        e_star = energy_indep(w)
        for eps in np.geomspace(1e-3, 1.0, 25):
            assert energy_eps(w, eps).energy_eps >= e_star * (1 - 1e-12)
        rep = energy_eps(w, 1.0)
        eps_opt = np.sqrt(rep.compression / rep.bending)
        assert energy_eps(w, eps_opt).energy_eps == pytest.approx(e_star, rel=1e-12)

    def test_at_eps_equals_evaluation_at_eps(self):
        w = random_band_limited(GRID, seed=5, kmax=16, amplitude=0.5)
        rep = energy_eps(w, 0.25)
        for eps in (0.25, 0.1, 2.0 ** -6):
            assert rep.at_eps(eps) == energy_eps(w, eps)  # bit for bit
        with pytest.raises(ValueError):
            rep.at_eps(0.0)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            energy_eps(sine1(GRID), 0.0)
        with pytest.raises(ValueError):
            gradient_eps(sine1(GRID), -1.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="positive and finite"):
            EnergyReport.weighted(1.0, 1.0, eps, 0.0)
        with pytest.raises(ValueError, match="positive and finite"):
            gradient_eps(sine1(GRID), eps)


class TestGradient:
    @pytest.mark.parametrize("eps", [1.0 / 16.0, 1.0 / 64.0])
    def test_matches_central_differences(self, eps):
        w = random_band_limited(GRID, seed=2, kmax=16, amplitude=0.5)
        v = random_band_limited(GRID, seed=3, kmax=16, amplitude=0.5)
        t = 1e-5
        plus = energy_eps(as_admissible(w + t * v), eps).energy_eps
        minus = energy_eps(as_admissible(w + (-t) * v), eps).energy_eps
        numeric = (plus - minus) / (2 * t)
        analytic = inner(gradient_eps(w, eps), v)
        assert analytic == pytest.approx(numeric, rel=1e-5)

    def test_single_mode_pairing(self):
        # <g, w> for w = a sin(2 pi x1): a^4/(16 eps) + 2 pi^2 a^2 eps
        a, eps = 0.9, 0.125
        w = sine1(GRID, a)
        val = inner(gradient_eps(w, eps), w)
        assert val == pytest.approx(a ** 4 / (16 * eps) + 2 * np.pi ** 2 * a ** 2 * eps,
                                    rel=1e-10)

    def test_gradient_is_admissible(self):
        w = random_band_limited(GRID, seed=4, kmax=16, amplitude=0.5)
        g = gradient_eps(w, 0.1)
        assert np.all(g.spectrum[0, :] == 0.0)

    def test_zero_at_origin(self):
        g = gradient_eps(TorusField.zero(GRID), 0.1)
        assert g.l2() == 0.0

    def test_checked_where_w_enters(self):
        """gradient_eps and energy_eps make no admissibility check of their
        own: eta_with_residual checks w where it enters, so a field with
        k1 = 0 content is refused by both."""
        ones = TorusField.from_samples(GridSpec(32, 32), np.ones((32, 32)))
        with pytest.raises(NonAdmissibleInput):
            gradient_eps(ones, 0.1)
        with pytest.raises(NonAdmissibleInput):
            energy_eps(ones, 0.1)


class TestHalfSpectrumPath:
    """gradient_eps and EnergyLine work on half spectra; they give the bits
    of the field operators they stand for."""

    @settings(max_examples=40, deadline=None)
    @given(n1=st.integers(8, 40).map(lambda k: 2 * k), n2=st.integers(8, 40).map(lambda k: 2 * k),
           seeds=st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16)),
           kmax=st.integers(1, 5), amplitude=st.floats(0.01, 1.0), eps=st.floats(0.01, 1.0),
           a=st.floats(0.0, 2.0), on_a_line=st.booleans())
    def test_matches_the_field_operators_bit_for_bit(self, n1, n2, seeds, kmax, amplitude,
                                                     eps, a, on_a_line):
        grid = GridSpec(n1, n2)
        w, d = (random_band_limited(grid, seed=s, kmax=kmax, amplitude=amplitude)
                for s in seeds)
        p = EnergyLine(w, d, eps).point(a)
        assert np.array_equal(p.spectrum, w.spectrum - a * d.spectrum)
        if on_a_line:  # its eta and samples kept, as the minimizer's iterates
            w = p
        big_g = inv_abs_d1(inv_abs_d1(eta(w)))
        expected = project_vanishing_x1_mean(
            (1 / eps) * (multiply_dealiased(w, d1(big_g)) - d2(big_g)) - eps * d1(d1(w)))
        assert np.array_equal(gradient_eps(w, eps).spectrum, expected.spectrum)


class TestTwoColumnGrid:
    """An x2-free field on n1 x 2, the grid GridSpec.x2_free gives: its m2 = 0
    column and an empty Nyquist column.  Its energy, gradient and lines are
    those of the same field on n1 x 8, and regrid carries it over exactly."""

    @staticmethod
    def column(grid, rng, kmax, amplitude):
        """A random admissible field of x1 alone on modes 0 < m1 <= kmax."""
        spec = np.zeros(grid.spectrum_shape, dtype=complex)
        spec[1:kmax + 1, 0] = rng.standard_normal(kmax) + 1j * rng.standard_normal(kmax)
        return TorusField.from_spectrum(grid, amplitude / kmax * spec)

    @staticmethod
    def assert_close(lean, wide):
        assert abs(lean - wide) <= 1e-14 * abs(wide)

    @settings(max_examples=40, deadline=None)
    @given(n1=st.integers(4, 64).map(lambda k: 2 * k), seed=st.integers(0, 2 ** 16),
           kmax=st.integers(1, 5), amplitudes=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
           eps=st.floats(0.01, 1.0), a=st.floats(0.0, 2.0))
    def test_matches_eight_columns(self, n1, seed, kmax, amplitudes, eps, a):
        wide = GridSpec(n1, 8)
        lean = wide.x2_free()
        assert lean == GridSpec(n1, 2)
        rng = np.random.default_rng(seed)
        w8, v8 = (self.column(wide, rng, min(kmax, n1 // 4), amp) for amp in amplitudes)
        w2, v2 = regrid(w8, lean), regrid(v8, lean)
        for f8, f2 in ((w8, w2), (v8, v2)):
            assert np.array_equal(f2.spectrum[:, 0], f8.spectrum[:, 0])
            assert not f2.spectrum[:, 1].any()
            assert np.array_equal(regrid(f2, wide).spectrum, f8.spectrum)
            assert np.array_equal(regrid(regrid(f2, wide), lean).spectrum, f2.spectrum)
        self.assert_close(energy_eps(w2, eps).energy_eps, energy_eps(w8, eps).energy_eps)
        g2, g8 = gradient_eps(w2, eps).spectrum, gradient_eps(w8, eps).spectrum
        assert not g2[:, 1].any() and not g8[:, 1:].any()
        assert np.abs(g2[:, 0] - g8[:, 0]).max() <= 1e-14 * np.abs(g8).max()
        line2, line8 = EnergyLine(w2, v2, eps), EnergyLine(w8, v8, eps)
        self.assert_close(line2.energy(a), line8.energy(a))
        p2, p8 = line2.point(a), line8.point(a)
        assert np.array_equal(p2.spectrum, regrid(p8, lean).spectrum)
        self.assert_close(energy_eps(p2, eps).energy_eps, energy_eps(p8, eps).energy_eps)


class TestRealTransformsOnly:
    @pytest.mark.parametrize("from_samples", [False, True])
    def test_no_complex_2d_transform(self, monkeypatch, from_samples):
        """Spectra hold the Hermitian half, so a pass of energy_eps,
        gradient_eps and verify_b2s needs no complex 2D or nD transform."""
        w = random_band_limited(GridSpec(64, 48), seed=4, kmax=8, amplitude=0.5)
        if from_samples:
            w = TorusField.from_samples(w.grid, w.samples)
        calls = []
        for name in ("fft2", "ifft2", "fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, lambda *a, _n=name, **k: calls.append(_n))
        energy_eps(w, 0.1), gradient_eps(w, 0.1), verify_b2s(w)
        assert calls == []


def _traced(test):
    """Run test(tracer) with perfbench's tracer installed on the package."""
    importlib.import_module("smectic.cli")  # the tracer wraps every module
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        test(tracer)
    finally:
        tracer.uninstall()


class TestEnergyLine:
    EPS = 0.0625

    @staticmethod
    def line(seed=3, grid=GridSpec(64, 64)):
        w = random_band_limited(grid, seed=seed, kmax=8, amplitude=0.3)
        d = gradient_eps(w, TestEnergyLine.EPS)
        return w, d, EnergyLine(w, d, TestEnergyLine.EPS)

    @settings(max_examples=40, deadline=None)
    @given(n1=st.integers(8, 32).map(lambda k: 2 * k), n2=st.integers(8, 32).map(lambda k: 2 * k),
           seeds=st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16)),
           kmax=st.integers(1, 5), amplitudes=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
           eps=st.floats(0.01, 1.0), a=st.floats(0.0, 4.0))
    # w = a*d exactly: both sides are roundoff of the zero field's energy
    @example(n1=16, n2=16, seeds=(0, 0), kmax=1, amplitudes=(0.375, 1.0), eps=1.0, a=0.375)
    def test_energy_is_the_energy_of_the_point(self, n1, n2, seeds, kmax, amplitudes, eps, a):
        grid = GridSpec(n1, n2)
        w, d = (random_band_limited(grid, seed=s, kmax=kmax, amplitude=amp)
                for s, amp in zip(seeds, amplitudes))
        direct = energy_eps(as_admissible(w - a * d), eps).energy_eps
        # an absolute floor at roundoff of the sizes of the line's terms
        floor = 1e-14 * (energy_eps(w, eps).energy_eps + energy_eps(a * d, eps).energy_eps)
        assert EnergyLine(w, d, eps).energy(a) == pytest.approx(direct, rel=1e-12, abs=floor)

    def test_point_keeps_the_eta_and_samples_of_a_fresh_twin(self):
        w, d, line = self.line()
        p = line.point(0.37)
        twin = TorusField.from_spectrum(p.grid, p.spectrum)
        (e, residual), (e_twin, residual_twin) = eta_with_residual(p), eta_with_residual(twin)
        assert residual == residual_twin == 0.0
        scale = e_twin.l2()
        assert np.abs(e.spectrum - e_twin.spectrum).max() <= 1e-14 * scale
        fresh = padded_samples(twin.spectrum, support(twin), line.fine)
        assert np.allclose(kept(p, line.fine), fresh, rtol=0.0,
                           atol=1e-14 * np.abs(p.samples).max())
        assert energy_eps(p, self.EPS).energy_eps == pytest.approx(line.energy(0.37), rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(n1=st.integers(8, 32).map(lambda k: 2 * k),
           n2=st.one_of(st.just(8), st.integers(8, 32).map(lambda k: 2 * k)),
           seed=st.integers(0, 2 ** 16), kmax=st.tuples(st.integers(1, 6), st.integers(1, 6)),
           a=st.floats(0.01, 4.0))
    @example(n1=48, n2=40, seed=0, kmax=(6, 2), a=0.5)
    @example(n1=64, n2=8, seed=0, kmax=(2, 1), a=4.0)
    def test_point_needs_no_transform_for_its_energy_and_two_for_its_gradient(
            self, n1, n2, seed, kmax, a):
        """The line predicts the grid of the gradient's product at its
        points: whatever the grid and the supports of w and d, the point's
        energy makes no transform and its gradient two (d1 G's inverse, the
        product's forward)."""
        grid = GridSpec(n1, n2)
        w, d = (random_band_limited(grid, seed=seed + i, kmax=min(k, (min(n1, n2) - 1) // 3),
                                    amplitude=0.3)
                for i, k in enumerate(kmax))
        p = EnergyLine(w, d, self.EPS).point(a)
        calls = []
        with contextlib.ExitStack() as stack:
            for name in FFT_NAMES:
                stack.enter_context(mock.patch.object(
                    np.fft, name, lambda *args, _f=getattr(np.fft, name), **kw:
                    calls.append(None) or _f(*args, **kw)))
            energy_eps(p, self.EPS)
            assert len(calls) == 0
            gradient_eps(p, self.EPS)
        assert len(calls) == 2

    @settings(max_examples=80, deadline=None)
    @given(halves=st.tuples(st.integers(4, 40), st.integers(4, 40)), data=st.data(),
           seed=st.integers(0, 2 ** 16), a=st.floats(0.01, 4.0))
    def test_the_line_grid_is_as_fine_as_every_plan(self, halves, data, seed, a):
        """Whatever the supports of w and d (drawn per axis, from 1 and 0 up
        to the outer band), the line's grid is at least as fine as the plans
        of w d, of d^2 and of the product w * d1 G that gradient_eps makes at
        a point."""
        grid = GridSpec(*(2 * h for h in halves))
        rng = np.random.default_rng(seed)

        def draw():
            k1, k2 = (data.draw(st.integers(low, 7 * n // 16)) for low, n in zip((1, 0), grid.shape))
            keep = (grid.modes1() >= 1) & (grid.modes1() <= k1) & (np.abs(grid.modes2()) <= k2)
            half = grid.spectrum_shape
            spec = rng.standard_normal(half) + 1j * rng.standard_normal(half)
            return TorusField.from_spectrum(grid, np.where(keep, spec, 0.0))

        w, d = draw(), draw()
        line = EnergyLine(w, d, self.EPS)
        p = line.point(a)
        d1_g = d1(inv_abs_d1(inv_abs_d1(eta(p))))
        for factors in ((w, d), (d, d), (p, d1_g)):
            plan = operators.product_plan(grid, tuple(support(f) for f in factors))[0]
            assert plan.n1 <= line.fine.n1 and plan.n2 <= line.fine.n2

    def test_the_tracer_finds_the_kept_eta_and_counts_the_same_transforms(self):
        _, _, line = self.line()

        def check(tracer):
            p = line.point(0.5)
            before = tracer.fft_calls
            kept_eta = kept(p, eta_with_residual.key)
            # the names the tracer rebound: the kept value is found through them
            assert operators.eta_with_residual(p) is kept_eta
            energy.energy_eps(p, self.EPS)
            assert tracer.fft_calls == before
            energy.gradient_eps(p, self.EPS)
            assert tracer.fft_calls == before + 2  # d1 G's inverse, the product's forward

        _traced(check)

    def test_lines_need_admissible_factors(self):
        w = random_band_limited(GridSpec(32, 32), seed=1, kmax=4)
        ones = TorusField.from_samples(w.grid, np.ones(w.grid.shape))
        with pytest.raises(NonAdmissibleInput):
            EnergyLine(w, ones, 0.1)
        with pytest.raises(ValueError):
            EnergyLine(w, w, 0.0)
