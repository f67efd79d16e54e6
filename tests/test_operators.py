import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smectic import operators
from smectic.energy import energy_eps, energy_indep, gradient_eps
from smectic.errors import BandLimitExceeded, NonAdmissibleInput
from smectic.fields import (ADMISSIBLE_TOL, AdmissibleField, GridSpec, TorusField,
                            _embed_band, inner, k1zero_residual,
                            random_band_limited, require_admissible)
from smectic.operators import (_padded_product, band_headroom_residual,
                               cube_dealiased, d1, d2, diff1, eta, frac_abs_d1,
                               inv_abs_d1, multiply_dealiased, outer_band,
                               require_band_headroom, shift1, shift2,
                               square_dealiased)


def sine1(grid, a=1.0, m=1):
    return AdmissibleField.from_samples(
        grid, np.repeat(a * np.sin(2 * np.pi * m * grid.x1()), grid.n2, axis=1))


GRID = GridSpec(64, 64)


class TestDerivatives:
    def test_d1_sine(self):
        w = sine1(GRID, a=0.8, m=3)
        expected = np.repeat(0.8 * 6 * np.pi * np.cos(6 * np.pi * GRID.x1()),
                             GRID.n2, axis=1)
        assert np.allclose(d1(w).samples, expected, atol=1e-10)

    def test_d2_of_x2_mode(self):
        f = TorusField.from_samples(
            GRID, np.repeat(np.cos(2 * np.pi * GRID.x2()), GRID.n1, axis=0))
        expected = -2 * np.pi * np.repeat(np.sin(2 * np.pi * GRID.x2()), GRID.n1, axis=0)
        assert np.allclose(d2(f).samples, expected, atol=1e-10)

    def test_derivatives_stay_real_at_nyquist(self):
        g = GridSpec(8, 8)
        f = TorusField.from_samples(g, np.random.default_rng(0).standard_normal(g.shape))
        assert np.isrealobj(d1(f).samples)
        assert np.isrealobj(d2(f).samples)

    def test_adjointness(self):
        f = random_band_limited(GRID, seed=1, kmax=8, amplitude=0.5)
        g = random_band_limited(GRID, seed=2, kmax=8, amplitude=0.5)
        assert inner(d1(f), g) == pytest.approx(-inner(f, d1(g)), rel=1e-12)


class TestInverseOperators:
    def test_inv_abs_d1_inverts(self):
        w = sine1(GRID, m=2)
        back = inv_abs_d1(inv_abs_d1(w))
        assert np.allclose(back.samples, w.samples / (4 * np.pi) ** 2, atol=1e-12)

    def test_rejects_nonadmissible(self):
        f = TorusField.from_samples(GRID, np.ones(GRID.shape))
        with pytest.raises(NonAdmissibleInput):
            inv_abs_d1(f)

    def test_frac_matches_full_power(self):
        w = sine1(GRID, m=1)
        full = frac_abs_d1(w, 1.0)
        assert np.allclose(full.samples, 2 * np.pi * w.samples, atol=1e-10)
        half = frac_abs_d1(frac_abs_d1(w, 0.5), 0.5)
        assert np.allclose(half.samples, full.samples, atol=1e-10)
        with pytest.raises(ValueError):
            frac_abs_d1(w, 1.5)


class TestShifts:
    def test_identity_and_group_law(self):
        w = random_band_limited(GRID, seed=3, kmax=8, amplitude=0.5)
        assert np.allclose(shift1(w, 0.0).samples, w.samples, atol=0.0)
        lhs = shift1(shift1(w, 0.3), 0.45)
        rhs = shift1(w, 0.75)
        assert (lhs - rhs).l2() <= 1e-13 * w.l2()

    def test_grid_shift_is_roll(self):
        w = random_band_limited(GRID, seed=4, kmax=8, amplitude=0.5)
        shifted = shift2(w, 1.0 / GRID.n2)
        assert np.allclose(shifted.samples, np.roll(w.samples, -1, axis=1), atol=1e-12)

    def test_adjoint_shift_identity(self):
        # int f * diff^{-h} g = int diff^{h} f * g
        f = random_band_limited(GRID, seed=5, kmax=8, amplitude=0.5)
        g = random_band_limited(GRID, seed=6, kmax=8, amplitude=0.5)
        h = 0.17
        lhs = inner(f, shift1(g, -h) - g)
        rhs = inner(shift1(f, h) - f, g)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_diff_vanishes_at_zero(self):
        w = random_band_limited(GRID, seed=7, kmax=8, amplitude=0.5)
        assert diff1(w, 0.0).l2() == 0.0


class TestDealiasedProducts:
    def test_square_closed_form(self):
        w = sine1(GRID, a=2.0)
        x1 = GRID.x1()
        expected = np.repeat(2.0 * (1 - np.cos(4 * np.pi * x1)), GRID.n2, axis=1)
        assert np.allclose(square_dealiased(w).samples, expected, atol=1e-12)

    def test_cube_closed_form(self):
        # sin^3 = (3 sin - sin 3)/4
        w = sine1(GRID, a=1.0)
        x1 = GRID.x1()
        expected = np.repeat((3 * np.sin(2 * np.pi * x1)
                              - np.sin(6 * np.pi * x1)) / 4.0, GRID.n2, axis=1)
        assert np.allclose(cube_dealiased(w).samples, expected, atol=1e-12)

    def test_product_no_aliasing_at_band_edge(self):
        # modes at m and n/2 - m - 1 would alias on the bare grid
        g = GridSpec(32, 8)
        f = sine1(g, m=10)
        prod = multiply_dealiased(f, f)
        # exact: sin^2(2 pi 10 x) = (1 - cos(2 pi 20 x))/2; mode 20 > n/2 is cut
        spec = prod.spectrum
        assert spec[0, 0] == pytest.approx(0.5, abs=1e-13)
        retained = spec.copy()
        retained[0, 0] = 0.0
        assert np.max(np.abs(retained)) < 1e-13

    @pytest.mark.parametrize("product,inverse_ffts", [
        (square_dealiased, 1), (cube_dealiased, 1),
        (lambda f: multiply_dealiased(f, 2.0 * f), 2)])
    def test_one_inverse_transform_per_distinct_factor(self, monkeypatch,
                                                       product, inverse_ffts):
        f = random_band_limited(GRID, seed=8, kmax=8, amplitude=0.5)
        calls = []
        for name in ("fft2", "ifft2", "rfft2", "irfft2"):
            real = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, _f=real, _n=name, **kw:
                                calls.append(_n) or _f(*a, **kw))
        product(f)
        assert calls.count("irfft2") == inverse_ffts
        assert calls.count("rfft2") == 1
        assert calls.count("fft2") == calls.count("ifft2") == 0

    @staticmethod
    def _complex_path(fields, factor):
        """The product through complex transforms of the zero-padded
        spectra: the reference for the real-transform kernel."""
        grid = fields[0].grid
        shape = tuple(n + n % 2 for n in (int(np.ceil(factor * grid.n1)),
                                          int(np.ceil(factor * grid.n2))))
        scale = shape[0] * shape[1]
        prod = np.ones(shape)
        for f in fields:
            prod = prod * np.real(np.fft.ifft2(_embed_band(f.spectrum, shape)) * scale)
        return _embed_band(np.fft.fft2(prod) / scale, grid.shape)

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from([(8, 8), (10, 12), (16, 40), (40, 16), (64, 64)]),
           seed=st.integers(0, 2 ** 32 - 1), hermitian=st.booleans(),
           arity=st.sampled_from(["square", "cube", "pair"]))
    def test_real_transforms_match_complex_path(self, shape, seed, hermitian, arity):
        # full-band spectra: the Nyquist row and column carry mass
        grid = GridSpec(*shape)
        rng = np.random.default_rng(seed)

        def draw():
            if hermitian:
                return TorusField.from_samples(grid, rng.standard_normal(shape))
            return TorusField.from_spectrum(
                grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

        f, g = draw(), draw()
        assert np.abs(f.spectrum[grid.n1 // 2, :]).max() > 0.0
        assert np.abs(f.spectrum[:, grid.n2 // 2]).max() > 0.0
        fields, factor = {"square": ([f, f], 1.5), "cube": ([f, f, f], 2.0),
                          "pair": ([f, g], 1.5)}[arity]
        expected = self._complex_path(fields, factor)
        got = _padded_product(fields, factor).spectrum
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("shape", [(8, 8), (10, 12), (32, 32), (40, 16), (1024, 64)])
    def test_outer_band_in_integer_arithmetic(self, shape):
        g = GridSpec(*shape)
        expected = (np.abs(g.modes1()) > 7 * g.n1 // 16) | (np.abs(g.modes2()) > 7 * g.n2 // 16)
        assert np.array_equal(outer_band(g), expected)

    def test_headroom_guard(self):
        g = GridSpec(32, 32)
        m1 = g.modes1()
        spec = np.zeros(g.shape, complex)
        spec[np.nonzero(m1.ravel() == 15)[0][0], 0] = 0.5
        spec[np.nonzero(m1.ravel() == -15)[0][0], 0] = 0.5
        f = TorusField.from_spectrum(g, spec)
        assert band_headroom_residual(f) == pytest.approx(1.0)
        with pytest.raises(BandLimitExceeded):
            require_band_headroom(f)
        with pytest.raises(BandLimitExceeded):
            square_dealiased(f)


#: values for a gated spectral region: signed zeros, subnormal, tiny, unit,
#: large (squares overflow) and NaN
GATE_VALUES = [0.0, -0.0, 5e-324, 1e-300, 1e-12, 1.0, 1e300, np.nan]
#: each gate with its unchanged residual, error, gated region on 8x8 (the
#: k1 = 0 row; the outer band) and tolerance
GATES = {
    "admissible": (require_admissible, k1zero_residual, NonAdmissibleInput,
                   np.arange(8)[:, None] == 0, ADMISSIBLE_TOL),
    "headroom": (require_band_headroom, band_headroom_residual, BandLimitExceeded,
                 outer_band(GridSpec(8, 8)), operators.HEADROOM_TOL),
}


class TestGateShortcuts:
    @pytest.mark.parametrize("gate", sorted(GATES))
    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2 ** 16))
    def test_verdict_is_the_residual_rule(self, gate, data, seed):
        """Each gate raises iff its residual exceeds tol, also where its
        empty-region shortcut skips the residual: the region holds signed
        zeros and one of GATE_VALUES, or any mix of them; the rest of the
        spectrum is zero, tiny, unit, overflowing or NaN."""
        require, residual, error, region, default_tol = GATES[gate]
        g = GridSpec(8, 8)
        region = np.broadcast_to(region, g.shape)
        n = 2 * int(region.sum())  # real and imaginary parts
        pattern = data.draw(st.lists(st.sampled_from([0.0, -0.0, None]),
                                     min_size=n, max_size=n))
        mixed = data.draw(st.lists(st.sampled_from(GATE_VALUES), min_size=n, max_size=n))
        fills = [[v if p is None else p for p in pattern] for v in GATE_VALUES] + [mixed]
        rng = np.random.default_rng(seed)
        rest = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        for fill, scale, tol in itertools.product(
                fills, (0.0, 1e-300, 1.0, 1e300, np.nan), (0.0, default_tol, 1.0)):
            spec = scale * rest
            spec[region] = np.array(fill[:n // 2]) + 1j * np.array(fill[n // 2:])
            f = TorusField.from_spectrum(g, spec)
            with np.errstate(all="ignore"):
                expected = residual(f) > tol
                try:
                    require(f, tol)
                    raised = False
                except error:
                    raised = True
            assert raised == expected, (fill, scale, tol)


class TestEta:
    def test_closed_form_sine(self):
        # w = a sin(2 pi x1): eta = -pi a^2 sin(4 pi x1)
        a = 0.7
        w = sine1(GRID, a=a)
        expected = np.repeat(-np.pi * a ** 2 * np.sin(4 * np.pi * GRID.x1()),
                             GRID.n2, axis=1)
        assert np.allclose(eta(w).samples, expected, atol=1e-12)

    def test_admissible_output(self):
        w = random_band_limited(GRID, seed=8, kmax=8, amplitude=0.5)
        e = eta(w)
        assert np.all(e.spectrum[0, :] == 0.0)

    def test_computed_once_per_field_instance(self, monkeypatch):
        w = random_band_limited(GRID, seed=8, kmax=8, amplitude=0.5)
        squares = []  # per product: is it a square (eta's only product)?

        def counting(fields, factor):
            squares.append(fields[0] is fields[-1])
            return _padded_product(fields, factor)

        monkeypatch.setattr(operators, "_padded_product", counting)
        first = energy_eps(w, 0.1)
        assert squares == [True]
        squares.clear()
        assert energy_eps(w, 0.1) == first
        energy_indep(w)
        gradient_eps(w, 0.1)
        assert squares == [False]  # gradient_eps's own product w * d1 G
        squares.clear()
        # a new instance with the same values evaluates afresh, to the same bits
        assert energy_eps(w + 0 * w, 0.1) == first
        assert squares == [True]

    def test_failed_evaluation_raises_every_time(self):
        f = TorusField.from_samples(GRID, np.ones(GRID.shape))
        for _ in range(2):
            with pytest.raises(NonAdmissibleInput):
                eta(f)
        assert f._eta is None

    def test_stored_eta_not_compared_or_shown(self):
        w = random_band_limited(GRID, seed=8, kmax=8, amplitude=0.5)
        twin = AdmissibleField.from_spectrum(GRID, w.spectrum)
        shown = repr(w)
        eta(w)
        assert w._eta is not None and twin._eta is None
        assert w == twin
        assert repr(w) == shown == repr(twin)
