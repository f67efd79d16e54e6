import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smectic import energy, operators
from smectic.ansatz import mollify, vertical_two_shock
from smectic.energy import energy_eps, energy_indep, gradient_eps
from smectic.errors import BandLimitExceeded, NonAdmissibleInput
from smectic.besov import verify_b2s
from smectic.fields import (ADMISSIBLE_TOL, GridSpec, TorusField, as_admissible,
                            inner, k1zero_residual, project_vanishing_x1_mean,
                            random_band_limited, regrid, require_admissible)
from smectic.minimize import MinimizeOptions, minimize
from smectic.operators import (_dealiased_product, _padded_product,
                               band_headroom_residual, cube_dealiased, d1, d2,
                               diff1, diff2, eta,
                               frac_abs_d1, inv_abs_d1, multiply_dealiased,
                               outer_band, require_band_headroom, shift1,
                               shift2, square_dealiased)


def sine1(grid, a=1.0, m=1):
    return TorusField.from_samples(
        grid, np.repeat(a * np.sin(2 * np.pi * m * grid.x1()), grid.n2, axis=1))


GRID = GridSpec(64, 64)


def hermitian_rows(spec):
    """spec with rows m1 = 0 and n1/2 made Hermitian in m2, as a real field
    holds them: each m2 < 0 takes the conjugate of its partner -m2, and
    m2 = 0 and -n2/2 keep their real parts; values are copied, not averaged."""
    out = np.array(spec, dtype=complex)
    h = out.shape[1] // 2
    out[[0, -1], h + 1:] = np.conj(out[[0, -1], h - 1:0:-1])
    out[[0, -1], ::h] = out[[0, -1], ::h].real
    return out


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
        for name in ("fft2", "ifft2", "fftn", "ifftn", "rfftn", "irfftn"):
            real = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, _f=real, _n=name, **kw:
                                calls.append(_n) or _f(*a, **kw))
        product(f)
        assert calls.count("irfftn") == inverse_ffts
        assert calls.count("rfftn") == 1
        assert len(calls) == inverse_ffts + 1  # no complex 2D transform

    @staticmethod
    def _pad(full, shape):
        """Zero-pad a full FFT-ordered spectrum to `shape`, axis by axis,
        its Nyquist row and column split evenly between -n/2 and +n/2: the
        spectrum of the tensor-product trigonometric interpolant."""
        for axis, n_new in enumerate(shape):
            a = np.moveaxis(full, axis, 0)
            h = a.shape[0] // 2
            out = np.zeros((n_new,) + a.shape[1:], dtype=complex)
            out[:h], out[-h:] = a[:h], a[-h:]
            out[-h] *= 0.5
            out[h] = out[-h]
            full = np.moveaxis(out, 0, axis)
        return full

    @classmethod
    def _complex_path(cls, fields, factor):
        """The product through complex transforms of the factors' full
        spectra (fft2 of their samples), zero-padded: the full spectrum of
        the product on the padded grid, the reference for the real-transform
        kernel."""
        grid = fields[0].grid
        shape = tuple(n + n % 2 for n in (int(np.ceil(factor * grid.n1)),
                                          int(np.ceil(factor * grid.n2))))
        scale = shape[0] * shape[1]
        prod = np.ones(shape)
        for f in fields:
            full = np.fft.fft2(f.samples) / grid.npoints
            prod = prod * np.real(np.fft.ifft2(cls._pad(full, shape)) * scale)
        return np.fft.fft2(prod) / scale

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from([(8, 8), (10, 12), (16, 40), (40, 16), (64, 64),
                                    (16, 2), (12, 4), (40, 6)]),
           seed=st.integers(0, 2 ** 32 - 1), hermitian=st.booleans(),
           arity=st.sampled_from(["square", "cube", "pair"]))
    def test_real_transforms_match_complex_path(self, shape, seed, hermitian, arity):
        """Full-band real fields, from samples or from random complex half
        spectra: on every retained mode |m| < n/2 the kernel matches the
        complex path; its Nyquist row and column are exactly zero."""
        grid = GridSpec(*shape)
        rng = np.random.default_rng(seed)
        half = grid.spectrum_shape

        def draw():
            if hermitian:
                return TorusField.from_samples(grid, rng.standard_normal(shape))
            return TorusField.from_spectrum(grid, hermitian_rows(
                rng.standard_normal(half) + 1j * rng.standard_normal(half)))

        f, g = draw(), draw()
        assert np.abs(f.spectrum[grid.n1 // 2, :]).max() > 0.0
        assert np.abs(f.spectrum[:, grid.n2 // 2]).max() > 0.0
        fields, factor = {"square": ([f, f], 1.5), "cube": ([f, f, f], 2.0),
                          "pair": ([f, g], 1.5)}[arity]
        full = self._complex_path(fields, factor)
        h1, h2 = grid.n1 // 2, grid.n2 // 2
        expected = np.zeros(half, dtype=complex)  # the modes |m| < n/2
        expected[:h1, :h2] = full[:h1, :h2]
        expected[:h1, grid.n2 - h2 + 1:] = full[:h1, full.shape[1] - h2 + 1:]
        got = _dealiased_product(fields)
        assert np.all(got[h1] == 0.0) and np.all(got[:, h2] == 0.0)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from([(8, 8), (10, 12), (16, 40), (40, 16), (64, 64),
                                    (16, 2), (12, 4), (40, 6)]),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data(),
           arity=st.sampled_from(["square", "cube", "pair"]))
    def test_band_limited_factors_keep_their_support(self, shape, seed, data, arity):
        """Factors supported on |m1| <= K1, |m2| <= K2, drawn per factor and
        axis (0, full band with the Nyquist mode, or between): on the band
        |m| <= R = min(K sum, n/2 - 1) the kernel matches the complex path,
        and beyond it the product is exactly zero."""
        grid = GridSpec(*shape)
        rng = np.random.default_rng(seed)
        half = grid.spectrum_shape

        def support(n):
            return data.draw(st.one_of(st.just(0), st.just(n // 2), st.integers(0, n // 2)))

        def draw():
            k = support(grid.n1), support(grid.n2)
            keep = (grid.modes1() <= k[0]) & (np.abs(grid.modes2()) <= k[1])
            spec = rng.standard_normal(half) + 1j * rng.standard_normal(half)
            return TorusField.from_spectrum(grid, hermitian_rows(np.where(keep, spec, 0.0))), k

        (f, kf), (g, kg) = draw(), draw()
        fields, supports, factor = {"square": ([f, f], [kf, kf], 1.5),
                                    "cube": ([f, f, f], [kf, kf, kf], 2.0),
                                    "pair": ([f, g], [kf, kg], 1.5)}[arity]
        r1, r2 = (min(sum(k[a] for k in supports), n // 2 - 1)
                  for a, n in enumerate(grid.shape))
        full = self._complex_path(fields, factor)
        m1, m2 = grid.modes1(), grid.modes2()
        retained = (m1 <= r1) & (np.abs(m2) <= r2)
        expected = np.where(retained, full[m1 % full.shape[0], m2 % full.shape[1]], 0.0)
        got = _dealiased_product(fields)
        assert np.all(got[~retained] == 0.0)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from([(8, 8), (10, 12), (16, 40), (40, 16), (64, 64),
                                    (16, 2), (12, 4), (40, 6)]),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data(),
           arity=st.sampled_from(["square", "cube", "pair"]),
           extra=st.tuples(st.integers(0, 12), st.integers(0, 12)))
    def test_a_finer_grid_keeps_the_plans_product(self, shape, seed, data, arity, extra):
        """On its plan's own grid, given explicitly, the one entry gives the
        same bits as with no grid; on a finer grid (2 * extra more points per
        axis) it agrees within roundoff on the kept band, beyond which both
        are exactly zero."""
        grid = GridSpec(*shape)
        rng = np.random.default_rng(seed)

        def draw():
            k = [data.draw(st.integers(0, n // 2)) for n in grid.shape]
            keep = (grid.modes1() <= k[0]) & (np.abs(grid.modes2()) <= k[1])
            half = grid.spectrum_shape
            spec = rng.standard_normal(half) + 1j * rng.standard_normal(half)
            return TorusField.from_spectrum(grid, hermitian_rows(np.where(keep, spec, 0.0)))

        f, g = draw(), draw()
        fields = {"square": [f, f], "cube": [f, f, f], "pair": [f, g]}[arity]
        plan, (r1, r2) = operators.product_plan(grid, tuple(operators.support(h) for h in fields))
        ref = _dealiased_product(fields)
        assert np.array_equal(_dealiased_product(fields, plan), ref)
        got = _dealiased_product(fields, GridSpec(plan.n1 + 2 * extra[0], plan.n2 + 2 * extra[1]))
        retained = (grid.modes1() <= r1) & (np.abs(grid.modes2()) <= r2)
        assert np.all(got[~retained] == 0.0) and np.all(ref[~retained] == 0.0)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("shape", [(8, 8), (10, 12), (64, 64), (74, 22)])
    @pytest.mark.parametrize("arity,pad", [(2, 1.5), (3, 2.0)])
    def test_full_band_input_takes_the_full_band_grid(self, monkeypatch, shape, arity, pad):
        """Full-band factors transform on the 3n/2 (two factors) or 2n
        (three) grid, rounded up to even, even where that size is not
        2,3,5-smooth (74 * 3/2 = 111 -> 112)."""
        grid = GridSpec(*shape)
        f = TorusField.from_samples(grid, np.random.default_rng(9).standard_normal(shape))
        f.spectrum  # transformed before the count starts
        assert self._forward_shapes(monkeypatch, _dealiased_product, [f] * arity) == [
            tuple(int(np.ceil(pad * n)) + int(np.ceil(pad * n)) % 2 for n in shape)]

    @pytest.mark.parametrize("x2_free,kmax,expected", [
        (False, 8, (36, 36)), (False, 21, (80, 80)), (True, 21, (80, 2))])
    def test_band_limited_square_takes_a_smooth_grid(self, monkeypatch, x2_free, kmax, expected):
        """A square of a field with support K on an axis transforms on the
        smallest even 2,3,5-smooth size >= S + R + 1 with S = 2K and
        R = min(S, n/2 - 1): 36 for K = 8, 80 for K = 21; an x2-free field
        (K2 = 0) on 2 columns."""
        w = random_band_limited(GRID, seed=3, kmax=kmax, amplitude=0.5)
        if x2_free:
            column = TorusField.from_spectrum(GRID, np.where(GRID.modes2() == 0, w.spectrum, 0.0))
            w = regrid(column, GRID.x2_free())
        assert self._forward_shapes(monkeypatch, square_dealiased, w) == [expected]

    @staticmethod
    def _forward_shapes(monkeypatch, product, *args):
        """The shapes of the forward transforms `product(*args)` makes."""
        shapes = []
        real = np.fft.rfftn
        monkeypatch.setattr(np.fft, "rfftn", lambda a, *rest, **kw:
                            shapes.append(a.shape) or real(a, *rest, **kw))
        product(*args)
        return shapes

    @pytest.mark.parametrize("shape", [(8, 8), (10, 12), (32, 32), (40, 16), (1024, 64)])
    def test_outer_band_in_integer_arithmetic(self, shape):
        g = GridSpec(*shape)
        expected = (np.abs(g.modes1()) > 7 * g.n1 // 16) | (np.abs(g.modes2()) > 7 * g.n2 // 16)
        assert np.array_equal(outer_band(g), expected)

    def test_headroom_guard(self):
        g = GridSpec(32, 32)
        spec = np.zeros(g.spectrum_shape, complex)
        spec[15, 0] = 0.5  # and 0.5 at its partner m1 = -15: cos(30 pi x1)
        f = TorusField.from_spectrum(g, spec)
        assert band_headroom_residual(f) == pytest.approx(1.0)
        with pytest.raises(BandLimitExceeded):
            require_band_headroom(f)
        with pytest.raises(BandLimitExceeded):
            square_dealiased(f)


#: values for a gated spectral region: signed zeros, subnormal, tiny, unit,
#: large (squares overflow) and NaN
GATE_VALUES = [0.0, -0.0, 5e-324, 1e-300, 1e-12, 1.0, 1e300, np.nan]


def require_headroom_at(f, tol):
    """require_band_headroom(f) with operators.HEADROOM_TOL set to tol."""
    with mock.patch.object(operators, "HEADROOM_TOL", tol):
        require_band_headroom(f)


#: each gate, called as gate(f, tol), with its unchanged residual, error,
#: gated region of the 8x8 half spectrum (the k1 = 0 row; the outer band)
#: and tolerance
GATES = {
    "admissible": (require_admissible, k1zero_residual, NonAdmissibleInput,
                   np.arange(5)[:, None] == 0, ADMISSIBLE_TOL),
    "headroom": (require_headroom_at, band_headroom_residual, BandLimitExceeded,
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
        region = np.broadcast_to(region, g.spectrum_shape)
        n = 2 * int(region.sum())  # real and imaginary parts
        pattern = data.draw(st.lists(st.sampled_from([0.0, -0.0, None]),
                                     min_size=n, max_size=n))
        mixed = data.draw(st.lists(st.sampled_from(GATE_VALUES), min_size=n, max_size=n))
        fills = [[v if p is None else p for p in pattern] for v in GATE_VALUES] + [mixed]
        rng = np.random.default_rng(seed)
        rest = rng.standard_normal(g.spectrum_shape) + 1j * rng.standard_normal(g.spectrum_shape)
        for fill, scale, tol in itertools.product(
                fills, (0.0, 1e-300, 1.0, 1e300, np.nan), (0.0, default_tol, 1.0)):
            spec = scale * rest
            spec[region] = np.array(fill[:n // 2]) + 1j * np.array(fill[n // 2:])
            with np.errstate(all="ignore"):  # NaN beside 1e300: the norms' squares overflow
                f = TorusField.from_spectrum(g, hermitian_rows(spec))
                expected = residual(f) > tol
                try:
                    require(f, tol)
                    raised = False
                except error:
                    raised = True
            assert raised == expected, (fill, scale, tol)


class TestResidualScale:
    @pytest.mark.parametrize("gate", sorted(GATES))
    @settings(max_examples=50, deadline=None)
    @given(k=st.integers(-600, 600), seed=st.integers(0, 2 ** 16),
           region_scale=st.sampled_from([0.0, 1e-12, 1e-3, 1.0, 1e3]))
    def test_power_of_two_scaling_keeps_the_bits(self, gate, k, seed, region_scale):
        """The residual of 2^k f is that of f, bit for bit, also where the
        squares of 2^k f's coefficients underflow or overflow."""
        _, residual, _, region, _ = GATES[gate]
        g = GridSpec(8, 8)
        rng = np.random.default_rng(seed)
        spec = (rng.standard_normal(g.spectrum_shape)
                + 1j * rng.standard_normal(g.spectrum_shape))
        spec = hermitian_rows(np.where(region, region_scale * spec, spec))
        scaled = TorusField.from_spectrum(g, 2.0 ** k * spec)
        assert residual(scaled) == residual(TorusField.from_spectrum(g, spec))

    @pytest.mark.parametrize("gate", sorted(GATES))
    def test_tiny_field_in_the_region_is_refused(self, gate):
        require, residual, error, region, tol = GATES[gate]
        g = GridSpec(8, 8)
        f = TorusField.from_spectrum(g, np.where(region, 1e-170, np.zeros(g.spectrum_shape)))
        assert residual(f) == pytest.approx(1.0)
        with pytest.raises(error):
            require(f, tol)


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

        def counting(grid, samples, band):
            squares.append(samples[0] is samples[-1])
            return _padded_product(grid, samples, band)

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

    def test_energy_at_five_eps_runs_one_square(self, monkeypatch):
        """One square and one compression norm: another eps only reweights."""
        w = random_band_limited(GRID, seed=9, kmax=8, amplitude=0.5)
        squares, inverses = [], []

        def counting(grid, samples, band):
            squares.append(samples[0] is samples[-1])
            return _padded_product(grid, samples, band)

        def counting_inverse(f):
            inverses.append(f)
            return inv_abs_d1(f)

        monkeypatch.setattr(operators, "_padded_product", counting)
        monkeypatch.setattr(energy, "inv_abs_d1", counting_inverse)
        reports = [energy_eps(w, eps) for eps in (0.03, 0.1, 0.5, 1.0, 4.0)]
        assert squares == [True] and len(inverses) == 1
        assert [r.eps for r in reports] == [0.03, 0.1, 0.5, 1.0, 4.0]
        assert len({(r.compression, r.bending) for r in reports}) == 1

    def test_failed_evaluation_raises_every_time(self):
        f = TorusField.from_samples(GRID, np.ones(GRID.shape))
        held = list(f._derived)  # its samples
        for _ in range(2):
            with pytest.raises(NonAdmissibleInput):
                eta(f)
        assert list(f._derived) == held  # the failed build stored nothing

    def test_stored_eta_not_compared_or_shown(self):
        w = random_band_limited(GRID, seed=8, kmax=8, amplitude=0.5)
        twin = TorusField.from_spectrum(GRID, w.spectrum)
        shown = repr(w)
        eta(w)
        assert w._derived and twin._derived == {}
        assert w != twin  # fields compare by identity
        assert repr(w) == shown == repr(twin)


class TestOneFieldType:
    def test_every_constructor_and_operator_returns_a_torus_field(self):
        """Admissibility is a value check (require_admissible), not a type:
        every field the package makes is a plain TorusField."""
        w = random_band_limited(GRID, seed=8, kmax=8, amplitude=0.5)
        made = [w, TorusField.zero(GRID), as_admissible(w), project_vanishing_x1_mean(w),
                regrid(w, GridSpec(32, 32)), d1(w), d2(w), shift1(w, 0.1), shift2(w, 0.1),
                diff1(w, 0.1), diff2(w, 0.1), inv_abs_d1(w), frac_abs_d1(w, 0.5), eta(w),
                square_dealiased(w), cube_dealiased(w), multiply_dealiased(w, w),
                gradient_eps(w, 0.1), mollify(vertical_two_shock(0.5), 0.05, GridSpec(64, 8)),
                minimize(w, 0.0625, MinimizeOptions(max_iters=1))[0]]
        assert [type(f).__name__ for f in made] == ["TorusField"] * len(made)
