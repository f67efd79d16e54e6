import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smectic import besov
from smectic.besov import (gradient_check, hkm1_balance, hkm2_residual, parseval,
                           shift_group_law, tail_mass, verify_b2s, verify_l3, verify_lp,
                           verify_lp_eps)
from smectic.energy import energy_indep
from smectic.errors import DegenerateEnergy, NonAdmissibleInput
from smectic.fields import (GridSpec, TorusField, _grid_samples, keep,
                            project_vanishing_x1_mean, random_band_limited)
from smectic.operators import d1, diff1, eta, shift1, shift_symbol

GRID = GridSpec(256, 256)


def sine1(grid, a=1.0):
    return TorusField.from_samples(
        grid, np.repeat(a * np.sin(2 * np.pi * grid.x1()), grid.n2, axis=1))


class TestHKM2:
    @pytest.mark.parametrize("h", [0.5, 0.1, 1.0 / 256.0])
    def test_exact_identity(self, h):
        w = random_band_limited(GRID, seed=11, kmax=32, amplitude=0.5)
        rec = hkm2_residual(w, h)
        assert rec.passed
        assert rec.ratio_or_residual <= rec.tolerance

    def test_zero_field(self):
        rec = hkm2_residual(TorusField.zero(GRID), 0.1)
        assert rec.passed and rec.lhs == 0.0


class TestHKM1:
    def test_smooth_random_fields(self):
        # the |.| kinks keep the balance within tolerance only for smooth
        # fields; kmax = 2 is the verified regime
        for seed in range(1, 6):
            w = random_band_limited(GRID, seed=seed, kmax=2, amplitude=0.5)
            rec = hkm1_balance(w, 0.125)
            assert rec.passed, rec.ratio_or_residual

    def test_adjoint_shift_oracle(self):
        # the RHS computed via diff1(eta) and via the adjoint shift of |diff w|
        # must agree exactly (discrete summation by parts)
        w = random_band_limited(GRID, seed=5, kmax=2, amplitude=0.5)
        h = 0.125
        e = eta(w)
        absd = np.abs(diff1(w, h).samples)
        rhs1 = -6.0 * float(np.mean(diff1(e, h).samples * absd))
        g = TorusField.from_samples(w.grid, absd)
        rhs2 = -6.0 * float(np.mean(e.samples * (shift1(g, -h).samples - absd)))
        assert rhs1 == pytest.approx(rhs2, abs=1e-10)

    def test_h_validation(self):
        with pytest.raises(ValueError):
            hkm1_balance(sine1(GRID), 0.0)


class TestL3:
    def test_closed_form_sine(self):
        a, h = 0.7, 0.125
        w = sine1(GRID, a)
        recs = verify_l3(w, (h,))
        lhs_expected = (2 * abs(math.sin(math.pi * h))) ** 3 * a ** 3 * 4 / (3 * math.pi)
        assert recs[0].lhs == pytest.approx(lhs_expected, rel=1e-7)
        assert recs[0].rhs == pytest.approx(h * math.pi * a ** 3 / 4, rel=1e-10)
        assert recs[0].passed

    def test_zero_field_degenerate_flag(self):
        recs = verify_l3(TorusField.zero(GRID))
        assert all(r.passed and r.params.get("degenerate") for r in recs)

    def test_ratios_finite(self):
        w = random_band_limited(GRID, seed=12, kmax=16, amplitude=0.5)
        recs = verify_l3(w)
        assert all(math.isfinite(r.ratio_or_residual) for r in recs)


class TestB2S:
    def test_ratios_finite_and_crosscheck(self):
        w = random_band_limited(GRID, seed=13, kmax=16, amplitude=0.5)
        recs = verify_b2s(w, (0.5, 0.125, 1.0 / 32.0))
        main = [r for r in recs if r.name == "b2s_estimate"]
        cross = [r for r in recs if r.name == "avebd_crosscheck"]
        assert main and cross
        assert all(math.isfinite(r.ratio_or_residual) for r in main)
        assert all(r.passed for r in cross)


class TestExactX1Path:
    """The closed-form layer integral and the x1-only differences of
    verify_l3 and the hkm checks against the definitions through diff1 and
    shift1, on admissible fields drawn from random samples:
    full band, so the Nyquist row carries mass.  energy_indep refuses such
    fields (no dealiasing headroom); only the difference side is under test,
    so it is replaced by a constant."""

    SHAPES = st.sampled_from([(8, 8), (10, 12), (16, 10)])

    @staticmethod
    def full_band(shape, seed):
        grid = GridSpec(*shape)
        raw = np.random.default_rng(seed).standard_normal(grid.shape)
        w = project_vanishing_x1_mean(TorusField.from_samples(grid, raw))
        assert np.abs(w.spectrum[grid.n1 // 2, :]).max() > 1e-3 * w.l2()
        return w

    @settings(max_examples=10, deadline=None)
    @given(shape=SHAPES, seed=st.integers(0, 2 ** 32 - 1),
           h=st.floats(2.0 ** -9, 0.5))
    # the Nyquist row alone breaks the averaging bound here (ratio 1.19)
    @example(shape=(10, 12), seed=0, h=0.03125)
    def test_layer_integral_matches_fine_midpoint_rule(self, shape, seed, h):
        w = self.full_band(shape, seed)
        nodes = 2048
        rows = sum(np.mean(diff1(w, (i + 0.5) * h / nodes).samples ** 2, axis=0)
                   for i in range(nodes)) * (h / nodes)
        row_l2 = np.mean(diff1(w, h).samples ** 2, axis=0)
        with mock.patch.object(besov, "energy_indep", return_value=1.0):
            b2s, avebd = verify_b2s(w, (h,))
        assert b2s.lhs == pytest.approx(rows.max(), rel=1e-6)
        assert avebd.rhs == pytest.approx(4.0 / h * rows.max(), rel=1e-6)
        assert avebd.lhs == pytest.approx(row_l2.max(), rel=1e-12)
        assert avebd.passed

    @settings(max_examples=30, deadline=None)
    @given(shape=SHAPES, seed=st.integers(0, 2 ** 32 - 1),
           hs=st.lists(st.floats(2.0 ** -12, 0.75), min_size=1, max_size=4))
    # whole-cell shifts (h n1 whole), which read the samples
    @example(shape=(8, 8), seed=0, hs=[0.25, 0.5])
    @example(shape=(16, 10), seed=1, hs=[0.125, 0.1])
    @example(shape=(10, 12), seed=2, hs=[0.5])
    def test_l3_differences_match_diff1(self, shape, seed, hs):
        w = self.full_band(shape, seed)
        with mock.patch.object(besov, "energy_indep", return_value=1.0):
            recs = verify_l3(w, tuple(hs))
        for rec in recs:
            expected = np.mean(np.abs(diff1(w, rec.params["h"]).samples) ** 3)
            assert rec.lhs == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(shape=SHAPES, seed=st.integers(0, 2 ** 32 - 1), h=st.floats(2.0 ** -9, 0.5))
    def test_x1_samples_reproduce_the_field_its_translate_and_difference(self, shape, seed, h):
        w = self.full_band(shape, seed)
        c, sym = besov._x1_coefficients(w), shift_symbol(w.grid, h, axis=1)
        scale = np.abs(w.samples).max()
        for s, expected in ((1.0, w), (sym, shift1(w, h)), (sym - 1.0, diff1(w, h))):
            assert np.abs(besov._x1_samples(c, s) - expected.samples).max() <= 1e-12 * scale

    @settings(max_examples=20, deadline=None)
    @given(shape=SHAPES, seed=st.integers(0, 2 ** 32 - 1), cells=st.integers(-40, 40),
           sub=st.sampled_from([0.0, 0.25, 0.5]))
    @example(shape=(8, 8), seed=0, cells=3, sub=0.0)
    @example(shape=(10, 12), seed=1, cells=-13, sub=0.0)
    def test_translates_match_shift1_and_diff1(self, shape, seed, cells, sub):
        """At a whole-cell h (sub = 0, any sign, past one period) the kernel
        reads the samples, at any other h it takes an x1 transform: both are
        the trigonometric interpolant's translate, Nyquist row included."""
        w = self.full_band(shape, seed)
        h = (cells + sub) / shape[0]
        scale = np.abs(w.samples).max()
        for minus, expected in ((False, shift1(w, h)), (True, diff1(w, h))):
            got = besov._x1_translate(w, h, minus=minus)
            assert np.abs(got - expected.samples).max() <= 1e-12 * scale
            got[...] = 0.0  # a new array each call: what the field keeps is untouched
        assert np.abs(besov._x1_translate(w, h) - diff1(w, h).samples).max() <= 1e-12 * scale
        expected = shift1(d1(w), h).samples
        got = besov._x1_translate(w, h, minus=False, derivative=True)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_whole_cell_shifts_take_no_x1_transform(self):
        """On 64^2, h = 2^-1 ... 2^-6 move the field by whole cells: verify_l3
        makes one inverse x1 transform for each of 2^-7 ... 2^-12 and builds
        w's x1-coefficients once; hkm2_residual at h = 1/8 reads the samples
        for both differences and makes one x1 transform, of the coefficients
        verify_l3 kept, for the translate of d1 w."""
        w = random_band_limited(GridSpec(64, 64), seed=3, kmax=8, amplitude=0.5)
        energy_indep(w)  # the energy's and eta's own transforms are not counted
        eta(w)
        with mock.patch.object(np.fft, "irfft", wraps=np.fft.irfft) as irfft, \
                mock.patch.object(np.fft, "ifft", wraps=np.fft.ifft) as coefficients:
            verify_l3(w)
            assert (irfft.call_count, coefficients.call_count) == (6, 1)
            irfft.reset_mock()
            coefficients.reset_mock()
            hkm2_residual(w, 0.125)
            assert (irfft.call_count, coefficients.call_count) == (1, 0)

    def test_hkm2_between_cells_takes_two_x1_coefficient_transforms(self):
        """At h = 0.1, between cells on 256^2 as the verify command runs it,
        hkm2_residual builds the x1-coefficients of w and of eta_w, one
        transform each: those of d1 w are w's times d1's symbol."""
        w = random_band_limited(GRID, seed=3, kmax=32, amplitude=0.5)
        with mock.patch.object(np.fft, "ifft", wraps=np.fft.ifft) as coefficients:
            assert hkm2_residual(w, 0.1).passed
        assert coefficients.call_count == 2

    def test_besov_records_build_the_x1_coefficients_once(self):
        """The besov command's record set on one field builds w's
        x1-coefficients once (the one ifft), for verify_l3, verify_b2s and
        hkm1_balance alike, and the 2D samples of w and eta_w alone: d1 w's
        translate reads w's coefficients."""
        w = random_band_limited(GRID, seed=3, kmax=32, amplitude=0.5)
        energy_indep(w)  # the energy's and eta's own transforms are not counted
        eta(w)
        with mock.patch.object(np.fft, "ifft", wraps=np.fft.ifft) as ifft, \
                mock.patch.object(np.fft, "irfftn", wraps=np.fft.irfftn) as irfftn:
            verify_l3(w)
            verify_b2s(w)
            hkm2_residual(w, 0.125)
            hkm1_balance(w, 0.125)
        assert (ifft.call_count, irfftn.call_count) == (1, 2)

    @settings(max_examples=15, deadline=None)
    @given(shape=SHAPES, seed=st.integers(0, 2 ** 32 - 1), h=st.floats(2.0 ** -9, 0.5))
    @example(shape=(8, 8), seed=0, h=0.125)  # whole-cell: both differences read samples
    @example(shape=(16, 10), seed=1, h=0.5)
    def test_kept_values_change_no_bits(self, shape, seed, h):
        """The records on w equal, bit for bit, those on a bare re-wrap of its
        spectrum evaluated in reverse order: whichever call builds the kept
        x1-coefficients (and samples), every record reads the same values."""
        w = random_band_limited(GridSpec(*shape), seed=seed, kmax=2, amplitude=0.5)
        twin = TorusField(w.grid, w.spectrum)
        forward = [verify_l3(w), verify_b2s(w), hkm2_residual(w, h), hkm1_balance(w, h)]
        backward = [hkm1_balance(twin, h), hkm2_residual(twin, h), verify_b2s(twin),
                    verify_l3(twin)]
        assert repr(forward) == repr(backward[::-1])  # repr tells every float's bits apart

    @staticmethod
    def assert_close(actual, expected, scale):
        """Within 1e-12 of expected relative to the larger of |expected| and
        `scale`, the size of the terms before they cancel: on random fields
        a mean of signed terms (or a central difference) can cancel to far
        below their size, and roundoff scales with the terms."""
        assert abs(actual - expected) <= 1e-12 * max(abs(expected), scale)

    @settings(max_examples=30, deadline=None)
    @given(shape=SHAPES, seed=st.integers(0, 2 ** 32 - 1), h=st.floats(2.0 ** -9, 0.5))
    # whole-cell shifts (h n1 whole), which read the samples
    @example(shape=(8, 8), seed=0, h=0.25)
    @example(shape=(8, 8), seed=1, h=0.5)
    @example(shape=(16, 10), seed=2, h=0.125)
    @example(shape=(10, 12), seed=3, h=0.5)
    def test_hkm_terms_match_diff1_and_shift1(self, shape, seed, h):
        """eta of a full-band field is refused (no dealiasing headroom), so a
        second full-band field stands in for it."""
        w, e = self.full_band(shape, seed), self.full_band(shape, seed + 1)
        with mock.patch.object(besov, "eta", return_value=e):
            hkm2, hkm1 = hkm2_residual(w, h), hkm1_balance(w, h)
        dw, de = diff1(w, h).samples, diff1(e, h).samples
        lhs2 = -0.5 * dw ** 2 * shift1(d1(w), h).samples
        self.assert_close(hkm2.lhs, np.mean(lhs2), np.mean(np.abs(lhs2)))
        self.assert_close(hkm2.rhs, np.mean(de * dw), np.mean(np.abs(de * dw)))
        dh = h / 100.0
        cubed = [np.mean(np.abs(diff1(w, hh).samples) ** 3) for hh in (h + dh, h - dh)]
        self.assert_close(hkm1.lhs, (cubed[0] - cubed[1]) / (2.0 * dh),
                          (cubed[0] + cubed[1]) / (2.0 * dh))
        rhs1 = -6.0 * de * np.abs(dw)
        self.assert_close(hkm1.rhs, np.mean(rhs1), np.mean(np.abs(rhs1)))
        assert hkm2.params == {"h": h}
        assert hkm1.params == {"h": h, "dh": h / 100.0}


class TestLp:
    def test_amplitude_independent_at_p2(self):
        ratios = [verify_lp(sine1(GRID, a), 2.0).ratio_or_residual
                  for a in (0.1, 1.0, 10.0)]
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-10)
        assert ratios[1] == pytest.approx(ratios[2], rel=1e-10)

    def test_range_validation(self):
        w = sine1(GRID)
        with pytest.raises(ValueError):
            verify_lp(w, 10.0 / 3.0)
        with pytest.raises(ValueError):
            verify_lp_eps(w, 6.0, 0.1)

    def test_degenerate(self):
        rec = verify_lp(TorusField.zero(GRID), 2.0)
        assert rec.params["degenerate"]

    def test_eps_variant_finite(self):
        w = random_band_limited(GRID, seed=14, kmax=16, amplitude=0.5)
        for p in (4.0, 5.0):
            rec = verify_lp_eps(w, p, 0.25)
            assert math.isfinite(rec.ratio_or_residual)
            assert rec.ratio_or_residual > 0.0


class TestTailMass:
    def test_counts_outside_box(self):
        w = sine1(GRID)  # single mode (1, 0)
        assert tail_mass(w, 1, 1) <= 1e-28
        assert tail_mass(w, 0, 0) == pytest.approx(0.5, rel=1e-12)


class TestGradientCheck:
    def test_passes_on_random_fields(self):
        g = GridSpec(64, 64)
        w = random_band_limited(g, seed=1, kmax=8, amplitude=0.5)
        v = random_band_limited(g, seed=2, kmax=8, amplitude=0.5)
        rec = gradient_check(w, v, 0.0625)
        assert rec.name == "gradient_check" and rec.params == {"eps": 0.0625}
        assert rec.passed and rec.ratio_or_residual <= 1e-5

    def test_direction_must_be_admissible(self):
        g = GridSpec(64, 64)
        w = random_band_limited(g, seed=1, kmax=8, amplitude=0.5)
        v = TorusField.from_samples(g, np.ones(g.shape))
        with pytest.raises(NonAdmissibleInput):
            gradient_check(w, v, 0.0625)


class TestParseval:
    def test_tiny_field_is_judged_on_its_norms(self):
        """Squares of a 1e-170 field underflow; a spectrum off by 1e-3 with
        its samples unchanged must still fail."""
        w = random_band_limited(GridSpec(16, 16), seed=1, kmax=2, amplitude=1e-170)
        assert parseval(w, {}).passed
        off = TorusField.from_spectrum(w.grid, w.spectrum * (1 + 1e-3))
        keep(off, _grid_samples.key, w.samples)
        rec = parseval(off, {"seed": 1})
        assert not rec.passed
        assert rec.ratio_or_residual == pytest.approx(1e-3, rel=1e-6)
        assert rec.params == {"seed": 1}

    def test_zero_field_passes(self):
        rec = parseval(TorusField.zero(GridSpec(16, 16)), {})
        assert rec.passed and rec.ratio_or_residual == 0.0


class TestShiftGroupLaw:
    @pytest.mark.parametrize("w", [
        random_band_limited(GridSpec(16, 16), seed=1, kmax=2, amplitude=1e-170),
        TorusField.zero(GridSpec(16, 16))], ids=["squares-underflow", "zero"])
    def test_tiny_and_zero_fields_give_passing_records(self, w):
        rec = shift_group_law(w, {})
        assert rec.passed and rec.ratio_or_residual <= 1e-12
        if not w.spectrum.any():
            assert rec.ratio_or_residual == 0.0

