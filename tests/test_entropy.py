import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smectic import operators
from smectic.besov import VerificationRecord
from smectic.entropy import (Interface, JumpProfile, div_sigma,
                             div_sigma_identity, div_sigma_jump_measure,
                             duality_gap, entropy_pair, entropy_production,
                             field_records, jump_cost, rankine_hugoniot_check,
                             sigma_pair)
from smectic.errors import IncompatibleProfile
from smectic.fields import (GridSpec, TorusField, as_admissible, load_field,
                            random_band_limited, save_field)
from smectic.operators import (_padded_product, cube_dealiased, d1, d2,
                               square_dealiased)

GRID = GridSpec(128, 128)


def compatible_interface(w_minus, w_plus, start=(0.2, 0.3), length=0.4):
    """Interface whose normal satisfies the shock slope law for the traces."""
    m = 0.5 * (w_plus + w_minus)
    norm = math.hypot(m, 1.0)
    t = (-m / norm, 1.0 / norm)  # normal (t2, -t1) = (1, m)/norm
    end = (start[0] + length * t[0], start[1] + length * t[1])
    return Interface(start=start, end=end, w_minus=w_minus, w_plus=w_plus)


class TestInterface:
    def test_normal_right_hand_rule(self):
        itf = Interface(start=(0.0, 0.0), end=(0.0, 1.0), w_minus=-1.0, w_plus=1.0)
        assert itf.normal == pytest.approx((1.0, 0.0))
        assert itf.length == pytest.approx(1.0)
        assert itf.jump == pytest.approx(2.0)

    def test_rh_residual(self):
        good = compatible_interface(-0.4, 0.9)
        assert good.rh_residual() <= 1e-14
        bad = Interface(start=(0.0, 0.0), end=(1.0, 0.0), w_minus=-1.0, w_plus=1.0)
        assert bad.rh_residual() > 0.1


class TestNormalJump:
    @pytest.mark.parametrize("w_minus,w_plus", [(-0.4, 0.9), (1.5, -0.25), (0.3, 0.3)])
    def test_matches_explicit_flux_formulas(self, w_minus, w_plus):
        """|(F(w+) - F(w-)) . nu| for sigma = (-w^2/2, w) and Sigma = (-w^3/3, w^2/2)."""
        itf = Interface(start=(0.1, 0.2), end=(0.7, 0.5), w_minus=w_minus, w_plus=w_plus)
        nu1, nu2 = itf.normal
        sigma = abs(-(w_plus ** 2 - w_minus ** 2) / 2 * nu1 + (w_plus - w_minus) * nu2)
        entropy = abs(-(w_plus ** 3 - w_minus ** 3) / 3 * nu1
                      + (w_plus ** 2 - w_minus ** 2) / 2 * nu2)
        assert itf.normal_jump(sigma_pair) == pytest.approx(sigma, rel=1e-14, abs=1e-16)
        assert itf.normal_jump(entropy_pair) == pytest.approx(entropy, rel=1e-14, abs=1e-16)
        assert itf.rh_residual() == itf.normal_jump(sigma_pair)

    def test_jump_measure_sums_length_times_entropy_jump(self):
        a = Interface(start=(0.1, 0.2), end=(0.7, 0.5), w_minus=-0.4, w_plus=0.9)
        b = Interface(start=(0.5, 0.0), end=(0.5, 0.25), w_minus=0.5, w_plus=-0.5)
        expected = (a.length * a.normal_jump(entropy_pair)
                    + 0.25 * abs(-(-0.125 - 0.125) / 3))  # b: nu = (1, 0)
        assert div_sigma_jump_measure(JumpProfile((a, b))) == pytest.approx(expected, rel=1e-14)


class TestJumpCost:
    def test_vertical_two_shock_exact(self):
        p = JumpProfile(interfaces=(
            Interface(start=(0.0, 0.0), end=(0.0, 1.0), w_minus=-0.5, w_plus=0.5),
            Interface(start=(0.5, 0.0), end=(0.5, 1.0), w_minus=0.5, w_plus=-0.5),
        ))
        assert all(r.passed for r in rankine_hugoniot_check(p))
        assert abs(jump_cost(p) - 1.0 / 6.0) <= 1e-12

    def test_incompatible_raises(self):
        p = JumpProfile(interfaces=(
            Interface(start=(0.0, 0.0), end=(1.0, 0.0), w_minus=-1.0, w_plus=1.0),))
        with pytest.raises(IncompatibleProfile):
            jump_cost(p)

    def test_matches_jump_measure_on_compatible_family(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a, b = rng.uniform(-1.0, 1.0, 2)
            itf = compatible_interface(min(a, b), max(a, b),
                                       start=tuple(rng.uniform(0, 1, 2)),
                                       length=rng.uniform(0.1, 0.5))
            p = JumpProfile(interfaces=(itf,))
            assert div_sigma_jump_measure(p) == pytest.approx(jump_cost(p), abs=1e-13)


class TestDivSigma:
    def test_identity_random_fields(self):
        for seed in (1, 2, 3):
            w = random_band_limited(GRID, seed=seed, kmax=16, amplitude=0.5)
            rec = div_sigma_identity(w)
            assert rec.passed, rec.ratio_or_residual

    def test_entropy_production_nonnegative_and_zero_at_zero(self):
        assert entropy_production(TorusField.zero(GRID)) == 0.0
        w = random_band_limited(GRID, seed=4, kmax=16, amplitude=0.5)
        assert entropy_production(w) > 0.0
        assert entropy_production(w) == pytest.approx(
            float(np.mean(np.abs(div_sigma(w).samples))))


class TestDuality:
    def test_bound_holds_for_smooth_tests(self):
        w = random_band_limited(GRID, seed=5, kmax=16, amplitude=0.5)
        x1 = np.repeat(GRID.x1(), GRID.n2, axis=1)
        phi = TorusField.from_samples(GRID, np.sin(2 * np.pi * x1) / (2 * np.pi))
        [rec] = duality_gap(w, phi, [0.0625])
        assert rec.passed
        assert 0.0 <= rec.ratio_or_residual <= 2.0

    @staticmethod
    def sample_pairing(w, phi):
        """(int Sigma(w) . grad phi as the grid mean of sample products, with
        Sigma(w) built from its own dealiased powers; the Cauchy-Schwarz size
        |Sigma1| |d1 phi| + |Sigma2| |d2 phi| of that pairing)."""
        sigma1, sigma2 = -1.0 / 3.0 * cube_dealiased(w), 0.5 * square_dealiased(w)
        d1_phi, d2_phi = d1(phi), d2(phi)
        pairing = np.mean(sigma1.samples * d1_phi.samples + sigma2.samples * d2_phi.samples)
        return float(pairing), sigma1.l2() * d1_phi.l2() + sigma2.l2() * d2_phi.l2()

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from([(16, 16), (24, 18), (32, 48), (64, 20)]),
           seed=st.integers(0, 2 ** 32 - 1), full_band_phi=st.booleans())
    def test_pairing_by_parts_matches_sample_products(self, shape, seed, full_band_phi):
        """The record's lhs |<div Sigma(w), phi>| is the sample-product pairing
        within 1e-12 relative to the pairing's Cauchy-Schwarz size (a pairing
        that nearly cancels has no relative accuracy of its own), also for a
        test function with Nyquist content; the record is judged as
        lhs / rhs <= 1 + 1e-8."""
        grid = GridSpec(*shape)
        w = random_band_limited(grid, seed=seed, kmax=min(shape) // 4, amplitude=0.5)
        if full_band_phi:
            rng = np.random.default_rng(seed)
            phi = TorusField.from_samples(grid, rng.standard_normal(grid.shape))
            assert np.abs(phi.spectrum[-1]).max() > 0.0
        else:
            x1 = np.repeat(grid.x1(), grid.n2, axis=1)
            phi = TorusField.from_samples(grid, np.sin(2 * np.pi * x1) / (2 * np.pi))
        [rec] = duality_gap(w, phi, [0.0625])
        pairing, size = self.sample_pairing(w, phi)
        assert abs(rec.lhs - abs(pairing)) <= 1e-12 * size
        assert rec.tolerance == 1.0 + 1e-8
        assert rec.ratio_or_residual == rec.lhs / rec.rhs
        assert rec.passed == (rec.ratio_or_residual <= 1.0 + 1e-8)


class TestFieldRecords:
    EPS = [0.25, 0.125, 0.0625]

    @staticmethod
    def file_field(tmp_path):
        """A field as `entropy --field` reads it: saved, loaded and projected."""
        w = random_band_limited(GridSpec(64, 64), seed=6, kmax=8, amplitude=0.5)
        save_field(w, tmp_path / "w")
        return as_admissible(load_field(tmp_path / "w"))

    def test_four_products_one_cube(self, tmp_path, monkeypatch):
        w = self.file_field(tmp_path)
        factors = []  # per product: its number of factors

        def counting(grid, samples, band):
            factors.append(len(samples))
            return _padded_product(grid, samples, band)

        monkeypatch.setattr(operators, "_padded_product", counting)
        field_records(w, self.EPS)
        # w^2 of eta, w^3 and w^2 of div Sigma (built once), w * eta
        assert sorted(factors) == [2, 2, 2, 3]

    def test_records_match_each_check_on_fresh_twins(self, tmp_path):
        """The stored eta, div Sigma and energy give the bits that each check
        computes afresh on a field with no stored value."""
        w = self.file_field(tmp_path)
        records = field_records(w, self.EPS)

        def twin():
            return TorusField.from_spectrum(w.grid, w.spectrum)

        phi = TorusField.from_samples(w.grid, np.sin(
            2 * np.pi * np.repeat(w.grid.x1(), w.grid.n2, axis=1)) / (2 * np.pi))
        production = entropy_production(twin())
        assert records == [
            div_sigma_identity(twin()),
            VerificationRecord(name="entropy_production", lhs=production, rhs=0.0,
                               ratio_or_residual=production, params={}),
            *duality_gap(twin(), phi, self.EPS)]


class TestProfileSerialization:
    TEXT = """{"interfaces": [
        {"start": [0.2, 0.3], "end": [0.2, 0.7], "w_minus": -0.5, "w_plus": 0.5},
        {"start": [0.5, 0], "end": [0.5, 1], "w_minus": 1, "w_plus": -1.25}]}"""

    def test_parses_a_written_profile(self):
        assert JumpProfile.from_json(self.TEXT) == JumpProfile(interfaces=(
            Interface(start=(0.2, 0.3), end=(0.2, 0.7), w_minus=-0.5, w_plus=0.5),
            Interface(start=(0.5, 0.0), end=(0.5, 1.0), w_minus=1.0, w_plus=-1.25)))

    @pytest.mark.parametrize("key", ["interfaces", "start", "end", "w_minus", "w_plus"])
    def test_missing_key_is_named(self, key):
        data = json.loads(self.TEXT)
        if key == "interfaces":
            del data[key]
        else:
            del data["interfaces"][0][key]
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            JumpProfile.from_json(json.dumps(data))

    @pytest.mark.parametrize("text", [
        "[]", '{"interfaces": [[0, 0, 0, 1]]}',
        '{"interfaces": [{"start": [0], "end": [0, 1], "w_minus": 0, "w_plus": 1}]}'],
        ids=["list", "interface-list", "one-coordinate"])
    def test_malformed_profile_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="jump profile"):
            JumpProfile.from_json(text)


class TestInterfaceValidation:
    @pytest.mark.parametrize("end", [(0.2, 0.3), (0.2, math.inf), (math.nan, 0.3)],
                             ids=["zero-length", "infinite", "nan-end"])
    def test_segment_needs_a_finite_nonzero_length(self, end):
        with pytest.raises(ValueError, match="length"):
            Interface(start=(0.2, 0.3), end=end, w_minus=-1.0, w_plus=1.0)

    @pytest.mark.parametrize("trace", [math.nan, math.inf, -math.inf])
    def test_traces_must_be_finite(self, trace):
        with pytest.raises(ValueError, match="finite"):
            Interface(start=(0.0, 0.0), end=(0.0, 1.0), w_minus=trace, w_plus=1.0)
        with pytest.raises(ValueError, match="finite"):
            Interface(start=(0.0, 0.0), end=(0.0, 1.0), w_minus=-1.0, w_plus=trace)

    @pytest.mark.parametrize("start,end,w_minus,w_plus", [
        ((0, 0, 7), (0, 1, "x"), -0.5, 0.5), ((0, 0), (0, 1), "-0.5", "0.5"),
        ((0, 0), (0, 1), True, 0.5), ((True, 0), (0, 1), -0.5, 0.5),
        ((0, 0), (0, 1, 2), -0.5, 0.5), ((0, 0), (0, "1"), -0.5, 0.5)],
        ids=["three-coordinates", "string-traces", "bool-trace", "bool-coordinate",
             "three-coordinate-end", "string-coordinate"])
    def test_endpoints_and_traces_must_be_numbers(self, start, end, w_minus, w_plus):
        with pytest.raises(ValueError, match="numbers"):
            Interface(start=start, end=end, w_minus=w_minus, w_plus=w_plus)

    def test_integer_traces_are_held_as_floats(self):
        itf = Interface(start=(0, 0), end=(0, 1), w_minus=-1, w_plus=1)
        assert (type(itf.w_minus), type(itf.w_plus)) == (float, float)
