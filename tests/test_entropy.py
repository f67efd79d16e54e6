import json
import math

import numpy as np
import pytest

from smectic.entropy import (Interface, JumpProfile, div_sigma,
                             div_sigma_identity, div_sigma_jump_measure,
                             duality_gap, entropy_production, jump_cost,
                             rankine_hugoniot_check)
from smectic.errors import IncompatibleProfile
from smectic.fields import GridSpec, TorusField, random_band_limited

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


class TestProfileSerialization:
    def test_json_roundtrip(self):
        p = JumpProfile(interfaces=(compatible_interface(-0.3, 0.7),))
        back = JumpProfile.from_json(p.to_json())
        assert back == p

    @pytest.mark.parametrize("key", ["interfaces", "start", "end", "w_minus", "w_plus"])
    def test_missing_key_is_named(self, key):
        data = json.loads(JumpProfile(interfaces=(compatible_interface(-0.3, 0.7),)).to_json())
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
