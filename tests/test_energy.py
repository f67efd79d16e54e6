import numpy as np
import pytest

from smectic.besov import verify_b2s
from smectic.energy import EnergyReport, energy_eps, energy_indep, gradient_eps
from smectic.fields import (GridSpec, TorusField, as_admissible, inner,
                            random_band_limited)

GRID = GridSpec(128, 128)


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
