import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smectic import minimize as minimize_module
from smectic.energy import energy_eps, gradient_eps
from smectic.errors import LineSearchFailure
from smectic.fields import AdmissibleField, GridSpec, random_band_limited
from smectic.minimize import (MinimizeOptions, MinimizeReport, descent_step,
                              gradient_certificate, lowest_mode_pins, minimize)

GRID = GridSpec(64, 64)


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            MinimizeOptions(grad_tol=0.0)

    @pytest.mark.parametrize("field,value", [("max_iters", -1), ("pins", -3)])
    def test_negative_count_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            MinimizeOptions(**{field: value})


class TestCertificate:
    def test_passes_and_caches(self):
        assert gradient_certificate(GRID)
        assert gradient_certificate(GRID)  # cached path


class TestLowestModePins:
    @staticmethod
    def brute_force(w, count):
        entries = []
        for i, a in enumerate(w.grid.modes1().ravel()):
            for j, b in enumerate(w.grid.modes2().ravel()):
                a, b = int(a), int(b)
                # admissible, one representative per conjugate pair
                if a != 0 and (a, b) >= (-a, -b):
                    entries.append((a * a + b * b, (a, b), (i, j)))
        entries.sort(key=lambda e: (e[0], e[1]))
        mask = np.zeros(w.grid.shape, dtype=bool)
        for _, _, index in entries[:count]:
            mask[index] = True
        return mask

    @settings(max_examples=40, deadline=None)
    @given(n1=st.integers(4, 12).map(lambda k: 2 * k),
           n2=st.integers(4, 12).map(lambda k: 2 * k),
           count=st.integers(0, 300), seed=st.integers(0, 2 ** 16))
    def test_matches_sorted_definition(self, n1, n2, count, seed):
        grid = GridSpec(n1, n2)
        w = random_band_limited(grid, seed=seed, kmax=2, amplitude=0.3)
        mask = lowest_mode_pins(w, count)
        assert mask.dtype == bool
        assert np.array_equal(mask, self.brute_force(w, count))


class TestDescentStep:
    def test_zero_gradient_is_fixed_point(self):
        w = random_band_limited(GRID, seed=1, kmax=8, amplitude=0.1)
        g = AdmissibleField.zero(GRID)
        w2, accepted, f2 = descent_step(
            w, g, 1.0, lambda u: energy_eps(u, 0.1).energy_eps,
            energy_eps(w, 0.1).energy_eps, g)
        assert accepted
        assert w2 is w

    def test_never_increases_objective(self):
        w = random_band_limited(GRID, seed=2, kmax=8, amplitude=0.2)
        eps = 0.0625
        f_w = energy_eps(w, eps).energy_eps
        g = gradient_eps(w, eps)
        _, accepted, f2 = descent_step(
            w, g, 1.0, lambda u: energy_eps(u, eps).energy_eps, f_w, g)
        assert accepted
        assert f2 <= f_w


class TestMinimize:
    @pytest.mark.parametrize("target", [
        # Barzilai-Borwein steps reach machine levels quickly
        pytest.param(1e-8, id="barzilai-borwein-safeguarded-1e-08"),
    ])
    def test_unanchored_converges_to_zero(self, target):
        w0 = random_band_limited(GRID, seed=7, kmax=8, amplitude=0.05)
        opts = MinimizeOptions(max_iters=1500, grad_tol=1e-12,
                               energy_rel_tol=1e-30)
        w, rep = minimize(w0, 1.0 / 16.0, opts)
        assert rep.final_energy.energy_eps <= target
        hist = rep.energy_history
        assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))

    def test_pins_are_bit_frozen(self):
        w0 = random_band_limited(GRID, seed=8, kmax=8, amplitude=0.2)
        held = lowest_mode_pins(w0, 4)
        w, rep = minimize(w0, 0.0625, MinimizeOptions(max_iters=50, pins=4))
        for i, j in zip(*np.nonzero(held)):
            val = w0.spectrum[i, j]
            assert w.spectrum[i, j] == val
            assert w.spectrum[-i % GRID.n1, -j % GRID.n2] == np.conj(val)
        assert held.sum() == 4
        assert rep.final_energy.energy_eps <= energy_eps(w0, 0.0625).energy_eps

    def test_termination_labels(self):
        w0 = random_band_limited(GRID, seed=12, kmax=8, amplitude=0.05)
        _, rep = minimize(w0, 0.0625, MinimizeOptions(max_iters=3))
        assert rep.termination in ("max-iters", "gradient", "energy-stall")
        _, rep = minimize(AdmissibleField.zero(GRID), 0.0625,
                          MinimizeOptions(max_iters=10))
        assert rep.termination == "gradient"

    def test_line_search_failure_carries_report(self, monkeypatch):
        monkeypatch.setattr(minimize_module, "MAX_BACKTRACKS", 0)
        w0 = random_band_limited(GRID, seed=14, kmax=8, amplitude=0.05)
        with pytest.raises(LineSearchFailure) as info:
            minimize(w0, 0.0625, MinimizeOptions(max_iters=5))
        rep = info.value.report
        assert rep.termination == "line-search"
        assert rep.iterations == 1
        assert len(rep.energy_history) == len(rep.grad_norm_history) == 1
        assert rep.final_energy.energy_eps == rep.energy_history[0]

    def test_report_json(self):
        w0 = random_band_limited(GRID, seed=13, kmax=8, amplitude=0.05)
        _, rep = minimize(w0, 0.0625, MinimizeOptions(max_iters=5))
        assert isinstance(rep, MinimizeReport)
        text = rep.to_json()
        assert '"termination"' in text
