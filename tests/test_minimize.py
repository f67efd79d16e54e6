import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smectic import minimize as minimize_module
from smectic.ansatz import mollify, vertical_two_shock
from smectic.cli import main
from smectic.energy import EnergyLine, energy_eps, gradient_eps
from smectic.errors import LineSearchFailure
from smectic.fields import (GridSpec, TorusField, as_admissible, inner,
                            load_field, random_band_limited, save_field)
from smectic.minimize import (MinimizeOptions, descent_step, gradient_certificate,
                              lowest_mode_pins, minimize)

GRID = GridSpec(64, 64)


def x1_profile(grid, seed):
    """A random admissible field of x1 alone: four cosines, constant along x2."""
    rng = np.random.default_rng(seed)
    x1 = grid.x1()
    u = sum(rng.uniform(0.02, 0.1) * np.cos(2 * np.pi * m * x1 + rng.uniform(0, 2 * np.pi))
            for m in range(1, 5))
    return as_admissible(TorusField.from_samples(grid, np.repeat(u, grid.n2, axis=1)))


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            MinimizeOptions(grad_tol=0.0)

    @pytest.mark.parametrize("field,value", [("max_iters", -1), ("pins", -3)])
    def test_negative_count_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            MinimizeOptions(**{field: value})

    @pytest.mark.parametrize("value", [0.0, -1e-9, float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["grad_tol", "energy_rel_tol"])
    def test_tolerance_not_positive_and_finite_names_its_field(self, field, value):
        """With NaN the gradient test never ends a descent; with inf every
        step counts as a stall."""
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
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
                # admissible, and a held row whose partner -m is another mode
                if 0 < a < w.grid.n1 // 2:
                    entries.append((a * a + b * b, (a, b), (i, j)))
        entries.sort(key=lambda e: (e[0], e[1]))
        mask = np.zeros(w.grid.spectrum_shape, dtype=bool)
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
        g = TorusField.zero(GRID)
        w2, accepted, f2, halvings = descent_step(
            EnergyLine(w, g, 0.1), inner(g, g), 1.0, energy_eps(w, 0.1).energy_eps)
        assert accepted and halvings == 0
        assert w2 is w

    def test_never_increases_objective(self):
        w = random_band_limited(GRID, seed=2, kmax=8, amplitude=0.2)
        eps = 0.0625
        f_w = energy_eps(w, eps).energy_eps
        g = gradient_eps(w, eps)
        w2, accepted, f2, _ = descent_step(EnergyLine(w, g, eps), inner(g, g), 1.0, f_w)
        assert accepted
        assert f2 <= f_w
        assert f2 == pytest.approx(energy_eps(as_admissible(w2 + 0 * w2), eps).energy_eps,
                                   rel=1e-12)


class TestTransformCount:
    """The transforms of a descent do not depend on the machine: after the
    first iteration, each makes five (d, w d, d^2, d1 G and w d1 G), and
    its Armijo trials make none."""

    @staticmethod
    def count(monkeypatch, max_iters):
        w0 = random_band_limited(GRID, seed=0, kmax=8, amplitude=0.05)
        gradient_certificate(GRID)
        calls, in_steps = [0], []
        for name in ("fft2", "ifft2", "fftn", "ifftn", "rfftn", "irfftn", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, lambda *a, _f=getattr(np.fft, name), **k:
                                calls.__setitem__(0, calls[0] + 1) or _f(*a, **k))
        step = minimize_module.descent_step

        def counted_step(*args):
            before = calls[0]
            result = step(*args)
            in_steps.append(calls[0] - before)
            return result

        monkeypatch.setattr(minimize_module, "descent_step", counted_step)
        _, rep = minimize(w0, 0.0625, MinimizeOptions(max_iters=max_iters))
        monkeypatch.undo()
        assert rep.iterations == max_iters and set(in_steps) == {0}
        return calls[0]

    def test_five_transforms_per_iteration(self, monkeypatch):
        first, fifty = self.count(monkeypatch, 1), self.count(monkeypatch, 50)
        assert (fifty - first) / 49 <= 5.2

    def test_pinned_x2_free_descent_from_a_field_file(self, monkeypatch, tmp_path):
        """The pinned two-shock descent from a floored field file, on 256 x 2:
        the start's energy and gradient make five transforms, and so does
        each iteration (its line and the gradient at its point) once the
        support stops growing.  While it grows, the line's grid changes (180,
        360, then 384 rows) and the line makes one more, w's inverse on the
        new grid."""
        save_field(mollify(vertical_two_shock(0.5), 0.125, GridSpec(256, 16)), tmp_path / "f")
        w0 = as_admissible(load_field(tmp_path / "f"))
        gradient_certificate(GridSpec(256, 2))
        calls, at_lines, fine_rows = [0], [], []
        for name in ("fft2", "ifft2", "fftn", "ifftn", "rfftn", "irfftn", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, lambda *a, _f=getattr(np.fft, name), **k:
                                calls.__setitem__(0, calls[0] + 1) or _f(*a, **k))

        def counted_line(*args):
            at_lines.append(calls[0])
            line = EnergyLine(*args)
            fine_rows.append(line.fine.n1)
            return line

        monkeypatch.setattr(minimize_module, "EnergyLine", counted_line)
        _, rep = minimize(w0, 2.0 ** -6, MinimizeOptions(pins=8))
        per_iteration = np.diff(at_lines + [calls[0]]).tolist()
        monkeypatch.undo()
        assert (rep.grid, rep.termination, rep.iterations) == (GridSpec(256, 2), "energy-stall", 18)
        assert calls[0] == 98 and at_lines[0] == 5
        assert per_iteration == [6] * 3 + [5] * 15
        assert fine_rows == [180, 360] + [384] * 16


class TestFieldCount:
    """Between its transforms an iteration works on half spectra: after the
    first iteration, each builds at most six fields (the direction, the
    point and its eta, d1 G, the gradient), whatever the machine."""

    @staticmethod
    def count(monkeypatch, max_iters):
        w0 = random_band_limited(GRID, seed=0, kmax=8, amplitude=0.05)
        gradient_certificate(GRID)
        built, post_init = [0], TorusField.__post_init__

        def counted(self):
            built[0] += 1
            post_init(self)

        monkeypatch.setattr(TorusField, "__post_init__", counted)
        _, rep = minimize(w0, 0.0625, MinimizeOptions(max_iters=max_iters))
        monkeypatch.undo()
        assert rep.iterations == max_iters
        return built[0]

    def test_at_most_six_fields_per_iteration(self, monkeypatch):
        first, fifty = self.count(monkeypatch, 1), self.count(monkeypatch, 50)
        assert (fifty - first) / 49 <= 6


class TestFinalEnergy:
    def test_history_ends_at_the_energy_of_a_fresh_twin(self):
        w0 = random_band_limited(GRID, seed=0, kmax=8, amplitude=0.05)
        w, rep = minimize(w0, 0.0625, MinimizeOptions(max_iters=60))
        twin = energy_eps(TorusField.from_spectrum(w.grid, w.spectrum), 0.0625)
        assert twin.energy_eps == pytest.approx(rep.energy_history[-1], rel=1e-10, abs=0.0)
        assert twin.energy_eps == pytest.approx(rep.final_energy.energy_eps, rel=1e-10, abs=0.0)


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
            assert w.spectrum[i, j] == w0.spectrum[i, j]
            assert 0 < i < GRID.n1 // 2  # its partner -m is held with it
        assert held.sum() == 4
        assert rep.final_energy.energy_eps <= energy_eps(w0, 0.0625).energy_eps

    def test_termination_labels(self):
        w0 = random_band_limited(GRID, seed=12, kmax=8, amplitude=0.05)
        _, rep = minimize(w0, 0.0625, MinimizeOptions(max_iters=3))
        assert rep.termination in ("max-iters", "gradient", "energy-stall")
        _, rep = minimize(TorusField.zero(GRID), 0.0625,
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
        assert rep.step_history == [0.0]
        assert rep.backtrack_history == [minimize_module.MAX_BACKTRACKS]

    @pytest.mark.parametrize("pins,max_iters", [(0, 5), (0, 60), (4, 30)])
    def test_step_and_backtrack_per_iteration(self, pins, max_iters):
        """One step taken and one halving count per iteration."""
        w0 = random_band_limited(GRID, seed=15, kmax=8, amplitude=0.2)
        _, rep = minimize(w0, 0.0625, MinimizeOptions(max_iters=max_iters, pins=pins))
        assert len(rep.step_history) == len(rep.backtrack_history) == rep.iterations > 0
        assert len(rep.energy_history) == rep.iterations + 1
        assert all(a > 0.0 for a in rep.step_history)
        assert all(0 <= k < minimize_module.MAX_BACKTRACKS for k in rep.backtrack_history)
        assert any(k > 0 for k in rep.backtrack_history)


class TestLeanGrid:
    """An x2-independent start field descends on GridSpec.x2_free(); the
    reference runs on the requested grid with that helper patched out."""

    @pytest.mark.parametrize("pins", [0, 8, 40])
    @pytest.mark.parametrize("n2", [16, 64])
    @pytest.mark.parametrize("n1", [32, 64, 128])
    def test_matches_the_full_grid_descent(self, monkeypatch, n1, n2, pins):
        grid = GridSpec(n1, n2)
        w0 = x1_profile(grid, seed=n1 + n2 + pins)
        assert not w0.spectrum[:, 1:].any()
        opts = MinimizeOptions(max_iters=40, pins=pins)
        w, rep = minimize(w0, 0.0625, opts)
        monkeypatch.setattr(GridSpec, "x2_free", lambda self: self)
        w_full, rep_full = minimize(w0, 0.0625, opts)
        assert rep.grid == GridSpec(n1, 2) and rep_full.grid == grid
        assert rep.iterations == rep_full.iterations
        assert rep.termination == rep_full.termination
        np.testing.assert_allclose(rep.energy_history, rep_full.energy_history,
                                   rtol=1e-13, atol=0.0)
        assert w.grid == grid
        # the pins are chosen on the requested grid
        held = lowest_mode_pins(w0, pins)[:, :1] & (grid.modes2() == 0)
        assert np.array_equal(w.spectrum[held], w_full.spectrum[held])
        assert np.abs(w.spectrum - w_full.spectrum).max() <= 1e-13

    def test_any_off_column_coefficient_keeps_the_full_grid(self):
        """The rule is exact zeros: one mode pair at m2 = 1 of 1e-300 is
        enough to descend on the requested grid."""
        grid = GridSpec(32, 16)
        spec = x1_profile(grid, seed=3).spectrum.copy()
        spec[1, 1] = spec[-1, -1] = 1e-300
        _, rep = minimize(TorusField.from_spectrum(grid, spec), 0.0625,
                          MinimizeOptions(max_iters=5, pins=8))
        assert rep.grid == grid

    def test_certificate_is_for_the_descent_grid(self, monkeypatch):
        monkeypatch.setattr(minimize_module, "_GRADIENT_CERTIFICATES", {})
        minimize(x1_profile(GridSpec(32, 64), seed=5), 0.0625, MinimizeOptions(max_iters=2))
        assert list(minimize_module._GRADIENT_CERTIFICATES) == [(32, 2)]

    def test_field_file_decided_from_its_samples(self, tmp_path):
        """The mollified two-shock from a field file: with n2 = 40 the
        transform leaves roundoff off m2 = 0, which load_field's floor
        zeroes, as every sample column is equal; so the descent runs on
        256x2 as it does for n2 = 48."""
        column = mollify(vertical_two_shock(0.5), 0.125, GridSpec(256, 8)).samples[:, :1]
        runs = {}
        for n2 in (40, 48):
            grid = GridSpec(256, n2)
            save_field(TorusField.from_samples(grid, np.repeat(column, n2, axis=1)),
                       tmp_path / f"w{n2}")
            out = tmp_path / f"out{n2}"
            assert main(["minimize", "--field", str(tmp_path / f"w{n2}"), "--pins", "8",
                         "--eps", str(2.0 ** -6), "--out", str(out)]) == 0
            runs[n2] = json.loads((out / "minimize.json").read_text())
        # the loaded spectrum is exactly zero off m2 = 0
        assert not as_admissible(load_field(tmp_path / "w40")).spectrum[:, 1:].any()
        assert runs[40]["grid"] == runs[48]["grid"] == [256, 2]
        assert runs[40]["iterations"] == runs[48]["iterations"]
        assert runs[40]["energy_history"] == runs[48]["energy_history"]
