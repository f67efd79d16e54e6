import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smectic import ansatz
from smectic.ansatz import (N_BRACKET_PROBE, SweepRecord, eps_sweep, mollify,
                            vertical_two_shock)
from smectic.energy import energy_eps
from smectic.errors import WidthOutOfRange
from smectic.fields import GridSpec


class TestVerticalTwoShock:
    def test_structure(self):
        p = vertical_two_shock(0.5)
        assert len(p.interfaces) == 2
        assert {i.w_plus for i in p.interfaces} == {0.5, -0.5}
        for itf in p.interfaces:
            assert itf.rh_residual() <= 1e-14

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            vertical_two_shock(0.0)


class TestMollify:
    GRID = GridSpec(1024, 16)

    def test_admissible_and_x2_independent(self):
        w = mollify(vertical_two_shock(0.5), 0.01, self.GRID)
        assert np.all(w.spectrum[0, :] == 0.0)
        assert np.allclose(w.samples, w.samples[:, :1])

    def test_orientation(self):
        # +c right of the x1 = 0 interface, -c right of the x1 = 1/2 one
        c, g = 0.5, GridSpec(64, 8)
        w = mollify(vertical_two_shock(c), 2.0 / g.n1, g).samples[:, 0]
        assert w[g.n1 // 4] == pytest.approx(c, abs=1e-6)
        assert w[3 * g.n1 // 4] == pytest.approx(-c, abs=1e-6)

    def test_width_bracket(self):
        p = vertical_two_shock(0.5)
        with pytest.raises(WidthOutOfRange):
            mollify(p, 1e-4, self.GRID)
        with pytest.raises(WidthOutOfRange):
            mollify(p, 0.2, self.GRID)

    def test_bending_closed_form(self):
        # two erf transitions of jump 2c: bending = 2 * 2 c^2 / (delta sqrt(pi))
        c, delta = 0.5, 0.02
        g = GridSpec(2048, 8)
        rep = energy_eps(mollify(vertical_two_shock(c), delta, g), 0.01)
        assert rep.bending == pytest.approx(4 * c ** 2 / (delta * math.sqrt(math.pi)),
                                            rel=1e-10)

    def test_compression_first_order_convergence(self):
        # compression -> 2 (c^4/4) delta I with I = int (1 - erf(u/sqrt 2)^2)^2 du;
        # the vanishing-x1-mean renormalization contributes an O(delta) deficit
        # that must halve when delta halves
        I = 1.584060705464775
        c = 0.5
        deficits = []
        for n1, delta in ((4096, 0.01), (8192, 0.005)):
            rep = energy_eps(mollify(vertical_two_shock(c), delta, GridSpec(n1, 8)), 0.01)
            pred = 2 * (c ** 4 / 4) * delta * I
            deficits.append(1.0 - rep.compression / pred)
        assert deficits[1] == pytest.approx(deficits[0] / 2.0, rel=0.05)


class TestEpsSweep:
    def test_records_and_optimum(self):
        g = GridSpec(256, 8)
        recs = eps_sweep(vertical_two_shock(0.5), [0.25, 0.125], g)
        assert [r.eps for r in recs] == [0.25, 0.125]
        for r in recs:
            assert isinstance(r, SweepRecord)
            assert r.jump_cost == pytest.approx(1.0 / 6.0, abs=1e-12)
            assert 2.0 / g.n1 <= r.delta_star <= 0.125
            assert r.gap == pytest.approx(r.energy_eps - r.jump_cost)
            # delta_star is a minimum among neighbors inside the bracket
            for mult in (0.9, 1.1):
                d = r.delta_star * mult
                if 2.0 / g.n1 <= d <= 0.125:
                    e = energy_eps(mollify(vertical_two_shock(0.5), d, g), r.eps).energy_eps
                    assert r.energy_eps <= e * (1 + 1e-9)

    def test_reports_how_each_optimum_was_found(self):
        # at 2^-6 and 2^-7 the best of the 16 probes is the 1/8 cap, so
        # neither runs golden section; at 2^-7 the probes also hold an
        # interior local minimum, which is not refined
        g = GridSpec(1024, 64)
        grids = []

        def counting_mollify(p, delta, grid):
            grids.append(grid)
            return mollify(p, delta, grid)

        with mock.patch.object(ansatz, "mollify", counting_mollify):
            recs = eps_sweep(vertical_two_shock(0.5), [2.0 ** -6, 2.0 ** -7], g)
        assert sum(r.n_evals for r in recs) == len(grids)
        assert set(grids) == {GridSpec(1024, 8)}
        assert all(r.grid == g for r in recs)
        for r in recs:
            assert r.n_evals == N_BRACKET_PROBE and not r.bracketed
            assert r.delta_star == 0.125 and r.at_bound

    @pytest.mark.parametrize("n1", [8, 14])
    def test_empty_width_range_refused_before_any_evaluation(self, n1):
        with mock.patch.object(ansatz, "mollify", side_effect=AssertionError("evaluated")):
            with pytest.raises(ValueError, match=r"\[2/n1, 1/8\].*empty"):
                eps_sweep(vertical_two_shock(0.5), [0.25], GridSpec(n1, 8))


class TestOptimizeDelta:
    """The width rule on hand-made objectives: the best of the
    N_BRACKET_PROBE log-spaced probes, refined by golden section only when
    both its neighbours are strictly higher."""

    LO, HI = 2.0 ** -9, 0.125
    PROBES = np.geomspace(LO, HI, N_BRACKET_PROBE)

    def optimize(self, monkeypatch, objective):
        calls, evals = [], []
        golden = ansatz.minimize_scalar

        def counted_golden(fun, **kwargs):
            calls.append(kwargs["bracket"])
            return golden(fun, **kwargs)

        def counted(d):
            evals.append(d)
            return objective(d)

        monkeypatch.setattr(ansatz, "minimize_scalar", counted_golden)
        d_star, e_star, bracketed = ansatz._optimize_delta(counted, self.LO, self.HI)
        return d_star, e_star, bracketed, calls, len(evals)

    def test_interior_global_minimum_is_refined(self, monkeypatch):
        target = 0.0123
        d_star, e_star, bracketed, calls, n = self.optimize(
            monkeypatch, lambda d: (math.log(d) - math.log(target)) ** 2)
        assert bracketed and len(calls) == 1 and n > N_BRACKET_PROBE
        assert d_star == pytest.approx(target, abs=1e-4)
        assert e_star <= min((math.log(d) - math.log(target)) ** 2 for d in self.PROBES)

    def test_lower_end_beats_an_interior_local_minimum(self, monkeypatch):
        # the 2^-7 shape: a dip between the probes, but the cap is lower still
        dip = self.PROBES[5]

        def objective(d):
            return min(1.0 + (math.log(d) - math.log(dip)) ** 2,
                       2.0 - math.log(d / self.LO) / math.log(self.HI / self.LO) * 1.5)

        values = [objective(d) for d in self.PROBES]
        assert values[4] > values[5] < values[6] and min(values) == values[-1]
        d_star, e_star, bracketed, calls, n = self.optimize(monkeypatch, objective)
        assert (d_star, e_star) == (self.HI, values[-1])
        assert not bracketed and calls == [] and n == N_BRACKET_PROBE

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_monotone_objective_returns_an_end(self, monkeypatch, sign):
        d_star, e_star, bracketed, calls, n = self.optimize(
            monkeypatch, lambda d: sign * math.log(d))
        assert d_star == (self.LO if sign > 0 else self.HI)
        assert e_star == sign * math.log(d_star)
        assert not bracketed and calls == [] and n == N_BRACKET_PROBE

    def test_plateau_tie_beside_the_best_probe(self, monkeypatch):
        # probes 7 and 8 share the lowest value: no strict bracket, and
        # scipy's golden section would raise on it
        tied = set(self.PROBES[7:9])
        d_star, e_star, bracketed, calls, n = self.optimize(
            monkeypatch, lambda d: 0.0 if d in tied else abs(math.log(d / self.PROBES[7])) + 1.0)
        assert (d_star, e_star) == (self.PROBES[7], 0.0)
        assert not bracketed and calls == [] and n == N_BRACKET_PROBE

    @settings(max_examples=60, deadline=None)
    @given(coeffs=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=6),
           ripple=st.floats(0.0, 2.0), freq=st.floats(0.5, 12.0))
    def test_never_above_the_best_probe(self, coeffs, ripple, freq):
        # polynomials in log(delta) plus a ripple: interior, end and
        # multi-modal minima alike
        def objective(d):
            t = math.log(d / self.LO) / math.log(self.HI / self.LO)
            return sum(c * t ** k for k, c in enumerate(coeffs)) + ripple * math.sin(freq * t)

        d_star, e_star, bracketed = ansatz._optimize_delta(objective, self.LO, self.HI)
        assert self.LO <= d_star <= self.HI
        assert e_star == objective(d_star)
        assert e_star <= min(objective(d) for d in self.PROBES)


class TestLeanGrid:
    """The sweep evaluates the x2-independent ansatz on n1 x 8: its energy
    equals the one on the requested grid up to roundoff."""

    @settings(max_examples=25, deadline=None)
    @given(n1=st.sampled_from([256, 512, 1024]), n2=st.sampled_from([16, 64]),
           c=st.floats(0.1, 1.0), width=st.floats(0.0, 1.0),
           eps=st.floats(2.0 ** -10, 1.0))
    def test_energy_matches_full_grid(self, n1, n2, c, width, eps):
        lo, hi = 2.0 / n1, 0.125
        delta = lo * (hi / lo) ** width
        p = vertical_two_shock(c)
        lean = energy_eps(mollify(p, delta, GridSpec(n1, 8)), eps).energy_eps
        full = energy_eps(mollify(p, delta, GridSpec(n1, n2)), eps).energy_eps
        assert lean == pytest.approx(full, rel=1e-14, abs=0.0)
