import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smectic import ansatz
from smectic.ansatz import (N_BRACKET_PROBE, N_FALLBACK_SCAN, SweepRecord,
                            eps_sweep, mollify, sharp_profile_samples,
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


class TestSharpProfile:
    def test_values(self):
        w = sharp_profile_samples(vertical_two_shock(0.5), 64)
        assert np.allclose(np.unique(np.round(w, 12)), [-0.5, 0.5])
        assert abs(np.mean(w)) <= 1e-14
        assert w[1] == pytest.approx(0.5)   # just right of the x1=0 interface
        assert w[33] == pytest.approx(-0.5)  # just right of the x1=1/2 interface


class TestMollify:
    GRID = GridSpec(1024, 16)

    def test_admissible_and_x2_independent(self):
        w = mollify(vertical_two_shock(0.5), 0.01, self.GRID)
        assert np.all(w.spectrum[0, :] == 0.0)
        assert np.allclose(w.samples, w.samples[:, :1])

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

    def test_csv_row(self):
        g = GridSpec(256, 8)
        rec = eps_sweep(vertical_two_shock(0.5), [0.25], g)[0]
        row = rec.csv_row()
        assert len(row) == 8
        assert float(row[0]) == 0.25
        assert row[5:] == [repr(rec.n_evals), str(int(rec.bracketed)),
                           str(int(rec.at_bound))]

    def test_reports_how_each_optimum_was_found(self):
        # 2^-6 has no interior bracket among the probes (scan fallback),
        # 2^-7 goes through golden section; both optima sit on the 1/8 cap
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
        scan, golden = recs
        assert not scan.bracketed and scan.n_evals == N_BRACKET_PROBE + N_FALLBACK_SCAN
        assert golden.bracketed and N_BRACKET_PROBE < golden.n_evals < scan.n_evals
        for r in recs:
            assert r.at_bound == (r.delta_star in (2.0 / g.n1, 0.125))
        assert scan.at_bound and golden.at_bound


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
