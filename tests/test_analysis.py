import math

import mpmath
import numpy as np
import pytest
from test_channel import geometric_mean_samples

from latcode import analysis as an
from latcode import channel as ch
from latcode import lattice
from latcode import numberfield as nf
from latcode.specfun import EULER_GAMMA, chernoff_solve

LOG2E = math.log2(math.e)


def ring_invariants(name):
    f = nf.catalog_field(name)
    return lattice.invariants(nf.embedding_matrix(f))


class TestSphereBound:
    def test_complex_one_use_closed_form(self):
        # n=1 complex: tail of chi2(2) at d^2/2 is e^{-d^2/4}
        assert an.sphere_bound(2.0, 1, ch.AWGN_COMPLEX) == pytest.approx(
            math.exp(-1.0), rel=1e-12)

    def test_real_two_uses_closed_form(self):
        # n=2 real: tail of chi2(2) at d^2/4 is e^{-d^2/8}
        assert an.sphere_bound(2.0, 2, ch.AWGN_REAL) == pytest.approx(
            math.exp(-0.5), rel=1e-12)

    def test_against_high_precision(self):
        for d, n in [(1.5, 2), (3.0, 4), (6.0, 8)]:
            ref = float(mpmath.gammainc(n, d * d / 4, mpmath.inf,
                                        regularized=True))
            assert an.sphere_bound(d, n, ch.RAYLEIGH_COMPLEX) == pytest.approx(
                ref, rel=1e-10)
            ref_r = float(mpmath.gammainc(n / 2, d * d / 8, mpmath.inf,
                                          regularized=True))
            assert an.sphere_bound(d, n, ch.AWGN_REAL) == pytest.approx(
                ref_r, rel=1e-10)

    def test_monotone_in_distance(self):
        vals = [an.sphere_bound(d, 4, ch.AWGN_COMPLEX)
                for d in np.linspace(0.5, 10, 40)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            an.sphere_bound(0.0, 2, ch.AWGN_REAL)
        with pytest.raises(ValueError):
            an.sphere_bound(1.0, 2, "bogus")


class TestAchievableRates:
    def test_awgn_complex_example(self):
        rb = an.achievable_rate(ch.AWGN_COMPLEX, 100.0, 92.368)
        ref = float(mpmath.log(100, 2)
                    - mpmath.log(2 * mpmath.mpf("92.368")
                                 / (mpmath.pi * mpmath.e), 2))
        assert rb.rate == pytest.approx(ref, rel=1e-12)

    def test_rayleigh_complex_offset(self):
        # fading costs exactly gamma*log2(e) bits against the awgn rate
        for p in [5.0, 100.0, 1e4]:
            a = an.achievable_rate(ch.AWGN_COMPLEX, p, 92.368).rate
            r = an.achievable_rate(ch.RAYLEIGH_COMPLEX, p, 92.368).rate
            assert a - r == pytest.approx(EULER_GAMMA * LOG2E, abs=1e-12)

    def test_real_models_halve(self):
        p, c = 64.0, 1058.0
        a = an.achievable_rate(ch.AWGN_REAL, p, c).rate
        assert a == pytest.approx(
            0.5 * math.log2(p) - 0.5 * math.log2(2 * c / (math.pi * math.e)),
            rel=1e-12)
        r = an.achievable_rate(ch.RAYLEIGH_REAL, p, c).rate
        assert a - r == pytest.approx(0.5 * EULER_GAMMA * LOG2E, abs=1e-12)

    def test_gap_constant_over_power(self):
        # the rate gap is constant in P: doubling P adds exactly 1 bit (complex)
        for model, inc in [(ch.AWGN_COMPLEX, 1.0), (ch.RAYLEIGH_COMPLEX, 1.0),
                           (ch.AWGN_REAL, 0.5), (ch.RAYLEIGH_REAL, 0.5)]:
            r1 = an.achievable_rate(model, 50.0, 92.368).rate
            r2 = an.achievable_rate(model, 100.0, 92.368).rate
            assert r2 - r1 == pytest.approx(inc, abs=1e-12)

    def test_negative_rates_reported(self):
        rb = an.achievable_rate(ch.AWGN_COMPLEX, 1.0, 92.368)
        assert rb.rate < 0

    def test_domain(self):
        with pytest.raises(ValueError):
            an.achievable_rate(ch.AWGN_COMPLEX, -1.0, 92.368)
        with pytest.raises(ValueError):
            an.achievable_rate(ch.AWGN_COMPLEX, 1.0, 0.0)


class TestGapFromLattice:
    def test_ring_fading_gap_equals_root_disc_gap(self):
        # for psi(O_K), ndp^{2/n} = |d|^{-1/n} (real), so the lattice gap
        # must equal gap_constant(|d|^{1/n}) exactly
        for name in ["Qsqrt2", "Qsqrt5", "F4-725", "F8-17"]:
            f = nf.catalog_field(name)
            inv = ring_invariants(name)
            d = abs(f.disc_catalog)
            expected = an.gap_constant(d ** (1.0 / f.degree), ch.RAYLEIGH_REAL)
            got = an.gap_from_lattice(inv, ch.RAYLEIGH_REAL).rate
            assert got == pytest.approx(expected, rel=1e-9)

    def test_ring_fading_gap_complex(self):
        for name in ["Qi", "Qzeta5"]:
            f = nf.catalog_field(name)
            inv = ring_invariants(name)
            n = f.ambient_n
            d = abs(f.disc_catalog)
            expected = an.gap_constant(d ** (1.0 / (2 * n)), ch.RAYLEIGH_COMPLEX)
            got = an.gap_from_lattice(inv, ch.RAYLEIGH_COMPLEX).rate
            assert got == pytest.approx(expected, rel=1e-9)

    def test_gaussian_gap_from_nsv(self):
        inv = ring_invariants("F4-725")
        got = an.gap_from_lattice(inv, ch.AWGN_REAL).rate
        expected = 0.5 * math.log2(
            2 * inv.n / (inv.nsv ** 2 * math.pi * math.e))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_capacity_sanity(self):
        for p in [1.0, 10.0, 1000.0]:
            cc = an.awgn_capacity(p, ch.AWGN_COMPLEX)
            cr = an.awgn_capacity(p, ch.AWGN_REAL)
            assert cc == pytest.approx(2 * cr, rel=1e-12)
            assert an.rayleigh_capacity_lower(p, ch.RAYLEIGH_COMPLEX) < cc
        # achievable rate stays below capacity for a gap constant > pi e / 2
        for p in [10.0, 100.0, 1e5]:
            assert an.achievable_rate(ch.AWGN_COMPLEX, p, 92.368).rate \
                < an.awgn_capacity(p, ch.AWGN_COMPLEX)


class TestBoundTable:
    def setup_method(self):
        self.rows = {r.label: r for r in an.bound_table()}

    def test_martinet_gaps(self):
        ref_c = float(mpmath.log(2 * mpmath.mpf("92.368")
                                 / (mpmath.pi * mpmath.e), 2))
        assert self.rows["martinet_gap_complex_gaussian"].rate == \
            pytest.approx(ref_c, rel=1e-10)
        assert self.rows["martinet_gap_complex_gaussian"].rate == \
            pytest.approx(4.43513005498, abs=1e-9)
        ref_r = 0.5 * float(mpmath.log(2 * mpmath.mpf("1058")
                                       / (mpmath.pi * mpmath.e), 2))
        assert self.rows["martinet_gap_real_gaussian"].rate == \
            pytest.approx(ref_r, rel=1e-10)

    def test_odlyzko_and_minkowski(self):
        assert self.rows["odlyzko_limit_gap_real_fading"].rate == \
            pytest.approx(1.9159041241, abs=1e-9)
        assert self.rows["minkowski_limit_gap_real_fading"].rate == \
            pytest.approx(0.395599455708, abs=1e-9)
        # Stirling limit: 0.5*log2(2e/pi)
        assert self.rows["minkowski_limit_gap_real_fading"].rate == \
            pytest.approx(0.5 * math.log2(2 * math.e / math.pi), rel=1e-12)

    def test_hajir_maire_improves_on_martinet(self):
        assert self.rows["hajir_maire_gap_complex_gaussian"].rate < \
            self.rows["martinet_gap_complex_gaussian"].rate
        assert self.rows["hajir_maire_gap_real_gaussian"].rate < \
            self.rows["martinet_gap_real_gaussian"].rate

    def test_constants_present(self):
        assert self.rows["zimmert_nmin_constant_real"].rate == 50.7
        assert self.rows["zimmert_nmin_constant_complex"].rate == 19.9
        assert self.rows["ideal_ndp_decay_base_complex"].rate == 3.1
        assert self.rows["ideal_ndp_decay_base_real"].rate == 7.12


class TestFadingErrorBound:
    def test_saturates_when_precondition_fails(self):
        # alpha too small: no positive slack exists
        assert an.fading_error_bound(8, 1.0, epsilon=0.5,
                                     model=ch.RAYLEIGH_COMPLEX) == 1.0

    @pytest.mark.parametrize("n,alpha,model", [
        (8, 57.8, ch.RAYLEIGH_REAL), (4, 20.0, ch.RAYLEIGH_REAL),
        (2, 30.0, ch.RAYLEIGH_COMPLEX), (8, 40.0, ch.RAYLEIGH_COMPLEX)])
    def test_largest_slack_is_feasible(self, n, alpha, model):
        # delta = delta_max(eps) meets the slack precondition with equality;
        # every grid eps must score the closed form, not saturate at 1
        dof = 2 * n if model.complex else n
        for eps in np.logspace(-3, math.log10(50.0), 100):
            eps = float(eps)
            dmax = math.log(alpha ** 2 / (4.0 * (1.0 + eps))) - EULER_GAMMA
            want = 1.0 if dmax <= 0 else min(
                1.0, 2 * math.exp(-dof * eps ** 2 / 16.0)
                + math.exp(n * chernoff_solve(dmax).exponent))
            assert an.fading_error_bound(n, alpha, epsilon=eps, model=model) \
                == pytest.approx(want, rel=1e-12)

    def test_minimized_bound_uses_every_grid_epsilon(self):
        n, alpha, model = 8, 47.0, ch.RAYLEIGH_REAL
        best = min(an.fading_error_bound(n, alpha, epsilon=float(e),
                                         model=model)
                   for e in np.logspace(-3, math.log10(50.0), 100))
        assert an.fading_error_bound(n, alpha, model=model) == best
        assert best == pytest.approx(1.6067e-7, rel=1e-4)

    @staticmethod
    def unpruned(n, alpha, delta, model):
        """The grid loop before pruning: every grid point's Chernoff solve."""
        dof = 2 * n if model.complex else n

        def bound_for(eps, dlt):
            arg = alpha ** 2 / (4.0 * (1.0 + eps))
            if arg <= 0:
                return 1.0
            dmax = math.log(arg) - EULER_GAMMA
            dlt = dmax if dlt is None else dlt
            if dlt > dmax or dmax <= 0:
                return 1.0
            term1 = 2.0 * math.exp(-dof * eps ** 2 / 16.0)
            term2 = math.exp(n * chernoff_solve(dlt).exponent)
            return min(1.0, term1 + term2)

        eps_grid = np.logspace(-3, math.log10(50.0), 100)
        return min(bound_for(float(e), delta) for e in eps_grid)

    @pytest.mark.parametrize("delta", [None, 0.5, 3.0])
    def test_pruned_grid_equals_full_grid(self, delta):
        # every catalog field at rate 1, 0-40 dB: the pruned minimum is the
        # full grid's, bit for bit
        from latcode.codebook import energy_normalization
        for f in nf.load_catalog():
            model = ch.RAYLEIGH_REAL if f.totally_real else ch.RAYLEIGH_COMPLEX
            for snr_db in range(0, 41, 4):
                alpha = math.sqrt(energy_normalization(
                    f, 1.0, 10.0 ** (snr_db / 10.0)))
                assert an.fading_error_bound(
                    f.ambient_n, alpha, delta=delta, model=model) == \
                    self.unpruned(f.ambient_n, alpha, delta, model)

    def test_pruned_grid_skips_chernoff_solves(self, monkeypatch):
        calls = []
        monkeypatch.setattr(an, "chernoff_solve",
                            lambda d: calls.append(d) or chernoff_solve(d))
        an.fading_error_bound(8, 47.0, model=ch.RAYLEIGH_REAL)
        assert 0 < len(calls) < 50

    def test_explicit_delta_solves_once(self, monkeypatch):
        # one root for every grid eps: it was solved at each feasible one
        calls = []
        monkeypatch.setattr(an, "chernoff_solve",
                            lambda d: calls.append(d) or chernoff_solve(d))
        got = an.fading_error_bound(8, 60.0, delta=0.5, model=ch.RAYLEIGH_REAL)
        assert calls == [0.5]
        assert got == self.unpruned(8, 60.0, 0.5, ch.RAYLEIGH_REAL)
        # infeasible at every eps: saturates without a solve
        calls.clear()
        assert an.fading_error_bound(8, 60.0, delta=100.0,
                                     model=ch.RAYLEIGH_REAL) == 1.0
        assert calls == []

    def test_explicit_terms(self):
        n, alpha, delta, eps = 8, 20.0, 0.5, 0.5
        got = an.fading_error_bound(n, alpha, delta=delta, epsilon=eps,
                                    model=ch.RAYLEIGH_COMPLEX)
        sol = chernoff_solve(delta)
        expected = 2 * math.exp(-2 * n * eps ** 2 / 16.0) \
            + math.exp(n * sol.exponent)
        assert got == pytest.approx(min(1.0, expected), rel=1e-12)

    def test_real_dof_convention(self):
        n, alpha, delta, eps = 8, 20.0, 0.5, 0.5
        got = an.fading_error_bound(n, alpha, delta=delta, epsilon=eps,
                                    model=ch.RAYLEIGH_REAL)
        sol = chernoff_solve(delta)
        expected = 2 * math.exp(-n * eps ** 2 / 16.0) \
            + math.exp(n * sol.exponent)
        assert got == pytest.approx(min(1.0, expected), rel=1e-12)

    @pytest.mark.parametrize("alpha", [20.0, 1.0])  # delta_max > 0, <= 0
    @pytest.mark.parametrize("delta", [0.0, -0.5])
    @pytest.mark.parametrize("epsilon", [0.5, None])
    def test_rejects_nonpositive_slack(self, alpha, delta, epsilon):
        with pytest.raises(ValueError, match="delta > 0"):
            an.fading_error_bound(8, alpha, delta=delta, epsilon=epsilon,
                                  model=ch.RAYLEIGH_COMPLEX)

    def test_auto_delta_no_worse_than_fixed(self):
        for alpha in [10.0, 30.0, 100.0]:
            auto = an.fading_error_bound(8, alpha, epsilon=0.5,
                                         model=ch.RAYLEIGH_COMPLEX)
            fixed = an.fading_error_bound(8, alpha, delta=0.3, epsilon=0.5,
                                          model=ch.RAYLEIGH_COMPLEX)
            assert auto <= fixed + 1e-12

    def test_auto_epsilon_minimizes_over_grid(self):
        alpha = 40.0
        auto = an.fading_error_bound(8, alpha, model=ch.RAYLEIGH_COMPLEX)
        for eps in [0.1, 0.5, 1.0, 3.0]:
            assert auto <= an.fading_error_bound(
                8, alpha, epsilon=eps, model=ch.RAYLEIGH_COMPLEX) + 1e-12

    def test_decreasing_in_alpha(self):
        vals = [an.fading_error_bound(8, a, model=ch.RAYLEIGH_COMPLEX)
                for a in [5.0, 10.0, 20.0, 40.0, 80.0]]
        assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))
        assert vals[-1] < 1.0

    def test_requires_fading_model(self):
        with pytest.raises(ValueError):
            an.fading_error_bound(8, 10.0, model=ch.AWGN_COMPLEX)

    def test_monte_carlo_cross_check(self):
        # the Chernoff tail term bounds the empirical geometric-mean event
        n, delta, trials = 8, 0.5, 3000
        sol = chernoff_solve(delta)
        v = geometric_mean_samples(ch.RAYLEIGH_COMPLEX, n, trials, 123)
        emp = float(np.mean(np.log(v) <= -(delta + EULER_GAMMA)))
        sigma = math.sqrt(max(emp, 1e-4) * (1 - emp) / trials)
        assert emp <= math.exp(n * sol.exponent) + 4 * sigma
