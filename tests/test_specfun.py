import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from latcode.specfun import (EULER_GAMMA, chernoff_solve, chi_square_tail,
                             digamma, ln_gamma)


class TestLnGamma:
    def test_trivial_values(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert ln_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ln_gamma(0.0)
        with pytest.raises(ValueError):
            ln_gamma(-1.5)

    def test_recurrence(self):
        # ln Gamma(x+1) = ln Gamma(x) + ln x
        for x in np.linspace(0.1, 40.0, 200):
            assert ln_gamma(x + 1.0) == pytest.approx(
                ln_gamma(x) + math.log(x), abs=1e-10)

    def test_against_high_precision(self):
        for x in np.geomspace(0.05, 50.0, 60):
            ref = float(mpmath.loggamma(mpmath.mpf(x)).real)
            assert abs(ln_gamma(float(x)) - ref) <= 1e-12


class TestDigamma:
    def test_closed_forms(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2),
                                             abs=1e-12)
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-3.0)

    def test_finite_difference_consistency(self):
        h = 1e-5
        for x in np.linspace(0.1, 10.0, 50):
            fd = (ln_gamma(x + h) - ln_gamma(x - h)) / (2 * h)
            assert abs(digamma(float(x)) - fd) <= 1e-6

    def test_against_high_precision(self):
        for x in np.geomspace(0.05, 50.0, 60):
            ref = float(mpmath.digamma(mpmath.mpf(x)))
            assert abs(digamma(float(x)) - ref) <= 1e-10


class TestChiSquareTail:
    def test_total_mass(self):
        assert chi_square_tail(2, 0.0) == 1.0
        assert chi_square_tail(7, 0.0) == 1.0

    def test_two_dof_closed_form(self):
        # 2-dof tail is exp(-t/2)
        for t in [0.5, 2.0, 10.0, 100.0]:
            assert chi_square_tail(2, t) == pytest.approx(
                math.exp(-t / 2.0), rel=1e-12)

    def test_four_dof_against_quadrature(self):
        # oracle: adaptive quadrature of the chi2(4) density x e^{-x/2}/4
        oracle, err = integrate.quad(lambda x: x * math.exp(-x / 2.0) / 4.0,
                                     4.0, np.inf)
        assert err < 1e-10
        assert chi_square_tail(4, 4.0) == pytest.approx(oracle, abs=1e-8)
        # frozen value from the oracle (equals 3 e^{-2})
        assert chi_square_tail(4, 4.0) == pytest.approx(0.406005849709838,
                                                        rel=1e-9)

    def test_monotone_nonincreasing(self):
        for dof in [1, 2, 4, 9]:
            vals = [chi_square_tail(dof, t) for t in np.linspace(0, 60, 200)]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
            assert all(0.0 <= v <= 1.0 for v in vals)

    def test_deep_tail_accuracy(self):
        for dof, t in [(2, 1200.0), (8, 900.0), (20, 1000.0)]:
            ref = float(mpmath.gammainc(dof / 2, t / 2, mpmath.inf,
                                        regularized=True))
            got = chi_square_tail(dof, t)
            assert got > 1e-300
            assert got == pytest.approx(ref, rel=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            chi_square_tail(0, 1.0)
        with pytest.raises(ValueError):
            chi_square_tail(2, -1.0)


def _oracle_v(delta):
    """Bisection for psi(1 - v) = -(delta + gamma) using mpmath digamma."""
    target = -(delta + float(mpmath.euler))
    lo, hi = mpmath.mpf("1e-15"), mpmath.mpf(1) - mpmath.mpf("1e-12")
    for _ in range(100):
        mid = (lo + hi) / 2
        if mpmath.digamma(1 - mid) > target:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


class TestChernoffSolve:
    @pytest.mark.parametrize("delta", [0.1, 0.5, 1.0])
    def test_residual_and_oracle(self, delta):
        sol = chernoff_solve(delta)
        assert 0.0 < sol.v_delta < 1.0
        assert abs(digamma(1 - sol.v_delta) + delta + EULER_GAMMA) <= 1e-9
        assert sol.v_delta == pytest.approx(_oracle_v(delta), abs=1e-9)

    @pytest.mark.parametrize("delta", [0.5, 5.0, 48.35, 100.0, 300.0, 700.0])
    def test_large_delta_against_findroot(self, delta):
        """Bisection stops at 1e-12 in v, where psi'(1 - v) is about
        (delta + gamma)^2: the residual bound scales with delta + gamma (an
        absolute 1e-9 raised from about delta = 100 on), and v is still the
        root to 1e-12."""
        sol = chernoff_solve(delta)
        assert abs(digamma(1 - sol.v_delta) + delta + EULER_GAMMA) <= \
            1e-9 * (delta + EULER_GAMMA)
        with mpmath.workdps(30):
            ref = mpmath.findroot(
                lambda v: mpmath.digamma(1 - v) + delta + mpmath.euler,
                (mpmath.mpf("1e-12"), 1 - mpmath.mpf("1e-9")),
                solver="anderson")
        assert sol.v_delta == pytest.approx(float(ref), abs=1e-12)

    def test_exponent_nonpositive_on_grid(self):
        grid = np.linspace(0.02, 2.0, 100)
        exps = [chernoff_solve(float(d)).exponent for d in grid]
        assert all(e <= 0.0 for e in exps)
        # tighter slack gives a strictly weaker (larger) exponent
        assert all(a > b for a, b in zip(exps, exps[1:]))

    def test_v_shrinks_with_delta(self):
        assert chernoff_solve(0.001).v_delta < chernoff_solve(0.1).v_delta

    def test_domain_error(self):
        with pytest.raises(ValueError):
            chernoff_solve(0.0)
