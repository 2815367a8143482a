"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import os
import time

import numpy as np
import pytest
from test_channel import geometric_mean_samples

from latcode import analysis as an
from latcode import channel as ch
from latcode import cli
from latcode import lattice
from latcode import numberfield as nf
from latcode.codebook import CodeConfig, carve
from latcode.decoder import ml_decode, nld_decode
from latcode.specfun import EULER_GAMMA, chernoff_solve, digamma

CATALOG = nf.load_catalog()
WORKERS = min(4, os.cpu_count() or 1)


class _Gate:
    def __init__(self, number, title, limit_s):
        self.number = number
        self.title = title
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.limit_s else "FAIL"
        print(f"acceptance {self.number} [{self.title}]: {status} "
              f"({elapsed:.1f} s, limit {self.limit_s:.0f} s)")
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.number} exceeded {self.limit_s} s")
        return False


def test_criterion_1_closed_form_invariants():
    with _Gate(1, "closed-form invariants", 10):
        for f in CATALOG:
            inv = lattice.invariants(nf.embedding_matrix(f))
            d = abs(f.disc_catalog)
            if f.totally_real:
                n = f.degree
                vol_pred = math.sqrt(d)
                nsv_pred = math.sqrt(n) / d ** (1.0 / (2 * n))
                ndp_pred = 1.0 / math.sqrt(d)
            else:
                n = f.degree // 2
                vol_pred = 2.0 ** (-n) * math.sqrt(d)
                nsv_pred = math.sqrt(2 * n) / d ** (1.0 / (4 * n))
                ndp_pred = 2.0 ** (n / 2.0) / d ** 0.25
            assert inv.volume == pytest.approx(vol_pred, rel=1e-8), f.name
            assert inv.nsv == pytest.approx(nsv_pred, rel=1e-8), f.name
            assert inv.ndp == pytest.approx(ndp_pred, rel=1e-8), f.name
        # the named spot checks
        qs2 = lattice.invariants(
            nf.embedding_matrix(nf.catalog_field("Qsqrt2")))
        assert qs2.ndp == pytest.approx(1 / math.sqrt(8), rel=1e-8)
        assert qs2.nsv == pytest.approx(math.sqrt(2) / 8 ** 0.25, rel=1e-8)
        qi = lattice.invariants(
            nf.embedding_matrix(nf.catalog_field("Qi")))
        assert qi.ndp == pytest.approx(1.0, rel=1e-8)
        assert qi.nsv == pytest.approx(1.0, rel=1e-8)


def test_criterion_2_am_gm_property():
    with _Gate(2, "AM-GM ndp vs nsv", 30):
        for f in CATALOG:
            inv = lattice.invariants(nf.embedding_matrix(f))
            n = inv.n
            assert inv.ndp <= inv.nsv ** n / n ** (n / 2.0) + 1e-9, f.name
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 50:
            rank = int(rng.integers(2, 5))
            M = np.eye(rank) + 0.25 * rng.standard_normal((rank, rank))
            if abs(np.linalg.det(M)) < 0.3:
                continue
            B = lattice.LatticeBasis(lattice.REAL, M)
            try:
                inv = lattice.invariants(B)
            except lattice.ZeroProductNormError:
                continue
            checked += 1
            assert inv.ndp <= inv.nsv ** rank / rank ** (rank / 2.0) + 1e-9


def test_criterion_3_gap_reproduction():
    import mpmath
    with _Gate(3, "gap constant reproduction", 1):
        mp = mpmath.mp
        mp.dps = 40
        pe = mpmath.pi * mpmath.e
        # high-precision references for the displayed closed forms
        ref_gap = float(mpmath.log(2 * mpmath.mpf("92.368") / pe, 2))
        ref_offset = float(mpmath.euler * mpmath.log(mpmath.e, 2))
        ref_odlyzko = float(mpmath.log(2 * mpmath.mpf("60.8") / pe, 2) / 2)
        ref_minkowski = float(mpmath.log(2 * mpmath.e / mpmath.pi, 2) / 2)
        gap = an.gap_constant(92.368, ch.AWGN_COMPLEX)
        assert abs(gap - ref_gap) < 1e-4
        a = an.achievable_rate(ch.AWGN_COMPLEX, 100.0, 92.368).rate
        r = an.achievable_rate(ch.RAYLEIGH_COMPLEX, 100.0, 92.368).rate
        assert abs((a - r) - ref_offset) < 1e-4
        rows = {b.label: b.rate for b in an.bound_table()}
        assert abs(rows["odlyzko_limit_gap_real_fading"] - ref_odlyzko) < 1e-4
        assert abs(rows["minkowski_limit_gap_real_fading"] - ref_minkowski) < 1e-4


def test_criterion_4_chernoff_machinery():
    with _Gate(4, "Chernoff tail machinery", 60):
        for delta in np.linspace(0.04, 2.0, 50):
            sol = chernoff_solve(float(delta))
            residual = digamma(1.0 - sol.v_delta) + float(delta) + EULER_GAMMA
            assert abs(residual) <= 1e-9
            assert sol.exponent <= 0.0
        n, delta, trials = 8, 0.5, 100_000
        sol = chernoff_solve(delta)
        bound = math.exp(n * sol.exponent)
        v = geometric_mean_samples(ch.RAYLEIGH_COMPLEX, n, trials, 2024)
        emp = float(np.mean(np.log(v) <= -(delta + EULER_GAMMA)))
        sigma = math.sqrt(max(emp * (1.0 - emp), 1e-12) / trials)
        assert emp <= bound + 3 * sigma


def test_criterion_5_ideal_minima():
    with _Gate(5, "ideal minima of Q(sqrt(-5))", 5):
        f = nf.catalog_field("Qsqrt-5")
        p2 = next(i for i in f.ideals if i.label == "p2")
        # brute-force oracle over the ideal 2Z + (1 + sqrt(-5))Z
        best = math.inf
        for a in range(-10, 11):
            for b in range(-10, 11):
                if a == b == 0:
                    continue
                nr = (2 * a + b) ** 2 + 5 * b * b
                best = min(best, math.sqrt(nr / 2.0))
        assert best == pytest.approx(math.sqrt(2), rel=1e-12)
        got = nf.min_ideal(f, p2)
        assert got == pytest.approx(best, rel=1e-9)
        assert got >= math.sqrt(2) - 1e-9  # non-principal floor
        # normalized minimum with N_min = 2 matches the ideal-form prediction
        pred = 2.0 ** 0.5 * math.sqrt(2.0) / 20.0 ** 0.25
        assert (2.0 ** 0.5 / 20.0 ** 0.25) * got == pytest.approx(pred, rel=1e-9)
        assert nf.min_ideal(f, f.unit_ideal()) == pytest.approx(1.0, rel=1e-9)


def test_criterion_6_decoder_correctness():
    with _Gate(6, "decoder oracle equivalence and dominance", 60):
        code4 = carve(CodeConfig(rate=1.0, power=10.0,
                                 field=nf.catalog_field("F4-725"), seed=5))
        code2 = carve(CodeConfig(rate=1.0, power=6.0,
                                 field=nf.catalog_field("Qsqrt2"), seed=5))
        rng = np.random.default_rng(6)
        for trial in range(200):
            code = code4 if trial % 2 == 0 else code2
            model = ch.RAYLEIGH_REAL if trial % 3 == 0 else ch.AWGN_REAL
            m = int(rng.integers(code.size))
            y, r = ch.transmit(code.points[m], model, 600, trial)
            ml = ml_decode(y, r, code, m)
            # oracle 1: exhaustive-scan ML
            metrics = [float(np.sum(np.abs(y - r.fading * p) ** 2))
                       for p in code.points]
            assert metrics[ml.row] == pytest.approx(min(metrics), rel=1e-10)
            # oracle 2: NLD against boxed enumeration around the ML point
            nl = nld_decode(y, r, code, m)
            x = code.shift + nl.coords @ code.basis.vectors
            nl_metric = float(np.sum(np.abs(y - r.fading * x) ** 2))
            faded = lattice.LatticeBasis(
                code.basis.ambient, code.basis.vectors * r.fading)
            coords, vecs = lattice.points_in_ball(
                faded, np.asarray(y) - r.fading * code.shift,
                math.sqrt(nl_metric) * (1.0 + 1e-9) + 1e-12)
            d2 = np.sum(np.abs(vecs + r.fading * code.shift - y) ** 2, axis=1)
            assert nl_metric == pytest.approx(float(d2.min()), rel=1e-9)
        violations = 0
        for t in range(10_000):
            mrng = ch.stream_rng(601, t, ch.STREAM_MESSAGE)
            m = int(mrng.integers(code4.size))
            model = ch.AWGN_REAL if t % 2 == 0 else ch.RAYLEIGH_REAL
            y, r = ch.transmit(code4.points[m], model, 601, t)
            nl_ok = nld_decode(y, r, code4, m).correct
            ml_ok = ml_decode(y, r, code4, m).correct
            if nl_ok and not ml_ok:
                violations += 1
        assert violations == 0


def test_criterion_7_monte_carlo_consistency():
    with _Gate(7, "Monte Carlo vs analytic bounds", 600):
        field = nf.catalog_field("F4-725")
        trials = 10_000
        grids = {ch.AWGN_REAL: [6.0, 9.0, 12.0, 15.0, 18.0],
                 ch.RAYLEIGH_REAL: [12.0, 15.0, 18.0, 21.0, 24.0]}
        for model, grid in grids.items():
            pes, sigmas = [], []
            for snr_db in grid:
                power = 10.0 ** (snr_db / 10.0)
                cb, err_nld, _, _ = cli.simulate_point(
                    field, model, 1.0, power, trials, 77,
                    which="nld", workers=WORKERS)
                pe = err_nld / trials
                sigma = math.sqrt(max(pe * (1.0 - pe), 1e-12) / trials)
                pes.append(pe)
                sigmas.append(sigma)
                if model == ch.AWGN_REAL:
                    sv = lattice.shortest_vector(cb.basis)
                    sbound = an.sphere_bound(sv, cb.n, model)
                    assert pe <= sbound + 3 * sigma, (model, snr_db)
                else:
                    fbound = an.fading_error_bound(cb.n, cb.alpha, model=model)
                    if fbound < 1.0:
                        assert pe <= fbound, (model, snr_db)
            for i in range(len(grid) - 1):
                tol = 3 * math.sqrt(sigmas[i] ** 2 + sigmas[i + 1] ** 2)
                assert pes[i + 1] <= pes[i] + tol, (model, grid[i])


def test_criterion_8_reproducibility(tmp_path):
    with _Gate(8, "seeded byte-identical reruns", 600):
        base = ["simulate", "--field", "F4-725", "--model", "awgn_real",
                "--rate", "1", "--snr", "9,15", "--trials", "500",
                "--seed", "99"]
        out = tmp_path / "run.csv"
        assert cli.main(base + ["--workers", "1", "--out", str(out)]) == 0
        first = out.read_bytes()
        assert cli.main(base + ["--workers", "1", "--out", str(out)]) == 0
        assert out.read_bytes() == first
        # worker count must not change any data; only the echoed config line
        # (which records the worker count itself) may differ
        assert cli.main(base + ["--workers", "2", "--out", str(out)]) == 0
        strip = lambda b: [ln for ln in b.splitlines()
                           if not ln.startswith(b"# config:")]
        assert strip(out.read_bytes()) == strip(first)
