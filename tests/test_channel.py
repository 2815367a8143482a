import math
import pickle
import threading

import numpy as np
import pytest

from latcode import analysis as an
from latcode import channel as ch
from latcode import cli, lattice
from latcode import numberfield as nf
from latcode.specfun import EULER_GAMMA, chernoff_solve

_INV = lattice.LatticeInvariants(volume=1.0, sv=1.0, dp_min=1.0, nsv=1.0,
                                 ndp=1.0, dp_exact=True, ambient=lattice.REAL,
                                 n=1)
#: every public entry that takes a channel model, called with model m
MODEL_ENTRIES = {
    "sample_realization": lambda m: ch.sample_realization(m, 4, 0, 0),
    "transmit": lambda m: ch.transmit([1.0, 2.0], m, 0, 0),
    "sphere_bound": lambda m: an.sphere_bound(1.0, 4, m),
    "gap_constant": lambda m: an.gap_constant(50.0, m),
    "achievable_rate": lambda m: an.achievable_rate(m, 10.0, 50.0),
    "gap_from_lattice": lambda m: an.gap_from_lattice(_INV, m),
    "awgn_capacity": lambda m: an.awgn_capacity(10.0, m),
    "rayleigh_capacity_lower": lambda m: an.rayleigh_capacity_lower(10.0, m),
    "fading_error_bound": lambda m: an.fading_error_bound(4, 20.0, model=m),
    "simulate_point": lambda m: cli.simulate_point(
        nf.catalog_field("Qsqrt2"), m, 1.0, 10.0, 4, 0),
}


class TestModel:
    def test_members_are_their_names(self):
        assert ch.MODELS == tuple(ch.Model) == (
            "awgn_real", "awgn_complex", "rayleigh_real", "rayleigh_complex")
        for m in ch.MODELS:
            assert ch.Model(str(m)) is m
            assert f"{m}" == str(m) == m.value

    @pytest.mark.parametrize("model", ch.MODELS)
    def test_pickle_round_trip(self, model):
        assert pickle.loads(pickle.dumps(model)) is model

    @pytest.mark.parametrize("entry", sorted(MODEL_ENTRIES))
    def test_entries_reject_unknown_model(self, entry):
        with pytest.raises(ValueError):
            MODEL_ENTRIES[entry]("laplace")


class TestSampleRealization:
    def test_unknown_model(self):
        with pytest.raises(ValueError):
            ch.sample_realization("laplace", 4, 0, 0)
        with pytest.raises(ValueError):
            ch.Model("laplace")

    def test_model_predicates(self):
        assert [m.complex for m in ch.MODELS] == [False, True, False, True]
        assert [m.fading for m in ch.MODELS] == [False, False, True, True]
        assert [m.dims for m in ch.MODELS] == [1, 2, 1, 2]

    def test_awgn_has_unit_fading(self):
        r = ch.sample_realization(ch.AWGN_REAL, 8, 1, 0)
        assert np.all(r.fading == 1.0)
        assert not r.model.fading
        rc = ch.sample_realization(ch.AWGN_COMPLEX, 8, 1, 0)
        assert np.all(rc.fading == 1.0 + 0j)

    def test_rayleigh_flags(self):
        r = ch.sample_realization(ch.RAYLEIGH_REAL, 8, 1, 0)
        assert r.model.fading
        assert np.all(r.fading > 0)
        assert not np.iscomplexobj(r.fading)
        rc = ch.sample_realization(ch.RAYLEIGH_COMPLEX, 8, 1, 0)
        assert np.iscomplexobj(rc.fading)

    def test_reproducible(self):
        a = ch.sample_realization(ch.RAYLEIGH_COMPLEX, 16, 42, 7)
        b = ch.sample_realization(ch.RAYLEIGH_COMPLEX, 16, 42, 7)
        assert np.array_equal(a.fading, b.fading)
        assert np.array_equal(a.noise, b.noise)

    def test_trials_differ(self):
        a = ch.sample_realization(ch.RAYLEIGH_COMPLEX, 16, 42, 7)
        b = ch.sample_realization(ch.RAYLEIGH_COMPLEX, 16, 42, 8)
        assert not np.allclose(a.noise, b.noise)

    def test_fading_and_noise_streams_independent(self):
        r = ch.sample_realization(ch.RAYLEIGH_COMPLEX, 1000, 3, 0)
        corr = np.corrcoef(np.abs(r.fading), np.abs(r.noise))[0, 1]
        assert abs(corr) < 0.1


class TestMoments:
    """One long realization gives tight monte carlo moment checks."""

    N = 1_000_000

    def test_real_noise_unit_variance(self):
        r = ch.sample_realization(ch.AWGN_REAL, self.N, 0, 0)
        assert np.var(r.noise) == pytest.approx(1.0, abs=0.01)
        assert np.mean(r.noise) == pytest.approx(0.0, abs=0.01)

    def test_complex_noise_half_variance_per_part(self):
        r = ch.sample_realization(ch.AWGN_COMPLEX, self.N, 0, 0)
        assert np.var(r.noise.real) == pytest.approx(0.5, abs=0.01)
        assert np.var(r.noise.imag) == pytest.approx(0.5, abs=0.01)
        assert np.mean(np.abs(r.noise) ** 2) == pytest.approx(1.0, abs=0.01)

    def test_squared_fading_is_exponential(self):
        r = ch.sample_realization(ch.RAYLEIGH_COMPLEX, self.N, 1, 0)
        x = np.abs(r.fading) ** 2
        assert np.mean(x) == pytest.approx(1.0, abs=0.01)
        assert np.var(x) == pytest.approx(1.0, abs=0.02)
        # Exp(1) tail at 1 is e^{-1}
        assert np.mean(x > 1.0) == pytest.approx(math.exp(-1.0), abs=0.005)

    def test_real_fading_matches_complex_magnitude_law(self):
        r = ch.sample_realization(ch.RAYLEIGH_REAL, self.N, 1, 0)
        x = r.fading ** 2
        assert np.mean(x) == pytest.approx(1.0, abs=0.01)

    def test_mean_log_fading_power(self):
        # E[ln X] = -gamma for X ~ Exp(1)
        r = ch.sample_realization(ch.RAYLEIGH_COMPLEX, self.N, 2, 0)
        x = np.abs(r.fading) ** 2
        assert np.mean(np.log(x)) == pytest.approx(-EULER_GAMMA, abs=0.01)


class TestTransmit:
    def test_complex_codeword_on_real_model_rejected(self):
        with pytest.raises(ValueError):
            ch.transmit(np.array([1.0 + 1j]), ch.AWGN_REAL, 0, 0)

    @pytest.mark.parametrize("model", [ch.AWGN_REAL, ch.RAYLEIGH_REAL])
    def test_real_model_returns_real_y(self, model):
        """A complex codeword with zero imaginary parts on a real model gives
        the real y that its real part gives."""
        y, _ = ch.transmit(np.array([1 + 0j, 2 + 0j]), model, 1, 0)
        want, _ = ch.transmit(np.array([1.0, 2.0]), model, 1, 0)
        assert y.dtype == np.float64 and np.array_equal(y, want)

    def test_additive_structure(self):
        s = np.array([0.3 + 0.1j, -1.2 + 0j])
        y, r = ch.transmit(s, ch.RAYLEIGH_COMPLEX, 5, 3)
        assert np.allclose(y, r.fading * s + r.noise)


def fresh_rng(seed, trial, stream):
    """The generator the reproducibility contract names, built afresh."""
    return np.random.Generator(np.random.Philox(key=(seed, 4 * trial + stream)))


def fresh_realization(model, n, seed, trial):
    """(fading, noise) drawn from fresh generators."""
    cplx = model.complex
    nrng = fresh_rng(seed, trial, 1)
    noise = ch._complex_std_normal(nrng, n) if cplx else nrng.standard_normal(n)
    if not model.fading:
        return np.ones(n, dtype=noise.dtype), noise
    fading = ch._complex_std_normal(fresh_rng(seed, trial, 0), n)
    return (fading if cplx else np.abs(fading)), noise


class TestStreamContract:
    """Re-keyed stream generators draw bit for bit what fresh Philox
    generators keyed (seed, 4 * trial + stream) draw."""

    SEEDS = [0, 1, 7, 101, -1, 2 ** 63]
    SIZES = [5, 16, 268, 65536]  # codebook sizes for the message draw

    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_equal_fresh_generators(self, seed):
        for t in range(200):
            for stream in range(3):
                got, ref = ch.stream_rng(seed, t, stream), fresh_rng(seed, t, stream)
                size = self.SIZES[t % 4]
                assert got.integers(size) == ref.integers(size)
                assert np.array_equal(got.standard_normal(7),
                                      ref.standard_normal(7))
                assert np.array_equal(ch._complex_std_normal(got, 5),
                                      ch._complex_std_normal(ref, 5))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("model", ch.MODELS)
    def test_simulation_interleaving(self, seed, model):
        """The message draw, then the channel's noise and fading draws, as
        ``cli._simulate_chunk`` runs them; the message generator draws
        again after the channel has re-keyed its own streams."""
        n = 8
        s = np.arange(1.0, n + 1)
        for t in range(200):
            size = self.SIZES[t % 4]
            mrng = ch.stream_rng(seed, t, ch.STREAM_MESSAGE)
            first = mrng.integers(size)
            y, r = ch.transmit(s, model, seed, t)
            second = mrng.integers(size)
            ref = fresh_rng(seed, t, ch.STREAM_MESSAGE)
            assert (first, second) == (ref.integers(size), ref.integers(size))
            fading, noise = fresh_realization(model, n, seed, t)
            assert np.array_equal(r.fading, fading)
            assert np.array_equal(r.noise, noise)
            assert np.array_equal(y, fading * s + noise)
            assert y.dtype == (complex if model.complex else float)

    def test_one_generator_per_stream(self):
        """The documented limit: a call re-keys the generator that the last
        call for the same stream returned."""
        a = ch.stream_rng(3, 0, 1)
        assert ch.stream_rng(3, 1, 1) is a
        assert ch.stream_rng(3, 1, 2) is not a
        assert np.array_equal(a.standard_normal(4),
                              fresh_rng(3, 1, 1).standard_normal(4))

    def test_threads_keep_their_own_generators(self):
        """Two threads re-key the same stream in lockstep: each still draws
        its own trial's values, so realizations do not depend on threads."""
        barrier = threading.Barrier(2, timeout=30)
        failures = []

        def run(seed):
            for t in range(100):
                rng = ch.stream_rng(seed, t, 1)
                barrier.wait()  # the other thread has re-keyed stream 1 too
                if not np.array_equal(rng.standard_normal(6),
                                      fresh_rng(seed, t, 1).standard_normal(6)):
                    failures.append((seed, t))
                barrier.wait()

        threads = [threading.Thread(target=run, args=(seed,)) for seed in (1, 2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert failures == []


class TestGeometricMean:
    def test_statistic_definition(self):
        r = ch.sample_realization(ch.RAYLEIGH_COMPLEX, 8, 0, 0)
        x = np.abs(r.fading) ** 2
        assert ch.geometric_mean_statistic(r) == pytest.approx(
            float(np.prod(x) ** (1.0 / 8)), rel=1e-12)

    def test_awgn_gives_one(self):
        r = ch.sample_realization(ch.AWGN_COMPLEX, 8, 0, 0)
        assert ch.geometric_mean_statistic(r) == pytest.approx(1.0)

    def test_deviation_probability_respects_chernoff(self):
        # P{ ln V_n <= -(delta + gamma) } <= e^{n * exponent(delta)}
        n, delta, trials = 8, 0.5, 4000
        sol = chernoff_solve(delta)
        bound = math.exp(n * sol.exponent)
        v = ch.geometric_mean_samples(ch.RAYLEIGH_COMPLEX, n, trials, 77)
        emp = np.mean(np.log(v) <= -(delta + EULER_GAMMA))
        sigma = math.sqrt(emp * (1 - emp) / trials) + 1e-6
        assert emp <= bound + 4 * sigma
