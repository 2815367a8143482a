import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcode import channel as ch
from latcode import decoder
from latcode import numberfield as nf
from latcode.codebook import Codebook, CodeConfig, carve
from latcode.decoder import ml_decode, nld_decode
from latcode.lattice import COMPLEX, REAL, LatticeBasis


def make_code(name="F4-725", rate=1.0, power=10.0, seed=5):
    return carve(CodeConfig(rate=rate, power=power,
                            field=nf.catalog_field(name), seed=seed))


@pytest.fixture(scope="module")
def f8_rate2():
    return make_code("F8-17", rate=2.0)


def plain_code(points) -> Codebook:
    """A codebook holding exactly ``points``, on the integer lattice."""
    points = np.asarray(points)
    N, n = points.shape
    if np.iscomplexobj(points):
        basis = LatticeBasis(COMPLEX, np.vstack([np.eye(n), 1j * np.eye(n)]))
    else:
        basis = LatticeBasis(REAL, np.eye(n))
    power = float(np.max(np.sum(np.abs(points) ** 2, axis=1))) / n
    return Codebook(points=points, alpha=1.0, shift=np.zeros(n, points.dtype),
                    achieved_rate=np.log2(N) / n, n=n, basis=basis,
                    power=power)


def full_scan(y, fading, codebook):
    metrics = np.sum(np.abs(y - fading * codebook.points) ** 2, axis=1)
    return int(np.argmin(metrics)), metrics.min()


def brute_force_ml(y, realization, codebook):
    best, best_m = None, np.inf
    for p in codebook.points:
        m = float(np.sum(np.abs(y - realization.fading * p) ** 2))
        if m < best_m:
            best, best_m = p, m
    return best, best_m


class TestZeroNoise:
    @pytest.mark.parametrize("model", [ch.AWGN_REAL, ch.RAYLEIGH_REAL])
    def test_both_decoders_recover(self, model):
        code = make_code()
        for t in range(20):
            idx = t % code.size
            s = code.points[idx]
            y, r = ch.transmit(s, model, 11, t, noise_scale=0.0)
            out = nld_decode(y, r, code, s)
            assert out.correct and out.is_codeword
            out = ml_decode(y, r, code, s)
            assert out.correct

    def test_complex_models(self):
        code = make_code("Qzeta5", rate=1.0, power=8.0)
        for model in [ch.AWGN_COMPLEX, ch.RAYLEIGH_COMPLEX]:
            for t in range(10):
                s = code.points[t % code.size]
                y, r = ch.transmit(s, model, 3, t, noise_scale=0.0)
                assert nld_decode(y, r, code, s).correct
                assert ml_decode(y, r, code, s).correct


class TestMlOracle:
    @pytest.mark.parametrize("model", [ch.AWGN_REAL, ch.RAYLEIGH_REAL])
    def test_matches_brute_force(self, model):
        code = make_code()
        for t in range(30):
            s = code.points[t % code.size]
            y, r = ch.transmit(s, model, 21, t)
            out = ml_decode(y, r, code, s)
            ref, ref_m = brute_force_ml(y, r, code)
            assert out.metric == pytest.approx(ref_m, rel=1e-10)
            assert np.allclose(out.decoded, ref)

    @pytest.mark.parametrize("name,model", [
        ("F8-17", ch.AWGN_REAL), ("F8-17", ch.RAYLEIGH_REAL),
        ("Qzeta5", ch.AWGN_COMPLEX), ("Qzeta5", ch.RAYLEIGH_COMPLEX)])
    def test_matches_full_scan_exactly(self, name, model, f8_rate2):
        code = f8_rate2 if name == "F8-17" else make_code(name, power=8.0)
        for t in range(30):
            s = code.points[(7 * t) % code.size]
            y, r = ch.transmit(s, model, 23, t)
            out = ml_decode(y, r, code, s)
            idx, metric = full_scan(y, r.fading, code)
            assert out.metric == metric
            assert np.array_equal(out.decoded, code.points[idx])

    @staticmethod
    def decode_peak(code, model):
        """Peak traced memory of one warm ML decode."""
        s = code.points[0]
        y, r = ch.transmit(s, model, 29, 0)
        ml_decode(y, r, code, s)  # fills the codebook's caches
        tracemalloc.start()
        try:
            ml_decode(y, r, code, s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_memory_is_bounded(self, f8_rate2):
        peak = self.decode_peak(f8_rate2, ch.RAYLEIGH_REAL)
        # one (N, n) temporary would take code.n times as much
        assert peak < 4 * 8 * f8_rate2.size
        assert 4 < f8_rate2.n

    def test_awgn_memory_is_bounded_without_squares(self, f8_rate2):
        code = dataclasses.replace(f8_rate2)  # the same code, no caches yet
        peak = self.decode_peak(code, ch.AWGN_REAL)
        assert peak < 4 * 8 * code.size
        # the (N, n) |points|^2 is built for fading decodes only
        assert "_squares" not in code.__dict__

    def test_ml_never_beaten_by_nld_inside_codebook(self):
        # when nld lands inside the codebook its metric cannot beat ml
        code = make_code()
        for t in range(50):
            s = code.points[t % code.size]
            y, r = ch.transmit(s, ch.RAYLEIGH_REAL, 31, t)
            ml = ml_decode(y, r, code, s)
            nl = nld_decode(y, r, code, s)
            assert nl.metric <= ml.metric + 1e-9
            if nl.is_codeword:
                assert ml.metric <= nl.metric + 1e-9


class TestMlTies:
    """Exact ties reach the rescoring window; the first index wins."""

    @pytest.fixture
    def rescored(self, monkeypatch):
        sizes = []
        exact = decoder._exact_metrics

        def spy(y, fading, rows):
            sizes.append(len(rows))
            return exact(y, fading, rows)

        monkeypatch.setattr(decoder, "_exact_metrics", spy)
        return sizes

    code = plain_code(list(itertools.product(range(-2, 3), repeat=3)))

    def test_midpoint_picks_lower_index(self, rescored):
        a, b = 62, 87  # (0, 0, 0) and (1, 0, 0)
        y = (self.code.points[a] + self.code.points[b]) / 2
        r = ch.ChannelRealization(fading=np.ones(3), noise=np.zeros(3),
                                  model=ch.AWGN_REAL)
        out = ml_decode(y, r, self.code, self.code.points[b])
        assert np.array_equal(out.decoded, self.code.points[a])
        assert not out.correct and out.metric == 0.25
        assert full_scan(y, r.fading, self.code) == (a, out.metric)
        assert rescored == [2]

    def test_zero_coefficient_ties_every_row_in_its_coordinate(self,
                                                               rescored):
        fading = np.array([0.0, 0.8, 1.3])
        s = self.code.points[88]  # (1, 0, 1)
        y = fading * s + np.array([0.4, 0.1, -0.2])
        r = ch.ChannelRealization(fading=fading, noise=np.zeros(3),
                                  model=ch.RAYLEIGH_REAL)
        out = ml_decode(y, r, self.code, s)
        idx, metric = full_scan(y, fading, self.code)
        assert np.array_equal(out.decoded, self.code.points[idx])
        assert out.metric == metric
        assert out.decoded[0] == -2  # five rows tie; the first one wins
        assert rescored == [5]
        with pytest.raises(ValueError, match="singular"):
            nld_decode(y, r, self.code, s)


class TestMlProperty:
    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 300),
           n=st.integers(1, 6), cplx=st.booleans(),
           scale=st.floats(-3.0, 3.0), integral=st.booleans(),
           midpoint=st.booleans(), fades=st.booleans(),
           kinds=st.lists(st.sampled_from(["rand", "tiny", "zero"]),
                          min_size=6, max_size=6))
    def test_equals_full_scan(self, seed, size, n, cplx, scale, integral,
                              midpoint, fades, kinds):
        rng = np.random.default_rng(seed)

        def draw(shape):
            x = (rng.integers(-3, 4, (2,) + shape) if integral
                 else rng.standard_normal((2,) + shape))
            return 10.0 ** scale * (x[0] + 1j * x[1] if cplx
                                    else x[0].astype(float))

        code = plain_code(draw((size, n)))
        fading = rng.rayleigh(size=n) * (np.exp(1j * rng.uniform(0, 7, n))
                                         if cplx else 1.0)
        fading = np.where(np.array(kinds[:n]) == "tiny", 1e-8 * fading,
                          fading)
        fading = np.where(np.array(kinds[:n]) == "zero", 0.0, fading)
        if not fades:  # an unfaded realization, as the channel draws it
            fading = np.ones(n, dtype=complex if cplx else float)
        a, b = rng.integers(0, size, 2)
        if midpoint:
            y = fading * (code.points[a] + code.points[b]) / 2
        else:
            y = fading * code.points[a] + draw((n,))
        r = ch.ChannelRealization(
            fading=fading, noise=np.zeros(n),
            model=[[ch.AWGN_REAL, ch.AWGN_COMPLEX],
                   [ch.RAYLEIGH_REAL, ch.RAYLEIGH_COMPLEX]][fades][cplx])
        out = ml_decode(y, r, code, code.points[a])
        ref, ref_metric = brute_force_ml(y, r, code)
        assert np.array_equal(out.decoded, ref)
        assert out.metric == ref_metric
        # one row and one complex coordinate: numpy's scalar multiply loop
        # may round the one-shot scan differently
        if size > 1:
            idx, metric = full_scan(y, fading, code)
            assert np.array_equal(out.decoded, code.points[idx])
            assert out.metric == metric


class TestDominance:
    @pytest.mark.parametrize("model", [ch.AWGN_REAL, ch.RAYLEIGH_REAL])
    def test_nld_correct_implies_ml_correct(self, model):
        # an nld success lands on the transmitted point, which then also has
        # the best finite-codebook metric
        code = make_code()
        nld_ok = ml_ok = 0
        for t in range(300):
            s = code.points[t % code.size]
            y, r = ch.transmit(s, model, 41, t)
            nl = nld_decode(y, r, code, s)
            ml = ml_decode(y, r, code, s)
            nld_ok += nl.correct
            ml_ok += ml.correct
            if nl.correct:
                assert ml.correct
        assert ml_ok >= nld_ok


class TestFadingHandling:
    def test_tiny_fading_is_stable(self):
        for name, model, depth in [
                ("F4-725", ch.RAYLEIGH_REAL, 1e-6),
                ("F4-725", ch.RAYLEIGH_REAL, 1e-8),
                ("F8-17", ch.RAYLEIGH_REAL, 1e-8),
                # the interleaved re/im rows of a complex code, faded
                ("Qzeta5", ch.RAYLEIGH_COMPLEX, 1e-8 * np.exp(0.7j))]:
            code = make_code(name)
            s = code.points[0]
            fading = np.ones(code.n, dtype=np.asarray(depth).dtype)
            fading[0] = depth
            r = ch.ChannelRealization(fading=fading, noise=np.zeros(code.n),
                                      model=model)
            y = fading * s
            out = nld_decode(y, r, code, s)
            assert np.all(np.isfinite(out.decoded))
            assert out.metric < 1e-12

    def test_zero_fading_raises(self):
        code = make_code()
        s = code.points[0]
        fading = np.array([0.0, 1.0, 1.0, 1.0])
        r = ch.ChannelRealization(fading=fading, noise=np.zeros(4),
                                  model=ch.RAYLEIGH_REAL)
        with pytest.raises(ValueError, match="singular"):
            nld_decode(fading * s, r, code, s)

    def test_awgn_reduces_to_plain_lattice_decoding(self):
        code = make_code()
        s = code.points[1]
        y, r = ch.transmit(s, ch.AWGN_REAL, 51, 0)
        out = nld_decode(y, r, code, s)
        # with unit fading the faded lattice is the code lattice itself
        from latcode import lattice
        v, _ = lattice.closest_vector_coords(code.basis,
                                             np.asarray(y) - code.shift)
        assert np.allclose(out.decoded, code.shift + v)


class TestCodebookMembership:
    def test_norm_test_agrees_with_codebook_scan(self):
        """``is_codeword`` tests the decoded point's norm against the carving
        ball; a scan of every codeword gives the same answer."""
        off = 0
        for name, model in [("F4-725", ch.AWGN_REAL),
                            ("F4-725", ch.RAYLEIGH_REAL),
                            ("F8-17", ch.RAYLEIGH_REAL),
                            ("Qzeta5", ch.AWGN_COMPLEX),
                            ("Qzeta5", ch.RAYLEIGH_COMPLEX)]:
            for snr_db in (3.0, 9.0, 15.0):
                code = make_code(name, power=10.0 ** (snr_db / 10.0))
                for t in range(100):
                    s = code.points[t % code.size]
                    y, r = ch.transmit(s, model, 17, t)
                    out = nld_decode(y, r, code, s)
                    gap = np.max(np.abs(code.points - out.decoded), axis=1)
                    in_scan = bool(gap.min() <= 1e-8)
                    assert out.is_codeword == in_scan
                    off += not in_scan
        assert off > 200
