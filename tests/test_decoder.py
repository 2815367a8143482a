import numpy as np
import pytest

from latcode import channel as ch
from latcode import decoder
from latcode import numberfield as nf
from latcode.codebook import CodeConfig, carve
from latcode.decoder import ml_decode, nld_decode


def make_code(name="F4-725", rate=1.0, power=10.0, seed=5):
    return carve(CodeConfig(rate=rate, power=power,
                            field=nf.catalog_field(name), seed=seed))


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

    @pytest.mark.parametrize("model", [ch.AWGN_REAL, ch.RAYLEIGH_REAL])
    def test_blocks_match_one_scan(self, model, monkeypatch):
        code = make_code(rate=2.0)
        # 7-row blocks, the last one partial
        monkeypatch.setattr(decoder, "_ML_BLOCK_BYTES",
                            7 * code.points[0].nbytes)
        for t in range(30):
            s = code.points[t % code.size]
            y, r = ch.transmit(s, model, 23, t)
            out = ml_decode(y, r, code, s)
            metrics = np.sum(np.abs(y - r.fading * code.points) ** 2, axis=1)
            assert out.metric == metrics.min()
            assert np.array_equal(out.decoded,
                                  code.points[np.argmin(metrics)])

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
                                      model=model, seed_path=(0, 0))
            y = fading * s
            out = nld_decode(y, r, code, s)
            assert np.all(np.isfinite(out.decoded))
            assert out.metric < 1e-12

    def test_zero_fading_raises(self):
        code = make_code()
        s = code.points[0]
        fading = np.array([0.0, 1.0, 1.0, 1.0])
        r = ch.ChannelRealization(fading=fading, noise=np.zeros(4),
                                  model=ch.RAYLEIGH_REAL, seed_path=(0, 0))
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
