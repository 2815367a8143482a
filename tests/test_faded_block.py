"""A block of faded bases built at once: bit-identical to the faded basis
that was built one fading at a time, with its own singularity test and QR.
Covered: seeded Rayleigh blocks on F4-725, F8-17 and Qzeta5, single-coordinate
deep fades (whose fast walk trips into the LLL fallback), a zero fade in a
block, and the simulation's blocks of trials against single decodes."""

import math

import numpy as np
import pytest

from latcode import channel as ch
from latcode import cli, lattice
from latcode import numberfield as nf
from latcode.codebook import CodeConfig, carve, energy_normalization
from latcode.decoder import ml_decode, nld_decode
from latcode.lattice import COMPLEX, EnumerationCapError, LatticeBasis

# ``LatticeBasis.faded`` before it took a stack, with the helpers it called,
# kept verbatim as the reference that every basis of a block must match.


def reference_qr(B):
    Q, R = np.linalg.qr(B.T)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs, R * signs[:, None]


def reference_complex_to_real(vecs):
    arr = np.asarray(vecs, dtype=complex)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    out = np.empty((arr.shape[0], 2 * arr.shape[1]))
    out[:, 0::2] = arr.real
    out[:, 1::2] = arr.imag
    return out[0] if single else out


def reference_real_to_complex(vecs):
    arr = np.asarray(vecs, dtype=float)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    out = arr[:, 0::2] + 1j * arr[:, 1::2]
    return out[0] if single else out


def reference_faded(basis, h):
    """(vectors, real_matrix, hint rows, Q, R as lists) of the old faded
    basis; its constructor's rank test is ``LatticeBasis``'s own."""
    cplx = basis.ambient == COMPLEX
    vectors = np.asarray(basis.vectors * h, dtype=complex if cplx else float)
    real = reference_complex_to_real(vectors) if cplx else vectors
    if np.linalg.slogdet(real)[0] == 0:
        raise ValueError("basis is singular")
    red = basis._reduced
    ambient = (reference_real_to_complex(red.rows) if cplx
               else np.asarray(red.rows, dtype=float))
    rows = ambient * h
    rows = reference_complex_to_real(rows) if cplx else np.asarray(rows,
                                                                   dtype=float)
    Q, R = reference_qr(rows)
    return vectors, real, rows, Q, R.tolist()


def code_lattice(name):
    f = nf.catalog_field(name)
    return nf.embedding_matrix(f).scaled(
        math.sqrt(energy_normalization(f, 1.0, 10.0)))


def assert_block_identical(basis, fadings):
    """Every basis of the block equals the old one-at-a-time build, bit for
    bit and dtype for dtype, and closest-point searches on it agree."""
    block = basis.faded(np.asarray(fadings))
    assert isinstance(block, list) and len(block) == len(fadings)
    for h, got in zip(fadings, block):
        vectors, real, rows, Q, R = reference_faded(basis, h)
        hint = got._hint
        assert got.ambient == basis.ambient
        assert got.vectors.dtype == vectors.dtype
        assert np.array_equal(got.vectors, vectors)
        assert np.array_equal(got.real_matrix, real)
        assert np.array_equal(hint.rows, rows)
        assert hint.U is basis._reduced.U
        assert np.array_equal(hint.Q, Q) and hint.Q.flags.c_contiguous
        assert hint.R == R
        # a fading given alone is a block of one
        single = basis.faded(h)
        assert isinstance(single, LatticeBasis)
        assert np.array_equal(single._hint.Q, Q) and single._hint.R == R
    return block


SEEDED = [("F4-725", ch.RAYLEIGH_REAL), ("F8-17", ch.RAYLEIGH_REAL),
          ("Qzeta5", ch.RAYLEIGH_COMPLEX)]


class TestBlockMatchesOldFaded:
    @pytest.mark.parametrize("name, model", SEEDED)
    def test_seeded_rayleigh_blocks(self, name, model):
        basis = code_lattice(name)
        for seed in (1, 2, 3):
            fadings = [ch.sample_realization(model, basis.n, seed, t).fading
                       for t in range(cli._BLOCK_TRIALS)]
            assert_block_identical(basis, fadings)

    @pytest.mark.parametrize("name", ["F4-725", "F8-17", "Qzeta5"])
    def test_single_coordinate_deep_fades(self, name):
        basis = code_lattice(name)
        phase = np.exp(0.7j) if basis.ambient == COMPLEX else 1.0
        fadings = []
        for depth in (1e-2, 1e-3, 1e-5, 1e-8):
            for col in range(basis.n):
                h = np.ones(basis.n) * phase
                h[col] *= depth
                fadings.append(h)
        block = assert_block_identical(basis, fadings)
        rng = np.random.default_rng(41)
        tripped = 0
        for h, faded in zip(fadings, block):
            target = faded.to_ambient(
                3.0 * rng.standard_normal(basis.rank) @ faded.real_matrix)
            try:
                lattice._closest(faded, faded._hint, target,
                                 lattice._FADED_NODES)
            except EnumerationCapError:
                tripped += 1
            # the fallback reduces the faded basis itself, as before
            plain = LatticeBasis(basis.ambient, basis.vectors * h)
            got = lattice.closest_vector_coords(faded, target)
            alone = lattice.closest_vector_coords(basis.faded(h), target)
            assert np.array_equal(got, alone)
            assert np.array_equal(got,
                                  lattice.closest_vector_coords(plain, target))
        assert tripped > 0  # the fallback is covered


class TestZeroFade:
    def test_block_names_the_singular_fade(self):
        basis = code_lattice("F4-725")
        fadings = np.array([ch.sample_realization(
            ch.RAYLEIGH_REAL, 4, 5, t).fading for t in range(10)])
        fadings[6, 2] = 0.0
        with pytest.raises(ValueError, match="singular under fading 6$") \
                as info:
            basis.faded(fadings)
        assert info.value.index == 6

    def test_single_fade_keeps_its_error(self):
        basis = code_lattice("Qzeta5")
        with pytest.raises(ValueError, match="^basis is singular$"):
            basis.faded(np.array([1.0, 0.0], dtype=complex))

    def test_simulation_names_the_trial(self, monkeypatch):
        field = nf.catalog_field("F4-725")
        code = carve(CodeConfig(rate=1.0, power=10.0, field=field, seed=0))
        real_transmit = cli.transmit

        def transmit(s, model, master_seed, trial_index):
            y, r = real_transmit(s, model, master_seed, trial_index)
            if trial_index == 70:
                r.fading[1] = 0.0
            return y, r

        monkeypatch.setattr(cli, "transmit", transmit)
        with pytest.raises(ValueError, match="^trial 70: .*singular"):
            cli._simulate_chunk(code, ch.RAYLEIGH_REAL, 3, 0, 100, "nld")
        # ML decodes a zero fade
        cli._simulate_chunk(code, ch.RAYLEIGH_REAL, 3, 0, 100, "ml")


class TestBlockedSimulation:
    @pytest.mark.parametrize("name, model", SEEDED)
    def test_counts_equal_single_decodes(self, name, model, monkeypatch):
        """Blocked chunks count the errors of single decodes, whatever the
        block size and chunk bounds."""
        field = nf.catalog_field(name)
        code = carve(CodeConfig(rate=1.0, power=10.0 ** 0.8, field=field,
                                seed=1))
        nld = ml = both = 0
        for t in range(5, 80):
            rng = ch.stream_rng(9, t, ch.STREAM_MESSAGE)
            m = int(rng.integers(code.size))
            y, r = ch.transmit(code.points[m], model, 9, t)
            nld_ok = nld_decode(y, r, code, m).correct
            ml_ok = ml_decode(y, r, code, m).correct
            nld, ml = nld + (not nld_ok), ml + (not ml_ok)
            both += nld_ok and not ml_ok
        assert nld > 0
        for block in (1, 7, cli._BLOCK_TRIALS):
            monkeypatch.setattr(cli, "_BLOCK_TRIALS", block)
            assert cli._simulate_chunk(code, model, 9, 5, 80, "both") == \
                (nld, ml, both)

    @pytest.mark.parametrize("model", [ch.AWGN_REAL, ch.RAYLEIGH_REAL])
    def test_counts_on_a_code_past_a_block(self, model, monkeypatch):
        """On a code of more than 64 rows, ML scored a block at a time
        (``ml_near_rows``) counts the errors of single decodes."""
        code = carve(CodeConfig(rate=1.0, power=10.0 ** 0.6,
                                field=nf.catalog_field("F8-17"), seed=1))
        assert code.size > 64
        nld = ml = both = 0
        for t in range(3, 90):
            rng = ch.stream_rng(4, t, ch.STREAM_MESSAGE)
            m = int(rng.integers(code.size))
            y, r = ch.transmit(code.points[m], model, 4, t)
            nld_ok = nld_decode(y, r, code, m).correct
            ml_ok = ml_decode(y, r, code, m).correct
            nld, ml = nld + (not nld_ok), ml + (not ml_ok)
            both += nld_ok and not ml_ok
        assert ml > 0
        for block in (1, 7, 64):
            monkeypatch.setattr(cli, "_BLOCK_TRIALS", block)
            assert cli._simulate_chunk(code, model, 4, 3, 90, "both") == \
                (nld, ml, both)

    def test_nld_decode_takes_the_callers_basis(self):
        field = nf.catalog_field("Qzeta5")
        code = carve(CodeConfig(rate=1.0, power=10.0, field=field, seed=2))
        y, r = ch.transmit(code.points[3], ch.RAYLEIGH_COMPLEX, 4, 11)
        given = nld_decode(y, r, code, 3, faded=code.basis.faded(r.fading))
        built = nld_decode(y, r, code, 3)
        assert np.array_equal(given.coords, built.coords)
        assert (given.correct, given.is_codeword) == \
            (built.correct, built.is_codeword)
